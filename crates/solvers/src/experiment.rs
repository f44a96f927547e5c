//! The measurement driver reproducing the paper's evaluation (§4).
//!
//! Each of Figures 7–10 is a sweep over one parameter (processor count or
//! mesh size) for one machine (NCUBE/7 or iPSC/2), reporting total /
//! executor / inspector simulated time, the inspector overhead, and — for
//! the mesh-size sweeps — the speedup "relative to the executor time on one
//! processor".  [`run_jacobi_experiment`] produces one such row.
//!
//! Because the simulation is deterministic, the executor cost of every sweep
//! after the first is identical; [`ExperimentParams::extrapolate_from`] lets
//! the harness measure a few sweeps and scale to the paper's 100, which is
//! exact (and is how the very large 512²/1024² rows stay cheap to run).

use distrib::DimDist;
use dmsim::{CostModel, Machine};
use kali_core::process::Process;
use meshes::{AdjacencyMesh, RegularGrid};

use crate::jacobi::{jacobi_sweeps, JacobiConfig};
use crate::partitioned::partitioned_dist;
use crate::report::{CommReport, ExperimentRow, PhaseBreakdown};

/// How the mesh nodes are placed on the processors.
#[derive(Debug, Clone, Default)]
pub enum Placement {
    /// `dist by [block]` on the node indices — the paper's declaration.
    #[default]
    Block,
    /// Connectivity-partitioned irregular distribution
    /// ([`partitioned_dist`]).
    Partitioned,
    /// A distribution the caller built for the run's rank count, the same
    /// on every rank.
    Dist(DimDist),
}

impl Placement {
    /// Short name for table rows.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Block => "block",
            Placement::Partitioned => "partitioned",
            Placement::Dist(dist) => dist.kind_name(),
        }
    }

    /// This rank's distribution of `mesh`'s nodes.  Collective under
    /// [`Placement::Partitioned`], so every rank must call it.
    pub fn on_rank<P: Process>(&self, proc: &mut P, mesh: &AdjacencyMesh) -> DimDist {
        match self {
            Placement::Block => DimDist::block(mesh.len(), proc.nprocs()),
            Placement::Partitioned => partitioned_dist(proc, mesh),
            Placement::Dist(dist) => dist.clone(),
        }
    }

    /// The same distribution over `nprocs` ranks, built outside the machine
    /// (the partitioner is deterministic): what a sequential replay folds
    /// its reductions over and a gather reassembles a run under.
    pub fn in_replay(&self, mesh: &AdjacencyMesh, nprocs: usize) -> DimDist {
        match self {
            Placement::Block => DimDist::block(mesh.len(), nprocs),
            Placement::Partitioned => {
                DimDist::custom(meshes::greedy_partition(mesh, nprocs), nprocs)
            }
            Placement::Dist(dist) => dist.clone(),
        }
    }
}

/// Parameters of one table row.
#[derive(Debug, Clone)]
pub struct ExperimentParams {
    /// Machine cost model (NCUBE/7, iPSC/2, ideal, …).
    pub cost: CostModel,
    /// Number of processors.
    pub nprocs: usize,
    /// Mesh side length (the mesh is `mesh_side × mesh_side`).
    pub mesh_side: usize,
    /// Number of sweeps to report (the paper uses 100).
    pub sweeps: usize,
    /// Fill in the speedup column (relative to the one-processor executor).
    pub compute_speedup: bool,
    /// If set, actually execute only this many sweeps and scale the executor
    /// time exactly (valid because the simulated per-sweep cost is constant
    /// once the schedule is cached).
    pub extrapolate_from: Option<usize>,
    /// Ablation: re-run the inspector on every sweep.
    pub disable_schedule_cache: bool,
    /// Check convergence with a global typed reduction every `k` sweeps
    /// (`None` — the paper's timed runs — disables the check).  The
    /// resulting value surfaces in `ExperimentRow::final_change`, and the
    /// reduction count/bytes in the row's `CommReport`.
    pub convergence_check_every: Option<usize>,
}

impl ExperimentParams {
    /// Row of the NCUBE/7 processor sweep (Figure 7) or iPSC/2 processor
    /// sweep (Figure 8): 128×128 mesh, 100 sweeps.
    pub fn paper_processor_row(cost: CostModel, nprocs: usize) -> Self {
        ExperimentParams {
            cost,
            nprocs,
            mesh_side: 128,
            sweeps: 100,
            compute_speedup: false,
            extrapolate_from: None,
            disable_schedule_cache: false,
            convergence_check_every: None,
        }
    }

    /// Row of the mesh-size sweeps (Figures 9 and 10): fixed processor
    /// count, varying mesh, 100 sweeps, with speedup.
    pub fn paper_meshsize_row(cost: CostModel, nprocs: usize, mesh_side: usize) -> Self {
        ExperimentParams {
            cost,
            nprocs,
            mesh_side,
            sweeps: 100,
            compute_speedup: true,
            // Large meshes: measure 2 sweeps and scale exactly.
            extrapolate_from: if mesh_side > 256 { Some(2) } else { None },
            disable_schedule_cache: false,
            convergence_check_every: None,
        }
    }
}

/// Run one experiment configuration and produce one table row.
pub fn run_jacobi_experiment(params: &ExperimentParams) -> ExperimentRow {
    let grid = RegularGrid::square(params.mesh_side);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    run_jacobi_experiment_placed(params, &mesh, &initial, &Placement::Block)
}

/// Run one configuration over `mesh` under the chosen node placement and
/// produce one table row.
///
/// The communication/cache statistics in the returned row's `comm` field
/// are the raw counters of the *measured* run — they are not scaled by the
/// extrapolation (message counts per sweep are constant once the schedule
/// is cached, so per-sweep rates can be derived exactly).
pub fn run_jacobi_experiment_placed(
    params: &ExperimentParams,
    mesh: &AdjacencyMesh,
    initial: &[f64],
    placement: &Placement,
) -> ExperimentRow {
    let measured_sweeps = params
        .extrapolate_from
        .unwrap_or(params.sweeps)
        .min(params.sweeps)
        .max(1);
    let config = JacobiConfig {
        sweeps: measured_sweeps,
        convergence_check_every: params.convergence_check_every,
        disable_schedule_cache: params.disable_schedule_cache,
        ..JacobiConfig::default()
    };

    let machine = Machine::new(params.nprocs, params.cost.clone());
    let (outcomes, stats) = machine.run_stats(|proc| {
        let dist = placement.on_rank(proc, mesh);
        jacobi_sweeps(proc, mesh, &dist, initial, &config)
    });

    let total_measured = outcomes.iter().map(|o| o.total_time).fold(0.0, f64::max);
    let inspector = outcomes
        .iter()
        .map(|o| o.inspector_time)
        .fold(0.0, f64::max);
    let executor_measured = total_measured - inspector;

    // Exact extrapolation: per-sweep executor cost is constant after the
    // first sweep (deterministic simulation, cached schedule).
    let scale = params.sweeps as f64 / measured_sweeps as f64;
    let executor = executor_measured * scale;
    let total = executor + inspector;

    let speedup = if params.compute_speedup {
        let seq = sequential_executor_time(&params.cost, mesh, params.sweeps);
        Some(seq / executor)
    } else {
        None
    };

    ExperimentRow {
        machine: params.cost.name.to_string(),
        nprocs: params.nprocs,
        mesh_side: params.mesh_side,
        mesh_nodes: mesh.len(),
        sweeps: params.sweeps,
        times: PhaseBreakdown {
            total,
            executor,
            inspector,
        },
        speedup,
        comm: CommReport {
            messages: stats.totals.msgs_sent,
            bytes: stats.totals.bytes_sent,
            nonlocal_refs: stats.totals.nonlocal_refs,
            halo_elements: outcomes.iter().map(|o| o.recv_elements).sum(),
            cache_hits: outcomes.iter().map(|o| o.cache_hits).sum(),
            cache_misses: outcomes.iter().map(|o| o.cache_misses).sum(),
            cache_evictions: outcomes.iter().map(|o| o.cache_evictions).sum(),
            cache_resident_bytes: outcomes.iter().map(|o| o.cache_resident_bytes).sum(),
            reductions: outcomes.iter().map(|o| o.reductions).sum(),
            reduction_bytes: outcomes.iter().map(|o| o.reduction_bytes).sum(),
            wire_bytes: stats.totals.wire_bytes,
        },
        // The convergence value describes the *measured* run; when the
        // extrapolation truncated it, the value would not correspond to the
        // row's claimed sweep count, so it is withheld.
        final_change: if measured_sweeps == params.sweeps {
            outcomes.first().and_then(|o| o.global_change)
        } else {
            None
        },
        phase_comms: Vec::new(),
    }
}

/// Simulated executor time of the same program on **one** processor — the
/// paper's speedup baseline ("the closest measurement we have to an optimal
/// sequential program, since it does not include any overhead for either the
/// inspector or for communication").
///
/// On one processor the executor performs no communication and every access
/// is local, so its simulated time has a closed form in the cost model; this
/// is verified against an actual one-processor run in the tests.
pub fn sequential_executor_time(cost: &CostModel, mesh: &AdjacencyMesh, sweeps: usize) -> f64 {
    let n = mesh.len() as f64;
    let edges = mesh.edge_count() as f64;
    let nodes_with_neighbors = (0..mesh.len()).filter(|&i| mesh.degree(i) > 0).count() as f64;

    // Copy forall: per node one loop iteration and two memory references.
    let copy = n * (cost.loop_iter + 2.0 * cost.mem_ref);
    // Relaxation forall, outer part: executor loop control, count[i] read,
    // and the final store for nodes with at least one neighbour.
    let outer = n * (cost.loop_iter + cost.mem_ref) + nodes_with_neighbors * cost.mem_ref;
    // Relaxation forall, inner part: per edge one loop iteration, adj/coef
    // reads, multiply-accumulate, and one local fetch of old_a.
    let inner =
        edges * (cost.loop_iter + 2.0 * cost.mem_ref + 2.0 * cost.flop + cost.local_access());

    sweeps as f64 * (copy + outer + inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_formula_matches_actual_one_processor_run() {
        let grid = RegularGrid::square(12);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
            let params = ExperimentParams {
                cost: cost.clone(),
                nprocs: 1,
                mesh_side: 12,
                sweeps: 3,
                compute_speedup: false,
                extrapolate_from: None,
                disable_schedule_cache: false,
                convergence_check_every: None,
            };
            let row = run_jacobi_experiment_placed(&params, &mesh, &initial, &Placement::Block);
            let formula = sequential_executor_time(&cost, &mesh, 3);
            let measured = row.times.executor;
            let rel = (measured - formula).abs() / formula;
            assert!(
                rel < 1e-9,
                "{}: formula {formula} vs measured {measured}",
                cost.name
            );
        }
    }

    #[test]
    fn extrapolation_matches_full_run_exactly() {
        let full = run_jacobi_experiment(&ExperimentParams {
            cost: CostModel::ncube7(),
            nprocs: 4,
            mesh_side: 16,
            sweeps: 12,
            compute_speedup: true,
            extrapolate_from: None,
            disable_schedule_cache: false,
            convergence_check_every: None,
        });
        let extrapolated = run_jacobi_experiment(&ExperimentParams {
            cost: CostModel::ncube7(),
            nprocs: 4,
            mesh_side: 16,
            sweeps: 12,
            compute_speedup: true,
            extrapolate_from: Some(3),
            disable_schedule_cache: false,
            convergence_check_every: None,
        });
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        assert!(rel(full.times.executor, extrapolated.times.executor) < 1e-9);
        assert!(rel(full.times.inspector, extrapolated.times.inspector) < 1e-9);
        assert!(rel(full.times.total, extrapolated.times.total) < 1e-9);
        assert!(
            rel(full.speedup.unwrap(), extrapolated.speedup.unwrap()) < 1e-9,
            "speedups must agree"
        );
    }

    #[test]
    fn more_processors_reduce_total_time() {
        let t = |nprocs| {
            run_jacobi_experiment(&ExperimentParams {
                cost: CostModel::ipsc2(),
                nprocs,
                mesh_side: 32,
                sweeps: 10,
                compute_speedup: false,
                extrapolate_from: None,
                disable_schedule_cache: false,
                convergence_check_every: None,
            })
            .times
            .total
        };
        let t2 = t(2);
        let t8 = t(8);
        assert!(t8 < t2 / 2.0, "t2 = {t2}, t8 = {t8}");
    }

    #[test]
    fn speedup_is_bounded_by_processor_count_and_positive() {
        let row = run_jacobi_experiment(&ExperimentParams {
            cost: CostModel::ipsc2(),
            nprocs: 8,
            mesh_side: 64,
            sweeps: 20,
            compute_speedup: true,
            extrapolate_from: Some(2),
            disable_schedule_cache: false,
            convergence_check_every: None,
        });
        let s = row.speedup.unwrap();
        assert!(s > 1.0, "speedup {s} should exceed 1");
        assert!(s <= 8.05, "speedup {s} cannot exceed the processor count");
    }
}

//! The paper's Figure 4 program: nearest-neighbour relaxation on a mesh in
//! adjacency-list form, written against the Kali global name space.
//!
//! ```text
//! while (not converged) do
//!   forall i in 1..n on old_a[i].loc do  old_a[i] := a[i]  end;
//!   forall i in 1..n on a[i].loc do
//!     var x : real;  x := 0.0;
//!     for j in 1..count[i] do  x := x + coef[i,j] * old_a[ adj[i,j] ];  end;
//!     if (count[i] > 0) then a[i] := x; end;
//!   end;
//! end;
//! ```
//!
//! The reference `old_a[adj[i,j]]` is data dependent, so the communication
//! schedule comes from the run-time inspector; it is computed once and
//! cached across sweeps (§3.3).  The solver accepts *any* distribution
//! through the [`DimDist`] handle — block/cyclic patterns or the
//! partitioned irregular owner maps of [`crate::partitioned`]; nothing in
//! the loop body depends on the placement, which is the paper's central
//! usability claim.  The program is generic over the
//! [`Process`] backend: on the `dmsim` simulator every per-operation cost
//! is charged to the machine's cost model so the simulated clocks reproduce
//! the paper's measurements; on the `kali-native` backend the cost hooks
//! are no-ops and the sweeps run at wall-clock speed, with bit-identical
//! array contents (the arithmetic order is backend-independent).
//!
//! With [`JacobiConfig::adapt_every`] set, the same program runs while
//! `adj` changes under it, stressing §3.2's amortisation: each adaptation
//! bumps the data version (the cache re-inspects exactly then), a
//! [`rebalance`](JacobiConfig::rebalance) retires the old placement's
//! schedules by fingerprint, and residency stays within
//! [`cache_capacity`](JacobiConfig::cache_capacity) however many keys a run
//! mints.  [`crate::adaptive_jacobi_sequential`] replays it bit for bit.

use std::borrow::Cow;

use distrib::DimDist;
use kali_core::process::{Counters, Process};
use kali_core::{AffineMap, Fetcher, Reduce, Session, Sum};
use meshes::{adapt_step, adapts_before, AdaptConfig, AdjacencyMesh};

use crate::adaptive::{scatter_field, scatter_mesh};
use crate::partitioned::partitioned_dist;

/// Parameters of a Jacobi run.
#[derive(Debug, Clone, Copy)]
pub struct JacobiConfig {
    /// Number of relaxation sweeps ("we performed 100 Jacobi iterations",
    /// §4).
    pub sweeps: usize,
    /// Check convergence with a global residual reduction every `k` sweeps
    /// (`None` disables the check — the paper's timed runs use a fixed sweep
    /// count).
    pub convergence_check_every: Option<usize>,
    /// Re-run the inspector on every sweep instead of caching the schedule —
    /// the ablation quantifying §3.2's amortisation argument.
    pub disable_schedule_cache: bool,
    /// Intra-rank worker threads for the executor (`None` keeps the
    /// session default, which honours `KALI_WORKERS`).  Results are bitwise
    /// identical at every worker count.
    pub workers: Option<usize>,
    /// Chunk size for the executor (`None` keeps the session
    /// default, which honours `KALI_CHUNK`).
    pub chunk: Option<usize>,
    /// Adapt the mesh before every sweep whose index is a positive multiple
    /// of this interval (`None` = static mesh, the paper's setting).
    pub adapt_every: Option<usize>,
    /// Parameters of the deterministic mesh perturbation.
    pub adapt: AdaptConfig,
    /// After each adaptation, repartition the new connectivity and
    /// redistribute the live solution array to the rebalanced placement.
    pub rebalance: bool,
    /// Residency bound of the schedule cache.
    pub cache_capacity: usize,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            sweeps: 100,
            convergence_check_every: None,
            disable_schedule_cache: false,
            workers: None,
            chunk: None,
            adapt_every: None,
            adapt: AdaptConfig::default(),
            rebalance: false,
            cache_capacity: kali_core::cache::DEFAULT_CAPACITY,
        }
    }
}

impl JacobiConfig {
    /// A configuration with the given sweep count and defaults otherwise.
    pub fn with_sweeps(sweeps: usize) -> Self {
        JacobiConfig {
            sweeps,
            ..JacobiConfig::default()
        }
    }
}

/// Per-processor result of a Jacobi run.
///
/// The time fields are **simulated seconds** on the `dmsim` backend and 0.0
/// on backends that keep no clock (the native backend).
#[derive(Debug, Clone)]
pub struct JacobiOutcome {
    /// Final values of the locally owned mesh nodes, in local-index order
    /// under the placement the run ended on ([`crate::final_placement`]).
    pub local_a: Vec<f64>,
    /// Number of mesh adaptations performed.
    pub adaptations: u64,
    /// Simulated seconds spent in the inspector on this processor.
    pub inspector_time: f64,
    /// Simulated seconds spent adapting: mesh perturbation, repartitioning
    /// and redistribution (0.0 for a static run).
    pub adapt_time: f64,
    /// Simulated seconds spent in everything else (copy loop, executor,
    /// convergence checks) on this processor.
    pub executor_time: f64,
    /// Total simulated seconds of the timed region on this processor.
    pub total_time: f64,
    /// Operation counters accumulated during the timed region.
    pub counters: Counters,
    /// Number of range records in the last sweep's receive schedule.
    pub schedule_ranges: usize,
    /// Number of elements this processor received in the last sweep.
    pub recv_elements: usize,
    /// Distinct processors this processor received from in the last sweep.
    pub recv_partners: usize,
    /// Schedule-cache hits over the whole run (sweeps that reused a
    /// schedule instead of re-running the inspector).
    pub cache_hits: u64,
    /// Schedule-cache misses (inspector executions) over the whole run.
    pub cache_misses: u64,
    /// Schedule-cache evictions over the whole run (capacity pressure,
    /// generation self-invalidation, explicit invalidation).
    pub cache_evictions: u64,
    /// Schedules resident in the cache at the end of the run.
    pub cache_resident_entries: usize,
    /// Highest number of simultaneously resident schedules.
    pub cache_peak_resident: usize,
    /// Approximate bytes of schedules resident in the cache at the end of
    /// the run.
    pub cache_resident_bytes: usize,
    /// Global squared change `Σ_i (a_i − old_a_i)²` of the **last**
    /// convergence check, identical on every rank (and bitwise identical
    /// across backends — the check goes through the typed reduction
    /// pipeline).  `None` when convergence checking is disabled.
    pub global_change: Option<f64>,
    /// Every convergence check's global squared change, in sweep order.
    pub change_history: Vec<f64>,
    /// Global reductions performed (one per convergence check).
    pub reductions: u64,
    /// Payload bytes this rank sent for those reductions.
    pub reduction_bytes: u64,
}

/// The relaxation of Figure 4 for the node the body is running: the
/// coefficient-weighted sum of its neighbours' old values, with the paper's
/// cost charges.  Returns the node's local offset and new value — `None` for
/// a node without neighbours, which keeps its value.
#[inline]
fn relax_node(
    fetch: &mut Fetcher<'_, f64, DimDist>,
    count: &[u32],
    adj: &[u32],
    coef: &[f64],
    width: usize,
) -> Option<(usize, f64)> {
    let l = fetch.home();
    fetch.charge_mem_refs(1); // count[i]
    let deg = count[l] as usize;
    let mut x = 0.0f64;
    for j in 0..deg {
        fetch.charge_loop_iters(1);
        fetch.charge_mem_refs(2); // adj[i,j], coef[i,j]
        let nb = adj[l * width + j] as usize;
        let c = coef[l * width + j];
        let v = fetch.fetch(nb);
        fetch.charge_flops(2); // multiply + accumulate
        x += c * v;
    }
    if deg > 0 {
        fetch.charge_mem_refs(1); // a[i] := x
        Some((l, x))
    } else {
        None
    }
}

/// Run `config.sweeps` Jacobi sweeps over `mesh` with node arrays
/// distributed by `dist`, starting from the globally replicated `initial`
/// field.  Must be called collectively by every processor of the machine.
/// Under churn the mesh evolves identically on every rank, so version
/// bumps — and the collective inspector runs they trigger — stay in lockstep.
pub fn jacobi_sweeps<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    initial: &[f64],
    config: &JacobiConfig,
) -> JacobiOutcome {
    let rank = proc.rank();
    let n = mesh.len();
    assert_eq!(dist.n(), n, "distribution must cover every mesh node");
    assert_eq!(initial.len(), n, "initial field must cover every mesh node");
    // Borrowed until the first adaptation: a static run never copies the mesh.
    let mut mesh = Cow::Borrowed(mesh);
    let mut dist = dist.clone();

    // ---- Set-up ("code to set up arrays 'adj' and 'coef'", untimed) -------
    // Every distributed array of Figure 4, scattered according to `dist`:
    //   a, old_a : real[n]         dist by [block]
    //   count    : integer[n]      dist by [block]
    //   adj      : integer[n, w]   dist by [block, *]
    //   coef     : real[n, w]      dist by [block, *]
    let (mut count, mut adj, mut coef, mut width) = scatter_mesh(&mesh, &dist, rank);
    let mut a = scatter_field(&dist, rank, initial);
    let mut old_a: Vec<f64> = vec![0.0; a.len()];

    let mut session = Session::with_cache_capacity(config.cache_capacity);
    if let Some(w) = config.workers {
        session.set_workers(w);
    }
    if let Some(c) = config.chunk {
        session.set_chunk_size(c);
    }
    // One loop id per forall for the whole run: a rebalance re-points the
    // on-clause in place (the fingerprint in the cache key tells the
    // placements apart).
    let mut relaxation = session.loop_1d(n, dist.clone());
    // The convergence check of Figure 4 ("code to check convergence") is its
    // own forall over aligned arrays: identity subscripts, planned through
    // the closed form (zero planning messages, no cache entry), reduced
    // through the typed pipeline.
    let mut convergence = session.loop_1d(n, dist.clone());
    debug_assert_eq!(relaxation.exec_iters(rank).len(), a.len());

    let start_clock = proc.time();
    let counters_start = proc.counters();
    let mut adaptations = 0u64;
    let mut adapt_time = 0.0f64;
    let mut last_schedule = None;
    let mut change_history = Vec::new();
    // Planned at the first check and again after each rebalance, if ever.
    let mut convergence_schedule = None;

    for sweep in 0..config.sweeps {
        // -- a new data version: the mesh adapts, or the cache is ablated --
        let adapts = adapts_before(config.adapt_every, sweep);
        if adapts || (config.disable_schedule_cache && sweep > 0) {
            session.bump_data_version();
        }
        // -- adapt the mesh (and optionally the placement) ------------------
        if adapts {
            let before_adapt = proc.time();
            mesh = Cow::Owned(adapt_step(&mesh, &config.adapt, adaptations));
            adaptations += 1;
            if config.rebalance {
                let new_dist = partitioned_dist(proc, &mesh);
                a = session.redistribute(proc, &dist, &new_dist, &a);
                // The old placement is retired: reclaim every schedule built
                // under it (any data version — the fingerprint alone marks
                // them stale).
                session.retire_placement(&relaxation, &dist);
                dist = new_dist;
                relaxation.on_dist = dist.clone();
                convergence.on_dist = dist.clone();
                convergence_schedule = None;
            }
            // Re-scatter count/adj/coef from the adapted mesh (degrees may
            // have changed even without a redistribution).
            (count, adj, coef, width) = scatter_mesh(&mesh, &dist, rank);
            old_a.resize(a.len(), 0.0);
            adapt_time += proc.time() - before_adapt;
        }

        // -- copy mesh values: forall i on old_a[i].loc do old_a[i] := a[i] --
        // Purely local (a and old_a are aligned), so no schedule is needed.
        for l in 0..a.len() {
            proc.charge_loop_iters(1);
            proc.charge_mem_refs(2);
            old_a[l] = a[l];
        }

        // -- plan the relaxation forall (inspector once per data version) ---
        let schedule = session.plan_indirect(proc, &relaxation, &dist, |i, refs| {
            let l = dist.local_index(i);
            let deg = count[l] as usize;
            for j in 0..deg {
                refs.push(adj[l * width + j] as usize);
            }
        });

        // -- perform relaxation (computational core) --------------------------
        // The body computes each node's new value against a read-only view
        // (on a worker thread when the session has several); the sink
        // applies the writes on the calling thread in ascending iteration
        // order.
        let a_mut = &mut a;
        session.execute(
            proc,
            &relaxation,
            &schedule,
            &dist,
            &old_a,
            |_, fetch| relax_node(fetch, &count, &adj, &coef, width),
            |_, update| {
                if let Some((l, x)) = update {
                    a_mut[l] = x;
                }
            },
        );
        if sweep + 1 == config.sweeps {
            last_schedule = Some(schedule);
        }

        // -- code to check convergence ----------------------------------------
        if let Some(every) = config.convergence_check_every {
            if every > 0 && (sweep + 1) % every == 0 {
                let schedule = convergence_schedule.get_or_insert_with(|| {
                    session.plan(proc, &convergence, &dist, &[AffineMap::identity()])
                });
                let a_ref = &a;
                let old_ref = &old_a;
                let global_change = session.execute_reduce(
                    proc,
                    &convergence,
                    schedule,
                    &dist,
                    &old_a,
                    Reduce::<Sum<f64>>::new(),
                    |_, fetch| {
                        let l = fetch.home();
                        fetch.charge_mem_refs(2);
                        fetch.charge_flops(3);
                        let d = a_ref[l] - old_ref[l];
                        ((), d * d)
                    },
                    |_, ()| {},
                );
                change_history.push(global_change);
            }
        }
    }

    let total_time = proc.time() - start_clock;
    let counters = proc.counters().since(&counters_start);
    let stats = session.stats();
    let (schedule_ranges, recv_elements, recv_partners) = last_schedule.map_or((0, 0, 0), |s| {
        (s.range_count(), s.recv_len, s.recv_partner_count())
    });

    JacobiOutcome {
        local_a: a,
        adaptations,
        inspector_time: stats.inspector_time,
        adapt_time,
        executor_time: total_time - stats.inspector_time - adapt_time,
        total_time,
        counters,
        schedule_ranges,
        recv_elements,
        recv_partners,
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_evictions: stats.cache.evictions,
        cache_resident_entries: stats.cache.resident_entries,
        cache_peak_resident: stats.cache.peak_resident,
        cache_resident_bytes: stats.cache.resident_bytes,
        global_change: change_history.last().copied(),
        change_history,
        reductions: stats.reductions,
        reduction_bytes: stats.reduction_bytes,
    }
}

/// Sequential reference implementation of the same relaxation, used to check
/// numerical equivalence (it performs the floating-point operations in the
/// same order as the distributed program, so results match bit for bit).
pub fn jacobi_sequential(mesh: &AdjacencyMesh, initial: &[f64], sweeps: usize) -> Vec<f64> {
    let n = mesh.len();
    assert_eq!(initial.len(), n);
    let mut a = initial.to_vec();
    let mut old_a = vec![0.0f64; n];
    for _ in 0..sweeps {
        old_a.copy_from_slice(&a);
        for i in 0..n {
            let deg = mesh.degree(i);
            let mut x = 0.0f64;
            for j in 0..deg {
                x += mesh.coefs(i)[j] * old_a[mesh.neighbors(i)[j] as usize];
            }
            if deg > 0 {
                a[i] = x;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::gather_global;
    use dmsim::{CostModel, Machine};
    use meshes::{RegularGrid, UnstructuredMeshBuilder};

    /// Run under `dist by [block]` on `nprocs` simulated processors; the
    /// global field and every rank's outcome.
    fn solve_on_blocks(
        nprocs: usize,
        mesh: &AdjacencyMesh,
        initial: &[f64],
        config: &JacobiConfig,
        cost: CostModel,
    ) -> (Vec<f64>, Vec<JacobiOutcome>) {
        let machine = Machine::new(nprocs, cost);
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            jacobi_sweeps(proc, mesh, &dist, initial, config)
        });
        let locals: Vec<Vec<f64>> = outcomes.iter().map(|o| o.local_a.clone()).collect();
        let global = gather_global(&DimDist::block(mesh.len(), nprocs), &locals);
        (global, outcomes)
    }

    #[test]
    fn zero_sweeps_returns_initial_field() {
        let grid = RegularGrid::square(6);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        assert_eq!(jacobi_sequential(&mesh, &initial, 0), initial);
    }

    #[test]
    fn relaxation_smooths_towards_boundary_values() {
        // With zero boundary and averaging coefficients, the interior decays
        // towards zero.
        let grid = RegularGrid::square(10);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let after = jacobi_sequential(&mesh, &initial, 200);
        let norm_before: f64 = initial.iter().map(|v| v * v).sum();
        let norm_after: f64 = after.iter().map(|v| v * v).sum();
        assert!(
            norm_after < norm_before * 0.5,
            "{norm_after} vs {norm_before}"
        );
    }

    #[test]
    fn isolated_nodes_keep_their_values() {
        let mesh =
            AdjacencyMesh::from_lists(&[vec![], vec![2], vec![1]], &[vec![], vec![1.0], vec![1.0]]);
        let out = jacobi_sequential(&mesh, &[5.0, 1.0, 3.0], 1);
        assert_eq!(out[0], 5.0);
        assert_eq!(out[1], 3.0);
        assert_eq!(out[2], 1.0);
    }

    #[test]
    fn distributed_jacobi_matches_sequential_bitwise_on_grid() {
        let grid = RegularGrid::square(16);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let expected = jacobi_sequential(&mesh, &initial, 10);
        for nprocs in [1, 2, 4, 8] {
            let (got, _) = solve_on_blocks(
                nprocs,
                &mesh,
                &initial,
                &JacobiConfig::with_sweeps(10),
                CostModel::ideal(),
            );
            assert_eq!(got, expected, "nprocs = {nprocs}");
        }
    }

    #[test]
    fn distributed_jacobi_matches_sequential_on_unstructured_mesh() {
        let mesh = UnstructuredMeshBuilder::new(12, 12).seed(42).build();
        let initial: Vec<f64> = (0..mesh.len()).map(|i| (i % 13) as f64 * 0.25).collect();
        let expected = jacobi_sequential(&mesh, &initial, 7);
        let (got, outcomes) = solve_on_blocks(
            4,
            &mesh,
            &initial,
            &JacobiConfig::with_sweeps(7),
            CostModel::ideal(),
        );
        assert_eq!(got, expected);
        // The unstructured mesh must actually exercise communication.
        assert!(outcomes.iter().any(|o| o.recv_elements > 0));
    }

    #[test]
    fn scrambled_numbering_still_produces_correct_results() {
        let mesh = UnstructuredMeshBuilder::new(10, 10)
            .seed(5)
            .scramble_numbering(true)
            .build();
        let initial: Vec<f64> = (0..mesh.len()).map(|i| i as f64 * 0.01).collect();
        let expected = jacobi_sequential(&mesh, &initial, 5);
        let (got, outcomes) = solve_on_blocks(
            8,
            &mesh,
            &initial,
            &JacobiConfig::with_sweeps(5),
            CostModel::ideal(),
        );
        assert_eq!(got, expected);
        // Scrambled numbering produces many more ranges than the tidy grid.
        let ranges: usize = outcomes.iter().map(|o| o.schedule_ranges).sum();
        assert!(
            ranges > 8,
            "expected fragmented schedules, got {ranges} ranges"
        );
    }

    #[test]
    fn inspector_runs_once_with_cache_and_every_sweep_without() {
        let grid = RegularGrid::square(12);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let run = |disable_cache: bool| {
            let machine = Machine::new(4, CostModel::ncube7());
            let outcomes = machine.run(|proc| {
                let dist = DimDist::block(mesh.len(), proc.nprocs());
                let config = JacobiConfig {
                    sweeps: 10,
                    disable_schedule_cache: disable_cache,
                    ..JacobiConfig::default()
                };
                jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            });
            for o in &outcomes {
                assert_eq!(o.adaptations, 0, "static mesh");
                let (misses, hits, evictions) = if disable_cache { (10, 0, 9) } else { (1, 9, 0) };
                assert_eq!(o.cache_misses, misses, "cache disabled: {disable_cache}");
                assert_eq!(o.cache_hits, hits, "cache disabled: {disable_cache}");
                assert_eq!(
                    o.cache_evictions, evictions,
                    "cache disabled: {disable_cache}"
                );
            }
            outcomes
                .iter()
                .map(|o| o.inspector_time)
                .fold(0.0f64, f64::max)
        };
        let cached = run(false);
        let uncached = run(true);
        assert!(cached > 0.0);
        // Re-inspecting every sweep costs roughly 10x the once-only inspector.
        assert!(
            uncached > 5.0 * cached,
            "cached = {cached}, uncached = {uncached}"
        );
    }

    #[test]
    fn convergence_check_reduces_identically_on_all_ranks() {
        let grid = RegularGrid::square(8);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let config = JacobiConfig {
            sweeps: 6,
            convergence_check_every: Some(2),
            ..JacobiConfig::default()
        };
        let expected = jacobi_sequential(&mesh, &initial, 6);
        let (got, _) = solve_on_blocks(4, &mesh, &initial, &config, CostModel::ideal());
        assert_eq!(got, expected);
    }

    #[test]
    fn convergence_value_is_surfaced_not_discarded() {
        // Regression: the solver used to allreduce the squared change and
        // throw the result away (`_global_change`).  It now flows through
        // the typed reduction pipeline into the outcome, identical on every
        // rank and equal — bit for bit — to the replayed reduction over the
        // sequential fields.
        let grid = RegularGrid::square(8);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let nprocs = 4;
        let config = JacobiConfig {
            sweeps: 6,
            convergence_check_every: Some(2),
            ..JacobiConfig::default()
        };
        let (_, outcomes) = solve_on_blocks(nprocs, &mesh, &initial, &config, CostModel::ideal());
        let dist = DimDist::block(mesh.len(), nprocs);
        // Checks fire after sweeps 2, 4, 6; each compares against the
        // previous sweep's field.
        let expected: Vec<f64> = [2usize, 4, 6]
            .iter()
            .map(|&s| {
                let before = jacobi_sequential(&mesh, &initial, s - 1);
                let after = jacobi_sequential(&mesh, &initial, s);
                crate::reduce_replay::replay_sum(&dist, |i| {
                    let d = after[i] - before[i];
                    d * d
                })
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rank, o) in outcomes.iter().enumerate() {
            assert_eq!(bits(&o.change_history), bits(&expected));
            assert_eq!(
                o.global_change.map(f64::to_bits),
                Some(expected[2].to_bits())
            );
            assert_eq!(o.reductions, 3, "one reduction per check");
            let sends = kali_core::process::tree_allreduce_sends(nprocs, rank) as u64;
            assert_eq!(o.reduction_bytes, 3 * sends * 8);
        }
        // Checks disabled: no reductions, no value.
        let quiet = JacobiConfig::with_sweeps(4);
        let (_, outcomes) = solve_on_blocks(nprocs, &mesh, &initial, &quiet, CostModel::ideal());
        for o in &outcomes {
            assert_eq!(o.global_change, None);
            assert!(o.change_history.is_empty());
            assert_eq!(o.reductions, 0);
        }
    }

    #[test]
    fn executor_time_dominates_for_many_sweeps() {
        let grid = RegularGrid::square(16);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let machine = Machine::new(4, CostModel::ncube7());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            jacobi_sweeps(proc, &mesh, &dist, &initial, &JacobiConfig::with_sweeps(50))
        });
        for o in outcomes {
            assert!(o.total_time > 0.0);
            assert!(o.executor_time > o.inspector_time);
            assert!((o.total_time - o.executor_time - o.inspector_time).abs() < 1e-9);
        }
    }
}

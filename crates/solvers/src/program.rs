//! One registry of solver programs.
//!
//! The paper's usability claim (§2.4) is that one program text gives the
//! same answer under any distribution; this runtime adds: on any backend.
//! Every solver of this crate is one [`Program`] value, and a program does
//! four things with a [`Case`] — a mesh, a placement and an input field:
//! [`run`](Program::run) collectively on any [`Process`] backend,
//! [`replay`](Program::replay) sequentially, [`gather`](Program::gather) a
//! run's local fields under the placement the run ended on, and
//! [`name`](Program::name) itself.  Every "same bits on every backend and in
//! the replay" check in the repository iterates these values, so adding a
//! solver is one arm here plus its replay.

use kali_core::process::{Counters, Process};
use kali_process::{Wire, WireError, WireReader};
use meshes::AdjacencyMesh;

use crate::adaptive::{adaptive_jacobi_sequential, final_placement, gather_global};
use crate::cg::{cg_sequential, cg_solve, CgConfig, CgOutcome};
use crate::experiment::Placement;
use crate::jacobi::{jacobi_sweeps, JacobiConfig, JacobiOutcome};
use crate::multidim::{
    multidim_sequential, multidim_sweeps, row_placement, MultiDimConfig, MultiDimOutcome,
};
use crate::redblack::{redblack_sequential, redblack_sweeps, RedBlackConfig, RedBlackOutcome};

/// One solver program with its configuration.
#[derive(Debug, Clone, Copy)]
pub enum Program {
    /// The Figure 4 relaxation, on a static mesh or — with
    /// [`JacobiConfig::adapt_every`] set — on one that adapts.
    Jacobi(JacobiConfig),
    /// Conjugate gradient, static or under churn.
    Cg(CgConfig),
    /// Red–black Gauss–Seidel.
    RedBlack(RedBlackConfig),
    /// The 2-D phase-change demo: the field's shape is in the config, so it
    /// runs without a mesh and starts on `[block, *]` whatever the placement.
    MultiDim(MultiDimConfig),
}

/// What a program runs on.
#[derive(Debug, Clone)]
pub struct Case<'a> {
    /// The mesh (`None` for [`Program::MultiDim`]).
    pub mesh: Option<&'a AdjacencyMesh>,
    /// Where the mesh nodes start.
    pub placement: Placement,
    /// The globally replicated input: the initial field, or CG's right-hand
    /// side.
    pub input: &'a [f64],
}

impl<'a> Case<'a> {
    /// A mesh program's case.
    pub fn new(mesh: &'a AdjacencyMesh, placement: Placement, input: &'a [f64]) -> Self {
        Case {
            mesh: Some(mesh),
            placement,
            input,
        }
    }

    fn mesh(&self) -> &'a AdjacencyMesh {
        self.mesh.expect("a mesh program needs a mesh")
    }
}

/// One rank's result of [`Program::run`]: everything the determinism
/// contract pins bit for bit, and the rank's metered counters.
#[derive(Debug, Clone)]
pub struct Run {
    /// The rank's final local field (CG: its part of the solution), in
    /// local-index order under the placement the run ended on.
    pub field: Vec<f64>,
    /// The CG residuals or the Jacobi / red–black change norms; empty for
    /// the 2-D demo.
    pub history: Vec<f64>,
    /// Named structural counts — cache lifecycle, reductions, halo sizes —
    /// identical on every backend.
    pub counts: Vec<(String, u64)>,
    /// Operation counters of the run's timed region.
    pub counters: Counters,
}

impl Run {
    /// The count called `name`; panics when the program keeps no such count.
    pub fn count(&self, name: &str) -> u64 {
        let found = self.counts.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no count {name:?}")).1
    }

    /// Field, history and counts as one bit vector: what must not move
    /// across backends and `(workers, chunk)` settings.
    pub fn bits(&self) -> Vec<u64> {
        let floats = self.field.iter().chain(&self.history).map(|x| x.to_bits());
        floats.chain(self.counts.iter().map(|(_, v)| *v)).collect()
    }
}

impl Wire for Run {
    fn encode(&self, out: &mut Vec<u8>) {
        self.field.encode(out);
        self.history.encode(out);
        self.counts.encode(out);
        self.counters.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Run {
            field: Wire::decode(r)?,
            history: Wire::decode(r)?,
            counts: Wire::decode(r)?,
            counters: Wire::decode(r)?,
        })
    }
}

fn named<const N: usize>(counts: [(&str, u64); N]) -> Vec<(String, u64)> {
    counts.map(|(n, v)| (n.to_string(), v)).into()
}

impl From<JacobiOutcome> for Run {
    fn from(o: JacobiOutcome) -> Self {
        Run {
            counts: named([
                ("adaptations", o.adaptations),
                ("reductions", o.reductions),
                ("reduction_bytes", o.reduction_bytes),
                ("recv_elements", o.recv_elements as u64),
                ("recv_partners", o.recv_partners as u64),
                ("schedule_ranges", o.schedule_ranges as u64),
                ("cache_hits", o.cache_hits),
                ("cache_misses", o.cache_misses),
                ("cache_evictions", o.cache_evictions),
                ("cache_resident_entries", o.cache_resident_entries as u64),
                ("cache_peak_resident", o.cache_peak_resident as u64),
                ("global_change", o.global_change.map_or(0, f64::to_bits)),
            ]),
            field: o.local_a,
            history: o.change_history,
            counters: o.counters,
        }
    }
}

impl From<CgOutcome> for Run {
    fn from(o: CgOutcome) -> Self {
        Run {
            field: o.local_x,
            history: o.residual_history,
            counts: named([
                ("iterations", o.iterations as u64),
                ("adaptations", o.adaptations),
                ("reductions", o.stats.reductions),
                ("recv_elements", o.recv_elements as u64),
                ("schedule_ranges", o.schedule_ranges as u64),
                ("cache_hits", o.stats.cache.hits),
                ("cache_misses", o.stats.cache.misses),
            ]),
            counters: o.counters,
        }
    }
}

impl From<RedBlackOutcome> for Run {
    fn from(o: RedBlackOutcome) -> Self {
        Run {
            field: o.local_a,
            history: o.change_history,
            counts: named([
                ("reductions", o.stats.reductions),
                ("red_recv_elements", o.red_recv_elements as u64),
                ("black_recv_elements", o.black_recv_elements as u64),
                ("cache_hits", o.stats.cache.hits),
                ("cache_misses", o.stats.cache.misses),
                ("loops_allocated", o.stats.loops_allocated),
            ]),
            counters: o.counters,
        }
    }
}

impl From<MultiDimOutcome> for Run {
    fn from(o: MultiDimOutcome) -> Self {
        Run {
            field: o.local_a,
            history: Vec::new(),
            counts: named([
                ("cache_hits", o.cache_hits),
                ("cache_misses", o.cache_misses),
            ]),
            counters: o.counters,
        }
    }
}

impl Program {
    /// One of each mesh program as the model-checking and backend sweeps
    /// run them, `steps` sweeps or iterations long: Jacobi checking
    /// convergence every sweep on a two-worker pool of eight-iteration
    /// chunks; Jacobi on a mesh that adapts every other sweep and rebalances
    /// under a four-schedule cache; CG; red–black measuring every sweep.
    pub fn mesh_suite(steps: usize) -> [Program; 4] {
        [
            Program::Jacobi(JacobiConfig {
                sweeps: steps,
                convergence_check_every: Some(1),
                workers: Some(2),
                chunk: Some(8),
                ..JacobiConfig::default()
            }),
            Program::Jacobi(JacobiConfig {
                sweeps: steps,
                adapt_every: Some(2),
                rebalance: true,
                cache_capacity: 4,
                ..JacobiConfig::default()
            }),
            Program::Cg(CgConfig::with_iters(steps)),
            Program::RedBlack(RedBlackConfig {
                sweeps: steps,
                check_every: Some(1),
                ..RedBlackConfig::default()
            }),
        ]
    }

    /// Short name for reports: `jacobi`, `adaptive` (Jacobi on a mesh that
    /// adapts), `cg`, `red-black` or `multidim`.
    pub fn name(&self) -> &'static str {
        match self {
            Program::Jacobi(c) if c.adapt_every.is_some() => "adaptive",
            Program::Jacobi(_) => "jacobi",
            Program::Cg(_) => "cg",
            Program::RedBlack(_) => "red-black",
            Program::MultiDim(_) => "multidim",
        }
    }

    /// Run the program on `case`, collectively: every rank of the machine
    /// must call it.
    pub fn run<P: Process>(&self, proc: &mut P, case: &Case) -> Run {
        let input = case.input;
        if let Program::MultiDim(c) = self {
            return multidim_sweeps(proc, c, input).into();
        }
        let mesh = case.mesh();
        let dist = case.placement.on_rank(proc, mesh);
        match self {
            Program::Jacobi(c) => jacobi_sweeps(proc, mesh, &dist, input, c).into(),
            Program::Cg(c) => cg_solve(proc, mesh, &dist, input, c).into(),
            Program::RedBlack(c) => redblack_sweeps(proc, mesh, &dist, input, c).into(),
            Program::MultiDim(_) => unreachable!("returned above"),
        }
    }

    /// The sequential replay of a run over `nprocs` ranks: the global field,
    /// and for CG and red–black the history (their reductions fold over the
    /// placement, so the history is a function of it).
    pub fn replay(&self, case: &Case, nprocs: usize) -> (Vec<f64>, Option<Vec<f64>>) {
        let input = case.input;
        let dist = || case.placement.in_replay(case.mesh(), nprocs);
        let (field, history) = match self {
            Program::Jacobi(c) => return (adaptive_jacobi_sequential(case.mesh(), input, c), None),
            Program::Cg(c) => cg_sequential(case.mesh(), input, c, &dist()),
            Program::RedBlack(c) => redblack_sequential(case.mesh(), input, c, &dist()),
            Program::MultiDim(c) => return (multidim_sequential(c, input), None),
        };
        (field, Some(history))
    }

    /// The global field of a run, one [`Run`] per rank in rank order,
    /// reassembled under the placement the run ended on.
    pub fn gather(&self, case: &Case, runs: &[Run]) -> Vec<f64> {
        let nprocs = runs.len();
        let locals: Vec<Vec<f64>> = runs.iter().map(|r| r.field.clone()).collect();
        let start = || case.placement.in_replay(case.mesh(), nprocs);
        match self {
            Program::MultiDim(c) => gather_global(&row_placement(c, nprocs), &locals),
            Program::Jacobi(c) => {
                gather_global(&final_placement(case.mesh(), &start(), c), &locals)
            }
            _ => gather_global(&start(), &locals),
        }
    }
}

//! Helpers shared by the integration suites.

use kali_repro::distrib::{BlockDist, Distribution};
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::mp::MpMachine;
use kali_repro::native::NativeMachine;
use kali_repro::solvers::{Case, Program, Run};

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run `program` on `case` over `nprocs` ranks on every backend and return
/// the dmsim runs, after asserting that the mp, dmsim and native legs are
/// bitwise equal — fields, histories and structural counts — and that the
/// gathered field and any replayed history equal the sequential replay.
///
/// The mp leg runs on real OS processes and comes first: `test` is the
/// calling test's libtest path, and in a re-executed worker that call is
/// where the worker exits.
pub fn on_every_backend(test: &str, program: &Program, case: &Case, nprocs: usize) -> Vec<Run> {
    let mp = MpMachine::new(nprocs).run(test, |proc| program.run(proc, case));
    let dmsim = Machine::new(nprocs, CostModel::ideal()).run(|proc| program.run(proc, case));
    let native = NativeMachine::new(nprocs).run(|proc| program.run(proc, case));
    let context = format!(
        "{} under {} on {nprocs} ranks",
        program.name(),
        case.placement.name()
    );
    // `None`: the mp leg inside a re-executed worker passing a call it was
    // not spawned for.
    for (backend, runs) in [("native", Some(native)), ("mp", mp)] {
        let Some(runs) = runs else { continue };
        for (rank, (run, base)) in runs.iter().zip(&dmsim).enumerate() {
            assert_eq!(
                run.bits(),
                base.bits(),
                "{backend} vs dmsim, rank {rank}, {context}"
            );
        }
    }
    let (field, history) = program.replay(case, nprocs);
    let gathered = program.gather(case, &dmsim);
    assert_eq!(
        bits(&gathered),
        bits(&field),
        "field vs the replay, {context}"
    );
    if let Some(history) = history {
        for (rank, run) in dmsim.iter().enumerate() {
            assert_eq!(
                bits(&run.history),
                bits(&history),
                "history, rank {rank}, {context}"
            );
        }
    }
    dmsim
}

/// A user-defined distribution with block ownership whose owned elements
/// are stored in *descending* global order.  It implements only the
/// required methods of [`Distribution`], so it offers no runs
/// (`local_runs` is the default `None`) and the executor must translate
/// every owned reference through `is_local`/`local_index` — and its local
/// order is not even monotone, so nothing may assume it is.
#[derive(Debug)]
pub struct ReversedBlock(BlockDist);

impl ReversedBlock {
    pub fn new(n: usize, p: usize) -> Self {
        ReversedBlock(BlockDist::new(n, p))
    }
}

impl Distribution for ReversedBlock {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn owner(&self, i: usize) -> usize {
        self.0.owner(i)
    }
    fn local_index(&self, i: usize) -> usize {
        self.0.local_count(self.0.owner(i)) - 1 - self.0.local_index(i)
    }
    fn global_index(&self, rank: usize, l: usize) -> usize {
        self.0.global_index(rank, self.0.local_count(rank) - 1 - l)
    }
    fn local_count(&self, rank: usize) -> usize {
        self.0.local_count(rank)
    }
    fn kind_name(&self) -> &'static str {
        "reversed-block"
    }
    fn fingerprint(&self) -> u64 {
        !self.0.fingerprint()
    }
}

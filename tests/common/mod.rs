//! Helpers shared by the integration suites.

use kali_repro::distrib::{BlockDist, Distribution};

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

//! Distributed owner maps: translation tables that are themselves
//! distributed, assembled collectively.
//!
//! A regular distribution answers `owner(i)` with arithmetic; an irregular
//! one needs a table.  On a real distributed-memory machine that table is
//! *itself* a distributed array — no processor holds the whole mapping while
//! it is being produced (a mesh partitioner emits each node's owner next to
//! the node's data).  [`DistOwnerMap`] is one rank's slice of such a table,
//! and [`DistOwnerMap::assemble`] replicates it with one allgather into an
//! [`IrregularDist`] whose translation tables are then consulted locally —
//! the right trade-off for the runtime's hot paths (the inspector calls
//! `owner` once per reference), and the path the partitioned solvers use.

use distrib::{DimDist, IrregularDist};

use crate::process::Process;

/// One processor's slice of a distributed owner map.
///
/// The table for `n` elements is block-distributed over the machine: rank
/// `r` holds the owners of the global indices in `block(n, p).local_set(r)`.
/// Block layout keeps the slices contiguous and in rank order, so assembly
/// is a plain concatenation.
#[derive(Debug, Clone)]
pub struct DistOwnerMap {
    /// Distribution of the table itself (always block).
    table_dist: DimDist,
    /// Owners of this rank's slice of the index space, in ascending global
    /// index order.
    local_entries: Vec<usize>,
}

impl DistOwnerMap {
    /// Wrap this rank's slice of the owner map.  `local_entries[k]` is the
    /// owner of global index `block(n, nprocs).global_index(rank, k)`.
    pub fn new(rank: usize, nprocs: usize, n: usize, local_entries: Vec<usize>) -> Self {
        let table_dist = DimDist::block(n, nprocs);
        assert_eq!(
            local_entries.len(),
            table_dist.local_count(rank),
            "owner-map slice does not match the block layout of the table"
        );
        assert!(
            local_entries.iter().all(|&o| o < nprocs),
            "owner-map slice references a processor outside 0..{nprocs}"
        );
        DistOwnerMap {
            table_dist,
            local_entries,
        }
    }

    /// Take this rank's block slice out of a full owner map (useful when a
    /// deterministic partitioner has been run redundantly on every rank, or
    /// in tests).
    pub fn from_global(rank: usize, nprocs: usize, owners: &[usize]) -> Self {
        let table_dist = DimDist::block(owners.len(), nprocs);
        let local_entries = table_dist
            .local_set(rank)
            .iter()
            .map(|g| owners[g])
            .collect();
        DistOwnerMap::new(rank, nprocs, owners.len(), local_entries)
    }

    /// Number of elements the owner map covers.
    pub fn n(&self) -> usize {
        self.table_dist.n()
    }

    /// Replicate the distributed table onto every processor (one allgather)
    /// and build the [`IrregularDist`] it describes.
    ///
    /// Must be called collectively; every rank receives an identical
    /// distribution (same fingerprint), which is what the schedule cache
    /// and the SPMD hit/miss lockstep rely on.
    pub fn assemble<P: Process>(&self, proc: &mut P) -> IrregularDist {
        let pieces = proc.allgather(self.local_entries.clone());
        // Block slices are contiguous and ordered by rank: concatenate.
        let mut owners = Vec::with_capacity(self.n());
        for piece in pieces {
            owners.extend(piece);
        }
        assert_eq!(owners.len(), self.n(), "assembled table has wrong length");
        proc.charge_record_handling(owners.len());
        IrregularDist::from_owners(owners, proc.nprocs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::Distribution;
    use dmsim::{CostModel, Machine};

    fn scrambled_owners(n: usize, p: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 13 + 5) % p).collect()
    }

    #[test]
    fn assemble_reconstructs_the_full_table_on_every_rank() {
        let n = 53;
        let p = 4;
        let owners = scrambled_owners(n, p);
        let machine = Machine::new(p, CostModel::ideal());
        let expected = owners.clone();
        let dists = machine.run(|proc| {
            let map = DistOwnerMap::from_global(proc.rank(), proc.nprocs(), &owners);
            map.assemble(proc)
        });
        for (rank, d) in dists.iter().enumerate() {
            assert_eq!(d.owners(), &expected[..], "rank {rank}");
            assert_eq!(d.nprocs(), p);
        }
        // Identical fingerprints on every rank — the SPMD lockstep property.
        let fp = dists[0].fingerprint();
        assert!(dists.iter().all(|d| d.fingerprint() == fp));
    }
}

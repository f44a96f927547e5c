//! Irregular (owner-table) distributions for unstructured problems.
//!
//! The paper's built-in patterns cover the regular decompositions of its
//! rectangular test grids, but it is explicit that the mechanism is more
//! general: "user-defined distributions are also permitted", given by an
//! explicitly constructed mapping of array elements to processors (§2.2),
//! and the analysis "never needs to know which pattern it is looking at" —
//! the inspector/executor machinery only consumes the `local(p)` sets and
//! the owner function.  For irregular problems this is the whole game: a
//! mesh partitioner assigns nodes to processors by *connectivity*, not by
//! index, and the resulting owner map is exactly such a user-defined
//! distribution.
//!
//! [`IrregularDist`] is that distribution: an explicit owner table plus the
//! translation tables (global→local and local→global) precomputed from it —
//! the run-time equivalent of the closed-form `local(p)` functions of the
//! regular patterns, in the run-time-translation-table style of the
//! PARTI/CHAOS inspector–executor systems that followed the paper.  The
//! tables can be built locally from a full owner map
//! ([`IrregularDist::from_owners`]) or assembled *collectively* from
//! distributed per-processor slices (`kali_core::ownermap`), mirroring how a
//! real machine would never hold the table on one node during partitioning.

use crate::distribution::{fnv1a, push_run, runs_if_long, Distribution, LocalRun};
use crate::index::IndexSet;

/// A user-defined distribution backed by an explicit owner table with
/// precomputed translation tables.
///
/// Invariants (checked at construction): every entry of the owner table
/// names a processor `< p`, so ownership is total and unique by
/// construction; the translation tables are derived from the owner table and
/// therefore consistent with it.
#[derive(Debug, Clone)]
pub struct IrregularDist {
    /// `owners[i]` is the owning processor of global index `i`.
    owners: Vec<usize>,
    /// Number of processors.
    p: usize,
    /// Global→local translation table: `local_of[i]` is the local offset of
    /// global index `i` within its owner's storage.
    local_of: Vec<usize>,
    /// Local→global translation tables: `locals[r]` lists the global indices
    /// owned by processor `r`, in ascending order.
    locals: Vec<Vec<usize>>,
    /// Per processor, the maximal runs of consecutive global indices in
    /// `locals[r]` ([`Distribution::local_runs`]); `None` where they are too
    /// short to be offered.  A partitioner that keeps neighbourhoods
    /// together yields few long runs, a scattered owner map many short ones.
    runs: Vec<Option<Vec<LocalRun>>>,
    /// Content hash of the owner table, computed once at construction.
    fingerprint: u64,
}

impl IrregularDist {
    /// Build the distribution (and its translation tables) from a full owner
    /// table.  `owners[i]` names the processor owning global index `i`;
    /// every entry must be `< p`.
    pub fn from_owners(owners: Vec<usize>, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!(
            owners.iter().all(|&o| o < p),
            "owner table references a processor outside 0..{p}"
        );
        let n = owners.len();
        let mut locals: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut local_of = vec![0usize; n];
        for (i, &o) in owners.iter().enumerate() {
            local_of[i] = locals[o].len();
            locals[o].push(i);
        }
        let runs = locals
            .iter()
            .map(|owned| {
                let mut runs = Vec::new();
                for (l, &g) in owned.iter().enumerate() {
                    push_run(
                        &mut runs,
                        LocalRun {
                            low: g,
                            high: g + 1,
                            local_base: l,
                        },
                    );
                }
                runs_if_long(runs)
            })
            .collect();
        let fingerprint = fnv1a(
            [4u64, n as u64, p as u64]
                .into_iter()
                .chain(owners.iter().map(|&o| o as u64)),
        );
        IrregularDist {
            owners,
            p,
            local_of,
            locals,
            runs,
            fingerprint,
        }
    }

    /// The owner map that coincides element-for-element with
    /// [`BlockDist`](crate::BlockDist): contiguous chunks of `⌈n/p⌉`
    /// indices.  Useful as a baseline and in tests proving the irregular
    /// machinery agrees with the regular patterns.
    pub fn identity_block(n: usize, p: usize) -> Self {
        let block = crate::distribution::BlockDist::new(n, p);
        IrregularDist::from_owners((0..n).map(|i| block.owner(i)).collect(), p)
    }

    /// The raw owner table.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }
}

impl Distribution for IrregularDist {
    fn n(&self) -> usize {
        self.owners.len()
    }

    fn nprocs(&self) -> usize {
        self.p
    }

    fn owner(&self, i: usize) -> usize {
        self.owners[i]
    }

    fn local_index(&self, i: usize) -> usize {
        self.local_of[i]
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        self.locals[rank][l]
    }

    fn local_count(&self, rank: usize) -> usize {
        self.locals[rank].len()
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        IndexSet::from_indices(self.locals[rank].iter().copied())
    }

    fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        self.runs[rank].clone()
    }

    fn kind_name(&self) -> &'static str {
        "irregular"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::BlockDist;

    #[test]
    fn translation_tables_are_consistent_with_the_owner_table() {
        let owners = vec![2, 0, 1, 1, 0, 2, 2, 0];
        let d = IrregularDist::from_owners(owners.clone(), 3);
        for (i, &o) in owners.iter().enumerate() {
            assert_eq!(d.owner(i), o);
            assert_eq!(d.global_index(o, d.local_index(i)), i);
        }
        let total: usize = (0..3).map(|r| d.local_count(r)).sum();
        assert_eq!(total, owners.len());
    }

    #[test]
    fn identity_block_agrees_with_block_dist() {
        for (n, p) in [(100, 4), (10, 3), (3, 8), (17, 1)] {
            let irr = IrregularDist::identity_block(n, p);
            let blk = BlockDist::new(n, p);
            for i in 0..n {
                assert_eq!(irr.owner(i), blk.owner(i), "n={n} p={p} i={i}");
                assert_eq!(irr.local_index(i), blk.local_index(i), "n={n} p={p} i={i}");
            }
            for r in 0..p {
                assert_eq!(irr.local_count(r), blk.local_count(r));
                assert_eq!(irr.local_set(r), blk.local_set(r));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_the_owner_table_content() {
        let a = IrregularDist::from_owners(vec![0, 1, 0, 1], 2);
        let b = IrregularDist::from_owners(vec![0, 1, 0, 1], 2);
        let c = IrregularDist::from_owners(vec![1, 0, 0, 1], 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn empty_parts_are_allowed() {
        // A partitioner may leave a processor without nodes (p > n).
        let d = IrregularDist::from_owners(vec![0, 2, 0], 4);
        assert_eq!(d.local_count(1), 0);
        assert_eq!(d.local_count(3), 0);
        assert!(d.local_set(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_owner_is_rejected() {
        IrregularDist::from_owners(vec![0, 5], 3);
    }
}

//! [`DimDist`]: the shared handle to one dimension's distribution.
//!
//! A distribution maps the index space `0..n` of one array dimension onto
//! `0..p` processors.  Kali's built-in patterns are block, cyclic and
//! block-cyclic; user-defined distributions are supported through an
//! explicit owner table ([`IrregularDist`]).  All patterns implement the
//! [`Distribution`] trait — the paper's `local(p)` function and its
//! inverses — so the analysis layer never needs to know which pattern it is
//! looking at.
//!
//! `DimDist` is a cheaply clonable, type-erased handle (`Arc<dyn
//! Distribution>`): runtime structures that *store* a distribution
//! (`ParallelLoop`) hold a `DimDist`, while runtime entry points
//! that merely *consult* one (`run_inspector`, `execute_sweep`,
//! `redistribute_epoch`) are generic over `D: Distribution + ?Sized` and accept
//! either a `DimDist` or any concrete implementation directly.
//!
//! Index convention: this crate is 0-based (the paper's examples are
//! 1-based Pascal); the translation is mechanical.

use std::sync::Arc;

use crate::distribution::{BlockCyclicDist, BlockDist, CyclicDist, Distribution, LocalRun};
use crate::index::IndexSet;
use crate::irregular::IrregularDist;

/// A distribution of `n` array elements over `p` processors.
///
/// Invariants guaranteed by every implementation (see [`Distribution`]):
/// * every index in `0..n` has exactly one owner (`owner` is total),
/// * `local_set`s of distinct processors are disjoint and their union is
///   `0..n` (the paper's assumption `local(p) ∩ local(q) = ∅`),
/// * `global_index(owner(i), local_index(i)) == i`.
#[derive(Clone)]
pub struct DimDist {
    inner: Arc<dyn Distribution>,
}

impl std::fmt::Debug for DimDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl DimDist {
    /// Wrap any [`Distribution`] implementation in a shared handle.
    pub fn new(dist: impl Distribution + 'static) -> Self {
        DimDist {
            inner: Arc::new(dist),
        }
    }

    /// Wrap an already shared distribution.
    pub fn from_arc(inner: Arc<dyn Distribution>) -> Self {
        DimDist { inner }
    }

    /// Block distribution of `n` elements over `p` processors.
    pub fn block(n: usize, p: usize) -> Self {
        DimDist::new(BlockDist::new(n, p))
    }

    /// Cyclic distribution of `n` elements over `p` processors.
    pub fn cyclic(n: usize, p: usize) -> Self {
        DimDist::new(CyclicDist::new(n, p))
    }

    /// Block-cyclic distribution with the given block size.
    pub fn block_cyclic(n: usize, p: usize, block: usize) -> Self {
        DimDist::new(BlockCyclicDist::new(n, p, block))
    }

    /// User-defined distribution from an owner table.
    ///
    /// `owners[i]` names the processor owning global index `i`; every entry
    /// must be `< p`.  Equivalent to wrapping [`IrregularDist::from_owners`].
    pub fn custom(owners: Vec<usize>, p: usize) -> Self {
        DimDist::new(IrregularDist::from_owners(owners, p))
    }

    /// Wrap an [`IrregularDist`] (e.g. one produced by a mesh partitioner or
    /// assembled collectively from distributed owner-map slices).
    pub fn irregular(dist: IrregularDist) -> Self {
        DimDist::new(dist)
    }

    /// The row-major flattened view of a multi-dimensional decomposition
    /// (`dist by [block, *]` and friends), as a 1-D distribution handle —
    /// see [`FlatDist`](crate::FlatDist).
    pub fn flattened(array: crate::ArrayDist) -> Self {
        DimDist::new(crate::FlatDist::new(array))
    }

    /// Total number of elements being distributed.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Number of processors the elements are distributed over.
    pub fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    /// Owning processor of global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        self.inner.owner(i)
    }

    /// True when processor `rank` owns global index `i`.
    pub fn is_local(&self, rank: usize, i: usize) -> bool {
        self.inner.is_local(rank, i)
    }

    /// Local offset of global index `i` within its owner's storage.
    pub fn local_index(&self, i: usize) -> usize {
        self.inner.local_index(i)
    }

    /// Global index of local offset `l` on processor `rank`.
    pub fn global_index(&self, rank: usize, l: usize) -> usize {
        self.inner.global_index(rank, l)
    }

    /// Number of elements owned by processor `rank`.
    pub fn local_count(&self, rank: usize) -> usize {
        self.inner.local_count(rank)
    }

    /// The paper's `local(p)`: the set of global indices owned by `rank`.
    pub fn local_set(&self, rank: usize) -> IndexSet {
        self.inner.local_set(rank)
    }

    /// The owned set of `rank` as contiguous runs, when the underlying
    /// distribution offers them (see [`Distribution::local_runs`]).
    pub fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        self.inner.local_runs(rank)
    }

    /// A short name for reports ("block", "cyclic", …).
    pub fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    /// Stable identity of the index→owner mapping (see
    /// [`Distribution::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    /// Borrow the underlying trait object.
    pub fn as_dyn(&self) -> &dyn Distribution {
        &*self.inner
    }
}

/// The handle is itself a [`Distribution`], so `DimDist` flows through every
/// generic runtime entry point unchanged.  Delegates to the inherent
/// methods, which are the single forwarding site to the inner trait object.
impl Distribution for DimDist {
    fn n(&self) -> usize {
        DimDist::n(self)
    }

    fn nprocs(&self) -> usize {
        DimDist::nprocs(self)
    }

    fn owner(&self, i: usize) -> usize {
        DimDist::owner(self, i)
    }

    fn local_index(&self, i: usize) -> usize {
        DimDist::local_index(self, i)
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        DimDist::global_index(self, rank, l)
    }

    fn local_count(&self, rank: usize) -> usize {
        DimDist::local_count(self, rank)
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        DimDist::local_set(self, rank)
    }

    fn is_local(&self, rank: usize, i: usize) -> bool {
        DimDist::is_local(self, rank, i)
    }

    fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        DimDist::local_runs(self, rank)
    }

    fn kind_name(&self) -> &'static str {
        DimDist::kind_name(self)
    }

    fn fingerprint(&self) -> u64 {
        DimDist::fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(d: &DimDist) {
        let n = d.n();
        let p = d.nprocs();
        // Every index owned exactly once; local/global roundtrip holds.
        let mut seen = vec![false; n];
        for rank in 0..p {
            let set = d.local_set(rank);
            assert_eq!(
                set.len(),
                d.local_count(rank),
                "count vs set for rank {rank}"
            );
            for i in set.iter() {
                assert!(!seen[i], "index {i} owned twice");
                seen[i] = true;
                assert_eq!(d.owner(i), rank);
                assert!(d.is_local(rank, i));
                let l = d.local_index(i);
                assert!(l < d.local_count(rank));
                assert_eq!(d.global_index(rank, l), i);
            }
        }
        assert!(seen.into_iter().all(|s| s), "some index has no owner");
        // Total count adds up.
        let total: usize = (0..p).map(|r| d.local_count(r)).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn block_distribution_matches_paper_definition() {
        // local_A(p) = { i | ceil(i/B) = p } with B = ceil(N/P).
        let d = DimDist::block(100, 4);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(24), 0);
        assert_eq!(d.owner(25), 1);
        assert_eq!(d.owner(99), 3);
        assert_eq!(d.local_count(0), 25);
        check_invariants(&d);
    }

    #[test]
    fn block_with_ragged_tail() {
        let d = DimDist::block(10, 4); // blocks of 3: 3,3,3,1
        assert_eq!(d.local_count(0), 3);
        assert_eq!(d.local_count(3), 1);
        check_invariants(&d);
        let d = DimDist::block(3, 8); // more processors than elements
        check_invariants(&d);
    }

    #[test]
    fn cyclic_distribution_matches_paper_definition() {
        // local_B(p) = { i | i ≡ p (mod P) }.
        let d = DimDist::cyclic(10, 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(2), 2);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.local_count(0), 4);
        assert_eq!(d.local_count(1), 3);
        check_invariants(&d);
    }

    #[test]
    fn block_cyclic_distribution() {
        let d = DimDist::block_cyclic(20, 3, 2);
        // Blocks of 2 dealt round robin: [0,1]->0, [2,3]->1, [4,5]->2, [6,7]->0 ...
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2), 1);
        assert_eq!(d.owner(4), 2);
        assert_eq!(d.owner(6), 0);
        check_invariants(&d);
        // Ragged final block.
        check_invariants(&DimDist::block_cyclic(19, 3, 4));
    }

    #[test]
    fn custom_distribution_roundtrips() {
        let owners = vec![2, 0, 1, 1, 0, 2, 2, 0];
        let d = DimDist::custom(owners.clone(), 3);
        for (i, &o) in owners.iter().enumerate() {
            assert_eq!(d.owner(i), o);
        }
        assert_eq!(d.kind_name(), "irregular");
        check_invariants(&d);
    }

    #[test]
    fn degenerate_single_processor() {
        for d in [
            DimDist::block(17, 1),
            DimDist::cyclic(17, 1),
            DimDist::block_cyclic(17, 1, 4),
        ] {
            assert_eq!(d.local_count(0), 17);
            check_invariants(&d);
        }
    }

    #[test]
    fn clones_share_the_same_distribution() {
        let d = DimDist::custom((0..64).map(|i| i % 5).collect(), 5);
        let e = d.clone();
        assert_eq!(d.fingerprint(), e.fingerprint());
        assert_eq!(d.local_set(3), e.local_set(3));
    }

    #[test]
    fn handle_accepts_user_supplied_distributions() {
        // A distribution type defined outside this crate's built-ins plugs
        // straight into the handle — the point of the trait refactor.
        #[derive(Debug)]
        struct EvenOdd {
            n: usize,
        }
        impl Distribution for EvenOdd {
            fn n(&self) -> usize {
                self.n
            }
            fn nprocs(&self) -> usize {
                2
            }
            fn owner(&self, i: usize) -> usize {
                i % 2
            }
            fn local_index(&self, i: usize) -> usize {
                i / 2
            }
            fn global_index(&self, rank: usize, l: usize) -> usize {
                2 * l + rank
            }
            fn local_count(&self, rank: usize) -> usize {
                self.n / 2 + usize::from(rank < self.n % 2)
            }
            fn kind_name(&self) -> &'static str {
                "even-odd"
            }
            fn fingerprint(&self) -> u64 {
                crate::distribution::fnv1a([99, self.n as u64])
            }
        }
        let d = DimDist::new(EvenOdd { n: 11 });
        assert_eq!(d.kind_name(), "even-odd");
        check_invariants(&d);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn custom_rejects_bad_owner() {
        DimDist::custom(vec![0, 5], 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_dist() -> impl Strategy<Value = DimDist> {
            (1usize..200, 1usize..17, 1usize..8, 0usize..4).prop_map(|(n, p, block, kind)| {
                match kind {
                    0 => DimDist::block(n, p),
                    1 => DimDist::cyclic(n, p),
                    2 => DimDist::block_cyclic(n, p, block),
                    _ => {
                        let owners = (0..n).map(|i| (i * 7 + 3) % p).collect();
                        DimDist::custom(owners, p)
                    }
                }
            })
        }

        proptest! {
            #[test]
            fn ownership_partitions_the_index_space(d in arb_dist()) {
                check_invariants(&d);
            }

            #[test]
            fn local_sets_are_pairwise_disjoint(d in arb_dist()) {
                let p = d.nprocs();
                for a in 0..p.min(6) {
                    for b in (a + 1)..p.min(6) {
                        prop_assert!(d.local_set(a).is_disjoint(&d.local_set(b)));
                    }
                }
            }
        }
    }
}

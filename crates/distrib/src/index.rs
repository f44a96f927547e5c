//! Index sets: disjoint sorted ranges with set algebra.
//!
//! The paper's whole analysis is phrased in terms of sets of array indices
//! and loop iterations: `local(p)`, `exec(p) = f⁻¹(local(p))`,
//! `ref(p) = g⁻¹(local(p))`, `in(p,q)`, `out(p,q)` (§3.1).  For the
//! one-dimensional distributions Kali supports, these sets are unions of a
//! small number of contiguous ranges, so we represent them as sorted,
//! coalesced, half-open ranges — the same representation the paper chooses
//! for its communication records (§3.3), which gives O(log r) membership
//! tests and compact messages.
//!
//! ## Complexity
//!
//! The closed-form planner and redistribution build and combine sets of
//! thousands of ranges (one per owned row segment under `[*, block]`, one
//! per owned element under `cyclic`), so every operation is at most linear
//! in the ranges it is given, up to the one sort of unsorted input: with
//! `r` ranges per operand, [`IndexSet::from_ranges`] is O(r log r) (O(r) on
//! sorted input), [`IndexSet::union`], [`IndexSet::intersect`] and
//! [`IndexSet::difference`] are single O(r₁ + r₂) merges,
//! [`IndexSet::insert_range`] is a binary search plus one splice, and
//! [`IndexSet::contains`] is O(log r).  None of them re-sorts or rebuilds a
//! set it was handed.

/// A half-open range of indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexRange {
    /// First index in the range.
    pub start: usize,
    /// One past the last index in the range.
    pub end: usize,
}

impl IndexRange {
    /// Create a range; empty ranges (`start >= end`) are allowed and behave
    /// as the empty set.
    pub fn new(start: usize, end: usize) -> Self {
        IndexRange { start, end }
    }

    /// Number of indices in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True if the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `i` lies inside the range.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i < self.end
    }

    /// Intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &IndexRange) -> IndexRange {
        IndexRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }
}

/// A set of indices stored as sorted, disjoint, coalesced half-open ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexSet {
    ranges: Vec<IndexRange>,
}

impl IndexSet {
    /// The empty set.
    pub fn new() -> Self {
        IndexSet { ranges: Vec::new() }
    }

    /// A set containing a single contiguous range — O(1).
    pub fn from_range(start: usize, end: usize) -> Self {
        let mut s = IndexSet::new();
        s.insert_range(IndexRange::new(start, end));
        s
    }

    /// Build a set from arbitrary (possibly overlapping, unsorted) ranges:
    /// collect, one sort, one coalescing pass — O(r log r) in the number of
    /// ranges given, O(r) when they arrive sorted (the sort detects it).
    pub fn from_ranges<I: IntoIterator<Item = IndexRange>>(ranges: I) -> Self {
        let mut ranges: Vec<IndexRange> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        let mut s = IndexSet {
            ranges: Vec::with_capacity(ranges.len()),
        };
        for r in ranges {
            s.push_sorted(r);
        }
        s
    }

    /// Append a non-empty range whose start is not below the start of any
    /// range already present, coalescing it into the last range when they
    /// overlap or touch — the one step of every linear pass below.
    fn push_sorted(&mut self, r: IndexRange) {
        match self.ranges.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => self.ranges.push(r),
        }
    }

    /// Build a set from individual indices (duplicates are fine).
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut v: Vec<usize> = indices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let mut s = IndexSet::new();
        let mut iter = v.into_iter();
        if let Some(first) = iter.next() {
            let mut start = first;
            let mut prev = first;
            for i in iter {
                if i == prev + 1 {
                    prev = i;
                } else {
                    s.ranges.push(IndexRange::new(start, prev + 1));
                    start = i;
                    prev = i;
                }
            }
            s.ranges.push(IndexRange::new(start, prev + 1));
        }
        s
    }

    /// The coalesced ranges, sorted by start index.
    pub fn ranges(&self) -> &[IndexRange] {
        &self.ranges
    }

    /// Number of ranges (the `r` in the paper's O(log r) search bound).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of indices in the set.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).sum()
    }

    /// True if the set contains no indices.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Membership test by binary search over the ranges — O(log r).
    pub fn contains(&self, i: usize) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if i < r.start {
                    std::cmp::Ordering::Greater
                } else if i >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Insert one range, merging with neighbours as needed: a binary search
    /// for the ranges it overlaps or touches, then one in-place splice —
    /// O(log r) plus the elements shifted (none when appending at the end).
    pub fn insert_range(&mut self, r: IndexRange) {
        if r.is_empty() {
            return;
        }
        // `first..last` are the ranges that overlap or touch `r`.
        let first = self.ranges.partition_point(|e| e.end < r.start);
        let last = first + self.ranges[first..].partition_point(|e| e.start <= r.end);
        let mut merged = r;
        if first < last {
            merged.start = r.start.min(self.ranges[first].start);
            merged.end = r.end.max(self.ranges[last - 1].end);
        }
        self.ranges.splice(first..last, [merged]);
    }

    /// Insert a single index — [`IndexSet::insert_range`] of one element.
    pub fn insert(&mut self, i: usize) {
        self.insert_range(IndexRange::new(i, i + 1));
    }

    /// Set union: one merge of the two sorted range lists — O(r₁ + r₂).
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let (a, b) = (&self.ranges, &other.ranges);
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() { other } else { self }.clone();
        }
        let mut s = IndexSet {
            ranges: Vec::with_capacity(a.len() + b.len()),
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if a[i].start <= b[j].start {
                s.push_sorted(a[i]);
                i += 1;
            } else {
                s.push_sorted(b[j]);
                j += 1;
            }
        }
        for &r in a[i..].iter().chain(&b[j..]) {
            s.push_sorted(r);
        }
        s
    }

    /// Set intersection: one two-pointer walk — O(r₁ + r₂).
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = self.ranges[i];
            let b = other.ranges[j];
            let c = a.intersect(&b);
            if !c.is_empty() {
                out.push(c);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IndexSet { ranges: out }
    }

    /// Set difference `self \ other`: one two-pointer walk — O(r₁ + r₂).
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        let mut out = Vec::new();
        let mut j = 0usize;
        for &a in &self.ranges {
            let mut cur = a;
            while j < other.ranges.len() && other.ranges[j].end <= cur.start {
                j += 1;
            }
            let mut k = j;
            while !cur.is_empty() && k < other.ranges.len() && other.ranges[k].start < cur.end {
                let b = other.ranges[k];
                if b.start > cur.start {
                    out.push(IndexRange::new(cur.start, b.start));
                }
                cur = IndexRange::new(b.end.max(cur.start), cur.end);
                k += 1;
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
        IndexSet { ranges: out }
    }

    /// True when the two sets share no indices.
    pub fn is_disjoint(&self, other: &IndexSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// True when every index of `self` is also in `other`.
    pub fn is_subset(&self, other: &IndexSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Iterate over every index in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.start..r.end)
    }
}

impl FromIterator<usize> for IndexSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        IndexSet::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_indices_coalesces_runs() {
        let s = IndexSet::from_indices([5, 1, 2, 3, 9, 10, 3, 2]);
        assert_eq!(
            s.ranges(),
            &[
                IndexRange::new(1, 4),
                IndexRange::new(5, 6),
                IndexRange::new(9, 11)
            ]
        );
        assert_eq!(s.len(), 6);
        assert_eq!(s.range_count(), 3);
    }

    #[test]
    fn insert_merges_adjacent_and_overlapping() {
        let mut s = IndexSet::from_range(0, 5);
        s.insert_range(IndexRange::new(5, 10)); // adjacent
        assert_eq!(s.ranges(), &[IndexRange::new(0, 10)]);
        s.insert_range(IndexRange::new(3, 12)); // overlapping
        assert_eq!(s.ranges(), &[IndexRange::new(0, 12)]);
        s.insert_range(IndexRange::new(20, 20)); // empty, ignored
        assert_eq!(s.range_count(), 1);
    }

    #[test]
    fn contains_uses_all_ranges() {
        let s = IndexSet::from_ranges([IndexRange::new(0, 3), IndexRange::new(10, 13)]);
        assert!(s.contains(0));
        assert!(s.contains(2));
        assert!(!s.contains(3));
        assert!(!s.contains(9));
        assert!(s.contains(12));
        assert!(!s.contains(13));
    }

    #[test]
    fn union_intersection_difference_small_cases() {
        let a = IndexSet::from_ranges([IndexRange::new(0, 10), IndexRange::new(20, 30)]);
        let b = IndexSet::from_ranges([IndexRange::new(5, 25)]);
        assert_eq!(a.union(&b).ranges(), &[IndexRange::new(0, 30)]);
        assert_eq!(
            a.intersect(&b).ranges(),
            &[IndexRange::new(5, 10), IndexRange::new(20, 25)]
        );
        assert_eq!(
            a.difference(&b).ranges(),
            &[IndexRange::new(0, 5), IndexRange::new(25, 30)]
        );
        assert_eq!(b.difference(&a).ranges(), &[IndexRange::new(10, 20)]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = IndexSet::from_range(0, 100);
        let b = IndexSet::from_range(10, 20);
        let c = IndexSet::from_range(200, 300);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(IndexSet::new().is_subset(&b));
        assert!(IndexSet::new().is_disjoint(&IndexSet::new()));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = IndexSet::from_indices([7, 1, 3, 2, 9]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 2, 3, 7, 9]);
    }

    #[test]
    fn empty_set_behaviour() {
        let e = IndexSet::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(0));
        assert!(e.union(&e).is_empty());
        assert!(e.intersect(&IndexSet::from_range(0, 10)).is_empty());
        assert!(e.difference(&IndexSet::from_range(0, 10)).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn arb_indices() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..200, 0..60)
        }

        proptest! {
            #[test]
            fn set_semantics_match_btreeset(a in arb_indices(), b in arb_indices()) {
                let sa = IndexSet::from_indices(a.iter().copied());
                let sb = IndexSet::from_indices(b.iter().copied());
                let ra: BTreeSet<usize> = a.iter().copied().collect();
                let rb: BTreeSet<usize> = b.iter().copied().collect();

                let union: Vec<usize> = sa.union(&sb).iter().collect();
                let expect: Vec<usize> = ra.union(&rb).copied().collect();
                prop_assert_eq!(union, expect);

                let inter: Vec<usize> = sa.intersect(&sb).iter().collect();
                let expect: Vec<usize> = ra.intersection(&rb).copied().collect();
                prop_assert_eq!(inter, expect);

                let diff: Vec<usize> = sa.difference(&sb).iter().collect();
                let expect: Vec<usize> = ra.difference(&rb).copied().collect();
                prop_assert_eq!(diff, expect);
            }

            #[test]
            fn ranges_are_sorted_disjoint_and_coalesced(a in arb_indices()) {
                let s = IndexSet::from_indices(a.iter().copied());
                for w in s.ranges().windows(2) {
                    // Strictly separated: coalescing must have merged adjacency.
                    prop_assert!(w[0].end < w[1].start);
                }
                for r in s.ranges() {
                    prop_assert!(r.start < r.end);
                }
                prop_assert_eq!(s.len(), a.iter().copied().collect::<BTreeSet<_>>().len());
            }

            #[test]
            fn contains_matches_membership(a in arb_indices(), probe in 0usize..220) {
                let s = IndexSet::from_indices(a.iter().copied());
                prop_assert_eq!(s.contains(probe), a.contains(&probe));
            }
        }

        /// Unsorted ranges over a small universe, so that overlapping,
        /// nested, adjacent, duplicate and empty (`start >= end`) ranges all
        /// turn up in most cases.
        fn arb_ranges() -> impl Strategy<Value = Vec<IndexRange>> {
            proptest::collection::vec(
                (0usize..120, 0usize..12, 0usize..4).prop_map(|(start, len, shape)| match shape {
                    0 => IndexRange::new(start, start.saturating_sub(len)), // empty or inverted
                    1 => IndexRange::new(start / 10 * 10, start / 10 * 10 + 10), // tiles: adjacent
                    _ => IndexRange::new(start, start + len),
                }),
                0..40,
            )
        }

        fn model(ranges: &[IndexRange]) -> BTreeSet<usize> {
            ranges.iter().flat_map(|r| r.start..r.end).collect()
        }

        /// The representation invariants — sorted, disjoint, adjacent ranges
        /// coalesced, no empties — and the members of `expect`, exactly.
        fn assert_is(set: &IndexSet, expect: &BTreeSet<usize>) {
            for r in set.ranges() {
                assert!(r.start < r.end, "empty range {r:?} in {set:?}");
            }
            for w in set.ranges().windows(2) {
                assert!(
                    w[0].end < w[1].start,
                    "{:?} and {:?} not coalesced",
                    w[0],
                    w[1]
                );
            }
            assert!(
                set.iter().eq(expect.iter().copied()),
                "{set:?} is not {expect:?}"
            );
            assert_eq!(set.len(), expect.len());
        }

        proptest! {
            #[test]
            fn range_algebra_matches_btreeset(a in arb_ranges(), b in arb_ranges()) {
                let (ma, mb) = (model(&a), model(&b));
                let sa = IndexSet::from_ranges(a.iter().copied());
                let sb = IndexSet::from_ranges(b.iter().copied());
                assert_is(&sa, &ma);
                assert_is(&sb, &mb);
                assert_is(&sa.union(&sb), &ma.union(&mb).copied().collect());
                prop_assert_eq!(sa.union(&sb), sb.union(&sa));
                assert_is(&sa.intersect(&sb), &ma.intersection(&mb).copied().collect());
                assert_is(&sa.difference(&sb), &ma.difference(&mb).copied().collect());
                // The same set, whichever way it was built.
                prop_assert_eq!(&sa, &IndexSet::from_indices(ma.iter().copied()));
                let mut sorted = a.clone();
                sorted.sort();
                prop_assert_eq!(&sa, &IndexSet::from_ranges(sorted));
            }

            #[test]
            fn insertion_in_any_order_matches_btreeset(
                a in arb_ranges(),
                singles in proptest::collection::vec(0usize..140, 0..30),
            ) {
                let mut set = IndexSet::new();
                let mut expect = BTreeSet::new();
                let mut singles = singles.iter();
                for r in &a {
                    set.insert_range(*r);
                    expect.extend(r.start..r.end);
                    assert_is(&set, &expect);
                    if let Some(&i) = singles.next() {
                        set.insert(i);
                        expect.insert(i);
                        assert_is(&set, &expect);
                    }
                }
                prop_assert_eq!(&set.union(&IndexSet::new()), &set);
            }
        }

        /// Set algebra at the sizes the closed-form planner meets under
        /// `cyclic` (one range per owned element): 50 000 ranges an operand.
        /// No timing assertion — linear operations finish in milliseconds,
        /// the quadratic ones they replace took minutes, and the test
        /// timeout tells them apart.
        #[test]
        fn fifty_thousand_ranges_are_handled_in_linear_time() {
            use crate::{product_flat, CyclicDist, Distribution};
            const R: usize = 50_000;
            let evens = || (0..R).map(|k| IndexRange::new(4 * k, 4 * k + 1));
            let odds = || (0..R).map(|k| IndexRange::new(4 * k + 2, 4 * k + 3));
            // Sorted, reversed and interleaved input.
            let a = IndexSet::from_ranges(evens());
            assert_eq!(a.range_count(), R);
            assert_eq!(IndexSet::from_ranges(evens().rev()), a);
            let b = IndexSet::from_ranges(odds());
            let both = a.union(&b);
            assert_eq!(both.range_count(), 2 * R);
            assert_eq!(
                IndexSet::from_ranges(evens().zip(odds()).flat_map(|(e, o)| [o, e])),
                both
            );
            assert_eq!(both.difference(&b), a);
            assert_eq!(both.intersect(&a), a);
            // Filling the gaps one range at a time, back to front (every
            // insertion merges two neighbours), leaves runs of three.
            let mut filled = both.clone();
            for k in (0..R).rev() {
                filled.insert(4 * k + 1);
            }
            assert_eq!(filled.range_count(), R);
            assert_eq!(filled.len(), 3 * R);
            // The planner's own constructions at that size: a cyclic rank's
            // owned set, and a cyclic column set under a collapsed row
            // dimension (`[*, cyclic]`: one range per owned element).
            let cyclic = CyclicDist::new(4 * R, 4);
            assert_eq!(cyclic.local_set(0), a);
            let cols = CyclicDist::new(1000, 4).local_set(1);
            let flat = product_flat(&[IndexSet::from_range(0, 200), cols], &[200, 1000]);
            assert_eq!(flat.range_count(), R);
            assert_eq!(flat.ranges()[1], IndexRange::new(5, 6));
        }
    }
}

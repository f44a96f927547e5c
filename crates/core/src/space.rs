//! Iteration spaces: what a `forall` ranges over.
//!
//! The paper's `forall` construct ranges over arbitrary index spaces —
//! `forall i in 1..N` in Figure 1, but also multi-dimensional spaces like
//! `forall i in 1..N, j in 1..M` once arrays are distributed
//! `by [block, *]`.  The [`IterSpace`] trait captures what the planner
//! needs from a space:
//!
//! * which *linearised* iterations a processor executes under an
//!   owner-computes on-clause ([`IterSpace::exec_iters`], range-aware — a
//!   narrow sub-range never enumerates the whole owned set),
//! * whether a closed-form schedule exists for a set of affine reference
//!   subscripts ([`IterSpace::analyze`]), and
//! * how one affine subscript maps a linearised iteration to a linearised
//!   element of the referenced array ([`IterSpace::apply_map`]), which is
//!   what the inspector fallback enumerates.
//!
//! Three spaces are provided: [`Span`], a 1-D half-open range; [`Stripe`], a
//! strided 1-D congruence class; and [`Rect`], a rectangular 2-D/3-D/N-D box
//! over a multi-dimensional array shape.  [`ParallelLoop`](crate::ParallelLoop)
//! and [`Session`](crate::Session) are generic over the space, so one
//! plan→execute pipeline serves all three.

use distrib::{product_flat, unflatten_index, DimDist, Distribution, FlatDist, IndexSet};

use crate::analysis::affine::AffineMap;
use crate::analysis::closed_form;
use crate::analysis::multi::{analyze_multi, MultiAffineMap};
use crate::inspector::owner_computes_range;
use crate::schedule::CommSchedule;

/// An iteration space a [`ParallelLoop`](crate::ParallelLoop) ranges over.
///
/// Iterations are exposed to the executor in *linearised* form (a single
/// `usize` per iteration) so the 1-D schedule machinery — range records,
/// binary-searchable receive buffers, the schedule cache — serves every
/// dimensionality unchanged.
pub trait IterSpace: Clone + std::fmt::Debug {
    /// The distribution type placing this space's on-clause array (and the
    /// arrays its affine references subscript).
    type Dist: Distribution + Clone + Send + Sync + 'static;

    /// The affine subscript type for references into `Self::Dist`-placed
    /// arrays.  `Hash` because a schedule is a function of the subscripts it
    /// was planned for: [`Session::plan`](crate::Session::plan) folds them
    /// into the schedule-cache key on its inspector fallback.
    type Map: Clone + std::hash::Hash;

    /// The linearised iterations `rank` executes under owner-computes, in
    /// ascending order — `exec(p)` intersected with the space's bounds,
    /// computed at the interval-set level (never by enumerating and
    /// filtering the full owned set).
    fn exec_iters(&self, on: &Self::Dist, rank: usize) -> Vec<usize>;

    /// Attempt the closed-form (compile-time) analysis for `rank` — no
    /// communication, no per-element work; `None` when no closed form exists
    /// and the planner must fall back to the run-time inspector.  References
    /// that leave the `data` array are treated as absent.
    fn analyze(
        &self,
        on: &Self::Dist,
        data: &Self::Dist,
        refs: &[Self::Map],
        rank: usize,
    ) -> Option<CommSchedule>;

    /// Apply one affine reference subscript to a linearised iteration,
    /// yielding the linearised referenced element — `None` when the
    /// reference leaves the bounds of the `data` array (see the
    /// out-of-bounds policy on [`Session::plan`](crate::Session::plan)).
    fn apply_map(&self, map: &Self::Map, iter: usize, data: &Self::Dist) -> Option<usize>;

    /// Stable identity of the space itself (bounds and box), folded into the
    /// schedule-cache key: a schedule's iteration lists are a function of
    /// the space, so two loops sharing a `loop_id` but ranging over
    /// different windows must never share a cached schedule.
    fn fingerprint(&self) -> u64;

    /// Preferred chunk-length alignment for the executor, in
    /// iterations.  Chunk boundaries are rounded up to a multiple of this so
    /// each chunk walks memory-friendly units — `1` (the default) means no
    /// preference; [`Rect`] returns its innermost row extent so chunks cover
    /// whole rows of the box (cache-blocked traversal of the row-major
    /// linearisation).  Alignment only shapes chunk boundaries; results are
    /// identical at every alignment.
    fn chunk_align(&self) -> usize {
        1
    }
}

/// A 1-D half-open iteration range `lo..hi` — the space of
/// `forall i in 1..N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First iteration.
    pub lo: usize,
    /// One past the last iteration.
    pub hi: usize,
}

impl Span {
    /// The range `lo..hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "degenerate range [{lo}, {hi})");
        Span { lo, hi }
    }

    /// The range `0..n`.
    pub fn upto(n: usize) -> Self {
        Span { lo: 0, hi: n }
    }

    /// Number of iterations in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

impl IterSpace for Span {
    type Dist = DimDist;
    type Map = AffineMap;

    fn exec_iters(&self, on: &DimDist, rank: usize) -> Vec<usize> {
        owner_computes_range(on, rank, self.lo, self.hi)
    }

    fn analyze(
        &self,
        on: &DimDist,
        data: &DimDist,
        refs: &[AffineMap],
        rank: usize,
    ) -> Option<CommSchedule> {
        let range = IndexSet::from_range(self.lo, self.hi);
        closed_form(rank, self.hi, on.nprocs(), data, refs, |q| {
            on.local_set(q).intersect(&range)
        })
    }

    fn apply_map(&self, map: &AffineMap, iter: usize, data: &DimDist) -> Option<usize> {
        map.apply(iter).filter(|&v| v < data.n())
    }

    fn fingerprint(&self) -> u64 {
        distrib::distribution::fnv1a([0x5350_414E, self.lo as u64, self.hi as u64])
    }
}

/// A strided 1-D iteration set `{ lo, lo + step, lo + 2·step, … } ∩ [lo, hi)`
/// — the space of a *coloured* sweep such as the red or black half of a
/// red–black Gauss–Seidel relaxation (`forall i in 0..n by 2`).
///
/// A stripe loop executes only the congruence class it names, so its
/// schedule covers exactly that class's references: two interleaved stripe
/// loops over the same array (distinct loop ids) share one schedule cache
/// without ever sharing a schedule.
///
/// ## Closed form
///
/// A congruence class is not a union of a few contiguous ranges, but the
/// §3.2 formulas
///
/// ```text
/// exec(p)  = local_on(p) ∩ { i ∈ [lo, hi) | i ≡ lo (mod step) }
/// in(p,q)  = (∪_k g_k(exec(p))) ∩ local_data(q)
/// out(p,q) = (∪_k g_k(exec(q))) ∩ local_data(p)
/// ```
///
/// stay evaluable with [`IndexSet`] arithmetic once the class is
/// materialised as an explicit interval set: one singleton range per member
/// for `step > 1`, and for `step = 1` the dense range of a [`Span`], with
/// which the stripe then plans identically.  The set operations are linear
/// in the range counts — the same order as the work the inspector does
/// locally — but **zero messages** are exchanged: every processor computes
/// its receive *and* send records from the distributions alone, by symmetry.
/// For unit-stride subscripts (`|a| = 1`, the identity and shifts that
/// dominate relaxation codes) the result is bit-for-bit the schedule the
/// inspector would have produced; [`IterSpace::analyze`] returns `None`
/// exactly when [`Span`]'s does — a reference map with `|a| ≠ 1`, or
/// mismatched processor counts — and the planner then uses the (cached)
/// inspector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    /// First iteration (also the phase of the congruence class).
    pub lo: usize,
    /// One past the last candidate iteration.
    pub hi: usize,
    /// Stride between consecutive iterations.
    pub step: usize,
}

impl Stripe {
    /// The set `{ lo, lo + step, … } ∩ [lo, hi)`.
    pub fn new(lo: usize, hi: usize, step: usize) -> Self {
        assert!(lo <= hi, "degenerate range [{lo}, {hi})");
        assert!(step > 0, "stride must be positive");
        Stripe { lo, hi, step }
    }

    /// Number of iterations in the stripe.
    pub fn len(&self) -> usize {
        (self.hi - self.lo).div_ceil(self.step)
    }

    /// True when the stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// True when `i` belongs to the stripe.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.lo && i < self.hi && (i - self.lo).is_multiple_of(self.step)
    }
}

impl IterSpace for Stripe {
    type Dist = DimDist;
    type Map = AffineMap;

    fn exec_iters(&self, on: &DimDist, rank: usize) -> Vec<usize> {
        owner_computes_range(on, rank, self.lo, self.hi)
            .into_iter()
            .filter(|&i| (i - self.lo).is_multiple_of(self.step))
            .collect()
    }

    fn analyze(
        &self,
        on: &DimDist,
        data: &DimDist,
        refs: &[AffineMap],
        rank: usize,
    ) -> Option<CommSchedule> {
        let class = if self.step == 1 {
            IndexSet::from_range(self.lo, self.hi)
        } else {
            IndexSet::from_indices((self.lo..self.hi).step_by(self.step))
        };
        closed_form(rank, self.hi, on.nprocs(), data, refs, |q| {
            on.local_set(q).intersect(&class)
        })
    }

    fn apply_map(&self, map: &AffineMap, iter: usize, data: &DimDist) -> Option<usize> {
        map.apply(iter).filter(|&v| v < data.n())
    }

    fn fingerprint(&self) -> u64 {
        distrib::distribution::fnv1a([
            0x5354_5250,
            self.lo as u64,
            self.hi as u64,
            self.step as u64,
        ])
    }
}

/// A rectangular N-D iteration box `(lo_0..hi_0) × … × (lo_{d-1}..hi_{d-1})`
/// within a multi-dimensional array shape, linearised row-major over that
/// shape.
///
/// The space of `forall i in 1..N-1, j in 0..M on A[i,j].loc` once `A` is
/// distributed `by [block, *]` over a processor grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rect {
    shape: Vec<usize>,
    ranges: Vec<(usize, usize)>,
}

impl Rect {
    /// The full box over `shape` (every index of every dimension).
    pub fn full(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "need at least one dimension");
        Rect {
            shape: shape.to_vec(),
            ranges: shape.iter().map(|&n| (0, n)).collect(),
        }
    }

    /// The interior box over `shape`: `1..n-1` in every dimension — the
    /// natural space of a boundary-preserving stencil.
    pub fn interior(shape: &[usize]) -> Self {
        assert!(
            shape.iter().all(|&n| n >= 2),
            "interior needs every extent >= 2"
        );
        Rect {
            shape: shape.to_vec(),
            ranges: shape.iter().map(|&n| (1, n - 1)).collect(),
        }
    }

    /// Restrict one dimension of the box to `lo..hi`.
    pub fn restrict(mut self, dim: usize, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.shape[dim],
            "range [{lo}, {hi}) leaves dimension {dim} of extent {}",
            self.shape[dim]
        );
        self.ranges[dim] = (lo, hi);
        self
    }

    /// Bounding shape of the space (the on-array's shape).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The per-dimension half-open ranges of the box.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Number of iterations in the box.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(lo, hi)| hi - lo).product()
    }

    /// True when the box contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The multi-index of a linearised iteration.
    pub fn unflatten(&self, iter: usize) -> Vec<usize> {
        unflatten_index(&self.shape, iter)
    }
}

impl IterSpace for Rect {
    type Dist = FlatDist;
    type Map = MultiAffineMap;

    fn exec_iters(&self, on: &FlatDist, rank: usize) -> Vec<usize> {
        assert_eq!(
            on.shape(),
            &self.shape[..],
            "the iteration space must match the on-clause array's shape"
        );
        let dims: Vec<IndexSet> = (0..self.shape.len())
            .map(|d| {
                on.array()
                    .owned_along(d, rank)
                    .intersect(&IndexSet::from_range(self.ranges[d].0, self.ranges[d].1))
            })
            .collect();
        product_flat(&dims, &self.shape).iter().collect()
    }

    fn analyze(
        &self,
        on: &FlatDist,
        data: &FlatDist,
        refs: &[MultiAffineMap],
        rank: usize,
    ) -> Option<CommSchedule> {
        assert_eq!(
            on.shape(),
            &self.shape[..],
            "the iteration space must match the on-clause array's shape"
        );
        analyze_multi(&self.ranges, on, data, refs, rank)
    }

    fn apply_map(&self, map: &MultiAffineMap, iter: usize, data: &FlatDist) -> Option<usize> {
        if map.ndims() != self.shape.len() || data.ndims() != self.shape.len() {
            return None;
        }
        let idx = self.unflatten(iter);
        let v = map.apply(&idx, data.shape())?;
        Some(data.flatten(&v))
    }

    fn fingerprint(&self) -> u64 {
        distrib::distribution::fnv1a(
            std::iter::once(0x5245_4354u64)
                .chain(self.shape.iter().map(|&n| n as u64))
                .chain(std::iter::once(u64::MAX))
                .chain(
                    self.ranges
                        .iter()
                        .flat_map(|&(lo, hi)| [lo as u64, hi as u64]),
                ),
        )
    }

    /// Cache-blocked chunking: align chunks to whole rows of the box (the
    /// innermost dimension's extent), so each chunk of the row-major
    /// linearisation walks contiguous memory runs.
    fn chunk_align(&self) -> usize {
        self.ranges
            .last()
            .map(|&(lo, hi)| (hi - lo).max(1))
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::ArrayDist;

    #[test]
    fn chunk_alignment_is_rows_for_rect_and_one_elsewhere() {
        assert_eq!(Span::upto(40).chunk_align(), 1);
        assert_eq!(Stripe::new(0, 40, 2).chunk_align(), 1);
        // 6×8 interior box: rows of 8-2 = 6 iterations.
        assert_eq!(Rect::interior(&[8, 8]).chunk_align(), 6);
        assert_eq!(Rect::full(&[4, 16]).chunk_align(), 16);
        // Degenerate innermost range still aligns to at least 1.
        assert_eq!(Rect::full(&[4, 16]).restrict(1, 3, 3).chunk_align(), 1);
    }

    #[test]
    fn span_exec_iters_is_range_aware() {
        let on = DimDist::block(40, 4);
        let full = Span::upto(40);
        assert_eq!(full.exec_iters(&on, 1), (10..20).collect::<Vec<_>>());
        let narrow = Span::new(12, 15);
        assert_eq!(narrow.exec_iters(&on, 1), vec![12, 13, 14]);
        assert!(narrow.exec_iters(&on, 3).is_empty());
        assert!(Span::new(7, 7).is_empty());
        assert_eq!(Span::new(3, 9).len(), 6);
    }

    #[test]
    fn stripe_exec_iters_pick_one_congruence_class() {
        let on = DimDist::block(40, 4);
        let red = Stripe::new(0, 40, 2);
        let black = Stripe::new(1, 40, 2);
        assert_eq!(red.exec_iters(&on, 1), vec![10, 12, 14, 16, 18]);
        assert_eq!(black.exec_iters(&on, 1), vec![11, 13, 15, 17, 19]);
        // Together the two stripes cover every owned index exactly once.
        let mut all: Vec<usize> = (0..4)
            .flat_map(|r| {
                red.exec_iters(&on, r)
                    .into_iter()
                    .chain(black.exec_iters(&on, r))
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
        assert_eq!(red.len(), 20);
        assert_eq!(Stripe::new(0, 7, 3).len(), 3);
        assert!(Stripe::new(5, 5, 2).is_empty());
        assert!(red.contains(6) && !red.contains(7) && !red.contains(40));
        // Distinct stripes never share a fingerprint (cache-key safety).
        assert_ne!(red.fingerprint(), black.fingerprint());
        assert_ne!(red.fingerprint(), Span::upto(40).fingerprint());
        // Unit-stride stripes now plan in closed form — no inspector — and
        // the schedule's iteration lists are exactly `exec_iters`.
        for rank in 0..4 {
            let s = red
                .analyze(&on, &on, &[AffineMap::identity()], rank)
                .expect("unit-stride stripe must have a closed form");
            let mut iters = s.local_iters().to_vec();
            iters.extend(s.nonlocal_iters());
            iters.sort_unstable();
            assert_eq!(iters, red.exec_iters(&on, rank));
        }
        // Non-unit-stride subscripts still fall back to the inspector.
        assert!(red.analyze(&on, &on, &[AffineMap::new(2, 0)], 0).is_none());
    }

    #[test]
    fn rect_exec_iters_covers_the_box_exactly_once() {
        let a = FlatDist::new(ArrayDist::block_rows(10, 6, 3));
        let space = Rect::full(&[10, 6]).restrict(0, 1, 9).restrict(1, 2, 5);
        let mut all: Vec<usize> = (0..3).flat_map(|r| space.exec_iters(&a, r)).collect();
        all.sort_unstable();
        let expected: Vec<usize> = (1..9)
            .flat_map(|i| (2..5).map(move |j| i * 6 + j))
            .collect();
        assert_eq!(all, expected);
        assert_eq!(space.len(), 24);
    }

    #[test]
    fn rect_interior_is_one_off_every_face() {
        let space = Rect::interior(&[8, 5]);
        assert_eq!(space.ranges(), &[(1, 7), (1, 4)]);
        assert_eq!(space.len(), 18);
    }

    #[test]
    fn rect_apply_map_linearises_through_the_data_shape() {
        let data = FlatDist::new(ArrayDist::block_rows(8, 5, 2));
        let space = Rect::full(&[8, 5]);
        let m = MultiAffineMap::shifts(&[1, -1]);
        // Iteration (2, 3) -> element (3, 2) -> flat 3*5 + 2.
        assert_eq!(space.apply_map(&m, 2 * 5 + 3, &data), Some(17));
        // (0, 0) -> (1, -1): out of bounds.
        assert_eq!(space.apply_map(&m, 0, &data), None);
        // (7, 4) -> (8, 3): out of bounds in dimension 0.
        assert_eq!(space.apply_map(&m, 7 * 5 + 4, &data), None);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn rect_rejects_mismatched_on_array() {
        let a = FlatDist::new(ArrayDist::block_rows(10, 6, 2));
        Rect::full(&[6, 10]).exec_iters(&a, 0);
    }
}

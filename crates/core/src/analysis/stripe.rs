//! Closed-form communication analysis for *strided* (stripe) loops.
//!
//! A coloured sweep — the red or black half of a red–black Gauss–Seidel
//! relaxation — iterates one congruence class `{ i ≡ lo (mod step) }` of
//! the index range.  Its `exec(p)` set is not a union of a few contiguous
//! ranges, so the contiguous-interval algebra of
//! [`compile_time`](crate::analysis::compile_time) does not apply and the
//! planner historically fell back to the run-time inspector: one full
//! inspector exchange per colour before the schedule cache warmed up.
//!
//! That fallback was never *necessary*.  The §3.2 formulas
//!
//! ```text
//! exec(p)  = local_on(p) ∩ [lo, hi) ∩ { i ≡ lo (mod step) }
//! in(p,q)  = (∪_k g_k(exec(p))) ∩ local_data(q)
//! out(p,q) = (∪_k g_k(exec(q))) ∩ local_data(p)
//! ```
//!
//! stay evaluable with [`distrib::IndexSet`] arithmetic once the congruence
//! class is materialised as an explicit interval set (one singleton range
//! per member for `step > 1`).  The set operations are linear in the range
//! counts — the same order as the work the inspector does locally — but
//! **zero messages** are exchanged: every processor computes its receive
//! *and* send records from the distributions alone, by symmetry, just as in
//! the contiguous closed form.  For unit-stride stencil subscripts
//! (`|a| = 1`, the identity and shifts that dominate relaxation codes) the
//! result is bit-for-bit the schedule the inspector would have produced.
//!
//! [`analyze_stripe`] returns `None` exactly when the contiguous analyser
//! would: a reference map with `|a| ≠ 1`, or mismatched processor counts —
//! and the caller then uses the inspector, as before.

use distrib::{DimDist, IndexSet};

use crate::analysis::affine::AffineMap;
use crate::analysis::compile_time::closed_form;
use crate::schedule::CommSchedule;

/// A fully described strided `forall` loop, the stripe analyser's unit of
/// analysis: `forall i in lo..hi by step on ON[i].loc do … DATA[g_k(i)] …`.
///
/// The on-clause subscript is the identity (owner-computes over the
/// stripe), matching [`Stripe`](crate::Stripe) spaces; `step = 1`
/// degenerates to the contiguous [`LoopSpec`](crate::analysis::LoopSpec)
/// with an identity on-map.
#[derive(Debug, Clone)]
pub struct StripeSpec {
    /// First iteration (also the phase of the congruence class).
    pub lo: usize,
    /// One past the last candidate iteration.
    pub hi: usize,
    /// Stride between consecutive iterations.
    pub step: usize,
    /// Distribution of the array named in the `on` clause.
    pub on_dist: DimDist,
    /// Distribution of the referenced data array.
    pub data_dist: DimDist,
    /// Subscripts of the data references (`g_k`).
    pub ref_maps: Vec<AffineMap>,
}

impl StripeSpec {
    /// The congruence class `{ lo, lo + step, … } ∩ [lo, hi)` as an explicit
    /// interval set (a single dense range when `step = 1`).
    pub fn class_set(&self) -> IndexSet {
        if self.step == 1 {
            IndexSet::from_range(self.lo, self.hi)
        } else {
            IndexSet::from_indices((self.lo..self.hi).step_by(self.step))
        }
    }

    /// The paper's `exec(p)` restricted to the stripe: owned indices within
    /// the congruence class.
    pub fn exec_set(&self, rank: usize) -> IndexSet {
        self.on_dist
            .local_set(rank)
            .intersect(&self.class_set())
            .intersect(&IndexSet::from_range(self.lo, self.hi))
    }
}

/// Attempt the closed-form analysis of a stripe loop for processor `rank`.
///
/// Returns `None` when no closed form is available (a reference map with
/// `|a| ≠ 1`, or the two distributions disagree on the processor count);
/// the caller then falls back to the run-time inspector.  On success the
/// returned [`CommSchedule`] is complete — receive *and* send records —
/// with **no communication**, and is identical (same signature) to what the
/// inspector computes for the same stripe.
pub fn analyze_stripe(spec: &StripeSpec, rank: usize) -> Option<CommSchedule> {
    closed_form(
        rank,
        spec.hi,
        spec.on_dist.nprocs(),
        &spec.data_dist,
        &spec.ref_maps,
        |q| spec.exec_set(q),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The red half of a 1-D red–black sweep: stride-2 stripe with the
    /// three-point stencil `A[i-1], A[i+1]`.
    fn redblack_spec(lo: usize, dist: DimDist) -> StripeSpec {
        StripeSpec {
            lo,
            hi: dist.n(),
            step: 2,
            on_dist: dist.clone(),
            data_dist: dist,
            ref_maps: vec![AffineMap::shift(-1), AffineMap::shift(1)],
        }
    }

    #[test]
    fn exec_sets_partition_the_stripe() {
        for dist in [
            DimDist::block(41, 4),
            DimDist::cyclic(41, 4),
            DimDist::block_cyclic(41, 4, 3),
        ] {
            for lo in [0usize, 1] {
                let spec = redblack_spec(lo, dist.clone());
                let mut seen = [false; 41];
                for rank in 0..4 {
                    for i in spec.exec_set(rank).iter() {
                        assert!(!seen[i], "iteration {i} executed twice");
                        assert_eq!((i - lo) % 2, 0, "iteration {i} outside the class");
                        seen[i] = true;
                    }
                }
                for (i, s) in seen.iter().enumerate() {
                    assert_eq!(*s, i >= lo && (i - lo).is_multiple_of(2), "index {i}");
                }
            }
        }
    }

    #[test]
    fn block_red_sweep_needs_one_boundary_element_per_neighbour() {
        // Blocks of even length 10: each block's red (even) points reference
        // one element across the *left* boundary only (the first red point's
        // `i-1`), and its black (odd) points one across the *right* boundary
        // only (the last black point's `i+1`).
        let dist = DimDist::block(40, 4);
        for rank in 0..4 {
            let red = analyze_stripe(&redblack_spec(0, dist.clone()), rank).unwrap();
            let sig = red.signature();
            if rank > 0 {
                assert_eq!(sig.recv_by_proc.len(), 1, "rank {rank} red");
                let (q, ranges) = &sig.recv_by_proc[0];
                assert_eq!(*q, rank - 1);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, 1, "one halo element from the left block");
                assert_eq!(ranges[0].start, rank * 10 - 1);
            } else {
                assert!(sig.recv_by_proc.is_empty(), "rank 0 red needs no halo");
            }

            let black = analyze_stripe(&redblack_spec(1, dist.clone()), rank).unwrap();
            let sig = black.signature();
            if rank < 3 {
                assert_eq!(sig.recv_by_proc.len(), 1, "rank {rank} black");
                let (q, ranges) = &sig.recv_by_proc[0];
                assert_eq!(*q, rank + 1);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, 1, "one halo element from the right block");
                assert_eq!(ranges[0].start, (rank + 1) * 10);
            } else {
                assert!(sig.recv_by_proc.is_empty(), "last rank black needs no halo");
            }
        }
    }

    #[test]
    fn local_plus_nonlocal_equals_exec() {
        for p in [2usize, 3, 5, 8] {
            for dist in [DimDist::block(64, p), DimDist::block_cyclic(64, p, 4)] {
                for lo in [0usize, 1] {
                    let spec = redblack_spec(lo, dist.clone());
                    for rank in 0..p {
                        let s = analyze_stripe(&spec, rank).unwrap();
                        let exec: Vec<usize> = spec.exec_set(rank).iter().collect();
                        let mut both = s.local_iters.clone();
                        both.extend(&s.nonlocal_iters);
                        both.sort_unstable();
                        assert_eq!(both, exec, "p={p} rank={rank} lo={lo}");
                    }
                }
            }
        }
    }

    #[test]
    fn send_and_recv_records_are_symmetric() {
        // in(p,q) must equal out(q,p) range for range — the symmetry that
        // lets every rank compute its send records without communication.
        let p = 4;
        for dist in [
            DimDist::block(37, p),
            DimDist::cyclic(37, p),
            DimDist::block_cyclic(37, p, 3),
        ] {
            let spec = redblack_spec(1, dist.clone());
            let schedules: Vec<CommSchedule> =
                (0..p).map(|r| analyze_stripe(&spec, r).unwrap()).collect();
            for a in 0..p {
                for b in 0..p {
                    if a == b {
                        continue;
                    }
                    let in_ab: Vec<_> = schedules[a]
                        .recv_records
                        .iter()
                        .filter(|r| r.from_proc == b)
                        .map(|r| (r.low, r.high))
                        .collect();
                    let out_ba: Vec<_> = schedules[b]
                        .send_records
                        .iter()
                        .filter(|r| r.to_proc == a)
                        .map(|r| (r.low, r.high))
                        .collect();
                    assert_eq!(in_ab, out_ba, "in({a},{b}) != out({b},{a})");
                }
            }
        }
    }

    #[test]
    fn non_unit_stride_subscripts_fall_back_to_runtime() {
        let spec = StripeSpec {
            lo: 0,
            hi: 50,
            step: 2,
            on_dist: DimDist::block(50, 2),
            data_dist: DimDist::block(100, 2),
            ref_maps: vec![AffineMap::new(2, 0)],
        };
        assert!(analyze_stripe(&spec, 0).is_none());
        let mismatched = StripeSpec {
            on_dist: DimDist::block(50, 2),
            data_dist: DimDist::block(50, 3),
            ref_maps: vec![AffineMap::shift(1)],
            ..spec
        };
        assert!(analyze_stripe(&mismatched, 0).is_none());
    }

    #[test]
    fn step_one_degenerates_to_the_contiguous_closed_form() {
        use crate::analysis::compile_time::{analyze, LoopSpec};
        let dist = DimDist::block(60, 3);
        let stripe = StripeSpec {
            lo: 0,
            hi: 60,
            step: 1,
            on_dist: dist.clone(),
            data_dist: dist.clone(),
            ref_maps: vec![AffineMap::shift(-1), AffineMap::shift(1)],
        };
        let contiguous =
            LoopSpec::on_owner(60, dist, vec![AffineMap::shift(-1), AffineMap::shift(1)]);
        for rank in 0..3 {
            let a = analyze_stripe(&stripe, rank).unwrap();
            let b = analyze(&contiguous, rank).unwrap();
            assert_eq!(a.signature(), b.signature(), "rank {rank}");
        }
    }
}

//! The closed-form (compile-time) evaluator of paper §3.2.
//!
//! When the `forall`'s on-clause and every array reference are affine in the
//! loop index, the sets of §3.1 can be computed symbolically, per processor,
//! with no communication and no per-element work.  With the identity
//! on-clause of every loop this crate describes:
//!
//! ```text
//! exec(p)  = local_on(p) ∩ Index_set
//! in(p,q)  = ∪_k g_k(exec(p)) ∩ local_data(q)
//! out(p,q) = ∪_k g_k(exec(q)) ∩ local_data(p)
//! ```
//!
//! [`closed_form`] evaluates those formulas with the interval algebra of
//! [`distrib::IndexSet`] for any loop that can name its `exec(q)`:
//! [`Span`](crate::Span) hands it a contiguous range,
//! [`Stripe`](crate::Stripe) a congruence class.  It succeeds whenever every
//! reference map has `|a| = 1` (identity and shifts — the cases the paper's
//! own compile-time analysis \[3\] targets); otherwise it returns `None` and
//! the planner falls back to the run-time inspector, exactly as the paper's
//! compiler does.

use distrib::{DimDist, IndexSet};

use crate::analysis::affine::AffineMap;
use crate::schedule::CommSchedule;

/// The §3.1 sets of processor `rank` in closed form, for any loop whose
/// `exec(q)` the caller can name for every processor `q`.  `bound` is the
/// exclusive upper end of the iteration range; `None` when a reference map
/// has `|a| ≠ 1` or the data array is spread over another processor count.
///
/// On success the returned [`CommSchedule`] is complete — including the send
/// records, which every processor can compute locally because the formulas
/// are symmetric — so *no* inspector communication is needed, the defining
/// advantage of the compile-time path.
pub(crate) fn closed_form(
    rank: usize,
    bound: usize,
    nprocs: usize,
    data_dist: &DimDist,
    ref_maps: &[AffineMap],
    exec_of: impl Fn(usize) -> IndexSet,
) -> Option<CommSchedule> {
    if !ref_maps.iter().all(AffineMap::is_unit_stride) || data_dist.nprocs() != nprocs {
        return None;
    }
    let data_n = data_dist.n();
    let local_data_p = data_dist.local_set(rank);
    // Elements an exec set references: ∪_k g_k(exec), clipped to the array.
    let referenced_from = |exec: &IndexSet| union_over(ref_maps, |g| g.image(exec, data_n));

    // Iterations with at least one nonlocal reference: exec(p) ∩
    // ∪_k g_k⁻¹(Arr − local_data(p)).  References falling outside the array
    // bounds are treated as absent (the inspector behaves the same way).
    let exec_p = exec_of(rank);
    let nonowned = IndexSet::from_range(0, data_n).difference(&local_data_p);
    let nonlocal_set = exec_p.intersect(&union_over(ref_maps, |g| g.preimage(&nonowned, bound)));
    let local_iters: Vec<usize> = exec_p.difference(&nonlocal_set).iter().collect();
    let nonlocal_iters: Vec<usize> = nonlocal_set.iter().collect();

    // in(p,q) = referenced(p) ∩ local_data(q), for q ≠ p.
    let referenced = referenced_from(&exec_p);
    let recv_sets: Vec<IndexSet> = (0..nprocs)
        .map(|q| {
            if q == rank {
                IndexSet::new()
            } else {
                referenced.intersect(&data_dist.local_set(q))
            }
        })
        .collect();
    let mut schedule = CommSchedule::from_recv_sets(rank, &recv_sets, local_iters, nonlocal_iters);

    // out(p,q) = referenced(q) ∩ local_data(p) = in(q,p): computable locally
    // because exec(q) has a closed form too.
    schedule.set_send_sets(nprocs, |q| {
        referenced_from(&exec_of(q)).intersect(&local_data_p)
    });
    Some(schedule)
}

/// `∪_k set_of(g_k)`.
fn union_over(ref_maps: &[AffineMap], set_of: impl Fn(&AffineMap) -> IndexSet) -> IndexSet {
    ref_maps
        .iter()
        .fold(IndexSet::new(), |acc, g| acc.union(&set_of(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{IterSpace, Span, Stripe};

    /// `A[i+1]`.
    const SHIFT_RIGHT: [AffineMap; 1] = [AffineMap { a: 1, b: 1 }];
    /// `A[i-1], A[i+1]`.
    const THREE_POINT: [AffineMap; 2] = [AffineMap { a: 1, b: -1 }, AffineMap { a: 1, b: 1 }];

    /// The schedule of an owner-computes loop over `space` whose on-clause
    /// array is the referenced array.
    fn plan<S>(space: &S, dist: &DimDist, refs: &[AffineMap], rank: usize) -> CommSchedule
    where
        S: IterSpace<Dist = DimDist, Map = AffineMap>,
    {
        space
            .analyze(dist, dist, refs, rank)
            .expect("unit-stride loops always analyse")
    }

    /// `in(p,q)` must equal `out(q,p)` range for range — the symmetry that
    /// lets every rank compute its send records without communication.
    fn assert_dual(schedules: &[CommSchedule], what: &str) {
        let violations = crate::verify::check_schedule_set(schedules);
        assert_eq!(violations, vec![], "{what}");
    }

    /// The schedule's two iteration lists together, ascending.
    fn planned_iters(s: &CommSchedule) -> Vec<usize> {
        let mut both = s.local_iters().to_vec();
        both.extend(s.nonlocal_iters());
        both.sort_unstable();
        both
    }

    // ---- Span: Figure 1 of the paper, `forall i in 1..N-1 on A[i].loc do
    // A[i] := A[i+1]` with A block-distributed.  In 0-based terms: range
    // `0..n-1`, reference `A[i+1]`.

    #[test]
    fn figure1_block_shift_needs_one_element_from_the_right_neighbour() {
        let n = 100;
        let p = 4;
        let dist = DimDist::block(n, p);
        for rank in 0..p {
            let sig = plan(&Span::upto(n - 1), &dist, &SHIFT_RIGHT, rank).signature();
            if rank < p - 1 {
                // Receive exactly the first element of the right neighbour's block.
                assert_eq!(sig.recv_by_proc.len(), 1, "rank {rank}");
                let (q, ranges) = &sig.recv_by_proc[0];
                assert_eq!(*q, rank + 1);
                assert_eq!(ranges.len(), 1);
                assert_eq!(ranges[0].len(), 1);
                assert_eq!(ranges[0].start, (rank + 1) * 25);
            } else {
                assert!(
                    sig.recv_by_proc.is_empty(),
                    "last processor receives nothing"
                );
            }
            if rank > 0 {
                assert_eq!(sig.send_by_proc.len(), 1);
                assert_eq!(sig.send_by_proc[0].0, rank - 1);
            } else {
                assert!(sig.send_by_proc.is_empty());
            }
        }
    }

    #[test]
    fn exec_sets_partition_the_iteration_range() {
        let dist = DimDist::block(103, 4); // ragged blocks
        let mut seen = vec![false; 102];
        for rank in 0..4 {
            for i in planned_iters(&plan(&Span::upto(102), &dist, &SHIFT_RIGHT, rank)) {
                assert!(!seen[i], "iteration {i} executed twice");
                seen[i] = true;
            }
        }
        assert!(
            seen.into_iter().all(|s| s),
            "an iteration was never executed"
        );
    }

    #[test]
    fn local_plus_nonlocal_equals_exec() {
        for p in [2, 3, 5, 8] {
            let (span, dist) = (Span::upto(63), DimDist::block(64, p));
            for rank in 0..p {
                let s = plan(&span, &dist, &SHIFT_RIGHT, rank);
                assert_eq!(
                    planned_iters(&s),
                    span.exec_iters(&dist, rank),
                    "p={p} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn cyclic_shift_communicates_every_iteration() {
        // Under a cyclic distribution, A[i+1] is never local to the owner of
        // A[i] (for P > 1), so every iteration is nonlocal — the reason the
        // paper lets the programmer choose distributions.
        let n = 40;
        let p = 4;
        let (span, dist) = (Span::upto(n - 1), DimDist::cyclic(n, p));
        for rank in 0..p {
            let s = plan(&span, &dist, &SHIFT_RIGHT, rank);
            assert!(s.local_iters().is_empty(), "rank {rank}");
            assert_eq!(s.nonlocal_iters(), span.exec_iters(&dist, rank));
        }
    }

    #[test]
    fn send_and_recv_volumes_match_globally() {
        // Σ_p send_len(p) must equal Σ_p recv_len(p), and in(p,q) must equal
        // out(q,p) range for range.
        let dist = DimDist::block(200, 8);
        let schedules: Vec<CommSchedule> = (0..8)
            .map(|r| plan(&Span::upto(200), &dist, &THREE_POINT, r))
            .collect();
        let total_recv: usize = schedules.iter().map(|s| s.recv_len).sum();
        let total_send: usize = schedules.iter().map(|s| s.send_len()).sum();
        assert_eq!(total_recv, total_send);
        assert_dual(&schedules, "block");
    }

    #[test]
    fn non_unit_stride_falls_back_to_runtime() {
        let (on, data) = (DimDist::block(50, 2), DimDist::block(100, 2));
        let strided = [AffineMap::new(2, 0)];
        assert!(Span::upto(50).analyze(&on, &data, &strided, 0).is_none());
    }

    #[test]
    fn block_cyclic_and_custom_distributions_are_supported() {
        let owners: Vec<usize> = (0..60).map(|i| (i / 7) % 3).collect();
        for dist in [DimDist::block_cyclic(60, 3, 5), DimDist::custom(owners, 3)] {
            for rank in 0..3 {
                let s = plan(&Span::upto(59), &dist, &SHIFT_RIGHT, rank);
                // Every nonlocal iteration's reference is covered by the recv set.
                let recv = s.recv_index_set();
                for &i in s.nonlocal_iters() {
                    let g = i + 1;
                    assert!(
                        recv.contains(g) || dist.is_local(rank, g),
                        "iteration {i} references {g} which is neither local nor received"
                    );
                }
            }
        }
    }

    // ---- Stripe: the red (`lo = 0`) or black (`lo = 1`) half of a 1-D
    // red–black sweep, a stride-2 class with the three-point stencil
    // `A[i-1], A[i+1]`.

    fn colour(lo: usize, dist: &DimDist) -> Stripe {
        Stripe::new(lo, dist.n(), 2)
    }

    #[test]
    fn exec_sets_partition_the_stripe() {
        for dist in [
            DimDist::block(41, 4),
            DimDist::cyclic(41, 4),
            DimDist::block_cyclic(41, 4, 3),
        ] {
            for lo in [0usize, 1] {
                let mut seen = [false; 41];
                for rank in 0..4 {
                    for i in planned_iters(&plan(&colour(lo, &dist), &dist, &THREE_POINT, rank)) {
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
            let sig = plan(&colour(0, &dist), &dist, &THREE_POINT, rank).signature();
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

            let sig = plan(&colour(1, &dist), &dist, &THREE_POINT, rank).signature();
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
    fn stripe_local_plus_nonlocal_equals_exec() {
        for p in [2usize, 3, 5, 8] {
            for dist in [DimDist::block(64, p), DimDist::block_cyclic(64, p, 4)] {
                for lo in [0usize, 1] {
                    let stripe = colour(lo, &dist);
                    for rank in 0..p {
                        let s = plan(&stripe, &dist, &THREE_POINT, rank);
                        assert_eq!(
                            planned_iters(&s),
                            stripe.exec_iters(&dist, rank),
                            "p={p} rank={rank} lo={lo}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn send_and_recv_records_are_symmetric() {
        let p = 4;
        for dist in [
            DimDist::block(37, p),
            DimDist::cyclic(37, p),
            DimDist::block_cyclic(37, p, 3),
        ] {
            let schedules: Vec<CommSchedule> = (0..p)
                .map(|r| plan(&colour(1, &dist), &dist, &THREE_POINT, r))
                .collect();
            assert_dual(&schedules, dist.kind_name());
        }
    }

    #[test]
    fn non_unit_stride_subscripts_fall_back_to_runtime() {
        let stripe = Stripe::new(0, 50, 2);
        let on = DimDist::block(50, 2);
        let strided = [AffineMap::new(2, 0)];
        assert!(stripe
            .analyze(&on, &DimDist::block(100, 2), &strided, 0)
            .is_none());
        // A data array spread over another processor count has no closed
        // form either.
        assert!(stripe
            .analyze(&on, &DimDist::block(50, 3), &SHIFT_RIGHT, 0)
            .is_none());
    }

    #[test]
    fn step_one_degenerates_to_the_contiguous_closed_form() {
        // `Stripe { step: 1 }` ≡ `Span`: the two spaces share one evaluator
        // and differ only in the `exec(q)` they hand it.
        let dist = DimDist::block(60, 3);
        for rank in 0..3 {
            let a = plan(&Stripe::new(0, 60, 1), &dist, &THREE_POINT, rank);
            let b = plan(&Span::upto(60), &dist, &THREE_POINT, rank);
            assert_eq!(a.signature(), b.signature(), "rank {rank}");
        }
    }
}

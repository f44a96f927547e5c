//! Compile-time (closed-form) communication analysis (paper §3.2).
//!
//! When the `forall`'s on-clause and every array reference are affine in the
//! loop index, the sets of §3.1 can be computed symbolically, per processor,
//! with no communication and no per-element work:
//!
//! ```text
//! exec(p)  = f⁻¹(local_on(p)) ∩ Index_set
//! ref(p)   = ∩_k g_k⁻¹(local_data(p))
//! in(p,q)  = ∪_k g_k(exec(p)) ∩ local_data(q)
//! out(p,q) = ∪_k g_k(exec(q)) ∩ local_data(p)
//! ```
//!
//! This module evaluates those formulas with the interval algebra of
//! [`distrib::IndexSet`].  It succeeds whenever every reference map has
//! `|a| = 1` (identity and shifts — the cases the paper's own compile-time
//! analysis \[3\] targets); otherwise it returns `None` and the caller falls
//! back to the run-time inspector, exactly as the paper's compiler does.

use distrib::{DimDist, IndexSet};

use crate::analysis::affine::AffineMap;
use crate::schedule::CommSchedule;

/// A fully described affine `forall` loop, the unit of analysis.
///
/// Represents `forall i in range on ON[f(i)].loc do … DATA[g_k(i)] … end`
/// where `ON` is distributed by `on_dist` and `DATA` by `data_dist` (the two
/// are often the same array, as in Figure 1).
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Half-open iteration range of the `forall`.
    pub range: (usize, usize),
    /// Distribution of the array named in the `on` clause.
    pub on_dist: DimDist,
    /// Subscript of the `on` clause (`f`).
    pub on_map: AffineMap,
    /// Distribution of the referenced data array.
    pub data_dist: DimDist,
    /// Subscripts of the data references (`g_k`).
    pub ref_maps: Vec<AffineMap>,
}

impl LoopSpec {
    /// The common special case `forall i in 0..n on A[i].loc` referencing
    /// `A[g_k(i)]` for a single array `A`.
    pub fn on_owner(n: usize, dist: DimDist, ref_maps: Vec<AffineMap>) -> Self {
        LoopSpec {
            range: (0, n),
            on_dist: dist.clone(),
            on_map: AffineMap::identity(),
            data_dist: dist,
            ref_maps,
        }
    }

    /// The paper's set `exec(p)`: iterations executed on processor `p`.
    pub fn exec_set(&self, rank: usize) -> IndexSet {
        let bound = self.range.1;
        let local_on = self.on_dist.local_set(rank);
        let pre = self.on_map.preimage(&local_on, bound);
        pre.intersect(&IndexSet::from_range(self.range.0, self.range.1))
    }

    /// The paper's set `ref(p)` for reference `k`: iterations whose `k`-th
    /// reference is local to `p`.
    pub fn ref_set(&self, rank: usize, k: usize) -> IndexSet {
        let bound = self.range.1;
        let local_data = self.data_dist.local_set(rank);
        self.ref_maps[k].preimage(&local_data, bound)
    }
}

/// Attempt the compile-time analysis for processor `rank`.
///
/// Returns `None` when a closed form is not available (a reference map with
/// `|a| ≠ 1`); the caller then uses the run-time inspector.  On success the
/// returned [`CommSchedule`] is complete — including the send records, which
/// every processor can compute locally because the formulas are symmetric —
/// so *no* inspector communication is needed, the defining advantage of the
/// compile-time path.
pub fn analyze(spec: &LoopSpec, rank: usize) -> Option<CommSchedule> {
    closed_form(
        rank,
        spec.range.1,
        spec.on_dist.nprocs(),
        &spec.data_dist,
        &spec.ref_maps,
        |q| spec.exec_set(q),
    )
}

/// The §3.1 sets of processor `rank` in closed form, for any loop whose
/// `exec(q)` the caller can name for every processor `q` — the contiguous
/// range of [`analyze`] or the congruence class of
/// [`analyze_stripe`](crate::analysis::analyze_stripe).  `bound` is the
/// exclusive upper end of the iteration range; `None` when a reference map
/// has `|a| ≠ 1` or the data array is spread over another processor count.
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

    /// Figure 1 of the paper: `forall i in 1..N-1 on A[i].loc do A[i] := A[i+1]`,
    /// with A block-distributed.  In 0-based terms: range `0..n-1`,
    /// reference `A[i+1]`.
    fn figure1_spec(n: usize, p: usize) -> LoopSpec {
        LoopSpec {
            range: (0, n - 1),
            on_dist: DimDist::block(n, p),
            on_map: AffineMap::identity(),
            data_dist: DimDist::block(n, p),
            ref_maps: vec![AffineMap::shift(1)],
        }
    }

    #[test]
    fn figure1_block_shift_needs_one_element_from_the_right_neighbour() {
        let n = 100;
        let p = 4;
        for rank in 0..p {
            let s = analyze(&figure1_spec(n, p), rank).expect("affine loop must analyse");
            let sig = s.signature();
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
        let spec = figure1_spec(103, 4); // ragged blocks
        let mut seen = vec![false; 102];
        for rank in 0..4 {
            for i in spec.exec_set(rank).iter() {
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
            let spec = figure1_spec(64, p);
            for rank in 0..p {
                let s = analyze(&spec, rank).unwrap();
                let exec: Vec<usize> = spec.exec_set(rank).iter().collect();
                let mut both = s.local_iters.clone();
                both.extend(&s.nonlocal_iters);
                both.sort_unstable();
                assert_eq!(both, exec, "p={p} rank={rank}");
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
        let spec = LoopSpec {
            range: (0, n - 1),
            on_dist: DimDist::cyclic(n, p),
            on_map: AffineMap::identity(),
            data_dist: DimDist::cyclic(n, p),
            ref_maps: vec![AffineMap::shift(1)],
        };
        for rank in 0..p {
            let s = analyze(&spec, rank).unwrap();
            assert!(s.local_iters.is_empty(), "rank {rank}");
            assert_eq!(s.nonlocal_iters.len(), spec.exec_set(rank).len());
        }
    }

    #[test]
    fn send_and_recv_volumes_match_globally() {
        // Σ_p send_len(p) must equal Σ_p recv_len(p), and in(p,q) must equal
        // out(q,p) range for range.
        let spec = LoopSpec {
            range: (0, 200),
            on_dist: DimDist::block(200, 8),
            on_map: AffineMap::identity(),
            data_dist: DimDist::block(200, 8),
            ref_maps: vec![AffineMap::shift(-1), AffineMap::shift(1)],
        };
        let schedules: Vec<CommSchedule> = (0..8).map(|r| analyze(&spec, r).unwrap()).collect();
        let total_recv: usize = schedules.iter().map(|s| s.recv_len).sum();
        let total_send: usize = schedules.iter().map(|s| s.send_len()).sum();
        assert_eq!(total_recv, total_send);
        for p in 0..8 {
            for q in 0..8 {
                if p == q {
                    continue;
                }
                let in_pq: Vec<_> = schedules[p]
                    .recv_records
                    .iter()
                    .filter(|r| r.from_proc == q)
                    .map(|r| (r.low, r.high))
                    .collect();
                let out_qp: Vec<_> = schedules[q]
                    .send_records
                    .iter()
                    .filter(|r| r.to_proc == p)
                    .map(|r| (r.low, r.high))
                    .collect();
                assert_eq!(in_pq, out_qp, "in({p},{q}) != out({q},{p})");
            }
        }
    }

    #[test]
    fn non_unit_stride_falls_back_to_runtime() {
        let spec = LoopSpec {
            range: (0, 50),
            on_dist: DimDist::block(50, 2),
            on_map: AffineMap::identity(),
            data_dist: DimDist::block(100, 2),
            ref_maps: vec![AffineMap::new(2, 0)],
        };
        assert!(analyze(&spec, 0).is_none());
    }

    #[test]
    fn block_cyclic_and_custom_distributions_are_supported() {
        let owners: Vec<usize> = (0..60).map(|i| (i / 7) % 3).collect();
        for dist in [DimDist::block_cyclic(60, 3, 5), DimDist::custom(owners, 3)] {
            let spec = LoopSpec {
                range: (0, 59),
                on_dist: dist.clone(),
                on_map: AffineMap::identity(),
                data_dist: dist,
                ref_maps: vec![AffineMap::shift(1)],
            };
            for rank in 0..3 {
                let s = analyze(&spec, rank).expect("unit-stride loops always analyse");
                // Every nonlocal iteration's reference is covered by the recv set.
                let recv = s.recv_index_set();
                for &i in &s.nonlocal_iters {
                    let g = i + 1;
                    assert!(
                        recv.contains(g) || spec.data_dist.is_local(rank, g),
                        "iteration {i} references {g} which is neither local nor received"
                    );
                }
            }
        }
    }
}

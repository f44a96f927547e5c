//! Multi-dimensional compile-time analysis: closed-form schedules for
//! rectangular iteration spaces over `dist by [block, *]`-style
//! decompositions.
//!
//! The paper's analysis (§3.1–3.2) is phrased for one loop index, but every
//! set in it factorises over array dimensions when
//!
//! * the iteration space is a rectangular box,
//! * each reference subscript is **separable** — dimension `d` of the
//!   reference depends only on iteration index `d` (`B[i-1, j]`,
//!   `B[i, j+1]`, the stencils that dominate real codes), with `|a| = 1`
//!   per dimension, and
//! * ownership factorises over dimensions, which [`distrib::ArrayDist`]
//!   guarantees by construction (each distributed dimension maps through its
//!   own [`distrib::DimDist`] onto its own processor-grid axis).
//!
//! Under those conditions `exec(p)`, `ref(p)`, `in(p,q)` and `out(p,q)` are
//! Cartesian products of per-dimension interval sets, evaluated here with
//! the same interval algebra as the 1-D analysis and flattened row-major
//! (via [`distrib::product_flat`]) into the ordinary [`CommSchedule`] the
//! executor consumes.  No communication and no per-element work is needed —
//! the defining property of the compile-time path.  When a condition fails
//! ([`MultiAffineMap::is_unit_stride`] is false, or subscripts are data
//! dependent) the caller falls back to the run-time inspector over the
//! flattened space, exactly as in the 1-D case.

use distrib::{product_flat, Distribution, FlatDist, IndexSet};

use crate::analysis::affine::AffineMap;
use crate::schedule::CommSchedule;

/// A separable affine subscript over a multi-index:
/// `g(i_0, …, i_{d-1}) = (a_0·i_0 + b_0, …, a_{d-1}·i_{d-1} + b_{d-1})`.
///
/// The N-D generalisation of [`AffineMap`]; `B[i, j+1]` is
/// `MultiAffineMap::shifts(&[0, 1])`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiAffineMap {
    dims: Vec<AffineMap>,
}

impl MultiAffineMap {
    /// Build a map from per-dimension affine components.
    pub fn new(dims: Vec<AffineMap>) -> Self {
        assert!(!dims.is_empty(), "a subscript needs at least one dimension");
        MultiAffineMap { dims }
    }

    /// The identity subscript over `ndims` dimensions (`B[i, j]`).
    pub fn identity(ndims: usize) -> Self {
        MultiAffineMap::new(vec![AffineMap::identity(); ndims])
    }

    /// A per-dimension shift (`B[i + c_0, j + c_1]`); the 2-D five-point
    /// stencil is `shifts(&[-1, 0])`, `shifts(&[1, 0])`, `shifts(&[0, -1])`,
    /// `shifts(&[0, 1])`.
    pub fn shifts(offsets: &[i64]) -> Self {
        MultiAffineMap::new(offsets.iter().map(|&c| AffineMap::shift(c)).collect())
    }

    /// The per-dimension components.
    pub fn dims(&self) -> &[AffineMap] {
        &self.dims
    }

    /// Number of dimensions the map subscripts.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// True when every per-dimension component has `|a| = 1` — the condition
    /// for the closed-form analysis, as in the 1-D case.
    pub fn is_unit_stride(&self) -> bool {
        self.dims.iter().all(AffineMap::is_unit_stride)
    }

    /// Apply the map to a multi-index; `None` when any component leaves
    /// `[0, bounds[d])`.
    pub fn apply(&self, idx: &[usize], bounds: &[usize]) -> Option<Vec<usize>> {
        assert_eq!(idx.len(), self.dims.len(), "index arity mismatch");
        self.dims
            .iter()
            .zip(idx.iter().zip(bounds))
            .map(|(g, (&i, &b))| g.apply(i).filter(|&v| v < b))
            .collect()
    }
}

/// Attempt the closed-form analysis of a rectangular `forall` for `rank`.
///
/// * `ranges` — the per-dimension half-open iteration box, within the
///   on-array's shape.
/// * `on` / `data` — flattened decompositions of the on-clause array and the
///   referenced array (often the same).  The on-clause subscript is the
///   identity, as in all of the paper's programs.
/// * `ref_maps` — the separable affine reference subscripts.
///
/// Returns `None` when a closed form is unavailable (a non-unit-stride
/// component, mismatched dimensionality, or mismatched machine sizes); the
/// caller then falls back to the inspector over the flattened space.  On
/// success the schedule is complete, send records included — computable
/// locally because the formulas are symmetric — so planning costs **zero
/// messages**.
///
/// References leaving the data array's bounds are treated as absent, exactly
/// as in the 1-D closed form; the user-facing planner
/// ([`Session::plan`](crate::Session::plan)) rejects them in debug builds
/// before ever reaching this code.
pub fn analyze_multi(
    ranges: &[(usize, usize)],
    on: &FlatDist,
    data: &FlatDist,
    ref_maps: &[MultiAffineMap],
    rank: usize,
) -> Option<CommSchedule> {
    let nd = ranges.len();
    let shape = on.shape();
    let dshape = data.shape();
    assert_eq!(nd, shape.len(), "iteration box arity mismatch");
    if dshape.len() != nd || ref_maps.iter().any(|g| g.ndims() != nd) {
        return None;
    }
    if !ref_maps.iter().all(MultiAffineMap::is_unit_stride) {
        return None;
    }
    let nprocs = on.nprocs();
    if data.nprocs() != nprocs {
        return None;
    }
    for (d, &(lo, hi)) in ranges.iter().enumerate() {
        assert!(
            hi <= shape[d] && lo <= hi,
            "iteration box [{lo}, {hi}) leaves dimension {d} of extent {}",
            shape[d]
        );
    }

    let range_sets: Vec<IndexSet> = ranges
        .iter()
        .map(|&(lo, hi)| IndexSet::from_range(lo, hi))
        .collect();
    // exec(r), one interval set per dimension: owned ∩ box, per dimension.
    let exec_dims = |r: usize| -> Vec<IndexSet> {
        (0..nd)
            .map(|d| on.array().owned_along(d, r).intersect(&range_sets[d]))
            .collect()
    };
    // Per-dimension image of an exec box under one reference map, clipped to
    // the data array (out-of-bounds references are absent).
    let image_dims = |ed: &[IndexSet], g: &MultiAffineMap| -> Vec<IndexSet> {
        (0..nd)
            .map(|d| g.dims()[d].image(&ed[d], dshape[d]))
            .collect()
    };

    let ed_p = exec_dims(rank);
    let exec_flat = product_flat(&ed_p, shape);

    // Split exec into local and nonlocal iterations.  A reference is absent
    // when *any* component leaves the data array (the whole multi-index is
    // out of bounds, exactly as the inspector's `apply_map` treats it), and
    // nonlocal when every component exists but at least one lands on a
    // non-owned index.  Per reference map, with per-dimension sets
    // `E_d` (component exists) and `L_d ⊆ E_d` (component owned here), the
    // nonlocal iterations are `Π E_d ∖ Π L_d`.
    let mut local_flat = exec_flat.clone();
    for g in ref_maps {
        let mut exists_dims = Vec::with_capacity(nd);
        let mut local_dims = Vec::with_capacity(nd);
        for d in 0..nd {
            let owned = data.array().owned_along(d, rank);
            let in_bounds = IndexSet::from_range(0, dshape[d]);
            exists_dims.push(ed_p[d].intersect(&g.dims()[d].preimage(&in_bounds, shape[d])));
            local_dims.push(ed_p[d].intersect(&g.dims()[d].preimage(&owned, shape[d])));
        }
        let nonlocal_g =
            product_flat(&exists_dims, shape).difference(&product_flat(&local_dims, shape));
        local_flat = local_flat.difference(&nonlocal_g);
    }
    let local_iters: Vec<usize> = local_flat.iter().collect();
    let nonlocal_iters: Vec<usize> = exec_flat.difference(&local_flat).iter().collect();

    // in(p,q): per dimension, image of exec(p) ∩ owned_data(q); the flat set
    // is the product, unioned over reference maps.
    let mut recv_sets = vec![IndexSet::new(); nprocs];
    for (q, slot) in recv_sets.iter_mut().enumerate() {
        if q == rank {
            continue;
        }
        let mut s = IndexSet::new();
        for g in ref_maps {
            let per_dim: Vec<IndexSet> = image_dims(&ed_p, g)
                .iter()
                .enumerate()
                .map(|(d, img)| img.intersect(&data.array().owned_along(d, q)))
                .collect();
            s = s.union(&product_flat(&per_dim, dshape));
        }
        *slot = s;
    }
    let mut schedule = CommSchedule::from_recv_sets(rank, &recv_sets, local_iters, nonlocal_iters);

    // out(p,q) = in(q,p): computable locally because exec(q) has a closed
    // form on every rank.
    schedule.set_send_sets(nprocs, |q| {
        let ed_q = exec_dims(q);
        let mut out = IndexSet::new();
        for g in ref_maps {
            let per_dim: Vec<IndexSet> = image_dims(&ed_q, g)
                .iter()
                .enumerate()
                .map(|(d, img)| img.intersect(&data.array().owned_along(d, rank)))
                .collect();
            out = out.union(&product_flat(&per_dim, dshape));
        }
        out
    });
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::{ArrayDist, DimAssign, DimDist, Distribution, ProcGrid};

    fn block_rows(r: usize, c: usize, p: usize) -> FlatDist {
        FlatDist::new(ArrayDist::block_rows(r, c, p))
    }

    fn block_cols(r: usize, c: usize, p: usize) -> FlatDist {
        FlatDist::new(ArrayDist::block_cols(r, c, p))
    }

    /// The interior box `(1..r-1) × (0..c)` — the vertical-stencil space.
    fn interior_rows(r: usize, c: usize) -> Vec<(usize, usize)> {
        vec![(1, r - 1), (0, c)]
    }

    #[test]
    fn vertical_shift_under_block_rows_receives_boundary_rows() {
        // forall (i,j) in 1..r-1 × 0..c on A[i,j].loc referencing A[i±1, j]
        // under [block, *]: each rank needs the last row of the previous
        // block and the first row of the next — whole rows, contiguous in
        // the flat layout.
        let (r, c, p) = (16, 6, 4);
        let d = block_rows(r, c, p);
        let maps = [
            MultiAffineMap::shifts(&[-1, 0]),
            MultiAffineMap::shifts(&[1, 0]),
        ];
        for rank in 0..p {
            let s = analyze_multi(&interior_rows(r, c), &d, &d, &maps, rank)
                .expect("separable unit-stride stencils must analyse");
            let sig = s.signature();
            let mut expected_partners = Vec::new();
            if rank > 0 {
                expected_partners.push(rank - 1);
            }
            if rank < p - 1 {
                expected_partners.push(rank + 1);
            }
            let partners: Vec<usize> = sig.recv_by_proc.iter().map(|(q, _)| *q).collect();
            assert_eq!(partners, expected_partners, "rank {rank}");
            // One whole row (c elements) from each neighbour.
            for (q, ranges) in &sig.recv_by_proc {
                assert_eq!(ranges.len(), 1, "rank {rank} from {q}");
                assert_eq!(ranges[0].len(), c, "a whole boundary row");
            }
            // Send side mirrors the receive side.
            let send_partners: Vec<usize> = sig.send_by_proc.iter().map(|(q, _)| *q).collect();
            assert_eq!(send_partners, expected_partners, "rank {rank} sends");
        }
    }

    #[test]
    fn horizontal_shift_under_block_rows_is_fully_local() {
        // A j-direction stencil never leaves the rank's rows under
        // [block, *]: empty schedule, every iteration local.
        let (r, c, p) = (12, 8, 4);
        let d = block_rows(r, c, p);
        let maps = [
            MultiAffineMap::shifts(&[0, -1]),
            MultiAffineMap::identity(2),
            MultiAffineMap::shifts(&[0, 1]),
        ];
        let space = vec![(0, r), (1, c - 1)];
        for rank in 0..p {
            let s = analyze_multi(&space, &d, &d, &maps, rank).unwrap();
            assert_eq!(s.recv_len, 0, "rank {rank}");
            assert!(s.send_records().is_empty());
            assert!(s.nonlocal_iters().is_empty());
            assert_eq!(
                s.local_iters().len(),
                d.array().local_shape(rank)[0] * (c - 2)
            );
        }
    }

    #[test]
    fn horizontal_shift_under_block_cols_receives_boundary_columns() {
        // The transposed placement: [*, block] makes the j-stencil nonlocal
        // (one column per neighbour, strided in the flat layout).
        let (r, c, p) = (6, 16, 4);
        let d = block_cols(r, c, p);
        let maps = [
            MultiAffineMap::shifts(&[0, -1]),
            MultiAffineMap::shifts(&[0, 1]),
        ];
        let space = vec![(0, r), (1, c - 1)];
        for rank in 0..p {
            let s = analyze_multi(&space, &d, &d, &maps, rank).unwrap();
            let expected = usize::from(rank > 0) + usize::from(rank < p - 1);
            assert_eq!(s.recv_partner_count(), expected, "rank {rank}");
            // One element per row per neighbour: r elements, r ranges.
            assert_eq!(s.recv_len, expected * r);
            assert_eq!(s.range_count(), expected * r);
        }
    }

    #[test]
    fn matches_the_inspector_on_random_separable_stencils() {
        use crate::inspector::{owner_computes_iters, run_inspector};
        use dmsim::{CostModel, Machine, Process};

        let (r, c, p) = (10, 9, 4);
        let shifts: [[i64; 2]; 4] = [[-1, 0], [1, 1], [0, -1], [1, -1]];
        for dist in [
            block_rows(r, c, p),
            block_cols(r, c, p),
            FlatDist::new(ArrayDist::new(
                ProcGrid::new_2d(2, 2),
                vec![
                    DimAssign::Distributed(DimDist::block(r, 2)),
                    DimAssign::Distributed(DimDist::cyclic(c, 2)),
                ],
            )),
        ] {
            let maps: Vec<MultiAffineMap> =
                shifts.iter().map(|s| MultiAffineMap::shifts(s)).collect();
            let space = vec![(1, r - 1), (1, c - 1)];
            let machine = Machine::new(p, CostModel::ideal());
            let dist_c = dist.clone();
            let maps_c = maps.clone();
            let inspector_sigs = machine.run(move |proc| {
                let exec: Vec<usize> = owner_computes_iters(&dist_c, proc.rank(), r * c)
                    .into_iter()
                    .filter(|&g| {
                        let idx = dist_c.unflatten(g);
                        (1..r - 1).contains(&idx[0]) && (1..c - 1).contains(&idx[1])
                    })
                    .collect();
                let dist_in = dist_c.clone();
                let maps_in = maps_c.clone();
                run_inspector(proc, &dist_c, &exec, move |g, refs| {
                    let idx = dist_in.unflatten(g);
                    for m in &maps_in {
                        if let Some(v) = m.apply(&idx, dist_in.shape()) {
                            refs.push(dist_in.flatten(&v));
                        }
                    }
                })
                .signature()
            });
            for (rank, insp) in inspector_sigs.iter().enumerate() {
                let ct = analyze_multi(&space, &dist, &dist, &maps, rank)
                    .expect("unit-stride separable maps must analyse")
                    .signature();
                assert_eq!(&ct, insp, "rank {rank} ({:?})", dist.array().shape());
            }
        }
    }

    #[test]
    fn partially_out_of_bounds_references_are_absent_not_nonlocal() {
        // Regression: with a diagonal shift over the *full* box, an
        // iteration whose reference is out of bounds in one dimension but
        // lands on a non-owned index in the other must be classified LOCAL
        // (the whole reference is absent, as the inspector treats it), not
        // nonlocal.  The per-dimension split used to drop such iterations
        // from the local product independently per dimension.
        use crate::inspector::{owner_computes_iters, run_inspector};
        use dmsim::{CostModel, Machine, Process};

        let (r, c, p) = (4usize, 4usize, 4usize);
        let dist = FlatDist::new(ArrayDist::new(
            ProcGrid::new_2d(2, 2),
            vec![
                DimAssign::Distributed(DimDist::block(r, 2)),
                DimAssign::Distributed(DimDist::block(c, 2)),
            ],
        ));
        let maps = vec![MultiAffineMap::shifts(&[1, 1])];
        let space = vec![(0, r), (0, c)];

        let machine = Machine::new(p, CostModel::ideal());
        let dist_c = dist.clone();
        let inspector_sigs = machine.run(move |proc| {
            let exec = owner_computes_iters(&dist_c, proc.rank(), r * c);
            let dist_in = dist_c.clone();
            run_inspector(proc, &dist_c, &exec, move |g, refs| {
                let idx = dist_in.unflatten(g);
                // Release-mode absent semantics: any OOB component drops
                // the whole reference.
                if let Some(v) = MultiAffineMap::shifts(&[1, 1]).apply(&idx, dist_in.shape()) {
                    refs.push(dist_in.flatten(&v));
                }
            })
            .signature()
        });
        for (rank, insp) in inspector_sigs.iter().enumerate() {
            let ct = analyze_multi(&space, &dist, &dist, &maps, rank)
                .unwrap()
                .signature();
            assert_eq!(&ct, insp, "rank {rank}");
        }
        // The specific misclassified case: the rank owning rows {2,3} x
        // cols {0,1} executes iteration (3,1) whose reference (4,2) is
        // absent — it must be a local iteration.
        let rank = 2; // grid coords (1, 0)
        let s = analyze_multi(&space, &dist, &dist, &maps, rank).unwrap();
        let flat_31 = 3 * c + 1;
        assert!(s.local_iters().contains(&flat_31), "(3,1) must be local");
        assert!(!s.nonlocal_iters().contains(&flat_31));
    }

    #[test]
    fn local_plus_nonlocal_equals_exec() {
        let (r, c, p) = (9, 7, 3);
        let d = block_rows(r, c, p);
        let maps = [
            MultiAffineMap::shifts(&[1, 0]),
            MultiAffineMap::shifts(&[-1, 1]),
        ];
        for rank in 0..p {
            let s = analyze_multi(&interior_rows(r, c), &d, &d, &maps, rank).unwrap();
            let mut both = s.local_iters().to_vec();
            both.extend(s.nonlocal_iters());
            both.sort_unstable();
            let exec: Vec<usize> = d
                .local_set(rank)
                .iter()
                .filter(|&g| {
                    let idx = d.unflatten(g);
                    (1..r - 1).contains(&idx[0])
                })
                .collect();
            assert_eq!(both, exec, "rank {rank}");
        }
    }

    #[test]
    fn cross_distribution_reference_is_supported() {
        // on [block, *] but referencing a [*, block] array: the identity
        // reference is almost everywhere nonlocal — the communication the
        // phase-change redistribution avoids.
        let (r, c, p) = (8, 8, 4);
        let on = block_rows(r, c, p);
        let data = block_cols(r, c, p);
        let maps = [MultiAffineMap::identity(2)];
        let mut total_recv = 0usize;
        for rank in 0..p {
            let s = analyze_multi(&[(0, r), (0, c)], &on, &data, &maps, rank).unwrap();
            total_recv += s.recv_len;
        }
        // Each rank owns r/p rows but needs all of them in every foreign
        // column block: (p-1)/p of its r/p × c references are nonlocal.
        assert_eq!(total_recv, r * c * (p - 1) / p);
    }

    #[test]
    fn non_unit_stride_and_arity_mismatch_fall_back() {
        let d = block_rows(8, 4, 2);
        let strided = MultiAffineMap::new(vec![AffineMap::new(2, 0), AffineMap::identity()]);
        assert!(analyze_multi(&[(0, 8), (0, 4)], &d, &d, &[strided], 0).is_none());
        let wrong_arity = MultiAffineMap::identity(3);
        assert!(analyze_multi(&[(0, 8), (0, 4)], &d, &d, &[wrong_arity], 0).is_none());
        let one_d = FlatDist::new(ArrayDist::block_1d(16, 2));
        assert!(analyze_multi(
            &[(0, 8), (0, 4)],
            &d,
            &one_d,
            &[MultiAffineMap::identity(2)],
            0
        )
        .is_none());
    }

    #[test]
    fn three_dimensional_spaces_analyse() {
        // A 3-D box over [block, *, *] with a k-direction shift: fully
        // local; with an i-direction shift: plane-sized halos.
        let (ni, nj, nk, p) = (8, 3, 4, 2);
        let a = FlatDist::new(ArrayDist::new(
            ProcGrid::new_1d(p),
            vec![
                DimAssign::Distributed(DimDist::block(ni, p)),
                DimAssign::Star(nj),
                DimAssign::Star(nk),
            ],
        ));
        let space = vec![(1, ni - 1), (0, nj), (0, nk)];
        let local = analyze_multi(&space, &a, &a, &[MultiAffineMap::shifts(&[0, 0, 1])], 0);
        assert_eq!(local.unwrap().recv_len, 0);
        let halo = analyze_multi(&space, &a, &a, &[MultiAffineMap::shifts(&[1, 0, 0])], 0).unwrap();
        assert_eq!(halo.recv_len, nj * nk, "one full plane from the neighbour");
    }
}

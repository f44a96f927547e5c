//! Property tests for the multi-dimensional decompositions of
//! [`distrib::multi`]:
//!
//! * `ArrayDist` global→local→global round-trips (both through the
//!   multi-index translation and through the flattened [`FlatDist`] view),
//! * `owner` agreement with the equivalent 1-D [`DimDist`] for the
//!   `block_1d` and `block_rows` declarations (the multi-dim machinery must
//!   degenerate exactly to the 1-D patterns the rest of the runtime uses),
//! * replicated arrays and degenerate extents (single-element dimensions,
//!   more processors than rows, `n % p != 0` ragged blocks).

use distrib::{ArrayDist, DimAssign, DimDist, Distribution, FlatDist, ProcGrid};
use proptest::prelude::*;

/// Arbitrary 2-D decompositions over 1-D and 2-D grids, skewed toward
/// degenerate shapes (tiny extents, ragged blocks, p > extent).
fn arb_array_dist() -> impl Strategy<Value = ArrayDist> {
    (1usize..40, 1usize..12, 1usize..7, 0usize..4).prop_map(|(rows, cols, p, kind)| match kind {
        0 => ArrayDist::block_rows(rows, cols, p),
        1 => ArrayDist::block_cols(rows, cols, p),
        2 => ArrayDist::new(
            ProcGrid::new_1d(p),
            vec![
                DimAssign::Distributed(DimDist::cyclic(rows, p)),
                DimAssign::Star(cols),
            ],
        ),
        _ => {
            // 2-D grid: split p into (p, 2) when both extents allow it.
            ArrayDist::new(
                ProcGrid::new_2d(p, 2),
                vec![
                    DimAssign::Distributed(DimDist::block(rows, p)),
                    DimAssign::Distributed(DimDist::cyclic(cols.max(2), 2)),
                ],
            )
        }
    })
}

fn assert_multi_roundtrips(a: &ArrayDist) {
    let shape = a.shape();
    let nprocs = a.grid().len();
    let mut counts = vec![0usize; nprocs];
    for i in 0..shape[0] {
        for j in 0..shape[1] {
            let idx = [i, j];
            let o = a.owner(&idx).expect("distributed array has owners");
            counts[o] += 1;
            let l = a.global_to_local(&idx);
            assert_eq!(a.local_to_global(o, &l), idx, "g->l->g at {idx:?}");
            let ls = a.local_shape(o);
            assert!(l[0] < ls[0] && l[1] < ls[1], "local index out of shape");
        }
    }
    for (rank, &c) in counts.iter().enumerate() {
        assert_eq!(c, a.local_len(rank), "rank {rank} count");
    }
}

/// Arbitrary 2-D and 3-D decompositions mixing block, cyclic, block-cyclic
/// and `*` dimensions over the matching processor grid (the first dimension
/// is distributed when the draw made every dimension `*`).
fn arb_mixed_array_dist() -> impl Strategy<Value = ArrayDist> {
    proptest::collection::vec((1usize..9, 0usize..4, 1usize..4, 1usize..4), 2..4).prop_map(
        |mut dims| {
            if dims.iter().all(|&(_, kind, _, _)| kind == 3) {
                dims[0].1 = 0;
            }
            let mut grid = Vec::new();
            let assigns = dims
                .into_iter()
                .map(|(extent, kind, p, block)| {
                    if kind == 3 {
                        return DimAssign::Star(extent);
                    }
                    grid.push(p);
                    DimAssign::Distributed(match kind {
                        0 => DimDist::block(extent, p),
                        1 => DimDist::cyclic(extent, p),
                        _ => DimDist::block_cyclic(extent, p, block),
                    })
                })
                .collect();
            ArrayDist::new(ProcGrid::new(&grid), assigns)
        },
    )
}

fn assert_flat_roundtrips(a: &ArrayDist) {
    let d = FlatDist::new(a.clone());
    let mut seen = vec![false; d.n()];
    for rank in 0..d.nprocs() {
        assert_eq!(d.local_set(rank).len(), d.local_count(rank));
        for l in 0..d.local_count(rank) {
            let g = d.global_index(rank, l);
            assert!(!seen[g], "flat index {g} owned twice");
            seen[g] = true;
            assert_eq!(d.owner(g), rank);
            assert_eq!(d.local_index(g), l, "l->g->l at {rank}/{l}");
        }
    }
    assert!(seen.into_iter().all(|s| s), "some flat index unowned");
}

proptest! {
    #[test]
    fn global_local_global_roundtrip(a in arb_array_dist()) {
        assert_multi_roundtrips(&a);
        assert_flat_roundtrips(&a);
    }

    #[test]
    fn flat_global_index_roundtrips_and_follows_the_multi_index_route(
        a in arb_mixed_array_dist(),
    ) {
        assert_flat_roundtrips(&a);
        // The table-driven translation is the definitional one: unflatten
        // through the rank's local shape, translate per dimension, flatten.
        let d = FlatDist::new(a.clone());
        for rank in 0..d.nprocs() {
            let local_shape = a.local_shape(rank);
            for l in 0..d.local_count(rank) {
                let local = distrib::unflatten_index(&local_shape, l);
                prop_assert_eq!(
                    d.global_index(rank, l),
                    d.flatten(&a.local_to_global(rank, &local)),
                    "rank {} offset {}", rank, l
                );
            }
        }
    }

    #[test]
    fn block_1d_agrees_with_the_one_dimensional_block_dist(
        n in 1usize..200,
        p in 1usize..12,
    ) {
        let a = ArrayDist::block_1d(n, p);
        let flat = FlatDist::new(a.clone());
        let d = DimDist::block(n, p);
        for i in 0..n {
            prop_assert_eq!(a.owner(&[i]), Some(d.owner(i)));
            prop_assert_eq!(flat.owner(i), d.owner(i));
            prop_assert_eq!(flat.local_index(i), d.local_index(i));
        }
        for rank in 0..p {
            prop_assert_eq!(flat.local_set(rank), d.local_set(rank));
            prop_assert_eq!(flat.local_count(rank), d.local_count(rank));
        }
    }

    #[test]
    fn block_rows_agrees_with_the_one_dimensional_block_dist_on_rows(
        rows in 1usize..60,
        cols in 1usize..10,
        p in 1usize..9,
    ) {
        let a = ArrayDist::block_rows(rows, cols, p);
        let d = DimDist::block(rows, p);
        for i in 0..rows {
            for j in 0..cols {
                // Whole rows stay together: the owner is the row's 1-D owner
                // regardless of the column.
                prop_assert_eq!(a.owner(&[i, j]), Some(d.owner(i)));
            }
        }
        for rank in 0..p {
            prop_assert_eq!(a.local_shape(rank), vec![d.local_count(rank), cols]);
        }
    }

    #[test]
    fn replicated_arrays_are_everywhere_local(
        rows in 1usize..40,
        cols in 1usize..10,
        p in 1usize..9,
    ) {
        let a = ArrayDist::replicated(ProcGrid::new_1d(p), &[rows, cols]);
        prop_assert!(a.is_replicated());
        for rank in 0..p {
            prop_assert_eq!(a.local_len(rank), rows * cols);
            prop_assert!(a.is_local(rank, &[rows - 1, cols - 1]));
        }
        prop_assert_eq!(a.owner(&[0, 0]), None);
        // The round-trip still holds (translation is the identity).
        let l = a.global_to_local(&[rows - 1, 0]);
        prop_assert_eq!(a.local_to_global(0, &l), vec![rows - 1, 0]);
    }
}

#[test]
fn degenerate_extents_round_trip() {
    // Single-element distributed dimension; more processors than rows;
    // ragged blocks; single processor.
    for a in [
        ArrayDist::block_rows(1, 5, 1),
        ArrayDist::block_rows(3, 2, 8),
        ArrayDist::block_rows(10, 3, 3),
        ArrayDist::block_cols(4, 1, 1),
        ArrayDist::block_cols(2, 3, 5),
    ] {
        assert_multi_roundtrips(&a);
        assert_flat_roundtrips(&a);
    }
}

#[test]
fn flat_dist_fingerprint_changes_with_the_decomposition() {
    let a = FlatDist::new(ArrayDist::block_rows(12, 4, 4));
    let b = FlatDist::new(ArrayDist::block_cols(12, 4, 4));
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_eq!(
        a.fingerprint(),
        FlatDist::new(ArrayDist::block_rows(12, 4, 4)).fingerprint()
    );
}

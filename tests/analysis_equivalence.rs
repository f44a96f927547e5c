//! Property tests: the compile-time analysis and the run-time inspector
//! must produce equivalent communication schedules whenever both apply
//! (paper §3.2 presents them as two evaluations of the same formulas).

use kali_repro::distrib::{DimDist, IndexSet};
use kali_repro::dmsim::{CostModel, Machine, Process};
use kali_repro::kali::{run_inspector, AffineMap, IterSpace, Span, Stripe};

use proptest::prelude::*;

/// Run the closed form and the run-time inspector for one loop — `space`
/// placed by `on`, referencing `data` through `refs` — and compare their
/// signatures on every processor.
fn assert_equivalent<S>(space: &S, on: &DimDist, data: &DimDist, refs: &[AffineMap])
where
    S: IterSpace<Dist = DimDist, Map = AffineMap> + Sync,
{
    let nprocs = on.nprocs();
    let machine = Machine::new(nprocs, CostModel::ideal());
    let inspector_schedules = machine.run(|proc| {
        let exec = space.exec_iters(on, proc.rank());
        run_inspector(proc, data, &exec, |i, out| {
            out.extend(refs.iter().filter_map(|g| space.apply_map(g, i, data)));
        })
        .signature()
    });
    for (rank, inspector_schedule) in inspector_schedules.iter().enumerate() {
        let ct = space
            .analyze(on, data, refs, rank)
            .expect("unit-stride affine loops must have a closed form")
            .signature();
        assert_eq!(
            &ct, inspector_schedule,
            "rank {rank}: compile-time and inspector schedules disagree"
        );
    }
}

#[test]
fn figure1_shift_is_equivalent_under_block_and_cyclic() {
    for dist in [DimDist::block(100, 4), DimDist::cyclic(100, 4)] {
        assert_equivalent(&Span::upto(99), &dist, &dist, &[AffineMap::shift(1)]);
    }
}

#[test]
fn three_point_stencil_is_equivalent_under_block_cyclic() {
    let dist = DimDist::block_cyclic(120, 8, 7);
    let refs = [
        AffineMap::shift(-1),
        AffineMap::identity(),
        AffineMap::shift(1),
    ];
    assert_equivalent(&Span::new(1, 119), &dist, &dist, &refs);
}

#[test]
fn redblack_stripes_are_equivalent_under_every_distribution() {
    // Both halves of a red–black three-point relaxation, over block, cyclic
    // and block-cyclic placements: the stripe closed form must reproduce
    // the inspector's schedule exactly — with zero messages.
    let n = 83;
    let p = 4;
    for dist in [
        DimDist::block(n, p),
        DimDist::cyclic(n, p),
        DimDist::block_cyclic(n, p, 5),
    ] {
        for lo in [0usize, 1] {
            let refs = [AffineMap::shift(-1), AffineMap::shift(1)];
            assert_equivalent(&Stripe::new(lo, n, 2), &dist, &dist, &refs);
        }
    }
}

/// Exhaustive executability check: for every iteration of `exec(p)`, every
/// reference is either local or covered by the receive schedule, and the
/// receive schedule contains nothing else.
fn assert_schedule_is_exact(space: &Span, dist: &DimDist, refs: &[AffineMap], rank: usize) {
    let s = space.analyze(dist, dist, refs, rank).unwrap();
    let recv = s.recv_index_set();
    let mut needed = IndexSet::new();
    for i in space.exec_iters(dist, rank) {
        for v in refs.iter().filter_map(|g| space.apply_map(g, i, dist)) {
            if !dist.is_local(rank, v) {
                needed.insert(v);
            }
        }
    }
    assert_eq!(
        recv.iter().collect::<Vec<_>>(),
        needed.iter().collect::<Vec<_>>(),
        "rank {rank}: receive set is not exactly the set of nonlocal references"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compile_time_matches_inspector_for_random_affine_loops(
        n in 16usize..160,
        p_exp in 1u32..4,
        shift_a in -3i64..4,
        shift_b in -3i64..4,
        kind in 0usize..3,
        block in 1usize..9,
    ) {
        let p = 1usize << p_exp;
        let dist = match kind {
            0 => DimDist::block(n, p),
            1 => DimDist::cyclic(n, p),
            _ => DimDist::block_cyclic(n, p, block),
        };
        let refs = [AffineMap::shift(shift_a), AffineMap::shift(shift_b)];
        assert_equivalent(&Span::upto(n), &dist, &dist, &refs);
    }

    #[test]
    fn stripe_closed_form_matches_inspector_for_random_strided_loops(
        n in 16usize..160,
        p in 2usize..8,
        step in 2usize..5,
        lo in 0usize..4,
        shift_a in -2i64..3,
        shift_b in -2i64..3,
        kind in 0usize..3,
        block in 1usize..9,
    ) {
        let dist = match kind {
            0 => DimDist::block(n, p),
            1 => DimDist::cyclic(n, p),
            _ => DimDist::block_cyclic(n, p, block),
        };
        let refs = [AffineMap::shift(shift_a), AffineMap::shift(shift_b)];
        assert_equivalent(&Stripe::new(lo, n, step), &dist, &dist, &refs);
    }

    #[test]
    fn compile_time_schedules_are_exact_for_random_loops(
        n in 16usize..200,
        p in 2usize..10,
        shift in -4i64..5,
        kind in 0usize..3,
    ) {
        let dist = match kind {
            0 => DimDist::block(n, p),
            1 => DimDist::cyclic(n, p),
            _ => DimDist::block_cyclic(n, p, 3),
        };
        let refs = [AffineMap::shift(shift), AffineMap::identity()];
        for rank in 0..p {
            assert_schedule_is_exact(&Span::upto(n), &dist, &refs, rank);
        }
    }
}

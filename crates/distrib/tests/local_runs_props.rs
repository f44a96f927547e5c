//! Property tests for [`Distribution::local_runs`]: whenever a distribution
//! offers runs they must be exactly the owned set, cut into pieces inside
//! which global→local translation is `local_base + (g − low)` — the contract
//! the executor's resolver and the by-run pack/unpack paths rely on — and
//! the distributions that must not offer runs (cyclic, a trait-default
//! implementor) answer `None`.

use distrib::{
    find_run, ArrayDist, BlockCyclicDist, BlockDist, CyclicDist, DimAssign, DimDist, Distribution,
    FlatDist, IndexRange, IndexSet, IrregularDist, LocalRun, ProcGrid, MIN_MEAN_RUN,
};
use proptest::prelude::*;

/// Check the whole `local_runs` contract for every rank of `d`; returns how
/// many ranks offered runs.
fn assert_runs_contract(d: &dyn Distribution) -> usize {
    let mut offered = 0;
    for rank in 0..d.nprocs() {
        let Some(runs) = d.local_runs(rank) else {
            continue;
        };
        offered += 1;
        let owned = d.local_set(rank);
        assert!(
            runs.iter().all(|r| r.low < r.high),
            "{d:?} rank {rank}: empty run in {runs:?}"
        );
        assert!(
            runs.windows(2).all(|w| w[0].high <= w[1].low),
            "{d:?} rank {rank}: runs unsorted or overlapping: {runs:?}"
        );
        let covered = IndexSet::from_ranges(runs.iter().map(|r| IndexRange::new(r.low, r.high)));
        assert_eq!(
            covered, owned,
            "{d:?} rank {rank}: runs do not tile local_set"
        );
        assert!(
            runs.len() <= 1 || owned.len() >= MIN_MEAN_RUN * runs.len(),
            "{d:?} rank {rank}: {} runs over {} elements is below the length rule",
            runs.len(),
            owned.len()
        );
        for run in &runs {
            for g in run.low..run.high {
                assert_eq!(d.owner(g), rank, "{d:?}: owner of {g}");
                assert_eq!(
                    run.local_base + (g - run.low),
                    d.local_index(g),
                    "{d:?} rank {rank}: translation of {g} in {run:?}"
                );
                assert_eq!(find_run(&runs, g), Some(run), "{d:?}: find_run({g})");
            }
        }
        // An index outside every run is found in none.
        for g in (0..d.n()).filter(|&g| d.owner(g) != rank).take(64) {
            assert_eq!(find_run(&runs, g), None, "{d:?} rank {rank}: find_run({g})");
        }
    }
    offered
}

/// One dimension's pattern for the multi-dimensional generator.
fn dim_assign(kind: usize, extent: usize, p: usize, block: usize) -> DimAssign {
    DimAssign::Distributed(match kind {
        0 => DimDist::block(extent, p),
        1 => DimDist::cyclic(extent, p),
        _ => DimDist::block_cyclic(extent, p, block),
    })
}

proptest! {
    #[test]
    fn block_offers_exactly_one_run_per_owning_rank(n in 0usize..300, p in 1usize..20) {
        // Covers N < P (trailing ranks own nothing) and ragged tails.
        let d = BlockDist::new(n, p);
        prop_assert_eq!(assert_runs_contract(&d), p);
        for rank in 0..p {
            let runs = d.local_runs(rank).expect("block always offers runs");
            prop_assert_eq!(runs.len(), usize::from(d.local_count(rank) > 0));
        }
    }

    #[test]
    fn cyclic_never_offers_runs(n in 0usize..300, p in 1usize..20) {
        let d = CyclicDist::new(n, p);
        for rank in 0..p {
            prop_assert!(d.local_runs(rank).is_none());
        }
        prop_assert!(DimDist::cyclic(n, p).local_runs(0).is_none());
    }

    #[test]
    fn block_cyclic_offers_its_blocks_when_they_are_long(
        n in 0usize..600,
        p in 1usize..9,
        block in 1usize..48,
    ) {
        let d = BlockCyclicDist::new(n, p, block);
        assert_runs_contract(&d);
        for rank in 0..p {
            let blocks = d.local_set(rank).range_count();
            let long = blocks <= 1 || d.local_count(rank) >= MIN_MEAN_RUN * blocks;
            prop_assert_eq!(d.local_runs(rank).is_some(), long, "rank {}", rank);
        }
    }

    #[test]
    fn irregular_offers_the_maximal_runs_of_its_owner_table(
        n in 0usize..400,
        p in 1usize..7,
        stretch in 1usize..40,
        salt in 0usize..1000,
    ) {
        // Owner changes every `stretch` indices: long stretches give few
        // long runs, `stretch == 1` a scattered table.
        let owners: Vec<usize> = (0..n).map(|i| (i / stretch * 7 + salt) % p).collect();
        let d = IrregularDist::from_owners(owners, p);
        assert_runs_contract(&d);
        for rank in 0..p {
            let pieces = d.local_set(rank).range_count();
            let long = pieces <= 1 || d.local_count(rank) >= MIN_MEAN_RUN * pieces;
            prop_assert_eq!(d.local_runs(rank).is_some(), long, "rank {}", rank);
            if let Some(runs) = d.local_runs(rank) {
                prop_assert_eq!(runs.len(), pieces, "runs are maximal");
            }
        }
    }

    #[test]
    fn flat_2d_runs_tile_the_owned_set(
        rows in 1usize..40,
        cols in 1usize..80,
        p in 1usize..6,
        block in 1usize..24,
        layout in 0usize..8,
    ) {
        // [pattern, *] and [*, pattern] over a 1-D grid, [pattern, pattern]
        // over a p × 2 grid.
        let array = match layout {
            0..=2 => ArrayDist::new(
                ProcGrid::new_1d(p),
                vec![dim_assign(layout, rows, p, block), DimAssign::Star(cols)],
            ),
            3..=5 => ArrayDist::new(
                ProcGrid::new_1d(p),
                vec![DimAssign::Star(rows), dim_assign(layout - 3, cols, p, block)],
            ),
            _ => ArrayDist::new(
                ProcGrid::new_2d(p, 2),
                vec![dim_assign(layout - 6, rows, p, block), dim_assign(0, cols, 2, block)],
            ),
        };
        assert_runs_contract(&FlatDist::new(array));
    }

    #[test]
    fn flat_3d_runs_tile_the_owned_set(
        extents in (1usize..9, 1usize..9, 1usize..40),
        p in 1usize..4,
        block in 1usize..12,
        kinds in (0usize..4, 0usize..3, 0usize..4),
    ) {
        // Kind 3 is `*` (the middle dimension is always distributed); the
        // grid has one axis per distributed dimension.
        let kinds = [kinds.0, kinds.1, kinds.2];
        let extents = [extents.0, extents.1, extents.2];
        let distributed = kinds.iter().filter(|&&k| k < 3).count();
        let dims = kinds
            .iter()
            .zip(extents)
            .map(|(&k, extent)| match k {
                3 => DimAssign::Star(extent),
                k => dim_assign(k, extent, p, block),
            })
            .collect();
        let array = ArrayDist::new(ProcGrid::new(&vec![p; distributed]), dims);
        assert_runs_contract(&FlatDist::new(array));
    }
}

#[test]
fn the_paper_layouts_offer_the_expected_runs() {
    // [block, *]: whole rows are contiguous globally and locally — one run.
    let rows = FlatDist::new(ArrayDist::block_rows(8, 6, 4));
    assert_eq!(
        rows.local_runs(1),
        Some(vec![LocalRun {
            low: 12,
            high: 24,
            local_base: 0
        }])
    );
    // [*, block] with long enough row segments: one run per row.
    let cols = FlatDist::new(ArrayDist::block_cols(3, 64, 2));
    assert_eq!(
        cols.local_runs(1),
        Some(
            (0..3)
                .map(|r| LocalRun {
                    low: r * 64 + 32,
                    high: (r + 1) * 64,
                    local_base: r * 32
                })
                .collect()
        )
    );
    // The same layout with short segments declines.
    assert_eq!(
        FlatDist::new(ArrayDist::block_cols(8, 12, 4)).local_runs(1),
        None
    );
    // [cyclic, *]: the rows are scattered but each is one long run.
    let cyclic_rows = FlatDist::new(ArrayDist::new(
        ProcGrid::new_1d(2),
        vec![
            DimAssign::Distributed(DimDist::cyclic(5, 2)),
            DimAssign::Star(20),
        ],
    ));
    assert_eq!(
        cyclic_rows.local_runs(1).map(|runs| runs.len()),
        Some(2),
        "rows 1 and 3"
    );
    assert_runs_contract(&cyclic_rows);
    // More processors than rows: the ranks past the end own nothing.
    let sparse = FlatDist::new(ArrayDist::block_rows(2, 5, 4));
    assert_eq!(sparse.local_runs(3), Some(vec![]));
    assert_eq!(BlockDist::new(3, 8).local_runs(5), Some(vec![]));
    assert_eq!(assert_runs_contract(&sparse), 4);
}

/// A user-defined distribution that stores its owned elements in *descending*
/// global order and implements only the required methods.
#[derive(Debug)]
struct Reversed(BlockDist);

impl Distribution for Reversed {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn owner(&self, i: usize) -> usize {
        self.0.owner(i)
    }
    fn local_index(&self, i: usize) -> usize {
        self.0.local_count(self.0.owner(i)) - 1 - self.0.local_index(i)
    }
    fn global_index(&self, rank: usize, l: usize) -> usize {
        self.0.global_index(rank, self.0.local_count(rank) - 1 - l)
    }
    fn local_count(&self, rank: usize) -> usize {
        self.0.local_count(rank)
    }
    fn kind_name(&self) -> &'static str {
        "reversed-block"
    }
    fn fingerprint(&self) -> u64 {
        !self.0.fingerprint()
    }
}

#[test]
fn a_trait_default_implementor_offers_no_runs() {
    let d = Reversed(BlockDist::new(100, 4));
    for rank in 0..4 {
        assert_eq!(d.local_runs(rank), None);
        assert_eq!(
            DimDist::new(Reversed(BlockDist::new(100, 4))).local_runs(rank),
            None
        );
    }
}

#[test]
fn flat_runs_follow_a_dimension_whose_local_order_is_not_monotone() {
    // Owned columns are globally contiguous but stored back to front, so no
    // two neighbouring columns continue each other locally: every run would
    // be one element, and the flattened view must decline rather than
    // pretend the row segment is contiguous.
    let reversed_cols = FlatDist::new(ArrayDist::new(
        ProcGrid::new_1d(2),
        vec![
            DimAssign::Star(3),
            DimAssign::Distributed(DimDist::new(Reversed(BlockDist::new(64, 2)))),
        ],
    ));
    assert_eq!(reversed_cols.local_runs(0), None);
    // Reversed *rows* keep each row contiguous: one run per row, with bases
    // descending as the global rows ascend.
    let reversed_rows = FlatDist::new(ArrayDist::new(
        ProcGrid::new_1d(2),
        vec![
            DimAssign::Distributed(DimDist::new(Reversed(BlockDist::new(6, 2)))),
            DimAssign::Star(32),
        ],
    ));
    let runs = reversed_rows.local_runs(0).expect("long rows are offered");
    assert_eq!(runs.len(), 3);
    assert_eq!(runs[0].local_base, 64);
    assert_eq!(runs[2].local_base, 0);
    assert_runs_contract(&reversed_rows);
}

//! Executor determinism: worker count and chunk size are
//! **performance knobs, not semantics knobs**.
//!
//! The executor splits every sweep into fixed-boundary
//! chunks, runs them on a worker pool, and merges per-chunk values, cost
//! counters and reduction contributions in ascending iteration order — so
//! the knobs can change wall-clock time but never a single bit of a result,
//! a residual history, or a metered counter.  These tests pin that contract
//! for all three solvers (Jacobi, CG, red–black Gauss–Seidel) across a
//! grid of `(workers, chunk)` settings, against the single-worker run,
//! against the sequential replays, and on every backend (each point goes
//! through the registry's driver, `common::on_every_backend`).
//!
//! Two further kernels pin the executor's address translation on both sides
//! of its one data-dependent choice — resolve owned references through the
//! distribution's runs ([`Distribution::local_runs`]) or through
//! `is_local`/`local_index` — at every knob setting: the `[*, block]`
//! vertical stencil (one run per row segment, three rows walked at once)
//! and Jacobi under a user-defined distribution whose local order is not
//! even monotone (no runs offered).
//!
//! A last kernel pins the translation memo a reused schedule learns for its
//! nonlocal list: it is recorded under one `(workers, chunk)` pair and
//! replayed under others, and a recording sweep that panics leaves nothing
//! behind.

use kali_repro::distrib::{ArrayDist, DimDist, Distribution, FlatDist};
use kali_repro::dmsim::{CostModel, Machine, Process};
use kali_repro::kali::{MultiAffineMap, Rect, Session};
use kali_repro::meshes::{AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use kali_repro::process::Counters;
use kali_repro::solvers::{
    gather_global, jacobi_sequential, Case, CgConfig, JacobiConfig, Placement, Program,
    RedBlackConfig,
};

mod common;
use common::{bits, on_every_backend, ReversedBlock};

const NPROCS: usize = 4;

/// The knob-independence contract covers every metered counter *except* the
/// pending-queue high-water mark: queue occupancy is a backend/scheduling
/// observation (it moves with chunk boundaries and thread interleaving),
/// not a semantic output.
fn masked(c: Counters) -> Counters {
    Counters { queue_peak: 0, ..c }
}

/// The knob grid shared by the fixed tests: the baseline is `(workers 1,
/// chunk auto)`; every other point must match it bitwise.
const KNOB_GRID: [(usize, usize); 7] = [(1, 0), (1, 1), (2, 0), (2, 3), (3, 7), (4, 0), (4, 64)];

/// One worker, each phase one whole-list chunk: the run the hand-written
/// sweeps below compare their counters with (their values are compared
/// with a sequential replay).
const WHOLE_LIST: (usize, usize) = (1, usize::MAX);

/// `knobs(workers, chunk)` on `case` at every point of `grid`: on every
/// backend against the sequential replay, and on every rank
/// bitwise equal to the single-worker run — field, history, counts and
/// merged counters.
fn assert_knob_independent(
    test: &str,
    knobs: impl Fn(usize, usize) -> Program,
    case: &Case,
    grid: &[(usize, usize)],
) {
    let baseline = on_every_backend(test, &knobs(1, 0), case, NPROCS);
    for &(workers, chunk) in grid {
        let runs = on_every_backend(test, &knobs(workers, chunk), case, NPROCS);
        for (rank, (run, base)) in runs.iter().zip(&baseline).enumerate() {
            let at = format!("rank {rank} at (workers {workers}, chunk {chunk})");
            assert_eq!(run.bits(), base.bits(), "{at}");
            assert_eq!(masked(run.counters), masked(base.counters), "{at}");
        }
    }
}

fn jacobi_knobs(sweeps: usize, check_every: usize) -> impl Fn(usize, usize) -> Program {
    move |workers, chunk| {
        Program::Jacobi(JacobiConfig {
            sweeps,
            convergence_check_every: Some(check_every),
            workers: Some(workers),
            chunk: Some(chunk),
            ..JacobiConfig::default()
        })
    }
}

#[test]
fn jacobi_is_bitwise_identical_at_every_worker_count_and_chunk_size() {
    let grid = RegularGrid::square(14);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let case = Case::new(&mesh, Placement::Block, &initial);
    assert_knob_independent(
        "jacobi_is_bitwise_identical_at_every_worker_count_and_chunk_size",
        jacobi_knobs(8, 2),
        &case,
        &KNOB_GRID,
    );
}

#[test]
fn cg_residual_history_is_knob_independent_and_replays_bitwise() {
    let mesh = UnstructuredMeshBuilder::new(10, 10)
        .seed(23)
        .scramble_numbering(true)
        .build();
    let b: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect();
    let cg = |workers, chunk| {
        Program::Cg(CgConfig {
            iters: 20,
            workers: Some(workers),
            chunk: Some(chunk),
            ..CgConfig::default()
        })
    };
    let case = Case::new(&mesh, Placement::Block, &b);
    assert_knob_independent(
        "cg_residual_history_is_knob_independent_and_replays_bitwise",
        cg,
        &case,
        &KNOB_GRID,
    );
}

#[test]
fn redblack_field_and_change_history_are_knob_independent() {
    let mesh = UnstructuredMeshBuilder::new(9, 9).seed(31).build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 29) % 23) as f64 * 0.125)
        .collect();
    let redblack = |workers, chunk| {
        Program::RedBlack(RedBlackConfig {
            sweeps: 6,
            check_every: Some(2),
            workers: Some(workers),
            chunk: Some(chunk),
        })
    };
    let case = Case::new(&mesh, Placement::Block, &initial);
    assert_knob_independent(
        "redblack_field_and_change_history_are_knob_independent",
        redblack,
        &case,
        &KNOB_GRID,
    );
}

#[test]
fn native_backend_agrees_with_dmsim_at_four_workers() {
    // The native backend takes the same chunked path (plus packed pooled
    // messaging); at 4 workers it must still match the simulator and the
    // sequential reference bit for bit.
    let grid = RegularGrid::square(12);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    on_every_backend(
        "native_backend_agrees_with_dmsim_at_four_workers",
        &jacobi_knobs(6, 3)(4, 16),
        &Case::new(&mesh, Placement::Block, &initial),
        NPROCS,
    );
}

/// `[*, block]` placement of a `rows × cols` field over `p` ranks.
fn col_blocks(rows: usize, cols: usize, p: usize) -> FlatDist {
    FlatDist::new(ArrayDist::block_cols(rows, cols, p))
}

/// Three sweeps of the vertical three-point stencil over a `[*, block]`
/// field on dmsim at `(workers, chunk)`.  Returns every rank's final local
/// field and the counters of the sweeps.
fn run_vertical_stencil(
    rows: usize,
    cols: usize,
    initial: &[f64],
    (workers, chunk): (usize, usize),
) -> Vec<(Vec<f64>, Counters)> {
    Machine::new(NPROCS, CostModel::ncube7()).run(|proc| {
        let dist = col_blocks(rows, cols, proc.nprocs());
        let rank = proc.rank();
        let mut a: Vec<f64> = (0..dist.local_count(rank))
            .map(|l| initial[dist.global_index(rank, l)])
            .collect();
        let mut session = Session::new().with_workers(workers);
        session.set_chunk_size(chunk);
        let interior = Rect::full(&[rows, cols]).restrict(0, 1, rows - 1);
        let stencil = session.loop_over(interior, dist.clone());
        let refs = [
            MultiAffineMap::shifts(&[-1, 0]),
            MultiAffineMap::identity(2),
            MultiAffineMap::shifts(&[1, 0]),
        ];
        let schedule = session.plan(proc, &stencil, &dist, &refs);
        let start = proc.counters();
        for _ in 0..3 {
            let old_a = a.clone();
            session.execute(
                proc,
                &stencil,
                &schedule,
                &dist,
                &old_a,
                |g, fetch| {
                    fetch.charge_flops(5);
                    0.25 * fetch.fetch(g - cols)
                        + 0.5 * fetch.fetch(g)
                        + 0.25 * fetch.fetch(g + cols)
                },
                |g, v| a[dist.local_index(g)] = v,
            );
        }
        (a, proc.counters().since(&start))
    })
}

#[test]
fn vertical_stencil_over_star_block_is_knob_independent_on_both_translation_paths() {
    let rows = 9;
    // 20-wide row segments are offered as runs, 3-wide ones are not.
    for (cols, offered) in [(20 * NPROCS, true), (3 * NPROCS, false)] {
        let dist = col_blocks(rows, cols, NPROCS);
        for rank in 0..NPROCS {
            assert_eq!(
                dist.local_runs(rank).is_some(),
                offered,
                "cols {cols}, rank {rank}"
            );
        }
        let initial: Vec<f64> = (0..rows * cols)
            .map(|g| ((g * 37) % 101) as f64 * 0.125)
            .collect();
        // Sequential replay: same arithmetic, same order per element.
        let mut expected = initial.clone();
        for _ in 0..3 {
            let old = expected.clone();
            for g in cols..(rows - 1) * cols {
                expected[g] = 0.25 * old[g - cols] + 0.5 * old[g] + 0.25 * old[g + cols];
            }
        }
        let gather = |outcomes: &[(Vec<f64>, Counters)]| {
            let locals: Vec<Vec<f64>> = outcomes.iter().map(|(a, _)| a.clone()).collect();
            gather_global(&dist, &locals)
        };

        // Counters are compared with one worker running each phase as one
        // whole-list chunk (which also takes row alignment to saturation).
        let whole = run_vertical_stencil(rows, cols, &initial, WHOLE_LIST);
        assert_eq!(
            bits(&gather(&whole)),
            bits(&expected),
            "one chunk, cols {cols}"
        );
        for (workers, chunk) in KNOB_GRID {
            let got = run_vertical_stencil(rows, cols, &initial, (workers, chunk));
            assert_eq!(
                bits(&gather(&got)),
                bits(&expected),
                "cols {cols} at (workers {workers}, chunk {chunk})"
            );
            for (rank, ((_, c), (_, w))) in got.iter().zip(&whole).enumerate() {
                assert_eq!(
                    masked(*c),
                    masked(*w),
                    "rank {rank} counters vs the one-chunk run, cols {cols} \
                     at (workers {workers}, chunk {chunk})"
                );
            }
        }
    }
}

#[test]
fn jacobi_under_a_non_monotone_user_defined_distribution_is_knob_independent() {
    let mesh = UnstructuredMeshBuilder::new(9, 8)
        .seed(41)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 13) % 17) as f64 * 0.5)
        .collect();
    let dist = DimDist::new(ReversedBlock::new(mesh.len(), NPROCS));
    assert!(
        dist.local_runs(0).is_none(),
        "the trait default offers no runs"
    );
    let case = Case::new(&mesh, Placement::Dist(dist), &initial);
    assert_knob_independent(
        "jacobi_under_a_non_monotone_user_defined_distribution_is_knob_independent",
        jacobi_knobs(6, 3),
        &case,
        &KNOB_GRID,
    );
}

/// The Jacobi relaxation of node `i`, fetching neighbour values through
/// `fetch`, in the arithmetic order of `jacobi_sequential`.
fn relaxed(mesh: &AdjacencyMesh, i: usize, mut fetch: impl FnMut(usize) -> f64) -> f64 {
    let mut x = 0.0;
    for (&nb, &c) in mesh.neighbors(i).iter().zip(mesh.coefs(i)) {
        x += c * fetch(nb as usize);
    }
    x
}

/// `sweeps` Jacobi relaxations over a scrambled mesh on **one** schedule,
/// with the knob pair of `knobs` cycling from sweep to sweep (so a memo
/// recorded under one pair is replayed under the next).  Returns every
/// rank's final local field and the counters of the sweeps.
fn run_relaxation_on_one_schedule(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
    knobs: &[(usize, usize)],
) -> Vec<(Vec<f64>, Counters)> {
    Machine::new(NPROCS, CostModel::ncube7()).run(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        let rank = proc.rank();
        let mut a: Vec<f64> = (0..dist.local_count(rank))
            .map(|l| initial[dist.global_index(rank, l)])
            .collect();
        let mut session = Session::new();
        let relaxation = session.loop_1d(mesh.len(), dist.clone());
        let schedule = session.plan_indirect(proc, &relaxation, &dist, |i, refs| {
            refs.extend(mesh.neighbors(i).iter().map(|&nb| nb as usize))
        });
        assert!(
            !schedule.nonlocal_iters().is_empty(),
            "a scrambled mesh leaves every rank nonlocal iterations"
        );
        let start = proc.counters();
        for sweep in 0..sweeps {
            let old_a = a.clone();
            let (workers, chunk) = knobs[sweep % knobs.len()];
            session.set_workers(workers);
            session.set_chunk_size(chunk);
            session.execute(
                proc,
                &relaxation,
                &schedule,
                &dist,
                &old_a,
                |i, fetch| relaxed(mesh, i, |g| fetch.fetch(g)),
                |i, x| a[dist.local_index(i)] = x,
            );
        }
        (a, proc.counters().since(&start))
    })
}

#[test]
fn a_memo_recorded_under_one_knob_pair_replays_under_every_other() {
    let mesh = UnstructuredMeshBuilder::new(9, 9)
        .seed(43)
        .scramble_numbering(true)
        .build();
    assert!(
        (0..mesh.len()).all(|i| mesh.degree(i) > 0),
        "every node relaxes"
    );
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 19) % 29) as f64 * 0.25)
        .collect();
    let sweeps = 5;
    let dist = DimDist::block(mesh.len(), NPROCS);
    let expected = jacobi_sequential(&mesh, &initial, sweeps);
    let gather = |outcomes: &[(Vec<f64>, Counters)]| {
        gather_global(
            &dist,
            &outcomes.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>(),
        )
    };
    let whole = run_relaxation_on_one_schedule(&mesh, &initial, sweeps, &[WHOLE_LIST]);
    assert_eq!(bits(&gather(&whole)), bits(&expected), "one chunk");

    let pairs: Vec<(usize, usize)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&w| [1usize, 3, 7, 0].map(|c| (w, c)))
        .collect();
    // Sweep 0 is plain, sweep 1 records, sweeps 2.. replay: starting the
    // cycle at every pair in turn and stepping by 5 (coprime to 12) puts
    // every pair in the recording seat once, each followed by three others.
    for first in 0..pairs.len() {
        let cycle: Vec<(usize, usize)> = (0..sweeps)
            .map(|k| pairs[(first + 5 * k) % pairs.len()])
            .collect();
        let got = run_relaxation_on_one_schedule(&mesh, &initial, sweeps, &cycle);
        assert_eq!(bits(&gather(&got)), bits(&expected), "knobs {cycle:?}");
        for (rank, ((_, c), (_, w))) in got.iter().zip(&whole).enumerate() {
            assert_eq!(
                masked(*c),
                masked(*w),
                "rank {rank} counters vs the one-chunk run, knobs {cycle:?}"
            );
        }
    }
}

#[test]
fn a_worker_panic_during_the_recording_sweep_leaves_no_memo_behind() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mesh = UnstructuredMeshBuilder::new(8, 8)
        .seed(47)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len()).map(|i| (i % 7) as f64 * 0.5).collect();
    // 0: plain; 1: the recording sweep, poisoned; 2, 3: what follows it on a
    // schedule whose one chance to record is gone; `None`: never poisoned.
    let run = |poisoned: Option<usize>| {
        Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            let rank = proc.rank();
            let mut a: Vec<f64> = (0..dist.local_count(rank))
                .map(|l| initial[dist.global_index(rank, l)])
                .collect();
            let mut session = Session::new();
            session.set_workers(4);
            session.set_chunk_size(3);
            let relaxation = session.loop_1d(mesh.len(), dist.clone());
            let schedule = session.plan_indirect(proc, &relaxation, &dist, |i, refs| {
                refs.extend(mesh.neighbors(i).iter().map(|&nb| nb as usize))
            });
            let last = *schedule
                .nonlocal_iters()
                .last()
                .expect("nonlocal iterations");
            let bytes_before = schedule.approx_bytes();
            let mut bytes_after = Vec::new();
            for sweep in 0..4 {
                let old_a = a.clone();
                let poison = poisoned == Some(sweep);
                let swept = catch_unwind(AssertUnwindSafe(|| {
                    session.execute(
                        proc,
                        &relaxation,
                        &schedule,
                        &dist,
                        &old_a,
                        |i, fetch| {
                            let x = relaxed(&mesh, i, |g| fetch.fetch(g));
                            // The last chunk of the nonlocal phase dies
                            // after recording its references.
                            assert!(!(poison && i == last), "poisoned iteration {i}");
                            x
                        },
                        |i, x| a[dist.local_index(i)] = x,
                    )
                }));
                assert_eq!(swept.is_err(), poison, "sweep {sweep}");
                if poison {
                    // The sweep's earlier chunks reached the sink; redo it
                    // from the old values so the fields stay comparable.
                    a = old_a;
                }
                bytes_after.push(schedule.approx_bytes() - bytes_before);
            }
            (a, bytes_after)
        })
    };
    let clean = run(None);
    let broken = run(Some(1));
    for (rank, ((a, learned), (b, nothing))) in clean.iter().zip(&broken).enumerate() {
        assert_eq!(
            learned[0], 0,
            "rank {rank}: the first sweep records nothing"
        );
        assert!(learned[1] > 0, "rank {rank}: the second sweep records");
        assert_eq!(learned[1..], [learned[1]; 3], "rank {rank}: recorded once");
        assert_eq!(nothing, &[0; 4], "rank {rank}: no partial memo is kept");
        // Three completed sweeps either way, all on the long route after
        // the failed recording.
        assert_eq!(
            bits(a),
            bits(&sequential_block_of_rank(&mesh, &initial, 4, rank))
        );
        assert_eq!(
            bits(b),
            bits(&sequential_block_of_rank(&mesh, &initial, 3, rank))
        );
    }
}

/// Rank `rank`'s block of the sequential Jacobi field after `sweeps`.
fn sequential_block_of_rank(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
    rank: usize,
) -> Vec<f64> {
    let dist = DimDist::block(mesh.len(), NPROCS);
    let field = jacobi_sequential(mesh, initial, sweeps);
    (0..dist.local_count(rank))
        .map(|l| field[dist.global_index(rank, l)])
        .collect()
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_knobs() -> impl Strategy<Value = (usize, usize, u64)> {
        const CHUNKS: [usize; 7] = [0, 1, 3, 7, 17, 64, 2048];
        (1usize..6, 0usize..CHUNKS.len(), 1u64..50)
            .prop_map(|(workers, c, seed)| (workers, CHUNKS[c], seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any `(workers, chunk)` and any mesh seed: the Jacobi field, its
        /// change history and the merged per-rank counters are bitwise
        /// identical to the single-worker run and the sequential replay.
        #[test]
        fn any_knobs_replay_the_scalar_jacobi_bitwise(knobs in arb_knobs()) {
            let (workers, chunk, seed) = knobs;
            let mesh = UnstructuredMeshBuilder::new(8, 8).seed(seed).build();
            let initial: Vec<f64> =
                (0..mesh.len()).map(|i| (i % 11) as f64 * 0.3).collect();
            assert_knob_independent(
                "properties::any_knobs_replay_the_scalar_jacobi_bitwise",
                jacobi_knobs(5, 2),
                &Case::new(&mesh, Placement::Block, &initial),
                &[(workers, chunk)],
            );
        }
    }
}

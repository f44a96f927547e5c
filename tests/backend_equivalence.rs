//! Backend equivalence: the same Kali program must produce **bit-identical**
//! results on the `dmsim` simulator, on the `kali-native` threaded backend,
//! and on the `kali-mp` multi-process socket backend.
//!
//! This is the contract that makes the `Process` abstraction trustworthy:
//! the runtime layer (inspector, executor, redistribution) fixes the
//! iteration order and the communication schedule, so the floating-point
//! arithmetic happens in exactly the same order on every backend — only the
//! notion of time differs (simulated seconds vs wall-clock).
//!
//! The mp column runs on **real OS processes** (`MpMachine::run`
//! re-executes this test binary, one child per rank): every value crosses a
//! Unix-domain socket through the `Wire` codec, and every rank rebuilds the
//! meshes and distributions from scratch, so nothing rides along in shared
//! memory.  The mp run call is placed *first* in each test body, before the
//! dmsim/native runs, so a spawned worker reaches its call site with the
//! least re-executed work.  The solver cases go through the registry
//! (`solvers::Program`) and its driver, `common::on_every_backend`, which
//! also holds every leg to the sequential replay; the kernels that are not
//! solver programs (the shift, two bodies, two placements) run by hand.

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::inspector::owner_computes_iters;
use kali_repro::kali::{execute_sweep, redistribute_epoch, run_inspector, ExecutorConfig};
use kali_repro::meshes::{AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use kali_repro::mp::MpMachine;
use kali_repro::native::NativeMachine;
use kali_repro::process::Process;
use kali_repro::solvers::{
    final_placement, replay_sum, Case, CgConfig, JacobiConfig, MultiDimConfig, Placement, Program,
    RedBlackConfig,
};

/// Gather a distributed solution back into global numbering (the shared
/// helper next to the churn replay).
use kali_repro::solvers::gather_global as gather;

mod common;
use common::{bits, on_every_backend, ReversedBlock};

fn jacobi(sweeps: usize) -> Program {
    Program::Jacobi(JacobiConfig::with_sweeps(sweeps))
}

#[test]
fn jacobi_is_bit_identical_across_backends_on_the_paper_grid() {
    const TEST: &str = "jacobi_is_bit_identical_across_backends_on_the_paper_grid";
    let grid = RegularGrid::square(24);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let case = Case::new(&mesh, Placement::Block, &initial);
    for nprocs in [1usize, 2, 4, 8] {
        on_every_backend(TEST, &jacobi(10), &case, nprocs);
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_on_scrambled_unstructured_mesh() {
    // Scrambled numbering fragments the schedules, exercising the
    // binary-search receive path and multi-partner exchanges.
    const TEST: &str = "jacobi_is_bit_identical_across_backends_on_scrambled_unstructured_mesh";
    let mesh = UnstructuredMeshBuilder::new(12, 12)
        .seed(41)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 31) % 17) as f64 * 0.5)
        .collect();
    let n = mesh.len();
    for dist in [
        DimDist::block(n, 4),
        DimDist::cyclic(n, 4),
        DimDist::block_cyclic(n, 4, 7),
    ] {
        let case = Case::new(&mesh, Placement::Dist(dist), &initial);
        on_every_backend(TEST, &jacobi(6), &case, 4);
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_under_a_non_monotone_user_defined_dist() {
    // The side of the executor's translation choice the built-in block
    // distribution never takes: a distribution that offers no runs (the
    // trait default), stored back to front, on all four legs.
    const TEST: &str =
        "jacobi_is_bit_identical_across_backends_under_a_non_monotone_user_defined_dist";
    let mesh = UnstructuredMeshBuilder::new(10, 9)
        .seed(5)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 7) % 19) as f64 * 0.25)
        .collect();
    for nprocs in [2usize, 4] {
        let dist = DimDist::new(ReversedBlock::new(mesh.len(), nprocs));
        assert!(dist.local_runs(0).is_none());
        let case = Case::new(&mesh, Placement::Dist(dist), &initial);
        on_every_backend(TEST, &jacobi(6), &case, nprocs);
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_under_partitioned_irregular_dist() {
    // The irregular path end to end: the owner map comes from the mesh
    // partitioner, each rank contributes only its slice, and the
    // translation tables are assembled with the collective owner-map
    // machinery.  On real processes each rank rebuilds the mesh and runs the
    // partitioner itself — the owner map genuinely cannot be shared, only
    // exchanged.
    let mesh = UnstructuredMeshBuilder::new(14, 11)
        .seed(77)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 37) % 19) as f64 * 0.25)
        .collect();
    on_every_backend(
        "jacobi_is_bit_identical_across_backends_under_partitioned_irregular_dist",
        &jacobi(6),
        &Case::new(&mesh, Placement::Partitioned, &initial),
        4,
    );
}

#[test]
fn schedule_cache_lifecycle_is_identical_across_backends_under_adaptation() {
    // The full adapt–redistribute–sweep sequence: every adaptation bumps
    // the data version (forcing re-inspection), every rebalance changes
    // the distribution fingerprint and must reclaim the retired
    // placement's schedules.  The cache's hit/miss/eviction bookkeeping is
    // part of the runtime contract, so it is among the counts every leg
    // must agree on, and the numerical results must stay bit-identical.
    let mesh = UnstructuredMeshBuilder::new(12, 12)
        .seed(63)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 13) % 29) as f64 * 0.2)
        .collect();
    let program = Program::Jacobi(JacobiConfig {
        sweeps: 12,
        adapt_every: Some(4), // adapt before sweeps 4 and 8
        rebalance: true,      // …and redistribute to the rebalanced placement
        ..JacobiConfig::default()
    });
    let runs = on_every_backend(
        "schedule_cache_lifecycle_is_identical_across_backends_under_adaptation",
        &program,
        &Case::new(&mesh, Placement::Partitioned, &initial),
        4,
    );
    // Cache lifecycle matching the adaptation schedule exactly:
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(run.count("adaptations"), 2, "rank {rank}");
        assert_eq!(
            run.count("cache_misses"),
            3,
            "rank {rank}: one inspector run per mesh generation"
        );
        assert_eq!(
            run.count("cache_hits"),
            9,
            "rank {rank}: all other sweeps hit"
        );
        assert_eq!(
            run.count("cache_evictions"),
            2,
            "rank {rank}: each redistribution reclaims the stale placement"
        );
        assert_eq!(
            run.count("cache_resident_entries"),
            1,
            "rank {rank}: only the live schedule stays resident"
        );
    }
}

#[test]
fn adaptive_jacobi_under_a_non_monotone_user_defined_dist_equals_its_sequential_replay() {
    // The adaptive run's own set-up on a distribution whose local order
    // is not ascending global order: the field must be scattered the way the
    // mesh rows, the executor and `gather_global` index it.  Static, adapting
    // in place, and rebalancing away from the user-defined placement.
    const TEST: &str =
        "adaptive_jacobi_under_a_non_monotone_user_defined_dist_equals_its_sequential_replay";
    let mesh = UnstructuredMeshBuilder::new(10, 9)
        .seed(5)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 7) % 19) as f64 * 0.25)
        .collect();
    let nprocs = 2;
    let start = Placement::Dist(DimDist::new(ReversedBlock::new(mesh.len(), nprocs)));
    for (adapt_every, rebalance) in [(None, false), (Some(2), false), (Some(2), true)] {
        let program = Program::Jacobi(JacobiConfig {
            sweeps: 4,
            adapt_every,
            rebalance,
            ..JacobiConfig::default()
        });
        on_every_backend(
            TEST,
            &program,
            &Case::new(&mesh, start.clone(), &initial),
            nprocs,
        );
    }
}

#[test]
fn convergence_checks_follow_the_placement_across_rebalances() {
    // The convergence forall is aligned with `a`, so after a rebalance its
    // on-clause and its schedule must describe the new placement: planned
    // under the retired one, `fetch.home()` would index the wrong rows.  The
    // run starts on a placement stored back to front, so a check left on it
    // folds the rows in the wrong order and misses the replay by an ulp.
    let mesh = UnstructuredMeshBuilder::new(12, 12)
        .seed(63)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 13) % 29) as f64 * 0.2)
        .collect();
    let config = JacobiConfig {
        sweeps: 10,
        adapt_every: Some(4), // adapt and rebalance before sweeps 4 and 8
        rebalance: true,
        convergence_check_every: Some(1),
        ..JacobiConfig::default()
    };
    let nprocs = 4;
    let start = DimDist::new(ReversedBlock::new(mesh.len(), nprocs));
    let case = Case::new(&mesh, Placement::Dist(start.clone()), &initial);
    let runs = on_every_backend(
        "convergence_checks_follow_the_placement_across_rebalances",
        &Program::Jacobi(config),
        &case,
        nprocs,
    );
    assert_eq!(runs[0].history.len(), config.sweeps, "one check per sweep");

    // The last check reduces the final sweep's change over the final
    // placement, in that placement's fold order.
    let placement = final_placement(&mesh, &start, &config);
    let (a, _) = Program::Jacobi(config).replay(&case, nprocs);
    let before = JacobiConfig {
        sweeps: config.sweeps - 1,
        ..config
    };
    let (old, _) = Program::Jacobi(before).replay(&case, nprocs);
    let last = replay_sum(&placement, |i| {
        let d = a[i] - old[i];
        d * d
    });
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(bits(&run.history), bits(&runs[0].history), "rank {rank}");
    }
    assert_eq!(
        runs[0].history.last().map(|v| v.to_bits()),
        Some(last.to_bits())
    );
}

#[test]
fn convergence_checks_do_not_break_backend_agreement() {
    let grid = RegularGrid::square(12);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let program = Program::Jacobi(JacobiConfig {
        sweeps: 8,
        convergence_check_every: Some(2),
        ..JacobiConfig::default()
    });
    on_every_backend(
        "convergence_checks_do_not_break_backend_agreement",
        &program,
        &Case::new(&mesh, Placement::Block, &initial),
        4,
    );
}

/// One inspector/executor shift sweep (Figure 1), on any backend.
fn shift_on<P: Process>(proc: &mut P, n: usize) -> Vec<f64> {
    let dist = DimDist::block(n, proc.nprocs());
    let rank = proc.rank();
    let local_a: Vec<f64> = dist
        .local_set(rank)
        .iter()
        .map(|g| (g * g) as f64)
        .collect();
    let exec = owner_computes_iters(&dist, rank, n - 1);
    let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
    let mut out = local_a.clone();
    execute_sweep(
        proc,
        ExecutorConfig::default(),
        &schedule,
        &dist,
        &dist,
        &local_a,
        |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
        |_, (l, v)| out[l] = v,
    );
    out
}

#[test]
fn inspector_executor_shift_matches_across_backends() {
    let (n, nprocs) = (96, 8);
    let dist = DimDist::block(n, nprocs);
    let shifted: Vec<f64> = (0..n)
        .map(|g| ((g + 1).min(n - 1) * (g + 1).min(n - 1)) as f64)
        .collect();
    let mp = MpMachine::new(nprocs)
        .run("inspector_executor_shift_matches_across_backends", |proc| {
            shift_on(proc, n)
        });
    let simulated = Machine::new(nprocs, CostModel::ideal()).run(|proc| shift_on(proc, n));
    let native = NativeMachine::new(nprocs).run(|proc| shift_on(proc, n));
    assert_eq!(gather(&dist, &simulated), shifted, "dmsim");
    assert_eq!(gather(&dist, &native), shifted, "native");
    if let Some(mp) = mp {
        assert_eq!(gather(&dist, &mp), shifted, "mp");
    }
}

/// The two bodies of [`two_bodies_on`], shared with its sequential replay:
/// `u[i]` is the coefficient-weighted sum of `x` over `i`'s neighbours in
/// list order; `v[i]` is `y[i]` plus a differently weighted sum of `y` over
/// the same neighbours in *reverse* order.
fn weighted_sum(mesh: &AdjacencyMesh, i: usize, mut x: impl FnMut(usize) -> f64) -> f64 {
    let mut u = 0.0;
    for (&nb, &c) in mesh.neighbors(i).iter().zip(mesh.coefs(i)) {
        u += c * x(nb as usize);
    }
    u
}

fn reversed_sum(mesh: &AdjacencyMesh, i: usize, mut y: impl FnMut(usize) -> f64) -> f64 {
    let mut v = y(i);
    for (k, &nb) in mesh.neighbors(i).iter().enumerate().rev() {
        v += 0.125 * (k + 1) as f64 * y(nb as usize);
    }
    v
}

/// One step of the two-body kernel on whole arrays.
fn two_bodies_step(u: &[f64], v: &[f64], x: &mut [f64], y: &mut [f64]) {
    for l in 0..x.len() {
        x[l] = 0.5 * x[l] + 0.25 * v[l];
        y[l] = 0.5 * y[l] - 0.125 * u[l];
    }
}

/// A CG-shaped kernel: **one** schedule (the mesh's neighbour pattern)
/// executed alternately with two different bodies over two different arrays
/// — inline, reading `x` in list order; on a two-worker pool, reading `y`
/// in reverse order plus the iteration's own element — so what
/// one execution teaches the schedule about its references is replayed
/// against a body that fetches something else.  Returns the rank's `x`
/// followed by its `y`.
fn two_bodies_on<P: Process>(proc: &mut P, mesh: &AdjacencyMesh, steps: usize) -> Vec<f64> {
    let n = mesh.len();
    let dist = DimDist::block(n, proc.nprocs());
    let rank = proc.rank();
    let globals: Vec<usize> = dist.local_set(rank).iter().collect();
    let mut x: Vec<f64> = globals
        .iter()
        .map(|&g| ((g * 7) % 11) as f64 * 0.5)
        .collect();
    let mut y: Vec<f64> = globals
        .iter()
        .map(|&g| ((g * 5) % 13) as f64 - 3.0)
        .collect();
    let exec = owner_computes_iters(&dist, rank, n);
    let schedule = run_inspector(proc, &dist, &exec, |i, refs| {
        refs.extend(mesh.neighbors(i).iter().map(|&nb| nb as usize))
    });
    let (mut u, mut v) = (vec![0.0; x.len()], vec![0.0; x.len()]);
    for step in 0..steps {
        execute_sweep(
            proc,
            ExecutorConfig::sweep(2 * step),
            &schedule,
            &dist,
            &dist,
            &x,
            |i, fetch| (fetch.home(), weighted_sum(mesh, i, |g| fetch.fetch(g))),
            |_, (l, value)| u[l] = value,
        );
        execute_sweep(
            proc,
            ExecutorConfig::sweep(2 * step + 1)
                .with_workers(2)
                .with_chunk(5),
            &schedule,
            &dist,
            &dist,
            &y,
            |i, fetch| (fetch.home(), reversed_sum(mesh, i, |g| fetch.fetch(g))),
            |_, (l, value)| v[l] = value,
        );
        two_bodies_step(&u, &v, &mut x, &mut y);
    }
    x.extend(y);
    x
}

#[test]
fn one_schedule_under_two_bodies_is_bit_identical_across_backends() {
    let mesh = UnstructuredMeshBuilder::new(10, 11)
        .seed(37)
        .scramble_numbering(true)
        .build();
    let (n, nprocs, steps) = (mesh.len(), 4, 4);
    let mp = MpMachine::new(nprocs).run(
        "one_schedule_under_two_bodies_is_bit_identical_across_backends",
        |proc| two_bodies_on(proc, &mesh, steps),
    );
    let simulated =
        Machine::new(nprocs, CostModel::ideal()).run(|proc| two_bodies_on(proc, &mesh, steps));
    let native = NativeMachine::new(nprocs).run(|proc| two_bodies_on(proc, &mesh, steps));

    // Sequential replay: the same bodies over the global arrays.
    let mut x: Vec<f64> = (0..n).map(|g| ((g * 7) % 11) as f64 * 0.5).collect();
    let mut y: Vec<f64> = (0..n).map(|g| ((g * 5) % 13) as f64 - 3.0).collect();
    for _ in 0..steps {
        let u: Vec<f64> = (0..n).map(|i| weighted_sum(&mesh, i, |g| x[g])).collect();
        let v: Vec<f64> = (0..n).map(|i| reversed_sum(&mesh, i, |g| y[g])).collect();
        two_bodies_step(&u, &v, &mut x, &mut y);
    }
    let dist = DimDist::block(n, nprocs);
    let check = |backend: &str, per_rank: Vec<Vec<f64>>| {
        let (xs, ys): (Vec<_>, Vec<_>) = per_rank
            .into_iter()
            .map(|both| {
                let (x, y) = both.split_at(both.len() / 2);
                (x.to_vec(), y.to_vec())
            })
            .unzip();
        assert_eq!(
            bits(&gather(&dist, &xs)),
            bits(&x),
            "{backend}: x vs replay"
        );
        assert_eq!(
            bits(&gather(&dist, &ys)),
            bits(&y),
            "{backend}: y vs replay"
        );
    };
    check("dmsim", simulated);
    check("native", native);
    if let Some(mp) = mp {
        check("mp", mp);
    }
}

/// Two arrays under two placements, each updated by a loop placed by its
/// own distribution and reading the other: `w` (placed by `a`) inline from
/// the mesh neighbours' `x`, then `x` (placed by `b`) on a two-worker pool
/// from the fresh `w`.  Every store goes through
/// `home()`, which must follow the **on-clause** distribution — the data
/// distribution of both loops is the other one.  Returns the rank's `w`
/// followed by its `x`.
fn two_placements_on<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    reversed: bool,
    steps: usize,
) -> Vec<f64> {
    let (n, rank) = (mesh.len(), proc.rank());
    let (a, b) = &two_placements(n, proc.nprocs(), reversed);
    let mut w: Vec<f64> = (0..a.local_count(rank))
        .map(|l| two_placements_initial(a.global_index(rank, l)).0)
        .collect();
    let mut x: Vec<f64> = (0..b.local_count(rank))
        .map(|l| two_placements_initial(b.global_index(rank, l)).1)
        .collect();
    let placed_by_a = owner_computes_iters(a, rank, n);
    let gather_x = run_inspector(proc, b, &placed_by_a, |i, refs| {
        refs.extend(mesh.neighbors(i).iter().map(|&nb| nb as usize))
    });
    let placed_by_b = owner_computes_iters(b, rank, n);
    let read_w = run_inspector(proc, a, &placed_by_b, |i, refs| refs.push(i));
    for step in 0..steps {
        let old_w = w.clone();
        execute_sweep(
            proc,
            ExecutorConfig::sweep(2 * step),
            &gather_x,
            a,
            b,
            &x,
            |i, fetch| {
                let l = fetch.home();
                let value = 0.5 * old_w[l] + weighted_sum(mesh, i, |g| fetch.fetch(g));
                (l, value)
            },
            |_, (l, value)| w[l] = value,
        );
        let old_x = x.clone();
        execute_sweep(
            proc,
            ExecutorConfig::sweep(2 * step + 1)
                .with_workers(2)
                .with_chunk(5),
            &read_w,
            b,
            a,
            &w,
            |i, fetch| {
                let l = fetch.home();
                (l, 0.5 * old_x[l] - 0.125 * fetch.fetch(i))
            },
            |_, (l, value)| x[l] = value,
        );
    }
    w.extend(x);
    w
}

/// The placements `(a, b)` of [`two_placements_on`]: a run-offering one
/// against a run-less one, or — `reversed` — a user-defined one with
/// descending local order against a run-offering one.
fn two_placements(n: usize, p: usize, reversed: bool) -> (DimDist, DimDist) {
    if reversed {
        (
            DimDist::new(ReversedBlock::new(n, p)),
            DimDist::block_cyclic(n, p, 20),
        )
    } else {
        (DimDist::block(n, p), DimDist::cyclic(n, p))
    }
}

/// Initial `(w[g], x[g])` of [`two_placements_on`].
fn two_placements_initial(g: usize) -> (f64, f64) {
    (((g * 7) % 11) as f64 * 0.5, ((g * 5) % 13) as f64 - 3.0)
}

#[test]
fn a_loop_placed_by_one_distribution_reading_another_is_bit_identical_across_backends() {
    let mesh = UnstructuredMeshBuilder::new(9, 10)
        .seed(41)
        .scramble_numbering(true)
        .build();
    let (n, nprocs, steps) = (mesh.len(), 4, 3);

    // Sequential replay: the same bodies over the global arrays.
    let (mut w, mut x): (Vec<f64>, Vec<f64>) = (0..n).map(two_placements_initial).unzip();
    for _ in 0..steps {
        w = (0..n)
            .map(|i| 0.5 * w[i] + weighted_sum(&mesh, i, |g| x[g]))
            .collect();
        x = (0..n).map(|i| 0.5 * x[i] - 0.125 * w[i]).collect();
    }

    for reversed in [false, true] {
        let mp = MpMachine::new(nprocs).run(
            "a_loop_placed_by_one_distribution_reading_another_is_bit_identical_across_backends",
            |proc| two_placements_on(proc, &mesh, reversed, steps),
        );
        let simulated = Machine::new(nprocs, CostModel::ideal())
            .run(|proc| two_placements_on(proc, &mesh, reversed, steps));
        let native =
            NativeMachine::new(nprocs).run(|proc| two_placements_on(proc, &mesh, reversed, steps));

        let (a, b) = two_placements(n, nprocs, reversed);
        let check = |backend: &str, per_rank: Vec<Vec<f64>>| {
            let (ws, xs): (Vec<_>, Vec<_>) = per_rank
                .iter()
                .enumerate()
                .map(|(rank, both)| {
                    let (w, x) = both.split_at(a.local_count(rank));
                    (w.to_vec(), x.to_vec())
                })
                .unzip();
            assert_eq!(bits(&gather(&a, &ws)), bits(&w), "{backend}: w vs replay");
            assert_eq!(bits(&gather(&b, &xs)), bits(&x), "{backend}: x vs replay");
        };
        check("dmsim", simulated);
        check("native", native);
        if let Some(mp) = mp {
            check("mp", mp);
        }
    }
}

#[test]
fn multidim_phase_change_demo_is_bit_identical_across_backends() {
    // The 2-D phase-change demo end to end: alternating-direction smoothing
    // over a [block, *]-distributed field, with the live field redistributed
    // to [*, block] and back between phases under the phase-change strategy.
    // Acceptance criterion of the multi-dimensional API: every backend and
    // the sequential replay agree bit for bit under both strategies.
    use kali_repro::distrib::Distribution;
    use kali_repro::solvers::{col_placement, multidim_field, PhaseStrategy};
    const TEST: &str = "multidim_phase_change_demo_is_bit_identical_across_backends";

    // Two shapes, one on each side of the executor's translation choice for
    // the [*, block] vertical stencil: 11 columns leave row segments too
    // short to be offered as runs, 72 columns are resolved run by run.
    for (rows, cols, runs_offered) in [(14, 11, false), (6, 72, true)] {
        let mut config = MultiDimConfig::new(rows, cols);
        config.rounds = 2;
        config.sweeps_per_phase = 3;
        assert_eq!(
            col_placement(&config, 4).local_runs(1).is_some(),
            runs_offered,
            "{rows}x{cols}"
        );
        let initial = multidim_field(config.rows, config.cols);
        let case = Case {
            mesh: None,
            placement: Placement::Block,
            input: &initial,
        };
        for strategy in [PhaseStrategy::RowsThroughout, PhaseStrategy::PhaseChange] {
            config.strategy = strategy;
            for nprocs in [1usize, 2, 4] {
                let runs = on_every_backend(TEST, &Program::MultiDim(config), &case, nprocs);
                // Both stencils plan through the compile-time path on every
                // backend: no inspector runs anywhere.
                for run in &runs {
                    assert_eq!(run.count("cache_misses"), 0);
                }
            }
        }
    }
}

#[test]
fn cg_residual_history_is_bit_identical_across_backends() {
    // The reduction-heavy solver: two dot products per iteration through
    // the typed pipeline.  The residual history — a *scalar* trace of every
    // reduction — must agree bit for bit on every backend and with the
    // sequential replay, under both block and partitioned placements.
    let mesh = UnstructuredMeshBuilder::new(11, 12)
        .seed(29)
        .scramble_numbering(true)
        .build();
    let b: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 23) % 17) as f64 * 0.2 - 1.3)
        .collect();
    for placement in [Placement::Block, Placement::Partitioned] {
        on_every_backend(
            "cg_residual_history_is_bit_identical_across_backends",
            &Program::Cg(CgConfig::with_iters(20)),
            &Case::new(&mesh, placement, &b),
            4,
        );
    }
}

#[test]
fn redblack_field_and_change_history_are_bit_identical_across_backends() {
    // Two stripe loops (distinct ids, one session cache), change-norm
    // reductions fused into the half-sweeps: field and history must agree
    // bit for bit on every backend and with the sequential replay.
    let mesh = UnstructuredMeshBuilder::new(12, 10)
        .seed(47)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 31) % 29) as f64 * 0.15)
        .collect();
    let program = Program::RedBlack(RedBlackConfig {
        sweeps: 10,
        check_every: Some(2),
        ..RedBlackConfig::default()
    });
    let runs = on_every_backend(
        "redblack_field_and_change_history_are_bit_identical_across_backends",
        &program,
        &Case::new(&mesh, Placement::Partitioned, &initial),
        4,
    );
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(run.count("loops_allocated"), 2, "rank {rank}");
        assert_eq!(
            run.count("cache_misses"),
            2,
            "rank {rank}: one inspector run per colour"
        );
        assert_eq!(run.count("reductions"), 2 * 5, "rank {rank}: two per check");
    }
}

#[test]
fn redistribution_works_on_the_native_backend() {
    let n = 97;
    let native = NativeMachine::new(4).run(|proc| {
        let from = DimDist::block(n, proc.nprocs());
        let to = DimDist::cyclic(n, proc.nprocs());
        let rank = proc.rank();
        let local: Vec<u64> = from.local_set(rank).iter().map(|g| g as u64).collect();
        let moved = redistribute_epoch(proc, &from, &to, &local, 0);
        let expected: Vec<u64> = to.local_set(rank).iter().map(|g| g as u64).collect();
        assert_eq!(moved, expected, "rank {rank}");
        moved.len()
    });
    assert_eq!(native.iter().sum::<usize>(), n);
}

mod properties {
    use super::*;
    use kali_repro::meshes::greedy_partition;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Any of seven scrambled random meshes, any mesh program of the
        /// registry (`Program::mesh_suite`, four steps), any distribution
        /// kind and either rank count: native computes dmsim's bits.
        #[test]
        fn native_matches_dmsim_bitwise_on_any_mesh_program_and_distribution(
            mesh_seed in 1u64..8,
            solver_idx in 0usize..4,
            dist_idx in 0usize..4,
            procs_idx in 0usize..2,
        ) {
            let nprocs = [2usize, 4][procs_idx];
            let program = Program::mesh_suite(4)[solver_idx];
            let mesh = UnstructuredMeshBuilder::new(8, 8)
                .seed(mesh_seed)
                .scramble_numbering(true)
                .build();
            let n = mesh.len();
            let field: Vec<f64> = (0..n)
                .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
                .collect();
            let dist = [
                DimDist::block(n, nprocs),
                DimDist::cyclic(n, nprocs),
                DimDist::block_cyclic(n, nprocs, 3),
                DimDist::custom(greedy_partition(&mesh, nprocs), nprocs),
            ][dist_idx]
                .clone();
            let case = Case::new(&mesh, Placement::Dist(dist), &field);
            let simulated = Machine::new(nprocs, CostModel::ideal())
                .run(|proc| program.run(proc, &case).bits());
            let native = NativeMachine::new(nprocs).run(|proc| program.run(proc, &case).bits());
            prop_assert_eq!(&native, &simulated);
        }
    }
}

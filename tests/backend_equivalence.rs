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
//! least re-executed work.

use kali_repro::baseline::sequential_jacobi;
use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::inspector::owner_computes_iters;
use kali_repro::kali::{execute_sweep, redistribute_epoch, run_inspector, ExecutorConfig};
use kali_repro::meshes::{greedy_partition, AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use kali_repro::mp::MpMachine;
use kali_repro::native::NativeMachine;
use kali_repro::process::Process;
use kali_repro::solvers::{
    adaptive_jacobi_sequential, final_placement, jacobi_sweeps, partitioned_dist, replay_sum,
    JacobiConfig,
};

/// Gather a distributed solution back into global numbering (the shared
/// helper next to the churn replay).
use kali_repro::solvers::gather_global as gather;

mod common;

/// The Figure 4 Jacobi program, expressed once over any backend.
fn jacobi_on<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
    dist_of: impl Fn(usize) -> DimDist,
) -> Vec<f64> {
    let dist = dist_of(proc.nprocs());
    jacobi_sweeps(
        proc,
        mesh,
        &dist,
        initial,
        &JacobiConfig::with_sweeps(sweeps),
    )
    .local_a
}

fn assert_backends_agree(
    test: &str,
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
    nprocs: usize,
    dist_of: impl Fn(usize) -> DimDist + Sync,
) {
    // Real processes first: in a re-executed worker, `run` is the exit
    // point and nothing below this line executes.
    let mp = MpMachine::new(nprocs).run(test, |proc| {
        jacobi_on(proc, mesh, initial, sweeps, &dist_of)
    });
    let simulated = Machine::new(nprocs, CostModel::ideal())
        .run(|proc| jacobi_on(proc, mesh, initial, sweeps, &dist_of));
    let native =
        NativeMachine::new(nprocs).run(|proc| jacobi_on(proc, mesh, initial, sweeps, &dist_of));

    let dist = dist_of(nprocs);
    let simulated = gather(&dist, &simulated);
    let native = gather(&dist, &native);
    // Bitwise, not approximate: same iteration order, same schedules, same
    // arithmetic — the backends may only differ in timing.
    assert_eq!(
        simulated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "dmsim and native Jacobi results diverge ({nprocs} procs)"
    );
    // `None` only inside a re-executed worker passing a call it was not
    // spawned for; the coordinator always gets the rank-ordered results.
    if let Some(mp) = mp {
        let mp = gather(&dist, &mp);
        assert_eq!(
            mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "mp and native Jacobi results diverge ({nprocs} procs)"
        );
    }

    let sequential = sequential_jacobi(mesh, initial, sweeps);
    assert_eq!(native, sequential, "native backend vs sequential reference");
}

#[test]
fn jacobi_is_bit_identical_across_backends_on_the_paper_grid() {
    let grid = RegularGrid::square(24);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    for nprocs in [1usize, 2, 4, 8] {
        assert_backends_agree(
            "jacobi_is_bit_identical_across_backends_on_the_paper_grid",
            &mesh,
            &initial,
            10,
            nprocs,
            |p| DimDist::block(mesh.len(), p),
        );
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_on_scrambled_unstructured_mesh() {
    // Scrambled numbering fragments the schedules, exercising the
    // binary-search receive path and multi-partner exchanges.
    let mesh = UnstructuredMeshBuilder::new(12, 12)
        .seed(41)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 31) % 17) as f64 * 0.5)
        .collect();
    for dist_kind in 0..3usize {
        let n = mesh.len();
        assert_backends_agree(
            "jacobi_is_bit_identical_across_backends_on_scrambled_unstructured_mesh",
            &mesh,
            &initial,
            6,
            4,
            move |p| match dist_kind {
                0 => DimDist::block(n, p),
                1 => DimDist::cyclic(n, p),
                _ => DimDist::block_cyclic(n, p, 7),
            },
        );
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_under_a_non_monotone_user_defined_dist() {
    // The side of the executor's translation choice the built-in block
    // distribution never takes: a distribution that offers no runs (the
    // trait default), stored back to front, on all four legs.
    let mesh = UnstructuredMeshBuilder::new(10, 9)
        .seed(5)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 7) % 19) as f64 * 0.25)
        .collect();
    for nprocs in [2usize, 4] {
        assert_backends_agree(
            "jacobi_is_bit_identical_across_backends_under_a_non_monotone_user_defined_dist",
            &mesh,
            &initial,
            6,
            nprocs,
            |p| {
                let dist = DimDist::new(common::ReversedBlock::new(mesh.len(), p));
                assert!(dist.local_runs(0).is_none());
                dist
            },
        );
    }
}

#[test]
fn jacobi_is_bit_identical_across_backends_under_partitioned_irregular_dist() {
    // The irregular path end to end, on both backends: the owner map comes
    // from the mesh partitioner, each rank contributes only its slice, and
    // the translation tables are assembled with the collective owner-map
    // machinery (crystal router on dmsim, channel all-to-all on native).
    let mesh = UnstructuredMeshBuilder::new(14, 11)
        .seed(77)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 37) % 19) as f64 * 0.25)
        .collect();
    let sweeps = 6;
    let nprocs = 4;

    // Real processes: each rank rebuilds the mesh and runs the partitioner
    // itself — the owner map genuinely cannot be shared, only exchanged.
    let mp = MpMachine::new(nprocs).run(
        "jacobi_is_bit_identical_across_backends_under_partitioned_irregular_dist",
        |proc| {
            let dist = partitioned_dist(proc, &mesh);
            jacobi_sweeps(
                proc,
                &mesh,
                &dist,
                &initial,
                &JacobiConfig::with_sweeps(sweeps),
            )
            .local_a
        },
    );
    let simulated = Machine::new(nprocs, CostModel::ideal()).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        jacobi_sweeps(
            proc,
            &mesh,
            &dist,
            &initial,
            &JacobiConfig::with_sweeps(sweeps),
        )
        .local_a
    });
    let native = NativeMachine::new(nprocs).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        jacobi_sweeps(
            proc,
            &mesh,
            &dist,
            &initial,
            &JacobiConfig::with_sweeps(sweeps),
        )
        .local_a
    });

    // The partitioner is deterministic, so the same distribution can be
    // rebuilt here to reassemble global numbering.
    let dist = DimDist::custom(greedy_partition(&mesh, nprocs), nprocs);
    let simulated = gather(&dist, &simulated);
    let native = gather(&dist, &native);
    assert_eq!(
        simulated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "dmsim and native diverge under the partitioned irregular distribution"
    );
    if let Some(mp) = mp {
        let mp = gather(&dist, &mp);
        assert_eq!(
            mp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "mp diverges under the partitioned irregular distribution"
        );
    }
    let sequential = sequential_jacobi(&mesh, &initial, sweeps);
    assert_eq!(
        native, sequential,
        "partitioned-irregular Jacobi vs sequential reference"
    );
}

#[test]
fn schedule_cache_lifecycle_is_identical_across_backends_under_adaptation() {
    // The full adapt–redistribute–sweep sequence: every adaptation bumps
    // the data version (forcing re-inspection), every rebalance changes
    // the distribution fingerprint and must reclaim the retired
    // placement's schedules.  The cache's hit/miss/eviction bookkeeping is
    // part of the runtime contract, so it must agree between backends, and
    // the numerical results must stay bit-identical.
    let mesh = UnstructuredMeshBuilder::new(12, 12)
        .seed(63)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 13) % 29) as f64 * 0.2)
        .collect();
    let config = JacobiConfig {
        sweeps: 12,
        adapt_every: Some(4), // adapt before sweeps 4 and 8
        rebalance: true,      // …and redistribute to the rebalanced placement
        ..JacobiConfig::default()
    };
    let nprocs = 4;

    let simulated = Machine::new(nprocs, CostModel::ideal()).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
    });
    let native = NativeMachine::new(nprocs).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
    });

    for (rank, (s, n)) in simulated.iter().zip(&native).enumerate() {
        // Cache lifecycle, identical on both backends and matching the
        // adaptation schedule exactly:
        for o in [s, n] {
            assert_eq!(o.adaptations, 2, "rank {rank}");
            assert_eq!(
                o.cache_misses, 3,
                "rank {rank}: one inspector run per mesh generation"
            );
            assert_eq!(o.cache_hits, 9, "rank {rank}: all other sweeps hit");
            assert_eq!(
                o.cache_evictions, 2,
                "rank {rank}: each redistribution reclaims the stale placement"
            );
            assert_eq!(
                o.cache_resident_entries, 1,
                "rank {rank}: only the live schedule stays resident"
            );
            assert!(o.cache_resident_bytes > 0, "rank {rank}");
        }
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.cache_evictions),
            (n.cache_hits, n.cache_misses, n.cache_evictions),
            "rank {rank}: counters diverge between backends"
        );
    }

    // Numerical agreement: dmsim vs native vs the sequential replay.
    let init_dist = DimDist::custom(greedy_partition(&mesh, nprocs), nprocs);
    let final_dist = final_placement(&mesh, &init_dist, &config);
    let simulated = gather(
        &final_dist,
        &simulated.into_iter().map(|o| o.local_a).collect::<Vec<_>>(),
    );
    let native = gather(
        &final_dist,
        &native.into_iter().map(|o| o.local_a).collect::<Vec<_>>(),
    );
    assert_eq!(
        simulated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        native.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "dmsim and native diverge across the adapt-redistribute-sweep sequence"
    );
    let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
    assert_eq!(
        native, expected,
        "adaptive run vs its deterministic sequential replay"
    );
}

#[test]
fn adaptive_jacobi_under_a_non_monotone_user_defined_dist_equals_its_sequential_replay() {
    // The adaptive run's own set-up on a distribution whose local order
    // is not ascending global order: the field must be scattered the way the
    // mesh rows, the executor and `gather_global` index it.  Static, adapting
    // in place, and rebalancing away from the user-defined placement.
    const TEST: &str =
        "adaptive_jacobi_under_a_non_monotone_user_defined_dist_equals_its_sequential_replay";
    fn local_field<P: Process>(
        proc: &mut P,
        mesh: &AdjacencyMesh,
        initial: &[f64],
        config: &JacobiConfig,
    ) -> Vec<f64> {
        let dist = DimDist::new(common::ReversedBlock::new(mesh.len(), proc.nprocs()));
        jacobi_sweeps(proc, mesh, &dist, initial, config).local_a
    }
    let mesh = UnstructuredMeshBuilder::new(10, 9)
        .seed(5)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 7) % 19) as f64 * 0.25)
        .collect();
    let nprocs = 2;
    for (adapt_every, rebalance) in [(None, false), (Some(2), false), (Some(2), true)] {
        let config = JacobiConfig {
            sweeps: 4,
            adapt_every,
            rebalance,
            ..JacobiConfig::default()
        };
        let (m, i, c) = (&mesh, &initial, &config);
        let mp = MpMachine::new(nprocs).run(TEST, |p| local_field(p, m, i, c));
        let simulated = Machine::new(nprocs, CostModel::ideal()).run(|p| local_field(p, m, i, c));
        let native = NativeMachine::new(nprocs).run(|p| local_field(p, m, i, c));

        let expected = adaptive_jacobi_sequential(m, i, c);
        let start = DimDist::new(common::ReversedBlock::new(mesh.len(), nprocs));
        let placement = final_placement(m, &start, c);
        let legs = [
            ("dmsim", Some(simulated)),
            ("native", Some(native)),
            ("mp", mp),
        ];
        for (backend, locals) in legs {
            // `None`: the mp leg inside a re-executed worker.
            let Some(locals) = locals else { continue };
            assert_eq!(
                gather(&placement, &locals),
                expected,
                "{backend}, adapt_every {adapt_every:?}, rebalance {rebalance}"
            );
        }
    }
}

#[test]
fn convergence_checks_follow_the_placement_across_rebalances() {
    // The convergence forall is aligned with `a`, so after a rebalance its
    // on-clause and its schedule must describe the new placement: planned
    // under the retired one, `fetch.home()` would index the wrong rows.  The
    // run starts on a placement stored back to front, so a check left on it
    // folds the rows in the wrong order and misses the replay by an ulp.
    const TEST: &str = "convergence_checks_follow_the_placement_across_rebalances";
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
    fn change_history<P: Process>(
        proc: &mut P,
        mesh: &AdjacencyMesh,
        initial: &[f64],
        config: &JacobiConfig,
    ) -> Vec<f64> {
        let dist = DimDist::new(common::ReversedBlock::new(mesh.len(), proc.nprocs()));
        jacobi_sweeps(proc, mesh, &dist, initial, config).change_history
    }
    let (m, i, c) = (&mesh, &initial, &config);
    let mp = MpMachine::new(nprocs).run(TEST, |p| change_history(p, m, i, c));
    let simulated = Machine::new(nprocs, CostModel::ideal()).run(|p| change_history(p, m, i, c));
    let native = NativeMachine::new(nprocs).run(|p| change_history(p, m, i, c));

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let expected = bits(&simulated[0]);
    assert_eq!(expected.len(), config.sweeps, "one check per sweep");
    let legs = [
        ("dmsim", Some(simulated)),
        ("native", Some(native)),
        ("mp", mp),
    ];
    for (backend, histories) in legs {
        // `None`: the mp leg inside a re-executed worker.
        let Some(histories) = histories else { continue };
        for (rank, h) in histories.iter().enumerate() {
            assert_eq!(bits(h), expected, "{backend}, rank {rank}");
        }
    }

    // The last check reduces the final sweep's change over the final
    // placement, in that placement's fold order.
    let start = DimDist::new(common::ReversedBlock::new(mesh.len(), nprocs));
    let placement = final_placement(&mesh, &start, &config);
    let a = adaptive_jacobi_sequential(&mesh, &initial, &config);
    let before = JacobiConfig {
        sweeps: config.sweeps - 1,
        ..config
    };
    let old = adaptive_jacobi_sequential(&mesh, &initial, &before);
    let last = replay_sum(&placement, |i| {
        let d = a[i] - old[i];
        d * d
    });
    assert_eq!(expected.last().copied(), Some(last.to_bits()));
}

#[test]
fn convergence_checks_do_not_break_backend_agreement() {
    let grid = RegularGrid::square(12);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let config = JacobiConfig {
        sweeps: 8,
        convergence_check_every: Some(2),
        ..JacobiConfig::default()
    };
    let dist_of = |p| DimDist::block(mesh.len(), p);
    let simulated = Machine::new(4, CostModel::ideal())
        .run(|proc| jacobi_sweeps(proc, &mesh, &dist_of(proc.nprocs()), &initial, &config).local_a);
    let native = NativeMachine::new(4)
        .run(|proc| jacobi_sweeps(proc, &mesh, &dist_of(proc.nprocs()), &initial, &config).local_a);
    assert_eq!(
        gather(&dist_of(4), &simulated),
        gather(&dist_of(4), &native)
    );
}

/// One inspector/executor shift sweep (Figure 1), on any backend, with the
/// local iterations overlapping the messages or — the ablation — after them.
fn shift_on<P: Process>(proc: &mut P, n: usize, overlap: bool) -> Vec<f64> {
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
        ExecutorConfig::default().with_overlap(overlap),
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
    for overlap in [true, false] {
        let mp = MpMachine::new(nprocs)
            .run("inspector_executor_shift_matches_across_backends", |proc| {
                shift_on(proc, n, overlap)
            });
        let simulated =
            Machine::new(nprocs, CostModel::ideal()).run(|proc| shift_on(proc, n, overlap));
        let native = NativeMachine::new(nprocs).run(|proc| shift_on(proc, n, overlap));
        assert_eq!(
            gather(&dist, &simulated),
            shifted,
            "dmsim, overlap {overlap}"
        );
        assert_eq!(gather(&dist, &native), shifted, "native, overlap {overlap}");
        if let Some(mp) = mp {
            assert_eq!(gather(&dist, &mp), shifted, "mp, overlap {overlap}");
        }
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
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
            DimDist::new(common::ReversedBlock::new(n, p)),
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
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

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
    // Acceptance criterion of the multi-dimensional API: dmsim, native and
    // the sequential replay agree bit for bit under both strategies.
    use kali_repro::distrib::Distribution;
    use kali_repro::solvers::{
        col_placement, gather_multidim, multidim_field, multidim_sequential, multidim_sweeps,
        row_placement, MultiDimConfig, PhaseStrategy,
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

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
        let expected = multidim_sequential(&config, &initial);

        for strategy in [PhaseStrategy::RowsThroughout, PhaseStrategy::PhaseChange] {
            config.strategy = strategy;
            for nprocs in [1usize, 2, 4] {
                let simulated = Machine::new(nprocs, CostModel::ideal())
                    .run(|proc| multidim_sweeps(proc, &config, &initial));
                let native =
                    NativeMachine::new(nprocs).run(|proc| multidim_sweeps(proc, &config, &initial));
                let final_dist = row_placement(&config, nprocs);
                let sim_field = gather_multidim(
                    &final_dist,
                    &simulated
                        .iter()
                        .map(|o| o.local_a.clone())
                        .collect::<Vec<_>>(),
                );
                let native_field = gather_multidim(
                    &final_dist,
                    &native.iter().map(|o| o.local_a.clone()).collect::<Vec<_>>(),
                );
                assert_eq!(
                    bits(&sim_field),
                    bits(&native_field),
                    "dmsim vs native, {rows}x{cols} {} on {nprocs} procs",
                    strategy.name()
                );
                assert_eq!(
                    bits(&sim_field),
                    bits(&expected),
                    "distributed vs sequential replay, {rows}x{cols} {} on {nprocs} procs",
                    strategy.name()
                );
                // Both stencils plan through the compile-time path on every
                // backend: no inspector runs anywhere.
                for o in simulated.iter().chain(&native) {
                    assert_eq!(o.cache_misses, 0);
                }
            }
        }
    }
}

#[test]
fn cg_residual_history_is_bit_identical_across_backends() {
    // The reduction-heavy solver: two dot products per iteration through
    // the typed pipeline.  The residual history — a *scalar* trace of every
    // reduction — must agree bit for bit between dmsim, native and the
    // sequential replay, under both block and partitioned placements.
    use kali_repro::solvers::{cg_sequential, cg_solve, CgConfig};

    let mesh = UnstructuredMeshBuilder::new(11, 12)
        .seed(29)
        .scramble_numbering(true)
        .build();
    let b: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 23) % 17) as f64 * 0.2 - 1.3)
        .collect();
    let config = CgConfig::with_iters(20);
    let nprocs = 4;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    for partitioned in [false, true] {
        // Real processes; the outcome struct is not `Wire`, so the worker
        // ships the two vectors the equivalence claims are about.
        let mp = MpMachine::new(nprocs).run(
            "cg_residual_history_is_bit_identical_across_backends",
            |proc| {
                let dist = if partitioned {
                    partitioned_dist(proc, &mesh)
                } else {
                    DimDist::block(mesh.len(), proc.nprocs())
                };
                let outcome = cg_solve(proc, &mesh, &dist, &b, &config);
                (outcome.residual_history, outcome.local_x)
            },
        );
        let simulated = Machine::new(nprocs, CostModel::ideal()).run(|proc| {
            let dist = if partitioned {
                partitioned_dist(proc, &mesh)
            } else {
                DimDist::block(mesh.len(), proc.nprocs())
            };
            cg_solve(proc, &mesh, &dist, &b, &config)
        });
        let native = NativeMachine::new(nprocs).run(|proc| {
            let dist = if partitioned {
                partitioned_dist(proc, &mesh)
            } else {
                DimDist::block(mesh.len(), proc.nprocs())
            };
            cg_solve(proc, &mesh, &dist, &b, &config)
        });
        let replay_dist = if partitioned {
            DimDist::custom(greedy_partition(&mesh, nprocs), nprocs)
        } else {
            DimDist::block(mesh.len(), nprocs)
        };
        let (seq_x, seq_history) = cg_sequential(&mesh, &b, &config, &replay_dist);
        for (s, n) in simulated.iter().zip(&native) {
            assert_eq!(
                bits(&s.residual_history),
                bits(&seq_history),
                "dmsim vs replay (partitioned = {partitioned})"
            );
            assert_eq!(
                bits(&n.residual_history),
                bits(&seq_history),
                "native vs replay (partitioned = {partitioned})"
            );
            assert_eq!(s.stats.reductions, n.stats.reductions);
            assert_eq!(
                (s.stats.cache.hits, s.stats.cache.misses),
                (n.stats.cache.hits, n.stats.cache.misses),
                "cache lifecycle must agree between backends"
            );
        }
        let sim_x = gather(
            &replay_dist,
            &simulated
                .iter()
                .map(|o| o.local_x.clone())
                .collect::<Vec<_>>(),
        );
        let nat_x = gather(
            &replay_dist,
            &native.iter().map(|o| o.local_x.clone()).collect::<Vec<_>>(),
        );
        assert_eq!(bits(&sim_x), bits(&nat_x));
        assert_eq!(bits(&sim_x), bits(&seq_x));
        if let Some(mp) = mp {
            for (rank, (history, _)) in mp.iter().enumerate() {
                assert_eq!(
                    bits(history),
                    bits(&seq_history),
                    "mp rank {rank} vs replay (partitioned = {partitioned})"
                );
            }
            let mp_x = gather(
                &replay_dist,
                &mp.into_iter().map(|(_, x)| x).collect::<Vec<_>>(),
            );
            assert_eq!(
                bits(&mp_x),
                bits(&seq_x),
                "mp solution vs replay (partitioned = {partitioned})"
            );
        }
    }
}

#[test]
fn redblack_field_and_change_history_are_bit_identical_across_backends() {
    // Two stripe loops (distinct ids, one session cache), change-norm
    // reductions fused into the half-sweeps: field and history must agree
    // bit for bit across dmsim, native and the sequential replay.
    use kali_repro::solvers::{redblack_sequential, redblack_sweeps, RedBlackConfig};

    let mesh = UnstructuredMeshBuilder::new(12, 10)
        .seed(47)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 31) % 29) as f64 * 0.15)
        .collect();
    let config = RedBlackConfig {
        sweeps: 10,
        check_every: Some(2),
        ..RedBlackConfig::default()
    };
    let nprocs = 4;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let mp = MpMachine::new(nprocs).run(
        "redblack_field_and_change_history_are_bit_identical_across_backends",
        |proc| {
            let dist = partitioned_dist(proc, &mesh);
            let outcome = redblack_sweeps(proc, &mesh, &dist, &initial, &config);
            (outcome.change_history, outcome.local_a)
        },
    );
    let simulated = Machine::new(nprocs, CostModel::ideal()).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        redblack_sweeps(proc, &mesh, &dist, &initial, &config)
    });
    let native = NativeMachine::new(nprocs).run(|proc| {
        let dist = partitioned_dist(proc, &mesh);
        redblack_sweeps(proc, &mesh, &dist, &initial, &config)
    });
    let replay_dist = DimDist::custom(greedy_partition(&mesh, nprocs), nprocs);
    let (seq_a, seq_history) = redblack_sequential(&mesh, &initial, &config, &replay_dist);

    for (rank, (s, n)) in simulated.iter().zip(&native).enumerate() {
        assert_eq!(bits(&s.change_history), bits(&seq_history), "rank {rank}");
        assert_eq!(bits(&n.change_history), bits(&seq_history), "rank {rank}");
        for o in [s, n] {
            assert_eq!(o.stats.loops_allocated, 2, "rank {rank}");
            assert_eq!(
                o.stats.cache.misses, 2,
                "rank {rank}: one inspector run per colour"
            );
            assert_eq!(o.stats.reductions, 2 * 5, "rank {rank}: two per check");
        }
    }
    let sim_a = gather(
        &replay_dist,
        &simulated
            .iter()
            .map(|o| o.local_a.clone())
            .collect::<Vec<_>>(),
    );
    let nat_a = gather(
        &replay_dist,
        &native.iter().map(|o| o.local_a.clone()).collect::<Vec<_>>(),
    );
    assert_eq!(bits(&sim_a), bits(&nat_a));
    assert_eq!(bits(&sim_a), bits(&seq_a));
    if let Some(mp) = mp {
        for (rank, (history, _)) in mp.iter().enumerate() {
            assert_eq!(bits(history), bits(&seq_history), "mp rank {rank}");
        }
        let mp_a = gather(
            &replay_dist,
            &mp.into_iter().map(|(_, a)| a).collect::<Vec<_>>(),
        );
        assert_eq!(bits(&mp_a), bits(&seq_a), "mp field vs replay");
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

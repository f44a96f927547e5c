//! Executor benchmarks: one relaxation sweep under the Kali run-time system
//! vs the hand-coded halo exchange (§1's "virtually identical" claim).
//!
//! Host wall-clock is what Criterion reports; the corresponding *simulated*
//! times appear in the table binaries.

use baseline::handcoded_jacobi;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distrib::DimDist;
use dmsim::{CostModel, Machine};
use kali_core::inspector::{owner_computes_iters, run_inspector};
use kali_core::{execute_sweep, CommSchedule, ExecutorConfig, Fetcher};
use kali_native::{NativeMachine, NativeProc};
use kali_process::Process;
use meshes::{RegularGrid, UnstructuredMeshBuilder};
use solvers::{jacobi_sweeps, JacobiConfig};

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_sweep");
    group.sample_size(10);
    let procs = 8usize;
    let grid = RegularGrid::square(64);
    let grid_mesh = grid.five_point_mesh();
    let grid_initial = grid.initial_field();
    let unstructured = UnstructuredMeshBuilder::new(64, 64).seed(11).build();
    let unstructured_initial: Vec<f64> = (0..unstructured.len()).map(|i| (i % 7) as f64).collect();

    for (name, mesh, initial) in [
        ("regular_grid_64x64", &grid_mesh, &grid_initial),
        ("unstructured_64x64", &unstructured, &unstructured_initial),
    ] {
        let machine = Machine::new(procs, CostModel::ncube7());
        group.bench_with_input(BenchmarkId::new("kali", name), &(), |b, _| {
            b.iter(|| {
                machine.run(|proc| {
                    let dist = DimDist::block(mesh.len(), proc.nprocs());
                    jacobi_sweeps(proc, mesh, &dist, initial, &JacobiConfig::with_sweeps(5))
                        .total_time
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("handcoded", name), &(), |b, _| {
            b.iter(|| machine.run(|proc| handcoded_jacobi(proc, mesh, initial, 5).total_time))
        });
    }
    group.finish();
}

/// One regime of [`bench_fetch`]: `SWEEPS` sweeps per sample of `body` over
/// `n` block-distributed elements on two native ranks.  The schedules are
/// planned from `refs_of` once, outside the timed region, and executed
/// `warm_ups` times there (two executions leave a translation memo behind);
/// `pad` extra elements are then appended to each rank's local storage.
fn bench_fetch_regime<B>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    n: usize,
    (warm_ups, pad): (usize, usize),
    refs_of: impl Fn(usize, &mut Vec<usize>) + Sync,
    body: B,
) where
    B: Fn(usize, &mut Fetcher<'_, f64, DimDist>) -> f64 + Sync,
{
    const SWEEPS: usize = 8;
    let machine = NativeMachine::new(2);
    let dist = DimDist::block(n, 2);
    let sweep = |proc: &mut NativeProc, s: usize, schedule: &CommSchedule, local: &[f64]| {
        let mut sum = 0.0;
        let config = ExecutorConfig::sweep(s);
        execute_sweep(
            proc,
            config,
            schedule,
            &dist,
            &dist,
            local,
            &body,
            |_, v| sum += v,
        );
        sum
    };
    // Per rank: its schedule, its local storage, its references per sweep.
    let ranks = machine.run(|proc| {
        let rank = proc.rank();
        let exec = owner_computes_iters(&dist, rank, n);
        let schedule = run_inspector(proc, &dist, &exec, &refs_of);
        let mut local: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
        for s in 0..warm_ups {
            sweep(proc, s, &schedule, &local);
        }
        local.resize(local.len() + pad, 0.0);
        let mut refs = Vec::new();
        exec.iter().for_each(|&i| refs_of(i, &mut refs));
        (schedule, local, refs.len())
    });
    let id = BenchmarkId::new(name, format!("{}_refs", SWEEPS * ranks[0].2));
    group.bench_with_input(id, &(), |b, _| {
        b.iter(|| {
            machine.run(|proc| {
                let (schedule, local, _) = &ranks[proc.rank()];
                (0..SWEEPS)
                    .map(|s| sweep(proc, s, schedule, local))
                    .sum::<f64>()
            })
        })
    });
}

/// What one `Fetcher::fetch` costs on a backend that does not meter, in the
/// three regimes of the translation path.  The id carries one rank's
/// reference count per sample, so time / refs is the cost per reference
/// (the two thread launches of a sample are under 1 % of it).
///
/// * `window_hits` — a three-point stencil over a block-distributed vector:
///   every reference but the two at a rank's edges hits its ordinal's window.
/// * `replay` — the neighbours of a scrambled mesh, about half of them
///   nonlocal, under a schedule executed twice already: every reference of
///   the nonlocal list is read off the translation memo.
/// * `misses` — the same mesh with the memo out of play, as on a schedule's
///   first execution: the references of the nonlocal list search.  (The
///   local storage is one element longer than the memo was learned under,
///   which turns the memo off without copying the schedule.)
fn bench_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fetch");
    group.sample_size(10);

    let n = 1 << 19;
    let (left, right) = (
        |i: usize| i.saturating_sub(1),
        |i: usize| (i + 1).min(n - 1),
    );
    bench_fetch_regime(
        &mut group,
        "window_hits",
        n,
        (0, 0),
        |i, refs| refs.extend([left(i), i, right(i)]),
        |i, fetch| fetch.fetch(left(i)) + fetch.fetch(i) + fetch.fetch(right(i)),
    );

    let mesh = UnstructuredMeshBuilder::new(256, 256)
        .seed(11)
        .scramble_numbering(true)
        .build();
    let neighbours = |i: usize| mesh.neighbors(i).iter().map(|&nb| nb as usize);
    for (name, memo) in [("replay", (2, 0)), ("misses", (2, 1))] {
        bench_fetch_regime(
            &mut group,
            name,
            mesh.len(),
            memo,
            |i, refs| refs.extend(neighbours(i)),
            |i, fetch| neighbours(i).map(|g| fetch.fetch(g)).sum(),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_executor, bench_fetch);
criterion_main!(benches);

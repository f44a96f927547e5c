//! One Criterion benchmark per paper table (Figures 7–10).
//!
//! These run scaled-down configurations (few sweeps, the exact extrapolation
//! described in `solvers::experiment`) so that `cargo bench` stays quick;
//! the full-size tables with the paper's parameters are produced by the
//! `tables` binary (`cargo run --release -p bench-tables --bin tables -- all`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmsim::CostModel;
use solvers::{run_jacobi_experiment, ExperimentParams};

fn row(cost: CostModel, nprocs: usize, mesh_side: usize, speedup: bool) -> ExperimentParams {
    ExperimentParams {
        cost,
        nprocs,
        mesh_side,
        sweeps: 100,
        compute_speedup: speedup,
        extrapolate_from: Some(2),
        disable_schedule_cache: false,
        convergence_check_every: None,
    }
}

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_tables");
    group.sample_size(10);

    // Figure 7 / Figure 8: processor sweeps at a fixed 128x128 mesh
    // (benchmarked at two representative processor counts each).
    for (name, cost, procs) in [
        ("fig7_ncube_procs", CostModel::ncube7(), vec![4usize, 32]),
        ("fig8_ipsc_procs", CostModel::ipsc2(), vec![4, 32]),
    ] {
        for &p in &procs {
            group.bench_with_input(BenchmarkId::new(name, p), &p, |b, &p| {
                b.iter(|| {
                    run_jacobi_experiment(&row(cost.clone(), p, 128, false))
                        .times
                        .total
                })
            });
        }
    }

    // Figure 9 / Figure 10: mesh-size sweeps at the paper's processor count
    // (benchmarked at two representative mesh sizes each).
    for (name, cost, procs) in [
        ("fig9_ncube_meshsize", CostModel::ncube7(), 128usize),
        ("fig10_ipsc_meshsize", CostModel::ipsc2(), 32usize),
    ] {
        for side in [64usize, 256] {
            group.bench_with_input(BenchmarkId::new(name, side), &side, |b, &side| {
                b.iter(|| {
                    run_jacobi_experiment(&row(cost.clone(), procs, side, true))
                        .speedup
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);

//! Ablation A2: crystal router vs naive direct all-to-all exchange.
//!
//! The paper uses "a variant of Fox's Crystal router" so that turning
//! receive lists into send lists does not create bottlenecks (§3.3).  This
//! bench measures host wall-clock of both exchanges on the simulator for a
//! boundary-exchange-like traffic pattern, and the simulated time each one
//! accrues is checked in the integration tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmsim::{collectives, CostModel, Machine, Process};

/// Traffic: every processor sends a small record to each of its two ring
/// neighbours (the shape of the inspector's record exchange for a block
/// distribution).
fn neighbour_items(rank: usize, nprocs: usize) -> Vec<(usize, (usize, usize))> {
    let left = (rank + nprocs - 1) % nprocs;
    let right = (rank + 1) % nprocs;
    vec![(left, (rank, 0)), (right, (rank, 1))]
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router");
    for &nprocs in &[8usize, 32] {
        let machine = Machine::new(nprocs, CostModel::ideal());
        group.bench_with_input(
            BenchmarkId::new("crystal_router", nprocs),
            &nprocs,
            |b, &n| {
                b.iter(|| {
                    machine.run(|proc| {
                        collectives::crystal_router(proc, neighbour_items(proc.rank(), n)).len()
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct_exchange", nprocs),
            &nprocs,
            |b, &n| {
                b.iter(|| {
                    machine.run(|proc| {
                        collectives::direct_exchange(proc, neighbour_items(proc.rank(), n)).len()
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);

//! Ablation A4: compile-time (closed-form) analysis vs the run-time
//! inspector for the same affine loop (§3.2).
//!
//! The compile-time path does interval algebra per processor; the inspector
//! touches every reference.  The gap grows linearly with the loop length.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use distrib::DimDist;
use dmsim::{CostModel, Machine, Process};
use kali_core::inspector::owner_computes_iters;
use kali_core::{run_inspector, AffineMap, IterSpace, Span};

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    for &n in &[4_096usize, 65_536] {
        let p = 8usize;
        // Compile-time closed form: pure local computation, measured on the
        // host without the simulator.
        let (space, dist) = (Span::upto(n - 1), DimDist::block(n, p));
        let refs = [AffineMap::shift(-1), AffineMap::shift(1)];
        group.bench_with_input(
            BenchmarkId::new("compile_time_closed_form", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut total = 0usize;
                    for rank in 0..p {
                        let s = black_box(&space).analyze(&dist, &dist, &refs, rank);
                        let s = s.expect("shifts have a closed form");
                        total += s.recv_len;
                    }
                    total
                })
            },
        );
        // Run-time inspector for the same references (per-element checking +
        // crystal-router exchange on the simulated machine).
        let machine = Machine::new(p, CostModel::ideal());
        group.bench_with_input(BenchmarkId::new("runtime_inspector", n), &n, |b, _| {
            b.iter(|| {
                machine.run(|proc| {
                    let dist = DimDist::block(n, proc.nprocs());
                    let exec = owner_computes_iters(&dist, proc.rank(), n - 1);
                    let s = run_inspector(proc, &dist, &exec, |i, refs| {
                        if i > 0 {
                            refs.push(i - 1);
                        }
                        refs.push(i + 1);
                    });
                    s.recv_len
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);

//! §3.2: compile-time analysis eliminates the run-time set computation when
//! closed forms exist.  Compares the cost of planning the Figure 1 shift
//! loop (affine subscripts) with the compile-time analyser vs the inspector.
use distrib::DimDist;
use dmsim::{CostModel, Machine};
use kali_core::{AffineMap, Session};

fn main() {
    let n = if bench_tables::quick_mode() {
        4_096
    } else {
        65_536
    };
    println!("\n=== Compile-time vs run-time analysis of the Figure 1 shift loop (N = {n}) ===");
    println!(
        "{:>10}  {:>6}  {:>24}  {:>24}",
        "machine", "procs", "compile-time plan (s)", "inspector plan (s)"
    );
    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        for procs in [4usize, 16, 64] {
            let machine = Machine::new(procs, cost.clone());
            // Compile-time path.
            let (ct, _) = machine.run_stats(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let mut session = Session::new();
                let loop_ = session.loop_1d(n - 1, dist.clone());
                let s = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
                assert!(s.recv_len <= 1);
                session.inspector_time()
            });
            // Run-time (inspector) path for the same references.
            let (rt, _) = machine.run_stats(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let mut session = Session::new();
                let loop_ = session.loop_1d(n - 1, dist.clone());
                let s = session.plan_indirect(proc, &loop_, &dist, |i, refs| {
                    refs.push(i + 1);
                });
                assert!(s.recv_len <= 1);
                session.inspector_time()
            });
            let ct_max = ct.iter().cloned().fold(0.0, f64::max);
            let rt_max = rt.iter().cloned().fold(0.0, f64::max);
            println!(
                "{:>10}  {:>6}  {:>24.4}  {:>24.4}",
                cost.name, procs, ct_max, rt_max
            );
        }
    }
    println!("(compile-time planning performs no per-element checks and no communication)");
}

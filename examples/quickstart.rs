//! Quickstart: the paper's Figure 1 in Rust.
//!
//! ```text
//! processors Procs: array [ 1..P ] with P in 1..max_procs;
//! var A : array[1..N] of real dist by [ block ] on Procs;
//! forall i in 1..N-1 on A[i].loc do
//!     A[i] := A[i+1];
//! end;
//! ```
//!
//! The loop body is written against the global name space; the library
//! derives the communication (each processor needs one halo element from its
//! right neighbour) with the compile-time analysis, executes the loop on a
//! simulated 8-processor hypercube, and prints what moved where.
//!
//! Run with: `cargo run --example quickstart`

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine, Process};
use kali_repro::kali::{AffineMap, Session};

fn main() {
    const N: usize = 64;
    const P: usize = 8;

    // A "real estate agent" (paper §2.1): an 8-processor machine with the
    // NCUBE/7 cost model, connected as a hypercube.
    let machine = Machine::new(P, CostModel::ncube7());
    println!(
        "machine: {} processors on a {:?}",
        machine.nprocs(),
        machine.topology()
    );

    let (results, stats) = machine.run_stats(|proc| {
        // var A : array[0..N) of real dist by [block];
        let dist = DimDist::block(N, proc.nprocs());
        let rank = proc.rank();
        let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();

        // forall i in 0..N-1 on A[i].loc do A[i] := A[i+1] end
        let mut session = Session::new();
        let shift = session.loop_1d(N - 1, dist.clone());
        let schedule = session.plan(proc, &shift, &dist, &[AffineMap::shift(1)]);

        let mut new_a = local_a.clone();
        // The body reads; the sink stores, on this rank's own thread.
        session.execute(
            proc,
            &shift,
            &schedule,
            &dist,
            &local_a,
            |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
            |_, (l, v)| new_a[l] = v,
        );

        (rank, schedule.recv_len, schedule.send_len(), new_a)
    });

    println!("\nper-processor communication derived by the compile-time analysis:");
    for (rank, recv, send, _) in &results {
        println!("  processor {rank}: receives {recv} element(s), sends {send} element(s)");
    }

    // Check the result against the sequential semantics.
    let dist = DimDist::block(N, P);
    let mut global = vec![0.0f64; N];
    for (rank, _, _, local) in &results {
        for (l, v) in local.iter().enumerate() {
            global[dist.global_index(*rank, l)] = *v;
        }
    }
    let ok = (0..N - 1).all(|i| global[i] == (i + 1) as f64) && global[N - 1] == (N - 1) as f64;
    println!("\nresult matches copy-in/copy-out semantics: {ok}");
    println!(
        "simulated time: {:.6} s, messages: {}, bytes: {}",
        stats.time, stats.totals.msgs_sent, stats.totals.bytes_sent
    );
}

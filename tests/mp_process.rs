//! Real-process smoke tests for the `kali-mp` backend.
//!
//! Every test here goes through [`MpMachine::run`]: the coordinator
//! re-executes this test binary once per rank, each worker process rebuilds
//! its inputs from scratch, connects the Unix-domain socket mesh, runs the
//! SPMD program, and ships its `Wire`-encoded result back over the control
//! socket.  Nothing is shared between ranks but bytes on sockets.

use kali_repro::meshes::RegularGrid;
use kali_repro::mp::MpMachine;
use kali_repro::process::Process;
use kali_repro::solvers::{Case, JacobiConfig, Placement, Program};

#[test]
fn ring_and_collectives_work_across_real_processes() {
    let nprocs = 3;
    let results =
        MpMachine::new(nprocs).run("ring_and_collectives_work_across_real_processes", |p| {
            let me = p.rank();
            let n = p.nprocs();
            // A ring: pass a token one hop and check provenance.
            p.send((me + 1) % n, 7, me as u64);
            let token: u64 = p.recv((me + n - 1) % n, 7);
            // Collectives over the same sockets.
            let gathered = p.allgather(vec![me as u64]);
            let sum = p.allreduce_sum_f64(0.1 * (me as f64 + 1.0));
            let wire = p.counters().wire_bytes;
            (token, gathered, sum, wire)
        });
    let results = results.expect("coordinator gets results");
    assert_eq!(results.len(), nprocs);
    let expected_sum = results[0].2;
    for (rank, (token, gathered, sum, wire)) in results.iter().enumerate() {
        assert_eq!(*token, ((rank + nprocs - 1) % nprocs) as u64, "ring hop");
        assert_eq!(
            *gathered,
            (0..nprocs).map(|r| vec![r as u64]).collect::<Vec<_>>()
        );
        assert_eq!(
            sum.to_bits(),
            expected_sum.to_bits(),
            "allreduce must be bitwise identical on every rank"
        );
        assert!(*wire > 0, "rank {rank}: real transport meters real bytes");
    }
}

#[test]
fn jacobi_on_real_processes_matches_the_sequential_reference() {
    let grid = RegularGrid::square(12);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let program = Program::Jacobi(JacobiConfig::with_sweeps(5));
    let case = Case::new(&mesh, Placement::Block, &initial);
    let nprocs = 4;
    // Each worker process rebuilt `mesh` and `initial` itself by re-running
    // this test body — the block placement is the only coordination, and it
    // is derived, not shared.  Every rank's `Run` comes back over the wire.
    let runs = MpMachine::new(nprocs).run(
        "jacobi_on_real_processes_matches_the_sequential_reference",
        |proc| program.run(proc, &case),
    );
    let runs = runs.expect("coordinator gets results");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&program.gather(&case, &runs)),
        bits(&program.replay(&case, nprocs).0),
        "real-process Jacobi vs sequential reference"
    );
}

#[test]
#[should_panic(expected = "mp worker rank 0 panicked: deliberate mp worker failure")]
fn a_worker_panic_is_reported_on_the_coordinator_with_rank_and_message() {
    // Rank 0 panics mid-run; the other ranks block receiving from it and
    // die on the closed sockets.  The coordinator must re-report rank 0's
    // own message — not a timeout, not a hang, not a sibling's EOF error.
    MpMachine::new(3).run(
        "a_worker_panic_is_reported_on_the_coordinator_with_rank_and_message",
        |p| {
            if p.rank() == 0 {
                panic!("deliberate mp worker failure");
            }
            let v: u64 = p.recv(0, 1);
            v
        },
    );
}

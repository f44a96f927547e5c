//! Cross-crate integration tests: numerical equivalence of the three
//! implementations (sequential, hand-coded message passing, Kali) and
//! distribution independence of the Kali program.

use kali_repro::baseline::handcoded_jacobi;
use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::meshes::{RegularGrid, UnstructuredMeshBuilder};
use kali_repro::solvers::{
    gather_global, jacobi_sequential, Case, JacobiConfig, Placement, Program,
};

mod common;
use common::{on_every_backend, ReversedBlock};

fn jacobi(sweeps: usize) -> Program {
    Program::Jacobi(JacobiConfig::with_sweeps(sweeps))
}

#[test]
fn kali_handcoded_and_sequential_agree_bitwise_on_the_paper_workload() {
    let grid = RegularGrid::square(24);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let sweeps = 12;
    let expected = jacobi_sequential(&mesh, &initial, sweeps);
    let case = Case::new(&mesh, Placement::Block, &initial);

    for nprocs in [2usize, 4, 8] {
        // Kali vs the sequential replay, on every backend.
        on_every_backend(
            "kali_handcoded_and_sequential_agree_bitwise_on_the_paper_workload",
            &jacobi(sweeps),
            &case,
            nprocs,
        );

        let machine = Machine::new(nprocs, CostModel::ideal());
        let hand = machine.run(|proc| handcoded_jacobi(proc, &mesh, &initial, sweeps).local_a);
        let hand = gather_global(&DimDist::block(mesh.len(), nprocs), &hand);
        assert_eq!(
            hand, expected,
            "hand-coded vs sequential, {nprocs} processors"
        );
    }
}

#[test]
fn kali_is_distribution_independent_on_an_unstructured_mesh() {
    // The same program text must produce the same answer under block,
    // cyclic, block-cyclic and user-defined distributions (paper §2.4).
    let mesh = UnstructuredMeshBuilder::new(14, 14).seed(3).build();
    let n = mesh.len();
    let initial: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64).collect();
    let p = 4;
    for dist in [
        DimDist::block(n, p),
        DimDist::cyclic(n, p),
        DimDist::block_cyclic(n, p, 5),
        DimDist::custom((0..n).map(|i| (i * 7 + 1) % p).collect(), p),
        DimDist::new(ReversedBlock::new(n, p)),
    ] {
        on_every_backend(
            "kali_is_distribution_independent_on_an_unstructured_mesh",
            &jacobi(6),
            &Case::new(&mesh, Placement::Dist(dist), &initial),
            p,
        );
    }
}

#[test]
fn kali_matches_handcoded_communication_volume_on_block_distribution() {
    // For the block-distributed grid both versions must move exactly the
    // same halo elements per sweep.
    let grid = RegularGrid::square(32);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let nprocs = 4;
    let sweeps = 3;

    let kali = on_every_backend(
        "kali_matches_handcoded_communication_volume_on_block_distribution",
        &jacobi(sweeps),
        &Case::new(&mesh, Placement::Block, &initial),
        nprocs,
    );
    let machine = Machine::new(nprocs, CostModel::ideal());
    let (hand_out, hand_stats) =
        machine.run_stats(|proc| handcoded_jacobi(proc, &mesh, &initial, sweeps));

    // Executor halo traffic: 6 boundary messages of 32 f64 per sweep.  A
    // block placement plans without set-up messages, so the runs' counters
    // are the whole program's traffic.
    let halo_bytes_per_sweep: u64 = 6 * 32 * 8;
    let kali_executor_bytes: u64 = kali.iter().map(|r| r.counters.bytes_sent).sum();
    assert!(kali_executor_bytes >= sweeps as u64 * halo_bytes_per_sweep);
    assert!(hand_stats.totals.bytes_sent >= sweeps as u64 * halo_bytes_per_sweep);
    // The Kali executor must not move more halo data than the hand-coded
    // version (the inspector's records add only metadata, exchanged once).
    let hand_total_bytes = hand_stats.totals.bytes_sent;
    // Allow for the one-time inspector record exchange (≤ 64 records of 48 B).
    assert!(
        kali_executor_bytes <= hand_total_bytes + 64 * 48,
        "kali moved {kali_executor_bytes} bytes, hand-coded {hand_total_bytes}"
    );
    // Ghost-region sizes must agree with the Kali schedules.
    assert_eq!(hand_out[1].ghost_elements, 64);
    assert_eq!(kali[1].count("recv_elements"), 64);
}

#[test]
fn single_processor_runs_need_no_communication() {
    let grid = RegularGrid::square(16);
    let (mesh, initial) = (grid.five_point_mesh(), grid.initial_field());
    let runs = on_every_backend(
        "single_processor_runs_need_no_communication",
        &jacobi(5),
        &Case::new(&mesh, Placement::Block, &initial),
        1,
    );
    assert_eq!(runs[0].counters.msgs_sent, 0);
    assert_eq!(runs[0].count("recv_elements"), 0);
}

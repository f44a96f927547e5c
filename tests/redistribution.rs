//! Integration test for the redistribution extension: switch the live
//! solution array between distributions mid-computation and keep getting the
//! sequential answer.

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine, Process};
use kali_repro::kali::Session;
use kali_repro::meshes::RegularGrid;
use kali_repro::solvers::{gather_global, jacobi_sequential, jacobi_sweeps, JacobiConfig};

#[test]
fn jacobi_survives_a_mid_run_redistribution() {
    let grid = RegularGrid::square(20);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let nprocs = 4;
    let expected = jacobi_sequential(&mesh, &initial, 8);

    let machine = Machine::new(nprocs, CostModel::ideal());
    let results = machine.run(|proc| {
        let block = DimDist::block(mesh.len(), proc.nprocs());
        let cyclic = DimDist::cyclic(mesh.len(), proc.nprocs());

        // Phase 1: four sweeps under the block distribution.
        let phase1 = jacobi_sweeps(proc, &mesh, &block, &initial, &JacobiConfig::with_sweeps(4));

        // Redistribute the live solution to a cyclic distribution…
        let cyclic_local = Session::new().redistribute(proc, &block, &cyclic, &phase1.local_a);

        // …reassemble a globally replicated field for the next phase's
        // set-up (jacobi_sweeps scatters from a replicated initial field).
        let flat: Vec<(usize, f64)> = cyclic
            .local_set(proc.rank())
            .iter()
            .zip(cyclic_local.iter())
            .map(|(g, &v)| (g, v))
            .collect();
        let all = Process::allgather(proc, flat);
        let mut mid = vec![0.0f64; mesh.len()];
        for piece in all {
            for (g, v) in piece {
                mid[g] = v;
            }
        }

        // Phase 2: four more sweeps under the cyclic distribution.
        let phase2 = jacobi_sweeps(proc, &mesh, &cyclic, &mid, &JacobiConfig::with_sweeps(4));
        phase2.local_a
    });

    let cyclic = DimDist::cyclic(mesh.len(), nprocs);
    assert_eq!(gather_global(&cyclic, &results), expected);
}

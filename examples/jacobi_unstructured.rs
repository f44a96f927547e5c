//! The paper's Figure 4 workload on a genuinely unstructured mesh.
//!
//! The reference `old_a[adj[i, j]]` depends on the run-time `adj` array, so
//! the compiler cannot derive the communication — the run-time inspector
//! does (once), its schedule is cached, and the executor reuses it for every
//! sweep.  This example prints the inspector/executor breakdown on both of
//! the paper's machines plus the communication statistics, and verifies the
//! result against a sequential run.
//!
//! Run with: `cargo run --release --example jacobi_unstructured`

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine, Process};
use kali_repro::meshes::UnstructuredMeshBuilder;
use kali_repro::solvers::{jacobi_sequential, jacobi_sweeps, JacobiConfig};

fn main() {
    // A 96x96-point unstructured mesh (average degree ~6, scrambled node
    // numbering so nonlocal references are scattered).
    let mesh = UnstructuredMeshBuilder::new(96, 96)
        .seed(1990)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 37) % 101) as f64 / 101.0)
        .collect();
    let sweeps = 25;
    println!(
        "mesh: {} nodes, {} directed edges, average degree {:.2}",
        mesh.len(),
        mesh.edge_count(),
        mesh.average_degree()
    );

    let expected = jacobi_sequential(&mesh, &initial, sweeps);

    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        for nprocs in [4usize, 16] {
            let machine = Machine::new(nprocs, cost.clone());
            let config = JacobiConfig {
                sweeps,
                convergence_check_every: Some(5),
                ..JacobiConfig::default()
            };
            let (outcomes, stats) = machine.run_stats(|proc| {
                let dist = DimDist::block(mesh.len(), proc.nprocs());
                jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            });

            // Verify against the sequential reference.
            let dist = DimDist::block(mesh.len(), nprocs);
            let mut global = vec![0.0f64; mesh.len()];
            for (rank, o) in outcomes.iter().enumerate() {
                for (l, v) in o.local_a.iter().enumerate() {
                    global[dist.global_index(rank, l)] = *v;
                }
            }
            let correct = global == expected;

            let total = outcomes.iter().map(|o| o.total_time).fold(0.0, f64::max);
            let inspector = outcomes
                .iter()
                .map(|o| o.inspector_time)
                .fold(0.0, f64::max);
            let ghosts: usize = outcomes.iter().map(|o| o.recv_elements).sum();
            let ranges: usize = outcomes.iter().map(|o| o.schedule_ranges).sum();
            println!(
                "\n{:>8} x{:>3} procs | total {:8.2} s | inspector {:6.3} s ({:4.1}%) | \
                 ghost elements/sweep {:5} | schedule ranges {:4} | msgs {:6} | correct: {}",
                cost.name,
                nprocs,
                total,
                inspector,
                inspector / total * 100.0,
                ghosts,
                ranges,
                stats.totals.msgs_sent,
                correct
            );
        }
    }
    println!("\n(The scrambled numbering fragments the receive sets into many ranges —");
    println!(" exactly the situation the paper's sorted range records are designed for.)");
}

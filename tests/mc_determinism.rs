//! Delivery-order determinism: the wildcard-delivery policy of the dmsim
//! engine is a **schedule perturbation, not a semantics knob**.
//!
//! The runtime's correctness argument says every solve is determinate: the
//! planned schedules pair every send with exactly one receive, reductions
//! combine in a fixed tree order, and wildcard receives only ever drain a
//! set of messages whose processing order cannot reach the numerics.  The
//! model checker's re-execution leg tests exactly that claim: a solve under
//! an adversarial or randomly shuffled delivery order must be **bitwise**
//! identical — fields, reduction histories, structural counts — to the FIFO
//! baseline, and the native backend (whose thread interleavings are a
//! physical delivery perturbation) must agree too.
//!
//! The property test drives random `Shuffle(seed)` orders across every
//! solver × distribution × rank-count combination; the fixed test pins the
//! named adversarial policies (LIFO, systematic rotation) on every solver.
//! Both iterate the registry's mesh programs (`Program::mesh_suite`), the
//! same four `mc_all` sweeps.

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, DeliveryPolicy, Machine};
use kali_repro::meshes::{greedy_partition, AdjacencyMesh, UnstructuredMeshBuilder};
use kali_repro::native::NativeMachine;
use kali_repro::solvers::{Case, Placement, Program};

/// The mesh programs, four steps each: what every run below fingerprints
/// is [`Run::bits`](kali_repro::solvers::Run::bits) — field values,
/// reduction histories and structural counts.  Clocks, simulated cost
/// counters and the queue high-water mark are excluded — those may legally
/// move when deliveries are reordered or the backend changes.
fn programs() -> [Program; 4] {
    Program::mesh_suite(4)
}

fn test_mesh(seed: u64) -> AdjacencyMesh {
    UnstructuredMeshBuilder::new(8, 8)
        .seed(seed)
        .scramble_numbering(true)
        .build()
}

fn input_field(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect()
}

#[test]
fn adversarial_policies_replay_the_fifo_baseline_on_every_solver() {
    let nprocs = 4;
    let mesh = test_mesh(1990);
    let field = input_field(mesh.len());
    let dist = DimDist::custom(greedy_partition(&mesh, nprocs), nprocs);
    let case = Case::new(&mesh, Placement::Dist(dist), &field);
    for program in programs() {
        let base =
            Machine::new(nprocs, CostModel::ideal()).run(|proc| program.run(proc, &case).bits());
        for policy in [
            DeliveryPolicy::Lifo,
            DeliveryPolicy::Shuffle(0xA5),
            DeliveryPolicy::Systematic(1),
        ] {
            let run = Machine::new(nprocs, CostModel::ideal())
                .with_delivery(policy)
                .run(|proc| program.run(proc, &case).bits());
            let name = program.name();
            assert_eq!(run, base, "{name} under {policy:?} diverged from FIFO");
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Any shuffled wildcard-delivery order, on any solver, under any
        /// distribution kind and rank count: the solve is bitwise identical
        /// to the FIFO baseline, and the native backend agrees.
        #[test]
        fn any_shuffled_delivery_replays_the_fifo_baseline_bitwise(
            seed in 1u64..10_000,
            solver_idx in 0usize..4,
            dist_idx in 0usize..4,
            procs_idx in 0usize..2,
        ) {
            let nprocs = [2usize, 4][procs_idx];
            let program = programs()[solver_idx];
            let mesh = test_mesh(1 + seed % 7);
            let field = input_field(mesh.len());
            let n = mesh.len();
            let dist = [
                DimDist::block(n, nprocs),
                DimDist::cyclic(n, nprocs),
                DimDist::block_cyclic(n, nprocs, 3),
                DimDist::custom(greedy_partition(&mesh, nprocs), nprocs),
            ][dist_idx]
                .clone();
            let case = Case::new(&mesh, Placement::Dist(dist), &field);
            let fingerprint = |proc: &mut _| program.run(proc, &case).bits();

            let base = Machine::new(nprocs, CostModel::ideal()).run(fingerprint);
            let shuffled = Machine::new(nprocs, CostModel::ideal())
                .with_delivery(DeliveryPolicy::Shuffle(seed))
                .run(fingerprint);
            prop_assert_eq!(&shuffled, &base);

            let native = NativeMachine::new(nprocs).run(|proc| program.run(proc, &case).bits());
            prop_assert_eq!(&native, &base);
        }
    }
}

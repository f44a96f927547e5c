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

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, DeliveryPolicy, Machine};
use kali_repro::meshes::{self, AdjacencyMesh, UnstructuredMeshBuilder};
use kali_repro::native::NativeMachine;
use kali_repro::process::Process;
use kali_repro::solvers::{
    cg_solve, jacobi_sweeps, redblack_sweeps, CgConfig, JacobiConfig, RedBlackConfig,
};

const SOLVERS: [&str; 4] = ["jacobi", "adaptive", "cg", "red-black"];
const DISTS: [&str; 4] = ["block", "cyclic", "block-cyclic", "irregular"];

fn test_mesh(seed: u64) -> AdjacencyMesh {
    UnstructuredMeshBuilder::new(8, 8)
        .seed(seed)
        .scramble_numbering(true)
        .build()
}

fn make_dist(mesh: &AdjacencyMesh, kind: &str, nprocs: usize) -> DimDist {
    let n = mesh.len();
    match kind {
        "block" => DimDist::block(n, nprocs),
        "cyclic" => DimDist::cyclic(n, nprocs),
        "block-cyclic" => DimDist::block_cyclic(n, nprocs, 3),
        "irregular" => DimDist::custom(meshes::greedy_partition(mesh, nprocs), nprocs),
        other => panic!("unknown distribution kind {other}"),
    }
}

/// Run one solver and reduce its outcome to the delivery-order-invariant
/// fingerprint the determinism contract pins bitwise on every backend:
/// field values, reduction histories and structural counts.  Clocks,
/// simulated cost counters and the queue high-water mark are excluded —
/// those may legally move when deliveries are reordered or the backend
/// changes.
fn fingerprint<P: Process>(
    proc: &mut P,
    solver: &str,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    field: &[f64],
) -> Vec<u64> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match solver {
        "jacobi" => {
            let config = JacobiConfig {
                sweeps: 4,
                convergence_check_every: Some(1),
                workers: Some(2),
                chunk: Some(8),
                ..JacobiConfig::default()
            };
            let o = jacobi_sweeps(proc, mesh, dist, field, &config);
            let mut fp = bits(&o.local_a);
            fp.extend(bits(&o.change_history));
            fp.extend([o.reductions, o.recv_elements as u64, o.recv_partners as u64]);
            fp
        }
        "adaptive" => {
            let config = JacobiConfig {
                sweeps: 4,
                adapt_every: Some(2),
                rebalance: true,
                cache_capacity: 4,
                ..JacobiConfig::default()
            };
            let o = jacobi_sweeps(proc, mesh, dist, field, &config);
            let mut fp = bits(&o.local_a);
            fp.extend([o.adaptations, o.cache_hits, o.cache_misses]);
            fp
        }
        "cg" => {
            let config = CgConfig::with_iters(4);
            let o = cg_solve(proc, mesh, dist, field, &config);
            let mut fp = bits(&o.local_x);
            fp.extend(bits(&o.residual_history));
            fp.extend([o.iterations as u64, o.stats.reductions]);
            fp
        }
        "red-black" => {
            let config = RedBlackConfig {
                sweeps: 4,
                check_every: Some(1),
                ..RedBlackConfig::default()
            };
            let o = redblack_sweeps(proc, mesh, dist, field, &config);
            let mut fp = bits(&o.local_a);
            fp.extend(bits(&o.change_history));
            fp.extend([
                o.stats.reductions,
                o.red_recv_elements as u64,
                o.black_recv_elements as u64,
            ]);
            fp
        }
        other => panic!("unknown solver {other}"),
    }
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
    for solver in SOLVERS {
        let dist = make_dist(&mesh, "irregular", nprocs);
        let base = Machine::new(nprocs, CostModel::ideal())
            .run(|proc| fingerprint(proc, solver, &mesh, &dist, &field));
        for policy in [
            DeliveryPolicy::Lifo,
            DeliveryPolicy::Shuffle(0xA5),
            DeliveryPolicy::Systematic(1),
        ] {
            let run = Machine::new(nprocs, CostModel::ideal())
                .with_delivery(policy)
                .run(|proc| fingerprint(proc, solver, &mesh, &dist, &field));
            assert_eq!(run, base, "{solver} under {policy:?} diverged from FIFO");
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
            solver_idx in 0usize..SOLVERS.len(),
            dist_idx in 0usize..DISTS.len(),
            procs_idx in 0usize..2,
        ) {
            let nprocs = [2usize, 4][procs_idx];
            let solver = SOLVERS[solver_idx];
            let mesh = test_mesh(1 + seed % 7);
            let field = input_field(mesh.len());
            let dist = make_dist(&mesh, DISTS[dist_idx], nprocs);

            let base = Machine::new(nprocs, CostModel::ideal())
                .run(|proc| fingerprint(proc, solver, &mesh, &dist, &field));
            let shuffled = Machine::new(nprocs, CostModel::ideal())
                .with_delivery(DeliveryPolicy::Shuffle(seed))
                .run(|proc| fingerprint(proc, solver, &mesh, &dist, &field));
            prop_assert_eq!(&shuffled, &base);

            let native = NativeMachine::new(nprocs)
                .run(|proc| fingerprint(proc, solver, &mesh, &dist, &field));
            prop_assert_eq!(&native, &base);
        }
    }
}

//! Reduction determinism: `execute_reduce` is **order-fixed**.
//!
//! The typed reduction pipeline promises one combining order everywhere —
//! per-rank folds in ascending iteration order, cross-rank combining with
//! the fixed binomial-tree bracketing — so a reduction's value is bitwise identical
//! across the dmsim simulator, the native threaded backend, the `kali-mp`
//! multi-process socket backend (real OS processes; every partial crosses a
//! socket through the `Wire` codec), and a sequential replay folding the
//! same partial structure.  These tests pin
//! that promise down with rounding-sensitive `f64` sums (values for which a
//! different fold order provably rounds differently) over block, cyclic,
//! block-cyclic and irregular placements, and check that reduction traffic
//! is metered: counts and bytes surface in the solvers' `CommReport`.

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::{AffineMap, Max, Min, Norm2, Process, Reduce, ReduceOp, Session, Sum};
use kali_repro::mp::MpMachine;
use kali_repro::native::NativeMachine;
use kali_repro::solvers::{replay_reduce, replay_sum};

/// One planned reduce sweep over `dist`: every rank contributes `v[i]` for
/// its owned `i`, reduced under `R`.  The canonical "loop whose value is a
/// reduction" program, runnable on any backend.
fn reduce_on<P: Process, R: ReduceOp<Input = f64, Acc = f64>>(
    proc: &mut P,
    dist: &DimDist,
    v: &[f64],
    op: Reduce<R>,
) -> f64 {
    reduce_in(Session::new(), proc, dist, v, op)
}

/// [`reduce_on`] in a session the caller has set up.  The loop has no value
/// besides its reduction: `V = ()`, and the sink has nothing to store.
fn reduce_in<P: Process, R: ReduceOp<Input = f64, Acc = f64>>(
    mut session: Session,
    proc: &mut P,
    dist: &DimDist,
    v: &[f64],
    _op: Reduce<R>,
) -> f64 {
    let loop_ = session.loop_1d(dist.n(), dist.clone());
    let schedule = session.plan(proc, &loop_, dist, &[AffineMap::identity()]);
    let local: Vec<f64> = dist.local_set(proc.rank()).iter().map(|g| v[g]).collect();
    session.execute_reduce(
        proc,
        &loop_,
        &schedule,
        dist,
        &local,
        Reduce::<R>::new(),
        |i, fetch| ((), fetch.fetch(i)),
        |_, ()| {},
    )
}

/// Rounding-sensitive values: different fold orders round differently.
fn sensitive_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.1 * (i as f64 + 1.0)).collect()
}

fn distributions(n: usize, p: usize) -> Vec<(&'static str, DimDist)> {
    vec![
        ("block", DimDist::block(n, p)),
        ("cyclic", DimDist::cyclic(n, p)),
        ("block-cyclic", DimDist::block_cyclic(n, p, 3)),
        (
            "irregular",
            DimDist::custom((0..n).map(|i| (i * 7 + 3) % p).collect(), p),
        ),
    ]
}

#[test]
fn f64_sums_are_bitwise_identical_across_backends_and_replay() {
    let n = 67;
    let v = sensitive_values(n);
    for nprocs in [1usize, 2, 4] {
        for (name, dist) in distributions(n, nprocs) {
            // Real OS processes first: in a re-executed worker, `run` is the
            // exit point; each worker rebuilds `dist` deterministically.
            let mp = MpMachine::new(nprocs).run(
                "f64_sums_are_bitwise_identical_across_backends_and_replay",
                |proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()),
            );
            let simulated = Machine::new(nprocs, CostModel::ideal())
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            let native = NativeMachine::new(nprocs)
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            let replayed = replay_sum(&dist, |i| v[i]);
            for (rank, (s, nv)) in simulated.iter().zip(&native).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    replayed.to_bits(),
                    "{name} on {nprocs} procs: dmsim rank {rank} vs replay"
                );
                assert_eq!(
                    nv.to_bits(),
                    replayed.to_bits(),
                    "{name} on {nprocs} procs: native rank {rank} vs replay"
                );
            }
            if let Some(mp) = mp {
                for (rank, m) in mp.iter().enumerate() {
                    assert_eq!(
                        m.to_bits(),
                        replayed.to_bits(),
                        "{name} on {nprocs} procs: mp rank {rank} vs replay"
                    );
                }
            }
        }
    }
}

#[test]
fn a_value_less_reduction_replays_bitwise_at_every_worker_count_and_chunk_size() {
    // Inline (one worker) the unit values go straight to the sink, on the
    // pool they wait in per-chunk buffers; the contributions fold in
    // ascending iteration order either way.
    let n = 67;
    let v = sensitive_values(n);
    let nprocs = 4;
    for (name, dist) in distributions(n, nprocs) {
        let replayed = replay_sum(&dist, |i| v[i]);
        for workers in [1usize, 4] {
            for chunk in [1usize, 3, 0] {
                let sums = Machine::new(nprocs, CostModel::ideal()).run(|proc| {
                    let mut session = Session::new().with_workers(workers);
                    session.set_chunk_size(chunk);
                    reduce_in(session, proc, &dist, &v, Reduce::<Sum<f64>>::new())
                });
                for (rank, sum) in sums.iter().enumerate() {
                    assert_eq!(
                        sum.to_bits(),
                        replayed.to_bits(),
                        "{name}: rank {rank} at workers={workers} chunk={chunk} vs replay"
                    );
                }
            }
        }
    }
}

#[test]
fn min_max_and_norm2_agree_across_backends_and_replay() {
    let n = 41;
    let v: Vec<f64> = (0..n)
        .map(|i| (((i * 37) % 19) as f64 - 9.0) * 0.37)
        .collect();
    let nprocs = 4;
    let dist = DimDist::cyclic(n, nprocs);

    let mp_norm = MpMachine::new(nprocs).run(
        "min_max_and_norm2_agree_across_backends_and_replay",
        |proc| reduce_on(proc, &dist, &v, Reduce::<Norm2>::new()),
    );
    let sim_min = Machine::new(nprocs, CostModel::ideal())
        .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Min<f64>>::new()));
    let nat_max = NativeMachine::new(nprocs)
        .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Max<f64>>::new()));
    let sim_norm = Machine::new(nprocs, CostModel::ideal())
        .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Norm2>::new()));

    let min_replay = replay_reduce::<Min<f64>, _, _>(&dist, |i| v[i]);
    let max_replay = replay_reduce::<Max<f64>, _, _>(&dist, |i| v[i]);
    let norm_replay = replay_reduce::<Norm2, _, _>(&dist, |i| v[i]);
    assert!(sim_min.iter().all(|m| m.to_bits() == min_replay.to_bits()));
    assert!(nat_max.iter().all(|m| m.to_bits() == max_replay.to_bits()));
    assert!(sim_norm
        .iter()
        .all(|m| m.to_bits() == norm_replay.to_bits()));
    if let Some(mp_norm) = mp_norm {
        assert!(mp_norm.iter().all(|m| m.to_bits() == norm_replay.to_bits()));
    }
    // Sanity against the plain definitions (order-insensitive for min/max).
    let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(min_replay, lo);
    assert_eq!(max_replay, hi);
    assert!((norm_replay - v.iter().map(|x| x * x).sum::<f64>().sqrt()).abs() < 1e-12);
}

#[test]
fn the_fold_order_is_the_contract_not_an_accident() {
    // Under a cyclic placement the deterministic order differs from the
    // plain global-order sum — and the backends still agree with the
    // replay, proving they follow the contract rather than coincidence.
    let n = 24;
    let v = sensitive_values(n);
    let nprocs = 4;
    let dist = DimDist::cyclic(n, nprocs);
    let global: f64 = v.iter().sum();
    let replayed = replay_sum(&dist, |i| v[i]);
    assert_ne!(replayed.to_bits(), global.to_bits());
    let simulated = Machine::new(nprocs, CostModel::ideal())
        .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
    assert!(simulated.iter().all(|s| s.to_bits() == replayed.to_bits()));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_case() -> impl Strategy<Value = (DimDist, Vec<f64>)> {
        (16usize..80, 1usize..6, 0usize..4, 1u64..100).prop_map(|(n, p, kind, seed)| {
            let dist = match kind {
                0 => DimDist::block(n, p),
                1 => DimDist::cyclic(n, p),
                2 => DimDist::block_cyclic(n, p, 3),
                _ => DimDist::custom((0..n).map(|i| (i * 7 + 3) % p).collect(), p),
            };
            let v: Vec<f64> = (0..n)
                .map(|i| 0.1 * seed as f64 * (i as f64 + 1.0) - 0.37 * ((i % 7) as f64))
                .collect();
            (dist, v)
        })
    }

    /// Ragged and power-of-two rank counts for the tree-bracketing
    /// property: the binomial tree looks different at each of these.
    fn arb_tree_case() -> impl Strategy<Value = (DimDist, Vec<f64>)> {
        (16usize..80, 0usize..5, 0usize..4, 1u64..100).prop_map(|(n, p_pick, kind, seed)| {
            let p = [2usize, 3, 4, 7, 8][p_pick];
            let dist = match kind {
                0 => DimDist::block(n, p),
                1 => DimDist::cyclic(n, p),
                2 => DimDist::block_cyclic(n, p, 3),
                _ => DimDist::custom((0..n).map(|i| (i * 7 + 3) % p).collect(), p),
            };
            let v: Vec<f64> = (0..n)
                .map(|i| 0.1 * seed as f64 * (i as f64 + 1.0) - 0.37 * ((i % 7) as f64))
                .collect();
            (dist, v)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any placement, any rounding-sensitive values: dmsim, native and
        /// the sequential replay produce the same bits.
        #[test]
        fn random_cases_stay_bitwise_identical(case in arb_case()) {
            let (dist, v) = case;
            let nprocs = dist.nprocs();
            let replayed = replay_sum(&dist, |i| v[i]);
            let simulated = Machine::new(nprocs, CostModel::ideal())
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            let native = NativeMachine::new(nprocs)
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            for s in simulated.iter().chain(&native) {
                prop_assert_eq!(s.to_bits(), replayed.to_bits());
            }
        }

        /// Tree-allreduce determinism at P ∈ {2,3,4,7,8}: the binomial
        /// bracketing (ragged trees included) gives bitwise-identical
        /// rounding-sensitive f64 sums on dmsim, native and the sequential
        /// replay, which folds partials with `tree_combine_partials`.
        #[test]
        fn tree_allreduce_is_bitwise_identical_at_ragged_rank_counts(case in arb_tree_case()) {
            let (dist, v) = case;
            let nprocs = dist.nprocs();
            let replayed = replay_sum(&dist, |i| v[i]);
            let simulated = Machine::new(nprocs, CostModel::ideal())
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            let native = NativeMachine::new(nprocs)
                .run(|proc| reduce_on(proc, &dist, &v, Reduce::<Sum<f64>>::new()));
            for s in simulated.iter().chain(&native) {
                prop_assert_eq!(s.to_bits(), replayed.to_bits());
            }
        }
    }
}

#[test]
fn reduction_messages_and_bytes_surface_in_the_comm_report() {
    use kali_repro::dmsim::CostModel;
    use kali_repro::solvers::{run_jacobi_experiment, ExperimentParams};

    let nprocs = 4;
    let sweeps = 8;
    let base = ExperimentParams {
        cost: CostModel::ncube7(),
        nprocs,
        mesh_side: 12,
        sweeps,
        compute_speedup: false,
        extrapolate_from: None,
        disable_schedule_cache: false,
        convergence_check_every: None,
    };
    let quiet = run_jacobi_experiment(&base);
    assert_eq!(quiet.comm.reductions, 0);
    assert_eq!(quiet.comm.reduction_bytes, 0);
    assert_eq!(quiet.final_change, None);

    let checked = run_jacobi_experiment(&ExperimentParams {
        convergence_check_every: Some(2),
        ..base
    });
    let reductions_performed = (sweeps / 2) as u64;
    let reductions_machine = reductions_performed * nprocs as u64;
    assert_eq!(checked.comm.reductions, reductions_machine);
    // The tree's 2(P−1) messages of 8 bytes per reduction, summed over the
    // per-rank shares the session meters.
    assert_eq!(
        checked.comm.reduction_bytes,
        reductions_performed * 2 * (nprocs as u64 - 1) * 8
    );
    assert!(checked.final_change.is_some());
    // The collective's traffic is real: it shows up in the machine-wide
    // message counters, exactly 2(P−1) messages per reduction — at most
    // 2(P−1), never the flat allgather-fold's P·(P−1).
    let extra_msgs = checked.comm.messages - quiet.comm.messages;
    assert_eq!(extra_msgs, reductions_performed * 2 * (nprocs as u64 - 1));
    assert!(
        extra_msgs / reductions_performed <= 2 * (nprocs as u64 - 1),
        "per-reduction messages must be <= 2(P-1)"
    );
    // The reduce columns render in the report line.
    assert!(kali_repro::solvers::CommReport::table_header().contains("reduce"));
    assert!(checked
        .comm
        .to_table_line()
        .contains(&reductions_machine.to_string()));
}

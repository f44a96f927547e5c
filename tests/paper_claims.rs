//! Integration tests that pin the *shape* claims of the paper's evaluation
//! (§4) at reduced scale, so `cargo test` exercises the same trends the full
//! table binaries reproduce.

use kali_repro::dmsim::CostModel;
use kali_repro::solvers::{run_jacobi_experiment, ExperimentParams};

fn row(cost: CostModel, nprocs: usize, mesh_side: usize, sweeps: usize) -> ExperimentParams {
    ExperimentParams {
        cost,
        nprocs,
        mesh_side,
        sweeps,
        compute_speedup: true,
        extrapolate_from: Some(2),
        disable_schedule_cache: false,
        convergence_check_every: None,
    }
}

#[test]
fn simulated_times_are_deterministic_across_runs() {
    let params = row(CostModel::ncube7(), 8, 32, 20);
    let a = run_jacobi_experiment(&params);
    let b = run_jacobi_experiment(&params);
    assert_eq!(a.times.total.to_bits(), b.times.total.to_bits());
    assert_eq!(a.times.inspector.to_bits(), b.times.inspector.to_bits());
    // Every report field is a simulated quantity: the queue high-water
    // mark, a thread-scheduling observation, is no longer one of them.
    assert_eq!(a.comm, b.comm);
}

#[test]
fn inspector_overhead_is_small_at_100_sweeps_and_large_at_1_sweep() {
    // Figure 7 / §4: at 100 sweeps the NCUBE/7 inspector overhead stays
    // modest; with a single sweep it dominates (paper: 45–93 %).
    let hundred = run_jacobi_experiment(&row(CostModel::ncube7(), 16, 64, 100));
    assert!(
        hundred.times.inspector_overhead() < 0.15,
        "overhead at 100 sweeps = {:.3}",
        hundred.times.inspector_overhead()
    );
    let single = run_jacobi_experiment(&ExperimentParams {
        extrapolate_from: None,
        ..row(CostModel::ncube7(), 16, 64, 1)
    });
    assert!(
        single.times.inspector_overhead() > 0.30,
        "single-sweep overhead = {:.3}",
        single.times.inspector_overhead()
    );
    // iPSC/2: overhead below ~1–2 % at 100 sweeps (paper: < 1 %).
    let ipsc = run_jacobi_experiment(&row(CostModel::ipsc2(), 16, 64, 100));
    assert!(
        ipsc.times.inspector_overhead() < 0.03,
        "iPSC overhead = {:.4}",
        ipsc.times.inspector_overhead()
    );
}

#[test]
fn ncube_inspector_time_is_u_shaped_in_processor_count() {
    // §4: "the time for the inspector starts high, decreases to a minimum
    // [near] 16 processors, and then increases slowly."
    let inspector = |p: usize| {
        run_jacobi_experiment(&row(CostModel::ncube7(), p, 128, 100))
            .times
            .inspector
    };
    let at2 = inspector(2);
    let at16 = inspector(16);
    let at64 = inspector(64);
    assert!(at2 > at16, "inspector(2) = {at2}, inspector(16) = {at16}");
    assert!(
        at64 > at16,
        "inspector(64) = {at64}, inspector(16) = {at16}"
    );
}

#[test]
fn ipsc_inspector_time_decreases_monotonically_to_32_processors() {
    // §4: "This behavior is not seen [on the iPSC] because the
    // locality-checking loop always dominates."
    let mut prev = f64::INFINITY;
    for p in [2usize, 4, 8, 16, 32] {
        let t = run_jacobi_experiment(&row(CostModel::ipsc2(), p, 128, 100))
            .times
            .inspector;
        assert!(
            t < prev,
            "iPSC inspector time rose at {p} processors: {t} >= {prev}"
        );
        prev = t;
    }
}

#[test]
fn executor_time_scales_close_to_linearly_on_both_machines() {
    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        let t4 = run_jacobi_experiment(&row(cost.clone(), 4, 64, 100))
            .times
            .executor;
        let t16 = run_jacobi_experiment(&row(cost.clone(), 16, 64, 100))
            .times
            .executor;
        let ratio = t4 / t16;
        assert!(
            ratio > 3.0 && ratio < 4.6,
            "{}: 4->16 processor executor ratio = {ratio:.2} (expected ≈ 4)",
            cost.name
        );
    }
}

#[test]
fn speedup_grows_with_problem_size() {
    // Figures 9 and 10: at a fixed processor count, larger meshes get closer
    // to ideal speedup.
    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        let p = 16usize;
        let small = run_jacobi_experiment(&row(cost.clone(), p, 32, 100))
            .speedup
            .unwrap();
        let large = run_jacobi_experiment(&row(cost.clone(), p, 128, 100))
            .speedup
            .unwrap();
        assert!(
            large > small,
            "{}: speedup should grow with mesh size ({small:.1} -> {large:.1})",
            cost.name
        );
        assert!(
            large <= p as f64 + 0.1,
            "{}: speedup {large} exceeds P",
            cost.name
        );
    }
}

#[test]
fn ncube_overhead_exceeds_ipsc_overhead_at_every_processor_count() {
    // The paper's central machine comparison: the NCUBE/7's expensive calls
    // and messages make the run-time analysis visible, the iPSC/2's do not.
    for p in [4usize, 16, 32] {
        let ncube = run_jacobi_experiment(&row(CostModel::ncube7(), p, 64, 100));
        let ipsc = run_jacobi_experiment(&row(CostModel::ipsc2(), p, 64, 100));
        assert!(
            ncube.times.inspector_overhead() > ipsc.times.inspector_overhead(),
            "p = {p}"
        );
    }
}

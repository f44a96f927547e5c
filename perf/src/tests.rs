//! Tests that drive the benchmark's own code paths end to end, so a later
//! change to a public signature of the library crates breaks `cargo test`
//! here rather than the measuring pipeline.

use std::collections::BTreeSet;
use std::time::Instant;

use kali_process::{trace, Counters, Process, Tag, Wire};

use crate::adapter::{run_on, sequential, Backend, Problem, RankSolve, Solve};
use crate::compare::{judge, worse_by, Reading, Verdict};
use crate::json::Json;
use crate::run::{checked_solve, end_to_end, per_layer, Settings, Tally};
use crate::timed_proc::TimedProc;
use crate::workloads::{by_name, WORKLOADS};

const SMOKE: Settings = Settings {
    seed: 7,
    seconds: 0.0,
    smoke: true,
};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    let entries = doc.get(list).and_then(Json::as_array).expect("a list");
    entries
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("a name").into())
        .collect()
}

#[test]
fn every_workload_runs_at_smoke_size_and_prints_exactly_the_declared_metrics() {
    let bench = benchmark_json();
    // The pipeline runs a subset: the rest are for runs by hand.
    for declared in names(&bench, "workloads") {
        assert!(by_name(&declared).is_some(), "{declared} is not a workload");
    }
    for workload in &WORKLOADS {
        for (list, report) in [
            ("end_to_end", end_to_end(workload, &SMOKE)),
            ("per_layer", per_layer(workload, &SMOKE)),
        ] {
            assert!(report.tally.attempted > 0);
            assert_eq!(report.tally.failed, 0, "{} {list}", workload.name);
            let printed: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let unique: BTreeSet<&str> = printed.iter().copied().collect();
            assert_eq!(unique.len(), printed.len(), "a metric printed twice");
            let expected = names(&bench, list);
            assert_eq!(
                unique,
                expected.iter().map(String::as_str).collect(),
                "{} {list}: printed metrics differ from BENCHMARK.json",
                workload.name
            );
            for m in &report.metrics {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(m.name.chars().all(ok), "bad metric name {}", m.name);
                assert!(m.value.is_finite(), "{} is not finite", m.name);
            }
            if list == "per_layer" {
                let trace = crate::chrome_trace(&report.spans)
                    .emit()
                    .expect("finite spans");
                assert!(trace.contains("\"executor.sweep\"") && trace.contains("\"solve\""));
            }
        }
    }
}

#[test]
fn solver_counts_equal_the_configured_steps() {
    let workload = by_name("cg-reduce").expect("workload");
    let report = per_layer(workload, &SMOKE);
    let value = |name: &str| {
        let metric = report.metrics.iter().find(|m| m.name == name);
        metric.expect("metric").value
    };
    assert_eq!(value("solvers.steps"), workload.smoke_steps.count as f64);
    // <b,b> up front, then two dot products per iteration.
    assert_eq!(
        value("solvers.reductions"),
        (1 + 2 * workload.smoke_steps.count) as f64
    );
    assert_eq!(
        value("proc.allreduces.native"),
        2.0 * value("solvers.reductions")
    );
    assert_eq!(value("proc.msgs.native"), value("proc.msgs.mp"));
    assert_eq!(value("proc.bytes.native"), value("proc.bytes.mp"));
}

#[test]
fn a_wrong_reference_is_a_failure_and_a_nonzero_exit() {
    let workload = by_name("mesh-halo").expect("workload");
    let problem = Problem::generate(&workload.smoke_input, 3);
    let steps = workload.smoke_steps;
    let mut reference = sequential(&problem, steps);
    let mut tally = Tally::default();
    assert!(checked_solve(
        Backend::Native,
        &problem,
        steps,
        &reference,
        None,
        &mut tally
    )
    .is_some());
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    assert_eq!(crate::exit_code(tally.failed), 0);

    reference.field[5] = f64::from_bits(reference.field[5].to_bits() ^ 1);
    assert!(checked_solve(
        Backend::Native,
        &problem,
        steps,
        &reference,
        None,
        &mut tally
    )
    .is_none());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_ne!(crate::exit_code(tally.failed), 0);
}

/// Field, history, solver counts and transport bytes of every rank; the
/// queue high-water mark is a scheduling observation and left out.
fn observable(ranks: &[RankSolve]) -> Vec<(Vec<u64>, Vec<u64>, crate::adapter::SolveCounts, u64)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    ranks
        .iter()
        .map(|r| (bits(&r.local), bits(&r.history), r.counts, r.wire_bytes))
        .collect()
}

#[test]
fn wrapped_and_bare_solves_are_the_same_program() {
    for name in ["mesh-halo", "cg-reduce"] {
        let workload = by_name(name).expect("workload");
        let problem = Problem::generate(&workload.smoke_input, 11);
        for backend in Backend::BOTH {
            let solve = |trace_epoch| {
                let program = Solve {
                    problem: &problem,
                    steps: workload.smoke_steps,
                    trace_epoch,
                };
                run_on(backend, &program)
            };
            let (bare, wrapped) = (solve(None), solve(Some(Instant::now())));
            assert_eq!(
                observable(&bare),
                observable(&wrapped),
                "{name} {backend:?}"
            );
            assert!(wrapped.iter().all(|r| r.trace.is_some()));
        }
    }
}

/// A backend that overrides every provided method and logs each call.
#[derive(Default)]
struct Spy {
    calls: Vec<&'static str>,
}

impl Process for Spy {
    fn rank(&self) -> usize {
        0
    }
    fn nprocs(&self) -> usize {
        1
    }
    fn send<T: Wire>(&mut self, _: usize, _: Tag, _: T) {
        self.calls.push("send");
    }
    fn send_vec<T: Wire>(&mut self, _: usize, _: Tag, _: Vec<T>) {
        self.calls.push("send_vec");
    }
    fn recv<T: Wire>(&mut self, _: usize, _: Tag) -> T {
        self.calls.push("recv");
        T::decode(&mut kali_process::WireReader::new(&[0u8; 16])).expect("zero bytes decode")
    }
    fn recv_vec<T: Wire>(&mut self, _: usize, _: Tag) -> Vec<T> {
        self.calls.push("recv_vec");
        Vec::new()
    }
    fn acquire_send_buffer<T: Send + 'static>(&mut self, _: usize) -> Vec<T> {
        self.calls.push("acquire_send_buffer");
        Vec::new()
    }
    fn send_packed<T: Wire>(&mut self, _: usize, _: Tag, _: Vec<T>) {
        self.calls.push("send_packed");
    }
    fn recv_packed_append<T: Copy + Wire>(&mut self, _: usize, _: Tag, _: &mut Vec<T>) -> usize {
        self.calls.push("recv_packed_append");
        0
    }
    fn barrier(&mut self) {
        self.calls.push("barrier");
    }
    fn exchange<T: Wire>(&mut self, _: Vec<(usize, T)>) -> Vec<T> {
        self.calls.push("exchange");
        Vec::new()
    }
    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.calls.push("allgather");
        vec![items]
    }
    fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        self.calls.push("allreduce_sum_f64");
        value
    }
    fn allreduce<T: Clone + Wire, F: Fn(&T, &T) -> T>(&mut self, value: T, _: F) -> T {
        self.calls.push("allreduce");
        value
    }
    fn allgather_doubling<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.calls.push("allgather_doubling");
        vec![items]
    }
    fn charge_flops(&mut self, _: usize) {
        self.calls.push("charge_flops");
    }
    fn charge_mem_refs(&mut self, _: usize) {
        self.calls.push("charge_mem_refs");
    }
    fn charge_loop_iters(&mut self, _: usize) {
        self.calls.push("charge_loop_iters");
    }
    fn charge_calls(&mut self, _: usize) {
        self.calls.push("charge_calls");
    }
    fn charge_local_access(&mut self) {
        self.calls.push("charge_local_access");
    }
    fn charge_nonlocal_access(&mut self, _: usize) {
        self.calls.push("charge_nonlocal_access");
    }
    fn charge_local_accesses(&mut self, _: usize) {
        self.calls.push("charge_local_accesses");
    }
    fn charge_nonlocal_accesses(&mut self, _: usize, _: usize) {
        self.calls.push("charge_nonlocal_accesses");
    }
    fn charge_locality_check(&mut self) {
        self.calls.push("charge_locality_check");
    }
    fn charge_record_handling(&mut self, _: usize) {
        self.calls.push("charge_record_handling");
    }
    fn time(&self) -> f64 {
        42.0
    }
    fn counters(&self) -> Counters {
        Counters {
            flops: 9,
            ..Counters::default()
        }
    }
    fn trace_start(&mut self) {
        self.calls.push("trace_start");
    }
    fn trace_take(&mut self) -> Vec<trace::Event> {
        self.calls.push("trace_take");
        Vec::new()
    }
    fn trace_active(&self) -> bool {
        true
    }
    fn trace_emit(&mut self, _: trace::EventKind) {
        self.calls.push("trace_emit");
    }
}

#[test]
fn timed_proc_forwards_every_method_to_the_backends_own_implementation() {
    let mut spy = Spy::default();
    let mut timed = TimedProc::new(&mut spy, Instant::now());
    let span = timed.open("solve");
    timed.send(0, 1, 1u64);
    timed.send_vec(0, 1, vec![1u64, 2]);
    let _: u64 = timed.recv(0, 1);
    let _: Vec<u64> = timed.recv_vec(0, 1);
    let buffer: Vec<f64> = timed.acquire_send_buffer(3);
    timed.send_packed(0, 1, buffer);
    timed.recv_packed_append(0, 1, &mut Vec::<f64>::new());
    timed.barrier();
    timed.exchange(vec![(0, 1u64)]);
    timed.allgather(vec![1u64]);
    timed.allreduce_sum_f64(1.0);
    timed.allreduce(1u64, |a, b| a + b);
    timed.allgather_doubling(vec![1u64]);
    timed.charge_flops(1);
    timed.charge_mem_refs(1);
    timed.charge_loop_iters(1);
    timed.charge_calls(1);
    timed.charge_local_access();
    timed.charge_nonlocal_access(1);
    timed.charge_local_accesses(2);
    timed.charge_nonlocal_accesses(1, 2);
    timed.charge_locality_check();
    timed.charge_record_handling(1);
    assert_eq!(timed.time(), 42.0);
    assert_eq!(timed.counters().flops, 9);
    timed.trace_start();
    timed.trace_take();
    assert!(timed.trace_active());
    timed.trace_emit(trace::EventKind::Collective { op: "test" });
    timed.close(span);
    let recorded = timed.finish();

    // Each call reached the method of the same name — never a trait default
    // re-expressed through other methods.
    assert_eq!(
        spy.calls,
        [
            "send",
            "send_vec",
            "recv",
            "recv_vec",
            "acquire_send_buffer",
            "send_packed",
            "recv_packed_append",
            "barrier",
            "exchange",
            "allgather",
            "allreduce_sum_f64",
            "allreduce",
            "allgather_doubling",
            "charge_flops",
            "charge_mem_refs",
            "charge_loop_iters",
            "charge_calls",
            "charge_local_access",
            "charge_nonlocal_access",
            "charge_local_accesses",
            "charge_nonlocal_accesses",
            "charge_locality_check",
            "charge_record_handling",
            "trace_start",
            "trace_take",
            "trace_emit",
        ]
    );
    // Twelve communication calls, all children of the open span; three of
    // them are sends: 8 + 16 + 0 payload bytes.
    assert_eq!(recorded.children(span, None).count(), 12);
    assert_eq!(recorded.children(span, Some("proc.send")).count(), 3);
    assert_eq!(recorded.children(span, Some("proc.recv_wait")).count(), 3);
    assert_eq!(recorded.children(span, Some("proc.allreduce")).count(), 2);
    assert_eq!(recorded.children(span, Some("proc.allgather")).count(), 2);
    assert_eq!((recorded.msgs, recorded.bytes), (3, 24));
    let covered = recorded.child_seconds(span, None);
    assert!(covered <= recorded.spans[span].seconds());
}

#[test]
fn compare_tells_ok_worse_and_unresolved_apart() {
    let tight = |value: f64| Reading {
        value,
        half_mins: [value, value * 1.02],
    };
    assert_eq!(judge(tight(1.0), tight(1.05), true, 0.1), Verdict::Ok);
    assert_eq!(judge(tight(1.0), tight(1.2), true, 0.1), Verdict::Worse);
    assert_eq!(judge(tight(1.0), tight(0.5), true, 0.1), Verdict::Ok);
    // Higher-is-better turns the direction around.
    assert_eq!(judge(tight(1.0), tight(0.8), false, 0.1), Verdict::Worse);
    assert_eq!(judge(tight(1.0), tight(1.5), false, 0.1), Verdict::Ok);
    // A run whose halves disagree about its fastest sample by more than
    // the bound.
    let loose = Reading {
        value: 1.3,
        half_mins: [1.5, 1.3],
    };
    assert_eq!(judge(tight(1.0), loose, true, 0.1), Verdict::Unresolved);
    assert_eq!(judge(tight(1.0), loose, true, 0.2), Verdict::Worse);
    assert_eq!(worse_by(2.0, 2.5, true), 0.25);
    assert_eq!(worse_by(2.0, 2.5, false), -0.25);
}

#[test]
fn arguments_follow_the_pipelines_contract() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let Ok(crate::Command::Measure(args)) =
        crate::parse_args(&argv("--workload mesh-halo --seed 5 --seconds 3 --trace 1"))
    else {
        panic!("a measuring command line");
    };
    assert_eq!(
        (args.workload.as_str(), args.seed, args.seconds, args.trace),
        ("mesh-halo", 5, 3.0, true)
    );
    assert!(crate::parse_args(&argv("--seed 5")).is_err(), "no workload");
    assert!(crate::parse_args(&argv("--workload x --trace 2")).is_err());
    assert!(crate::parse_args(&argv("--workload x --seconds -1")).is_err());
    assert!(matches!(
        crate::parse_args(&argv("--compare a.json b.json")),
        Ok(crate::Command::Compare { .. })
    ));
}

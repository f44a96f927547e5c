//! The two measurements of one workload: the untraced run behind the
//! end-to-end metrics and the traced run behind the per-layer ones.
//!
//! Closed loop, one solve at a time; native and mp solves are interleaved
//! rep by rep so machine drift hits both alike.  A run is given a number of
//! seconds and splits it between its activities in fixed shares, so its
//! length is the same on every commit; each activity repeats until the
//! seconds are used (at least [`MIN_REPS`] times).  An end-to-end time is
//! reported as the fastest of its samples, a per-layer number as the median.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::adapter::{
    assemble, bulk_round_trips, distrib_ns_per_call, frame_roundtrip_seconds, mesh_of,
    partition_seconds, run_on, run_on_dmsim, sequential, wire_scalar_ns, wire_vec_mb_s, Backend,
    InputSpec, Launch, LayerProbes, ProbeInput, Problem, RankProbes, RankSolve, Solution, Solve,
    SolveCounts, Steps,
};
use crate::stats::{summarize, Summary};
use crate::timed_proc::{RankTrace, ALLREDUCE, PROC_SPANS};
use crate::workloads::{Workload, FIRST, MODELED};

/// Fewest repetitions of any timed activity.
pub const MIN_REPS: usize = 3;

/// Samples of set-up and of first-sweep solves a whole run takes at most;
/// what is left of their shares goes to the full solves.  Both are
/// milliseconds long on most workloads, while the 0.1-0.4 s solves are the
/// ones short of samples.  The allowance grows evenly with the run's time,
/// so these samples too are spread over the whole run.
const ENOUGH_REPS: usize = 256;

/// Shares of an untraced run's seconds.
const SETUP_SHARE: f64 = 0.15;
const FIRST_SHARE: f64 = 0.30;
const SOLVE_SHARE: f64 = 0.55;

/// Share of a traced run's seconds spent on traced/untraced solve pairs;
/// the probes after them run fixed counts.
const TRACED_SOLVE_SHARE: f64 = 0.40;

pub struct Settings {
    pub seed: u64,
    /// Seconds to measure for; 0 runs every activity [`MIN_REPS`] times.
    pub seconds: f64,
    /// Tiny inputs and few probe repetitions.
    pub smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// What the result line reports: the fastest sample of an end-to-end
    /// time, the median of a per-layer number.
    pub value: f64,
    pub summary: Summary,
}

/// Solves attempted (warm-ups included) and solves that panicked or were
/// not bitwise equal to the sequential replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// One rank's spans of one traced solve or probe run.
pub struct TracedRank {
    /// Shared by the ranks of one machine run.
    pub run_id: usize,
    pub backend: &'static str,
    pub rank: usize,
    pub trace: RankTrace,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub spans: Vec<TracedRank>,
}

impl Report {
    /// A metric reported as the median of `samples`.
    fn push(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        self.push_summary(name, unit, samples, |summary| summary.median);
    }

    /// A time reported as the fastest of `samples`.  Interference from the
    /// host only ever adds time, and it comes in stretches that slow half
    /// the samples of a run or more, so the run's median moves with the
    /// host where its fastest sample stays with the program.
    fn push_fastest(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        self.push_summary(name, unit, samples, |summary| summary.min);
    }

    fn push_summary(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
        value: impl Fn(&Summary) -> f64,
    ) {
        // An activity whose every solve failed has no samples; the failure is
        // already in the tally and the metric is left out.
        if !samples.is_empty() {
            let summary = summarize(samples);
            self.metrics.push(Metric {
                name: name.into(),
                unit,
                value: value(&summary),
                summary,
            });
        }
    }

    fn push_exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, &[value]);
    }

    /// Keep the ranks' traces of one machine run under the next run id.
    fn keep_spans(&mut self, backend: &'static str, ranks: impl Iterator<Item = RankTrace>) {
        let run_id = self.spans.last().map_or(0, |last| last.run_id + 1);
        for (rank, trace) in ranks.enumerate() {
            self.spans.push(TracedRank {
                run_id,
                backend,
                rank,
                trace,
            });
        }
    }
}

fn repeat(budget_s: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        body();
        reps += 1;
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn slowest_rank(ranks: &[RankSolve]) -> f64 {
    ranks.iter().map(|r| r.elapsed_s).fold(0.0, f64::max)
}

/// Run one solve and check it: a panic on any rank, or a result that is not
/// bitwise equal to `reference`, counts as failed and yields no sample.
pub fn checked_solve(
    backend: Backend,
    problem: &Problem,
    steps: Steps,
    reference: &Solution,
    trace_epoch: Option<Instant>,
    tally: &mut Tally,
) -> Option<Vec<RankSolve>> {
    tally.attempted += 1;
    let program = Solve {
        problem,
        steps,
        trace_epoch,
    };
    let ranks = catch_unwind(AssertUnwindSafe(|| run_on(backend, &program))).ok();
    let ranks = ranks.filter(|ranks| {
        let got = assemble(problem, steps, ranks);
        bitwise_eq(&got.field, &reference.field)
            && ranks
                .iter()
                .all(|r| bitwise_eq(&r.history, &reference.history))
    });
    if ranks.is_none() {
        tally.failed += 1;
    }
    ranks
}

fn sized(workload: &Workload, settings: &Settings) -> (InputSpec, Steps) {
    if settings.smoke {
        (workload.smoke_input, workload.smoke_steps)
    } else {
        (workload.input, workload.steps)
    }
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// The untraced run: every end-to-end metric.
///
/// Three activities share the run's seconds: set-up, first-sweep solves and
/// full solves.  They are not run as three blocks but woven together — at
/// every turn the activity furthest behind its share goes next — so each
/// metric's samples span the whole run, and whenever the host leaves the
/// run alone for a moment every metric gets a sample of it.
pub fn end_to_end(workload: &Workload, settings: &Settings) -> Report {
    let (input, steps) = sized(workload, settings);
    let mut tally = Tally::default();

    let mut problem = Problem::generate(&input, settings.seed);
    let first_reference = sequential(&problem, FIRST);
    let reference = sequential(&problem, steps);
    for backend in Backend::BOTH {
        for _ in 0..2 {
            checked_solve(backend, &problem, steps, &reference, None, &mut tally);
        }
        checked_solve(backend, &problem, FIRST, &first_reference, None, &mut tally);
    }

    let mut setup_s = Vec::new();
    let mut first_s = [Vec::new(), Vec::new()];
    let mut solve_s = [Vec::new(), Vec::new()];
    let mut seq_s = Vec::new();

    const SETUP: usize = 0;
    const FIRST_SWEEP: usize = 1;
    const SOLVE: usize = 2;
    const SHARES: [f64; 3] = [SETUP_SHARE, FIRST_SHARE, SOLVE_SHARE];
    let mut spent = [0.0f64; 3];
    let mut reps = [0usize; 3];
    let run_start = Instant::now();
    loop {
        let elapsed = run_start.elapsed().as_secs_f64();
        let in_time = elapsed < settings.seconds;
        let allowed = (ENOUGH_REPS as f64 * elapsed / settings.seconds.max(1e-9)) as usize;
        let due = (0..3)
            .filter(|&k| reps[k] < MIN_REPS || (in_time && (k == SOLVE || reps[k] < allowed)))
            .min_by(|&j, &k| (spent[j] / SHARES[j]).total_cmp(&(spent[k] / SHARES[k])));
        let Some(activity) = due else { break };
        let start = Instant::now();
        match activity {
            // Set-up: input generation plus one launch of each machine.  The
            // same seed gives the same problem, so the references stay valid
            // while the solves move on to freshly allocated inputs.
            SETUP => {
                drop(problem);
                let began = Instant::now();
                problem = Problem::generate(&input, settings.seed);
                for backend in Backend::BOTH {
                    run_on(backend, &Launch);
                }
                setup_s.push(began.elapsed().as_secs_f64());
            }
            // First sweep: plan, cold buffers and one step.
            FIRST_SWEEP => {
                for (backend, samples) in Backend::BOTH.into_iter().zip(&mut first_s) {
                    let solved =
                        checked_solve(backend, &problem, FIRST, &first_reference, None, &mut tally);
                    samples.extend(solved.as_deref().map(slowest_rank));
                }
            }
            // Time to solution, with the sequential replay right beside it.
            _ => {
                for (backend, samples) in Backend::BOTH.into_iter().zip(&mut solve_s) {
                    let solved =
                        checked_solve(backend, &problem, steps, &reference, None, &mut tally);
                    samples.extend(solved.as_deref().map(slowest_rank));
                }
                let began = Instant::now();
                std::hint::black_box(sequential(&problem, steps));
                seq_s.push(began.elapsed().as_secs_f64());
            }
        }
        spent[activity] += start.elapsed().as_secs_f64();
        reps[activity] += 1;
    }

    let mut report = Report {
        tally,
        ..Report::default()
    };
    let per_backend = |report: &mut Report, metric: &str, samples: &[Vec<f64>; 2]| {
        for (backend, samples) in Backend::BOTH.into_iter().zip(samples) {
            report.push_fastest(format!("{metric}.{}", backend.name()), "s", samples);
        }
    };
    report.push_fastest("setup_s", "s", &setup_s);
    per_backend(&mut report, "solve_s", &solve_s);
    per_backend(&mut report, "first_sweep_s", &first_s);
    report.push_fastest("seq_solve_s", "s", &seq_s);
    // The overhead factor, from the two times as reported.
    let fastest = |samples: &[f64]| samples.iter().copied().reduce(f64::min);
    for (backend, samples) in Backend::BOTH.into_iter().zip(&solve_s) {
        if let Some((solve, seq)) = fastest(samples).zip(fastest(&seq_s)) {
            report.push_exact(format!("vs_seq.{}", backend.name()), "ratio", solve / seq);
        }
    }
    report.push_exact("peak_rss_mb", "MB", peak_rss_mb());
    report
}

fn trace_of(solve: &RankSolve) -> &RankTrace {
    solve
        .trace
        .as_ref()
        .expect("a solve run under TimedProc records a trace")
}

/// One sample per solve: the slowest rank's time.
fn slowest(solves: &[Vec<RankSolve>], seconds: impl Fn(&RankSolve) -> f64) -> Vec<f64> {
    let per_solve = |ranks: &Vec<RankSolve>| ranks.iter().map(&seconds).fold(0.0, f64::max);
    solves.iter().map(per_solve).collect()
}

/// One sample per solve: the ranks' sum of a count.
fn total(solves: &[Vec<RankSolve>], count: impl Fn(&RankSolve) -> u64) -> Vec<f64> {
    let per_solve = |ranks: &Vec<RankSolve>| ranks.iter().map(&count).sum::<u64>() as f64;
    solves.iter().map(per_solve).collect()
}

/// One sample per probe repetition: the slowest rank's.
fn slowest_per_rep(ranks: &[RankProbes], samples: impl Fn(&RankProbes) -> &[f64]) -> Vec<f64> {
    let reps = ranks.iter().map(|r| samples(r).len()).min().unwrap_or(0);
    (0..reps)
        .map(|i| ranks.iter().map(|r| samples(r)[i]).fold(0.0, f64::max))
        .collect()
}

/// How much the traced run repeats its fixed-count probes.
struct ProbeCounts {
    reps: usize,
    round_trips: usize,
}

/// The traced run: every per-layer metric.
pub fn per_layer(workload: &Workload, settings: &Settings) -> Report {
    let (input, steps) = sized(workload, settings);
    let counts = if settings.smoke {
        ProbeCounts {
            reps: 2,
            round_trips: 40,
        }
    } else {
        ProbeCounts {
            reps: 5,
            round_trips: 1000,
        }
    };
    let epoch = Instant::now();
    let mut report = Report::default();
    let problem = Problem::generate(&input, settings.seed);

    let budget_s = settings.seconds * TRACED_SOLVE_SHARE;
    let message_elems = traced_solves(&mut report, &problem, steps, budget_s, epoch);
    modeled_comm_share(&mut report, &problem, epoch);
    let probe_input = ProbeInput::of(&problem);
    machine_probes(&mut report, &probe_input, &counts, message_elems, epoch);

    // Layers with no machine around them.
    let sample = |f: &dyn Fn() -> f64| -> Vec<f64> { (0..counts.reps).map(|_| f()).collect() };
    let build_s = sample(&|| {
        let start = Instant::now();
        std::hint::black_box(mesh_of(&input, settings.seed));
        start.elapsed().as_secs_f64()
    });
    report.push("meshes.build_s", "s", &build_s);
    let partition_s = sample(&|| partition_seconds(&probe_input.mesh));
    report.push("meshes.partition_s", "s", &partition_s);
    for backend in Backend::BOTH {
        let launch_ms: Vec<f64> = (0..2 * counts.reps)
            .map(|_| {
                let start = Instant::now();
                run_on(backend, &Launch);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        report.push(format!("launch_ms.{}", backend.name()), "ms", &launch_ms);
    }
    let (owner_ns, local_index_ns): (Vec<f64>, Vec<f64>) = (0..counts.reps)
        .map(|_| distrib_ns_per_call(&probe_input.dist))
        .unzip();
    report.push("distrib.owner_ns", "ns", &owner_ns);
    report.push("distrib.local_index_ns", "ns", &local_index_ns);
    let (encode, decode): (Vec<f64>, Vec<f64>) = (0..counts.reps)
        .map(|_| wire_vec_mb_s(message_elems))
        .unzip();
    report.push("wire.encode_mb_s", "MB/s", &encode);
    report.push("wire.decode_mb_s", "MB/s", &decode);
    report.push("wire.scalar_ns", "ns", &sample(&wire_scalar_ns));
    let roundtrip_us = sample(&|| frame_roundtrip_seconds(8, counts.round_trips) * 1e6);
    report.push("frame.roundtrip_us", "us", &roundtrip_us);
    let payload = message_elems * 8;
    let frame_mb_s = sample(&|| {
        let trips = bulk_round_trips(payload, counts.round_trips);
        2.0 * payload as f64 / 1e6 / frame_roundtrip_seconds(payload, trips)
    });
    report.push("frame.mb_s", "MB/s", &frame_mb_s);
    report
}

/// Solves under `TimedProc`, each next to an untraced one: the `proc.*`
/// times and counts, `comm_share`, the tracing overhead, and the solver's
/// own counts.  Returns the mean size, in `f64`s, of the messages the
/// runtime sent in a native solve — what the bandwidth probes then move.
fn traced_solves(
    report: &mut Report,
    problem: &Problem,
    steps: Steps,
    budget_s: f64,
    epoch: Instant,
) -> usize {
    let reference = sequential(problem, steps);
    let mut plain_s = [Vec::new(), Vec::new()];
    let mut traced: [Vec<Vec<RankSolve>>; 2] = [Vec::new(), Vec::new()];
    repeat(budget_s, || {
        for (b, backend) in Backend::BOTH.into_iter().enumerate() {
            let tally = &mut report.tally;
            let plain = checked_solve(backend, problem, steps, &reference, None, tally);
            plain_s[b].extend(plain.as_deref().map(slowest_rank));
            traced[b].extend(checked_solve(
                backend,
                problem,
                steps,
                &reference,
                Some(epoch),
                tally,
            ));
        }
    });

    let mut message_elems = 1;
    for ((backend, solves), plain_s) in Backend::BOTH.into_iter().zip(traced).zip(plain_s) {
        let name = backend.name();
        // `solve` is the first span of every rank's trace.
        for span in PROC_SPANS {
            let seconds = slowest(&solves, |r| trace_of(r).child_seconds(0, Some(span)));
            report.push(format!("{span}_s.{name}"), "s", &seconds);
        }
        let traced_s = slowest(&solves, |r| r.elapsed_s);
        let comm_s = slowest(&solves, |r| trace_of(r).child_seconds(0, None));
        let shares: Vec<f64> = comm_s.iter().zip(&traced_s).map(|(c, s)| c / s).collect();
        report.push(format!("comm_share.{name}"), "ratio", &shares);
        // Each traced solve ran right after an untraced one.
        let overhead: Vec<f64> = traced_s
            .iter()
            .zip(&plain_s)
            .map(|(traced, plain)| traced / plain - 1.0)
            .collect();
        report.push(format!("trace.overhead_share.{name}"), "ratio", &overhead);
        let msgs = total(&solves, |r| trace_of(r).msgs);
        let bytes = total(&solves, |r| trace_of(r).bytes);
        report.push(format!("proc.msgs.{name}"), "count", &msgs);
        report.push(format!("proc.bytes.{name}"), "B", &bytes);
        let allreduces = total(&solves, |r| {
            trace_of(r).children(0, Some(ALLREDUCE)).count() as u64
        });
        report.push(format!("proc.allreduces.{name}"), "count", &allreduces);
        if backend == Backend::Mp {
            report.push("proc.wire_bytes.mp", "B", &total(&solves, |r| r.wire_bytes));
        }
        let queue_peak: Vec<f64> = solves
            .iter()
            .map(|ranks| ranks.iter().map(|r| r.queue_peak).max().unwrap_or(0) as f64)
            .collect();
        report.push(format!("proc.queue_peak.{name}"), "count", &queue_peak);

        if backend == Backend::Native {
            // The solver's own counts do not depend on the backend.
            let rank0 = |count: &dyn Fn(&RankSolve) -> u64| -> Vec<f64> {
                solves.iter().map(|ranks| count(&ranks[0]) as f64).collect()
            };
            report.push("solvers.steps", "count", &rank0(&|r| r.counts.steps));
            let reductions = rank0(&|r| r.counts.reductions);
            report.push("solvers.reductions", "count", &reductions);
            let cache = |count: &dyn Fn(&SolveCounts) -> u64| total(&solves, |r| count(&r.counts));
            report.push("cache.hits", "count", &cache(&|c| c.cache_hits));
            report.push("cache.misses", "count", &cache(&|c| c.cache_misses));
            report.push("cache.evictions", "count", &cache(&|c| c.cache_evictions));
            let resident = cache(&|c| c.cache_resident_bytes);
            report.push("cache.resident_bytes", "B", &resident);
            if let (Some(&msgs), Some(&bytes)) = (msgs.first(), bytes.first()) {
                if msgs > 0.0 {
                    message_elems = ((bytes / msgs / 8.0) as usize).max(1);
                }
            }
        }
        for ranks in solves {
            let traces = ranks.into_iter().filter_map(|r| r.trace);
            report.keep_spans(name, traces);
        }
    }
    message_elems
}

/// The same program for [`MODELED`] steps on the simulator, under
/// `TimedProc`: the share of the simulated clock spent in communication.
fn modeled_comm_share(report: &mut Report, problem: &Problem, epoch: Instant) {
    let reference = sequential(problem, MODELED);
    let program = Solve {
        problem,
        steps: MODELED,
        trace_epoch: Some(epoch),
    };
    report.tally.attempted += 1;
    let ranks = run_on_dmsim(&program);
    if !bitwise_eq(&assemble(problem, MODELED, &ranks).field, &reference.field) {
        report.tally.failed += 1;
    }
    let share = |r: &RankSolve| {
        let trace = trace_of(r);
        let comm: f64 = trace.children(0, None).map(|s| s.modeled_s).sum();
        comm / trace.spans[0].modeled_s
    };
    let slowest = ranks.iter().map(share).fold(0.0, f64::max);
    report.push_exact("dmsim.modeled_comm_share", "ratio", slowest);
}

/// The layers' entry points called directly inside a machine of each
/// backend ([`LayerProbes`]).
fn machine_probes(
    report: &mut Report,
    input: &ProbeInput,
    counts: &ProbeCounts,
    message_elems: usize,
    epoch: Instant,
) {
    let nonlocal = input.nonlocal_ref_share();
    report.push_exact("executor.nonlocal_ref_share", "ratio", nonlocal);
    let program = LayerProbes {
        input,
        reps: counts.reps,
        message_elems,
        round_trips: counts.round_trips,
        epoch,
    };
    for backend in Backend::BOTH {
        let name = backend.name();
        report.tally.attempted += 1;
        let Ok(ranks) = catch_unwind(AssertUnwindSafe(|| run_on(backend, &program))) else {
            report.tally.failed += 1;
            continue;
        };
        if backend == Backend::Native {
            // Planning and the schedule's shape: mp differs only by its
            // exchange, which `exchange_us.mp` shows.
            let miss_s = ranks.iter().map(|r| r.plan_miss_s).fold(0.0, f64::max);
            report.push_exact("inspector.miss_s", "s", miss_s);
            let hit_us = slowest_per_rep(&ranks, |r| &r.plan_hit_us);
            report.push("cache.hit_us", "us", &hit_us);
            let plan_us = slowest_per_rep(&ranks, |r| &r.analysis_plan_us);
            report.push("analysis.plan_us", "us", &plan_us);
            let sum = |count: &dyn Fn(&RankProbes) -> u64| -> f64 {
                ranks.iter().map(count).sum::<u64>() as f64
            };
            report.push_exact("schedule.ranges", "count", sum(&|r| r.schedule.ranges));
            let recv_elems = sum(&|r| r.schedule.recv_elems);
            report.push_exact("schedule.recv_elems", "count", recv_elems);
            report.push_exact("schedule.partners", "count", sum(&|r| r.schedule.partners));
            report.push_exact("redistribute.bytes", "B", sum(&|r| r.move_bytes));
        }
        let sweep_ms = slowest_per_rep(&ranks, |r| &r.sweep_ms);
        report.push(format!("executor.sweep_ms.{name}"), "ms", &sweep_ms);
        let self_ms = slowest_per_rep(&ranks, |r| &r.sweep_self_ms);
        report.push(format!("executor.self_ms.{name}"), "ms", &self_ms);
        let move_ms = slowest_per_rep(&ranks, |r| &r.move_ms);
        report.push(format!("redistribute.move_ms.{name}"), "ms", &move_ms);
        // Rank 0 starts and ends every round trip.
        report.push(format!("pingpong_us.{name}"), "us", &ranks[0].pingpong_us);
        report.push(format!("halo_mb_s.{name}"), "MB/s", &ranks[0].halo_mb_s);
        let allreduce_us = slowest_per_rep(&ranks, |r| &r.allreduce_us);
        report.push(format!("allreduce_us.{name}"), "us", &allreduce_us);
        let exchange_us = slowest_per_rep(&ranks, |r| &r.exchange_us);
        report.push(format!("exchange_us.{name}"), "us", &exchange_us);
        report.keep_spans(name, ranks.into_iter().map(|r| r.trace));
    }
}

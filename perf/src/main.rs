//! `perf_all` — the repository's wall-clock benchmark.
//!
//! One invocation measures one workload: `--trace 0` prints every
//! end-to-end metric, `--trace 1` every per-layer metric (see
//! `perf/README.md` and `BENCHMARK.json`).  `--compare` judges two result
//! sets against the bounds in `BENCHMARK.json`.

mod adapter;
mod compare;
mod json;
mod run;
mod stats;
mod timed_proc;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Metric, Report, Settings, TracedRank};

const USAGE: &str = "\
usage: perf_all --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                [--smoke] [--out <file>] [--trace-out <file>]
       perf_all --compare <a.json|dir> <b.json|dir> [--bounds <BENCHMARK.json>]
workloads: grid-compute mesh-halo mesh-cyclic cg-reduce adapt-replan phase-redist";

/// Seed used when none is given (recorded in `perf/README.md`).
const DEFAULT_SEED: u64 = 1990;
/// Seconds measured when none are given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

/// Environment switches of the runtime that would change what is measured.
const FORBIDDEN_ENV: [&str; 3] = ["KALI_WORKERS", "KALI_CHUNK", "KALI_QUICK"];

/// glibc malloc settings every measuring process runs under (see
/// [`pin_allocator`]).
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
];

/// Where the mp backend's rendezvous sockets go: a relative directory, so
/// the benchmark writes only under the directory it is run from and the
/// socket paths stay short however deep that directory is.
const SOCKET_DIR: &str = ".perf_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

enum Command {
    Measure(Args),
    Compare {
        a: PathBuf,
        b: PathBuf,
        bounds: PathBuf,
    },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut compare = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => bounds = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, bounds });
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.smoke {
        args.seconds = 0.0;
    }
    Ok(Command::Measure(args))
}

/// `nproc`, CPU model and cache sizes of the host, for the record.
fn host() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    let caches: Vec<Json> = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = read(&format!("{dir}/size"));
            (!size.is_empty()).then(|| {
                let level = read(&format!("{dir}/level"));
                let kind = read(&format!("{dir}/type"));
                Json::Str(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()))
            })
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("caches", Json::Arr(caches)),
    ])
}

fn metric_json(metric: &Metric, with_spread: bool) -> Json {
    let s = &metric.summary;
    let mut members = vec![
        ("value", Json::Num(metric.value)),
        ("unit", Json::str(metric.unit)),
    ];
    if with_spread {
        members.push(("n", Json::Num(s.n as f64)));
        members.push(("half_mins", Json::Arr(s.half_mins.map(Json::Num).into())));
        members.push(("median", Json::Num(s.median)));
        members.push(("q1", Json::Num(s.q1)));
        members.push(("q3", Json::Num(s.q3)));
    }
    Json::obj(members)
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report, with_spread: bool) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), metric_json(m, with_spread)))
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", Json::Num(report.tally.attempted as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, `pid` the machine run, `tid` the rank.
fn chrome_trace(spans: &[TracedRank]) -> Json {
    let mut events = Vec::new();
    for traced in spans {
        for (id, span) in traced.trace.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            events.push(Json::obj(vec![
                ("name", Json::str(span.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(traced.run_id as f64)),
                ("tid", Json::Num(traced.rank as f64)),
                (
                    "args",
                    Json::obj(vec![
                        ("backend", Json::str(traced.backend)),
                        ("span", Json::Num(id as f64)),
                        ("parent", parent),
                    ]),
                ),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events))])
}

fn write_json(path: &PathBuf, doc: &Json) -> Result<(), String> {
    let text = doc.emit()?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Pin glibc malloc's trim and mmap thresholds by replacing this process
/// with itself under [`MALLOC_ENV`] (malloc reads them once, at start-up).
///
/// With the default *dynamic* thresholds a process settles, by the luck of
/// its first frees, into returning every solve's arrays to the kernel or
/// into keeping them: `first_sweep_s` on `adapt-replan` is then 5.1 ms or
/// 3.6 ms and the peak RSS 39 MB or 47 MB for the whole life of the
/// process, and the medians of two runs are not comparable.  Pinned, every
/// run keeps its freed arrays, as a long-lived solver process does.
fn pin_allocator() -> Result<(), String> {
    use std::os::unix::process::CommandExt;
    if MALLOC_ENV
        .iter()
        .all(|(name, _)| std::env::var_os(name).is_some())
    {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let error = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .exec();
    Err(format!(
        "re-executing under the pinned allocator settings: {error}"
    ))
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            return Err(format!(
                "{name} is set: the benchmark runs at workers = 1, chunk = auto, full sizes"
            ));
        }
    }
    let workload = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{USAGE}", args.workload))?;
    pin_allocator()?;

    std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("creating {SOCKET_DIR}: {e}"))?;
    // Before any thread exists: the mp backend reads it at every launch.
    std::env::set_var("TMPDIR", SOCKET_DIR);

    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let report = if args.trace {
        run::per_layer(workload, &settings)
    } else {
        run::end_to_end(workload, &settings)
    };
    // Leaves the directory in place if a failed run left sockets behind.
    let _ = std::fs::remove_dir(SOCKET_DIR);

    let host = host();
    println!("# host {}", host.emit()?);
    for m in &report.metrics {
        let s = &m.summary;
        println!(
            "{} {} {} {} n={} median={} q1={} q3={}",
            workload.name, m.name, m.value, m.unit, s.n, s.median, s.q1, s.q3
        );
    }
    if let Some(path) = &args.out {
        let Json::Obj(mut doc) = result_json(&report, true) else {
            unreachable!("result_json builds an object")
        };
        doc.splice(
            0..0,
            [
                ("workload".to_string(), Json::str(workload.name)),
                ("seed".to_string(), Json::Num(args.seed as f64)),
                ("seconds".to_string(), Json::Num(args.seconds)),
                (
                    "trace".to_string(),
                    Json::Num(f64::from(u8::from(args.trace))),
                ),
                ("smoke".to_string(), Json::Bool(args.smoke)),
                ("host".to_string(), host),
            ],
        );
        write_json(path, &Json::Obj(doc))?;
    }
    if let Some(path) = &args.trace_out {
        write_json(path, &chrome_trace(&report.spans))?;
    }
    println!("{}", result_json(&report, false).emit()?);
    Ok(ExitCode::from(exit_code(report.tally.failed)))
}

/// Non-zero as soon as one solve failed.
fn exit_code(failed: u64) -> u8 {
    u8::from(failed > 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Measure(args)) => measure(&args),
        Ok(Command::Compare { a, b, bounds }) => compare::run(&a, &b, &bounds),
        Err(message) => Err(format!("{message}\n{USAGE}")),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perf_all: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;

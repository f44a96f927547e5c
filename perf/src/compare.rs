//! `perf_all --compare <a> <b>`: judge result set `b` against result set
//! `a` (two `--out` files, or two directories of them paired by file
//! name), end-to-end metric by end-to-end metric, with the bounds of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s value is worse than `a`'s by more than the bound.
    Worse,
    /// On one side the two halves of the run's samples (every other one)
    /// give fastest samples further apart than the bound: that run does not
    /// resolve its own value that finely, let alone a difference.
    Unresolved,
}

/// One metric of one result file: the reported value (the fastest sample of
/// an end-to-end time) and the fastest sample of each half of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub half_mins: [f64; 2],
}

impl Reading {
    /// Distance between the halves' fastest samples as a share of the value.
    fn scatter(&self) -> f64 {
        (self.half_mins[0] - self.half_mins[1]).abs() / self.value.abs()
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

pub fn judge(a: Reading, b: Reading, lower_is_better: bool, bound: f64) -> Verdict {
    if a.scatter().max(b.scatter()) > bound {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, lower_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let doc = load(path)?;
    let malformed = || format!("{}: malformed end_to_end entry", path.display());
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|entry| {
            Some(Bound {
                name: entry.get("name")?.as_str()?.to_string(),
                lower_is_better: entry.get("better")?.as_str()? == "lower",
                bound: entry.get("bound")?.as_f64()?,
            })
        })
        .map(|bound| bound.ok_or_else(malformed))
        .collect()
}

/// The `--out` files under `path`: itself, or the untraced result files of
/// a directory keyed by file name.
fn result_files(path: &Path) -> Result<BTreeMap<String, PathBuf>, String> {
    if !path.is_dir() {
        return Ok(BTreeMap::from([(String::new(), path.to_path_buf())]));
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .filter_map(|p| Some((p.file_name()?.to_str()?.to_string(), p)))
        .collect())
}

/// One metric of a result file; a file without the halves (the result line
/// alone) reads as a single value.
fn reading(doc: &Json, metric: &str) -> Option<Reading> {
    let m = doc.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let halves = m.get("half_mins").and_then(Json::as_array);
    let half = |i: usize| halves?.get(i)?.as_f64();
    Some(Reading {
        value,
        half_mins: [half(0).unwrap_or(value), half(1).unwrap_or(value)],
    })
}

fn failed_share(doc: &Json) -> f64 {
    let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    count("failed") / count("attempted").max(1.0)
}

pub fn run(a: &Path, b: &Path, bounds: &Path) -> Result<ExitCode, String> {
    let bounds = load_bounds(bounds)?;
    let (files_a, files_b) = (result_files(a)?, result_files(b)?);
    let mut bad = false;
    let mut compared = 0;
    for (key, path_a) in &files_a {
        let Some(path_b) = files_b.get(key) else {
            continue;
        };
        let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
        if doc_a.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue; // per-layer files carry no bounded metric
        }
        let workload = doc_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        if doc_b.get("workload").and_then(Json::as_str) != Some(workload) {
            return Err(format!(
                "{} and {} are results of different workloads",
                path_a.display(),
                path_b.display()
            ));
        }
        for bound in &bounds {
            let (Some(ra), Some(rb)) = (reading(&doc_a, &bound.name), reading(&doc_b, &bound.name))
            else {
                return Err(format!("{workload}: {} missing from a result", bound.name));
            };
            let verdict = judge(ra, rb, bound.lower_is_better, bound.bound);
            bad |= verdict == Verdict::Worse;
            compared += 1;
            println!(
                "{workload} {} a={} b={} b/a={:.4} (base a) bound={} {}",
                bound.name,
                ra.value,
                rb.value,
                rb.value / ra.value,
                bound.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed_share(&doc_a), failed_share(&doc_b));
        let more_failures = fb > fa;
        bad |= more_failures;
        println!(
            "{workload} failed_share a={fa} b={fb} {}",
            if more_failures { "worse" } else { "ok" }
        );
    }
    if compared == 0 {
        return Err("nothing to compare: no end-to-end result file on both sides".into());
    }
    Ok(if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

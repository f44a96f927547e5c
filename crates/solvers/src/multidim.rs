//! The 2-D phase-change demo: alternating-direction smoothing with a
//! row↔column redistribution between phases — the paper's motivating
//! scenario for letting a program *change* the `dist` clause mid-run.
//!
//! The field is a `rows × cols` array.  Each round applies
//!
//! * a **vertical** phase — sweeps of the three-point stencil
//!   `a[i,j] := ¼·old[i-1,j] + ½·old[i,j] + ¼·old[i+1,j]` over the interior
//!   rows, then
//! * a **horizontal** phase — the transposed stencil over the interior
//!   columns.
//!
//! Under `dist by [block, *]` (rows blocked, [`ArrayDist::block_rows`]) the
//! horizontal stencil is fully local but the vertical one needs one
//! boundary *row* from each neighbour every sweep.  Under
//! `dist by [*, block]` ([`ArrayDist::block_cols`]) the situation is
//! transposed.  Two strategies make the trade-off measurable:
//!
//! * [`PhaseStrategy::RowsThroughout`] — stay on `[block, *]`; the vertical
//!   phase pays halo-row traffic every sweep.  Its schedule comes from the
//!   multi-dimensional compile-time analysis: **zero planning messages,
//!   zero inspector runs** (the `multidim` table asserts this).
//! * [`PhaseStrategy::PhaseChange`] — redistribute the live field to
//!   `[*, block]` before each vertical phase and back before each
//!   horizontal phase; every stencil reference becomes local and all
//!   communication moves into the two redistributions, whose cost the
//!   per-phase [`CommReport`]s expose.
//!
//! Both stencils run through [`Session::execute_rows`]: the body gets a
//! run of consecutive iterations and computes it one field row at a time,
//! reading the three referenced stretches of each row as slices
//! ([`Fetcher::rows`](kali_core::Fetcher::rows)) — from local storage or,
//! for the halo rows of the vertical stencil under `[block, *]`, from the
//! receive buffer, whose records hold whole rows.  A row piece no single
//! owned run or record holds (a placement whose runs are too short to be
//! offered) is fetched element by element.  Either way the body charges
//! exactly what the three-fetch point body charges, so counters and
//! simulated clocks are those of a body that runs an iteration at a time.
//!
//! Both strategies perform the same floating-point operations in the same
//! order, so their results — and the results on every backend — are
//! bit-identical to the sequential replay ([`multidim_sequential`]).

use distrib::{ArrayDist, FlatDist};
use kali_core::process::{Counters, Process};
use kali_core::{MultiAffineMap, Rect, Session};

use crate::adaptive::scatter_field;
use crate::report::CommReport;

/// How the field is placed across the phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhaseStrategy {
    /// `dist by [block, *]` throughout: vertical sweeps pay row halos.
    #[default]
    RowsThroughout,
    /// Redistribute `[block, *]` ↔ `[*, block]` between phases so every
    /// stencil is fully local; communication becomes redistribution.
    PhaseChange,
}

impl PhaseStrategy {
    /// Short name for table rows.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseStrategy::RowsThroughout => "rows-throughout",
            PhaseStrategy::PhaseChange => "phase-change",
        }
    }
}

/// Parameters of a 2-D phase-change run.
#[derive(Debug, Clone, Copy)]
pub struct MultiDimConfig {
    /// Field height (dimension 0).
    pub rows: usize,
    /// Field width (dimension 1).
    pub cols: usize,
    /// Number of (vertical phase, horizontal phase) rounds.
    pub rounds: usize,
    /// Sweeps per phase.
    pub sweeps_per_phase: usize,
    /// Placement strategy across phases.
    pub strategy: PhaseStrategy,
}

impl MultiDimConfig {
    /// A configuration with the given field shape and defaults otherwise.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "the stencils need interior points");
        MultiDimConfig {
            rows,
            cols,
            rounds: 2,
            sweeps_per_phase: 4,
            strategy: PhaseStrategy::default(),
        }
    }

    /// Total number of stencil sweeps the run performs.
    pub fn total_sweeps(&self) -> usize {
        self.rounds * self.sweeps_per_phase * 2
    }
}

/// Per-rank, per-phase statistics, merged across rounds by label.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label ("vertical", "horizontal", "redistribute").
    pub label: &'static str,
    /// Simulated seconds spent in the phase on this rank.
    pub time: f64,
    /// Operation counters accumulated in the phase on this rank.
    pub counters: Counters,
    /// Elements this rank receives per stencil sweep in the phase (the
    /// schedule's halo size; 0 for redistribution phases).
    pub halo_elements: usize,
}

/// Per-processor result of a 2-D phase-change run.
#[derive(Debug, Clone)]
pub struct MultiDimOutcome {
    /// Final values of the locally owned elements under the final
    /// `[block, *]` placement (both strategies end there), in local
    /// row-major order.
    pub local_a: Vec<f64>,
    /// Total simulated seconds of the run on this processor.
    pub total_time: f64,
    /// Operation counters of the whole run on this processor.
    pub counters: Counters,
    /// Schedule-cache misses — inspector executions.  Both stencils are
    /// planned by the multi-dimensional compile-time analysis, so this is
    /// 0 on every rank; the `multidim` table asserts it.
    pub cache_misses: u64,
    /// Schedule-cache hits (also 0: the closed-form path bypasses the
    /// cache entirely).
    pub cache_hits: u64,
    /// Per-phase breakdown, merged across rounds.
    pub phases: Vec<PhaseStats>,
}

/// The `[block, *]` placement both strategies start and end on.
pub fn row_placement(config: &MultiDimConfig, nprocs: usize) -> FlatDist {
    FlatDist::new(ArrayDist::block_rows(config.rows, config.cols, nprocs))
}

/// The `[*, block]` placement the phase-change strategy uses for vertical
/// sweeps.
pub fn col_placement(config: &MultiDimConfig, nprocs: usize) -> FlatDist {
    FlatDist::new(ArrayDist::block_cols(config.rows, config.cols, nprocs))
}

fn record_phase(
    phases: &mut Vec<PhaseStats>,
    label: &'static str,
    time: f64,
    counters: Counters,
    halo_elements: usize,
) {
    if let Some(p) = phases.iter_mut().find(|p| p.label == label) {
        p.time += time;
        p.counters = p.counters.merge(&counters);
        p.halo_elements = p.halo_elements.max(halo_elements);
    } else {
        phases.push(PhaseStats {
            label,
            time,
            counters,
            halo_elements,
        });
    }
}

/// Run the 2-D phase-change program, collectively.  `initial` is the
/// globally replicated `rows × cols` starting field in row-major order.
pub fn multidim_sweeps<P: Process>(
    proc: &mut P,
    config: &MultiDimConfig,
    initial: &[f64],
) -> MultiDimOutcome {
    let (r, c) = (config.rows, config.cols);
    assert_eq!(initial.len(), r * c, "initial field must cover the array");
    let rank = proc.rank();
    let nprocs = proc.nprocs();

    let rows_dist = row_placement(config, nprocs);
    let cols_dist = col_placement(config, nprocs);

    // The two stencil loops.  Vertical: interior rows, every column;
    // horizontal: every row, interior columns.  Both reference patterns are
    // separable unit-stride shifts, so planning always takes the
    // compile-time path — zero messages, zero inspector runs.
    let v_space = Rect::full(&[r, c]).restrict(0, 1, r - 1);
    let h_space = Rect::full(&[r, c]).restrict(1, 1, c - 1);
    let v_refs = [
        MultiAffineMap::shifts(&[-1, 0]),
        MultiAffineMap::identity(2),
        MultiAffineMap::shifts(&[1, 0]),
    ];
    let h_refs = [
        MultiAffineMap::shifts(&[0, -1]),
        MultiAffineMap::identity(2),
        MultiAffineMap::shifts(&[0, 1]),
    ];

    // Scatter the initial field to the starting [block, *] placement.
    let mut a = scatter_field(&rows_dist, rank, initial);

    let mut session = Session::new();
    let mut phases: Vec<PhaseStats> = Vec::new();
    let start_clock = proc.time();
    let counters_start = proc.counters();

    // Plan each stencil once, up front: the loops, placements and reference
    // patterns never change across rounds, so re-planning per phase would
    // only repeat the (free, but not gratis) closed-form set computation.
    let v_dist = match config.strategy {
        PhaseStrategy::RowsThroughout => &rows_dist,
        PhaseStrategy::PhaseChange => &cols_dist,
    };
    let loop_v = session.loop_over(v_space, v_dist.clone());
    let schedule_v = session.plan(proc, &loop_v, v_dist, &v_refs);
    let loop_h = session.loop_over(h_space, rows_dist.clone());
    let schedule_h = session.plan(proc, &loop_h, &rows_dist, &h_refs);

    // One stencil phase: `sweeps_per_phase` sweeps of a pre-planned stencil
    // under `dist`, double-buffered through `old_a`.
    macro_rules! stencil_phase {
        ($label:literal, $loop_:expr, $schedule:expr, $dist:expr, $stride:expr) => {{
            let phase_clock = proc.time();
            let phase_counters = proc.counters();
            let dist = $dist;
            let loop_ = &$loop_;
            let schedule = &$schedule;
            let halo = schedule.recv_len;
            let mut old_a = vec![0.0f64; a.len()];
            for _ in 0..config.sweeps_per_phase {
                // forall on old_a[i,j].loc do old_a[i,j] := a[i,j] (aligned).
                for l in 0..a.len() {
                    proc.charge_loop_iters(1);
                    proc.charge_mem_refs(2);
                    old_a[l] = a[l];
                }
                session.execute_rows(
                    proc,
                    loop_,
                    schedule,
                    dist,
                    &old_a,
                    |run, fetch| {
                        let mut values = Vec::with_capacity(run.len());
                        // One field row at a time: a halo record holds
                        // whole rows, so a stretch inside one row lies in
                        // one owned run or one record.
                        let mut g = run.start;
                        while g < run.end {
                            let len = (run.end - g).min(c - g % c);
                            match fetch.rows([g - $stride, g, g + $stride], len) {
                                Some([lo, mid, hi]) => values.extend(
                                    lo.iter()
                                        .zip(mid)
                                        .zip(hi)
                                        .map(|((lo, mid), hi)| 0.25 * lo + 0.5 * mid + 0.25 * hi),
                                ),
                                None => values.extend((g..g + len).map(|g| {
                                    let lo = fetch.fetch(g - $stride);
                                    let mid = fetch.fetch(g);
                                    let hi = fetch.fetch(g + $stride);
                                    0.25 * lo + 0.5 * mid + 0.25 * hi
                                })),
                            }
                            g += len;
                        }
                        fetch.charge_flops(5 * run.len());
                        fetch.charge_mem_refs(run.len());
                        (fetch.home(), values)
                    },
                    |_, (l, values): (usize, Vec<f64>)| {
                        a[l..l + values.len()].copy_from_slice(&values)
                    },
                );
            }
            record_phase(
                &mut phases,
                $label,
                proc.time() - phase_clock,
                proc.counters().since(&phase_counters),
                halo,
            );
        }};
    }

    // Redistribute the live field between placements; the session tags each
    // move with its next epoch.
    macro_rules! redistribute_phase {
        ($from:expr, $to:expr) => {{
            let phase_clock = proc.time();
            let phase_counters = proc.counters();
            a = session.redistribute(proc, $from, $to, &a);
            record_phase(
                &mut phases,
                "redistribute",
                proc.time() - phase_clock,
                proc.counters().since(&phase_counters),
                0,
            );
        }};
    }

    for _round in 0..config.rounds {
        match config.strategy {
            PhaseStrategy::RowsThroughout => {
                stencil_phase!("vertical", loop_v, schedule_v, &rows_dist, c);
                stencil_phase!("horizontal", loop_h, schedule_h, &rows_dist, 1);
            }
            PhaseStrategy::PhaseChange => {
                // Columns local for the vertical stencil, rows local for the
                // horizontal one: each phase runs on the placement that makes
                // it communication free.
                redistribute_phase!(&rows_dist, &cols_dist);
                stencil_phase!("vertical", loop_v, schedule_v, &cols_dist, c);
                redistribute_phase!(&cols_dist, &rows_dist);
                stencil_phase!("horizontal", loop_h, schedule_h, &rows_dist, 1);
            }
        }
    }

    let stats = session.stats();
    MultiDimOutcome {
        local_a: a,
        total_time: proc.time() - start_clock,
        counters: proc.counters().since(&counters_start),
        cache_misses: stats.cache.misses,
        cache_hits: stats.cache.hits,
        phases,
    }
}

/// Sequential replay of the same program: identical phase order, identical
/// arithmetic — the distributed results match this bit for bit on every
/// backend under either strategy (the strategy only moves data, never
/// changes an operation).
pub fn multidim_sequential(config: &MultiDimConfig, initial: &[f64]) -> Vec<f64> {
    let (r, c) = (config.rows, config.cols);
    assert_eq!(initial.len(), r * c);
    let mut a = initial.to_vec();
    let mut old = vec![0.0f64; r * c];
    for _round in 0..config.rounds {
        for _ in 0..config.sweeps_per_phase {
            old.copy_from_slice(&a);
            for i in 1..r - 1 {
                for j in 0..c {
                    let g = i * c + j;
                    a[g] = 0.25 * old[g - c] + 0.5 * old[g] + 0.25 * old[g + c];
                }
            }
        }
        for _ in 0..config.sweeps_per_phase {
            old.copy_from_slice(&a);
            for i in 0..r {
                for j in 1..c - 1 {
                    let g = i * c + j;
                    a[g] = 0.25 * old[g - 1] + 0.5 * old[g] + 0.25 * old[g + 1];
                }
            }
        }
    }
    a
}

/// A deterministic `rows × cols` starting field for demos and tests.
pub fn multidim_field(rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols)
        .map(|g| {
            let (i, j) = (g / cols, g % cols);
            ((i * 31 + j * 17) % 23) as f64 * 0.125
        })
        .collect()
}

/// Machine-wide per-phase [`CommReport`]s: counters summed across ranks,
/// one report per phase label, in the order the phases first ran.
pub fn phase_comm_reports(outcomes: &[MultiDimOutcome]) -> Vec<(String, CommReport)> {
    let mut reports: Vec<(String, CommReport)> = Vec::new();
    for outcome in outcomes {
        for phase in &outcome.phases {
            let slot = match reports.iter_mut().find(|(l, _)| l == phase.label) {
                Some((_, r)) => r,
                None => {
                    reports.push((phase.label.to_string(), CommReport::default()));
                    &mut reports.last_mut().expect("just pushed").1
                }
            };
            slot.messages += phase.counters.msgs_sent;
            slot.bytes += phase.counters.bytes_sent;
            slot.nonlocal_refs += phase.counters.nonlocal_refs;
            slot.halo_elements += phase.halo_elements;
            slot.wire_bytes += phase.counters.wire_bytes;
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::gather_global;
    use dmsim::{CostModel, Machine};

    fn run_on_dmsim(
        nprocs: usize,
        config: &MultiDimConfig,
        cost: CostModel,
    ) -> (Vec<f64>, Vec<MultiDimOutcome>) {
        let initial = multidim_field(config.rows, config.cols);
        let machine = Machine::new(nprocs, cost);
        let outcomes = machine.run(|proc| multidim_sweeps(proc, config, &initial));
        let final_dist = row_placement(config, nprocs);
        let locals: Vec<Vec<f64>> = outcomes.iter().map(|o| o.local_a.clone()).collect();
        (gather_global(&final_dist, &locals), outcomes)
    }

    #[test]
    fn both_strategies_match_the_sequential_replay_bitwise() {
        for (rows, cols, nprocs) in [(12, 10, 4), (9, 16, 3), (8, 8, 1)] {
            let mut config = MultiDimConfig::new(rows, cols);
            config.rounds = 2;
            config.sweeps_per_phase = 3;
            let expected = multidim_sequential(&config, &multidim_field(rows, cols));
            for strategy in [PhaseStrategy::RowsThroughout, PhaseStrategy::PhaseChange] {
                config.strategy = strategy;
                let (got, _) = run_on_dmsim(nprocs, &config, CostModel::ideal());
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{rows}x{cols} on {nprocs} procs, {}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn planning_never_runs_the_inspector() {
        let mut config = MultiDimConfig::new(16, 12);
        config.strategy = PhaseStrategy::PhaseChange;
        let (_, outcomes) = run_on_dmsim(4, &config, CostModel::ideal());
        for o in &outcomes {
            assert_eq!(o.cache_misses, 0, "stencils must plan compile-time");
            assert_eq!(o.cache_hits, 0);
        }
    }

    #[test]
    fn rows_throughout_pays_row_halos_only_in_the_vertical_phase() {
        let config = MultiDimConfig::new(16, 10);
        let (_, outcomes) = run_on_dmsim(4, &config, CostModel::ncube7());
        let total_vertical_halo: usize = outcomes
            .iter()
            .flat_map(|o| &o.phases)
            .filter(|p| p.label == "vertical")
            .map(|p| p.halo_elements)
            .sum();
        // 3 interior block boundaries, one boundary row (10 elements) in
        // each direction across each: 6 rows of 10.
        assert_eq!(total_vertical_halo, 60);
        for o in &outcomes {
            let horizontal = o.phases.iter().find(|p| p.label == "horizontal").unwrap();
            assert_eq!(horizontal.halo_elements, 0, "horizontal phase is local");
            assert_eq!(horizontal.counters.msgs_sent, 0);
            assert!(o.phases.iter().all(|p| p.label != "redistribute"));
        }
    }

    #[test]
    fn phase_change_moves_all_traffic_into_the_redistributions() {
        let mut config = MultiDimConfig::new(16, 10);
        config.strategy = PhaseStrategy::PhaseChange;
        let (_, outcomes) = run_on_dmsim(4, &config, CostModel::ncube7());
        for o in &outcomes {
            for phase in &o.phases {
                if phase.label == "redistribute" {
                    continue;
                }
                assert_eq!(
                    phase.counters.msgs_sent, 0,
                    "{} phase must be communication free",
                    phase.label
                );
                assert_eq!(phase.halo_elements, 0);
            }
        }
        let redistributed: u64 = outcomes
            .iter()
            .flat_map(|o| &o.phases)
            .filter(|p| p.label == "redistribute")
            .map(|p| p.counters.msgs_sent)
            .sum();
        assert!(redistributed > 0, "the field really moves between phases");
    }

    #[test]
    fn phase_reports_aggregate_across_ranks() {
        let mut config = MultiDimConfig::new(12, 12);
        config.strategy = PhaseStrategy::PhaseChange;
        let (_, outcomes) = run_on_dmsim(3, &config, CostModel::ncube7());
        let reports = phase_comm_reports(&outcomes);
        let labels: Vec<&str> = reports.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["redistribute", "vertical", "horizontal"]);
        let redistribute = &reports[0].1;
        assert!(redistribute.messages > 0);
        assert!(redistribute.bytes > 0);
        let vertical = &reports[1].1;
        assert_eq!(vertical.messages, 0);
    }

    #[test]
    fn nonlocal_refs_are_charged_only_under_rows_throughout() {
        let rows = MultiDimConfig::new(16, 8);
        let (_, rows_out) = run_on_dmsim(4, &rows, CostModel::ncube7());
        let mut change = rows;
        change.strategy = PhaseStrategy::PhaseChange;
        let (_, change_out) = run_on_dmsim(4, &change, CostModel::ncube7());
        let nonlocal =
            |os: &[MultiDimOutcome]| -> u64 { os.iter().map(|o| o.counters.nonlocal_refs).sum() };
        assert!(
            nonlocal(&rows_out) > 0,
            "halo fetches go through the buffer"
        );
        assert_eq!(
            nonlocal(&change_out),
            0,
            "phase change keeps every reference local"
        );
    }
}

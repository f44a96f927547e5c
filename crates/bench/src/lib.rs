//! # bench-tables — regenerating the paper's evaluation
//!
//! Every table of the paper (Figures 7–10), the claims of §1, §3.2 and §4,
//! and the extension and verification sweeps are entries of [`TABLES`]: each
//! re-runs its experiment (on the simulated NCUBE/7 / iPSC/2 machines unless
//! it says otherwise), prints the measured rows — next to the paper's
//! published numbers where there are any — and reports whether the claims
//! it checks held.  One binary runs them by name:
//!
//! ```text
//! cargo run --release --bin tables -- [--smoke] <name>… | all
//! ```
//!
//! `--smoke` shrinks every table to the size CI runs; the shape of every
//! trend is preserved.  Criterion micro-benchmarks for the ablations
//! (schedule lookup, crystal router vs direct exchange, compile-time vs
//! run-time analysis, schedule caching) live in `benches/`.
//!
//! | name | claim | what it runs |
//! |------|-------|--------------|
//! | `fig7`  | Figure 7 | NCUBE/7, 128², P = 2…128 |
//! | `fig8`  | Figure 8 | iPSC/2, 128², P = 2…32 |
//! | `fig9`  | Figure 9 | NCUBE/7, P = 128, 64²…1024² |
//! | `fig10` | Figure 10 | iPSC/2, P = 32, 64²…1024² |
//! | `single-sweep` | §4 narrative | worst-case inspector overhead |
//! | `inspector-breakdown` | §4 narrative | U-shaped inspector curve |
//! | `amortization` | §3.2 claim | schedule-cache amortisation |
//! | `kali-vs-handcoded` | §1 claim | Kali vs hand-written message passing |
//! | `compile-vs-runtime` | §3.2 claim | compile-time vs inspector planning of the Figure 1 shift |
//! | `partition-locality` | extension | block vs partitioned placement on scrambled meshes |
//! | `adaptation` | extension | §3.2 amortisation under adaptive-mesh churn (sweep over the adaptation interval k) |
//! | `multidim` | extension | 2-D `[block, *]` stencils: compile-time planning vs inspector fallback, and the row↔column phase-change redistribution |
//! | `solvers` | extension | Session & typed reductions: CG and red–black Gauss–Seidel with bit-identical histories, inspector amortisation and exact per-reduction message accounting |
//! | `collectives` | extension | communication fast paths: tree allreduce `2(P−1)` vs flat allgather-fold `P·(P−1)` message scaling across P, and the stripe planner's zero-message red–black planning on chain meshes |
//! | `native-scaling` | extension | native Jacobi wall clock at 1, 2, 4 and 8 intra-rank workers, bitwise identical fields |
//! | `verify` | correctness tooling | static verification sweep: schedule duality (and with it deadlock freedom) for every solver/distribution/backend configuration, and the live allreduce against its replay at every P up to 33 (65 at full size) |
//! | `mc` | correctness tooling | trace-level check that every message of the recorded event traces was received, for every solver/distribution configuration on dmsim, native and mp, whose results must agree bit for bit |

#![forbid(unsafe_code)]

use dmsim::{CostModel, Process};
use solvers::{Case, ExperimentParams, ExperimentRow, Placement, Program, Run};
use std::process::ExitCode;

/// One table of the evaluation: its name on the `tables` command line and
/// the function that prints it, at full size or (`smoke`) at CI size.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// The name `tables` runs it by.
    pub name: &'static str,
    /// Print the table; `false` when a claim it checks did not hold.
    pub run: fn(smoke: bool) -> bool,
}

impl Table {
    const fn new(name: &'static str, run: fn(smoke: bool) -> bool) -> Table {
        Table { name, run }
    }
}

/// Every table, in the order `tables all` runs them.
pub const TABLES: &[Table] = &[
    Table::new("fig7", |smoke| {
        let title = "Figure 7: NCUBE/7, varying processors (128x128, 100 sweeps)";
        print_table(title, &measure_fig7(smoke), PAPER_FIG7_NCUBE_PROCS)
    }),
    Table::new("fig8", |smoke| {
        let title = "Figure 8: iPSC/2, varying processors (128x128, 100 sweeps)";
        print_table(title, &measure_fig8(smoke), PAPER_FIG8_IPSC_PROCS)
    }),
    Table::new("fig9", |smoke| {
        let title = "Figure 9: NCUBE/7, varying problem size (128 processors, 100 sweeps)";
        print_table(title, &measure_fig9(smoke), PAPER_FIG9_NCUBE_MESH)
    }),
    Table::new("fig10", |smoke| {
        let title = "Figure 10: iPSC/2, varying problem size (32 processors, 100 sweeps)";
        print_table(title, &measure_fig10(smoke), PAPER_FIG10_IPSC_MESH)
    }),
    Table::new("single-sweep", run_single_sweep),
    Table::new("inspector-breakdown", run_inspector_breakdown),
    Table::new("amortization", run_amortization),
    Table::new("kali-vs-handcoded", run_kali_vs_handcoded),
    Table::new("compile-vs-runtime", run_compile_vs_runtime),
    Table::new("partition-locality", run_partition_locality),
    Table::new("adaptation", run_adaptation),
    Table::new("multidim", run_multidim),
    Table::new("solvers", run_solvers),
    Table::new("collectives", run_collectives),
    Table::new("native-scaling", run_native_scaling),
    Table::new("verify", run_verify_all),
    Table::new("mc", run_mc_all),
];

/// The `tables` command line, `[--smoke] <name>… | all`: run the named
/// tables in the order named (`all` is every entry of [`TABLES`], in list
/// order), each to the end, and exit 1 if any failed.  An unknown name, or
/// none, prints the usage with every name and exits 2 before anything runs.
pub fn dispatch(args: impl IntoIterator<Item = String>) -> ExitCode {
    ExitCode::from(run_tables(TABLES, &args.into_iter().collect::<Vec<_>>()))
}

/// [`dispatch`] over `tables`, returning the exit status.
fn run_tables(tables: &[Table], args: &[String]) -> u8 {
    match select(tables, args) {
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
        Ok((smoke, chosen)) => {
            let failed = chosen.iter().filter(|t| !(t.run)(smoke)).count();
            u8::from(failed > 0)
        }
    }
}

/// The entries of `tables` that `args` names, in order, and whether
/// `--smoke` was given anywhere among them; the usage text on an unknown
/// name or none.
fn select<'t>(tables: &'t [Table], args: &[String]) -> Result<(bool, Vec<&'t Table>), String> {
    let usage = |problem: &str| {
        let names: Vec<&str> = tables.iter().map(|t| t.name).collect();
        format!(
            "tables: {problem}\nusage: tables [--smoke] <name>... | all\nnames: {}",
            names.join(" ")
        )
    };
    let (mut smoke, mut chosen) = (false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "all" => chosen.extend(tables),
            name => match tables.iter().find(|t| t.name == name) {
                Some(table) => chosen.push(table),
                None => return Err(usage(&format!("unknown table `{name}`"))),
            },
        }
    }
    if chosen.is_empty() {
        return Err(usage("no table named"));
    }
    Ok((smoke, chosen))
}

/// One published row of a paper table, for side-by-side printing.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Number of processors in the row.
    pub procs: usize,
    /// Mesh side length.
    pub mesh_side: usize,
    /// Total time in seconds as published.
    pub total: f64,
    /// Executor time in seconds as published.
    pub executor: f64,
    /// Inspector time in seconds as published.
    pub inspector: f64,
    /// Published speedup (0.0 when the table has no speedup column).
    pub speedup: f64,
}

/// Figure 7: NCUBE/7, 100 sweeps, 128×128 mesh, varying processors.
pub const PAPER_FIG7_NCUBE_PROCS: &[PaperRow] = &[
    PaperRow {
        procs: 2,
        mesh_side: 128,
        total: 246.07,
        executor: 244.04,
        inspector: 2.03,
        speedup: 0.0,
    },
    PaperRow {
        procs: 4,
        mesh_side: 128,
        total: 127.46,
        executor: 126.12,
        inspector: 1.34,
        speedup: 0.0,
    },
    PaperRow {
        procs: 8,
        mesh_side: 128,
        total: 68.38,
        executor: 67.28,
        inspector: 1.10,
        speedup: 0.0,
    },
    PaperRow {
        procs: 16,
        mesh_side: 128,
        total: 38.95,
        executor: 37.88,
        inspector: 1.07,
        speedup: 0.0,
    },
    PaperRow {
        procs: 32,
        mesh_side: 128,
        total: 24.36,
        executor: 23.21,
        inspector: 1.15,
        speedup: 0.0,
    },
    PaperRow {
        procs: 64,
        mesh_side: 128,
        total: 17.71,
        executor: 16.42,
        inspector: 1.29,
        speedup: 0.0,
    },
    PaperRow {
        procs: 128,
        mesh_side: 128,
        total: 12.64,
        executor: 11.19,
        inspector: 1.45,
        speedup: 0.0,
    },
];

/// Figure 8: iPSC/2, 100 sweeps, 128×128 mesh, varying processors.
pub const PAPER_FIG8_IPSC_PROCS: &[PaperRow] = &[
    PaperRow {
        procs: 2,
        mesh_side: 128,
        total: 60.69,
        executor: 60.34,
        inspector: 0.34,
        speedup: 0.0,
    },
    PaperRow {
        procs: 4,
        mesh_side: 128,
        total: 31.20,
        executor: 31.02,
        inspector: 0.18,
        speedup: 0.0,
    },
    PaperRow {
        procs: 8,
        mesh_side: 128,
        total: 16.23,
        executor: 16.13,
        inspector: 0.10,
        speedup: 0.0,
    },
    PaperRow {
        procs: 16,
        mesh_side: 128,
        total: 8.88,
        executor: 8.82,
        inspector: 0.06,
        speedup: 0.0,
    },
    PaperRow {
        procs: 32,
        mesh_side: 128,
        total: 5.27,
        executor: 5.23,
        inspector: 0.04,
        speedup: 0.0,
    },
];

/// Figure 9: NCUBE/7, 100 sweeps on 128 processors, varying mesh size.
pub const PAPER_FIG9_NCUBE_MESH: &[PaperRow] = &[
    PaperRow {
        procs: 128,
        mesh_side: 64,
        total: 4.97,
        executor: 3.56,
        inspector: 1.38,
        speedup: 23.9,
    },
    PaperRow {
        procs: 128,
        mesh_side: 128,
        total: 12.64,
        executor: 11.19,
        inspector: 1.45,
        speedup: 37.3,
    },
    PaperRow {
        procs: 128,
        mesh_side: 256,
        total: 34.13,
        executor: 32.52,
        inspector: 1.61,
        speedup: 55.2,
    },
    PaperRow {
        procs: 128,
        mesh_side: 512,
        total: 93.78,
        executor: 91.68,
        inspector: 2.10,
        speedup: 80.4,
    },
    PaperRow {
        procs: 128,
        mesh_side: 1024,
        total: 305.03,
        executor: 301.31,
        inspector: 3.72,
        speedup: 98.9,
    },
];

/// Figure 10: iPSC/2, 100 sweeps on 32 processors, varying mesh size.
pub const PAPER_FIG10_IPSC_MESH: &[PaperRow] = &[
    PaperRow {
        procs: 32,
        mesh_side: 64,
        total: 1.88,
        executor: 1.86,
        inspector: 0.02,
        speedup: 15.7,
    },
    PaperRow {
        procs: 32,
        mesh_side: 128,
        total: 5.27,
        executor: 5.23,
        inspector: 0.04,
        speedup: 22.5,
    },
    PaperRow {
        procs: 32,
        mesh_side: 256,
        total: 17.65,
        executor: 17.54,
        inspector: 0.11,
        speedup: 26.8,
    },
    PaperRow {
        procs: 32,
        mesh_side: 512,
        total: 65.17,
        executor: 64.79,
        inspector: 0.38,
        speedup: 29.1,
    },
    PaperRow {
        procs: 32,
        mesh_side: 1024,
        total: 249.75,
        executor: 248.34,
        inspector: 1.41,
        speedup: 30.3,
    },
];

/// Print one reproduced table with the paper's numbers interleaved; `true`,
/// as the figures check no claim of their own.
pub fn print_table(title: &str, rows: &[ExperimentRow], paper: &[PaperRow]) -> bool {
    println!("\n=== {title} ===");
    println!(
        "{}",
        ExperimentRow::table_header(rows.iter().any(|r| r.speedup.is_some()))
    );
    for row in rows {
        println!("{}", row.to_table_line());
        if let Some(p) = paper
            .iter()
            .find(|p| p.procs == row.nprocs && p.mesh_side == row.mesh_side)
        {
            let overhead = if p.total > 0.0 {
                p.inspector / p.total * 100.0
            } else {
                0.0
            };
            let speedup = if p.speedup > 0.0 {
                format!("  {:8.1}", p.speedup)
            } else {
                String::new()
            };
            println!(
                "{:>10}  {:>6}  {:>9}  {:>12.2}  {:>13.2}  {:>14.2}  {:>10.1}%{}",
                "(paper)",
                p.procs,
                format!("{0}x{0}", p.mesh_side),
                p.total,
                p.executor,
                p.inspector,
                overhead,
                speedup
            );
        }
    }
    // The columns round to 10 ms; this hash of the rows' exact clocks
    // carries every bit of them into the output, so a change to a single
    // modeled operation's price shows in the golden files.
    let exact = rows
        .iter()
        .flat_map(|r| [r.times.total, r.times.executor, r.times.inspector])
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, t| {
            (h ^ t.to_bits()).wrapping_mul(0x100_0000_01b3)
        });
    println!("{:>10}  exact clocks {exact:016x}", "(bits)");
    true
}

/// The scrambled-numbering unstructured `side`×`side` mesh the extension
/// tables and the verification sweeps run on.
fn scrambled_mesh(side: usize) -> meshes::AdjacencyMesh {
    meshes::UnstructuredMeshBuilder::new(side, side)
        .seed(1990)
        .scramble_numbering(true)
        .build()
}

/// Run the block-vs-partitioned locality experiment
/// (`partition-locality`) and print its table: the same Jacobi
/// program on a scrambled unstructured mesh under both placements, with the
/// dmsim locality counters cited via [`solvers::CommReport`].
///
/// Returns `true` when the partitioned placement is strictly lower on both
/// nonlocal references and message volume (the experiment's acceptance
/// criterion); callers decide whether that is fatal.
pub fn run_partition_locality(smoke: bool) -> bool {
    let (side, nprocs, sweeps) = if smoke { (24, 8, 10) } else { (48, 16, 100) };
    let mesh = scrambled_mesh(side);
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 29) % 23) as f64 * 0.1)
        .collect();

    println!(
        "\n=== Node placement on a scrambled {side}x{side} unstructured mesh \
         (NCUBE/7, {nprocs} processors, {sweeps} sweeps) ==="
    );
    let owners = meshes::greedy_partition(&mesh, nprocs);
    let block_owners: Vec<usize> = meshes::block_partition(mesh.len(), nprocs);
    println!(
        "mesh: {} nodes, {} directed edges; cut edges: block {}, partitioned {}",
        mesh.len(),
        mesh.edge_count(),
        meshes::cut_edges(&mesh, &block_owners),
        meshes::cut_edges(&mesh, &owners),
    );

    let params = ExperimentParams {
        mesh_side: side,
        sweeps,
        ..ExperimentParams::paper_processor_row(CostModel::ncube7(), nprocs)
    };

    println!(
        "\n{:>12}  {:>12}  {}",
        "placement",
        "total (s)",
        solvers::CommReport::table_header()
    );
    let mut rows = Vec::new();
    for placement in [Placement::Block, Placement::Partitioned] {
        let row = solvers::run_jacobi_experiment_placed(&params, &mesh, &initial, &placement);
        println!(
            "{:>12}  {:>12.4}  {}",
            placement.name(),
            row.times.total,
            row.comm.to_table_line()
        );
        rows.push(row);
    }

    let (block, part) = (&rows[0].comm, &rows[1].comm);
    let lower = part.nonlocal_refs < block.nonlocal_refs && part.bytes < block.bytes;
    println!(
        "\npartitioned vs block: nonlocal refs x{:.2}, bytes x{:.2}, simulated time x{:.2}",
        part.nonlocal_refs as f64 / block.nonlocal_refs as f64,
        part.bytes as f64 / block.bytes as f64,
        rows[1].times.total / rows[0].times.total,
    );
    if lower {
        println!(
            "OK: partitioned placement strictly reduces nonlocal references and message volume"
        );
    } else {
        println!("FAIL: partitioned placement did not reduce communication");
    }
    lower
}

/// Run the adaptive-mesh amortisation experiment (`adaptation`) and
/// print its table: the same Jacobi program under deterministic mesh churn,
/// sweeping the adaptation interval `k` (`None` = static mesh).  Every
/// configuration rebalances the placement after each adaptation and runs on
/// both backends.
///
/// Returns `true` when every invariant holds: inspector cost per sweep
/// falls monotonically with `k`, peak schedule-cache residency stays within
/// the configured bound, and the dmsim field, the native field and the
/// sequential replay agree bit for bit.  Callers decide whether a `false`
/// is fatal.
pub fn run_adaptation(smoke: bool) -> bool {
    use dmsim::Machine;
    use solvers::{jacobi_sweeps, JacobiConfig};

    let (side, nprocs, sweeps, intervals): (usize, usize, usize, Vec<Option<usize>>) = if smoke {
        (8, 2, 8, vec![Some(1), Some(2), Some(4), None])
    } else {
        // 128 sweeps so even k = 64 performs an adaptation (the curve then
        // falls strictly all the way to the static-mesh run).
        (32, 8, 128, vec![Some(1), Some(4), Some(16), Some(64), None])
    };
    let cache_capacity = 4usize;

    let mesh = scrambled_mesh(side);
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 29) % 23) as f64 * 0.1)
        .collect();
    let case = Case::new(&mesh, Placement::Partitioned, &initial);

    println!(
        "\n=== Adaptive-mesh amortisation (NCUBE/7, {side}x{side} scrambled mesh, \
         {nprocs} processors, {sweeps} sweeps, rebalancing, cache bound {cache_capacity}) ==="
    );
    println!(
        "{:>8}  {:>7}  {:>13}  {:>16}  {:>10}  {:>6}  {:>6}  {:>6}  {:>9}  {:>10}",
        "k",
        "adapts",
        "inspector (s)",
        "inspector/sweep",
        "adapt (s)",
        "hits",
        "miss",
        "evict",
        "peak res",
        "res bytes"
    );

    let mut per_sweep = Vec::new();
    let mut ok = true;
    for k in &intervals {
        let config = JacobiConfig {
            sweeps,
            adapt_every: *k,
            rebalance: true,
            cache_capacity,
            ..JacobiConfig::default()
        };

        // Times and resident bytes from the outcomes, the rest from the runs.
        let outcomes = Machine::new(nprocs, CostModel::ncube7()).run(|proc| {
            let dist = case.placement.on_rank(proc, &mesh);
            jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let inspector = outcomes
            .iter()
            .map(|o| o.inspector_time)
            .fold(0.0f64, f64::max);
        let adapt = outcomes.iter().map(|o| o.adapt_time).fold(0.0f64, f64::max);
        let resident_bytes: usize = outcomes.iter().map(|o| o.cache_resident_bytes).sum();
        let runs: Vec<Run> = outcomes.into_iter().map(Run::from).collect();
        let label = k.map(|v| v.to_string()).unwrap_or_else(|| "inf".into());
        let (native, agreed) = check_agreement(
            &format!("k={label}"),
            &Program::Jacobi(config),
            &case,
            &runs,
        );
        ok &= agreed;

        // Residency is an invariant of the runtime, not of one backend:
        // take the peak over *both* runs so a native-side eviction
        // regression cannot slip past the CI gate.
        let peak_resident = runs
            .iter()
            .chain(&native)
            .map(|r| r.count("cache_peak_resident"))
            .max()
            .unwrap_or(0);
        let total = |name| runs.iter().map(|r| r.count(name)).sum::<u64>();
        let ips = inspector / sweeps as f64;
        println!(
            "{:>8}  {:>7}  {:>13.4}  {:>16.6}  {:>10.4}  {:>6}  {:>6}  {:>6}  {:>9}  {:>10}",
            label,
            runs[0].count("adaptations"),
            inspector,
            ips,
            adapt,
            total("cache_hits"),
            total("cache_misses"),
            total("cache_evictions"),
            peak_resident,
            resident_bytes
        );
        per_sweep.push(ips);

        if peak_resident > cache_capacity as u64 {
            println!(
                "FAIL: k={label}: peak residency {peak_resident} exceeds the bound \
                 {cache_capacity}"
            );
            ok = false;
        }
    }

    // The amortisation curve: inspector cost per sweep falls monotonically
    // as the adaptation interval grows.
    for (i, w) in per_sweep.windows(2).enumerate() {
        if w[1] >= w[0] {
            println!(
                "FAIL: inspector cost per sweep did not fall from interval #{i} to #{}: \
                 {per_sweep:?}",
                i + 1
            );
            ok = false;
        }
    }

    if ok {
        println!(
            "\nOK: inspector cost per sweep falls monotonically with the adaptation interval, \
             residency stays within the bound, and dmsim, native and sequential replay agree \
             bit for bit"
        );
    }
    ok
}

/// Check `program`'s dmsim `runs` on `case` against a native run and the
/// sequential replay — fields, histories and counts, bit for bit — printing
/// a `FAIL` line naming `label` for each divergence.  Returns the native
/// runs and whether all three agreed.
fn check_agreement(label: &str, program: &Program, case: &Case, runs: &[Run]) -> (Vec<Run>, bool) {
    let native = kali_native::NativeMachine::new(runs.len()).run(|proc| program.run(proc, case));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut ok = true;
    if runs.iter().zip(&native).any(|(d, n)| d.bits() != n.bits()) {
        println!("FAIL: {label}: dmsim and native diverge");
        ok = false;
    }
    let (field, history) = program.replay(case, runs.len());
    let history_diverges =
        history.is_some_and(|h| runs.iter().any(|r| bits(&r.history) != bits(&h)));
    if bits(&program.gather(case, runs)) != bits(&field) || history_diverges {
        println!("FAIL: {label}: distributed run diverges from the sequential replay");
        ok = false;
    }
    (native, ok)
}

/// Run the multi-dimensional `ParallelLoop` experiment (`multidim`)
/// and print its tables:
///
/// 1. **Planning paths.**  The `[block, *]` affine shift stencil must plan
///    through the multi-dimensional compile-time analysis — zero messages,
///    zero inspector runs, nonempty halo — while an indirect (data-dependent)
///    reference pattern over the same decomposition falls back to the cached
///    inspector (one collective inspector run, then cache hits).
/// 2. **The phase-change demo.**  The alternating-direction smoother under
///    both strategies, on dmsim and the native backend, with per-phase
///    [`solvers::CommReport`]s surfaced through [`ExperimentRow`] so the
///    row↔column redistribution cost is visible next to the halo traffic it
///    replaces.  All runs must agree bit for bit with the sequential replay.
///
/// Returns `true` when every claim holds.
pub fn run_multidim(smoke: bool) -> bool {
    use distrib::{ArrayDist, FlatDist};
    use dmsim::Machine;
    use kali_core::{MultiAffineMap, Rect, Session};
    use solvers::{
        multidim_field, multidim_sweeps, phase_comm_reports, CommReport, MultiDimConfig,
        PhaseBreakdown, PhaseStrategy,
    };

    let (side, nprocs, rounds, sweeps_per_phase) =
        if smoke { (12, 4, 2, 3) } else { (64, 8, 3, 8) };
    let mut ok = true;

    println!(
        "\n=== Multi-dimensional foralls: a {side}x{side} field dist by [block, *] \
         (NCUBE/7, {nprocs} processors) ==="
    );

    // ---- Claim 1a: the [block, *] shift stencil plans compile-time --------
    let machine = Machine::new(nprocs, CostModel::ncube7());
    let (results, stats) = machine.run_stats(|proc| {
        let flat = FlatDist::new(ArrayDist::block_rows(side, side, proc.nprocs()));
        let space = Rect::full(&[side, side]).restrict(0, 1, side - 1);
        let mut session = Session::new();
        let loop_ = session.loop_over(space, flat.clone());
        let refs = [
            MultiAffineMap::shifts(&[-1, 0]),
            MultiAffineMap::shifts(&[1, 0]),
        ];
        let s = session.plan(proc, &loop_, &flat, &refs);
        (session.stats().cache.misses, s.recv_len)
    });
    let plan_msgs = stats.totals.msgs_sent;
    let inspector_runs: u64 = results.iter().map(|r| r.0).sum();
    let halo: usize = results.iter().map(|r| r.1).sum();
    println!(
        "\naffine [block, *] shift stencil: planning messages {plan_msgs}, inspector runs \
         {inspector_runs}, halo elements {halo}"
    );
    if plan_msgs != 0 || inspector_runs != 0 {
        println!("FAIL: the separable shift stencil must take the zero-message compile-time path");
        ok = false;
    }
    if halo != 2 * (nprocs - 1) * side {
        println!("FAIL: expected one boundary row per neighbour pair, got {halo} halo elements");
        ok = false;
    }

    // ---- Claim 1b: indirect references fall back to the cached inspector --
    let machine = Machine::new(nprocs, CostModel::ncube7());
    let (results, stats) = machine.run_stats(|proc| {
        let flat = FlatDist::new(ArrayDist::block_rows(side, side, proc.nprocs()));
        let mut session = Session::new();
        let loop_ = session.loop_over(Rect::full(&[side, side]), flat.clone());
        let n = side * side;
        let refs = |g: usize, out: &mut Vec<usize>| out.push((g * 13 + 7) % n);
        session.plan_indirect(proc, &loop_, &flat, refs);
        session.plan_indirect(proc, &loop_, &flat, refs);
        let cache = session.stats().cache;
        (cache.misses, cache.hits)
    });
    let fallback_msgs = stats.totals.msgs_sent;
    println!(
        "indirect gather over the same decomposition: planning messages {fallback_msgs}, \
         inspector runs {} (then {} cache hits)",
        results.iter().map(|r| r.0).sum::<u64>(),
        results.iter().map(|r| r.1).sum::<u64>()
    );
    if results.iter().any(|&(m, h)| m != 1 || h != 1) {
        println!("FAIL: the indirect case must run the inspector once and then hit the cache");
        ok = false;
    }
    if nprocs > 1 && fallback_msgs == 0 {
        println!("FAIL: the inspector's global exchange must send messages");
        ok = false;
    }

    // ---- Claim 2: the phase-change demo ------------------------------------
    let mut config = MultiDimConfig::new(side, side);
    config.rounds = rounds;
    config.sweeps_per_phase = sweeps_per_phase;
    let initial = multidim_field(side, side);
    let case = Case {
        mesh: None,
        placement: Placement::Block,
        input: &initial,
    };

    println!(
        "\nphase-change demo: {rounds} rounds x {sweeps_per_phase} sweeps per phase \
         (vertical then horizontal)"
    );
    println!("\n{}", ExperimentRow::comm_header());
    let mut rows = Vec::new();
    for strategy in [PhaseStrategy::RowsThroughout, PhaseStrategy::PhaseChange] {
        config.strategy = strategy;
        let machine = Machine::new(nprocs, CostModel::ncube7());
        let (outcomes, stats) = machine.run_stats(|proc| multidim_sweeps(proc, &config, &initial));
        if outcomes.iter().any(|o| o.cache_misses != 0) {
            println!(
                "FAIL: {}: a stencil fell back to the inspector",
                strategy.name()
            );
            ok = false;
        }
        let runs: Vec<Run> = outcomes.iter().cloned().map(Run::from).collect();
        ok &= check_agreement(strategy.name(), &Program::MultiDim(config), &case, &runs).1;

        let row = ExperimentRow {
            machine: format!("{} ", strategy.name()),
            nprocs,
            mesh_side: side,
            mesh_nodes: side * side,
            sweeps: config.total_sweeps(),
            times: PhaseBreakdown {
                total: outcomes.iter().map(|o| o.total_time).fold(0.0, f64::max),
                executor: outcomes.iter().map(|o| o.total_time).fold(0.0, f64::max),
                inspector: 0.0,
            },
            speedup: None,
            comm: CommReport {
                messages: stats.totals.msgs_sent,
                bytes: stats.totals.bytes_sent,
                nonlocal_refs: stats.totals.nonlocal_refs,
                halo_elements: outcomes
                    .iter()
                    .flat_map(|o| &o.phases)
                    .map(|p| p.halo_elements)
                    .sum(),
                wire_bytes: stats.totals.wire_bytes,
                ..CommReport::default()
            },
            final_change: None,
            phase_comms: phase_comm_reports(&outcomes),
        };
        println!("{}", row.to_comm_line());
        rows.push(row);
    }

    println!("\nper-phase breakdown (counters summed across ranks):");
    for row in &rows {
        println!("\n  strategy: {}", row.machine.trim());
        println!("  {}", ExperimentRow::phase_header());
        for line in row.to_phase_lines() {
            println!("  {line}");
        }
    }

    // The phase-change strategy must make both stencil phases message free,
    // with all traffic in the redistributions.
    let phase_change = &rows[1];
    for (label, comm) in &phase_change.phase_comms {
        if label != "redistribute" && comm.messages != 0 {
            println!(
                "FAIL: phase-change {label} phase sent {} messages",
                comm.messages
            );
            ok = false;
        }
        if label == "redistribute" && comm.messages == 0 && nprocs > 1 {
            println!("FAIL: the redistributions never moved the field");
            ok = false;
        }
    }

    if ok {
        println!(
            "\nOK: [block, *] affine stencils plan with zero inspector messages, indirect \
             references fall back to the cached inspector, and both strategies match the \
             sequential replay bit for bit on both backends"
        );
    }
    ok
}

/// Run the Session & typed-reduction solver experiment (`solvers`)
/// and print its tables: conjugate gradient (three interleaved loops, two
/// dot-product reductions per iteration) and red–black Gauss–Seidel (two
/// stripe loops sharing one session cache) over a partitioned scrambled
/// mesh, on both backends.
///
/// Asserted claims:
///
/// * **bit-identical histories** — CG residual history and red–black change
///   history agree bit for bit across dmsim, native and the sequential
///   replays;
/// * **inspector amortisation** — CG's inspector cost per iteration falls
///   as the iteration count grows (the mat-vec is inspected once, then the
///   cache serves every iteration);
/// * **per-reduction message accounting** — every reduction is exactly the
///   tree allreduce's `2(P−1)` machine-wide messages of 8 bytes: the dmsim
///   counter delta between a checked and an unchecked red–black run matches
///   the session's reduction count exactly.
///
/// Returns `true` when every claim holds.
pub fn run_solvers(smoke: bool) -> bool {
    use dmsim::Machine;
    use solvers::{cg_solve, CgConfig, RedBlackConfig};

    let (side, nprocs, cg_iters, rb_sweeps) = if smoke {
        (10, 4, 8, 8)
    } else {
        (32, 8, 40, 60)
    };
    let mut ok = true;

    let mesh = scrambled_mesh(side);
    let b: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect();
    let case = Case::new(&mesh, Placement::Partitioned, &b);

    println!(
        "\n=== Session & typed reductions: solvers on a partitioned {side}x{side} scrambled \
         mesh (NCUBE/7, {nprocs} processors) ==="
    );

    // ---- Conjugate gradient ------------------------------------------------
    let config = CgConfig::with_iters(cg_iters);
    let machine = Machine::new(nprocs, CostModel::ncube7());
    // Inspector times from the outcomes, the rest from the registry's runs.
    let cg = |proc: &mut dmsim::Proc, config: &CgConfig| {
        let dist = case.placement.on_rank(proc, &mesh);
        cg_solve(proc, &mesh, &dist, &b, config)
    };
    let outcomes = machine.run(|proc| cg(proc, &config));

    let o = &outcomes[0];
    let iters = o.iterations.max(1);
    let reductions_per_rank = o.stats.reductions;
    let reduction_msgs = reductions_per_rank * 2 * (nprocs as u64 - 1);
    let inspector = outcomes
        .iter()
        .map(|x| x.inspector_time)
        .fold(0.0f64, f64::max);
    println!(
        "\nconjugate gradient: {} iterations, residual {:.3e} -> {:.3e}",
        o.iterations,
        o.residual_history[0],
        o.residual_history.last().unwrap()
    );
    println!(
        "{:>14}  {:>16}  {:>18}  {:>13}  {:>15}  {:>10}  {:>6}",
        "reductions",
        "reductions/iter",
        "reduce msgs total",
        "inspector (s)",
        "inspector/iter",
        "cache hit",
        "miss"
    );
    println!(
        "{:>14}  {:>16.2}  {:>18}  {:>13.4}  {:>15.6}  {:>10}  {:>6}",
        reductions_per_rank,
        (reductions_per_rank as f64 - 1.0) / iters as f64, // minus the initial ⟨b,b⟩
        reduction_msgs,
        inspector,
        inspector / iters as f64,
        outcomes.iter().map(|x| x.stats.cache.hits).sum::<u64>(),
        outcomes.iter().map(|x| x.stats.cache.misses).sum::<u64>(),
    );

    let convergence_factor = if smoke { 1e-3 } else { 1e-10 };
    if o.residual_history.last().unwrap() >= &(o.residual_history[0] * convergence_factor) {
        println!("FAIL: CG did not converge on the partitioned mesh");
        ok = false;
    }
    if o.stats.cache.misses != 1 {
        println!(
            "FAIL: the static-mesh mat-vec must inspect exactly once, saw {}",
            o.stats.cache.misses
        );
        ok = false;
    }

    // Amortisation: a run 4x as long pays (nearly) the same inspector cost,
    // so the per-iteration share must fall strictly.
    let short = CgConfig::with_iters((cg_iters / 4).max(1));
    let short_outcomes = Machine::new(nprocs, CostModel::ncube7()).run(|proc| cg(proc, &short));
    let short_inspector = short_outcomes
        .iter()
        .map(|x| x.inspector_time)
        .fold(0.0f64, f64::max);
    let short_per_iter = short_inspector / short.iters as f64;
    let long_per_iter = inspector / iters as f64;
    println!(
        "inspector amortisation: {:.6} s/iter over {} iters vs {:.6} s/iter over {} iters",
        short_per_iter, short.iters, long_per_iter, iters
    );
    if long_per_iter >= short_per_iter {
        println!("FAIL: inspector cost per iteration must fall as iterations grow");
        ok = false;
    }
    let runs: Vec<Run> = outcomes.into_iter().map(Run::from).collect();
    ok &= check_agreement("CG", &Program::Cg(config), &case, &runs).1;

    // ---- Red–black Gauss–Seidel -------------------------------------------
    let checked = RedBlackConfig {
        sweeps: rb_sweeps,
        check_every: Some(1),
        ..RedBlackConfig::default()
    };
    let unchecked = RedBlackConfig {
        check_every: None,
        ..checked
    };
    // The message columns are machine-wide totals, set-up included.
    let redblack = |config: RedBlackConfig| {
        Machine::new(nprocs, CostModel::ncube7())
            .run_stats(|proc| Program::RedBlack(config).run(proc, &case))
    };
    let (rb_runs, rb_stats) = redblack(checked);
    let (_, quiet_stats) = redblack(unchecked);

    let rb = &rb_runs[0];
    let total = |name| rb_runs.iter().map(|r| r.count(name)).sum::<u64>();
    println!(
        "\nred-black Gauss-Seidel: {} sweeps, change norm {:.3e} -> {:.3e}",
        rb_sweeps,
        rb.history[0],
        rb.history.last().unwrap()
    );
    println!(
        "{:>14}  {:>12}  {:>12}  {:>10}  {:>6}  {:>14}  {:>16}",
        "reductions",
        "red halo",
        "black halo",
        "cache hit",
        "miss",
        "msgs (checked)",
        "msgs (unchecked)"
    );
    println!(
        "{:>14}  {:>12}  {:>12}  {:>10}  {:>6}  {:>14}  {:>16}",
        rb.count("reductions"),
        total("red_recv_elements"),
        total("black_recv_elements"),
        total("cache_hits"),
        total("cache_misses"),
        rb_stats.totals.msgs_sent,
        quiet_stats.totals.msgs_sent,
    );

    if rb.count("cache_misses") != 2 || rb.count("loops_allocated") != 2 {
        println!("FAIL: the two colour loops must each inspect once into one shared cache");
        ok = false;
    }
    if rb.history.last().unwrap() >= &rb.history[0] {
        println!("FAIL: red-black change norm did not fall");
        ok = false;
    }
    ok &= check_agreement("red-black", &Program::RedBlack(checked), &case, &rb_runs).1;

    // Per-reduction message accounting: the counter delta between the
    // checked and unchecked runs is exactly the tree's 2(P−1) messages of 8
    // bytes per reduction performed (the flat allgather-fold this replaced
    // cost P·(P−1)).
    let machine_reductions = total("reductions");
    let expected_msgs = (machine_reductions / nprocs as u64) * 2 * (nprocs as u64 - 1);
    let msg_delta = rb_stats.totals.msgs_sent - quiet_stats.totals.msgs_sent;
    let byte_delta = rb_stats.totals.bytes_sent - quiet_stats.totals.bytes_sent;
    println!(
        "per-reduction accounting: {} reductions -> {} messages / {} bytes (expected {} / {})",
        machine_reductions / nprocs as u64,
        msg_delta,
        byte_delta,
        expected_msgs,
        expected_msgs * 8,
    );
    if msg_delta != expected_msgs || byte_delta != expected_msgs * 8 {
        println!("FAIL: reduction messages are not accounted exactly");
        ok = false;
    }

    if ok {
        println!(
            "\nOK: CG and red-black converge with bit-identical histories across dmsim, native \
             and the sequential replays; the inspector amortises across iterations; and every \
             reduction's messages are accounted exactly"
        );
    }
    ok
}

/// Run the communication fast-path experiment (`collectives`) and
/// print its tables: the measured machine-wide message cost of one tree
/// allreduce against the flat allgather-fold it replaced (and the
/// recursive-doubling allgather) across a processor sweep on the simulated
/// NCUBE/7, then the stripe planner's zero-message claim for red–black
/// planning on chain meshes.
///
/// Asserted claims:
///
/// * **tree scaling** — every allreduce costs exactly `2(P−1)` machine-wide
///   messages of 8 bytes at every P (the closed form
///   `tree_allreduce_messages`), while the measured flat allgather costs
///   `P·(P−1)` and recursive doubling `P·log₂P` at power-of-two P;
/// * **determinism** — the reduced value is bitwise identical on every
///   rank, across dmsim and native, and equal to the
///   `tree_combine_partials` sequential replay, at every P — including
///   non-powers of two, where the tree is ragged;
/// * **closed-form stripes** — red–black planning over a chain mesh runs
///   zero inspectors and sends zero messages under block and cyclic
///   distributions (simulated planning time 0), while a scrambled
///   unstructured mesh still pays the inspector's global exchange; the
///   chain fast path reproduces the sequential replay bit for bit on both
///   backends.
///
/// Returns `true` when every claim holds.
pub fn run_collectives(smoke: bool) -> bool {
    use distrib::DimDist;
    use dmsim::Machine;
    use kali_core::process::{tree_allreduce_messages, tree_combine_partials};
    use kali_core::{Process, Sum};
    use kali_native::NativeMachine;
    use solvers::{redblack_sweeps, RedBlackConfig};

    /// Rounding-sensitive per-rank contribution: rank 0 injects a huge
    /// addend so any change of bracketing changes the result bits.
    fn contribution(rank: usize, round: usize) -> f64 {
        if rank == 0 {
            1e16 + round as f64
        } else {
            1.0 + (rank * (round + 1)) as f64 * 1e-3
        }
    }

    let procs: &[usize] = if smoke {
        &[2, 3, 4, 8]
    } else {
        &[2, 3, 4, 8, 16, 32, 64]
    };
    let rounds = 6usize;
    let mut ok = true;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    println!("\n=== Communication fast paths: collectives and closed-form stripes (NCUBE/7) ===");

    // ---- Claim 1: tree allreduce message scaling across P ------------------
    println!("\nmachine-wide messages per reduction ({rounds} reductions per run):");
    println!(
        "{:>4}  {:>14}  {:>12}  {:>16}  {:>16}  {:>10}",
        "P", "tree 2(P-1)", "bytes/red", "flat P*(P-1)", "doubling PlogP", "value"
    );
    for &p in procs {
        let machine = Machine::new(p, CostModel::ncube7());
        let (results, stats) = machine.run_stats(|proc| {
            (0..rounds)
                .map(|r| proc.allreduce_sum_f64(contribution(proc.rank(), r)))
                .collect::<Vec<f64>>()
        });
        let tree_msgs = stats.totals.msgs_sent / rounds as u64;
        let tree_bytes = stats.totals.bytes_sent / rounds as u64;

        // The sequential replay of the tree bracketing, per round.
        let replay: Vec<f64> = (0..rounds)
            .map(|r| tree_combine_partials::<Sum<f64>>((0..p).map(|rank| contribution(rank, r))))
            .collect();
        let native = NativeMachine::new(p).run(|proc| {
            (0..rounds)
                .map(|r| proc.allreduce_sum_f64(contribution(proc.rank(), r)))
                .collect::<Vec<f64>>()
        });
        let identical = results.iter().all(|r| bits(r) == bits(&replay))
            && native.iter().all(|r| bits(r) == bits(&replay));

        // Measured cost of the alternatives the tree replaced.
        let (_, flat_stats) = Machine::new(p, CostModel::ncube7()).run_stats(|proc| {
            let all = proc.allgather(vec![contribution(proc.rank(), 0)]);
            all.len()
        });
        let (_, dbl_stats) = Machine::new(p, CostModel::ncube7()).run_stats(|proc| {
            let all = proc.allgather_doubling(vec![contribution(proc.rank(), 0)]);
            all.len()
        });
        let flat_msgs = flat_stats.totals.msgs_sent;
        let dbl_msgs = dbl_stats.totals.msgs_sent;

        println!(
            "{:>4}  {:>14}  {:>12}  {:>16}  {:>16}  {:>10}",
            p,
            tree_msgs,
            tree_bytes,
            flat_msgs,
            dbl_msgs,
            if identical { "identical" } else { "DIVERGED" }
        );

        let expect_tree = tree_allreduce_messages(p) as u64;
        if tree_msgs != expect_tree || tree_bytes != expect_tree * 8 {
            println!(
                "FAIL: P={p}: tree allreduce must cost exactly {expect_tree} messages of 8 \
                 bytes, measured {tree_msgs} / {tree_bytes}"
            );
            ok = false;
        }
        if flat_msgs != (p * (p - 1)) as u64 {
            println!("FAIL: P={p}: flat allgather baseline must cost P*(P-1) messages");
            ok = false;
        }
        if p.is_power_of_two() && dbl_msgs != (p * p.trailing_zeros() as usize) as u64 {
            println!("FAIL: P={p}: recursive doubling must cost P*log2(P) messages");
            ok = false;
        }
        if !identical {
            println!(
                "FAIL: P={p}: reduced values must be bitwise identical across ranks, \
                 backends and the tree_combine_partials replay"
            );
            ok = false;
        }
    }

    // ---- Claim 2: closed-form stripe planning on chain meshes --------------
    let (side, nprocs, sweeps) = if smoke { (48, 4, 8) } else { (192, 8, 30) };
    let chain = meshes::RegularGrid::new(side, 1).five_point_mesh();
    let scrambled = scrambled_mesh(8);
    let b: Vec<f64> = (0..chain.len().max(scrambled.len()))
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect();
    let (chain_b, scrambled_b) = (&b[..chain.len()], &b[..scrambled.len()]);
    let plan_only = RedBlackConfig {
        sweeps: 0, // the timed region then covers planning alone
        check_every: None,
        ..RedBlackConfig::default()
    };

    println!(
        "\nred-black planning cost on a {side}-node chain ({nprocs} processors; the scrambled \
         mesh row is the inspector fallback for contrast):"
    );
    println!(
        "{:>22}  {:>14}  {:>16}  {:>14}  {:>12}",
        "mesh / dist", "plan msgs", "inspector runs", "plan time (s)", "halo elems"
    );
    let n = chain.len();
    let (block, cyclic) = (DimDist::block(n, nprocs), DimDist::cyclic(n, nprocs));
    let on_chain = |dist: &DimDist| (&chain, chain_b, Placement::Dist(dist.clone()));
    for (label, (mesh, input, placement)) in [
        ("chain / block", on_chain(&block)),
        ("chain / cyclic", on_chain(&cyclic)),
        (
            "scrambled / block",
            (&scrambled, scrambled_b, Placement::Block),
        ),
    ] {
        let case = Case::new(mesh, placement, input);
        // The planning time is modeled; everything else comes from the runs.
        let outcomes = Machine::new(nprocs, CostModel::ncube7()).run(|proc| {
            let dist = case.placement.on_rank(proc, mesh);
            redblack_sweeps(proc, mesh, &dist, input, &plan_only)
        });
        let plan_time = outcomes
            .iter()
            .map(|o| o.inspector_time)
            .fold(0.0, f64::max);
        let runs: Vec<Run> = outcomes.into_iter().map(Run::from).collect();
        let total = |name| runs.iter().map(|r| r.count(name)).sum::<u64>();
        let plan_msgs: u64 = runs.iter().map(|r| r.counters.msgs_sent).sum();
        let inspector_runs = total("cache_misses");
        let halo = total("red_recv_elements") + total("black_recv_elements");
        println!(
            "{:>22}  {:>14}  {:>16}  {:>14.4}  {:>12}",
            label, plan_msgs, inspector_runs, plan_time, halo
        );
        if label.starts_with("scrambled") {
            if plan_msgs == 0 || runs.iter().any(|r| r.count("cache_misses") != 2) {
                println!(
                    "FAIL: the scrambled mesh must pay the inspector's global exchange \
                     (two colour loops, one inspection each)"
                );
                ok = false;
            }
            continue;
        }
        if plan_msgs != 0 || inspector_runs != 0 || plan_time != 0.0 {
            println!("FAIL: {label}: chain-mesh planning must be message free with no inspector");
            ok = false;
        }
        if halo == 0 {
            println!("FAIL: {label}: the closed form must still produce real halo schedules");
            ok = false;
        }
        let (native, agreed) = check_agreement(label, &Program::RedBlack(plan_only), &case, &runs);
        if !agreed || native.iter().any(|r| r.count("cache_misses") != 0) {
            println!("FAIL: {label}: the native backend fell back to the inspector");
            ok = false;
        }
    }

    // The fast path is only a fast path if it computes the same bits: run
    // the chain solve properly and compare against native and the
    // sequential replay.
    let program = Program::RedBlack(RedBlackConfig {
        sweeps,
        check_every: Some(2),
        ..RedBlackConfig::default()
    });
    for dist in [block, cyclic] {
        let case = Case::new(&chain, Placement::Dist(dist), chain_b);
        let runs = Machine::new(nprocs, CostModel::ncube7()).run(|proc| program.run(proc, &case));
        ok &= check_agreement("the chain fast path", &program, &case, &runs).1;
    }
    println!(
        "chain solve over {sweeps} sweeps: change histories bitwise identical across dmsim, \
         native and the sequential replay under block and cyclic distributions"
    );

    if ok {
        println!(
            "\nOK: every allreduce is exactly 2(P-1) messages of 8 bytes with bitwise-identical \
             results across ranks, backends and the sequential replay; chain-mesh red-black \
             planning is message free on both backends while scrambled meshes still pay the \
             inspector"
        );
    }
    ok
}

/// Measure Figure 7 (NCUBE/7 processor sweep).
pub fn measure_fig7(smoke: bool) -> Vec<ExperimentRow> {
    measure_procs_sweep(CostModel::ncube7(), &[2, 4, 8, 16, 32, 64, 128], smoke)
}

/// Measure Figure 8 (iPSC/2 processor sweep).
pub fn measure_fig8(smoke: bool) -> Vec<ExperimentRow> {
    measure_procs_sweep(CostModel::ipsc2(), &[2, 4, 8, 16, 32], smoke)
}

fn measure_procs_sweep(cost: CostModel, procs: &[usize], smoke: bool) -> Vec<ExperimentRow> {
    procs
        .iter()
        .map(|&p| {
            let mut params = ExperimentParams::paper_processor_row(cost.clone(), p);
            if smoke {
                params.extrapolate_from = Some(2);
            }
            solvers::run_jacobi_experiment(&params)
        })
        .collect()
}

/// Measure Figure 9 (NCUBE/7 mesh-size sweep on 128 processors).
pub fn measure_fig9(smoke: bool) -> Vec<ExperimentRow> {
    measure_mesh_sweep(CostModel::ncube7(), 128, smoke)
}

/// Measure Figure 10 (iPSC/2 mesh-size sweep on 32 processors).
pub fn measure_fig10(smoke: bool) -> Vec<ExperimentRow> {
    measure_mesh_sweep(CostModel::ipsc2(), 32, smoke)
}

fn measure_mesh_sweep(cost: CostModel, nprocs: usize, smoke: bool) -> Vec<ExperimentRow> {
    let sides: &[usize] = &[64, 128, 256, 512, 1024];
    sides
        .iter()
        .map(|&side| {
            let mut params = ExperimentParams::paper_meshsize_row(cost.clone(), nprocs, side);
            if smoke || side >= 256 {
                params.extrapolate_from = Some(2);
            }
            solvers::run_jacobi_experiment(&params)
        })
        .collect()
}

/// §4 narrative claim: worst-case (single-sweep) inspector overhead.
///
/// "In the worst case, where one performs only one sweep, the inspector
/// overhead on the NCUBE would range from 45% on 2 processors to 93% on 128
/// processors, while on the iPSC it ranges from 35% to 41%."  One size.
pub fn run_single_sweep(_smoke: bool) -> bool {
    println!("\n=== Single-sweep (worst case) inspector overhead ===");
    println!(
        "{:>10}  {:>6}  {:>14}  {:>14}  {:>10}",
        "machine", "procs", "executor (s)", "inspector (s)", "overhead"
    );
    for (cost, procs) in [
        (CostModel::ncube7(), vec![2usize, 4, 8, 16, 32, 64, 128]),
        (CostModel::ipsc2(), vec![2, 4, 8, 16, 32]),
    ] {
        for p in procs {
            let params = ExperimentParams {
                sweeps: 1,
                extrapolate_from: None,
                ..ExperimentParams::paper_processor_row(cost.clone(), p)
            };
            let row = solvers::run_jacobi_experiment(&params);
            println!(
                "{:>10}  {:>6}  {:>14.3}  {:>14.3}  {:>9.1}%",
                row.machine,
                row.nprocs,
                row.times.executor,
                row.times.inspector,
                row.times.inspector_overhead() * 100.0
            );
        }
    }
    println!("(paper: NCUBE 45%..93% from 2..128 processors; iPSC 35%..41%)");
    true
}

/// §4 narrative claim: the NCUBE/7 inspector time is U-shaped in the number
/// of processors (locality-checking loop shrinks ∝ 1/P, the global
/// concatenation grows ∝ log P), while the iPSC/2 inspector decreases
/// monotonically because the locality loop always dominates.  One size.
pub fn run_inspector_breakdown(_smoke: bool) -> bool {
    println!("\n=== Inspector time vs processor count (128x128 mesh) ===");
    println!(
        "{:>10}  {:>6}  {:>16}  {:>22}",
        "machine", "procs", "inspector (s)", "hypercube dimensions"
    );
    for (cost, procs) in [
        (CostModel::ncube7(), vec![2usize, 4, 8, 16, 32, 64, 128]),
        (CostModel::ipsc2(), vec![2, 4, 8, 16, 32]),
    ] {
        let mut minimum_at = 0usize;
        let mut minimum = f64::INFINITY;
        for &p in &procs {
            let params = ExperimentParams {
                extrapolate_from: Some(2),
                ..ExperimentParams::paper_processor_row(cost.clone(), p)
            };
            let row = solvers::run_jacobi_experiment(&params);
            let dims = (p as f64).log2() as u32;
            println!(
                "{:>10}  {:>6}  {:>16.3}  {:>22}",
                row.machine, p, row.times.inspector, dims
            );
            if row.times.inspector < minimum {
                minimum = row.times.inspector;
                minimum_at = p;
            }
        }
        println!("  -> {} inspector minimum at P = {} (paper: NCUBE/7 minimum near 16, iPSC/2 still decreasing at 32)\n", cost.name, minimum_at);
    }
    true
}

/// §3.2 claim: saving the inspector's sets between executions amortises the
/// run-time analysis over many sweeps.  Sweep count is varied; with the
/// schedule cache the inspector cost is constant, without it it grows
/// linearly.
pub fn run_amortization(smoke: bool) -> bool {
    let sweeps: &[usize] = if smoke {
        &[1, 5, 10]
    } else {
        &[1, 10, 100, 1000]
    };
    println!("\n=== Schedule-cache amortisation (NCUBE/7, 64x64 mesh, 16 processors) ===");
    println!(
        "{:>8}  {:>18}  {:>18}  {:>22}",
        "sweeps", "overhead (cached)", "overhead (no cache)", "inspector (no cache, s)"
    );
    for &s in sweeps {
        let base = ExperimentParams {
            mesh_side: 64,
            sweeps: s,
            ..ExperimentParams::paper_processor_row(CostModel::ncube7(), 16)
        };
        let cached = solvers::run_jacobi_experiment(&base);
        let uncached = solvers::run_jacobi_experiment(&ExperimentParams {
            disable_schedule_cache: true,
            ..base
        });
        println!(
            "{:>8}  {:>17.1}%  {:>17.1}%  {:>22.2}",
            s,
            cached.times.inspector_overhead() * 100.0,
            uncached.times.inspector_overhead() * 100.0,
            uncached.times.inspector
        );
    }
    println!("(the paper's tables assume 100 sweeps with the cached inspector)");
    true
}

/// §1 claim: "the performance of the resulting message-passing code is in
/// many cases virtually identical to that which would be achieved had the
/// user programmed directly in a message-passing language."
///
/// Compares the Kali-generated executor (inspector + schedule + searched
/// nonlocal accesses) against a hand-coded halo-exchange Jacobi with the
/// distribution hard-wired, on both machine models.
pub fn run_kali_vs_handcoded(smoke: bool) -> bool {
    use dmsim::Machine;
    use solvers::{jacobi_sweeps, JacobiConfig};

    let (side, sweeps) = if smoke { (32, 10) } else { (64, 100) };
    let grid = meshes::RegularGrid::square(side);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();

    println!("\n=== Kali-generated code vs hand-coded message passing ({side}x{side}, {sweeps} sweeps) ===");
    println!(
        "{:>10}  {:>6}  {:>12}  {:>16}  {:>12}  {:>8}",
        "machine", "procs", "kali (s)", "hand-coded (s)", "kali/hand", "kali incl. inspector"
    );
    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        for procs in [2usize, 8, 32] {
            let machine = Machine::new(procs, cost.clone());
            let kali = machine.run(|proc| {
                let dist = distrib::DimDist::block(mesh.len(), proc.nprocs());
                let config = JacobiConfig::with_sweeps(sweeps);
                jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            });
            let hand =
                machine.run(|proc| baseline::handcoded_jacobi(proc, &mesh, &initial, sweeps));
            let kali_exec = kali.iter().map(|o| o.executor_time).fold(0.0, f64::max);
            let kali_total = kali.iter().map(|o| o.total_time).fold(0.0, f64::max);
            let hand_total = hand.iter().map(|o| o.total_time).fold(0.0, f64::max);
            println!(
                "{:>10}  {:>6}  {:>12.2}  {:>16.2}  {:>11.2}x  {:>8.2}x",
                cost.name,
                procs,
                kali_exec,
                hand_total,
                kali_exec / hand_total,
                kali_total / hand_total
            );
        }
    }
    println!("(executor-to-hand-coded ratios close to 1.0 support the paper's claim;");
    println!(" the residual gap is the run-time system's access/search overhead discussed in §4)");
    true
}

/// §3.2: compile-time analysis eliminates the run-time set computation when
/// closed forms exist.  Compares the cost of planning the Figure 1 shift
/// loop (affine subscripts) with the compile-time analyser vs the inspector.
pub fn run_compile_vs_runtime(smoke: bool) -> bool {
    use distrib::DimDist;
    use dmsim::Machine;
    use kali_core::{AffineMap, Session};

    let n = if smoke { 4_096 } else { 65_536 };
    println!("\n=== Compile-time vs run-time analysis of the Figure 1 shift loop (N = {n}) ===");
    println!(
        "{:>10}  {:>6}  {:>24}  {:>24}",
        "machine", "procs", "compile-time plan (s)", "inspector plan (s)"
    );
    for cost in [CostModel::ncube7(), CostModel::ipsc2()] {
        for procs in [4usize, 16, 64] {
            // The modeled planning time of the shift, by the compile-time
            // analysis or (`inspect`) by the inspector.
            let plan_time = |inspect: bool| {
                let times = Machine::new(procs, cost.clone()).run(|proc| {
                    let dist = DimDist::block(n, proc.nprocs());
                    let mut session = Session::new();
                    let loop_ = session.loop_1d(n - 1, dist.clone());
                    let s = if inspect {
                        session.plan_indirect(proc, &loop_, &dist, |i, refs| refs.push(i + 1))
                    } else {
                        session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)])
                    };
                    assert!(s.recv_len <= 1);
                    session.inspector_time()
                });
                times.into_iter().fold(0.0, f64::max)
            };
            let (ct_max, rt_max) = (plan_time(false), plan_time(true));
            println!(
                "{:>10}  {:>6}  {:>24.4}  {:>24.4}",
                cost.name, procs, ct_max, rt_max
            );
        }
    }
    println!("(compile-time planning performs no per-element checks and no communication)");
    true
}

/// Run the intra-rank scaling experiment (`native-scaling`) and print
/// its table: the same native Jacobi solve at worker-pool sizes 1, 2, 4 and
/// 8, with wall-clock time per configuration and speedup over the
/// single-worker run.  The fields of every configuration are compared bit
/// for bit — the worker pool is a performance knob, never a semantics knob.
///
/// Returns `true` when the fields are identical across all worker counts
/// and — **only when the host actually has ≥ 4 hardware threads and this is
/// not a smoke run** — the 4-worker configuration is at least 2× faster
/// than 1 worker.  On smaller hosts the speedup row is informational (a
/// 1-CPU machine cannot exhibit parallel speedup) and the table is still
/// reported honestly.
pub fn run_native_scaling(smoke: bool) -> bool {
    use kali_native::NativeMachine;
    use solvers::JacobiConfig;
    use std::time::Instant;

    let (side, nprocs, sweeps) = if smoke { (64, 2, 3) } else { (1024, 2, 5) };
    let grid = meshes::RegularGrid::square(side);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let case = Case::new(&mesh, Placement::Block, &initial);
    let worker_counts = [1usize, 2, 4, 8];
    // Wall-clock seconds of the solve at `workers`, and its per-rank bits.
    let solve = |workers| {
        let program = Program::Jacobi(JacobiConfig {
            sweeps,
            workers: Some(workers),
            ..JacobiConfig::default()
        });
        let start = Instant::now();
        let runs = NativeMachine::new(nprocs).run(|proc| program.run(proc, &case));
        let secs = start.elapsed().as_secs_f64();
        (secs, runs.iter().map(Run::bits).collect::<Vec<_>>())
    };

    println!(
        "\n=== Intra-rank scaling: native Jacobi on a {side}x{side} grid \
         ({nprocs} processes, {sweeps} sweeps, chunked executor) ==="
    );
    // Everything that depends on the host — its thread count, wall clock
    // and speed-up — goes to stderr; stdout keeps what the program alone
    // decides, so it can be compared byte for byte.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("host parallelism: {hw} hardware thread(s)");
    eprintln!("{:>8}  {:>12}  {:>10}", "workers", "wall (s)", "speedup");
    println!("{:>8}  {:>14}", "workers", "field");

    let mut ok = true;
    let mut baseline_fields: Option<Vec<Vec<u64>>> = None;
    let mut baseline_secs = 0.0f64;
    for &workers in &worker_counts {
        let (secs, fields) = solve(workers);
        let identical = match &baseline_fields {
            None => {
                baseline_fields = Some(fields);
                baseline_secs = secs;
                true
            }
            Some(base) => *base == fields,
        };
        if !identical {
            ok = false;
        }
        eprintln!("{workers:>8}  {secs:>12.3}  {:>9.2}x", baseline_secs / secs);
        println!(
            "{workers:>8}  {:>14}",
            if identical { "identical" } else { "DIVERGED" }
        );
    }

    if !ok {
        println!("\nFAIL: worker count changed the solution bits");
        return false;
    }
    println!("\nOK: fields bitwise identical at every worker count");
    if !smoke && hw >= 4 {
        // The acceptance threshold only means something when the hardware
        // can actually run 4 workers concurrently.
        let speedup = baseline_secs / solve(4).0;
        if speedup < 2.0 {
            eprintln!("FAIL: expected >= 2x at 4 workers, measured {speedup:.2}x");
            ok = false;
        } else {
            eprintln!("OK: {speedup:.2}x at 4 workers (threshold 2x)");
        }
    } else if hw < 4 {
        eprintln!(
            "note: host has {hw} hardware thread(s); the 2x-at-4-workers \
             check needs >= 4 and was skipped"
        );
    }
    ok
}

/// Which reference pattern a planned loop of the verification sweep used:
/// it builds the loop's `refs_of` closure and names the loop in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefPattern {
    /// Scrambled-mesh adjacency (jacobi relaxation, red–black halves).
    MeshAdj,
    /// Adjacency plus the diagonal (CG's matvec).
    MeshAdjSelf,
    /// Adjacency of the adaptively evolved mesh (post-adaptation replan).
    AdaptedAdj,
    /// The identity map (convergence / vector-update loops).
    Identity,
    /// The three-point chain stencil `i ∓ 1`, clipped at the ends (the
    /// red–black closed-form stripe planning).
    Chain,
}

impl RefPattern {
    /// The references iteration `i` makes under this pattern, over the
    /// scrambled `mesh` and its `adapted` successor.
    fn refs<'m>(
        self,
        mesh: &'m meshes::AdjacencyMesh,
        adapted: &'m meshes::AdjacencyMesh,
    ) -> impl Fn(usize, &mut Vec<usize>) + Copy + 'm {
        let adjacency = |mesh: &meshes::AdjacencyMesh, i, out: &mut Vec<usize>| {
            out.extend(mesh.neighbors(i).iter().map(|&j| j as usize))
        };
        move |i, out| match self {
            RefPattern::MeshAdj => adjacency(mesh, i, out),
            RefPattern::MeshAdjSelf => {
                out.push(i);
                adjacency(mesh, i, out);
            }
            RefPattern::AdaptedAdj => adjacency(adapted, i, out),
            RefPattern::Identity => out.push(i),
            RefPattern::Chain => {
                if i > 0 {
                    out.push(i - 1);
                }
                if i + 1 < mesh.len() {
                    out.push(i + 1);
                }
            }
        }
    }

    fn name(self) -> &'static str {
        match self {
            RefPattern::MeshAdj => "mesh-adjacency",
            RefPattern::MeshAdjSelf => "matvec-adjacency",
            RefPattern::AdaptedAdj => "adapted-adjacency",
            RefPattern::Identity => "identity",
            RefPattern::Chain => "chain-stencil",
        }
    }
}

/// Plan every solver shape the repo ships — jacobi (inspector + closed-form
/// convergence), adaptive replanning, CG (matvec + updates), red–black
/// stripes (closed form and inspector) — on one rank under `dist`, and run
/// the two reductions the solvers interleave, all with the event trace
/// recording.  Returns the planned schedules (labelled with their reference
/// pattern), then this rank's result of a closing live bracket-hash
/// allreduce with the trace of the whole suite.
#[allow(clippy::type_complexity)] // the schedules, then check_allreduce_run's input
fn plan_solver_suite<P: kali_core::Process>(
    proc: &mut P,
    mesh: &meshes::AdjacencyMesh,
    adapted: &meshes::AdjacencyMesh,
    dist: &distrib::DimDist,
) -> (
    Vec<(RefPattern, kali_core::CommSchedule)>,
    (u64, Vec<kali_core::process::Event>),
) {
    use kali_core::verify::{bracket_leaf, BracketHash};
    use kali_core::{AffineMap, IterSpace, Norm2, Reduce, ReduceOp, Session, Stripe, Sum};

    let n = mesh.len();
    let rank = proc.rank();
    let mut session = Session::new();
    let mut planned = Vec::new();
    proc.trace_start();

    let refs = |pattern: RefPattern| pattern.refs(mesh, adapted);

    // Jacobi: inspector-planned relaxation + closed-form convergence loop,
    // then the convergence-test reduction.
    let relax = session.loop_1d(n, dist.clone());
    let conv = session.loop_1d(n, dist.clone());
    let relax_schedule = session.plan_indirect(proc, &relax, dist, refs(RefPattern::MeshAdj));
    planned.push((RefPattern::MeshAdj, (*relax_schedule).clone()));
    let conv_schedule = session.plan(proc, &conv, dist, &[AffineMap::identity()]);
    planned.push((RefPattern::Identity, (*conv_schedule).clone()));
    let local: Vec<f64> = (0..dist.local_count(rank))
        .map(|l| 0.125 * (dist.global_index(rank, l) as f64 + 1.0))
        .collect();
    session.execute_reduce(
        proc,
        &conv,
        &conv_schedule,
        dist,
        &local,
        Reduce::<Norm2>::new(),
        |i, fetch| ((), fetch.fetch(i)),
        |_, ()| {},
    );

    // Adaptive: the mesh evolved, the data version bumps, the same loop
    // replans against the new adjacency.
    session.bump_data_version();
    let adapted_schedule = session.plan_indirect(proc, &relax, dist, refs(RefPattern::AdaptedAdj));
    planned.push((RefPattern::AdaptedAdj, (*adapted_schedule).clone()));

    // CG: matvec (diagonal + off-diagonals) and the affine update loop,
    // then a dot-product reduction.
    let matvec = session.loop_1d(n, dist.clone());
    let update = session.loop_1d(n, dist.clone());
    let matvec_schedule = session.plan_indirect(proc, &matvec, dist, refs(RefPattern::MeshAdjSelf));
    planned.push((RefPattern::MeshAdjSelf, (*matvec_schedule).clone()));
    let update_schedule = session.plan(proc, &update, dist, &[AffineMap::identity()]);
    planned.push((RefPattern::Identity, (*update_schedule).clone()));
    session.execute_reduce(
        proc,
        &update,
        &update_schedule,
        dist,
        &local,
        Reduce::<Sum<f64>>::new(),
        |i, fetch| {
            let v = fetch.fetch(i);
            ((), v * v)
        },
        |_, ()| {},
    );

    // Red–black: the chain mesh's zero-message closed-form stripe planning…
    for lo in [0usize, 1] {
        let stencil = [AffineMap::shift(-1), AffineMap::shift(1)];
        planned.push((
            RefPattern::Chain,
            Stripe::new(lo, n, 2)
                .analyze(dist, dist, &stencil, rank)
                .expect("unit-stride stripe stencils always have a closed form"),
        ));
    }
    // …and the scrambled mesh's inspector path for both colour classes.
    for lo in [0usize, 1] {
        let colour = session.loop_over(Stripe::new(lo, n, 2), dist.clone());
        let schedule = session.plan_indirect(proc, &colour, dist, refs(RefPattern::MeshAdj));
        planned.push((RefPattern::MeshAdj, (*schedule).clone()));
    }

    // A live bracket-hash allreduce: the backend's collective must realise
    // exactly the contract bracketing (checked against the replay outside).
    let hash = proc.allreduce(bracket_leaf(rank), |a, b| BracketHash::combine(*a, *b));

    (planned, (hash, proc.trace_take()))
}

/// The four distribution kinds the verification sweeps cover, over
/// `mesh`'s nodes on `nprocs` ranks.
fn dist_kinds(mesh: &meshes::AdjacencyMesh, nprocs: usize) -> [(&str, distrib::DimDist); 4] {
    let n = mesh.len();
    let irregular = distrib::DimDist::custom(meshes::greedy_partition(mesh, nprocs), nprocs);
    [
        ("block", distrib::DimDist::block(n, nprocs)),
        ("cyclic", distrib::DimDist::cyclic(n, nprocs)),
        ("block-cyclic", distrib::DimDist::block_cyclic(n, nprocs, 3)),
        ("irregular", irregular),
    ]
}

/// Run the static verification sweep (`verify`): every solver shape
/// under every distribution kind on every backend through
/// [`kali_core::verify`], each configuration's recorded trace through
/// [`kali_core::verify::check_allreduce_run`], plus the protocol check: the
/// live traced allreduce on dmsim and native at every rank count up to a
/// bound.
///
/// Prints one line per configuration and a violation summary; returns
/// `true` exactly when **zero** violations were found.
pub fn run_verify_all(smoke: bool) -> bool {
    use dmsim::Machine;
    use kali_core::verify::{self, check_allreduce_run, traced_bracket_allreduce, Violation};
    use kali_mp::MpMachine;
    use kali_native::NativeMachine;

    let (side, proc_counts, max_p): (usize, &[usize], usize) = if smoke {
        (8, &[2, 4], 33)
    } else {
        (12, &[2, 3, 4, 8], 65)
    };

    println!("\n=== Static verification sweep (kali_core::verify) ===");
    let mut violations: Vec<(String, Violation)> = Vec::new();
    let mut record = |context: String, found: Vec<Violation>| {
        let n = found.len();
        for v in found {
            violations.push((context.clone(), v));
        }
        n
    };

    // The protocol check: the allreduce that ships, run and traced at
    // every rank count.
    let live_allreduce = (1..=max_p).flat_map(|p| {
        let dmsim = Machine::new(p, CostModel::ideal()).run(traced_bracket_allreduce);
        let native = NativeMachine::new(p).run(traced_bracket_allreduce);
        [dmsim, native].map(|ranks| check_allreduce_run(&ranks))
    });
    println!("\n{:>42}  {:>10}", "protocol check", "violations");
    let name = format!("traced allreduce, dmsim + native, P<={max_p}");
    let found: Vec<Violation> = live_allreduce.flatten().collect();
    println!("{:>42}  {:>10}", name, found.len());
    record(name, found);

    // The solver/distribution/backend sweep.
    let mesh = scrambled_mesh(side);
    let adapted = meshes::evolve(&mesh, &meshes::AdaptConfig::default(), 2);

    println!(
        "\n{:>8}  {:>8}  {:>14}  {:>6}  {:>8}  {:>10}",
        "backend", "procs", "dist", "loops", "records", "violations"
    );
    for &nprocs in proc_counts {
        for (dist_name, dist) in dist_kinds(&mesh, nprocs) {
            for backend in ["dmsim", "native", "mp"] {
                let results = match backend {
                    "dmsim" => Machine::new(nprocs, CostModel::ideal())
                        .run(|proc| plan_solver_suite(proc, &mesh, &adapted, &dist)),
                    "native" => NativeMachine::new(nprocs)
                        .run(|proc| plan_solver_suite(proc, &mesh, &adapted, &dist)),
                    // Socket transport, threads as rank containers: the
                    // plan/schedule results are not `Wire`, so the sweep
                    // uses the embedder mode rather than real processes.
                    _ => MpMachine::new(nprocs)
                        .run_threads(|proc| plan_solver_suite(proc, &mesh, &adapted, &dist)),
                };
                let context = format!("{backend} P={nprocs} {dist_name}");
                let mut found_here = 0usize;
                let mut records = 0usize;

                // Every planned loop: per-rank `recv_len` and the set's
                // duality, which is also its sweeps' deadlock freedom.
                let nloops = results[0].0.len();
                for k in 0..nloops {
                    let pattern = results[0].0[k].0;
                    let set: Vec<kali_core::CommSchedule> =
                        results.iter().map(|r| r.0[k].1.clone()).collect();
                    records += set.iter().map(|s| s.range_count()).sum::<usize>();
                    let found = verify::check_schedule_set(&set);
                    found_here += record(format!("{context} loop#{k} {}", pattern.name()), found);
                }

                // The recorded suite: the closing allreduce brackets like
                // the replay on every rank, and every message of the trace
                // was received.
                let ranks: Vec<_> = results.into_iter().map(|r| r.1).collect();
                found_here += record(
                    format!("{context} traced suite"),
                    check_allreduce_run(&ranks),
                );

                println!(
                    "{:>8}  {:>8}  {:>14}  {:>6}  {:>8}  {:>10}",
                    backend, nprocs, dist_name, nloops, records, found_here
                );
            }
        }
    }

    if violations.is_empty() {
        println!("\nOK: zero violations across the sweep");
        true
    } else {
        println!("\nFAIL: {} violation(s):", violations.len());
        for (context, v) in &violations {
            println!("  [{context}] {v}");
        }
        false
    }
}

/// `program` on `case`, with this rank's event trace recorded around it.
fn traced_run<P: kali_core::Process>(
    proc: &mut P,
    program: &Program,
    case: &Case,
) -> (Run, Vec<kali_core::process::Event>) {
    proc.trace_start();
    let run = program.run(proc, case);
    (run, proc.trace_take())
}

/// Run the trace-level model-checking sweep (`mc`): every mesh program
/// of the registry under every distribution kind, on every backend.
///
/// Each configuration runs two checks:
///
/// 1. a traced dmsim baseline whose recorded event trace must pass
///    `kali_core::mc::check_trace` with zero violations;
/// 2. traced native and mp runs whose traces must also pass it and whose
///    fields, histories and counts must match the dmsim baseline bit for
///    bit.
///
/// Prints one line per configuration and a failure summary; returns `true`
/// exactly when **zero** violations and **zero** divergences were found.
pub fn run_mc_all(smoke: bool) -> bool {
    use dmsim::Machine;
    use kali_core::process::Event;
    use kali_mp::MpMachine;
    use kali_native::NativeMachine;

    let (side, proc_counts, sweeps): (usize, &[usize], usize) = if smoke {
        (8, &[2, 4], 4)
    } else {
        (12, &[2, 4, 8], 8)
    };

    println!("\n=== Trace-level model checking (kali_core::mc on dmsim, native and mp) ===");

    let mesh = scrambled_mesh(side);
    let n = mesh.len();
    let input: Vec<f64> = (0..n)
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect();

    let mut failures: Vec<String> = Vec::new();
    let mut events_total = 0usize;

    println!(
        "\n{:>8}  {:>14}  {:>10}  {:>8}  {:>8}  {:>8}  {:>8}",
        "procs", "dist", "solver", "events", "dmsim", "native", "mp"
    );
    for &nprocs in proc_counts {
        for (dist_name, dist) in dist_kinds(&mesh, nprocs) {
            let case = Case::new(&mesh, Placement::Dist(dist), &input);
            for program in Program::mesh_suite(sweeps) {
                let context = format!("P={nprocs} {dist_name} {}", program.name());
                // Record a backend's trace violations, then its ranks whose
                // runs differ from the dmsim baseline; how many there were.
                let check = |backend: &str,
                             legs: &[(Run, Vec<Event>)],
                             base: &[Run],
                             failures: &mut Vec<String>| {
                    let traces: Vec<Vec<Event>> = legs.iter().map(|l| l.1.clone()).collect();
                    let before = failures.len();
                    for v in kali_core::mc::check_trace(&traces) {
                        failures.push(format!("[{context}] {backend} trace: {v}"));
                    }
                    for (rank, (base_r, leg)) in base.iter().zip(legs).enumerate() {
                        if leg.0.bits() != base_r.bits() {
                            failures.push(format!(
                                "[{context}] {backend} fields diverge from dmsim on rank {rank}"
                            ));
                        }
                    }
                    failures.len() - before
                };

                // 1. The baseline on dmsim, traced and analyzed.
                let base = Machine::new(nprocs, CostModel::ideal())
                    .run(|proc| traced_run(proc, &program, &case));
                let base_runs: Vec<Run> = base.iter().map(|l| l.0.clone()).collect();
                events_total += base.iter().map(|l| l.1.len()).sum::<usize>();
                let base_bad = check("dmsim", &base, &base_runs, &mut failures);

                // 2. Native and multi-process socket backends: traces pass,
                //    results match dmsim.  The mp leg runs threads as ranks —
                //    every message still crosses a Unix-domain socket, but
                //    the traced results stay in-process for comparison.
                let native =
                    NativeMachine::new(nprocs).run(|proc| traced_run(proc, &program, &case));
                let native_bad = check("native", &native, &base_runs, &mut failures);
                let mp =
                    MpMachine::new(nprocs).run_threads(|proc| traced_run(proc, &program, &case));
                let mp_bad = check("mp", &mp, &base_runs, &mut failures);

                println!(
                    "{:>8}  {:>14}  {:>10}  {:>8}  {:>8}  {:>8}  {:>8}",
                    nprocs,
                    dist_name,
                    program.name(),
                    base.iter().map(|l| l.1.len()).sum::<usize>(),
                    base_bad,
                    native_bad,
                    mp_bad
                );
            }
        }
    }

    if failures.is_empty() {
        println!("\nOK: {events_total} events analyzed, zero violations, zero divergences");
        true
    } else {
        println!("\nFAIL: {} problem(s):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_internally_consistent() {
        for rows in [
            PAPER_FIG7_NCUBE_PROCS,
            PAPER_FIG8_IPSC_PROCS,
            PAPER_FIG9_NCUBE_MESH,
            PAPER_FIG10_IPSC_MESH,
        ] {
            for r in rows {
                // total ≈ executor + inspector (rounding in the paper).
                assert!((r.total - r.executor - r.inspector).abs() < 0.11, "{r:?}");
            }
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn names(chosen: &[&Table]) -> Vec<&'static str> {
        chosen.iter().map(|t| t.name).collect()
    }

    #[test]
    fn table_names_are_unique_and_none_is_all() {
        let all = names(&TABLES.iter().collect::<Vec<_>>());
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "`{name}` is registered twice");
        }
        assert!(!all.contains(&"all"));
    }

    #[test]
    fn all_selects_every_table_in_list_order() {
        let (smoke, chosen) = select(TABLES, &args(&["all"])).unwrap();
        assert!(!smoke);
        assert_eq!(names(&chosen), names(&TABLES.iter().collect::<Vec<_>>()));
        // Named tables run in the order named.
        let (_, chosen) = select(TABLES, &args(&["mc", "fig7", "verify"])).unwrap();
        assert_eq!(names(&chosen), ["mc", "fig7", "verify"]);
    }

    #[test]
    fn an_unknown_name_or_none_lists_every_name_and_runs_nothing() {
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let counted = |_| {
            RUNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            false
        };
        let tables = [Table::new("one", counted), Table::new("two", counted)];
        for bad in [&["one", "nope"][..], &[], &["--smoke"]] {
            assert_eq!(run_tables(&tables, &args(bad)), 2, "{bad:?}");
        }
        assert_eq!(RUNS.load(std::sync::atomic::Ordering::SeqCst), 0);
        // A failing table does not stop the ones after it.
        assert_eq!(run_tables(&tables, &args(&["all", "one"])), 1);
        assert_eq!(RUNS.load(std::sync::atomic::Ordering::SeqCst), 3);

        let usage = select(TABLES, &args(&["fig7", "nope"])).unwrap_err();
        assert!(usage.contains("`nope`"), "{usage}");
        for table in TABLES {
            assert!(usage.contains(table.name), "{usage} omits {}", table.name);
        }
    }

    #[test]
    fn smoke_is_accepted_before_between_or_after_names() {
        for list in [
            &["--smoke", "fig7", "mc"][..],
            &["fig7", "--smoke", "mc"],
            &["fig7", "mc", "--smoke"],
        ] {
            let (smoke, chosen) = select(TABLES, &args(list)).unwrap();
            assert!(smoke, "{list:?}");
            assert_eq!(names(&chosen), ["fig7", "mc"], "{list:?}");
        }
    }

    #[test]
    fn paper_ncube_inspector_curve_is_u_shaped() {
        let inspector: Vec<f64> = PAPER_FIG7_NCUBE_PROCS.iter().map(|r| r.inspector).collect();
        let min = inspector.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(inspector[0] > min);
        assert!(inspector[inspector.len() - 1] > min);
    }
}

//! Every call the benchmark makes into the library crates lives here (the
//! `Process` trait impl of `timed_proc.rs` is the one exception), so a later
//! change to a public signature is a confined, mechanical fix: input
//! generation, the four solver programs and their sequential replays, the
//! three machines, and the direct calls that time one layer from outside.

use std::os::unix::net::UnixStream;
use std::time::Instant;

use distrib::{ArrayDist, DimDist};
use dmsim::{CostModel, Machine};
use kali_core::{AffineMap, MultiAffineMap, Rect, Session};
use kali_mp::{frame, MpMachine};
use kali_native::NativeMachine;
use kali_process::{wire, Process};
use meshes::{greedy_partition, AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use solvers::{
    adaptive_jacobi_sequential, adaptive_jacobi_sweeps, cg_sequential, cg_solve, col_placement,
    final_placement, gather_global, gather_multidim, jacobi_sequential, jacobi_sweeps,
    multidim_sequential, multidim_sweeps, row_placement, AdaptiveConfig, CgConfig, JacobiConfig,
    MultiDimConfig, PhaseStrategy,
};

use crate::timed_proc::{RankTrace, TimedProc};

/// Ranks of every machine the benchmark launches: one per core of the host
/// the baseline was taken on.
pub const RANKS: usize = 2;

// ---------------------------------------------------------------------
// Machines
// ---------------------------------------------------------------------

/// The two real backends that are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Native,
    Mp,
}

impl Backend {
    pub const BOTH: [Backend; 2] = [Backend::Native, Backend::Mp];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Mp => "mp",
        }
    }
}

/// An SPMD program generic over the backend handle (a closure cannot be:
/// `Process` has generic methods, so it is not object safe).
pub trait Spmd: Sync {
    type Out: Send;
    fn rank_main<P: Process>(&self, proc: &mut P) -> Self::Out;
}

/// Launch a [`RANKS`]-rank machine of `backend`, run `program` on every
/// rank and collect the per-rank results in rank order.  `mp` uses
/// `run_threads`: the same sockets, frames, codec and reader/writer threads
/// as process mode, with threads as rank containers.
pub fn run_on<S: Spmd>(backend: Backend, program: &S) -> Vec<S::Out> {
    match backend {
        Backend::Native => NativeMachine::new(RANKS).run(|proc| program.rank_main(proc)),
        Backend::Mp => MpMachine::new(RANKS).run_threads(|proc| program.rank_main(proc)),
    }
}

/// Run `program` on the simulator under the iPSC/2 cost model.
pub fn run_on_dmsim<S: Spmd>(program: &S) -> Vec<S::Out> {
    Machine::new(RANKS, CostModel::ipsc2()).run(|proc| program.rank_main(proc))
}

/// The empty program: what a machine launch costs up to its first barrier.
pub struct Launch;

impl Spmd for Launch {
    type Out = ();
    fn rank_main<P: Process>(&self, proc: &mut P) {
        proc.barrier();
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The solver program a mesh problem runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshProgram {
    Jacobi,
    Cg,
    /// Adaptive Jacobi with the mesh perturbed before every sweep.
    AdaptEverySweep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    Block,
    Cyclic,
}

impl DistKind {
    fn over(self, n: usize) -> DimDist {
        match self {
            DistKind::Block => DimDist::block(n, RANKS),
            DistKind::Cyclic => DimDist::cyclic(n, RANKS),
        }
    }
}

/// What a workload's inputs are made from (sizes only; values come from
/// the seed).
#[derive(Debug, Clone, Copy)]
pub enum InputSpec {
    /// `side × side` five-point grid in natural numbering.
    Grid {
        program: MeshProgram,
        side: usize,
        dist: DistKind,
    },
    /// `nx × ny` unstructured mesh with scrambled numbering.
    Scrambled {
        program: MeshProgram,
        nx: usize,
        ny: usize,
        dist: DistKind,
    },
    /// `rows × cols` field for the phase-change program.
    Field2d { rows: usize, cols: usize },
}

/// How long a solve runs: sweeps or iterations, and for the phase-change
/// program `count` rounds of `per_phase` sweeps per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steps {
    pub count: usize,
    pub per_phase: usize,
}

/// Generated inputs of one workload.
pub enum Problem {
    Mesh {
        program: MeshProgram,
        mesh: AdjacencyMesh,
        dist: DimDist,
        /// Initial field, or the right-hand side for CG.
        field: Vec<f64>,
    },
    PhaseChange {
        rows: usize,
        cols: usize,
        field: Vec<f64>,
    },
}

/// splitmix64: the benchmark's own generator for fields and right-hand
/// sides, so the library sees only the generated values.
fn seeded_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // 53 random bits -> [0.5, 1.5): away from zero, so no sweep
            // count drives the relaxed field into denormals.
            0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// The mesh of a spec.  The 2-D field has none of its own: its grid's
/// five-point mesh is what the layer probes run on (see [`ProbeInput`]).
pub fn mesh_of(spec: &InputSpec, seed: u64) -> AdjacencyMesh {
    match *spec {
        InputSpec::Grid { side, .. } => RegularGrid::square(side).five_point_mesh(),
        InputSpec::Scrambled { nx, ny, .. } => UnstructuredMeshBuilder::new(nx, ny)
            .seed(seed)
            .scramble_numbering(true)
            .build(),
        InputSpec::Field2d { rows, cols } => RegularGrid::new(cols, rows).five_point_mesh(),
    }
}

impl Problem {
    /// Generate a workload's inputs from `seed`: the same seed gives the
    /// same mesh, field and right-hand side.
    pub fn generate(spec: &InputSpec, seed: u64) -> Problem {
        match *spec {
            InputSpec::Grid { program, dist, .. } | InputSpec::Scrambled { program, dist, .. } => {
                let mesh = mesh_of(spec, seed);
                let n = mesh.len();
                Problem::Mesh {
                    program,
                    dist: dist.over(n),
                    field: seeded_values(seed ^ 0xF1E1D, n),
                    mesh,
                }
            }
            InputSpec::Field2d { rows, cols } => Problem::PhaseChange {
                rows,
                cols,
                field: seeded_values(seed ^ 0xF1E1D, rows * cols),
            },
        }
    }
}

fn adaptive_config(steps: Steps) -> AdaptiveConfig {
    AdaptiveConfig {
        sweeps: steps.count,
        adapt_every: Some(1),
        ..AdaptiveConfig::default()
    }
}

fn phase_config(rows: usize, cols: usize, steps: Steps) -> MultiDimConfig {
    MultiDimConfig {
        rounds: steps.count,
        sweeps_per_phase: steps.per_phase,
        strategy: PhaseStrategy::PhaseChange,
        ..MultiDimConfig::new(rows, cols)
    }
}

// ---------------------------------------------------------------------
// Solves and their sequential replays
// ---------------------------------------------------------------------

/// A solution in global numbering; `history` is CG's residual history and
/// empty for the other programs.
pub struct Solution {
    pub field: Vec<f64>,
    pub history: Vec<f64>,
}

/// Counts a solver reports about its own run (one rank's view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounts {
    pub steps: u64,
    pub reductions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_resident_bytes: u64,
}

/// One rank's result of a timed solve.
pub struct RankSolve {
    pub local: Vec<f64>,
    pub history: Vec<f64>,
    pub counts: SolveCounts,
    /// Barrier-to-barrier seconds around the solver call.
    pub elapsed_s: f64,
    /// Bytes the transport wrote during the solve (0 off `mp`).
    pub wire_bytes: u64,
    /// High-water mark of the backend's pending-message queue.
    pub queue_peak: u64,
    /// Spans of the solve, when it ran under [`TimedProc`].
    pub trace: Option<RankTrace>,
}

/// The plain single-threaded replay of `problem`: the result every timed
/// solve must equal bit for bit.
pub fn sequential(problem: &Problem, steps: Steps) -> Solution {
    match problem {
        Problem::Mesh {
            program,
            mesh,
            dist,
            field,
        } => match program {
            MeshProgram::Jacobi => Solution {
                field: jacobi_sequential(mesh, field, steps.count),
                history: Vec::new(),
            },
            MeshProgram::Cg => {
                let (x, history) =
                    cg_sequential(mesh, field, &CgConfig::with_iters(steps.count), dist);
                Solution { field: x, history }
            }
            MeshProgram::AdaptEverySweep => Solution {
                field: adaptive_jacobi_sequential(mesh, field, &adaptive_config(steps)),
                history: Vec::new(),
            },
        },
        Problem::PhaseChange { rows, cols, field } => Solution {
            field: multidim_sequential(&phase_config(*rows, *cols, steps), field),
            history: Vec::new(),
        },
    }
}

fn solve_on<P: Process>(
    proc: &mut P,
    problem: &Problem,
    steps: Steps,
) -> (Vec<f64>, Vec<f64>, SolveCounts) {
    match problem {
        Problem::Mesh {
            program,
            mesh,
            dist,
            field,
        } => match program {
            MeshProgram::Jacobi => {
                let o = jacobi_sweeps(
                    proc,
                    mesh,
                    dist,
                    field,
                    &JacobiConfig::with_sweeps(steps.count),
                );
                let counts = SolveCounts {
                    // One plan call per sweep, each a hit or a miss.
                    steps: o.cache_hits + o.cache_misses,
                    reductions: o.reductions,
                    cache_hits: o.cache_hits,
                    cache_misses: o.cache_misses,
                    cache_evictions: o.cache_evictions,
                    cache_resident_bytes: o.cache_resident_bytes as u64,
                };
                (o.local_a, Vec::new(), counts)
            }
            MeshProgram::Cg => {
                let o = cg_solve(proc, mesh, dist, field, &CgConfig::with_iters(steps.count));
                let cache = o.stats.cache;
                let counts = SolveCounts {
                    steps: o.iterations as u64,
                    reductions: o.stats.reductions,
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    cache_evictions: cache.evictions,
                    cache_resident_bytes: cache.resident_bytes as u64,
                };
                (o.local_x, o.residual_history, counts)
            }
            MeshProgram::AdaptEverySweep => {
                let o = adaptive_jacobi_sweeps(proc, mesh, dist, field, &adaptive_config(steps));
                let counts = SolveCounts {
                    steps: o.cache_hits + o.cache_misses,
                    reductions: 0,
                    cache_hits: o.cache_hits,
                    cache_misses: o.cache_misses,
                    cache_evictions: o.cache_evictions,
                    cache_resident_bytes: o.cache_resident_bytes as u64,
                };
                (o.local_a, Vec::new(), counts)
            }
        },
        Problem::PhaseChange { rows, cols, field } => {
            let config = phase_config(*rows, *cols, steps);
            let o = multidim_sweeps(proc, &config, field);
            let counts = SolveCounts {
                // The outcome carries no sweep count; the library's own
                // function of the configuration stands in.
                steps: config.total_sweeps() as u64,
                cache_hits: o.cache_hits,
                cache_misses: o.cache_misses,
                ..SolveCounts::default()
            };
            (o.local_a, Vec::new(), counts)
        }
    }
}

/// One timed solve: `barrier(); t0; solve; barrier(); t1` on every rank.
/// With `trace_epoch` the backend is wrapped in [`TimedProc`] and the solve
/// (closing barrier included) is recorded as a `solve` span.
pub struct Solve<'a> {
    pub problem: &'a Problem,
    pub steps: Steps,
    pub trace_epoch: Option<Instant>,
}

impl Spmd for Solve<'_> {
    type Out = RankSolve;

    fn rank_main<P: Process>(&self, proc: &mut P) -> RankSolve {
        let before = proc.counters();
        proc.barrier();
        let (local, history, counts, elapsed_s, trace) = match self.trace_epoch {
            None => {
                let start = Instant::now();
                let (local, history, counts) = solve_on(proc, self.problem, self.steps);
                proc.barrier();
                let elapsed_s = start.elapsed().as_secs_f64();
                (local, history, counts, elapsed_s, None)
            }
            Some(epoch) => {
                let mut timed = TimedProc::new(proc, epoch);
                let span = timed.open("solve");
                let (local, history, counts) = solve_on(&mut timed, self.problem, self.steps);
                timed.barrier();
                timed.close(span);
                let trace = timed.finish();
                let elapsed_s = trace.spans[span].seconds();
                (local, history, counts, elapsed_s, Some(trace))
            }
        };
        let after = proc.counters();
        RankSolve {
            local,
            history,
            counts,
            elapsed_s,
            wire_bytes: after.wire_bytes - before.wire_bytes,
            queue_peak: after.queue_peak,
            trace,
        }
    }
}

/// Reassemble the ranks' pieces into global numbering under the placement
/// the run ended on.
pub fn assemble(problem: &Problem, steps: Steps, ranks: &[RankSolve]) -> Solution {
    let locals: Vec<Vec<f64>> = ranks.iter().map(|r| r.local.clone()).collect();
    let field = match problem {
        Problem::Mesh {
            program: MeshProgram::AdaptEverySweep,
            mesh,
            dist,
            ..
        } => gather_global(
            &final_placement(mesh, dist, &adaptive_config(steps)),
            &locals,
        ),
        Problem::Mesh { dist, .. } => gather_global(dist, &locals),
        Problem::PhaseChange { rows, cols, .. } => gather_multidim(
            &row_placement(&phase_config(*rows, *cols, steps), RANKS),
            &locals,
        ),
    };
    Solution {
        field,
        history: ranks[0].history.clone(),
    }
}

// ---------------------------------------------------------------------
// Layer probes inside a machine
// ---------------------------------------------------------------------

/// The mesh-shaped problem the in-machine layer probes run on.  A mesh
/// workload probes its own inputs; the 2-D field is probed through the
/// five-point mesh of its grid under `[block, *]`, whose inspector,
/// cache and executor costs stand for that size even though the
/// phase-change program itself plans in closed form.
pub struct ProbeInput {
    pub mesh: AdjacencyMesh,
    pub dist: DimDist,
    pub field: Vec<f64>,
    /// Where `redistribute.move` sends the field.
    pub move_to: DimDist,
    /// `(rows, cols)` when the workload is the 2-D field: the closed-form
    /// planning probe then goes through the multi-dimensional analysis.
    pub shape: Option<(usize, usize)>,
}

impl ProbeInput {
    pub fn of(problem: &Problem) -> ProbeInput {
        match problem {
            Problem::Mesh {
                mesh, dist, field, ..
            } => {
                let n = mesh.len();
                // Block data moves to cyclic and anything else to block.
                let move_to = if dist.kind_name() == "block" {
                    DimDist::cyclic(n, RANKS)
                } else {
                    DimDist::block(n, RANKS)
                };
                ProbeInput {
                    mesh: mesh.clone(),
                    dist: dist.clone(),
                    field: field.clone(),
                    move_to,
                    shape: None,
                }
            }
            Problem::PhaseChange { rows, cols, field } => ProbeInput {
                mesh: mesh_of(
                    &InputSpec::Field2d {
                        rows: *rows,
                        cols: *cols,
                    },
                    0,
                ),
                dist: DimDist::flattened(ArrayDist::block_rows(*rows, *cols, RANKS)),
                field: field.clone(),
                move_to: DimDist::flattened(ArrayDist::block_cols(*rows, *cols, RANKS)),
                shape: Some((*rows, *cols)),
            },
        }
    }

    /// Share of the mesh's references whose target lives on another rank.
    pub fn nonlocal_ref_share(&self) -> f64 {
        let mut nonlocal = 0u64;
        let mut total = 0u64;
        for i in 0..self.mesh.len() {
            let owner = self.dist.owner(i);
            for &j in self.mesh.neighbors(i) {
                total += 1;
                nonlocal += u64::from(self.dist.owner(j as usize) != owner);
            }
        }
        nonlocal as f64 / total as f64
    }
}

/// Sizes of one rank's planned receive schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCounts {
    pub ranges: u64,
    pub recv_elems: u64,
    pub partners: u64,
}

/// One rank's samples from [`LayerProbes`]; every `Vec` has one entry per
/// repetition.
#[derive(Default)]
pub struct RankProbes {
    pub plan_miss_s: f64,
    pub plan_hit_us: Vec<f64>,
    pub analysis_plan_us: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    /// The sweep minus the part its `proc.*` children cover.
    pub sweep_self_ms: Vec<f64>,
    pub move_ms: Vec<f64>,
    /// Payload bytes this rank sent in one `redistribute.move`.
    pub move_bytes: u64,
    pub schedule: ScheduleCounts,
    pub pingpong_us: Vec<f64>,
    pub halo_mb_s: Vec<f64>,
    pub allreduce_us: Vec<f64>,
    pub exchange_us: Vec<f64>,
    pub trace: RankTrace,
}

/// Calls per timed batch where one call is too short for the clock.
const BATCH: usize = 64;

/// The in-machine probes: each layer's public entry point called directly,
/// with benchmark-owned spans around the calls.
pub struct LayerProbes<'a> {
    pub input: &'a ProbeInput,
    pub reps: usize,
    /// Length in `f64`s of the packed-message bandwidth probe.
    pub message_elems: usize,
    /// Round trips per sample of the latency probes.
    pub round_trips: usize,
    pub epoch: Instant,
}

impl Spmd for LayerProbes<'_> {
    type Out = RankProbes;

    fn rank_main<P: Process>(&self, proc: &mut P) -> RankProbes {
        let mut out = RankProbes::default();
        self.transport_probes(proc, &mut out);
        let mut timed = TimedProc::new(proc, self.epoch);
        self.runtime_probes(&mut timed, &mut out);
        out.trace = timed.finish();
        out
    }
}

impl LayerProbes<'_> {
    /// Inspector, cache, analysis, executor and redistribution, each through
    /// its `Session` entry point.
    fn runtime_probes<P: Process>(&self, timed: &mut TimedProc<'_, P>, out: &mut RankProbes) {
        let ProbeInput {
            mesh,
            dist,
            field,
            move_to,
            shape,
        } = self.input;
        let rank = timed.rank();
        let n = mesh.len();

        // The Figure-4 arrays, scattered as the Jacobi program scatters them.
        let width = mesh.max_degree();
        let local_rows = dist.local_count(rank);
        let old_a: Vec<f64> = (0..local_rows)
            .map(|l| field[dist.global_index(rank, l)])
            .collect();
        let mut a = old_a.clone();
        let mut count = vec![0u32; local_rows];
        let mut adj = vec![0u32; local_rows * width];
        let mut coef = vec![0.0f64; local_rows * width];
        for l in 0..local_rows {
            let g = dist.global_index(rank, l);
            let nbrs = mesh.neighbors(g);
            count[l] = nbrs.len() as u32;
            adj[l * width..l * width + nbrs.len()].copy_from_slice(nbrs);
            coef[l * width..l * width + nbrs.len()].copy_from_slice(mesh.coefs(g));
        }
        let refs_of = |i: usize, refs: &mut Vec<usize>| {
            let l = dist.local_index(i);
            for j in 0..count[l] as usize {
                refs.push(adj[l * width + j] as usize);
            }
        };

        let mut session = Session::new();
        let relaxation = session.loop_1d(n, dist.clone());

        // inspector: the first plan of a key misses and runs the inspector.
        timed.inner().barrier();
        let span = timed.open("plan.miss");
        let schedule = session.plan_indirect(timed, &relaxation, dist, refs_of);
        timed.close(span);
        out.plan_miss_s = span_seconds(timed, span);
        out.schedule = ScheduleCounts {
            ranges: schedule.range_count() as u64,
            recv_elems: schedule.recv_len as u64,
            partners: schedule.recv_partner_count() as u64,
        };

        // cache: the same key again is a hit.
        for _ in 0..self.reps {
            let span = timed.open("plan.hit");
            for _ in 0..BATCH {
                std::hint::black_box(session.plan_indirect(timed, &relaxation, dist, refs_of));
            }
            timed.close(span);
            out.plan_hit_us
                .push(span_seconds(timed, span) * 1e6 / BATCH as f64);
        }

        // analysis: closed-form planning of affine references, as the
        // solvers' aligned loops (1-D) or stencils (2-D) do it.
        for _ in 0..self.reps {
            let span = timed.open("analysis.plan");
            match *shape {
                None => {
                    let aligned = session.loop_1d(n, dist.clone());
                    std::hint::black_box(session.plan(
                        timed,
                        &aligned,
                        dist,
                        &[AffineMap::identity()],
                    ));
                }
                Some((rows, cols)) => {
                    let config = MultiDimConfig::new(rows, cols);
                    let cols_dist = col_placement(&config, RANKS);
                    let vertical = session.loop_over(
                        Rect::full(&[rows, cols]).restrict(0, 1, rows - 1),
                        cols_dist.clone(),
                    );
                    std::hint::black_box(session.plan(
                        timed,
                        &vertical,
                        &cols_dist,
                        &[
                            MultiAffineMap::shifts(&[-1, 0]),
                            MultiAffineMap::identity(2),
                            MultiAffineMap::shifts(&[1, 0]),
                        ],
                    ));
                }
            }
            timed.close(span);
            out.analysis_plan_us.push(span_seconds(timed, span) * 1e6);
        }

        // executor: one sweep of the Figure-4 body on the planned schedule.
        for _ in 0..self.reps {
            timed.inner().barrier();
            let span = timed.open("executor.sweep");
            session.execute_chunked(
                timed,
                &relaxation,
                &schedule,
                dist,
                &old_a,
                |i, fetch| {
                    let l = dist.local_index(i);
                    let deg = count[l] as usize;
                    let mut x = 0.0f64;
                    for j in 0..deg {
                        x += coef[l * width + j] * fetch.fetch(adj[l * width + j] as usize);
                    }
                    (deg > 0).then_some(x)
                },
                |i, x| {
                    if let Some(x) = x {
                        a[dist.local_index(i)] = x;
                    }
                },
            );
            timed.close(span);
            let sweep_s = span_seconds(timed, span);
            let covered_s = timed.recorded().child_seconds(span, None);
            out.sweep_ms.push(sweep_s * 1e3);
            out.sweep_self_ms.push((sweep_s - covered_s) * 1e3);
        }
        std::hint::black_box(&a);

        // redistribute: move the live field to the other placement.
        for _ in 0..self.reps {
            timed.inner().barrier();
            let bytes_before = timed.recorded().bytes;
            let span = timed.open("redistribute.move");
            std::hint::black_box(session.redistribute(timed, dist, move_to, &old_a));
            timed.close(span);
            out.move_ms.push(span_seconds(timed, span) * 1e3);
            out.move_bytes = timed.recorded().bytes - bytes_before;
        }
    }

    /// Bare `Process` calls between the two ranks.
    fn transport_probes<P: Process>(&self, proc: &mut P, out: &mut RankProbes) {
        assert_eq!(proc.nprocs(), 2, "the transport probes are pairwise");
        let me = proc.rank();
        let peer = 1 - me;
        const PING: u64 = 1;
        const HALO: u64 = 2;
        let trips = self.round_trips;

        for _ in 0..self.reps {
            // 8-byte round trip.
            proc.barrier();
            let start = Instant::now();
            for i in 0..trips as u64 {
                if me == 0 {
                    proc.send(peer, PING, i);
                    let _: u64 = proc.recv(peer, PING);
                } else {
                    let v: u64 = proc.recv(peer, PING);
                    proc.send(peer, PING, v);
                }
            }
            out.pingpong_us
                .push(start.elapsed().as_secs_f64() * 1e6 / trips as f64);

            // Packed message of the workload's size, there and back.
            let halo_trips = bulk_round_trips(self.message_elems * 8, trips);
            let mut landing: Vec<f64> = Vec::with_capacity(self.message_elems);
            proc.barrier();
            let start = Instant::now();
            for _ in 0..halo_trips {
                if me == 0 {
                    send_halo(proc, peer, HALO, self.message_elems);
                }
                landing.clear();
                proc.recv_packed_append(peer, HALO, &mut landing);
                if me == 1 {
                    send_halo(proc, peer, HALO, self.message_elems);
                }
            }
            let megabytes = (2 * halo_trips * self.message_elems * 8) as f64 / 1e6;
            out.halo_mb_s
                .push(megabytes / start.elapsed().as_secs_f64());

            proc.barrier();
            let start = Instant::now();
            let mut acc = me as f64;
            for _ in 0..trips {
                acc = proc.allreduce_sum_f64(acc) * 0.5;
            }
            std::hint::black_box(acc);
            out.allreduce_us
                .push(start.elapsed().as_secs_f64() * 1e6 / trips as f64);

            proc.barrier();
            let start = Instant::now();
            for i in 0..trips {
                std::hint::black_box(proc.exchange(vec![(peer, (me, i, i))]));
            }
            out.exchange_us
                .push(start.elapsed().as_secs_f64() * 1e6 / trips as f64);
        }
    }
}

/// Round trips of a `payload_bytes` message per bandwidth sample: about
/// [`BULK_BYTES`] each way in total, at least 4 and at most an eighth of the
/// latency probes' count.
pub fn bulk_round_trips(payload_bytes: usize, round_trips: usize) -> usize {
    const BULK_BYTES: usize = 8 << 20;
    (BULK_BYTES / payload_bytes.max(1)).clamp(4, (round_trips / 8).max(4))
}

fn span_seconds<P: Process>(timed: &TimedProc<'_, P>, span: usize) -> f64 {
    timed.recorded().spans[span].seconds()
}

fn send_halo<P: Process>(proc: &mut P, peer: usize, tag: u64, elems: usize) {
    let mut buffer: Vec<f64> = proc.acquire_send_buffer(elems);
    buffer.resize(elems, 1.0);
    proc.send_packed(peer, tag, buffer);
}

// ---------------------------------------------------------------------
// Layer probes outside any machine (one sample per call)
// ---------------------------------------------------------------------

/// Seconds to partition `mesh` over the ranks by connectivity.
pub fn partition_seconds(mesh: &AdjacencyMesh) -> f64 {
    let start = Instant::now();
    std::hint::black_box(greedy_partition(mesh, RANKS));
    start.elapsed().as_secs_f64()
}

/// `(owner, local_index)` nanoseconds per call over every global index.
pub fn distrib_ns_per_call(dist: &DimDist) -> (f64, f64) {
    let n = dist.n();
    let start = Instant::now();
    let mut acc = 0usize;
    for i in 0..n {
        acc += dist.owner(std::hint::black_box(i));
    }
    let owner_ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    let start = Instant::now();
    for i in 0..n {
        acc += dist.local_index(std::hint::black_box(i));
    }
    let local_index_ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    std::hint::black_box(acc);
    (owner_ns, local_index_ns)
}

/// `(encode, decode)` megabytes per second of a `Vec<f64>` of `elems`
/// elements through the `Wire` codec.
pub fn wire_vec_mb_s(elems: usize) -> (f64, f64) {
    let values = vec![1.5f64; elems];
    let megabytes = (elems * 8) as f64 / 1e6;
    let start = Instant::now();
    let bytes = wire::to_bytes(std::hint::black_box(&values));
    let encode = megabytes / start.elapsed().as_secs_f64();
    let start = Instant::now();
    let back: Vec<f64> = wire::from_bytes(std::hint::black_box(&bytes)).expect("own encoding");
    let decode = megabytes / start.elapsed().as_secs_f64();
    assert_eq!(back.len(), elems);
    (encode, decode)
}

/// Nanoseconds to encode and decode one `f64` scalar.
pub fn wire_scalar_ns() -> f64 {
    const CALLS: usize = 20_000;
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..CALLS {
        let bytes = wire::to_bytes(std::hint::black_box(&(i as f64)));
        acc += wire::from_bytes::<f64>(&bytes).expect("own encoding");
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// Seconds per round trip of a `payload_bytes` frame over a socket pair,
/// with an echo thread on the far side.
pub fn frame_roundtrip_seconds(payload_bytes: usize, round_trips: usize) -> f64 {
    let (near, far) = UnixStream::pair().expect("socketpair");
    let payload = vec![7u8; payload_bytes];
    let hash = frame::type_hash::<Vec<u8>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..round_trips {
                let got = frame::read_frame(&mut &far).expect("echo side reads a frame");
                frame::write_frame(&mut &far, got.seq, got.tag, got.type_hash, &got.payload)
                    .expect("echo side writes a frame");
            }
        });
        let start = Instant::now();
        for seq in 0..round_trips as u64 {
            frame::write_frame(&mut &near, seq, 1, hash, &payload).expect("near side writes");
            let back = frame::read_frame(&mut &near).expect("near side reads the echo");
            assert_eq!(back.payload.len(), payload_bytes);
        }
        start.elapsed().as_secs_f64() / round_trips as f64
    })
}

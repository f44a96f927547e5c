//! Red–black Gauss–Seidel relaxation: **two interleaved `forall`s sharing
//! one schedule cache** — the program shape the [`Session`] API exists for.
//!
//! The nodes are coloured by index parity (red = even, black = odd) and each
//! sweep runs two half-sweeps:
//!
//! 1. the **red** `forall` updates every red node from a snapshot of the
//!    field taken at the start of the half-sweep,
//! 2. the **black** `forall` does the same — and therefore sees the red
//!    values just written.
//!
//! Each half-sweep is a damped relaxation
//! `a[i] := ½·a[i] + ½·Σ_j coef[i,j]·a[adj[i,j]]` (the self-weight makes the
//! iteration aperiodic, so it converges on any connected mesh).  On a mesh
//! whose parity classes are independent sets this is exactly classical
//! red–black Gauss–Seidel; on general adjacency the same-colour references
//! read the snapshot, which keeps the semantics deterministic and
//! placement independent.
//!
//! The two half-sweeps are [`Stripe`]-spaced loops with **distinct loop
//! ids**: each gets its own inspector run and its own cached schedule, but
//! both live in the one session cache (two misses total, hits forever
//! after).  Convergence is watched through the reduction pipeline: every
//! [`RedBlackConfig::check_every`] sweeps, both half-sweeps run as
//! [`Session::execute_reduce`] producing the squared change of the sweep,
//! and the resulting history is bitwise identical across dmsim, native and
//! the sequential replay ([`redblack_sequential`]).

use std::sync::Arc;

use distrib::DimDist;
use kali_core::process::{Counters, Process};
use kali_core::{AffineMap, IterSpace, Reduce, Session, SessionStats, Stripe, Sum};
use meshes::AdjacencyMesh;

use crate::adaptive::{scatter_field, scatter_mesh};
use crate::reduce_replay::replay_reduce_filtered;

/// Parameters of a red–black run.
#[derive(Debug, Clone, Copy)]
pub struct RedBlackConfig {
    /// Number of full sweeps (each = one red + one black half-sweep).
    pub sweeps: usize,
    /// Measure the squared change of the sweep (through the reduction
    /// pipeline) every `k` sweeps; `None` disables the measurement.
    pub check_every: Option<usize>,
    /// Intra-rank worker threads for the executor (`None` keeps the
    /// session default, which honours `KALI_WORKERS`).  The field and
    /// change history are bitwise identical at every worker count.
    pub workers: Option<usize>,
    /// Chunk size for the executor (`None` keeps the session
    /// default, which honours `KALI_CHUNK`).
    pub chunk: Option<usize>,
}

impl Default for RedBlackConfig {
    fn default() -> Self {
        RedBlackConfig {
            sweeps: 50,
            check_every: Some(1),
            workers: None,
            chunk: None,
        }
    }
}

impl RedBlackConfig {
    /// A configuration with the given sweep count and defaults otherwise.
    pub fn with_sweeps(sweeps: usize) -> Self {
        RedBlackConfig {
            sweeps,
            ..RedBlackConfig::default()
        }
    }

    /// True when sweep `sweep` measures its change norm.
    fn checks(&self, sweep: usize) -> bool {
        matches!(self.check_every, Some(k) if k > 0 && (sweep + 1).is_multiple_of(k))
    }
}

/// Per-processor result of a red–black run.
#[derive(Debug, Clone)]
pub struct RedBlackOutcome {
    /// Final values of the locally owned mesh nodes (in local-index order).
    pub local_a: Vec<f64>,
    /// Squared change `Σ_i (a_i' − a_i)²` of every checked sweep (red +
    /// black halves), bitwise identical on every rank and backend.
    pub change_history: Vec<f64>,
    /// Simulated seconds this rank spent planning (from the session).
    pub inspector_time: f64,
    /// Total simulated seconds of the timed region on this rank.
    pub total_time: f64,
    /// Operation counters accumulated during the timed region.
    pub counters: Counters,
    /// Session meters: cache lifecycle plus reduction count/bytes.
    pub stats: SessionStats,
    /// Elements this rank receives per red half-sweep.
    pub red_recv_elements: usize,
    /// Elements this rank receives per black half-sweep.
    pub black_recv_elements: usize,
}

/// The damped half-sweep update at node value `own` with neighbour sum
/// `acc`: `½·own + ½·acc` (one shared definition keeps the distributed body
/// and the sequential replay in exact arithmetic agreement).
#[inline]
fn damped(own: f64, acc: f64) -> f64 {
    0.5 * own + 0.5 * acc
}

/// True when `mesh` is the 1-D chain: `neighbors(i) = {i−1, i+1} ∩ [0, n)`
/// for every node — the adjacency of a three-point stencil stored as
/// run-time data.
fn is_chain_mesh(mesh: &AdjacencyMesh) -> bool {
    let n = mesh.len();
    (0..n).all(|i| {
        let mut expect: Vec<u32> = Vec::with_capacity(2);
        if i > 0 {
            expect.push((i - 1) as u32);
        }
        if i + 1 < n {
            expect.push((i + 1) as u32);
        }
        let mut got: Vec<u32> = mesh.neighbors(i).to_vec();
        got.sort_unstable();
        got == expect
    })
}

/// Run `config.sweeps` red–black sweeps over `mesh`, collectively.
pub fn redblack_sweeps<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    initial: &[f64],
    config: &RedBlackConfig,
) -> RedBlackOutcome {
    let rank = proc.rank();
    let n = mesh.len();
    assert_eq!(dist.n(), n, "distribution must cover every mesh node");
    assert_eq!(initial.len(), n, "initial field must cover every mesh node");

    let mut session = Session::new();
    if let Some(w) = config.workers {
        session.set_workers(w);
    }
    if let Some(c) = config.chunk {
        session.set_chunk_size(c);
    }
    // Two interleaved foralls, distinct ids, one shared cache.
    let red = session.loop_over(Stripe::new(0, n, 2), dist.clone());
    let black = session.loop_over(Stripe::new(1, n, 2), dist.clone());

    let (count, adj, coef, width) = scatter_mesh(mesh, dist, rank);
    let mut a = scatter_field(dist, rank, initial);
    let local_rows = a.len();
    let mut old_a = vec![0.0f64; local_rows];

    let start_clock = proc.time();
    let counters_start = proc.counters();

    // Each colour's references are exactly its own nodes' adjacency, so the
    // two schedules are disjoint halves of the Jacobi schedule.
    //
    // Chain meshes — `neighbors(i) = {i−1, i+1} ∩ [0, n)` — are the 1-D
    // three-point stencil stored as run-time data: each colour's references
    // are the affine shifts `i∓1` over its stripe (boundary references
    // clip, which is why this asks the space itself and not
    // `Session::plan`, whose debug builds reject a reference that leaves
    // the array), so the schedule has a closed form
    // ([`IterSpace::analyze`]) and planning exchanges **zero messages** and
    // never runs the inspector.  Any other adjacency falls back to the
    // cached inspector.
    let (red_schedule, black_schedule) = if is_chain_mesh(mesh) {
        let stencil = [AffineMap::shift(-1), AffineMap::shift(1)];
        let stripe_schedule = |colour: &Stripe| {
            let schedule = colour.analyze(dist, dist, &stencil, rank);
            Arc::new(schedule.expect("unit-stride stripe stencils always have a closed form"))
        };
        (stripe_schedule(&red.space), stripe_schedule(&black.space))
    } else {
        let refs_of = |i: usize, refs: &mut Vec<usize>| {
            let l = dist.local_index(i);
            for j in 0..count[l] as usize {
                refs.push(adj[l * width + j] as usize);
            }
        };
        (
            session.plan_indirect(proc, &red, dist, refs_of),
            session.plan_indirect(proc, &black, dist, refs_of),
        )
    };
    let red_recv_elements = red_schedule.recv_len;
    let black_recv_elements = black_schedule.recv_len;

    let mut change_history = Vec::new();

    for sweep in 0..config.sweeps {
        let check = config.checks(sweep);
        let mut sweep_change = 0.0f64;
        for (loop_, schedule) in [(&red, &red_schedule), (&black, &black_schedule)] {
            // Snapshot for this half-sweep: same-colour references read it,
            // cross-colour references see the other half's fresh values.
            for l in 0..local_rows {
                proc.charge_loop_iters(1);
                proc.charge_mem_refs(2);
                old_a[l] = a[l];
            }
            let old_ref = &old_a;
            let count_ref = &count;
            let adj_ref = &adj;
            let coef_ref = &coef;
            // The node's local offset and its new value.
            let body_value = |fetch: &mut kali_core::Fetcher<'_, f64, DimDist>| -> (usize, f64) {
                let l = fetch.home();
                fetch.charge_mem_refs(2); // count[i], a[i]
                let deg = count_ref[l] as usize;
                let mut acc = 0.0f64;
                for j in 0..deg {
                    fetch.charge_loop_iters(1);
                    fetch.charge_mem_refs(2); // adj[i,j], coef[i,j]
                    let nb = adj_ref[l * width + j] as usize;
                    let c = coef_ref[l * width + j];
                    let v = fetch.fetch(nb);
                    fetch.charge_flops(2);
                    acc += c * v;
                }
                fetch.charge_flops(2);
                let new = if deg > 0 {
                    damped(old_ref[l], acc)
                } else {
                    old_ref[l]
                };
                (l, new)
            };
            if check {
                let a_mut = &mut a;
                let half_change = session.execute_reduce(
                    proc,
                    loop_,
                    schedule,
                    dist,
                    &old_a,
                    Reduce::<Sum<f64>>::new(),
                    |_, fetch| {
                        let (l, new) = body_value(fetch);
                        fetch.charge_flops(3);
                        let d = new - old_ref[l];
                        ((l, new), d * d)
                    },
                    |_, (l, new)| {
                        a_mut[l] = new;
                    },
                );
                proc.charge_flops(1);
                sweep_change += half_change;
            } else {
                let a_mut = &mut a;
                session.execute(
                    proc,
                    loop_,
                    schedule,
                    dist,
                    &old_a,
                    |_, fetch| body_value(fetch),
                    |_, (l, new)| {
                        a_mut[l] = new;
                    },
                );
            }
        }
        if check {
            change_history.push(sweep_change);
        }
    }

    let total_time = proc.time() - start_clock;
    let counters = proc.counters().since(&counters_start);

    RedBlackOutcome {
        local_a: a,
        change_history,
        inspector_time: session.inspector_time(),
        total_time,
        counters,
        stats: session.stats(),
        red_recv_elements,
        black_recv_elements,
    }
}

/// Sequential replay of the same red–black run: identical half-sweep
/// snapshots, identical arithmetic, identical reduction structure — the
/// distributed field and change history match this bit for bit on every
/// backend.  Returns `(field, change_history)`.
pub fn redblack_sequential(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    config: &RedBlackConfig,
    dist: &DimDist,
) -> (Vec<f64>, Vec<f64>) {
    let n = mesh.len();
    assert_eq!(initial.len(), n);
    let mut a = initial.to_vec();
    let mut old_a = vec![0.0f64; n];
    let mut history = Vec::new();

    for sweep in 0..config.sweeps {
        let check = config.checks(sweep);
        let mut sweep_change = 0.0f64;
        for colour in 0..2usize {
            old_a.copy_from_slice(&a);
            for i in (colour..n).step_by(2) {
                let deg = mesh.degree(i);
                let mut acc = 0.0f64;
                for j in 0..deg {
                    acc += mesh.coefs(i)[j] * old_a[mesh.neighbors(i)[j] as usize];
                }
                a[i] = if deg > 0 {
                    damped(old_a[i], acc)
                } else {
                    old_a[i]
                };
            }
            if check {
                let half = replay_reduce_filtered::<Sum<f64>, _, _, _>(
                    dist,
                    |i| i % 2 == colour,
                    |i| {
                        let d = a[i] - old_a[i];
                        d * d
                    },
                );
                sweep_change += half;
            }
        }
        if check {
            history.push(sweep_change);
        }
    }
    (a, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::partitioned_dist;
    use dmsim::{CostModel, Machine};
    use meshes::{RegularGrid, UnstructuredMeshBuilder};

    fn field(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 29) % 23) as f64 * 0.125).collect()
    }

    fn gather(dist: &DimDist, outcomes: &[RedBlackOutcome]) -> Vec<f64> {
        crate::adaptive::gather_global(
            dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn two_loop_ids_share_one_cache_and_inspect_once_each() {
        let mesh = UnstructuredMeshBuilder::new(8, 8).seed(5).build();
        let initial = field(mesh.len());
        let config = RedBlackConfig {
            sweeps: 8,
            check_every: None,
            ..RedBlackConfig::default()
        };
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            redblack_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        for o in &outcomes {
            assert_eq!(o.stats.loops_allocated, 2);
            assert_eq!(o.stats.cache.misses, 2, "one inspector run per colour");
            assert_eq!(
                o.stats.cache.hits, 0,
                "schedules are planned once, up front"
            );
            assert_eq!(o.stats.cache.resident_entries, 2);
            assert_eq!(o.stats.sweeps_executed, 2 * 8);
            assert_eq!(o.stats.reductions, 0);
        }
    }

    #[test]
    fn matches_the_sequential_replay_bitwise_under_partitioned_placement() {
        let mesh = UnstructuredMeshBuilder::new(10, 10)
            .seed(19)
            .scramble_numbering(true)
            .build();
        let initial = field(mesh.len());
        let config = RedBlackConfig {
            sweeps: 12,
            check_every: Some(3),
            ..RedBlackConfig::default()
        };
        let nprocs = 4;
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            redblack_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let dist = DimDist::custom(meshes::greedy_partition(&mesh, nprocs), nprocs);
        let (seq_a, seq_history) = redblack_sequential(&mesh, &initial, &config, &dist);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in &outcomes {
            assert_eq!(bits(&o.change_history), bits(&seq_history));
            assert_eq!(o.stats.reductions, 2 * 4, "two per checked sweep");
        }
        assert_eq!(bits(&gather(&dist, &outcomes)), bits(&seq_a));
    }

    #[test]
    fn change_norm_falls_monotonically_on_a_connected_mesh() {
        let mesh = RegularGrid::square(10).five_point_mesh();
        let initial = field(mesh.len());
        let config = RedBlackConfig {
            sweeps: 40,
            check_every: Some(1),
            ..RedBlackConfig::default()
        };
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            redblack_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let history = &outcomes[0].change_history;
        assert_eq!(history.len(), 40);
        assert!(
            history[39] < history[0] * 1e-3,
            "relaxation must converge: {} -> {}",
            history[0],
            history[39]
        );
        for w in history.windows(2) {
            assert!(w[1] <= w[0], "change norm must not increase: {w:?}");
        }
    }

    #[test]
    fn chain_meshes_plan_in_closed_form_with_zero_messages() {
        // A 1-D chain is the three-point stencil as run-time data: planning
        // must go through the stripe closed form — no inspector runs (cache
        // misses stay 0) and no planning traffic at all.
        let mesh = RegularGrid::new(40, 1).five_point_mesh();
        assert!(is_chain_mesh(&mesh));
        let initial = field(mesh.len());
        let config = RedBlackConfig {
            sweeps: 0, // counters then cover planning alone
            check_every: None,
            ..RedBlackConfig::default()
        };
        let nprocs = 4;
        for dist in [
            DimDist::block(mesh.len(), nprocs),
            DimDist::cyclic(mesh.len(), nprocs),
        ] {
            let machine = Machine::new(nprocs, CostModel::ncube7());
            let outcomes = machine.run(|proc| {
                let d = dist.clone();
                redblack_sweeps(proc, &mesh, &d, &initial, &config)
            });
            for (rank, o) in outcomes.iter().enumerate() {
                assert_eq!(o.stats.cache.misses, 0, "rank {rank}: no inspector runs");
                assert_eq!(o.stats.cache.resident_entries, 0);
                assert_eq!(
                    o.counters.msgs_sent, 0,
                    "rank {rank}: zero planning messages"
                );
                assert_eq!(o.counters.msgs_recv, 0);
                assert_eq!(o.inspector_time, 0.0, "closed form costs no simulated time");
            }
            // The closed form still produced real halo schedules.
            let total_recv: usize = outcomes
                .iter()
                .map(|o| o.red_recv_elements + o.black_recv_elements)
                .sum();
            assert!(
                total_recv > 0,
                "chain halos must exist across {nprocs} ranks"
            );
        }
    }

    #[test]
    fn chain_fast_path_matches_the_sequential_replay_bitwise() {
        // The closed-form schedules must drive the executor to the exact
        // same bits as the (inspector-planned) contract: field and change
        // history agree with the sequential replay on every rank.
        let mesh = RegularGrid::new(37, 1).five_point_mesh();
        assert!(is_chain_mesh(&mesh));
        let initial = field(mesh.len());
        let config = RedBlackConfig {
            sweeps: 10,
            check_every: Some(2),
            ..RedBlackConfig::default()
        };
        let nprocs = 4;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dist in [
            DimDist::block(mesh.len(), nprocs),
            DimDist::cyclic(mesh.len(), nprocs),
            DimDist::block_cyclic(mesh.len(), nprocs, 3),
        ] {
            let machine = Machine::new(nprocs, CostModel::ideal());
            let outcomes = machine.run(|proc| {
                let d = dist.clone();
                redblack_sweeps(proc, &mesh, &d, &initial, &config)
            });
            let (seq_a, seq_history) = redblack_sequential(&mesh, &initial, &config, &dist);
            for o in &outcomes {
                assert_eq!(bits(&o.change_history), bits(&seq_history));
                assert_eq!(o.stats.cache.misses, 0, "chain planning never inspects");
            }
            assert_eq!(bits(&gather(&dist, &outcomes)), bits(&seq_a));
        }
    }

    #[test]
    fn non_chain_meshes_still_use_the_cached_inspector() {
        // A 2-D grid is not a chain: detection must leave the indirect path
        // (and its cache behaviour) untouched.
        assert!(!is_chain_mesh(&RegularGrid::square(5).five_point_mesh()));
        assert!(!is_chain_mesh(
            &UnstructuredMeshBuilder::new(6, 6).seed(3).build()
        ));
        // A scrambled chain is not a chain either (numbering matters).
        let mesh = RegularGrid::new(12, 1).five_point_mesh();
        assert!(is_chain_mesh(&mesh));
    }

    #[test]
    fn checked_and_unchecked_runs_produce_the_same_field() {
        // The reduction is a pure output: turning it on must not change a
        // single bit of the field.
        let mesh = UnstructuredMeshBuilder::new(9, 9).seed(2).build();
        let initial = field(mesh.len());
        let run = |check_every| {
            let config = RedBlackConfig {
                sweeps: 6,
                check_every,
                ..RedBlackConfig::default()
            };
            let machine = Machine::new(4, CostModel::ideal());
            let outcomes = machine.run(|proc| {
                let dist = DimDist::block(mesh.len(), proc.nprocs());
                redblack_sweeps(proc, &mesh, &dist, &initial, &config)
            });
            let dist = DimDist::block(mesh.len(), 4);
            gather(&dist, &outcomes)
        };
        let with = run(Some(1));
        let without = run(None);
        assert_eq!(
            with.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            without.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

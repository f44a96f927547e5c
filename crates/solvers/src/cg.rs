//! Conjugate gradient over an [`AdjacencyMesh`] — the solver that stresses
//! **per-iteration collective cost**: every iteration interleaves three
//! `forall`s with *two* global dot-product reductions, all through one
//! [`Session`].
//!
//! The operator is the shifted graph Laplacian of the mesh with unit edge
//! weights, `A = L + I`:
//!
//! ```text
//! (A x)[i] = (1 + deg(i)) · x[i] − Σ_j x[adj[i, j]]
//! ```
//!
//! which is symmetric positive definite for any symmetric adjacency — the
//! mesh builders all produce symmetric meshes — so CG converges on every
//! mesh and every placement.  Per iteration:
//!
//! 1. **mat-vec + dot** — `q := A·p` is the inspector-planned indirect
//!    `forall` (the `adj` subscripts are data dependent, exactly like
//!    Jacobi's), and the same sweep *is* the reduction producing
//!    `⟨p, q⟩`: the body returns `p[i]·q[i]` and
//!    [`Session::execute_reduce`] combines the contributions under
//!    [`Sum<f64>`](kali_core::Sum) in the fixed deterministic order.
//! 2. **update + dot** — `x += α·p`, `r −= α·q`, fused with the reduction
//!    producing the new residual norm `⟨r, r⟩` (the identity-subscript loop
//!    plans through the closed form: zero planning messages).
//! 3. **direction** — `p := r + β·p`, a plain local sweep.
//!
//! The residual history — one `⟨r, r⟩` per iteration — is **bitwise
//! identical** across dmsim, native and the sequential replay
//! ([`cg_sequential`]), because every reduction folds in ascending iteration
//! order per rank and ascending rank order across ranks (the
//! [`ReduceOp`](kali_core::ReduceOp) determinism contract).
//!
//! **CG under churn**: with [`CgConfig::adapt_every`] set, the mesh is
//! perturbed on Jacobi's churn schedule ([`meshes::adapts_before`]), the data
//! version bumps, and only the mat-vec re-inspects, once per generation — a
//! runtime stress test, not a convergent solve (the operator changes under
//! the iteration).

use std::borrow::Cow;

use distrib::DimDist;
use kali_core::process::{Counters, Process};
use kali_core::{AffineMap, Reduce, Session, SessionStats, Sum};
use meshes::{adapt_step, adapts_before, AdaptConfig, AdjacencyMesh};

use crate::adaptive::{scatter_field, scatter_mesh};
use crate::reduce_replay::replay_sum;

/// Parameters of a CG run.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Maximum number of CG iterations.
    pub iters: usize,
    /// Perturb the mesh before every iteration that is a positive multiple
    /// of this interval (`None` = static mesh, the convergent setting).
    pub adapt_every: Option<usize>,
    /// Parameters of the deterministic mesh perturbation.
    pub adapt: AdaptConfig,
    /// Residency bound of the session's schedule cache.
    pub cache_capacity: usize,
    /// Intra-rank worker threads for the executor (`None` keeps the
    /// session default, which honours `KALI_WORKERS`).  The residual
    /// history is bitwise identical at every worker count.
    pub workers: Option<usize>,
    /// Chunk size for the executor (`None` keeps the session
    /// default, which honours `KALI_CHUNK`).
    pub chunk: Option<usize>,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            iters: 50,
            adapt_every: None,
            adapt: AdaptConfig::default(),
            cache_capacity: kali_core::cache::DEFAULT_CAPACITY,
            workers: None,
            chunk: None,
        }
    }
}

impl CgConfig {
    /// A configuration with the given iteration count and defaults
    /// otherwise.
    pub fn with_iters(iters: usize) -> Self {
        CgConfig {
            iters,
            ..CgConfig::default()
        }
    }
}

/// Per-processor result of a CG run.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// Final values of the locally owned entries of the solution `x`.
    pub local_x: Vec<f64>,
    /// `⟨r, r⟩` after every performed iteration, preceded by the initial
    /// `⟨b, b⟩` — identical on every rank and every backend, bit for bit.
    pub residual_history: Vec<f64>,
    /// Iterations actually performed (early exit on an exactly zero
    /// residual or curvature).
    pub iterations: usize,
    /// Number of mesh perturbations performed (CG under churn).
    pub adaptations: u64,
    /// Simulated seconds this rank spent planning (from the session).
    pub inspector_time: f64,
    /// Total simulated seconds of the timed region on this rank.
    pub total_time: f64,
    /// Operation counters accumulated during the timed region.
    pub counters: Counters,
    /// Session meters: cache lifecycle plus reduction count/bytes.
    pub stats: SessionStats,
    /// Elements this rank receives per mat-vec sweep.
    pub recv_elements: usize,
    /// Range records in this rank's mat-vec receive schedule.
    pub schedule_ranges: usize,
}

/// Solve `(L + I) x = b` by conjugate gradients, collectively.  `b` is the
/// globally replicated right-hand side; the returned `local_x` holds this
/// rank's entries under `dist`.
pub fn cg_solve<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    b: &[f64],
    config: &CgConfig,
) -> CgOutcome {
    let rank = proc.rank();
    let n = mesh.len();
    assert_eq!(dist.n(), n, "distribution must cover every mesh node");
    assert_eq!(b.len(), n, "right-hand side must cover every mesh node");

    // Borrowed until the first adaptation: a static solve never copies the mesh.
    let mut mesh = Cow::Borrowed(mesh);
    let mut session = Session::with_cache_capacity(config.cache_capacity);
    if let Some(w) = config.workers {
        session.set_workers(w);
    }
    if let Some(c) = config.chunk {
        session.set_chunk_size(c);
    }
    // The three foralls of one CG iteration, ids allocated in program order.
    let matvec = session.loop_1d(n, dist.clone());
    let update = session.loop_1d(n, dist.clone());
    let direction = session.loop_1d(n, dist.clone());

    // ---- Set-up (untimed): scatter the operator and the vectors ----------
    let (mut count, mut adj, _coef, mut width) = scatter_mesh(&mesh, dist, rank);
    let local_rows = dist.local_count(rank);
    let mut x = vec![0.0f64; local_rows];
    let mut r = scatter_field(dist, rank, b);
    let mut p = r.clone();
    let mut q = vec![0.0f64; local_rows];
    // Write-side buffers for the executor: its body sees a
    // read-only view, so sweeps that update a vector they also read write
    // the new values here and swap afterwards.  `x_new + swap` is bitwise
    // identical to `x += …` — same operands, same operation.
    let mut x_next = vec![0.0f64; local_rows];
    let mut r_next = vec![0.0f64; local_rows];
    let mut p_next = vec![0.0f64; local_rows];

    let start_clock = proc.time();
    let counters_start = proc.counters();

    // Identity-subscript loops plan through the closed form (zero planning
    // messages); their schedules never depend on the adjacency, so they are
    // planned once.
    let update_schedule = session.plan(proc, &update, dist, &[AffineMap::identity()]);
    let direction_schedule = session.plan(proc, &direction, dist, &[AffineMap::identity()]);

    // rho = ⟨r, r⟩, as a pure reduction sweep over the update loop.
    let mut rho = {
        let r_ref = &r;
        session.execute_reduce(
            proc,
            &update,
            &update_schedule,
            dist,
            &r,
            Reduce::<Sum<f64>>::new(),
            |_, fetch| {
                fetch.charge_flops(1);
                let v = r_ref[fetch.home()];
                ((), v * v)
            },
            |_, ()| {},
        )
    };
    let mut residual_history = vec![rho];

    let mut recv_elements = 0usize;
    let mut schedule_ranges = 0usize;
    let mut adaptations = 0u64;
    let mut iterations = 0usize;

    for iter in 0..config.iters {
        // -- CG under churn: perturb the operator, bump the data version --
        if adapts_before(config.adapt_every, iter) {
            mesh = Cow::Owned(adapt_step(&mesh, &config.adapt, adaptations));
            adaptations += 1;
            session.bump_data_version();
            (count, adj, _, width) = scatter_mesh(&mesh, dist, rank);
        }

        // -- q := A p, fused with pq = ⟨p, q⟩ -----------------------------
        let matvec_schedule = session.plan_indirect(proc, &matvec, dist, |i, refs| {
            let l = dist.local_index(i);
            for j in 0..count[l] as usize {
                refs.push(adj[l * width + j] as usize);
            }
        });
        recv_elements = matvec_schedule.recv_len;
        schedule_ranges = matvec_schedule.range_count();
        let pq = {
            let p_ref = &p;
            let count_ref = &count;
            let adj_ref = &adj;
            let q_mut = &mut q;
            session.execute_reduce(
                proc,
                &matvec,
                &matvec_schedule,
                dist,
                &p,
                Reduce::<Sum<f64>>::new(),
                |_, fetch| {
                    let l = fetch.home();
                    fetch.charge_mem_refs(2); // count[i], p[i]
                    let deg = count_ref[l] as usize;
                    fetch.charge_flops(2);
                    let mut acc = (1.0 + deg as f64) * p_ref[l];
                    for j in 0..deg {
                        fetch.charge_loop_iters(1);
                        fetch.charge_mem_refs(1); // adj[i,j]
                        let nb = adj_ref[l * width + j] as usize;
                        let v = fetch.fetch(nb);
                        fetch.charge_flops(1);
                        acc -= v;
                    }
                    fetch.charge_mem_refs(1); // q[i] := acc
                    fetch.charge_flops(1);
                    ((l, acc), p_ref[l] * acc)
                },
                |_, (l, acc)| {
                    q_mut[l] = acc;
                },
            )
        };
        if pq == 0.0 {
            break; // exact solution (or zero direction); identical everywhere
        }
        let alpha = rho / pq;

        // -- x += α p, r −= α q, fused with rho_new = ⟨r, r⟩ ---------------
        let rho_new = {
            let p_ref = &p;
            let q_ref = &q;
            let x_ref = &x;
            let r_ref = &r;
            let x_sink = &mut x_next;
            let r_sink = &mut r_next;
            session.execute_reduce(
                proc,
                &update,
                &update_schedule,
                dist,
                &p,
                Reduce::<Sum<f64>>::new(),
                |_, fetch| {
                    let l = fetch.home();
                    fetch.charge_mem_refs(4);
                    fetch.charge_flops(5);
                    let xn = x_ref[l] + alpha * p_ref[l];
                    let rn = r_ref[l] - alpha * q_ref[l];
                    ((l, xn, rn), rn * rn)
                },
                |_, (l, xn, rn)| {
                    x_sink[l] = xn;
                    r_sink[l] = rn;
                },
            )
        };
        std::mem::swap(&mut x, &mut x_next);
        std::mem::swap(&mut r, &mut r_next);
        residual_history.push(rho_new);
        iterations = iter + 1;
        let beta = rho_new / rho;
        rho = rho_new;

        // -- p := r + β p --------------------------------------------------
        {
            let r_ref = &r;
            let p_ref = &p;
            let p_sink = &mut p_next;
            session.execute(
                proc,
                &direction,
                &direction_schedule,
                dist,
                &r,
                |_, fetch| {
                    let l = fetch.home();
                    fetch.charge_mem_refs(3);
                    fetch.charge_flops(2);
                    (l, r_ref[l] + beta * p_ref[l])
                },
                |_, (l, v)| {
                    p_sink[l] = v;
                },
            );
        }
        std::mem::swap(&mut p, &mut p_next);

        if rho == 0.0 {
            break; // converged exactly; rho identical everywhere
        }
    }

    let total_time = proc.time() - start_clock;
    let counters = proc.counters().since(&counters_start);

    CgOutcome {
        local_x: x,
        residual_history,
        iterations,
        adaptations,
        inspector_time: session.inspector_time(),
        total_time,
        counters,
        stats: session.stats(),
        recv_elements,
        schedule_ranges,
    }
}

/// Sequential replay of the same CG run: identical adaptation schedule,
/// identical per-element arithmetic, and identical reduction structure (per-
/// rank partials over `dist`'s owned sets in ascending order, combined in
/// rank order) — so the distributed residual history matches this one bit
/// for bit on every backend.  Returns `(x, residual_history)`.
pub fn cg_sequential(
    mesh: &AdjacencyMesh,
    b: &[f64],
    config: &CgConfig,
    dist: &DimDist,
) -> (Vec<f64>, Vec<f64>) {
    let n = mesh.len();
    assert_eq!(b.len(), n);
    let mut mesh = mesh.clone();
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0f64; n];

    let mut rho = replay_sum(dist, |i| r[i] * r[i]);
    let mut history = vec![rho];
    let mut adaptations = 0u64;

    for iter in 0..config.iters {
        if adapts_before(config.adapt_every, iter) {
            mesh = adapt_step(&mesh, &config.adapt, adaptations);
            adaptations += 1;
        }
        for i in 0..n {
            let deg = mesh.degree(i);
            let mut acc = (1.0 + deg as f64) * p[i];
            for j in 0..deg {
                acc -= p[mesh.neighbors(i)[j] as usize];
            }
            q[i] = acc;
        }
        let pq = replay_sum(dist, |i| p[i] * q[i]);
        if pq == 0.0 {
            break;
        }
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = replay_sum(dist, |i| r[i] * r[i]);
        history.push(rho_new);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        if rho == 0.0 {
            break;
        }
    }
    (x, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::partitioned_dist;
    use dmsim::{CostModel, Machine};
    use meshes::{RegularGrid, UnstructuredMeshBuilder};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
            .collect()
    }

    fn gather(dist: &DimDist, outcomes: &[CgOutcome]) -> Vec<f64> {
        crate::adaptive::gather_global(
            dist,
            &outcomes
                .iter()
                .map(|o| o.local_x.clone())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn cg_converges_on_the_grid_mesh_under_block_placement() {
        let mesh = RegularGrid::square(12).five_point_mesh();
        let b = rhs(mesh.len());
        let config = CgConfig::with_iters(60);
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            cg_solve(proc, &mesh, &dist, &b, &config)
        });
        let history = &outcomes[0].residual_history;
        let first = history[0];
        let last = *history.last().unwrap();
        assert!(
            last < first * 1e-12,
            "CG must drive the residual down: {first} -> {last}"
        );
        // The solution really solves (L + I) x = b.
        let dist = DimDist::block(mesh.len(), 4);
        let x = gather(&dist, &outcomes);
        for i in 0..mesh.len() {
            let deg = mesh.degree(i);
            let mut ax = (1.0 + deg as f64) * x[i];
            for j in 0..deg {
                ax -= x[mesh.neighbors(i)[j] as usize];
            }
            assert!(
                (ax - b[i]).abs() < 1e-6,
                "residual at node {i}: {ax} vs {}",
                b[i]
            );
        }
    }

    #[test]
    fn residual_history_matches_the_sequential_replay_bitwise() {
        let mesh = UnstructuredMeshBuilder::new(10, 10)
            .seed(7)
            .scramble_numbering(true)
            .build();
        let b = rhs(mesh.len());
        let config = CgConfig::with_iters(25);
        let nprocs = 4;
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            cg_solve(proc, &mesh, &dist, &b, &config)
        });
        let dist = DimDist::custom(meshes::greedy_partition(&mesh, nprocs), nprocs);
        let (seq_x, seq_history) = cg_sequential(&mesh, &b, &config, &dist);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in &outcomes {
            assert_eq!(
                bits(&o.residual_history),
                bits(&seq_history),
                "distributed residual history must replay bitwise"
            );
        }
        assert_eq!(bits(&gather(&dist, &outcomes)), bits(&seq_x));
    }

    #[test]
    fn two_reductions_per_iteration_and_one_inspector_run() {
        use kali_core::process::Event;
        let mesh = UnstructuredMeshBuilder::new(8, 8).seed(3).build();
        let b = rhs(mesh.len());
        let config = CgConfig::with_iters(10);
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            proc.trace_start();
            let outcome = cg_solve(proc, &mesh, &dist, &b, &config);
            (outcome, proc.trace_take())
        });
        for (rank, (o, trace)) in outcomes.iter().enumerate() {
            assert_eq!(o.iterations, 10);
            // 1 initial ⟨b,b⟩ + 2 per iteration, all through the session.
            assert_eq!(o.stats.reductions, 1 + 2 * 10);
            let sends = kali_core::process::tree_allreduce_sends(4, rank) as u64;
            assert_eq!(
                o.stats.reduction_bytes,
                (1 + 2 * 10) * sends * 8,
                "tree sends * 8 bytes per reduction"
            );
            // The mat-vec plans once; the identity loops never miss.
            assert_eq!(o.stats.cache.misses, 1);
            assert_eq!(o.stats.cache.hits, 9);
            assert_eq!(o.stats.loops_allocated, 3);
            // Traced, each reduction is marked once with its operator, just
            // ahead of the allreduce it runs.
            let ops: Vec<&str> = trace.iter().filter_map(Event::collective).collect();
            let marked: Vec<usize> = (0..ops.len()).filter(|&k| ops[k] == "sum-f64").collect();
            assert_eq!(marked.len() as u64, o.stats.reductions, "rank {rank}");
            assert!(marked.iter().all(|&k| ops[k + 1] == "allreduce"));
        }
        let traces: Vec<_> = outcomes.into_iter().map(|(_, trace)| trace).collect();
        assert_eq!(kali_core::check_trace(&traces), vec![]);
    }

    #[test]
    fn cg_under_churn_reinspects_once_per_generation_and_replays_bitwise() {
        let mesh = UnstructuredMeshBuilder::new(8, 8)
            .seed(11)
            .scramble_numbering(true)
            .build();
        let b = rhs(mesh.len());
        let config = CgConfig {
            iters: 12,
            adapt_every: Some(4), // perturb before iterations 4 and 8
            ..CgConfig::default()
        };
        let nprocs = 4;
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            cg_solve(proc, &mesh, &dist, &b, &config)
        });
        let dist = DimDist::block(mesh.len(), nprocs);
        let (_, seq_history) = cg_sequential(&mesh, &b, &config, &dist);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in &outcomes {
            assert_eq!(o.adaptations, 2);
            // One mat-vec inspection per mesh generation, none elsewhere.
            assert_eq!(o.stats.cache.misses, 3);
            // Generation self-invalidation reclaims the dead schedules.
            assert_eq!(o.stats.cache.evictions, 2);
            assert_eq!(o.stats.cache.resident_entries, 1);
            assert_eq!(bits(&o.residual_history), bits(&seq_history));
        }
    }
}

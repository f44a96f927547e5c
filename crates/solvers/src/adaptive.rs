//! Adaptive-mesh Jacobi: the workload that stresses the paper's
//! amortisation argument.
//!
//! §3.2 of the paper claims the inspector is affordable because its cost is
//! amortised "over many repetitions of the forall" — implicitly assuming
//! the `adj` array (and the placement) never changes.  An adaptive-mesh
//! run breaks that assumption on a schedule: every *k* sweeps the mesh is
//! refined or coarsened ([`meshes::adapt`]), which changes the reference
//! pattern of the relaxation `forall`; optionally the node placement is
//! rebalanced to the new connectivity and the live solution array is
//! redistributed.  The runtime contract under churn is:
//!
//! * every adaptation bumps the **data version**, so the schedule cache
//!   re-inspects exactly when the adjacency changed — never on any other
//!   sweep;
//! * every rebalance changes the **distribution fingerprint** and
//!   explicitly reclaims the retired placement's schedules
//!   ([`Session::retire_placement`]);
//! * cache residency stays **bounded** no matter how many (version,
//!   fingerprint) keys a long run mints — generation self-invalidation plus
//!   the LRU bound, measured by the eviction/resident-bytes counters the
//!   outcome surfaces.
//!
//! Amortisation then reappears as a function of the adaptation interval:
//! inspector cost per sweep is `O(1/k)`, falling toward the paper's
//! static-mesh figure as `k → ∞` (`table_adaptation` reproduces the curve).
//!
//! Everything here is deterministic — mesh evolution, partitioning,
//! iteration order, schedule construction — so dmsim and the native
//! backend produce bit-identical fields, and the sequential replay
//! ([`adaptive_jacobi_sequential`]) matches both exactly.

use distrib::{DimDist, Distribution};
use kali_core::process::{Counters, Process};
use kali_core::Session;
use meshes::{adapt_step, evolve, AdaptConfig, AdjacencyMesh};

use crate::jacobi::relax_node;
use crate::partitioned::partitioned_dist;

/// Parameters of an adaptive-mesh Jacobi run.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Total number of relaxation sweeps.
    pub sweeps: usize,
    /// Adapt the mesh before every sweep whose index is a positive multiple
    /// of this interval (`None` = static mesh, the paper's setting).
    pub adapt_every: Option<usize>,
    /// Parameters of the deterministic mesh perturbation.
    pub adapt: AdaptConfig,
    /// After each adaptation, repartition the new connectivity and
    /// redistribute the live solution array to the rebalanced placement.
    pub rebalance: bool,
    /// Overlap communication with local iterations (the paper's executor
    /// shape).
    pub overlap: bool,
    /// Residency bound of the schedule cache.
    pub cache_capacity: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            sweeps: 100,
            adapt_every: None,
            adapt: AdaptConfig::default(),
            rebalance: false,
            overlap: true,
            cache_capacity: kali_core::cache::DEFAULT_CAPACITY,
        }
    }
}

impl AdaptiveConfig {
    /// Number of adaptations a run of `self.sweeps` sweeps performs.
    pub fn adaptation_count(&self) -> u64 {
        match self.adapt_every {
            Some(k) if k > 0 && self.sweeps > 0 => ((self.sweeps - 1) / k) as u64,
            _ => 0,
        }
    }

    /// True when the mesh is adapted immediately before sweep `sweep`.
    fn adapts_before(&self, sweep: usize) -> bool {
        matches!(self.adapt_every, Some(k) if k > 0 && sweep > 0 && sweep.is_multiple_of(k))
    }
}

/// Per-processor result of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Final values of the locally owned mesh nodes under the final
    /// distribution (see [`final_placement`]).
    pub local_a: Vec<f64>,
    /// Number of mesh adaptations performed.
    pub adaptations: u64,
    /// Simulated seconds spent in the inspector on this processor.
    pub inspector_time: f64,
    /// Simulated seconds spent adapting: mesh perturbation, repartitioning
    /// and redistribution (0.0 for a static run).
    pub adapt_time: f64,
    /// Total simulated seconds of the timed region on this processor.
    pub total_time: f64,
    /// Operation counters accumulated during the timed region.
    pub counters: Counters,
    /// Schedule-cache hits over the run.
    pub cache_hits: u64,
    /// Schedule-cache misses (inspector executions) over the run.
    pub cache_misses: u64,
    /// Schedule-cache evictions over the run.
    pub cache_evictions: u64,
    /// Schedules resident in the cache at the end of the run.
    pub cache_resident_entries: usize,
    /// Highest number of simultaneously resident schedules.
    pub cache_peak_resident: usize,
    /// Approximate bytes of resident schedules at the end of the run.
    pub cache_resident_bytes: usize,
}

/// The distribution in effect after a run with `config` over `mesh`,
/// given the run's `initial` placement (a pure function — used by callers
/// to reassemble global numbering via [`gather_global`]).
///
/// The run only ever moves data inside the rebalance branch, so the
/// placement changes exactly when `rebalance` is set *and* at least one
/// adaptation fired; in every other case the initial distribution is still
/// in effect and is returned unchanged.
pub fn final_placement(
    mesh: &AdjacencyMesh,
    initial: &DimDist,
    config: &AdaptiveConfig,
) -> DimDist {
    if !config.rebalance || config.adaptation_count() == 0 {
        return initial.clone();
    }
    let nprocs = initial.nprocs();
    let final_mesh = evolve(mesh, &config.adapt, config.adaptation_count());
    DimDist::custom(meshes::greedy_partition(&final_mesh, nprocs), nprocs)
}

/// Reassemble per-rank local pieces into global numbering under `dist`
/// (rank `r`'s `locals[r][l]` lands at `dist.global_index(r, l)`), e.g. the
/// `local_a` fields of a run's outcomes under [`final_placement`].
pub fn gather_global(dist: &DimDist, locals: &[Vec<f64>]) -> Vec<f64> {
    let mut global = vec![0.0f64; dist.n()];
    for (rank, local) in locals.iter().enumerate() {
        for (l, v) in local.iter().enumerate() {
            global[dist.global_index(rank, l)] = *v;
        }
    }
    global
}

/// Run an adaptive-mesh Jacobi relaxation, collectively.
///
/// `dist` is the initial placement; `initial` is the globally replicated
/// starting field.  The mesh evolves identically on every rank (the
/// perturbation is deterministic), so version bumps — and therefore cache
/// misses, which trigger the *collective* inspector — stay in lockstep.
pub fn adaptive_jacobi_sweeps<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    initial: &[f64],
    config: &AdaptiveConfig,
) -> AdaptiveOutcome {
    let rank = proc.rank();
    let n = mesh.len();
    assert_eq!(dist.n(), n, "distribution must cover every mesh node");
    assert_eq!(initial.len(), n, "initial field must cover every mesh node");

    let mut mesh = mesh.clone();
    let mut dist = dist.clone();
    let mut session = Session::with_cache_capacity(config.cache_capacity).overlap(config.overlap);
    // One loop id for the relaxation across every placement it migrates
    // through: a rebalance swaps the on-clause distribution in place (the
    // fingerprint in the cache key tells the placements apart).
    let mut relaxation = session.loop_1d(n, dist.clone());

    // Local pieces of the Figure 4 arrays under the current distribution.
    let mut a = scatter_field(&dist, rank, initial);
    let (mut count, mut adj, mut coef, mut width) = scatter_mesh(&mesh, &dist, rank);
    let mut old_a: Vec<f64> = vec![0.0; a.len()];

    let start_clock = proc.time();
    let counters_start = proc.counters();
    let mut adapt_time = 0.0f64;
    let mut adaptations = 0u64;

    for sweep in 0..config.sweeps {
        // -- adapt the mesh (and optionally the placement) ------------------
        if config.adapts_before(sweep) {
            let before_adapt = proc.time();
            mesh = adapt_step(&mesh, &config.adapt, adaptations);
            adaptations += 1;
            session.bump_data_version();
            if config.rebalance {
                let new_dist = partitioned_dist(proc, &mesh);
                a = session.redistribute(proc, &dist, &new_dist, &a);
                // The old placement is retired: reclaim every schedule built
                // under it (any data version — the fingerprint alone marks
                // them stale).
                session.retire_placement(&relaxation, &dist);
                dist = new_dist;
                relaxation.on_dist = dist.clone();
            }
            // Re-scatter adj/coef from the adapted mesh (count/degrees may
            // have changed even without a redistribution).
            (count, adj, coef, width) = scatter_mesh(&mesh, &dist, rank);
            old_a.resize(a.len(), 0.0);
            adapt_time += proc.time() - before_adapt;
        }

        // -- copy forall: old_a[i] := a[i] (aligned, purely local) ----------
        for l in 0..a.len() {
            proc.charge_loop_iters(1);
            proc.charge_mem_refs(2);
            old_a[l] = a[l];
        }

        // -- plan the relaxation (inspector only on version/placement change)
        let schedule = {
            let dist_ref = &dist;
            let count_ref = &count;
            let adj_ref = &adj;
            session.plan_indirect(proc, &relaxation, &dist, |i, refs| {
                let l = dist_ref.local_index(i);
                let deg = count_ref[l] as usize;
                for j in 0..deg {
                    refs.push(adj_ref[l * width + j] as usize);
                }
            })
        };

        // -- perform the relaxation ----------------------------------------
        let a_mut = &mut a;
        session.execute(
            proc,
            &relaxation,
            &schedule,
            &dist,
            &old_a,
            |_, fetch| relax_node(fetch, &count, &adj, &coef, width),
            |_, update| {
                if let Some((l, x)) = update {
                    a_mut[l] = x;
                }
            },
        );
    }

    let total_time = proc.time() - start_clock;
    let counters = proc.counters().since(&counters_start);
    let stats = session.stats();

    AdaptiveOutcome {
        local_a: a,
        adaptations,
        inspector_time: stats.inspector_time,
        adapt_time,
        total_time,
        counters,
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_evictions: stats.cache.evictions,
        cache_resident_entries: stats.cache.resident_entries,
        cache_peak_resident: stats.cache.peak_resident,
        cache_resident_bytes: stats.cache.resident_bytes,
    }
}

/// Scatter a globally replicated field to this rank's local storage under
/// `dist`, in *local-index* order — the order `scatter_mesh`, the executor
/// and [`gather_global`] all use, which under a non-monotone user-defined
/// distribution is not ascending global order.
pub(crate) fn scatter_field<D: Distribution + ?Sized>(
    dist: &D,
    rank: usize,
    global: &[f64],
) -> Vec<f64> {
    (0..dist.local_count(rank))
        .map(|l| global[dist.global_index(rank, l)])
        .collect()
}

/// Scatter the mesh's `count`/`adj`/`coef` arrays to this rank's local rows
/// under `dist` (the untimed set-up of Figure 4, repeated after every
/// adaptation).  Shared with the other mesh solvers (CG, red–black).
pub(crate) fn scatter_mesh(
    mesh: &AdjacencyMesh,
    dist: &DimDist,
    rank: usize,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, usize) {
    let width = mesh.max_degree();
    let local_rows = dist.local_count(rank);
    let mut count = Vec::with_capacity(local_rows);
    let mut adj = vec![0u32; local_rows * width];
    let mut coef = vec![0.0f64; local_rows * width];
    for l in 0..local_rows {
        let g = dist.global_index(rank, l);
        let nbrs = mesh.neighbors(g);
        let cs = mesh.coefs(g);
        count.push(nbrs.len() as u32);
        adj[l * width..l * width + nbrs.len()].copy_from_slice(nbrs);
        coef[l * width..l * width + cs.len()].copy_from_slice(cs);
    }
    (count, adj, coef, width)
}

/// Sequential replay of the same adaptive run: identical adaptation
/// schedule, identical arithmetic order — distributed results match this
/// bit for bit on every backend.
pub fn adaptive_jacobi_sequential(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    config: &AdaptiveConfig,
) -> Vec<f64> {
    let n = mesh.len();
    assert_eq!(initial.len(), n);
    let mut mesh = mesh.clone();
    let mut a = initial.to_vec();
    let mut old_a = vec![0.0f64; n];
    let mut adaptations = 0u64;
    for sweep in 0..config.sweeps {
        if config.adapts_before(sweep) {
            mesh = adapt_step(&mesh, &config.adapt, adaptations);
            adaptations += 1;
        }
        old_a.copy_from_slice(&a);
        for i in 0..n {
            let deg = mesh.degree(i);
            let mut x = 0.0f64;
            for j in 0..deg {
                x += mesh.coefs(i)[j] * old_a[mesh.neighbors(i)[j] as usize];
            }
            if deg > 0 {
                a[i] = x;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::{CostModel, Machine};
    use meshes::UnstructuredMeshBuilder;

    fn test_mesh() -> AdjacencyMesh {
        UnstructuredMeshBuilder::new(10, 10)
            .seed(13)
            .scramble_numbering(true)
            .build()
    }

    fn test_initial(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 23) % 31) as f64 * 0.125).collect()
    }

    use super::gather_global as gather;

    #[test]
    fn static_run_matches_plain_jacobi() {
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let config = AdaptiveConfig {
            sweeps: 6,
            ..AdaptiveConfig::default()
        };
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let dist = DimDist::block(mesh.len(), 4);
        let got = gather(
            &dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        let expected = crate::jacobi::jacobi_sequential(&mesh, &initial, 6);
        assert_eq!(got, expected);
        for o in &outcomes {
            assert_eq!(o.adaptations, 0);
            assert_eq!(o.cache_misses, 1, "static mesh: one inspector run");
            assert_eq!(o.cache_hits, 5);
            assert_eq!(o.cache_evictions, 0);
        }
    }

    #[test]
    fn adaptive_run_matches_the_sequential_replay() {
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let config = AdaptiveConfig {
            sweeps: 12,
            adapt_every: Some(3),
            ..AdaptiveConfig::default()
        };
        let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let dist = DimDist::block(mesh.len(), 4);
        let got = gather(
            &dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(got, expected);
        // Sweeps 3, 6, 9 adapt: one re-inspection each plus the initial one.
        for o in &outcomes {
            assert_eq!(o.adaptations, 3);
            assert_eq!(o.cache_misses, 4);
            assert_eq!(o.cache_hits, 8);
            // Generation self-invalidation reclaims each stale version.
            assert_eq!(o.cache_evictions, 3);
            assert_eq!(o.cache_resident_entries, 1);
        }
    }

    #[test]
    fn rebalancing_run_matches_the_sequential_replay() {
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let config = AdaptiveConfig {
            sweeps: 10,
            adapt_every: Some(4),
            rebalance: true,
            ..AdaptiveConfig::default()
        };
        let nprocs = 4;
        let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        let init_dist = DimDist::custom(meshes::greedy_partition(&mesh, nprocs), nprocs);
        let final_dist = final_placement(&mesh, &init_dist, &config);
        let got = gather(
            &final_dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(got, expected);
        for o in &outcomes {
            assert_eq!(o.adaptations, 2);
            assert_eq!(o.cache_misses, 3, "initial + one per adaptation");
            // Fingerprint invalidation reclaims the retired placement
            // immediately; only the live schedule stays resident.
            assert_eq!(o.cache_resident_entries, 1);
            assert_eq!(o.cache_evictions, 2);
        }
    }

    #[test]
    fn final_placement_returns_the_initial_dist_when_no_rebalance_occurred() {
        // Regression: the run only moves data inside the rebalance branch,
        // so gathering through a greedy partition after a run that never
        // rebalanced (rebalance off, or zero adaptations) would silently
        // permute the global field.
        let mesh = test_mesh();
        let block = DimDist::block(mesh.len(), 4);
        let no_rebalance = AdaptiveConfig {
            sweeps: 8,
            adapt_every: Some(2),
            ..AdaptiveConfig::default()
        };
        assert_eq!(
            final_placement(&mesh, &block, &no_rebalance).fingerprint(),
            block.fingerprint(),
            "rebalance off: placement never changes"
        );
        let zero_adaptations = AdaptiveConfig {
            sweeps: 4,
            adapt_every: Some(8),
            rebalance: true,
            ..AdaptiveConfig::default()
        };
        assert_eq!(
            final_placement(&mesh, &block, &zero_adaptations).fingerprint(),
            block.fingerprint(),
            "no adaptation fired: placement never changes"
        );
        let rebalanced = AdaptiveConfig {
            sweeps: 8,
            adapt_every: Some(2),
            rebalance: true,
            ..AdaptiveConfig::default()
        };
        assert_ne!(
            final_placement(&mesh, &block, &rebalanced).fingerprint(),
            block.fingerprint(),
            "rebalanced runs end on the partition of the final mesh"
        );
    }

    #[test]
    fn inspector_cost_per_sweep_falls_as_the_adaptation_interval_grows() {
        // The acceptance criterion of the adaptive subsystem: amortisation
        // under churn.  k = 1 re-inspects every sweep; larger intervals
        // amortise toward the static-mesh cost.
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let sweeps = 16usize;
        let mut per_sweep = Vec::new();
        for k in [Some(1), Some(2), Some(4), Some(8), None] {
            let config = AdaptiveConfig {
                sweeps,
                adapt_every: k,
                ..AdaptiveConfig::default()
            };
            let machine = Machine::new(4, CostModel::ncube7());
            let outcomes = machine.run(|proc| {
                let dist = DimDist::block(mesh.len(), proc.nprocs());
                adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            });
            let inspector = outcomes
                .iter()
                .map(|o| o.inspector_time)
                .fold(0.0f64, f64::max);
            per_sweep.push(inspector / sweeps as f64);
        }
        for w in per_sweep.windows(2) {
            assert!(
                w[1] < w[0],
                "inspector cost per sweep must fall with k: {per_sweep:?}"
            );
        }
    }

    #[test]
    fn cache_residency_stays_bounded_under_unbounded_churn() {
        // Rebalance every sweep with a tiny cache: the run mints a fresh
        // (version, fingerprint) pair per sweep — far more distinct keys
        // than the bound — yet residency never exceeds the capacity.
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let config = AdaptiveConfig {
            sweeps: 10,
            adapt_every: Some(1),
            rebalance: true,
            cache_capacity: 2,
            ..AdaptiveConfig::default()
        };
        let machine = Machine::new(2, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
        });
        for o in &outcomes {
            assert_eq!(o.adaptations, 9);
            assert_eq!(o.cache_misses, 10, "every sweep re-inspects");
            assert!(
                o.cache_peak_resident <= 2,
                "peak residency {} exceeds the bound",
                o.cache_peak_resident
            );
            assert_eq!(o.cache_resident_entries, 1);
            assert_eq!(o.cache_evictions, 9);
        }
    }

    #[test]
    fn adaptation_count_matches_the_sweep_schedule() {
        let mk = |sweeps, adapt_every| AdaptiveConfig {
            sweeps,
            adapt_every,
            ..AdaptiveConfig::default()
        };
        assert_eq!(mk(10, None).adaptation_count(), 0);
        assert_eq!(mk(10, Some(0)).adaptation_count(), 0);
        assert_eq!(mk(10, Some(1)).adaptation_count(), 9);
        assert_eq!(mk(10, Some(4)).adaptation_count(), 2);
        assert_eq!(mk(12, Some(3)).adaptation_count(), 3);
        assert_eq!(mk(0, Some(1)).adaptation_count(), 0);
    }
}

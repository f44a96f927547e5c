//! What a [`jacobi_sweeps`](crate::jacobi_sweeps) run whose mesh changes
//! needs besides the program: the deterministic sequential replay of the
//! churn ([`adaptive_jacobi_sequential`]), the placement the run ends on
//! ([`final_placement`]), and the scatter/gather between globally numbered
//! arrays and a rank's local rows that every mesh solver shares.

use distrib::{DimDist, Distribution};
use meshes::{adapt_step, adaptation_count, adapts_before, evolve, AdjacencyMesh};

use crate::jacobi::JacobiConfig;

/// The distribution in effect after a [`jacobi_sweeps`](crate::jacobi_sweeps)
/// run with `config` over `mesh`, given the run's `initial` placement (a
/// pure function — used by callers to reassemble global numbering via
/// [`gather_global`]).
///
/// The run only ever moves data inside the rebalance branch, so the
/// placement changes exactly when `rebalance` is set *and* at least one
/// adaptation fired; in every other case the initial distribution is still
/// in effect and is returned unchanged.
pub fn final_placement(mesh: &AdjacencyMesh, initial: &DimDist, config: &JacobiConfig) -> DimDist {
    let adaptations = adaptation_count(config.adapt_every, config.sweeps);
    if !config.rebalance || adaptations == 0 {
        return initial.clone();
    }
    let nprocs = initial.nprocs();
    let final_mesh = evolve(mesh, &config.adapt, adaptations);
    DimDist::custom(meshes::greedy_partition(&final_mesh, nprocs), nprocs)
}

/// Reassemble per-rank local pieces into global numbering under `dist`
/// (rank `r`'s `locals[r][l]` lands at `dist.global_index(r, l)`), e.g. the
/// `local_a` fields of a run's outcomes under [`final_placement`].
pub fn gather_global<D: Distribution + ?Sized>(dist: &D, locals: &[Vec<f64>]) -> Vec<f64> {
    let mut global = vec![0.0f64; dist.n()];
    for (rank, local) in locals.iter().enumerate() {
        for (l, v) in local.iter().enumerate() {
            global[dist.global_index(rank, l)] = *v;
        }
    }
    global
}

/// Scatter a globally replicated field to this rank's local storage under
/// `dist`, in *local-index* order — the order `scatter_mesh`, the executor
/// and [`gather_global`] all use, which under a non-monotone user-defined
/// distribution is not ascending global order.  One slice copy per owned
/// run when the distribution offers runs, one `global_index` per element
/// otherwise.
pub(crate) fn scatter_field<D: Distribution + ?Sized>(
    dist: &D,
    rank: usize,
    global: &[f64],
) -> Vec<f64> {
    // The field first, so that the short-lived run list leaves no hole in
    // front of it.
    let mut local = vec![0.0f64; dist.local_count(rank)];
    match dist.local_runs(rank) {
        Some(runs) => {
            for run in runs {
                local[run.local_base..run.local_base + run.len()]
                    .copy_from_slice(&global[run.low..run.high]);
            }
        }
        None => {
            for (l, v) in local.iter_mut().enumerate() {
                *v = global[dist.global_index(rank, l)];
            }
        }
    }
    local
}

/// Scatter the mesh's `count`/`adj`/`coef` arrays to this rank's local rows
/// under `dist` (the untimed set-up of Figure 4, repeated after every
/// adaptation).  Shared by every mesh solver.
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

/// Sequential replay of a [`jacobi_sweeps`](crate::jacobi_sweeps) run under
/// churn: identical adaptation schedule, identical arithmetic order —
/// distributed results match this bit for bit on every backend.
pub fn adaptive_jacobi_sequential(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    config: &JacobiConfig,
) -> Vec<f64> {
    let n = mesh.len();
    assert_eq!(initial.len(), n);
    let mut mesh = mesh.clone();
    let mut a = initial.to_vec();
    let mut old_a = vec![0.0f64; n];
    let mut adaptations = 0u64;
    for sweep in 0..config.sweeps {
        if adapts_before(config.adapt_every, sweep) {
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
    use crate::jacobi::jacobi_sweeps;
    use crate::partitioned::partitioned_dist;
    use dmsim::{CostModel, Machine, Process};
    use meshes::UnstructuredMeshBuilder;

    /// Block placement stored back to front on every rank: a local order
    /// that descends in the global one, through the trait's defaults.
    #[derive(Debug)]
    struct ReversedBlock(distrib::BlockDist);

    impl Distribution for ReversedBlock {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn nprocs(&self) -> usize {
            self.0.nprocs()
        }
        fn owner(&self, i: usize) -> usize {
            self.0.owner(i)
        }
        fn local_index(&self, i: usize) -> usize {
            self.0.local_count(self.0.owner(i)) - 1 - self.0.local_index(i)
        }
        fn global_index(&self, rank: usize, l: usize) -> usize {
            self.0.global_index(rank, self.0.local_count(rank) - 1 - l)
        }
        fn local_count(&self, rank: usize) -> usize {
            self.0.local_count(rank)
        }
        fn kind_name(&self) -> &'static str {
            "reversed-block"
        }
        fn fingerprint(&self) -> u64 {
            !self.0.fingerprint()
        }
    }

    #[test]
    fn scatter_field_equals_the_per_element_definition() {
        use distrib::{ArrayDist, FlatDist};
        let p = 3;
        let flat = |array| DimDist::new(FlatDist::new(array));
        // (distribution, whether it offers runs on every rank)
        let dists = [
            (DimDist::block(100, p), true),
            (DimDist::cyclic(100, p), false),
            (DimDist::block_cyclic(100, p, 20), true),
            (DimDist::block_cyclic(100, p, 2), false),
            (flat(ArrayDist::block_rows(6, 17, p)), true),
            (flat(ArrayDist::block_cols(6, 60, p)), true),
            (flat(ArrayDist::block_cols(6, 17, p)), false),
            (
                DimDist::new(ReversedBlock(distrib::BlockDist::new(100, p))),
                false,
            ),
        ];
        for (dist, offers_runs) in dists {
            let global: Vec<f64> = (0..dist.n()).map(|g| g as f64 * 0.5 + 1.0).collect();
            for rank in 0..p {
                assert_eq!(dist.local_runs(rank).is_some(), offers_runs);
                let expected: Vec<f64> = (0..dist.local_count(rank))
                    .map(|l| global[dist.global_index(rank, l)])
                    .collect();
                assert_eq!(
                    scatter_field(&dist, rank, &global),
                    expected,
                    "{} on rank {rank}",
                    dist.kind_name()
                );
            }
        }
    }

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
    fn adaptive_run_matches_the_sequential_replay() {
        let mesh = test_mesh();
        let initial = test_initial(mesh.len());
        let config = JacobiConfig {
            sweeps: 12,
            adapt_every: Some(3),
            ..JacobiConfig::default()
        };
        let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
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
        let config = JacobiConfig {
            sweeps: 10,
            adapt_every: Some(4),
            rebalance: true,
            ..JacobiConfig::default()
        };
        let nprocs = 4;
        let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
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
        let no_rebalance = JacobiConfig {
            sweeps: 8,
            adapt_every: Some(2),
            ..JacobiConfig::default()
        };
        assert_eq!(
            final_placement(&mesh, &block, &no_rebalance).fingerprint(),
            block.fingerprint(),
            "rebalance off: placement never changes"
        );
        let zero_adaptations = JacobiConfig {
            sweeps: 4,
            adapt_every: Some(8),
            rebalance: true,
            ..JacobiConfig::default()
        };
        assert_eq!(
            final_placement(&mesh, &block, &zero_adaptations).fingerprint(),
            block.fingerprint(),
            "no adaptation fired: placement never changes"
        );
        let rebalanced = JacobiConfig {
            sweeps: 8,
            adapt_every: Some(2),
            rebalance: true,
            ..JacobiConfig::default()
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
            let config = JacobiConfig {
                sweeps,
                adapt_every: k,
                ..JacobiConfig::default()
            };
            let machine = Machine::new(4, CostModel::ncube7());
            let outcomes = machine.run(|proc| {
                let dist = DimDist::block(mesh.len(), proc.nprocs());
                jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
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
        let config = JacobiConfig {
            sweeps: 10,
            adapt_every: Some(1),
            rebalance: true,
            cache_capacity: 2,
            ..JacobiConfig::default()
        };
        let machine = Machine::new(2, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
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
        // The one churn schedule the program, both replays and
        // `final_placement` share: the count is the number of sweeps the
        // predicate fires before.
        for (sweeps, every, count) in [
            (10, None, 0),
            (10, Some(0), 0),
            (10, Some(1), 9),
            (10, Some(4), 2),
            (12, Some(3), 3),
            (0, Some(1), 0),
        ] {
            assert_eq!(adaptation_count(every, sweeps), count);
            let fired = (0..sweeps).filter(|&s| adapts_before(every, s)).count();
            assert_eq!(fired as u64, count, "{sweeps} sweeps, every {every:?}");
        }
    }
}

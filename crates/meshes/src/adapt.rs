//! Deterministic adaptive-mesh perturbation (refine / coarsen).
//!
//! The paper's cost argument (§3.2) rests on amortising the inspector "over
//! many repetitions of the forall" — which is trivially perfect when the
//! mesh never changes.  Real unstructured-mesh codes *adapt*: they refine
//! where the solution is rough and coarsen where it is smooth, changing the
//! `adj` array and therefore invalidating every cached communication
//! schedule.  This module provides the workload side of that story: seeded,
//! fully deterministic connectivity perturbations that every SPMD rank can
//! compute redundantly (the same property `greedy_partition` relies on), so
//! the solvers can bump their data version in lockstep and let the schedule
//! cache re-inspect exactly when the adjacency changed.
//!
//! The node count is invariant — adaptation changes *connectivity*, not the
//! index space — so existing distributions remain valid (though possibly
//! unbalanced, which is what rebalancing redistributions are for):
//!
//! * [`refine`] adds edges: a batch of new links between randomly chosen
//!   node pairs, modelling element subdivision raising local connectivity;
//! * [`coarsen`] removes edges whose endpoints keep a configured minimum
//!   degree, modelling element merging;
//! * [`adapt_step`] alternates the two, so a long run's edge count drifts
//!   up and down instead of growing monotonically.
//!
//! Coefficients are regenerated as `1/degree` per incident edge after every
//! perturbation — the Jacobi-averaging convention of
//! [`crate::UnstructuredMeshBuilder`] — so relaxation over an adapted mesh
//! keeps the per-node coefficient sum at one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::AdjacencyMesh;

/// Parameters of the adaptation process.
#[derive(Debug, Clone, Copy)]
pub struct AdaptConfig {
    /// Seed of the (per-step) RNG; the perturbation is a pure function of
    /// `(mesh, config, step)`.
    pub seed: u64,
    /// Fraction of the node count used as the batch size of each step
    /// (edges added by a refinement, removal attempts by a coarsening).
    pub edge_fraction: f64,
    /// Degree floor respected by coarsening: an edge is only removed when
    /// both endpoints stay at or above this degree.
    pub min_degree: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            seed: 0xADA9_7190,
            edge_fraction: 0.05,
            min_degree: 3,
        }
    }
}

impl AdaptConfig {
    /// Batch size for a mesh of `n` nodes (at least one).
    fn batch(&self, n: usize) -> usize {
        (((n as f64) * self.edge_fraction).round() as usize).max(1)
    }

    fn rng(&self, step: u64) -> StdRng {
        // Decorrelate steps: the multiplier is an arbitrary odd 64-bit
        // constant (splitmix-style), so neighbouring steps share no seed
        // structure.
        StdRng::seed_from_u64(self.seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
}

fn neighbor_lists(mesh: &AdjacencyMesh) -> Vec<Vec<usize>> {
    (0..mesh.len())
        .map(|i| mesh.neighbors(i).iter().map(|&nb| nb as usize).collect())
        .collect()
}

fn rebuild(neighbors: &[Vec<usize>]) -> AdjacencyMesh {
    let coefs: Vec<Vec<f64>> = neighbors
        .iter()
        .map(|nbrs| {
            let d = nbrs.len().max(1) as f64;
            vec![1.0 / d; nbrs.len()]
        })
        .collect();
    AdjacencyMesh::from_lists(neighbors, &coefs)
}

/// Refinement step `step`: add a deterministic batch of symmetric edges.
///
/// Node count and numbering are unchanged; only `adj`/`coef` move — the
/// exact situation in which a cached communication schedule silently
/// describes the wrong reference pattern unless the data version is bumped.
pub fn refine(mesh: &AdjacencyMesh, config: &AdaptConfig, step: u64) -> AdjacencyMesh {
    let n = mesh.len();
    if n < 2 {
        return mesh.clone();
    }
    let mut rng = config.rng(step);
    let mut neighbors = neighbor_lists(mesh);
    for _ in 0..config.batch(n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !neighbors[a].contains(&b) {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
    }
    rebuild(&neighbors)
}

/// Coarsening step `step`: attempt a deterministic batch of edge removals,
/// each honoured only when both endpoints keep `config.min_degree`
/// neighbours.
pub fn coarsen(mesh: &AdjacencyMesh, config: &AdaptConfig, step: u64) -> AdjacencyMesh {
    let n = mesh.len();
    if n < 2 {
        return mesh.clone();
    }
    let mut rng = config.rng(step);
    let mut neighbors = neighbor_lists(mesh);
    for _ in 0..config.batch(n) {
        let a = rng.gen_range(0..n);
        if neighbors[a].len() <= config.min_degree {
            continue;
        }
        let pick = rng.gen_range(0..neighbors[a].len());
        let b = neighbors[a][pick];
        if neighbors[b].len() <= config.min_degree {
            continue;
        }
        neighbors[a].swap_remove(pick);
        let back = neighbors[b]
            .iter()
            .position(|&x| x == a)
            .expect("mesh must be symmetric");
        neighbors[b].swap_remove(back);
    }
    rebuild(&neighbors)
}

/// One adaptation step: refinements and coarsenings alternate (`step` 0, 2,
/// 4 … refine; 1, 3, 5 … coarsen), so the edge count breathes instead of
/// growing without bound over a long adaptive run.
pub fn adapt_step(mesh: &AdjacencyMesh, config: &AdaptConfig, step: u64) -> AdjacencyMesh {
    if step.is_multiple_of(2) {
        refine(mesh, config, step)
    } else {
        coarsen(mesh, config, step)
    }
}

/// The mesh after `steps` adaptation steps — the deterministic "history
/// replay" used by sequential references and by post-run reassembly.
pub fn evolve(mesh: &AdjacencyMesh, config: &AdaptConfig, steps: u64) -> AdjacencyMesh {
    let mut m = mesh.clone();
    for step in 0..steps {
        m = adapt_step(&m, config, step);
    }
    m
}

/// The churn schedule of a solver loop: true when the mesh is adapted
/// immediately before iteration `iter`, i.e. when `iter` is a positive
/// multiple of `every` (`None` or `Some(0)` never adapts).
pub fn adapts_before(every: Option<usize>, iter: usize) -> bool {
    matches!(every, Some(k) if k > 0 && iter > 0 && iter.is_multiple_of(k))
}

/// Number of adaptations [`adapts_before`] fires over `iters` iterations —
/// the `steps` to hand [`evolve`] for the mesh a run ends on.
pub fn adaptation_count(every: Option<usize>, iters: usize) -> u64 {
    match every {
        Some(k) if k > 0 && iters > 0 => ((iters - 1) / k) as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnstructuredMeshBuilder;

    fn base() -> AdjacencyMesh {
        UnstructuredMeshBuilder::new(12, 12).seed(5).build()
    }

    #[test]
    fn adaptation_is_deterministic_in_mesh_config_and_step() {
        let m = base();
        let cfg = AdaptConfig::default();
        assert_eq!(refine(&m, &cfg, 3), refine(&m, &cfg, 3));
        assert_eq!(coarsen(&m, &cfg, 4), coarsen(&m, &cfg, 4));
        assert_ne!(
            refine(&m, &cfg, 0),
            refine(&m, &cfg, 2),
            "different steps must perturb differently"
        );
        let other = AdaptConfig {
            seed: 99,
            ..AdaptConfig::default()
        };
        assert_ne!(refine(&m, &cfg, 0), refine(&m, &other, 0));
    }

    #[test]
    fn refine_adds_edges_and_preserves_symmetry_and_node_count() {
        let m = base();
        let r = refine(&m, &AdaptConfig::default(), 0);
        assert_eq!(r.len(), m.len());
        assert!(r.edge_count() > m.edge_count());
        assert!(r.is_symmetric());
    }

    #[test]
    fn coarsen_removes_edges_but_respects_the_degree_floor() {
        let cfg = AdaptConfig {
            edge_fraction: 0.5,
            ..AdaptConfig::default()
        };
        let m = refine(&base(), &cfg, 0);
        let c = coarsen(&m, &cfg, 1);
        assert_eq!(c.len(), m.len());
        assert!(c.edge_count() < m.edge_count());
        assert!(c.is_symmetric());
        for i in 0..c.len() {
            assert!(
                c.degree(i) >= cfg.min_degree.min(m.degree(i)),
                "node {i}: degree {} fell below the floor",
                c.degree(i)
            );
        }
    }

    #[test]
    fn coefficients_stay_normalised_after_adaptation() {
        let mut m = base();
        let cfg = AdaptConfig::default();
        for step in 0..4 {
            m = adapt_step(&m, &cfg, step);
            for i in 0..m.len() {
                let s: f64 = m.coefs(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "step {step}, node {i}: sum {s}");
            }
        }
    }

    #[test]
    fn evolve_replays_the_step_sequence() {
        let m = base();
        let cfg = AdaptConfig::default();
        let mut manual = m.clone();
        for step in 0..5 {
            manual = adapt_step(&manual, &cfg, step);
        }
        assert_eq!(evolve(&m, &cfg, 5), manual);
        assert_eq!(evolve(&m, &cfg, 0), m);
    }

    #[test]
    fn alternating_steps_keep_the_edge_count_bounded() {
        let mut m = base();
        let cfg = AdaptConfig::default();
        let initial_edges = m.edge_count();
        for step in 0..20 {
            m = adapt_step(&m, &cfg, step);
        }
        // Refine and coarsen batches are the same size, so drift stays well
        // under the cumulative number of added edges.
        let drift = m.edge_count().abs_diff(initial_edges);
        let batch = ((m.len() as f64) * cfg.edge_fraction).round() as usize;
        assert!(
            drift < 10 * 2 * batch,
            "edge count drifted by {drift} over 20 alternating steps"
        );
        assert!(m.is_symmetric());
    }

    #[test]
    fn tiny_meshes_are_left_alone() {
        let solo = AdjacencyMesh::from_lists(&[vec![]], &[vec![]]);
        let cfg = AdaptConfig::default();
        assert_eq!(refine(&solo, &cfg, 0), solo);
        assert_eq!(coarsen(&solo, &cfg, 0), solo);
    }
}

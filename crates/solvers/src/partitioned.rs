//! Partitioned-mesh distributions: wiring the mesh partitioner into the
//! distribution layer.
//!
//! The paper's Figure 4 program distributes the node arrays `by [block]` —
//! fine for its row-major rectangular grids, where the "obvious" domain
//! decomposition and the block decomposition coincide (§4).  On an
//! irregularly numbered unstructured mesh they do not: block placement
//! ignores connectivity, so almost every `old_a[adj[i,j]]` reference is
//! nonlocal and the inspector builds large, fragmented schedules.  Since the
//! loop bodies are distribution independent, nothing but the `dist`
//! declaration has to change to fix this — exactly the workflow the paper
//! advertises ("a variety of distribution patterns can easily be tried by
//! trivial modification of this program", §2.4).
//!
//! [`partitioned_dist`] is that modified declaration for mesh problems: it
//! runs the deterministic BFS partitioner over the mesh connectivity, keeps
//! each rank's slice of the resulting owner map (the map itself is a
//! distributed translation table), and assembles the
//! [`IrregularDist`](distrib::IrregularDist) with the collective owner-map
//! machinery of `kali_core::ownermap`.  The Jacobi solver then accepts the
//! result like any other distribution.

use distrib::DimDist;
use kali_core::ownermap::DistOwnerMap;
use kali_core::process::Process;
use meshes::AdjacencyMesh;

/// Build the connectivity-partitioned distribution of `mesh`'s nodes over
/// the machine, collectively.
///
/// Every rank runs the (deterministic) partitioner, contributes only its
/// block slice of the owner map, and takes part in the collective assembly
/// of the translation tables; the returned distribution is identical on
/// every rank (same fingerprint), as the SPMD schedule-cache lockstep
/// requires.  Must be called by every processor of the machine.
pub fn partitioned_dist<P: Process>(proc: &mut P, mesh: &AdjacencyMesh) -> DimDist {
    let nprocs = proc.nprocs();
    // A pure function of the mesh: every rank computes the same table.
    let owners = meshes::greedy_partition(mesh, nprocs);
    let slice = DistOwnerMap::from_global(proc.rank(), nprocs, &owners);
    DimDist::irregular(slice.assemble(proc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::gather_global;
    use crate::jacobi::{jacobi_sequential, jacobi_sweeps, JacobiConfig};
    use dmsim::{CostModel, Machine};
    use meshes::UnstructuredMeshBuilder;

    #[test]
    fn partitioned_dist_is_identical_on_every_rank() {
        let mesh = UnstructuredMeshBuilder::new(10, 10)
            .seed(9)
            .scramble_numbering(true)
            .build();
        let machine = Machine::new(4, CostModel::ideal());
        let dists = machine.run(|proc| {
            let d = partitioned_dist(proc, &mesh);
            (d.fingerprint(), d.local_set(proc.rank()))
        });
        let fp = dists[0].0;
        assert!(dists.iter().all(|(f, _)| *f == fp));
        // The local sets partition the node space.
        let total: usize = dists.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, mesh.len());
    }

    #[test]
    fn jacobi_under_partitioned_distribution_matches_sequential() {
        let mesh = UnstructuredMeshBuilder::new(12, 12)
            .seed(21)
            .scramble_numbering(true)
            .build();
        let initial: Vec<f64> = (0..mesh.len())
            .map(|i| ((i * 7) % 11) as f64 * 0.3)
            .collect();
        let expected = jacobi_sequential(&mesh, &initial, 6);
        let machine = Machine::new(8, CostModel::ideal());
        let results = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            let out = jacobi_sweeps(proc, &mesh, &dist, &initial, &JacobiConfig::with_sweeps(6));
            (dist, out.local_a)
        });
        let locals: Vec<Vec<f64>> = results.iter().map(|(_, local)| local.clone()).collect();
        assert_eq!(gather_global(&results[0].0, &locals), expected);
    }

    #[test]
    fn partitioned_placement_beats_block_on_scrambled_meshes() {
        // The acceptance criterion of the refactor: on a scrambled mesh the
        // connectivity-partitioned distribution must produce strictly fewer
        // nonlocal references and strictly less message volume than block.
        let mesh = UnstructuredMeshBuilder::new(16, 16)
            .seed(33)
            .scramble_numbering(true)
            .build();
        let initial: Vec<f64> = (0..mesh.len()).map(|i| i as f64 * 0.01).collect();
        let config = JacobiConfig::with_sweeps(5);
        let run = |partitioned: bool| {
            let machine = Machine::new(8, CostModel::ncube7());
            let (outcomes, stats) = machine.run_stats(|proc| {
                let dist = if partitioned {
                    partitioned_dist(proc, &mesh)
                } else {
                    DimDist::block(mesh.len(), proc.nprocs())
                };
                jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            });
            let halo: usize = outcomes.iter().map(|o| o.recv_elements).sum();
            (stats.totals.nonlocal_refs, stats.totals.bytes_sent, halo)
        };
        let (block_refs, block_bytes, block_halo) = run(false);
        let (part_refs, part_bytes, part_halo) = run(true);
        assert!(
            part_refs < block_refs,
            "nonlocal refs: partitioned {part_refs} vs block {block_refs}"
        );
        assert!(
            part_bytes < block_bytes,
            "bytes sent: partitioned {part_bytes} vs block {block_bytes}"
        );
        assert!(
            part_halo < block_halo,
            "halo elements: partitioned {part_halo} vs block {block_halo}"
        );
    }

    #[test]
    fn cache_counters_surface_in_the_outcome() {
        let mesh = UnstructuredMeshBuilder::new(8, 8).seed(2).build();
        let initial: Vec<f64> = (0..mesh.len()).map(|i| i as f64).collect();
        let machine = Machine::new(4, CostModel::ideal());
        let outcomes = machine.run(|proc| {
            let dist = partitioned_dist(proc, &mesh);
            jacobi_sweeps(proc, &mesh, &dist, &initial, &JacobiConfig::with_sweeps(10))
        });
        for o in outcomes {
            assert_eq!(o.cache_misses, 1, "one inspector run");
            assert_eq!(o.cache_hits, 9, "nine cached sweeps");
            assert_eq!(o.cache_evictions, 0, "static run evicts nothing");
            assert!(o.cache_resident_bytes > 0, "one schedule stays resident");
        }
    }
}

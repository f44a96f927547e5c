//! Hand-coded SPMD Jacobi with explicit halo exchange.
//!
//! This is what the paper assumes a careful programmer would write directly
//! in a message-passing language for the Figure 4 computation, and it is the
//! performance target the Kali-generated code is compared against:
//!
//! * the block distribution is hard-wired;
//! * during (untimed) set-up, the adjacency lists are translated to *local*
//!   indices, with off-processor neighbours pointing into a contiguous ghost
//!   region, and per-neighbour send/receive lists are precomputed;
//! * each sweep does one gather + send per neighbouring processor, one
//!   receive per neighbouring processor straight into the ghost region, and
//!   then a purely local relaxation with direct array indexing — no owner
//!   tests, no binary search.
//!
//! The price is everything the paper complains about in §1: the distribution
//! and the communication are frozen into the code, and changing either means
//! rewriting it.

use std::collections::BTreeMap;

use distrib::DimDist;
use dmsim::{Counters, Proc, Process};
use kali_process::tags;
use meshes::AdjacencyMesh;

/// Per-processor result of the hand-coded run.
#[derive(Debug, Clone)]
pub struct HandcodedOutcome {
    /// Final values of the locally owned nodes (local-index order).
    pub local_a: Vec<f64>,
    /// Simulated seconds spent in the timed region on this processor.
    pub total_time: f64,
    /// Operation counters accumulated during the timed region.
    pub counters: Counters,
    /// Number of ghost elements received per sweep.
    pub ghost_elements: usize,
    /// Number of neighbouring processors exchanged with.
    pub neighbor_count: usize,
}

/// Run `sweeps` Jacobi sweeps with hand-written message passing.
///
/// Must be called collectively by every processor of the machine.  The node
/// arrays are block-distributed (the decomposition the paper calls obvious
/// for its test grids).
pub fn handcoded_jacobi(
    proc: &mut Proc,
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
) -> HandcodedOutcome {
    let rank = proc.rank();
    let nprocs = proc.nprocs();
    let n = mesh.len();
    assert_eq!(initial.len(), n, "initial field must cover the mesh");
    let dist = DimDist::block(n, nprocs);
    let width = mesh.max_degree();
    let local_rows = dist.local_count(rank);

    // ---- Set-up (untimed): the programmer's hard-wired data layout --------
    // Ghost table: global index -> ghost slot, grouped by owning processor.
    let mut ghost_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut ghosts_by_owner: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for l in 0..local_rows {
        let g = dist.global_index(rank, l);
        for &nb in mesh.neighbors(g) {
            let nb = nb as usize;
            if !dist.is_local(rank, nb) && !ghost_of.contains_key(&nb) {
                ghost_of.insert(nb, 0); // slot assigned below
                ghosts_by_owner.entry(dist.owner(nb)).or_default().push(nb);
            }
        }
    }
    // Assign contiguous ghost slots grouped by owner, sorted by global index
    // (so sender and receiver agree on the packing order).
    let mut next_slot = local_rows;
    for list in ghosts_by_owner.values_mut() {
        list.sort_unstable();
        for &g in list.iter() {
            ghost_of.insert(g, next_slot);
            next_slot += 1;
        }
    }
    let ghost_elements = next_slot - local_rows;

    // Exchange request lists so every processor knows what to send (done by
    // hand once, untimed — the paper's programmer derived these by reasoning
    // about the decomposition).
    let requests: Vec<(usize, Vec<usize>)> = {
        let routed: Vec<(usize, (usize, Vec<usize>))> = ghosts_by_owner
            .iter()
            .map(|(&owner, list)| (owner, (rank, list.clone())))
            .collect();
        dmsim::collectives::direct_exchange(proc, routed)
    };
    // send_lists[q] = local indices (on this processor) to pack for q.
    let mut send_lists: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (requester, globals) in requests {
        let locals: Vec<usize> = globals.iter().map(|&g| dist.local_index(g)).collect();
        send_lists.insert(requester, locals);
    }

    // Local-index adjacency: owned neighbours point into 0..local_rows,
    // ghosts into local_rows..local_rows+ghost_elements.
    let mut local_adj: Vec<u32> = vec![0; local_rows * width];
    let mut local_coef: Vec<f64> = vec![0.0; local_rows * width];
    let mut count: Vec<u32> = vec![0; local_rows];
    for l in 0..local_rows {
        let g = dist.global_index(rank, l);
        let nbrs = mesh.neighbors(g);
        let cs = mesh.coefs(g);
        count[l] = nbrs.len() as u32;
        for (j, (&nb, &c)) in nbrs.iter().zip(cs).enumerate() {
            let nb = nb as usize;
            let li = if dist.is_local(rank, nb) {
                dist.local_index(nb)
            } else {
                ghost_of[&nb]
            };
            local_adj[l * width + j] = li as u32;
            local_coef[l * width + j] = c;
        }
    }

    let mut a: Vec<f64> = (0..local_rows)
        .map(|l| initial[dist.global_index(rank, l)])
        .collect();
    // old_a is extended by the ghost region.
    let mut old_a: Vec<f64> = vec![0.0; local_rows + ghost_elements];

    // ---- Timed region ------------------------------------------------------
    let start_clock = proc.time();
    let counters_start = proc.counters();

    for sweep in 0..sweeps {
        let tag = tags::halo_tag(sweep as u64);

        // Copy the owned values into old_a.
        for l in 0..local_rows {
            proc.charge_loop_iters(1);
            proc.charge_mem_refs(2);
            old_a[l] = a[l];
        }

        // Halo exchange: one message per neighbouring processor.
        for (&dst, locals) in &send_lists {
            let mut payload = Vec::with_capacity(locals.len());
            for &l in locals {
                proc.charge_mem_refs(2);
                payload.push(a[l]);
            }
            proc.send_vec(dst, tag, payload);
        }
        let mut cursor = local_rows;
        for (&src, list) in &ghosts_by_owner {
            let payload: Vec<f64> = proc.recv(src, tag);
            assert_eq!(payload.len(), list.len(), "halo message size mismatch");
            for v in payload {
                proc.charge_mem_refs(2);
                old_a[cursor] = v;
                cursor += 1;
            }
        }
        cursor = local_rows; // reset for the next sweep's bookkeeping
        let _ = cursor;

        // Purely local relaxation with direct indexing.
        for l in 0..local_rows {
            proc.charge_loop_iters(1);
            proc.charge_mem_refs(1); // count[l]
            let deg = count[l] as usize;
            let mut x = 0.0f64;
            for j in 0..deg {
                proc.charge_loop_iters(1);
                proc.charge_mem_refs(3); // adj, coef, old_a[adj]
                proc.charge_flops(2);
                x += local_coef[l * width + j] * old_a[local_adj[l * width + j] as usize];
            }
            if deg > 0 {
                proc.charge_mem_refs(1);
                a[l] = x;
            }
        }
    }

    let total_time = proc.time() - start_clock;
    let counters = proc.counters().since(&counters_start);

    HandcodedOutcome {
        local_a: a,
        total_time,
        counters,
        ghost_elements,
        neighbor_count: ghosts_by_owner.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::{CostModel, Machine};
    use meshes::{RegularGrid, UnstructuredMeshBuilder};
    use solvers::{gather_global, jacobi_sequential};

    fn gather(nprocs: usize, mesh: &AdjacencyMesh, initial: &[f64], sweeps: usize) -> Vec<f64> {
        let machine = Machine::new(nprocs, CostModel::ideal());
        let outcomes = machine.run(|proc| handcoded_jacobi(proc, mesh, initial, sweeps).local_a);
        gather_global(&DimDist::block(mesh.len(), nprocs), &outcomes)
    }

    #[test]
    fn matches_sequential_on_regular_grid() {
        let grid = RegularGrid::square(16);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let expected = jacobi_sequential(&mesh, &initial, 9);
        for nprocs in [1, 2, 4, 8] {
            assert_eq!(
                gather(nprocs, &mesh, &initial, 9),
                expected,
                "nprocs={nprocs}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_unstructured_mesh() {
        let mesh = UnstructuredMeshBuilder::new(11, 13).seed(99).build();
        let initial: Vec<f64> = (0..mesh.len()).map(|i| (i as f64).sin()).collect();
        let expected = jacobi_sequential(&mesh, &initial, 6);
        assert_eq!(gather(4, &mesh, &initial, 6), expected);
    }

    #[test]
    fn strip_decomposition_exchanges_one_message_per_neighbour_per_sweep() {
        let grid = RegularGrid::square(32);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let machine = Machine::new(4, CostModel::ideal());
        let (outcomes, stats) =
            machine.run_stats(|proc| handcoded_jacobi(proc, &mesh, &initial, 5));
        // Interior strips have 2 neighbours, boundary strips 1.
        assert_eq!(outcomes[0].neighbor_count, 1);
        assert_eq!(outcomes[1].neighbor_count, 2);
        assert_eq!(outcomes[2].neighbor_count, 2);
        assert_eq!(outcomes[3].neighbor_count, 1);
        // Ghost region = one 32-node row per neighbour.
        assert_eq!(outcomes[1].ghost_elements, 64);
        // Messages: setup exchange (3 per proc for direct_exchange among 4)
        // plus 5 sweeps × 6 halo messages.
        let halo_msgs: u64 = 5 * 6;
        assert!(stats.totals.msgs_sent >= halo_msgs);
    }

    #[test]
    fn timed_region_excludes_setup() {
        let grid = RegularGrid::square(8);
        let mesh = grid.five_point_mesh();
        let initial = grid.initial_field();
        let machine = Machine::new(2, CostModel::ncube7());
        let outcomes = machine.run(|proc| handcoded_jacobi(proc, &mesh, &initial, 0));
        for o in outcomes {
            assert_eq!(
                o.total_time, 0.0,
                "zero sweeps must take zero simulated time"
            );
        }
    }
}

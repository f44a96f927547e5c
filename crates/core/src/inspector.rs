//! The inspector: run-time communication analysis (paper §3.3, Figure 6).
//!
//! When a subscript depends on run-time data (`old_a[adj[i, j]]`), the
//! communication sets cannot be computed symbolically.  The paper's solution
//! is to run a *modified version of the forall*, the inspector, before the
//! real loop:
//!
//! 1. every reference made by every iteration in `exec(p)` is checked for
//!    locality; nonlocal references are recorded together with their home
//!    processor,
//! 2. iterations are split into a local list (all references local) and a
//!    nonlocal list,
//! 3. the per-source receive lists are sorted and adjacent ranges combined
//!    (Figure 5's representation), and
//! 4. a crystal-router global exchange converts receive lists into send
//!    lists (`out(p,q) = in(q,p)`).
//!
//! The output is a [`CommSchedule`] which the executor uses for every
//! subsequent execution of the same `forall` (see [`crate::cache`]) — valid
//! for as long as the data feeding `refs_of` and the distributions stand
//! still.  Adaptive workloads re-run the inspector once per mesh
//! generation: the caller bumps the cache's data version when the adjacency
//! changes, and the locality loop below bounds-checks every reference — in
//! every build — to catch enumerators left pointing at a previous
//! generation's arrays.

use distrib::{Distribution, IndexSet};

use crate::process::Process;
use crate::schedule::{CommSchedule, RangeRecord};

/// Run the inspector for one `forall` on the calling processor.
///
/// * `data_dist` — distribution of the array being referenced with
///   data-dependent subscripts (the paper's `old_a`).  Any
///   [`Distribution`] implementation works — regular pattern, irregular
///   owner map, or the type-erased `DimDist` handle.
/// * `exec_iters` — the iterations this processor executes (`exec(p)`
///   intersected with the loop range), in ascending order.
/// * `refs_of` — called once per iteration; it must push the global indices
///   of every distributed-array reference the iteration makes into the
///   supplied buffer (the inspector equivalent of executing the loop body
///   "without the arithmetic").  An index outside the array panics here, in
///   every build, naming rank, iteration and index.
///
/// Every processor of the machine must call this collectively — the final
/// step is a global exchange.
pub fn run_inspector<P, D, F>(
    proc: &mut P,
    data_dist: &D,
    exec_iters: &[usize],
    mut refs_of: F,
) -> CommSchedule
where
    P: Process,
    D: Distribution + ?Sized,
    F: FnMut(usize, &mut Vec<usize>),
{
    let rank = proc.rank();
    let nprocs = proc.nprocs();
    assert_eq!(
        data_dist.nprocs(),
        nprocs,
        "the data distribution must span exactly the processors of the machine"
    );
    let n = data_dist.n();

    // ---- Phase 1: locality-checking loop over every reference -------------
    let mut local_iters = Vec::new();
    let mut nonlocal_iters = Vec::new();
    let mut per_source: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
    let mut refs = Vec::new();
    for &i in exec_iters {
        proc.charge_loop_iters(1);
        refs.clear();
        refs_of(i, &mut refs);
        let mut all_local = true;
        for &g in &refs {
            // Catch stale reference enumerators here: under adaptive
            // workloads the `adj` data feeding `refs_of` changes between
            // data versions, and an out-of-range index means the caller
            // re-inspected with arrays from a different mesh generation.
            // Not a `debug_assert`: `owner` below would name a processor for
            // it all the same (under cyclic, `g % P`), and the sweep would
            // die later on whichever rank that is, blaming the schedule.
            assert!(
                g < n,
                "rank {rank}: iteration {i} references global index {g}, outside the \
                 distributed array of {n} elements (stale refs after a data version \
                 change?)"
            );
            // "The inspector only checks whether references to distributed
            // arrays are local" — one owner computation per reference.
            proc.charge_locality_check();
            let home = data_dist.owner(g);
            if home != rank {
                all_local = false;
                per_source[home].push(g);
            }
        }
        if all_local {
            local_iters.push(i);
        } else {
            nonlocal_iters.push(i);
        }
    }

    // ---- Phase 2: sort, deduplicate and coalesce the receive lists --------
    let recv_sets: Vec<IndexSet> = per_source
        .into_iter()
        .map(|v| {
            // Charge the paper's insertion/sort cost: one record-handling
            // charge per element placed into the sorted list.
            proc.charge_record_handling(v.len());
            IndexSet::from_indices(v)
        })
        .collect();
    let mut schedule = CommSchedule::from_recv_sets(rank, &recv_sets, local_iters, nonlocal_iters);

    // ---- Phase 3: global exchange to build the send lists ------------------
    // Each receive record is routed to its home processor, where it becomes a
    // send record ("Form send_list using recv_lists from all processors
    // (requires global communication)", Figure 6).  On the simulator the
    // exchange is the paper's crystal router; other backends provide their
    // own all-to-all.
    let outgoing: Vec<(usize, RangeRecord)> = schedule
        .recv_records()
        .iter()
        .map(|r| (r.from_proc, *r))
        .collect();
    let incoming = proc.exchange(outgoing);
    proc.charge_record_handling(incoming.len());
    schedule.set_send_records(proc.nprocs(), incoming);
    schedule.assert_sends_owned(data_dist);
    schedule
}

/// Convenience: the iterations of `0..n` this processor executes under an
/// owner-computes on-clause (`on A[i].loc`), in ascending order.
pub fn owner_computes_iters<D: Distribution + ?Sized>(
    dist: &D,
    rank: usize,
    n: usize,
) -> Vec<usize> {
    owner_computes_range(dist, rank, 0, n)
}

/// The iterations of `lo..hi` this processor executes under an
/// owner-computes on-clause, in ascending order.
///
/// The intersection happens at the interval-set level **before** any
/// enumeration: a narrow range over a huge distribution materialises only
/// the iterations actually in the range, never the full owned set (the
/// owned set itself is a handful of coalesced ranges for every built-in
/// pattern).
pub fn owner_computes_range<D: Distribution + ?Sized>(
    dist: &D,
    rank: usize,
    lo: usize,
    hi: usize,
) -> Vec<usize> {
    dist.local_set(rank)
        .intersect(&IndexSet::from_range(lo, hi))
        .iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::DimDist;
    use dmsim::{CostModel, Machine};

    /// A tiny indirect-access workload: iteration i references data[idx[i]].
    fn run_indirect(
        nprocs: usize,
        n: usize,
        idx: Vec<usize>,
        dist: impl Fn() -> DimDist + Sync,
    ) -> Vec<CommSchedule> {
        let machine = Machine::new(nprocs, CostModel::ideal());
        machine.run(|proc| {
            let d = dist();
            let exec = owner_computes_iters(&d, proc.rank(), n);
            run_inspector(proc, &d, &exec, |i, refs| refs.push(idx[i]))
        })
    }

    #[test]
    fn purely_local_references_produce_empty_schedules() {
        let n = 32;
        let idx: Vec<usize> = (0..n).collect(); // identity: always local
        let schedules = run_indirect(4, n, idx, || DimDist::block(32, 4));
        for s in schedules {
            assert_eq!(s.recv_len, 0);
            assert!(s.send_records().is_empty());
            assert!(s.nonlocal_iters().is_empty());
            assert_eq!(s.local_iters().len(), 8);
        }
    }

    #[test]
    fn shift_pattern_matches_expected_boundaries() {
        let n = 40;
        // Iteration i references element i+1 (except the last, which is self).
        let idx: Vec<usize> = (0..n).map(|i| if i + 1 < n { i + 1 } else { i }).collect();
        let schedules = run_indirect(4, n, idx, || DimDist::block(40, 4));
        for (rank, s) in schedules.iter().enumerate() {
            if rank < 3 {
                assert_eq!(s.recv_len, 1, "rank {rank} receives one halo element");
                assert_eq!(s.recv_records()[0].from_proc, rank + 1);
                assert_eq!(s.recv_records()[0].low, (rank + 1) * 10);
                assert_eq!(s.nonlocal_iters(), [rank * 10 + 9]);
            } else {
                assert_eq!(s.recv_len, 0);
            }
            if rank > 0 {
                assert_eq!(s.send_records().len(), 1);
                assert_eq!(s.send_records()[0].to_proc, rank - 1);
                assert_eq!(s.send_records()[0].len(), 1);
            }
        }
    }

    #[test]
    fn duplicate_references_are_coalesced_into_single_ranges() {
        let n = 24;
        // Every iteration on processor 1 references elements 0, 1 and 2 (all
        // owned by processor 0) repeatedly.
        let machine = Machine::new(2, CostModel::ideal());
        let schedules = machine.run(|proc| {
            let d = DimDist::block(n, 2);
            let exec = owner_computes_iters(&d, proc.rank(), n);
            run_inspector(proc, &d, &exec, |_i, refs| {
                refs.extend_from_slice(&[0, 1, 2, 1, 0]);
            })
        });
        let s1 = &schedules[1];
        assert_eq!(s1.recv_len, 3, "duplicates must collapse");
        assert_eq!(s1.range_count(), 1, "adjacent elements must coalesce");
        assert_eq!(s1.recv_records()[0].low, 0);
        assert_eq!(s1.recv_records()[0].high, 3);
        // Processor 0 references only its own elements.
        assert_eq!(schedules[0].recv_len, 0);
        assert_eq!(schedules[0].send_records().len(), 1);
        assert_eq!(schedules[0].send_records()[0].high, 3);
    }

    #[test]
    fn in_and_out_sets_are_transposes_of_each_other() {
        let n = 60;
        // Pseudo-random but deterministic indirect references.
        let idx: Vec<usize> = (0..n).map(|i| (i * 17 + 5) % n).collect();
        let schedules = run_indirect(4, n, idx, || DimDist::cyclic(60, 4));
        for p in 0..4 {
            for q in 0..4 {
                if p == q {
                    continue;
                }
                let in_pq: Vec<(usize, usize)> = schedules[p]
                    .recv_records()
                    .iter()
                    .filter(|r| r.from_proc == q)
                    .map(|r| (r.low, r.high))
                    .collect();
                let mut out_qp: Vec<(usize, usize)> = schedules[q]
                    .send_records()
                    .iter()
                    .filter(|r| r.to_proc == p)
                    .map(|r| (r.low, r.high))
                    .collect();
                out_qp.sort_unstable();
                let mut in_sorted = in_pq.clone();
                in_sorted.sort_unstable();
                assert_eq!(in_sorted, out_qp, "in({p},{q}) vs out({q},{p})");
            }
        }
    }

    #[test]
    fn inspector_charges_one_locality_check_per_reference() {
        let n = 16;
        let machine = Machine::new(2, CostModel::ncube7());
        let idx: Vec<usize> = (0..n).map(|i| (i + 3) % n).collect();
        let (_, stats) = machine.run_stats(|proc| {
            let d = DimDist::block(n, 2);
            let exec = owner_computes_iters(&d, proc.rank(), n);
            run_inspector(proc, &d, &exec, |i, refs| refs.push(idx[i]));
        });
        // 16 references in total -> at least 16 × locality_check of simulated
        // time across the two processors (plus loop and router overheads).
        let check = CostModel::ncube7().locality_check();
        let total: f64 = stats.clocks.iter().sum();
        assert!(total >= 16.0 * check);
    }

    #[test]
    fn narrow_range_does_not_enumerate_the_whole_owned_set() {
        // Regression for the old materialise-then-filter enumeration: with a
        // 2^44-element distribution, collecting the full owned set before
        // filtering would attempt a ~4-trillion-element vector.  The
        // range-aware helper must intersect at the interval level first.
        let n = 1usize << 44;
        let d = DimDist::block(n, 4);
        assert_eq!(
            owner_computes_range(&d, 0, 10, 42),
            (10..42).collect::<Vec<_>>()
        );
        // A window inside rank 2's block.
        let base = n / 2;
        assert_eq!(
            owner_computes_range(&d, 2, base + 5, base + 9),
            vec![base + 5, base + 6, base + 7, base + 8]
        );
        // A window entirely outside the rank's block is empty.
        assert!(owner_computes_range(&d, 3, 0, 1000).is_empty());
        // The unranged helper is the (0, n) special case on small inputs.
        let small = DimDist::cyclic(17, 3);
        assert_eq!(
            owner_computes_iters(&small, 1, 17),
            owner_computes_range(&small, 1, 0, 17)
        );
    }

    #[test]
    #[should_panic(
        expected = "rank 0: iteration 9 references global index 11, outside the distributed \
                    array of 10 elements"
    )]
    fn out_of_range_references_are_rejected_at_plan_time_in_every_build() {
        // `11 % 1` names an owner without complaint, so without the check
        // the plan succeeds and the sweep dies later, blaming the caller's
        // local storage.  CI also runs this under `cargo test --release`,
        // against the profile that ships.
        let machine = Machine::new(1, CostModel::ideal());
        let mut caught = machine.run(|proc| {
            let d = DimDist::cyclic(10, 1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_inspector(proc, &d, &[9], |_i, refs| refs.push(11));
            }))
        });
        // The machine reports a worker's panic without its message; hand the
        // worker's own payload to the harness.
        let payload = caught
            .remove(0)
            .expect_err("the inspector must reject index 11");
        std::panic::resume_unwind(payload);
    }

    #[test]
    #[should_panic(
        expected = "rank 0: peer 1's send record [3,4) names an element rank 0 \
                               does not own under cyclic"
    )]
    fn a_request_for_an_element_this_rank_does_not_own_fails_at_plan_time() {
        // The ranks disagree on the placement: rank 1 plans under block and
        // asks rank 0 for element 3, which rank 0, under cyclic, does not
        // own.  Cyclic has no local runs, so the executor would pack the
        // record through `local_index(3)`, element 1's slot, and send
        // element 2's value without complaint.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let (d, exec) = if proc.rank() == 0 {
                (DimDist::cyclic(8, 2), vec![])
            } else {
                let d = DimDist::block(8, 2);
                let exec = owner_computes_iters(&d, 1, 8);
                (d, exec)
            };
            run_inspector(proc, &d, &exec, |i, refs| refs.push(i - 1));
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn distribution_must_match_machine_size() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let d = DimDist::block(10, 4); // wrong processor count
            run_inspector(proc, &d, &[0], |_i, refs| refs.push(0));
        });
    }
}

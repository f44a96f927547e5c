//! Array redistribution: move a distributed array from one distribution to
//! another.
//!
//! The paper's §2.4 argues that "a variety of distribution patterns can
//! easily be tried by trivial modification of this program"; in practice a
//! program often needs to *change* the distribution of live data between
//! phases (e.g. rows for one sweep direction, columns for the other, or a
//! rebalanced custom distribution after mesh adaptation).  Redistribution is
//! just another communication schedule: processor `p` must send, for every
//! other processor `q`, the elements it owns under the old distribution that
//! `q` owns under the new one — a set with a closed form for any pair of
//! distributions, so no inspector is needed.

use distrib::{Distribution, IndexSet};

use crate::executor::for_each_local_piece;
use crate::process::{tags, Process};
use crate::schedule::CommSchedule;

/// Build the redistribution schedule for the calling processor: what it
/// receives (elements it owns under `to` but not under `from`) and what it
/// sends.  Pure local computation — both distributions are known everywhere.
/// Works between any two [`Distribution`] implementations (block →
/// partitioned-irregular is the new interesting case).
pub fn redistribution_schedule<A, B>(rank: usize, from: &A, to: &B) -> CommSchedule
where
    A: Distribution + ?Sized,
    B: Distribution + ?Sized,
{
    plan_move(rank, from, to).0
}

/// The redistribution schedule of `rank` together with the set that stays
/// put (owned by `rank` under both distributions, copied without
/// communication), from one construction of the rank's before and after
/// sets.
fn plan_move<A, B>(rank: usize, from: &A, to: &B) -> (CommSchedule, IndexSet)
where
    A: Distribution + ?Sized,
    B: Distribution + ?Sized,
{
    assert_eq!(
        from.n(),
        to.n(),
        "distributions must cover the same index space"
    );
    assert_eq!(
        from.nprocs(),
        to.nprocs(),
        "redistribution across machine sizes is not supported"
    );
    let nprocs = from.nprocs();

    // in(p, q): elements owned by q under `from` and by p under `to`.
    let mine_after = to.local_set(rank);
    let mut recv_sets = vec![IndexSet::new(); nprocs];
    for (q, slot) in recv_sets.iter_mut().enumerate() {
        if q == rank {
            continue;
        }
        *slot = mine_after.intersect(&from.local_set(q));
    }
    let mut schedule = CommSchedule::from_recv_sets(rank, &recv_sets, Vec::new(), Vec::new());

    // out(p, q): elements owned by p under `from` and by q under `to`.
    let mine_before = from.local_set(rank);
    schedule.set_send_sets(nprocs, |q| mine_before.intersect(&to.local_set(q)));
    (schedule, mine_after.intersect(&mine_before))
}

/// Redistribute local data from distribution `from` to distribution `to`,
/// returning the new local storage (in `to`'s local index order) and tagging
/// the traffic with a distinct `epoch` offset
/// ([`Session::redistribute`](crate::Session::redistribute) allocates them).
///
/// Must be called collectively.  Elements whose owner does not change are
/// copied locally without communication.
///
/// Programs that redistribute repeatedly (an adaptive-mesh run rebalancing
/// after every refinement) use the epoch counter so each round's messages
/// are distinguishable in traces; like the executor's sweep tags, epochs
/// wrap within the redistribution tag window ([`tags::SPAN`]) — in-order
/// pairwise delivery makes reuse a full window later unambiguous.
pub fn redistribute_epoch<P, A, B, T>(
    proc: &mut P,
    from: &A,
    to: &B,
    local_data: &[T],
    epoch: u64,
) -> Vec<T>
where
    P: Process,
    A: Distribution + ?Sized,
    B: Distribution + ?Sized,
    T: Copy + Default + kali_process::Wire,
{
    let rank = proc.rank();
    assert_eq!(
        local_data.len(),
        from.local_count(rank),
        "local data does not match the source distribution"
    );
    let (schedule, stays) = plan_move(rank, from, to);
    let tag = tags::redistribute_tag(epoch % tags::SPAN);
    // Translate once per owned run and move slices where the distributions
    // offer runs, per element where they do not.  The cost hooks stay one
    // call per element either way, so a metering backend's clock advances
    // through the same additions.
    let from_runs = from.local_runs(rank);
    let from_runs = from_runs.as_deref();
    let to_runs = to.local_runs(rank);
    let to_runs = to_runs.as_deref();
    let charge_moves = |proc: &mut P, elements: usize| {
        for _ in 0..elements {
            proc.charge_mem_refs(2);
        }
    };

    // Send phase.
    for (to_proc, records) in schedule.send_messages() {
        let count: usize = records.iter().map(|r| r.len()).sum();
        let mut payload = Vec::with_capacity(count);
        for record in records {
            charge_moves(proc, record.len());
            for_each_local_piece(from, from_runs, record.low, record.high, |_, l, len| {
                payload.extend_from_slice(&local_data[l..l + len]);
            });
        }
        proc.send_vec(to_proc, tag, payload);
    }

    // Local copies for elements that stay put.
    let mut new_local = vec![T::default(); to.local_count(rank)];
    for stay in stays.ranges() {
        charge_moves(proc, stay.len());
        for_each_local_piece(from, from_runs, stay.start, stay.end, |g, src, len| {
            for_each_local_piece(to, to_runs, g, g + len, |h, dst, len| {
                let src = src + (h - g);
                new_local[dst..dst + len].copy_from_slice(&local_data[src..src + len]);
            });
        });
    }

    // Receive phase.
    for (from_proc, records) in schedule.recv_messages() {
        let payload: Vec<T> = proc.recv_vec(from_proc, tag);
        let expected: usize = records.iter().map(|r| r.len()).sum();
        assert_eq!(
            payload.len(),
            expected,
            "redistribution message size mismatch"
        );
        let mut cursor = 0usize;
        for record in records {
            charge_moves(proc, record.len());
            for_each_local_piece(to, to_runs, record.low, record.high, |_, dst, len| {
                new_local[dst..dst + len].copy_from_slice(&payload[cursor..cursor + len]);
                cursor += len;
            });
        }
    }
    new_local
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::DimDist;
    use dmsim::{CostModel, Machine};

    fn roundtrip_check(
        _n: usize,
        nprocs: usize,
        from: impl Fn(usize) -> DimDist + Sync,
        to: impl Fn(usize) -> DimDist + Sync,
    ) {
        let machine = Machine::new(nprocs, CostModel::ideal());
        let results = machine.run(|proc| {
            let from = from(proc.nprocs());
            let to = to(proc.nprocs());
            let rank = proc.rank();
            // Local data under `from`: value = global index.
            let local: Vec<u64> = from.local_set(rank).iter().map(|g| g as u64).collect();
            let new_local = redistribute_epoch(proc, &from, &to, &local, 0);
            // Every element must now hold its own global index under `to`.
            let expected: Vec<u64> = to.local_set(rank).iter().map(|g| g as u64).collect();
            (new_local, expected)
        });
        for (rank, (got, expected)) in results.into_iter().enumerate() {
            assert_eq!(got, expected, "rank {rank}");
        }
    }

    #[test]
    fn block_to_cyclic_and_back() {
        roundtrip_check(97, 4, |p| DimDist::block(97, p), |p| DimDist::cyclic(97, p));
        roundtrip_check(97, 4, |p| DimDist::cyclic(97, p), |p| DimDist::block(97, p));
    }

    #[test]
    fn block_to_block_cyclic() {
        roundtrip_check(
            64,
            8,
            |p| DimDist::block(64, p),
            |p| DimDist::block_cyclic(64, p, 3),
        );
    }

    #[test]
    fn custom_rebalance() {
        roundtrip_check(
            50,
            5,
            |p| DimDist::block(50, p),
            |p| DimDist::custom((0..50).map(|i| (i * 3 + 1) % p).collect(), p),
        );
    }

    #[test]
    fn moves_by_run_and_by_element_agree_and_charge_per_element() {
        // Every pairing of a placement that offers runs ([block, *] and
        // [*, block] with 20-wide row segments) with one that does not
        // (cyclic): the moved field is right and every element that changes
        // storage — sent, received or copied in place — costs exactly two
        // memory references, however it was moved.
        use distrib::ArrayDist;
        let (rows, cols, p) = (6, 80, 4);
        let n = rows * cols;
        const NAMES: [&str; 3] = ["[block, *]", "[*, block]", "cyclic"];
        let placement = |kind: usize| match kind {
            0 => DimDist::flattened(ArrayDist::block_rows(rows, cols, p)),
            1 => DimDist::flattened(ArrayDist::block_cols(rows, cols, p)),
            _ => DimDist::cyclic(n, p),
        };
        assert!(placement(0).local_runs(1).is_some());
        assert!(placement(1).local_runs(1).is_some());
        assert!(placement(2).local_runs(1).is_none());
        for (from_kind, from_name) in NAMES.iter().enumerate() {
            for (to_kind, to_name) in NAMES.iter().enumerate() {
                let (from, to) = (placement(from_kind), placement(to_kind));
                let machine = Machine::new(p, CostModel::ideal());
                let (_, stats) = machine.run_stats(|proc| {
                    let rank = proc.rank();
                    let local: Vec<u64> = (0..from.local_count(rank))
                        .map(|l| from.global_index(rank, l) as u64)
                        .collect();
                    let moved = redistribute_epoch(proc, &from, &to, &local, 0);
                    let expected: Vec<u64> = (0..to.local_count(rank))
                        .map(|l| to.global_index(rank, l) as u64)
                        .collect();
                    assert_eq!(moved, expected, "{from_name} -> {to_name}, rank {rank}");
                });
                let sent: usize = (0..p)
                    .map(|r| redistribution_schedule(r, &from, &to).send_len())
                    .sum();
                // Sent elements are charged at both ends, kept ones once.
                assert_eq!(
                    stats.totals.mem_refs as usize,
                    2 * (n + sent),
                    "{from_name} -> {to_name}"
                );
            }
        }
    }

    #[test]
    fn repeated_epoch_tagged_redistributions_round_trip() {
        // An adaptive run ping-pongs data between placements, one epoch per
        // round; epochs far beyond the tag window must wrap, not panic.
        let n = 31;
        let machine = Machine::new(4, CostModel::ideal());
        machine.run(|proc| {
            let block = DimDist::block(n, proc.nprocs());
            let cyclic = DimDist::cyclic(n, proc.nprocs());
            let rank = proc.rank();
            let mut data: Vec<u64> = block.local_set(rank).iter().map(|g| g as u64).collect();
            for round in 0..3u64 {
                let epoch = round * 2 + tags::SPAN * 5; // force wrapping
                data = redistribute_epoch(proc, &block, &cyclic, &data, epoch);
                data = redistribute_epoch(proc, &cyclic, &block, &data, epoch + 1);
            }
            let expected: Vec<u64> = block.local_set(rank).iter().map(|g| g as u64).collect();
            assert_eq!(data, expected, "rank {rank}");
        });
    }

    #[test]
    fn identical_distributions_move_nothing() {
        let machine = Machine::new(4, CostModel::ideal());
        let (_, stats) = machine.run_stats(|proc| {
            let d = DimDist::block(40, proc.nprocs());
            let local: Vec<u32> = d.local_set(proc.rank()).iter().map(|g| g as u32).collect();
            let out = redistribute_epoch(proc, &d, &d, &local, 0);
            assert_eq!(out, local);
        });
        assert_eq!(stats.totals.msgs_sent, 0);
        assert_eq!(stats.totals.bytes_sent, 0);
    }

    #[test]
    fn schedule_volumes_balance_globally() {
        let n = 120;
        let p = 6;
        let from = DimDist::block(n, p);
        let to = DimDist::cyclic(n, p);
        let schedules: Vec<CommSchedule> = (0..p)
            .map(|r| redistribution_schedule(r, &from, &to))
            .collect();
        let recv: usize = schedules.iter().map(|s| s.recv_len).sum();
        let send: usize = schedules.iter().map(|s| s.send_len()).sum();
        assert_eq!(recv, send);
        // Every element is either kept locally or received exactly once.
        let kept: usize = (0..p)
            .map(|r| to.local_set(r).intersect(&from.local_set(r)).len())
            .sum();
        assert_eq!(kept + recv, n);
    }
}

//! Collective operations built on top of point-to-point messaging.
//!
//! The paper's run-time system needs three collective patterns:
//!
//! * **barrier** — reductions (convergence tests across sweeps) are not
//!   here: every backend uses the `Process` trait's binomial-tree
//!   `allreduce` (`process_impl.rs` says why),
//! * **all-to-all personalised exchange** — the inspector must turn its
//!   receive lists (`in(p,q)`) into send lists (`out(p,q) = in(q,p)`), which
//!   the paper does with "a variant of Fox's Crystal router" so that no
//!   processor becomes a bottleneck (§3.3),
//! * **allgather** — used when replicated data must be set up.
//!
//! The barrier is `kali_process::collectives::dissemination_barrier`, shared
//! with every backend and run here over the timed `send` / `recv`.  The
//! exchange and the allgather stay the simulator's own: the crystal router
//! is what the paper's tables price, both charge modeled wire sizes through
//! `send_bytes`, and both complete with wildcard receives — the freedom
//! `DeliveryPolicy` perturbs for the delivery-order model checker.
//!
//! All collectives are SPMD: every processor must call the same collective
//! in the same order.  Each invocation reserves a fresh tag so consecutive
//! collectives can never interfere.

use crate::engine::Proc;

/// Synchronise all processors (dissemination barrier).
///
/// After the call, every processor's clock is at least as large as the time
/// at which the last processor entered the barrier (plus messaging costs).
pub fn barrier(proc: &mut Proc) {
    let tag = proc.next_collective_tag();
    kali_process::collectives::dissemination_barrier(proc, tag);
}

/// Gather one value from every processor onto every processor.
///
/// The result vector is indexed by rank.
pub fn allgather<T>(proc: &mut Proc, value: T, bytes: usize) -> Vec<T>
where
    T: Clone + Send + 'static,
{
    let tag = proc.next_collective_tag();
    let n = proc.nprocs();
    let me = proc.rank();
    let mut out: Vec<Option<T>> = vec![None; n];
    out[me] = Some(value.clone());
    for dst in 0..n {
        if dst != me {
            proc.send_bytes(dst, tag, bytes, value.clone());
        }
    }
    for _ in 0..n - 1 {
        let (src, v): (usize, T) = proc.recv_any(tag);
        out[src] = Some(v);
    }
    out.into_iter().map(|v| v.expect("missing rank")).collect()
}

/// One routed item in an all-to-all personalised exchange: `(destination
/// rank, payload)`.
pub type Routed<T> = (usize, T);

/// Fox's crystal router: all-to-all personalised exchange by hypercube
/// dimension exchange.
///
/// Every processor contributes a list of `(destination, item)` pairs and
/// receives the items destined for it.  At stage `d` each processor
/// exchanges, with the partner across hypercube dimension `d`, exactly the
/// items whose destination differs from its own rank in bit `d`.  Each item
/// therefore travels at most `log2(P)` hops and no processor ever holds more
/// than its share of the traffic — the property the paper relies on to avoid
/// bottlenecks.
///
/// In addition to the per-message transfer costs, each stage charges the
/// machine's `router_stage` software overhead (the calibrated cost of the
/// global concatenation step; see [`CostModel`](crate::CostModel)).
///
/// Falls back to [`direct_exchange`] when the processor count is not a power
/// of two.
pub fn crystal_router<T>(proc: &mut Proc, items: Vec<Routed<T>>) -> Vec<T>
where
    T: Send + 'static,
{
    let n = proc.nprocs();
    if !n.is_power_of_two() || n == 1 {
        return direct_exchange(proc, items);
    }
    let tag = proc.next_collective_tag();
    let me = proc.rank();
    let dim = n.trailing_zeros();
    let item_bytes = std::mem::size_of::<Routed<T>>();
    let mut current = items;
    for d in 0..dim {
        let bit = 1usize << d;
        let partner = me ^ bit;
        let (forward, keep): (Vec<Routed<T>>, Vec<Routed<T>>) = current
            .into_iter()
            .partition(|(dst, _)| (dst & bit) != (me & bit));
        // Per-stage software overhead of the global concatenation.
        proc.charge_seconds(proc.cost().router_stage);
        // Handling cost proportional to the records touched this stage.
        let handled = forward.len();
        proc.charge_seconds(proc.cost().record_handling() * handled as f64);
        let stage_tag = kali_process::tags::collective_stage_tag(tag, d);
        proc.send_bytes(partner, stage_tag, forward.len() * item_bytes, forward);
        let (_, incoming): (usize, Vec<Routed<T>>) = proc.recv_from(partner, stage_tag);
        current = keep;
        current.extend(incoming);
    }
    debug_assert!(current.iter().all(|(dst, _)| *dst == me));
    current.into_iter().map(|(_, item)| item).collect()
}

/// Naive all-to-all personalised exchange: every processor sends one message
/// (possibly empty) directly to every other processor.
///
/// This is the baseline the crystal router is compared against in the
/// ablation benchmarks; it is also the fallback for non-power-of-two
/// processor counts.
pub fn direct_exchange<T>(proc: &mut Proc, items: Vec<Routed<T>>) -> Vec<T>
where
    T: Send + 'static,
{
    let tag = proc.next_collective_tag();
    let n = proc.nprocs();
    let me = proc.rank();
    let item_bytes = std::mem::size_of::<T>();
    // Bucket items by destination.
    let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (dst, item) in items {
        assert!(dst < n, "routed item addressed to rank {dst} of {n}");
        buckets[dst].push(item);
    }
    let mut mine = std::mem::take(&mut buckets[me]);
    for (dst, bucket) in buckets.into_iter().enumerate() {
        if dst == me {
            continue;
        }
        proc.charge_seconds(proc.cost().record_handling() * bucket.len() as f64);
        proc.send_bytes(dst, tag, bucket.len() * item_bytes, bucket);
    }
    for _ in 0..n - 1 {
        let (_, incoming): (usize, Vec<T>) = proc.recv_any(tag);
        mine.extend(incoming);
    }
    mine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Machine};

    #[test]
    fn barrier_completes_on_various_sizes() {
        for n in [1, 2, 3, 4, 7, 8] {
            let m = Machine::new(n, CostModel::ideal());
            let r = m.run(|p| {
                barrier(p);
                barrier(p);
                p.rank()
            });
            assert_eq!(r.len(), n);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        for n in [1, 3, 4, 8] {
            let m = Machine::new(n, CostModel::ideal());
            let r = m.run(|p| allgather(p, p.rank() as u64 * 10, 8));
            let expected: Vec<u64> = (0..n as u64).map(|r| r * 10).collect();
            for v in r {
                assert_eq!(v, expected);
            }
        }
    }

    #[test]
    fn crystal_router_delivers_all_items_to_their_destinations() {
        for n in [2usize, 4, 8, 16] {
            let m = Machine::new(n, CostModel::ideal());
            let r = m.run(|p| {
                // Every processor sends (me, dst) to every dst including itself.
                let items: Vec<Routed<(usize, usize)>> =
                    (0..p.nprocs()).map(|dst| (dst, (p.rank(), dst))).collect();
                let mut got = crystal_router(p, items);
                got.sort_unstable();
                got
            });
            for (rank, got) in r.into_iter().enumerate() {
                let expected: Vec<(usize, usize)> = (0..n).map(|src| (src, rank)).collect();
                assert_eq!(got, expected, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn direct_exchange_matches_crystal_router_contents() {
        let n = 8;
        let m = Machine::new(n, CostModel::ideal());
        let build = |p: &Proc| -> Vec<Routed<u64>> {
            (0..p.nprocs())
                .filter(|&d| d != p.rank())
                .map(|d| (d, (p.rank() * 100 + d) as u64))
                .collect()
        };
        let via_router = m.run(|p| {
            let mut v = crystal_router(p, build(p));
            v.sort_unstable();
            v
        });
        let via_direct = m.run(|p| {
            let mut v = direct_exchange(p, build(p));
            v.sort_unstable();
            v
        });
        assert_eq!(via_router, via_direct);
    }

    #[test]
    fn crystal_router_handles_empty_and_uneven_loads() {
        let m = Machine::new(8, CostModel::ideal());
        let r = m.run(|p| {
            // Only rank 0 sends anything, and everything goes to rank 7.
            let items: Vec<Routed<u32>> = if p.rank() == 0 {
                (0..100).map(|i| (7usize, i)).collect()
            } else {
                Vec::new()
            };
            crystal_router(p, items).len()
        });
        assert_eq!(r[7], 100);
        assert!(r[..7].iter().all(|&len| len == 0));
    }

    #[test]
    fn crystal_router_charges_router_stage_per_dimension() {
        let mut cost = CostModel::ideal();
        cost.router_stage = 1.0;
        let m = Machine::new(8, cost);
        let (_, stats) = m.run_stats(|p| {
            let _ = crystal_router::<u8>(p, Vec::new());
        });
        // 8 processors -> 3 dimensions -> 3 seconds of stage overhead.
        assert!((stats.time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn non_power_of_two_falls_back_to_direct_exchange() {
        let m = Machine::new(6, CostModel::ideal());
        let r = m.run(|p| {
            let items: Vec<Routed<usize>> = (0..p.nprocs()).map(|d| (d, p.rank())).collect();
            let mut got = crystal_router(p, items);
            got.sort_unstable();
            got
        });
        for got in r {
            assert_eq!(got, (0..6).collect::<Vec<_>>());
        }
    }
}

//! The simulator's own collective: the crystal router.
//!
//! The inspector turns its receive lists (`in(p,q)`) into send lists
//! (`out(p,q) = in(q,p)`) with an all-to-all personalised exchange, done
//! with "a variant of Fox's Crystal router" so that no processor becomes a
//! bottleneck (§3.3).  That router is dmsim's `exchange`, because it is
//! what the paper's tables price; every other collective is the one every
//! backend shares.  Like them, each invocation reserves a fresh tag, so
//! consecutive collectives never interfere.

use kali_process::{Process, Wire};

use crate::engine::Proc;

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
pub fn crystal_router<T: Wire>(proc: &mut Proc, items: Vec<Routed<T>>) -> Vec<T> {
    let n = proc.nprocs();
    if !n.is_power_of_two() || n == 1 {
        return direct_exchange(proc, items);
    }
    let tag = proc.collective_tag();
    let me = proc.rank();
    let mut current = items;
    for d in 0..n.trailing_zeros() {
        let bit = 1usize << d;
        let partner = me ^ bit;
        let (forward, keep): (Vec<Routed<T>>, Vec<Routed<T>>) = current
            .into_iter()
            .partition(|(dst, _)| (dst & bit) != (me & bit));
        // Per-stage software overhead of the global concatenation.
        let clock = proc.clock_mut();
        clock.now += clock.cost.router_stage;
        // Handling cost proportional to the records touched this stage.
        proc.charge_record_handling(forward.len());
        let stage_tag = kali_process::tags::collective_stage_tag(tag, d);
        proc.send_vec(partner, stage_tag, forward);
        let incoming: Vec<Routed<T>> = proc.recv(partner, stage_tag);
        current = keep;
        current.extend(incoming);
    }
    debug_assert!(current.iter().all(|(dst, _)| *dst == me));
    current.into_iter().map(|(_, item)| item).collect()
}

/// Naive all-to-all personalised exchange: every processor sends one message
/// (possibly empty) directly to every other processor — the shared
/// [`direct_exchange`](kali_process::collectives::direct_exchange), which
/// charges the records of each message it sends.
///
/// This is the baseline the crystal router is compared against in the
/// ablation benchmarks; it is also the fallback for non-power-of-two
/// processor counts.
pub fn direct_exchange<T: Wire>(proc: &mut Proc, items: Vec<Routed<T>>) -> Vec<T> {
    let tag = proc.collective_tag();
    kali_process::collectives::direct_exchange(proc, tag, items)
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
                p.barrier();
                p.barrier();
                p.rank()
            });
            assert_eq!(r.len(), n);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        for n in [1, 3, 4, 8] {
            let m = Machine::new(n, CostModel::ideal());
            let r = m.run(|p| p.allgather(vec![p.rank() as u64 * 10]));
            let expected: Vec<Vec<u64>> = (0..n as u64).map(|r| vec![r * 10]).collect();
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

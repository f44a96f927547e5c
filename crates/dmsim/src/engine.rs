//! The SPMD execution engine: the in-process transport every thread
//! machine shares ([`kali_process::inproc`]), timed by a modeled clock.
//!
//! A [`Machine`] runs one closure instance per virtual processor, each on
//! its own OS thread with a [`Proc`] handle.  Threads, channels, message
//! matching, the shared collectives and the failure path are the native
//! backend's; what is the simulator's own is [`SimClock`].
//!
//! ## Timing model
//!
//! Every [`Proc`] owns a logical clock in simulated seconds.
//!
//! * Computation charges (`charge_flops`, `charge_mem_refs`, …) advance the
//!   local clock by amounts taken from the [`CostModel`].
//! * `send` charges the sender's send overhead and stamps the message with
//!   an *arrival time* of `sender clock + latency + bytes·β + hops·hop`.
//! * `recv` sets the receiver's clock to `max(local clock, arrival)` plus the
//!   receive overhead.
//! * `exchange` is the paper's crystal router
//!   ([`collectives::crystal_router`]).
//!
//! Every receive names its source and tag, and the mailbox delivers FIFO
//! per `(source, tag)`, so the order in which a processor folds arrival
//! times into its clock is fixed by the program: the final clocks are a
//! function of the program and the cost model, not of thread scheduling.

use kali_process::inproc::{self, Charge, Clock};
use kali_process::trace::EventKind;
use kali_process::{Process, Wire};

use crate::collectives;
use crate::cost::CostModel;
use crate::stats::{Counters, RunStats};
use crate::topology::Topology;

/// A virtual processor: the in-process transport timed by a [`SimClock`].
pub type Proc = inproc::Proc<SimClock>;

/// A virtual distributed-memory machine: `nprocs` processors connected by a
/// [`Topology`] and timed by a [`CostModel`], each starting from a copy of
/// one clock at zero.
#[derive(Debug, Clone)]
pub struct Machine {
    nprocs: usize,
    clock: SimClock,
}

impl Machine {
    /// A machine with `nprocs` processors on the smallest enclosing
    /// hypercube (the paper's machines are hypercubes).
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        assert!(nprocs > 0, "a machine needs at least one processor");
        Machine::with_topology(nprocs, Topology::hypercube_for(nprocs), cost)
    }

    /// A machine with an explicit topology.  `nprocs` may be smaller than
    /// the number of slots the topology provides.
    pub fn with_topology(nprocs: usize, topology: Topology, cost: CostModel) -> Self {
        assert!(nprocs > 0, "a machine needs at least one processor");
        assert!(
            nprocs <= topology.nodes(),
            "topology provides {} slots but {} processors requested",
            topology.nodes(),
            nprocs
        );
        let clock = SimClock {
            cost,
            topology,
            now: 0.0,
            counters: Counters::default(),
        };
        Machine { nprocs, clock }
    }

    /// Number of virtual processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.clock.topology
    }

    /// The machine cost model.
    pub fn cost(&self) -> &CostModel {
        &self.clock.cost
    }

    /// Run an SPMD program: `f` is executed once per processor, in parallel,
    /// and the per-processor return values are collected in rank order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        self.run_stats(f).0
    }

    /// Like [`Machine::run`] but also returns machine-wide [`RunStats`]
    /// (final clocks, per-processor counters).
    pub fn run_stats<R, F>(&self, f: F) -> (Vec<R>, RunStats)
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        let clocks = vec![self.clock.clone(); self.nprocs];
        let ranks = inproc::run("dmsim", clocks, |proc| {
            let result = f(proc);
            (result, (proc.time(), proc.counters()))
        });
        let (results, stats): (Vec<R>, Vec<_>) = ranks.into_iter().unzip();
        let (clocks, counters) = stats.into_iter().unzip();
        (results, RunStats::from_parts(clocks, counters))
    }
}

/// One processor's modeled clock: simulated seconds and operation counters,
/// advanced through the machine's [`CostModel`] and [`Topology`].
#[derive(Debug, Clone)]
pub struct SimClock {
    pub(crate) cost: CostModel,
    topology: Topology,
    /// Simulated seconds.
    pub(crate) now: f64,
    counters: Counters,
}

impl Clock for SimClock {
    /// The message's modeled size in bytes and its arrival time.
    type Stamp = (usize, f64);
    const METERS: bool = true;

    /// Charge the send overhead and stamp the arrival: now on a self-send,
    /// else after the transfer over the sender's and receiver's hops.
    fn stamp(&mut self, me: usize, dst: usize, bytes: usize) -> (usize, f64) {
        self.now += self.cost.send_overhead;
        self.counters.msgs_sent += 1;
        self.counters.bytes_sent += bytes as u64;
        let arrival = if dst == me {
            self.now
        } else {
            self.now + self.cost.transfer_time(bytes, self.topology.hops(me, dst))
        };
        (bytes, arrival)
    }

    /// Wait for the arrival, then charge the receive overhead.
    fn merge(&mut self, (bytes, arrival): (usize, f64)) {
        if arrival > self.now {
            self.now = arrival;
        }
        self.now += self.cost.recv_overhead;
        self.counters.msgs_recv += 1;
        self.counters.bytes_recv += bytes as u64;
    }

    /// Each charge at its [`CostModel`] price; the four operation counts
    /// and the nonlocal references are counted too.
    fn charge(&mut self, charge: Charge) {
        let (cost, counters) = (&self.cost, &mut self.counters);
        let count = |counter: &mut u64, n: usize, price: f64| {
            *counter += n as u64;
            price * n as f64
        };
        self.now += match charge {
            Charge::Flops(n) => count(&mut counters.flops, n, cost.flop),
            Charge::MemRefs(n) => count(&mut counters.mem_refs, n, cost.mem_ref),
            Charge::LoopIters(n) => count(&mut counters.loop_iters, n, cost.loop_iter),
            Charge::Calls(n) => count(&mut counters.calls, n, cost.call),
            Charge::LocalAccess => cost.local_access(),
            Charge::NonlocalAccess { ranges } => {
                counters.nonlocal_refs += 1;
                cost.nonlocal_access(ranges)
            }
            Charge::LocalityCheck => cost.locality_check(),
            Charge::RecordHandling(n) => cost.record_handling() * n as f64,
        };
    }

    fn time(&self) -> f64 {
        self.now
    }

    fn counters(&self) -> Counters {
        self.counters
    }

    /// The paper's crystal router.
    fn exchange<T: Wire>(proc: &mut Proc, items: Vec<(usize, T)>) -> Vec<T> {
        proc.trace_emit(EventKind::Collective { op: "exchange" });
        collectives::crystal_router(proc, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_proc_runs() {
        let m = Machine::new(1, CostModel::ideal());
        let r = m.run(|p| p.rank() * 10 + p.nprocs());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn ring_shift_delivers_values_in_rank_order() {
        let m = Machine::new(8, CostModel::ideal());
        let r = m.run(|p| {
            let right = (p.rank() + 1) % p.nprocs();
            let left = (p.rank() + p.nprocs() - 1) % p.nprocs();
            p.send(right, 1, p.rank() as u64);
            p.recv::<u64>(left, 1)
        });
        assert_eq!(r, vec![7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn self_send_is_allowed() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            p.send(p.rank(), 9, 123u32);
            p.recv::<u32>(p.rank(), 9)
        });
        assert_eq!(r, vec![123, 123]);
    }

    #[test]
    fn tags_demultiplex_messages() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            if p.rank() == 0 {
                p.send(1, 10, 100u64);
                p.send(1, 20, 200u64);
                0
            } else {
                // Receive out of order: tag 20 first even though it was sent second.
                let b: u64 = p.recv(0, 20);
                let a: u64 = p.recv(0, 10);
                (b - a) as i64 as usize
            }
        });
        assert_eq!(r[1], 100);
    }

    #[test]
    fn buffered_same_tag_messages_stay_fifo() {
        // Three same-(src, tag) messages parked in the pending buffer by an
        // out-of-order receive must still be delivered in send order.
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            if p.rank() == 0 {
                for v in [1u64, 2, 3] {
                    p.send(1, 5, v);
                }
                p.send(1, 6, 99u64);
                Vec::new()
            } else {
                let _: u64 = p.recv(0, 6); // buffers the tag-5 messages
                (0..3).map(|_| p.recv::<u64>(0, 5)).collect()
            }
        });
        assert_eq!(r[1], vec![1, 2, 3], "same-(src, tag) delivery must be FIFO");
    }

    #[test]
    fn a_self_receive_with_nothing_sent_fails_at_once_naming_the_rank() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            let me = p.rank();
            let wait = std::panic::AssertUnwindSafe(|| p.recv::<u8>(me, 3));
            let cause = std::panic::catch_unwind(wait).expect_err("nothing was sent");
            *cause.downcast::<String>().expect("a formatted message")
        });
        assert_eq!(
            r[1],
            "rank 1: recv from rank 1 (itself) on tag 0x3 with nothing sent"
        );
    }

    #[test]
    fn queue_peak_records_pending_high_water() {
        let m = Machine::new(2, CostModel::ideal());
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                for v in [1u64, 2, 3] {
                    p.send(1, 5, v);
                }
                p.send(1, 6, 99u64);
            } else {
                // The tag-6 receive parks all three tag-5 messages.
                let _: u64 = p.recv(0, 6);
                for _ in 0..3 {
                    let _: u64 = p.recv(0, 5);
                }
            }
        });
        assert_eq!(stats.totals.queue_peak, 3);
    }

    #[test]
    fn clocks_reflect_message_latency() {
        let cost = CostModel {
            name: "test",
            msg_latency: 1.0,
            byte: 0.0,
            ..CostModel::ideal()
        };
        let m = Machine::new(2, cost);
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                p.send(1, 0, 1u8);
            } else {
                let _: u8 = p.recv(0, 0);
            }
        });
        // Receiver's clock must include the 1-second latency.
        assert!(stats.clocks[1] >= 1.0);
        assert!(stats.clocks[0] < 1.0);
        assert_eq!(stats.totals.msgs_sent, 1);
        assert_eq!(stats.totals.msgs_recv, 1);
    }

    #[test]
    fn clocks_are_deterministic_across_runs() {
        let cost = CostModel::ncube7();
        let m = Machine::new(8, cost);
        let run = || {
            let (_, stats) = m.run_stats(|p| {
                // Every processor sends its clock-advancing workload and a
                // message to every other processor.
                p.charge_flops(100 * (p.rank() + 1));
                for dst in 0..p.nprocs() {
                    if dst != p.rank() {
                        p.send(dst, 5, p.rank() as u64);
                    }
                }
                for src in 0..p.nprocs() {
                    if src != p.rank() {
                        let _: u64 = p.recv(src, 5);
                    }
                }
            });
            stats.clocks
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "logical clocks must not depend on host scheduling");
    }

    #[test]
    fn charges_accumulate_counters_and_time() {
        let m = Machine::new(1, CostModel::ncube7());
        let (_, stats) = m.run_stats(|p| {
            p.charge_flops(10);
            p.charge_mem_refs(20);
            p.charge_loop_iters(5);
            p.charge_calls(2);
        });
        let c = CostModel::ncube7();
        let expected = 10.0 * c.flop + 20.0 * c.mem_ref + 5.0 * c.loop_iter + 2.0 * c.call;
        assert!((stats.time - expected).abs() < 1e-12);
        assert_eq!(stats.totals.flops, 10);
        assert_eq!(stats.totals.mem_refs, 20);
        assert_eq!(stats.totals.loop_iters, 5);
        assert_eq!(stats.totals.calls, 2);
    }

    #[test]
    fn send_vec_charges_the_payload_size() {
        let m = Machine::new(2, CostModel::ideal());
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                p.send_vec(1, 3, vec![0.0f64; 100]);
            } else {
                let v: Vec<f64> = p.recv(0, 3);
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(stats.totals.bytes_sent, 800);
        assert_eq!(stats.totals.bytes_recv, 800);
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn mismatched_receive_fails_fast_when_peers_exit() {
        // Rank 1 waits for a message rank 0 never sends; once rank 0 exits
        // the channel disconnects and the recv fails instead of hanging.
        let m = Machine::new(2, CostModel::ideal());
        m.run(|p| {
            if p.rank() == 1 {
                let _: u64 = p.recv(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn worker_panic_propagates_while_peers_block_in_recv() {
        // Rank 0 panics while ranks 1 and 2 are blocked waiting for it; its
        // link's poison packets must wake them so the panic propagates
        // instead of deadlocking the join.
        let m = Machine::new(3, CostModel::ideal());
        m.run(|p| {
            if p.rank() == 0 {
                panic!("deliberate worker failure");
            }
            let _: u64 = p.recv(0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn send_out_of_range_panics() {
        let m = Machine::new(2, CostModel::ideal());
        m.run(|p| {
            if p.rank() == 0 {
                p.send(5, 0, 1u8);
            }
        });
    }

    #[test]
    fn trait_collectives_match_direct_collectives() {
        let m = Machine::new(8, CostModel::ideal());
        let sums = m.run(|proc| {
            let via_trait = proc.allreduce_sum_f64(proc.rank() as f64);
            let gathered = proc.allgather(vec![proc.rank() as u64]);
            let exchanged = proc.exchange(
                (0..proc.nprocs())
                    .map(|d| (d, proc.rank() as u64))
                    .collect(),
            );
            (via_trait, gathered, exchanged)
        });
        for (rank, (sum, gathered, mut exchanged)) in sums.into_iter().enumerate() {
            assert_eq!(sum, 28.0, "rank {rank}");
            assert_eq!(
                gathered,
                (0..8u64).map(|r| vec![r]).collect::<Vec<_>>(),
                "rank {rank}"
            );
            exchanged.sort_unstable();
            assert_eq!(exchanged, (0..8u64).collect::<Vec<_>>(), "rank {rank}");
        }
    }

    #[test]
    fn allgather_clocks_do_not_depend_on_host_arrival_order() {
        // Contributions reach each rank in rank order in the first run and
        // in reverse rank order in the second: the clocks must not notice.
        let m = Machine::new(8, CostModel::ncube7());
        let clocks = |delay_ms: fn(usize) -> u64| {
            let (_, stats) = m.run_stats(|proc| {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms(proc.rank())));
                proc.allgather(vec![proc.rank() as u64]);
            });
            stats.clocks
        };
        let ascending = clocks(|rank| 5 * rank as u64);
        let descending = clocks(|rank| 5 * (8 - rank) as u64);
        assert_eq!(ascending, descending);
    }

    #[test]
    fn cost_hooks_advance_the_simulated_clock() {
        let m = Machine::new(1, CostModel::ncube7());
        let (_, stats) = m.run_stats(|proc| {
            proc.charge_locality_check();
            proc.charge_local_access();
            proc.charge_nonlocal_access(16);
            proc.charge_record_handling(3);
        });
        let c = CostModel::ncube7();
        let expected = c.locality_check()
            + c.local_access()
            + c.nonlocal_access(16)
            + 3.0 * c.record_handling();
        assert!((stats.time - expected).abs() < 1e-12);
        assert_eq!(stats.totals.nonlocal_refs, 1);
    }

    #[test]
    fn with_topology_checks_capacity() {
        let m = Machine::with_topology(3, Topology::Hypercube { dim: 2 }, CostModel::ideal());
        assert_eq!(m.nprocs(), 3);
        assert_eq!(m.topology().nodes(), 4);
    }
}

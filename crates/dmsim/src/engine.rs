//! The SPMD execution engine.
//!
//! A [`Machine`] runs an SPMD program — one closure instance per virtual
//! processor, each on its own OS thread — and gives every instance a
//! [`Proc`] handle for message passing and cost accounting.  The threads,
//! the channels between them and the failure path are
//! [`kali_process::threads`], shared with the native backend: a processor
//! that panics wakes every peer blocked on it, and the caller's panic
//! names each failed processor with its own message.
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
//!
//! Every receive names its source and tag, and [`Mailbox`] — the pending
//! buffer all three backends share — delivers FIFO per `(source, tag)`.  So
//! the message each receive takes, and the order in which a processor folds
//! arrival times into its clock, are fixed by the program: the final clocks
//! are a deterministic function of the program and the cost model, not of
//! the host's thread scheduling.

use kali_process::threads::{self, Link};
use kali_process::trace::{EventKind, TraceRecorder};
use kali_process::{Arrival, Mailbox};

use crate::cost::CostModel;
use crate::message::{Envelope, Tag};
use crate::stats::{Counters, RunStats};
use crate::topology::Topology;

/// A virtual distributed-memory machine: `nprocs` processors connected by a
/// [`Topology`] and timed by a [`CostModel`].
#[derive(Debug, Clone)]
pub struct Machine {
    nprocs: usize,
    topology: Topology,
    cost: CostModel,
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
        Machine {
            nprocs,
            topology,
            cost,
        }
    }

    /// Number of virtual processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The machine cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
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
        let p = self.nprocs;
        let ranks = threads::on_threads(threads::links(p, "dmsim"), |rank, link| {
            let mut proc = Proc {
                rank,
                nprocs: p,
                topology: self.topology.clone(),
                cost: self.cost.clone(),
                link,
                mailbox: Mailbox::new(rank, p),
                clock: 0.0,
                counters: Counters::default(),
                coll_seq: 0,
                recorder: TraceRecorder::default(),
            };
            let result = f(&mut proc);
            (result, (proc.clock, proc.counters()))
        });
        let (results, stats): (Vec<R>, Vec<_>) = ranks.into_iter().unzip();
        let (clocks, counters) = stats.into_iter().unzip();
        (results, RunStats::from_parts(clocks, counters))
    }
}

/// Per-processor handle passed to the SPMD program.
///
/// A `Proc` is the local view of the machine: it knows its own rank, can
/// exchange messages with any other rank, and carries the logical clock and
/// operation counters for its processor.
pub struct Proc {
    rank: usize,
    nprocs: usize,
    topology: Topology,
    cost: CostModel,
    /// This processor's end of the channel mesh: routing and sequence
    /// number outside, the simulated size, arrival time and value inside.
    link: Link<Envelope>,
    /// Out-of-order arrivals and self-sends, matched on `(src, tag)`.
    mailbox: Mailbox<Envelope>,
    clock: f64,
    counters: Counters,
    /// Monotonic counter used to derive unique tags for collective
    /// operations (all processors call collectives in the same order in an
    /// SPMD program, so the counters stay in lock step).
    coll_seq: u64,
    /// Opt-in execution-trace recorder (driven through the `Process` trace
    /// hooks in `process_impl`).
    pub(crate) recorder: TraceRecorder,
}

impl Proc {
    /// This processor's rank, in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors taking part in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current logical clock in simulated seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> Counters {
        Counters {
            queue_peak: self.mailbox.peak(),
            ..self.counters
        }
    }

    // ----------------------------------------------------------------
    // Cost charging
    // ----------------------------------------------------------------

    /// Charge `n` floating-point operations.
    pub fn charge_flops(&mut self, n: usize) {
        self.counters.flops += n as u64;
        self.clock += self.cost.flop * n as f64;
    }

    /// Charge `n` local memory references.
    pub fn charge_mem_refs(&mut self, n: usize) {
        self.counters.mem_refs += n as u64;
        self.clock += self.cost.mem_ref * n as f64;
    }

    /// Charge `n` loop iterations of control overhead.
    pub fn charge_loop_iters(&mut self, n: usize) {
        self.counters.loop_iters += n as u64;
        self.clock += self.cost.loop_iter * n as f64;
    }

    /// Charge `n` procedure calls.
    pub fn charge_calls(&mut self, n: usize) {
        self.counters.calls += n as u64;
        self.clock += self.cost.call * n as f64;
    }

    /// Charge an arbitrary amount of simulated time (e.g. a pre-computed
    /// composite cost such as [`CostModel::locality_check`]).
    pub fn charge_seconds(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot charge negative time");
        self.clock += seconds;
    }

    /// Charge one nonlocal distributed-array access resolved by binary
    /// search over `ranges` range records, and count it in the run
    /// statistics (the `nonlocal_refs` column of the locality tables).
    pub fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.counters.nonlocal_refs += 1;
        self.clock += self.cost.nonlocal_access(ranges);
    }

    // ----------------------------------------------------------------
    // Point-to-point messaging
    // ----------------------------------------------------------------

    /// Send a single `Copy` value to `dst` with the given tag.
    pub fn send<T: Copy + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        self.send_bytes(dst, tag, std::mem::size_of::<T>(), value);
    }

    /// Send an owned vector; the simulated wire size is
    /// `len · size_of::<T>()`.
    pub fn send_vec<T: Send + 'static>(&mut self, dst: usize, tag: Tag, value: Vec<T>) {
        let bytes = value.len() * std::mem::size_of::<T>();
        self.send_bytes(dst, tag, bytes, value);
    }

    /// Send an arbitrary payload with an explicitly specified simulated
    /// wire size in bytes.
    pub fn send_bytes<T: Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: usize, value: T) {
        let (me, seq) = (self.rank, self.mailbox.stamp(dst));
        // Sender-side CPU overhead.
        self.clock += self.cost.send_overhead;
        self.counters.msgs_sent += 1;
        self.counters.bytes_sent += bytes as u64;
        let arrival = if dst == me {
            self.clock
        } else {
            self.clock + self.cost.transfer_time(bytes, self.topology.hops(me, dst))
        };
        let packet = Arrival {
            src: me,
            tag,
            seq,
            payload: Envelope {
                bytes,
                arrival,
                payload: Box::new(value),
            },
        };
        self.recorder.record(me, EventKind::Send { dst, tag });
        if dst == me {
            // Self-sends bypass the channel and go straight to the mailbox.
            self.mailbox.park(packet);
        } else {
            self.link.send(dst, packet);
        }
    }

    /// Receive the oldest message with the given tag from `src`, blocking
    /// until it arrives, and merge its arrival time into the clock.  Panics,
    /// naming this rank, `src` and the tag, on a receive nothing can
    /// satisfy: from itself with nothing sent, with every peer gone, or
    /// once a peer has panicked.
    pub fn recv_from<T: 'static>(&mut self, src: usize, tag: Tag) -> T {
        let me = self.rank;
        let env = self.mailbox.receive(src, tag, || self.link.pull(src, tag));
        if env.arrival > self.clock {
            self.clock = env.arrival;
        }
        self.clock += self.cost.recv_overhead;
        self.counters.msgs_recv += 1;
        self.counters.bytes_recv += env.bytes as u64;
        self.recorder.record(me, EventKind::Recv { src, tag });
        env.into_payload(me, src, tag)
    }

    /// Reserve a fresh tag for one collective operation.
    ///
    /// Collective tags live in the upper half of the tag space (see
    /// [`kali_process::tags`]) so they can never collide with user,
    /// executor or redistribution tags.
    pub(crate) fn next_collective_tag(&mut self) -> Tag {
        let tag = kali_process::tags::collective_tag(self.coll_seq);
        self.coll_seq += 1;
        tag
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
            p.recv_from::<u64>(left, 1)
        });
        assert_eq!(r, vec![7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn self_send_is_allowed() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            p.send(p.rank(), 9, 123u32);
            p.recv_from::<u32>(p.rank(), 9)
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
                let b: u64 = p.recv_from(0, 20);
                let a: u64 = p.recv_from(0, 10);
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
                let _: u64 = p.recv_from(0, 6); // buffers the tag-5 messages
                (0..3).map(|_| p.recv_from::<u64>(0, 5)).collect()
            }
        });
        assert_eq!(r[1], vec![1, 2, 3], "same-(src, tag) delivery must be FIFO");
    }

    #[test]
    fn a_self_receive_with_nothing_sent_fails_at_once_naming_the_rank() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            let me = p.rank();
            let wait = std::panic::AssertUnwindSafe(|| p.recv_from::<u8>(me, 3));
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
                let _: u64 = p.recv_from(0, 6);
                for _ in 0..3 {
                    let _: u64 = p.recv_from(0, 5);
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
                let _: u8 = p.recv_from(0, 0);
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
                        let _: u64 = p.recv_from(src, 5);
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
                let v: Vec<f64> = p.recv_from(0, 3);
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
                let _: u64 = p.recv_from(0, 1);
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
            let _: u64 = p.recv_from(0, 1);
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
    fn with_topology_checks_capacity() {
        let m = Machine::with_topology(3, Topology::Hypercube { dim: 2 }, CostModel::ideal());
        assert_eq!(m.nprocs(), 3);
        assert_eq!(m.topology().nodes(), 4);
    }
}

//! The native SPMD engine: threads, channels, and the [`Process`] impl.
//!
//! Shared with the other backends, in `kali-process`: the threads, the
//! channel mesh and the failure path are [`threads`] (a panicking process
//! wakes every peer blocked on it, and the caller's panic names each failed
//! process with its own message, as on the simulator); message matching
//! (the pending buffer, per-channel FIFO, `queue_peak`) is [`Mailbox`]; and
//! the barrier, exchange and allgather are [`collectives`] over this
//! backend's `send` / `recv`.  This transport's own: payloads are
//! type-erased boxes moved through in-process channels, so a program can
//! exchange any `Send + 'static` value (a type mismatch between a send and
//! its receive is fatal, like an MPI type error), and spent packed buffers
//! travel back to their sender's pool.

use std::any::Any;

use kali_process::threads::{self, Link};
use kali_process::trace::{Event, EventKind, TraceRecorder};
use kali_process::{collectives, tags, Arrival, Counters, Mailbox, Process, Tag, Wire};

/// Tag of a buffer-return packet: after [`Process::recv_packed_append`]
/// copies a packed message out, the spent `Vec` travels back to its sender
/// under this tag and lands in the sender's buffer pool, so steady-state
/// packed messaging recycles allocations instead of growing the heap.
/// `u64::MAX - 1` is unreachable by any real tag: user/executor/redistribute
/// tags live below bit 63, and collective tags are `2^63 | seq` with
/// `seq < 2^32` plus a stage offset in bits 32..40.  A return packet carries
/// sequence number 0: it never enters the mailbox, so its FIFO witness
/// never sees it.
const RETURN_TAG: Tag = Tag::MAX - 1;

/// Upper bound on pooled send buffers retained per process; returns beyond
/// the cap are simply dropped (the pool is an optimisation, not a ledger).
const POOL_CAP: usize = 64;

/// A message in flight between two native processes: a type-erased value.
type Payload = Box<dyn Any + Send>;

/// A native shared-nothing machine: `nprocs` SPMD processes, each on its
/// own OS thread, connected by unbounded channels.
#[derive(Debug, Clone)]
pub struct NativeMachine {
    nprocs: usize,
}

impl NativeMachine {
    /// A machine with `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "a machine needs at least one process");
        NativeMachine { nprocs }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Run an SPMD program: `f` is executed once per process, in parallel,
    /// and the per-process return values are collected in rank order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut NativeProc) -> R + Sync,
    {
        let p = self.nprocs;
        threads::on_threads(threads::links(p, "native"), |rank, link| {
            let mut proc = NativeProc {
                rank,
                nprocs: p,
                link,
                mailbox: Mailbox::new(rank, p),
                pool: Vec::new(),
                coll_seq: 0,
                recorder: TraceRecorder::default(),
            };
            f(&mut proc)
        })
    }
}

/// Per-process handle passed to the SPMD program — the native
/// implementation of [`Process`].
pub struct NativeProc {
    rank: usize,
    nprocs: usize,
    /// This process's end of the channel mesh.
    link: Link<Payload>,
    /// Out-of-order arrivals and self-sends, matched on `(src, tag)`.
    mailbox: Mailbox<Payload>,
    /// Recycled packed send buffers, returned by peers via [`RETURN_TAG`]
    /// packets; drawn from by [`Process::acquire_send_buffer`].
    pool: Vec<Payload>,
    /// Monotonic counter deriving unique tags for collective operations
    /// (all processes call collectives in the same order in an SPMD
    /// program, so the counters stay in lock step).
    coll_seq: u64,
    /// Opt-in execution-trace recorder, driven through the [`Process`]
    /// trace hooks.
    recorder: TraceRecorder,
}

/// Park a returned send buffer in the pool (bounded by [`POOL_CAP`]).
fn stash_returned(pool: &mut Vec<Payload>, buffer: Payload) {
    if pool.len() < POOL_CAP {
        pool.push(buffer);
    }
}

impl NativeProc {
    /// Drain everything currently sitting in the channel without blocking:
    /// returned buffers go to the pool, regular packets to the pending
    /// buffer.  Called before handing out a send buffer so returns that
    /// already arrived get recycled.
    fn drain_incoming(&mut self) {
        while let Some(packet) = self.link.try_pull() {
            if packet.tag == RETURN_TAG {
                stash_returned(&mut self.pool, packet.payload);
            } else {
                self.mailbox.park(packet);
            }
        }
    }

    /// Enter a collective: record its trace marker and draw its tag.
    fn begin_collective(&mut self, op: &'static str) -> Tag {
        self.recorder
            .record(self.rank, EventKind::Collective { op });
        let tag = tags::collective_tag(self.coll_seq);
        self.coll_seq += 1;
        tag
    }
}

impl Process for NativeProc {
    /// No cost hook is overridden: a wall-clock backend charges nothing.
    const METERS: bool = false;

    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send<T: Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        let me = self.rank;
        let packet: Arrival<Payload> = Arrival {
            src: me,
            tag,
            seq: self.mailbox.stamp(dst),
            payload: Box::new(value),
        };
        self.recorder.record(me, EventKind::Send { dst, tag });
        if dst == me {
            // Self-sends bypass the channel and go straight to the pending
            // buffer.
            self.mailbox.park(packet);
        } else {
            self.link.send(dst, packet);
        }
    }

    fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        self.send(dst, tag, values);
    }

    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        let me = self.rank;
        let payload = self.mailbox.receive(src, tag, || loop {
            let packet = self.link.pull(src, tag);
            if packet.tag != RETURN_TAG {
                break packet;
            }
            stash_returned(&mut self.pool, packet.payload);
        });
        self.recorder.record(me, EventKind::Recv { src, tag });
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "native rank {me}: message type mismatch from rank {src} on tag {tag:#x}: \
                 expected {}",
                std::any::type_name::<T>()
            )
        })
    }

    fn barrier(&mut self) {
        let tag = self.begin_collective("barrier");
        collectives::dissemination_barrier(self, tag);
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        let tag = self.begin_collective("exchange");
        collectives::direct_exchange(self, tag, items)
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.begin_collective("allgather");
        collectives::direct_allgather(self, tag, items)
    }

    /// Hand out a recycled packed buffer when one of the right element type
    /// is in the pool, avoiding an allocation per `(dest, sweep)` message.
    fn acquire_send_buffer<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        self.drain_incoming();
        if let Some(pos) = self.pool.iter().position(|b| b.is::<Vec<T>>()) {
            let boxed = self.pool.swap_remove(pos);
            let mut buf = *boxed
                .downcast::<Vec<T>>()
                .expect("pool slot type re-checked by position()");
            buf.clear();
            buf.reserve(capacity);
            buf
        } else {
            Vec::with_capacity(capacity)
        }
    }

    /// Zero-copy packed receive: append the incoming payload to `out`, then
    /// hand the spent buffer back to the sender over the return channel so
    /// its allocation is reused for the next sweep.
    fn recv_packed_append<T: Copy + Wire>(
        &mut self,
        src: usize,
        tag: Tag,
        out: &mut Vec<T>,
    ) -> usize {
        let mut values: Vec<T> = self.recv(src, tag);
        let got = values.len();
        out.extend_from_slice(&values);
        values.clear();
        if src == self.rank {
            stash_returned(&mut self.pool, Box::new(values));
        } else {
            // Best effort: the peer may already have exited, in which case
            // the buffer is simply dropped.
            let packet: Arrival<Payload> = Arrival {
                src: self.rank,
                tag: RETURN_TAG,
                seq: 0,
                payload: Box::new(values),
            };
            self.link.offer(src, packet);
        }
        got
    }

    // `allreduce` / `allreduce_sum_f64` use the trait's provided
    // binomial-tree implementation over this backend's `send`/`recv`, so
    // the bracketing (and the bits) match dmsim and the sequential replay.

    /// The native backend meters nothing except the pending-queue
    /// high-water mark, which costs one comparison per parked packet.
    fn counters(&self) -> Counters {
        Counters {
            queue_peak: self.mailbox.peak(),
            ..Counters::default()
        }
    }

    fn trace_start(&mut self) {
        self.recorder.start();
    }

    fn trace_take(&mut self) -> Vec<Event> {
        self.recorder.take()
    }

    fn trace_active(&self) -> bool {
        self.recorder.is_active()
    }

    fn trace_emit(&mut self, kind: EventKind) {
        self.recorder.record(self.rank, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_runs() {
        let m = NativeMachine::new(1);
        let r = m.run(|p| p.rank() * 10 + p.nprocs());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn ring_shift_delivers_values_in_rank_order() {
        let m = NativeMachine::new(8);
        let r = m.run(|p| {
            let right = (p.rank() + 1) % p.nprocs();
            let left = (p.rank() + p.nprocs() - 1) % p.nprocs();
            p.send(right, 1, p.rank() as u64);
            let v: u64 = p.recv(left, 1);
            v
        });
        assert_eq!(r, vec![7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn self_send_is_allowed() {
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            p.send(p.rank(), 9, 123u32);
            let v: u32 = p.recv(p.rank(), 9);
            v
        });
        assert_eq!(r, vec![123, 123]);
    }

    #[test]
    fn tags_demultiplex_messages() {
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            if p.rank() == 0 {
                p.send(1, 10, 100u64);
                p.send(1, 20, 200u64);
                0
            } else {
                // Receive out of order: tag 20 first even though sent second.
                let b: u64 = p.recv(0, 20);
                let a: u64 = p.recv(0, 10);
                (b - a) as usize
            }
        });
        assert_eq!(r[1], 100);
    }

    #[test]
    fn barrier_completes_on_various_sizes() {
        for n in [1, 2, 3, 4, 7, 8] {
            let m = NativeMachine::new(n);
            let r = m.run(|p| {
                p.barrier();
                p.barrier();
                p.rank()
            });
            assert_eq!(r.len(), n);
        }
    }

    #[test]
    fn exchange_delivers_all_items_in_rank_order() {
        for n in [1usize, 2, 4, 6, 8] {
            let m = NativeMachine::new(n);
            let r = m.run(|p| {
                let items: Vec<(usize, (usize, usize))> =
                    (0..p.nprocs()).map(|dst| (dst, (p.rank(), dst))).collect();
                p.exchange(items)
            });
            for (rank, got) in r.into_iter().enumerate() {
                // Rank-ordered merge: items arrive sorted by source rank.
                let expected: Vec<(usize, usize)> = (0..n).map(|src| (src, rank)).collect();
                assert_eq!(got, expected, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        for n in [1, 3, 4, 8] {
            let m = NativeMachine::new(n);
            let r = m.run(|p| p.allgather(vec![p.rank() as u64 * 10]));
            let expected: Vec<Vec<u64>> = (0..n as u64).map(|r| vec![r * 10]).collect();
            for v in r {
                assert_eq!(v, expected);
            }
        }
    }

    #[test]
    fn allreduce_sum_is_identical_on_all_ranks() {
        let m = NativeMachine::new(16);
        let r = m.run(|p| p.allreduce_sum_f64(0.1 * (p.rank() as f64 + 1.0)));
        for w in r.windows(2) {
            assert_eq!(w[0].to_bits(), w[1].to_bits(), "bitwise identical sums");
        }
        assert!((r[0] - 13.6).abs() < 1e-9);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let run = || {
            let m = NativeMachine::new(8);
            m.run(|p| {
                let items: Vec<(usize, u64)> = (0..p.nprocs())
                    .map(|d| (d, (p.rank() * 100 + d) as u64))
                    .collect();
                let exchanged = p.exchange(items);
                let sum = p.allreduce_sum_f64(exchanged.iter().sum::<u64>() as f64);
                (exchanged, sum)
            })
        };
        assert_eq!(run(), run(), "results must not depend on thread timing");
    }

    #[test]
    fn buffered_same_tag_messages_stay_fifo() {
        // Three same-(src, tag) packets are parked in the pending buffer by
        // an out-of-order receive; they must still come out in send order
        // (a swap_remove-based buffer would return 1, 3, 2).
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            if p.rank() == 0 {
                for v in [1u64, 2, 3] {
                    p.send(1, 5, v);
                }
                p.send(1, 6, 99u64);
                Vec::new()
            } else {
                let _: u64 = p.recv(0, 6); // buffers the three tag-5 packets
                (0..3).map(|_| p.recv::<u64>(0, 5)).collect()
            }
        });
        assert_eq!(r[1], vec![1, 2, 3], "same-(src, tag) delivery must be FIFO");
    }

    #[test]
    fn many_outstanding_out_of_order_tags_resolve_correctly() {
        // 300 tags, two same-tag packets each, received in reverse tag
        // order: the first receive parks 599 packets in the pending buffer.
        // Exercises the (src, tag)-keyed index — with the old linear scan
        // this was O(pending) per receive — and per-key FIFO under load.
        const TAGS: u64 = 300;
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            if p.rank() == 0 {
                for t in 0..TAGS {
                    p.send(1, t, (t, 0u64));
                    p.send(1, t, (t, 1u64));
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for t in (0..TAGS).rev() {
                    let first: (u64, u64) = p.recv(0, t);
                    let second: (u64, u64) = p.recv(0, t);
                    assert_eq!(first, (t, 0), "per-tag FIFO: first packet of tag {t}");
                    assert_eq!(second, (t, 1), "per-tag FIFO: second packet of tag {t}");
                    got.push(first.0);
                }
                got
            }
        });
        let expected: Vec<u64> = (0..TAGS).rev().collect();
        assert_eq!(r[1], expected);
    }

    #[test]
    fn packed_send_buffers_recycle_through_the_return_channel() {
        // A packed send's buffer must come home: rank 0 sends a packed
        // message, rank 1 copies it out and returns the spent Vec, and rank
        // 0's next acquire_send_buffer hands back the *same allocation*
        // (witnessed by pointer equality).
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            if p.rank() == 0 {
                let mut buf: Vec<u64> = p.acquire_send_buffer(32);
                buf.extend(0..32u64);
                let first_ptr = buf.as_ptr() as usize;
                p.send_packed(1, 7, buf);
                // The dissemination barrier completes only after rank 1 has
                // received and returned the buffer; channels are FIFO per
                // peer, so the return packet precedes rank 1's barrier
                // packet and is parked in the pool on the way.
                p.barrier();
                let again: Vec<u64> = p.acquire_send_buffer(32);
                (first_ptr, again.as_ptr() as usize, again.capacity())
            } else {
                let mut out: Vec<u64> = Vec::new();
                let got = p.recv_packed_append(0, 7, &mut out);
                assert_eq!(got, 32);
                assert_eq!(out, (0..32u64).collect::<Vec<_>>());
                p.barrier();
                (0, 0, 0)
            }
        });
        let (first, second, cap) = r[0];
        assert_eq!(first, second, "recycled buffer must reuse the allocation");
        assert!(cap >= 32);
    }

    /// The message `f` panics with.  Called inside a rank closure, so the
    /// machine finishes normally and the test is bounded whatever `f` does
    /// once its peers have exited.
    fn panic_text<R>(f: impl FnOnce() -> R) -> String {
        let Err(cause) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) else {
            panic!("the call must panic");
        };
        let text = cause.downcast_ref::<String>().cloned();
        text.expect("formatted panic message")
    }

    #[test]
    fn failures_name_the_rank_the_peer_and_the_tag_in_hex() {
        let m = NativeMachine::new(2);
        let r = m.run(|p| {
            if p.rank() == 1 {
                p.send(0, 0x5, 1u64);
                return Vec::new();
            }
            vec![
                // Receives no arrival can satisfy fail at once, not when the
                // peer happens to exit.
                panic_text(|| p.recv::<u64>(7, 0x2a)),
                panic_text(|| p.recv::<u64>(0, 0x2b)),
                panic_text(|| p.recv::<Vec<f64>>(1, 0x5)),
                // Returns once rank 1 is gone ...
                panic_text(|| p.recv::<u64>(1, 0x1c)),
                // ... after which its receiver goes too (the two halves are
                // dropped one after the other, hence the retry).
                panic_text(|| loop {
                    p.send(1, 0x1d, 0u8);
                    std::thread::yield_now();
                }),
            ]
        });
        let expected = [
            "rank 0: recv from rank 7 of 2 (tag 0x2a)",
            "rank 0: recv from rank 0 (itself) on tag 0x2b with nothing sent",
            "native rank 0: message type mismatch from rank 1 on tag 0x5: expected alloc::vec::Vec<f64>",
            "native rank 0: all peer ranks hung up while rank 0 waited for tag 0x1c from rank 1",
            "native rank 0: destination rank 1 hung up (send tag 0x1d)",
        ];
        assert_eq!(r[0].len(), expected.len());
        for (got, want) in r[0].iter().zip(expected) {
            assert!(got.contains(want), "{got}");
        }
    }

    #[test]
    fn poison_report_names_the_waiting_rank_the_dead_peer_and_the_tag() {
        // Rank 0's panic fails the run; rank 1's report of it is captured on
        // the way.
        let seen = std::sync::Mutex::new(String::new());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NativeMachine::new(2).run(|p| {
                if p.rank() == 0 {
                    panic!("deliberate worker failure");
                }
                *seen.lock().expect("lock never poisoned") = panic_text(|| p.recv::<u64>(0, 0x1e));
            })
        }));
        assert!(outcome.is_err(), "the worker panic must propagate");
        let seen = seen.into_inner().expect("lock never poisoned");
        let want = "native rank 1: peer rank 0 panicked mid-run while rank 1 waited for tag 0x1e";
        assert!(seen.contains(want), "{seen}");
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn mismatched_receive_fails_fast_when_peers_exit() {
        // Rank 1 waits for a message rank 0 never sends.  Once rank 0
        // exits, every sender for rank 1's channel is gone, so the recv
        // must fail fast instead of deadlocking the join.
        let m = NativeMachine::new(2);
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
        let m = NativeMachine::new(3);
        m.run(|p| {
            if p.rank() == 0 {
                panic!("deliberate worker failure");
            }
            let _: u64 = p.recv(0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn wrong_receive_type_panics() {
        let m = NativeMachine::new(2);
        m.run(|p| {
            if p.rank() == 0 {
                p.send(1, 5, 1u64);
            } else {
                let _: Vec<f64> = p.recv(0, 5);
            }
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn send_out_of_range_panics() {
        let m = NativeMachine::new(2);
        m.run(|p| {
            if p.rank() == 0 {
                p.send(5, 0, 1u8);
            }
        });
    }
}

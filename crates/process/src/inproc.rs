//! One in-process transport: [`Proc<C>`] is a rank of every machine whose
//! ranks are threads of one process, with one [`Process`] impl for all of
//! them.  The native backend is `Proc<()>`; dmsim is `Proc` over its
//! modeled clock.
//!
//! Shared, with no branch on the clock: the rank's [`Link`] into the
//! channel mesh of [`threads`], its [`Mailbox`], the collective sequence
//! number and its tag draw, the [`TraceRecorder`], the barrier and
//! allgather of [`collectives`], and the packed-buffer pool (after
//! [`Process::recv_packed_append`] copies a packed message out, the spent
//! `Vec` travels back to its sender, whose next
//! [`Process::acquire_send_buffer`] hands it out again).  Payloads are
//! type-erased boxes, so a program can send any `Send + 'static` value; a
//! type mismatch between a send and its receive is fatal, like an MPI type
//! error.
//!
//! What a [`Clock`] decides: the stamp each message carries beside its
//! value, what a send and a receive do to the clock, the `charge_*` hooks,
//! and the all-to-all exchange.  The `()` clock keeps no time: its stamp is
//! zero-sized and every hook is empty, so a native rank pays for none of it.

use std::any::Any;

use crate::threads::{self, Link};
use crate::trace::{Event, EventKind, TraceRecorder};
use crate::{collectives, tags, Arrival, Counters, Mailbox, Process, Tag, Wire};

/// One operation a `charge_*` hook of [`Process`] reports to the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// `n` floating-point operations.
    Flops(usize),
    /// `n` local memory references.
    MemRefs(usize),
    /// `n` loop iterations of control overhead.
    LoopIters(usize),
    /// `n` procedure calls.
    Calls(usize),
    /// One local distributed-array access.
    LocalAccess,
    /// One nonlocal access resolved by binary search over `ranges` records.
    NonlocalAccess {
        /// Range records searched.
        ranges: usize,
    },
    /// One inspector locality check.
    LocalityCheck,
    /// The handling of `n` schedule records.
    RecordHandling(usize),
}

/// What a rank's clock does with its messages and charges.
pub trait Clock: Send + Sized {
    /// What a message carries for the clock beside its value.  The default
    /// stamps the buffer-return packets of the pool, which no clock sees.
    type Stamp: Send + Default;

    /// Whether [`Clock::charge`] does anything ([`Process::METERS`]).
    const METERS: bool;

    /// Stamp a message of `bytes` modeled bytes that rank `me` sends to
    /// `dst` (possibly itself).
    fn stamp(&mut self, me: usize, dst: usize, bytes: usize) -> Self::Stamp;

    /// Fold the stamp of a message this rank receives into the clock.
    fn merge(&mut self, stamp: Self::Stamp);

    /// Price one charge; free unless the clock meters.
    fn charge(&mut self, _charge: Charge) {}

    /// [`Process::time`]: elapsed time by this clock.
    fn time(&self) -> f64 {
        0.0
    }

    /// [`Process::counters`], before the mailbox's `queue_peak`.
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// [`Process::exchange`]: the direct all-to-all unless the clock prices
    /// another.
    fn exchange<T: Wire>(proc: &mut Proc<Self>, items: Vec<(usize, T)>) -> Vec<T> {
        let tag = proc.begin_collective("exchange");
        collectives::direct_exchange(proc, tag, items)
    }
}

/// The clock of a machine that keeps no time: nothing rides on a message
/// and nothing is charged.
impl Clock for () {
    type Stamp = ();
    const METERS: bool = false;

    fn stamp(&mut self, _me: usize, _dst: usize, _bytes: usize) {}

    fn merge(&mut self, _stamp: ()) {}
}

/// A value in flight, type-erased.
type Payload = Box<dyn Any + Send>;

/// A message in flight: the clock's stamp beside the value.
type Message<S> = (S, Payload);

// The `()` stamp costs nothing: a native packet is the boxed value and its
// routing, as it was before the transport took a clock.
const _: () =
    assert!(std::mem::size_of::<Arrival<Message<()>>>() <= std::mem::size_of::<Arrival<Payload>>());

/// Tag of a buffer-return packet.  `u64::MAX - 1` is unreachable by any
/// real tag: user/executor/redistribute tags live below bit 63, and
/// collective tags are `2^63 | seq` with `seq < 2^32` plus a stage offset in
/// bits 32..40.  A return packet carries sequence number 0 and never enters
/// the mailbox, so its FIFO witness never sees it.
const RETURN_TAG: Tag = Tag::MAX - 1;

/// Upper bound on pooled send buffers kept per rank; returns beyond it are
/// dropped (the pool is an optimisation, not a ledger).
const POOL_CAP: usize = 64;

/// One rank of an in-process machine, timed by `C`.
pub struct Proc<C: Clock> {
    rank: usize,
    nprocs: usize,
    /// This rank's end of the channel mesh.
    link: Link<Message<C::Stamp>>,
    /// Out-of-order arrivals and self-sends, matched on `(src, tag)`.
    mailbox: Mailbox<Message<C::Stamp>>,
    /// Recycled packed send buffers, returned by peers under [`RETURN_TAG`].
    pool: Vec<Payload>,
    /// Draws the collectives' tags; every rank calls collectives in the
    /// same order, so the counters stay in lock step.
    coll_seq: u64,
    /// Opt-in execution-trace recorder.
    recorder: TraceRecorder,
    clock: C,
}

/// Run `body` once per rank of an in-process machine, rank `r` on its own
/// thread and timed by `clocks[r]`: the results in rank order, or one panic
/// naming every failed rank ([`threads::on_threads`]).  `backend` prefixes
/// the transport's failure messages.
pub fn run<C: Clock, R: Send>(
    backend: &'static str,
    clocks: Vec<C>,
    body: impl Fn(&mut Proc<C>) -> R + Sync,
) -> Vec<R> {
    let nprocs = clocks.len();
    let per_rank = threads::links(nprocs, backend).into_iter().zip(clocks);
    threads::on_threads(per_rank.collect(), |rank, (link, clock)| {
        body(&mut Proc {
            rank,
            nprocs,
            link,
            mailbox: Mailbox::new(rank, nprocs),
            pool: Vec::new(),
            coll_seq: 0,
            recorder: TraceRecorder::default(),
            clock,
        })
    })
}

/// Park a returned send buffer in the pool (bounded by [`POOL_CAP`]).
fn stash_returned(pool: &mut Vec<Payload>, buffer: Payload) {
    if pool.len() < POOL_CAP {
        pool.push(buffer);
    }
}

impl<C: Clock> Proc<C> {
    /// This rank's clock, to charge what the [`Charge`]s do not name.
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// Draw the tag of this rank's next collective.
    pub fn collective_tag(&mut self) -> Tag {
        let tag = tags::collective_tag(self.coll_seq);
        self.coll_seq += 1;
        tag
    }

    /// Enter a collective: record its trace marker and draw its tag.
    fn begin_collective(&mut self, op: &'static str) -> Tag {
        self.recorder
            .record(self.rank, EventKind::Collective { op });
        self.collective_tag()
    }

    /// Send `value`, `bytes` modeled bytes, to `dst`.
    fn post<T: Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: usize, value: T) {
        let me = self.rank;
        let seq = self.mailbox.stamp(dst);
        let stamp = self.clock.stamp(me, dst, bytes);
        let packet = Arrival {
            src: me,
            tag,
            seq,
            payload: (stamp, Box::new(value) as Payload),
        };
        self.recorder.record(me, EventKind::Send { dst, tag });
        if dst == me {
            // Self-sends bypass the channel and go straight to the mailbox.
            self.mailbox.park(packet);
        } else {
            self.link.send(dst, packet);
        }
    }

    /// Drain what is already in the channel without blocking: returned
    /// buffers to the pool, messages to the mailbox.
    fn drain_incoming(&mut self) {
        while let Some(packet) = self.link.try_pull() {
            if packet.tag == RETURN_TAG {
                stash_returned(&mut self.pool, packet.payload.1);
            } else {
                self.mailbox.park(packet);
            }
        }
    }
}

impl<C: Clock> Process for Proc<C> {
    const METERS: bool = C::METERS;

    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send<T: Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        self.post(dst, tag, std::mem::size_of::<T>(), value);
    }

    fn send_vec<T: Send + 'static>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        let bytes = values.len() * std::mem::size_of::<T>();
        self.post(dst, tag, bytes, values);
    }

    /// Panics, naming the backend, this rank, `src` and the tag, on a
    /// receive nothing can satisfy (see [`Mailbox::receive`] and
    /// [`Link::pull`]) and on a value of another type than `T`.
    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        let me = self.rank;
        let (stamp, payload) = self.mailbox.receive(src, tag, || loop {
            let packet = self.link.pull(src, tag);
            if packet.tag != RETURN_TAG {
                break packet;
            }
            stash_returned(&mut self.pool, packet.payload.1);
        });
        self.clock.merge(stamp);
        self.recorder.record(me, EventKind::Recv { src, tag });
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "{} rank {me}: message type mismatch from rank {src} on tag {tag:#x}: \
                 expected {}",
                self.link.backend(),
                std::any::type_name::<T>()
            )
        })
    }

    fn barrier(&mut self) {
        let tag = self.begin_collective("barrier");
        collectives::dissemination_barrier(self, tag);
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        C::exchange(self, items)
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.begin_collective("allgather");
        collectives::direct_allgather(self, tag, items)
    }

    /// A recycled packed buffer when one of the right element type is in
    /// the pool, sparing an allocation per `(destination, sweep)` message.
    fn acquire_send_buffer<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        self.drain_incoming();
        let Some(pos) = self.pool.iter().position(|b| b.is::<Vec<T>>()) else {
            return Vec::with_capacity(capacity);
        };
        let boxed = self.pool.swap_remove(pos).downcast::<Vec<T>>();
        let mut buf = *boxed.expect("pool slot type re-checked by position()");
        buf.clear();
        buf.reserve(capacity);
        buf
    }

    /// Append the incoming payload to `out`, then hand the spent buffer
    /// back to its sender, outside the program's messages and the clock.
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
            let packet = Arrival {
                src: self.rank,
                tag: RETURN_TAG,
                seq: 0,
                payload: (C::Stamp::default(), Box::new(values) as Payload),
            };
            self.link.offer(src, packet);
        }
        got
    }

    // `allreduce` / `allreduce_sum_f64` are the trait's binomial tree over
    // `send` / `recv`: every tree message is stamped like any other, and
    // the bracketing (hence the bits) is the same on every backend.

    fn charge_flops(&mut self, n: usize) {
        self.clock.charge(Charge::Flops(n));
    }

    fn charge_mem_refs(&mut self, n: usize) {
        self.clock.charge(Charge::MemRefs(n));
    }

    fn charge_loop_iters(&mut self, n: usize) {
        self.clock.charge(Charge::LoopIters(n));
    }

    fn charge_calls(&mut self, n: usize) {
        self.clock.charge(Charge::Calls(n));
    }

    fn charge_local_access(&mut self) {
        self.clock.charge(Charge::LocalAccess);
    }

    fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.clock.charge(Charge::NonlocalAccess { ranges });
    }

    fn charge_locality_check(&mut self) {
        self.clock.charge(Charge::LocalityCheck);
    }

    fn charge_record_handling(&mut self, n: usize) {
        self.clock.charge(Charge::RecordHandling(n));
    }

    fn time(&self) -> f64 {
        self.clock.time()
    }

    /// The clock's counters and the mailbox's high-water mark.
    fn counters(&self) -> Counters {
        Counters {
            queue_peak: self.mailbox.peak(),
            ..self.clock.counters()
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

//! # kali-process — the backend abstraction of the Kali runtime
//!
//! The runtime layer of the Kali reproduction (inspector, executor,
//! redistribution in `kali-core`) needs exactly one thing from the machine
//! it runs on: an SPMD *process* handle that can exchange typed messages
//! with its peers and take part in a few collectives.  This crate defines
//! that contract — the [`Process`] trait — so the runtime can be written
//! once and executed on any backend:
//!
//! * `dmsim::Proc` — the deterministic machine **simulator** with logical
//!   clocks and the paper's NCUBE/7 / iPSC/2 cost models.  It implements the
//!   cost-charging hooks by advancing its simulated clock, which is how the
//!   paper's tables are reproduced.
//! * `kali_native::NativeProc` — a **native** backend running one OS thread
//!   per process with channel-based messaging, for wall-clock execution.
//!   It leaves the cost hooks at their no-op defaults and says so
//!   ([`Process::METERS`] is `false`).
//! * `kali_mp::MpProc` — the **multi-process** backend: one OS process (or
//!   thread) per rank, every message a [`Wire`]-encoded frame over a
//!   Unix-domain socket.  It does not meter either.
//!
//! The trait is deliberately minimal: ranks, typed point-to-point
//! `send`/`recv` matched on `(source, tag)`, the collective shapes the
//! runtime needs (barrier, personalised all-to-all, allgather), and
//! *optional* cost hooks that default to no-ops so native backends pay
//! nothing for the simulator's accounting.  Reductions
//! ([`Process::allreduce`], [`Process::allreduce_sum_f64`]) are *provided*
//! methods built on the point-to-point layer: a binomial-tree reduce to
//! rank 0 plus a binomial broadcast, `2(P−1)` messages total, with a fixed
//! bracketing that is a function of the rank count alone — so one
//! implementation serves every backend and the result is bitwise identical
//! across backends and a sequential replay ([`reduce::tree_combine_partials`]).
//!
//! What every backend shares lives here too: [`mailbox`] is the `(source,
//! tag)` message matching behind its `recv`, and [`collectives`] holds the
//! dissemination barrier, the direct all-to-all and the direct allgather as
//! free functions over any [`Process`].  (The simulator's all-to-all is the
//! paper's crystal router, and the direct one only where the router cannot
//! run: a rank count that is not a power of two.)  [`threads`] is how the
//! in-process machines run their ranks: one scoped thread per rank, one
//! failure report for the caller, and a channel mesh that wakes blocked
//! peers when a rank panics.
//!
//! ## Metering is a fact about the backend
//!
//! Whether the cost hooks do anything is known when a backend is written,
//! so it is an associated constant, [`Process::METERS`], not something the
//! runtime finds out call by call.  The executor counts accesses, flops and
//! loop iterations per chunk of iterations and flushes the totals into the
//! hooks; where `METERS` is `false` it skips the counting as well as the
//! flush, and a local reference costs what the paper (§4) says it costs.
//!
//! * **Who sets it.**  `kali_native::NativeProc` and `kali_mp::MpProc` set
//!   `false`: they override no hook.  `dmsim::Proc` keeps the default.  A
//!   wrapper that forwards the hooks to an inner `P` should forward the
//!   constant too (`const METERS: bool = P::METERS;`).
//! * **Why the default meters.**  The wrong `true` costs a few counter
//!   updates per reference; the wrong `false` silently stops a simulated
//!   clock.  So every backend, wrapper and test mock that does not opt out
//!   sees the charge sequence it always saw, bit for bit, and `false` is a
//!   promise only its author can make: *no* `charge_*` hook is overridden.
//!
//! The [`tags`] module centralises the tag-space layout shared by every
//! runtime component so tag ranges are disjoint by construction.  The
//! [`reduce`] module defines the typed reduction operators ([`ReduceOp`] and
//! the built-in combiners) consumed by the generic [`Process::allreduce`]
//! and by the runtime's `execute_reduce` pipeline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collectives;
pub mod mailbox;
pub mod reduce;
pub mod tags;
pub mod threads;
pub mod trace;
pub mod wire;

pub use mailbox::{Arrival, Mailbox};
pub use reduce::{combine_partials, tree_combine_partials, Max, Min, Norm2, Reduce, ReduceOp, Sum};
pub use trace::{Event, EventKind, TraceRecorder};
pub use wire::{Wire, WireError, WireReader};

/// Message tag, used to match sends with receives (like MPI tags).
///
/// See [`tags`] for how the 64-bit tag space is partitioned between the
/// runtime components.
pub type Tag = u64;

/// Operation counters accumulated by one process.
///
/// Counters are pure bookkeeping — backends that do not meter operations
/// simply leave them at zero (the trait's default).  The simulator uses them
/// for the paper's message/volume tables; tests use them to assert
/// communication shapes ("one message per neighbour pair").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Number of point-to-point messages sent.
    pub msgs_sent: u64,
    /// Number of point-to-point messages received.
    pub msgs_recv: u64,
    /// Total payload bytes sent (simulated wire size).
    pub bytes_sent: u64,
    /// Total payload bytes received (simulated wire size).
    pub bytes_recv: u64,
    /// Floating-point operations charged.
    pub flops: u64,
    /// Local memory references charged.
    pub mem_refs: u64,
    /// Loop iterations charged.
    pub loop_iters: u64,
    /// Procedure calls charged.
    pub calls: u64,
    /// Nonlocal distributed-array references resolved through a
    /// communication buffer (the executor's binary-search path).  A direct
    /// locality metric: a placement that keeps references local drives this
    /// to zero.
    pub nonlocal_refs: u64,
    /// High-water mark of the backend's pending-message buffer (messages
    /// that arrived before they were asked for).  Unlike every other field
    /// this is a *peak*, so [`Counters::merge`] takes the maximum and
    /// [`Counters::since`] passes it through unchanged.
    pub queue_peak: u64,
    /// Bytes actually written to a transport (encoded payload plus frame
    /// headers).  Zero on in-process backends — dmsim's `bytes_sent` is a
    /// *modeled* wire size, this is a *measured* one — so paper tables can
    /// print modeled and measured traffic side by side.
    pub wire_bytes: u64,
}

impl Counters {
    /// Element-wise sum of two counter sets.
    pub fn merge(&self, other: &Counters) -> Counters {
        Counters {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            flops: self.flops + other.flops,
            mem_refs: self.mem_refs + other.mem_refs,
            loop_iters: self.loop_iters + other.loop_iters,
            calls: self.calls + other.calls,
            nonlocal_refs: self.nonlocal_refs + other.nonlocal_refs,
            queue_peak: self.queue_peak.max(other.queue_peak),
            wire_bytes: self.wire_bytes + other.wire_bytes,
        }
    }

    /// Element-wise difference `self - earlier`, for measuring a timed
    /// region from two snapshots.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_recv: self.msgs_recv - earlier.msgs_recv,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_recv: self.bytes_recv - earlier.bytes_recv,
            flops: self.flops - earlier.flops,
            mem_refs: self.mem_refs - earlier.mem_refs,
            loop_iters: self.loop_iters - earlier.loop_iters,
            calls: self.calls - earlier.calls,
            nonlocal_refs: self.nonlocal_refs - earlier.nonlocal_refs,
            queue_peak: self.queue_peak,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
        }
    }
}

/// One SPMD process of a distributed-memory run.
///
/// Every method is called collectively or pairwise by the SPMD program; the
/// contract is MPI-flavoured:
///
/// * **Point-to-point.**  `send*` is asynchronous (never blocks on the
///   receiver); `recv*` blocks until a message matching `(src, tag)`
///   arrives.  Messages between the same pair with the same tag are
///   delivered in send order; a process may send to itself.
/// * **Collectives.**  Every process must call the same collective in the
///   same order.  Implementations must be *deterministic*: the returned
///   values depend only on the inputs and ranks, never on thread timing.
/// * **Cost hooks.**  The `charge_*` family lets the runtime meter the
///   abstract operations the paper's cost model prices (flops, memory
///   references, locality checks, binary-search steps, record handling).
///   They default to no-ops, so a wall-clock backend pays nothing — not
///   even the runtime's counting, once it sets [`Process::METERS`] to
///   `false`; the simulator overrides them to advance its logical clock.
pub trait Process {
    /// This process's rank, in `0..nprocs`.
    fn rank(&self) -> usize;

    /// Number of processes taking part in the run.
    fn nprocs(&self) -> usize;

    // ----------------------------------------------------------------
    // Point-to-point messaging
    // ----------------------------------------------------------------

    /// Send a single value to `dst` with the given tag.
    fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T);

    /// Send an owned vector to `dst`; the accounted wire size is
    /// `len · size_of::<T>()`.
    fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>);

    /// Receive a single value with the given tag from `src`.  Blocks until
    /// a matching message arrives.
    fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T;

    /// Receive a vector with the given tag from `src`.
    fn recv_vec<T: Wire>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        self.recv::<Vec<T>>(src, tag)
    }

    // ----------------------------------------------------------------
    // Packed messaging (pooled buffers; defaults fall back to send_vec)
    // ----------------------------------------------------------------

    /// Obtain an empty send buffer with at least `capacity` reserved, to be
    /// filled and handed to [`Process::send_packed`].
    ///
    /// Backends with a buffer pool (the native backend) hand out a recycled
    /// allocation when one of the right element type is available; the
    /// default is a fresh `Vec`, so metering backends see exactly the
    /// behaviour they saw before pooling existed.
    fn acquire_send_buffer<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        Vec::with_capacity(capacity)
    }

    /// Send one packed contiguous buffer to `dst`.  Semantically identical
    /// to [`Process::send_vec`]; the separate entry point lets pooling
    /// backends reclaim the allocation after delivery.
    fn send_packed<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        self.send_vec(dst, tag, values)
    }

    /// Receive a packed buffer from `src` and append its elements to `out`,
    /// returning how many elements arrived.  Pooling backends return the
    /// spent buffer to its sender for reuse; the default simply receives and
    /// copies.
    fn recv_packed_append<T: Copy + Wire>(
        &mut self,
        src: usize,
        tag: Tag,
        out: &mut Vec<T>,
    ) -> usize {
        let values = self.recv_vec::<T>(src, tag);
        out.extend_from_slice(&values);
        values.len()
    }

    // ----------------------------------------------------------------
    // Collectives
    // ----------------------------------------------------------------

    /// Synchronise all processes.
    fn barrier(&mut self);

    /// All-to-all personalised exchange: contribute `(destination, item)`
    /// pairs, receive every item addressed to this rank.
    ///
    /// The order of the returned items is backend-defined; callers that
    /// need a canonical order must sort (the inspector does — its send
    /// records are sorted by `(to_proc, low)` after the exchange).
    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T>;

    /// Gather one vector from every process onto every process, indexed by
    /// rank.  (`Clone` because the contribution is fanned out to `P − 1`
    /// peers.)
    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>>;

    /// Sum an `f64` across all processes; every process receives a result
    /// that is bitwise identical across ranks *and* across backends.
    ///
    /// Provided: routes through the generic [`Process::allreduce`], so both
    /// entry points share one tree implementation and one bracketing — there
    /// is no backend-defined rounding left anywhere in the reduction path.
    fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Generic typed all-reduce with a **fixed, backend-independent**
    /// combining order: a binomial-tree reduce to rank 0 followed by a
    /// binomial-tree broadcast of the combined value, built on the trait's
    /// own point-to-point `send`/`recv` (tags from
    /// [`tags::tree_reduce_tag`] / [`tags::tree_bcast_tag`]).
    ///
    /// The tree's bracketing is a function of the rank count alone — at
    /// stride `s`, the partial of rank `r` (a multiple of `2s`) absorbs the
    /// partial of rank `r + s`, lower-rank operand on the left — so the
    /// result is bitwise identical on every rank *and* across backends: the
    /// property the typed reduction pipeline (`execute_reduce`) builds its
    /// determinism contract on.  A sequential replay with
    /// [`reduce::tree_combine_partials`] reproduces it bit for bit.
    ///
    /// Exactly `2(P−1)` point-to-point messages machine-wide (the flat
    /// allgather-fold this replaced cost `P·(P−1)`); metering backends
    /// charge them like any other communication.  `combine` must not depend
    /// on rank.  See [`tree_allreduce_sends`] for the per-rank share.
    fn allreduce<T, F>(&mut self, value: T, combine: F) -> T
    where
        T: Clone + Wire,
        F: Fn(&T, &T) -> T,
    {
        let p = self.nprocs();
        let me = self.rank();
        // The trace marker, recorded before any tree traffic: every rank
        // must enter the same collectives in the same order.  The tree's
        // fixed per-(phase, round) tags are reused by every invocation;
        // same-`(src, tag)` delivery is FIFO, so consecutive allreduces
        // cannot be confused.
        self.trace_emit(trace::EventKind::Collective { op: "allreduce" });
        if p == 1 {
            return value;
        }

        // Reduce phase: at round k (stride 2^k), every surviving rank whose
        // lowest set bit is the stride sends its partial to `me - stride`
        // and leaves; the receiver absorbs it with the lower-rank partial on
        // the left.  Rank 0 ends up holding the tree-bracketed total.
        let mut acc = value;
        let mut stride = 1usize;
        let mut round = 0u32;
        while stride < p {
            if me & (2 * stride - 1) == stride {
                self.send(me - stride, tags::tree_reduce_tag(round), acc.clone());
                break;
            }
            if me & (2 * stride - 1) == 0 && me + stride < p {
                let other: T = self.recv(me + stride, tags::tree_reduce_tag(round));
                acc = combine(&acc, &other);
            }
            stride <<= 1;
            round += 1;
        }

        // Broadcast phase: the reduce tree run in reverse.  Each nonzero
        // rank receives the total over the edge it reduced along (its round
        // is log2 of its lowest set bit), then forwards to its own subtree,
        // largest stride first.
        let lowbit = if me == 0 {
            p.next_power_of_two()
        } else {
            me & me.wrapping_neg()
        };
        if me != 0 {
            acc = self.recv(me - lowbit, tags::tree_bcast_tag(lowbit.trailing_zeros()));
        }
        let mut s = lowbit >> 1;
        while s >= 1 {
            if me + s < p {
                self.send(
                    me + s,
                    tags::tree_bcast_tag(s.trailing_zeros()),
                    acc.clone(),
                );
            }
            s >>= 1;
        }
        acc
    }

    /// Allgather by recursive doubling: `log2(P)` rounds of pairwise
    /// exchanges in which each rank sends everything it has accumulated so
    /// far to the partner `rank XOR 2^round` — `P·log2(P)` messages instead
    /// of the flat allgather's `P·(P−1)`.  Requires a power-of-two rank
    /// count; any other count falls back to [`Process::allgather`].
    ///
    /// Returns the same rank-indexed contributions as `allgather`, so the
    /// two are interchangeable wherever the caller sorts by rank anyway.
    fn allgather_doubling<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let p = self.nprocs();
        if p == 1 || !p.is_power_of_two() {
            return self.allgather(items);
        }
        self.trace_emit(trace::EventKind::Collective {
            op: "allgather-doubling",
        });
        let me = self.rank();
        let mut acc: Vec<(usize, Vec<T>)> = vec![(me, items)];
        let mut stride = 1usize;
        let mut round = 0u32;
        while stride < p {
            let partner = me ^ stride;
            let tag = tags::tree_gather_tag(round);
            self.send_vec(partner, tag, acc.clone());
            let theirs: Vec<(usize, Vec<T>)> = self.recv_vec(partner, tag);
            acc.extend(theirs);
            stride <<= 1;
            round += 1;
        }
        debug_assert_eq!(acc.len(), p, "doubling must accumulate every rank");
        acc.sort_by_key(|(rank, _)| *rank);
        acc.into_iter()
            .map(|(_, contribution)| contribution)
            .collect()
    }

    // ----------------------------------------------------------------
    // Cost-charging hooks (no-ops unless the backend meters them)
    // ----------------------------------------------------------------

    /// Whether any `charge_*` hook of this backend does anything (see
    /// *Metering is a fact about the backend* in the crate docs).  `false`
    /// is a promise that every one of them is the no-op default; the
    /// runtime then skips the counting that would only feed them.
    const METERS: bool = true;

    /// Charge `n` floating-point operations.
    fn charge_flops(&mut self, _n: usize) {}

    /// Charge `n` local memory references.
    fn charge_mem_refs(&mut self, _n: usize) {}

    /// Charge `n` loop iterations of control overhead.
    fn charge_loop_iters(&mut self, _n: usize) {}

    /// Charge `n` procedure calls.
    fn charge_calls(&mut self, _n: usize) {}

    /// Charge one local distributed-array access (index translation + load).
    fn charge_local_access(&mut self) {}

    /// Charge one nonlocal access resolved by binary search over `ranges`
    /// range records (the paper's "search overhead").
    fn charge_nonlocal_access(&mut self, _ranges: usize) {}

    /// Charge `n` local accesses at once.  The default repeats
    /// [`Process::charge_local_access`] `n` times so a metering backend's
    /// clock advances through the identical sequence of additions it would
    /// see from `n` singular calls — bulk charging is a call-count
    /// optimisation, never an accounting change.
    fn charge_local_accesses(&mut self, n: usize) {
        for _ in 0..n {
            self.charge_local_access();
        }
    }

    /// Charge `n` nonlocal accesses, each resolved by binary search over
    /// `ranges` records.  Same contract as
    /// [`Process::charge_local_accesses`]: the default repeats the singular
    /// hook so simulated clocks round identically.
    fn charge_nonlocal_accesses(&mut self, ranges: usize, n: usize) {
        for _ in 0..n {
            self.charge_nonlocal_access(ranges);
        }
    }

    /// Charge one inspector locality check (owner computation for one
    /// reference).
    fn charge_locality_check(&mut self) {}

    /// Charge the handling of `n` schedule records (sort/merge/route work).
    fn charge_record_handling(&mut self, _n: usize) {}

    // ----------------------------------------------------------------
    // Introspection
    // ----------------------------------------------------------------

    /// Elapsed process-local time in seconds: *simulated* seconds on a
    /// metering backend, `0.0` on backends that do not keep a clock.
    fn time(&self) -> f64 {
        0.0
    }

    /// Operation counters accumulated so far (all-zero on backends that do
    /// not meter).
    fn counters(&self) -> Counters {
        Counters::default()
    }

    // ----------------------------------------------------------------
    // Execution tracing (no-ops unless the backend records traces)
    // ----------------------------------------------------------------

    /// Begin recording execution events ([`trace::Event`]) on this rank,
    /// discarding any previous trace.  Backends without a recorder ignore
    /// the call and [`Process::trace_take`] returns an empty trace.
    fn trace_start(&mut self) {}

    /// Stop recording and return the events captured since
    /// [`Process::trace_start`] (empty when tracing was never started or the
    /// backend does not record).
    fn trace_take(&mut self) -> Vec<trace::Event> {
        Vec::new()
    }

    /// Whether a trace is currently being recorded.  Lets callers skip the
    /// work of *constructing* an event when nobody is listening.
    fn trace_active(&self) -> bool {
        false
    }

    /// Record one execution event (no-op while inactive or on backends
    /// without a recorder).  The runtime calls this for collective entries
    /// (typed reductions); backends call it internally for message
    /// endpoints and their own collectives.
    fn trace_emit(&mut self, _kind: trace::EventKind) {}
}

/// Number of children rank `rank` has in the binomial tree over `nprocs`
/// ranks — equivalently, how many partials it absorbs during the reduce
/// phase of [`Process::allreduce`] (its `combine` invocations), and how
/// many copies of the result it forwards during the broadcast phase.
pub fn tree_children(nprocs: usize, rank: usize) -> usize {
    debug_assert!(rank < nprocs, "rank {rank} out of range for {nprocs} procs");
    let bound = if rank == 0 {
        nprocs.next_power_of_two()
    } else {
        rank & rank.wrapping_neg()
    };
    let mut count = 0;
    let mut s = 1usize;
    while s < bound {
        if rank + s < nprocs {
            count += 1;
        }
        s <<= 1;
    }
    count
}

/// Number of point-to-point messages rank `rank` sends during one
/// [`Process::allreduce`]: one partial up to its parent (every rank except
/// 0) plus one result copy per child.  Summed over ranks this is exactly
/// `2(P−1)` — the number the session's reduction metering and the
/// `CommReport` tables account with.
pub fn tree_allreduce_sends(nprocs: usize, rank: usize) -> usize {
    let up = usize::from(rank != 0);
    up + tree_children(nprocs, rank)
}

/// Machine-wide message count of one tree allreduce: `2(P−1)`.
pub fn tree_allreduce_messages(nprocs: usize) -> usize {
    2 * (nprocs - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_since_are_inverse() {
        let a = Counters {
            msgs_sent: 3,
            bytes_sent: 100,
            flops: 7,
            ..Counters::default()
        };
        let b = Counters {
            msgs_sent: 2,
            bytes_sent: 50,
            mem_refs: 9,
            ..Counters::default()
        };
        let sum = a.merge(&b);
        assert_eq!(sum.since(&b), a);
        assert_eq!(sum.since(&a), b);
    }

    /// A minimal single-rank Process exercising the trait defaults.
    struct Solo;

    impl Process for Solo {
        fn rank(&self) -> usize {
            0
        }
        fn nprocs(&self) -> usize {
            1
        }
        fn send<T: Wire>(&mut self, _dst: usize, _tag: Tag, _value: T) {
            panic!("solo process has no peers");
        }
        fn send_vec<T: Wire>(&mut self, _dst: usize, _tag: Tag, _values: Vec<T>) {
            panic!("solo process has no peers");
        }
        fn recv<T: Wire>(&mut self, _src: usize, _tag: Tag) -> T {
            panic!("solo process has no peers");
        }
        fn barrier(&mut self) {}
        fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
            items.into_iter().map(|(_, item)| item).collect()
        }
        fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
            vec![items]
        }
    }

    #[test]
    fn default_hooks_are_noops_and_introspection_is_zero() {
        let mut p = Solo;
        p.charge_flops(100);
        p.charge_nonlocal_access(64);
        p.charge_locality_check();
        assert_eq!(p.time(), 0.0);
        assert_eq!(p.counters(), Counters::default());
        assert_eq!(p.allreduce_sum_f64(2.5), 2.5);
        assert_eq!(p.exchange(vec![(0, 1u8), (0, 2)]), vec![1, 2]);
    }

    #[test]
    fn generic_allreduce_on_one_rank_returns_the_value() {
        let mut p = Solo;
        let v = p.allreduce(1.25f64, |a, b| a + b);
        assert_eq!(v, 1.25);
        let m = p.allreduce(7u64, |a, b| *a.max(b));
        assert_eq!(m, 7);
        // One rank has no peers: the provided methods must not send.
        assert_eq!(p.allreduce_sum_f64(2.25), 2.25);
        assert_eq!(p.allgather_doubling(vec![9u8]), vec![vec![9u8]]);
    }

    #[test]
    fn tree_message_counts_sum_to_two_p_minus_one() {
        for p in 1..=33usize {
            let total: usize = (0..p).map(|r| tree_allreduce_sends(p, r)).sum();
            assert_eq!(total, tree_allreduce_messages(p), "p = {p}");
            // Reduce phase: every nonzero rank sends exactly one partial up,
            // absorbed by its parent — children counts must mirror that.
            let absorbed: usize = (0..p).map(|r| tree_children(p, r)).sum();
            assert_eq!(absorbed, p - 1, "p = {p}");
        }
        // Spot-check the per-rank shape the session metering relies on.
        assert_eq!(
            (0..4)
                .map(|r| tree_allreduce_sends(4, r))
                .collect::<Vec<_>>(),
            vec![2, 1, 2, 1]
        );
        assert_eq!(
            (0..7)
                .map(|r| tree_allreduce_sends(7, r))
                .collect::<Vec<_>>(),
            vec![3, 1, 2, 1, 3, 1, 1]
        );
    }

    #[test]
    fn default_acquire_send_buffer_is_a_fresh_reserved_vec() {
        let mut p = Solo;
        let buf: Vec<f64> = p.acquire_send_buffer(64);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 64);
    }

    /// A loopback process that queues self-sends, to exercise the packed
    /// defaults (`send_packed` → `send_vec`, `recv_packed_append` →
    /// `recv_vec` + copy) end to end.
    struct Loopback {
        queued: Vec<(Tag, Box<dyn std::any::Any>)>,
    }

    impl Process for Loopback {
        fn rank(&self) -> usize {
            0
        }
        fn nprocs(&self) -> usize {
            1
        }
        fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
            assert_eq!(dst, 0);
            self.queued.push((tag, Box::new(value)));
        }
        fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
            self.send(dst, tag, values);
        }
        fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
            assert_eq!(src, 0);
            let pos = self
                .queued
                .iter()
                .position(|(t, _)| *t == tag)
                .expect("no matching message");
            *self.queued.remove(pos).1.downcast::<T>().unwrap()
        }
        fn barrier(&mut self) {}
        fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
            items.into_iter().map(|(_, item)| item).collect()
        }
        fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
            vec![items]
        }
    }

    #[test]
    fn packed_defaults_round_trip_through_send_vec() {
        let mut p = Loopback { queued: Vec::new() };
        let mut buf = p.acquire_send_buffer::<u32>(3);
        buf.extend_from_slice(&[5, 6, 7]);
        p.send_packed(0, 42, buf);
        let mut out = vec![1u32];
        let n = p.recv_packed_append(0, 42, &mut out);
        assert_eq!(n, 3);
        assert_eq!(out, vec![1, 5, 6, 7]);
    }

    #[test]
    fn bulk_charge_defaults_delegate_to_singular_hooks() {
        /// Counts singular-hook invocations to prove the bulk defaults
        /// repeat them exactly `n` times.
        struct Metered {
            local: usize,
            nonlocal: Vec<usize>,
        }
        impl Process for Metered {
            fn rank(&self) -> usize {
                0
            }
            fn nprocs(&self) -> usize {
                1
            }
            fn send<T: Wire>(&mut self, _d: usize, _t: Tag, _v: T) {}
            fn send_vec<T: Wire>(&mut self, _d: usize, _t: Tag, _v: Vec<T>) {}
            fn recv<T: Wire>(&mut self, _s: usize, _t: Tag) -> T {
                unreachable!()
            }
            fn barrier(&mut self) {}
            fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
                items.into_iter().map(|(_, item)| item).collect()
            }
            fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
                vec![items]
            }
            fn charge_local_access(&mut self) {
                self.local += 1;
            }
            fn charge_nonlocal_access(&mut self, ranges: usize) {
                self.nonlocal.push(ranges);
            }
        }

        let mut p = Metered {
            local: 0,
            nonlocal: Vec::new(),
        };
        p.charge_local_accesses(5);
        p.charge_nonlocal_accesses(9, 3);
        assert_eq!(p.local, 5);
        assert_eq!(p.nonlocal, vec![9, 9, 9]);
    }
}

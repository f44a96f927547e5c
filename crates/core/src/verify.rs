//! Plan-time static verification of communication schedules, and a live
//! check of the allreduce protocol.
//!
//! The paper's central claim is that communication for irregular loops can
//! be *analysed ahead of execution*.  This module takes that claim
//! seriously for the runtime itself.  Given the SPMD-deterministic per-rank
//! plans of a loop, it proves — without executing a single sweep — two
//! families of properties, and it checks a third on the code that ships:
//!
//! 1. **Schedule duality**: every receive record `(src, range)` on rank `r`
//!    is mirrored by a send record `(dest = r, range)` on rank `src` with an
//!    equal element count ([`check_schedule_set`]), the receive ranges of
//!    different senders are disjoint, and every planned nonlocal reference
//!    resolves through the schedule ([`check_plan_refs`]).  The shape of
//!    each record list is [`CommSchedule`]'s constructors' to keep.
//! 2. **Sweep-tag wrap**: the executor's sweep-tag wrap can never alias two
//!    in-flight sweeps ([`check_sweep_tag_wrap`]).  That the [`tags`]
//!    component windows are disjoint needs no check here: a `const`
//!    assertion in `kali_process::tags` fails the build when they overlap.
//! 3. **The live protocol check**: [`check_allreduce_run`] reads one traced
//!    run of the `Process::allreduce` every backend ships, over the
//!    order-sensitive [`BracketHash`].  Every rank must hold
//!    `tree_combine_partials`' replay, the trace must pass
//!    [`mc::check_trace`](crate::mc::check_trace), and a run that completes
//!    proves the tree's rounds deadlock-free at that rank count.
//!
//! Violations come back as the structured [`Violation`] enum with precise
//! diagnostics.  The checks run in three layers: a debug-mode
//! [`check_schedule`] on every plan a [`Session`](crate::Session) hands out,
//! this module's public API for tests and tools, and the `verify_all` bench
//! driver sweeping every solver/bench configuration in CI.
//!
//! [`tags`]: crate::process::tags

use std::collections::BTreeMap;
use std::fmt;

use distrib::Distribution;

use crate::mc::check_trace;
use crate::process::trace::Event;
use crate::process::{tags, tree_combine_partials, Process, ReduceOp, Tag};
use crate::schedule::{CommSchedule, RangeRecord};

/// One statically detected protocol defect, with enough context to point at
/// the offending record, rank, or round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two receive records cover overlapping global ranges (every element
    /// has exactly one home, so received ranges must be disjoint).
    OverlappingRecvRanges {
        /// Rank of the schedule holding the records.
        rank: usize,
        /// The earlier record (by `low`).
        first: RangeRecord,
        /// The overlapping record.
        second: RangeRecord,
    },
    /// `recv_len` disagrees with the records' total length.
    RecvLenMismatch {
        /// Rank of the schedule.
        rank: usize,
        /// The `recv_len` the schedule declares.
        declared: usize,
        /// The sum of the receive records' lengths.
        actual: usize,
    },
    /// An iteration list is not strictly ascending.
    UnsortedIterations {
        /// Rank of the schedule.
        rank: usize,
        /// Which list (`"local"` or `"nonlocal"`).
        list: &'static str,
        /// Index of the first out-of-order entry.
        index: usize,
    },
    /// An iteration appears in both the local and the nonlocal list.
    OverlappingIterationLists {
        /// Rank of the schedule.
        rank: usize,
        /// The duplicated iteration.
        iter: usize,
    },
    /// Schedule at position `index` of the set does not carry rank `index`.
    ScheduleRankMismatch {
        /// Position in the schedule set.
        index: usize,
        /// The rank the schedule claims.
        rank: usize,
    },
    /// A receive record has no matching send record on the sending rank —
    /// the receiver would block forever.
    DanglingRecv {
        /// Rank of the receiving schedule.
        rank: usize,
        /// The unmatched receive record.
        record: RangeRecord,
    },
    /// A send record has no matching receive record on the destination rank
    /// — the message would arrive unexpected.
    DanglingSend {
        /// Rank of the sending schedule.
        rank: usize,
        /// The unmatched send record.
        record: RangeRecord,
    },
    /// Matched send/recv records (same pair, same `low`) disagree on their
    /// extent, so the two sides would exchange different byte counts.
    ByteCountMismatch {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Common start of the matched records.
        low: usize,
        /// The receiver's `high`.
        recv_high: usize,
        /// The sender's `high`.
        send_high: usize,
    },
    /// A planned local iteration references an element the rank does not
    /// own (the local/nonlocal split is wrong).
    LocalIterNonlocalRef {
        /// Rank of the schedule.
        rank: usize,
        /// The iteration.
        iter: usize,
        /// The nonlocal global index it references.
        global: usize,
    },
    /// A planned nonlocal reference is neither owned nor covered by any
    /// receive record — the executor's fetch would fail.
    UnresolvableRef {
        /// Rank of the schedule.
        rank: usize,
        /// The iteration.
        iter: usize,
        /// The unresolvable global index.
        global: usize,
    },
    /// A recorded send and receive count disagree on one channel: some
    /// message has no counterpart (trace-level check,
    /// [`mc::check_trace`](crate::mc::check_trace)).
    UnmatchedMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Human-readable identity of the message.
        label: String,
    },
    /// Two ranks disagree on the sequence of collectives they entered —
    /// some code branches on the rank id around a collective (trace-level
    /// check, [`mc::check_trace`](crate::mc::check_trace)).
    DivergentCollectives {
        /// The diverging rank.
        rank: usize,
        /// Position in the rank's sequence of collective markers.
        position: usize,
        /// What rank 0 entered at this position (`None` = nothing).
        reference: Option<&'static str>,
        /// What the diverging rank entered (`None` = nothing).
        found: Option<&'static str>,
    },
    /// Two in-flight sweeps map to the same executor tag across the wrap
    /// boundary.
    SweepTagCollision {
        /// The earlier sweep number.
        sweep_a: usize,
        /// The later sweep number.
        sweep_b: usize,
        /// The shared tag.
        tag: Tag,
    },
    /// A live allreduce's bracketing diverged from `tree_combine_partials`'
    /// replay order ([`check_allreduce_run`]).
    BracketingMismatch {
        /// Rank count the divergence occurred at.
        nprocs: usize,
        /// The diverging rank.
        rank: usize,
        /// Bracket hash of the replay order.
        expected: u64,
        /// Bracket hash the protocol produced.
        found: u64,
    },
    /// Two in-flight messages on one `(src, dst, tag)` channel with no
    /// happens-before edge between them and no collective epoch marker
    /// separating the sends on the sender: the tag was reused while its
    /// previous message could still be pending (trace-level check,
    /// [`mc::check_trace`](crate::mc::check_trace)).
    TagReuseRace {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// The reused tag.
        tag: Tag,
        /// Sender-side event sequence number of the earlier send.
        first_seq: u64,
        /// Sender-side event sequence number of the later send.
        second_seq: u64,
    },
    /// Two in-flight messages on one `(src, dst, tag)` channel whose sends
    /// are epoch-separated on the sender but whose receives are **not**
    /// separated on the receiver and carry no happens-before edge: under a
    /// non-FIFO transport the receiver could observe them out of order
    /// (trace-level check, [`mc::check_trace`](crate::mc::check_trace)).
    MessageRace {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// The contested tag.
        tag: Tag,
        /// Receiver-side event sequence number of the earlier receive.
        first_seq: u64,
        /// Receiver-side event sequence number of the later receive.
        second_seq: u64,
    },
    /// The recorded trace's causality graph (program order plus send→recv
    /// edges) contains a cycle: some receive completed before its matching
    /// send could have been posted — the trace is not a possible execution.
    RecvBeforeSend {
        /// The events on the cycle (capped for readability).
        events: Vec<String>,
    },
    /// Two chunk claims of the same sweep and executor phase on one rank
    /// cover overlapping iteration positions: the executor's sink
    /// would apply two writers to one slot.
    ChunkSinkConflict {
        /// The rank whose chunk claims collide.
        rank: usize,
        /// The sweep number (executor tag offset) the claims belong to.
        sweep: u64,
        /// `(low, high)` iteration positions of the earlier claim.
        first: (usize, usize),
        /// `(low, high)` iteration positions of the overlapping claim.
        second: (usize, usize),
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OverlappingRecvRanges {
                rank,
                first,
                second,
            } => write!(
                f,
                "rank {rank}: recv ranges [{},{}) and [{},{}) overlap",
                first.low, first.high, second.low, second.high
            ),
            Violation::RecvLenMismatch {
                rank,
                declared,
                actual,
            } => write!(
                f,
                "rank {rank}: recv_len declares {declared} elements but the records \
                 cover {actual}"
            ),
            Violation::UnsortedIterations { rank, list, index } => write!(
                f,
                "rank {rank}: {list} iteration #{index} is not strictly ascending"
            ),
            Violation::OverlappingIterationLists { rank, iter } => write!(
                f,
                "rank {rank}: iteration {iter} is both local and nonlocal"
            ),
            Violation::ScheduleRankMismatch { index, rank } => {
                write!(f, "schedule at position {index} carries rank {rank}")
            }
            Violation::DanglingRecv { rank, record } => write!(
                f,
                "rank {rank}: recv [{},{}) from rank {} has no matching send",
                record.low, record.high, record.from_proc
            ),
            Violation::DanglingSend { rank, record } => write!(
                f,
                "rank {rank}: send [{},{}) to rank {} has no matching recv",
                record.low, record.high, record.to_proc
            ),
            Violation::ByteCountMismatch {
                from,
                to,
                low,
                recv_high,
                send_high,
            } => write!(
                f,
                "pair {from}->{to}: matched records at {low} disagree on extent \
                 (recv high {recv_high}, send high {send_high})"
            ),
            Violation::LocalIterNonlocalRef { rank, iter, global } => write!(
                f,
                "rank {rank}: local iteration {iter} references nonlocal element {global}"
            ),
            Violation::UnresolvableRef { rank, iter, global } => write!(
                f,
                "rank {rank}: iteration {iter} references element {global}, which is \
                 neither owned nor scheduled for receive"
            ),
            Violation::UnmatchedMessage { from, to, label } => write!(
                f,
                "message {from}->{to} ({label}) has no matching counterpart"
            ),
            Violation::DivergentCollectives {
                rank,
                position,
                reference,
                found,
            } => write!(
                f,
                "rank {rank} diverges from rank 0 at collective #{position}: \
                 rank 0 entered {}, rank {rank} entered {}",
                reference.unwrap_or("nothing"),
                found.unwrap_or("nothing")
            ),
            Violation::SweepTagCollision {
                sweep_a,
                sweep_b,
                tag,
            } => write!(
                f,
                "in-flight sweeps {sweep_a} and {sweep_b} share executor tag {tag:#x}"
            ),
            Violation::BracketingMismatch {
                nprocs,
                rank,
                expected,
                found,
            } => write!(
                f,
                "P={nprocs}: rank {rank}'s allreduce bracket hash {found:#x} diverges \
                 from the replay order's {expected:#x}"
            ),
            Violation::TagReuseRace {
                src,
                dst,
                tag,
                first_seq,
                second_seq,
            } => write!(
                f,
                "channel {src}->{dst} tag {tag:#x}: sends #{first_seq} and \
                 #{second_seq} race (no ordering edge, no epoch marker between them)"
            ),
            Violation::MessageRace {
                src,
                dst,
                tag,
                first_seq,
                second_seq,
            } => write!(
                f,
                "channel {src}->{dst} tag {tag:#x}: receives #{first_seq} and \
                 #{second_seq} race (sender epoch-separated, receiver not)"
            ),
            Violation::RecvBeforeSend { events } => {
                write!(f, "causality cycle: {}", events.join(" -> "))
            }
            Violation::ChunkSinkConflict {
                rank,
                sweep,
                first,
                second,
            } => write!(
                f,
                "rank {rank} sweep {sweep}: chunk claims [{},{}) and [{},{}) of the \
                 same phase overlap",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

/// Render a violation list for a panic or report message.
pub fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  - {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

// ----------------------------------------------------------------------
// 1. Schedule duality
// ----------------------------------------------------------------------

/// Verify what one rank's schedule does not hold by construction: receive
/// ranges disjoint across senders, `recv_len` the records' total, and
/// strictly ascending, disjoint iteration lists.  The record lists' shape is
/// the constructors' to keep ([`CommSchedule::from_recv_sets`],
/// [`CommSchedule::set_send_records`]); duality needs the whole set — see
/// [`check_schedule_set`].
pub fn check_schedule(s: &CommSchedule) -> Vec<Violation> {
    let mut out = Vec::new();
    let rank = s.rank;

    let actual = s.recv_records().iter().map(RangeRecord::len).sum();
    if actual != s.recv_len {
        out.push(Violation::RecvLenMismatch {
            rank,
            declared: s.recv_len,
            actual,
        });
    }

    // Received global ranges must be pairwise disjoint (every element has
    // one home); one sender's are by construction, two senders' need not be.
    let mut by_low = s.recv_records().to_vec();
    by_low.sort_by_key(|r| (r.low, r.high));
    for w in by_low.windows(2) {
        if w[1].low < w[0].high {
            out.push(Violation::OverlappingRecvRanges {
                rank,
                first: w[0],
                second: w[1],
            });
        }
    }

    // Iteration lists: strictly ascending and disjoint.
    for (list, name) in [(&s.local_iters, "local"), (&s.nonlocal_iters, "nonlocal")] {
        for (k, w) in list.windows(2).enumerate() {
            if w[1] <= w[0] {
                out.push(Violation::UnsortedIterations {
                    rank,
                    list: name,
                    index: k + 1,
                });
            }
        }
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < s.local_iters.len() && j < s.nonlocal_iters.len() {
        match s.local_iters[i].cmp(&s.nonlocal_iters[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(Violation::OverlappingIterationLists {
                    rank,
                    iter: s.local_iters[i],
                });
                i += 1;
                j += 1;
            }
        }
    }

    out
}

/// Verify a whole machine's schedules at once: per-rank structure
/// ([`check_schedule`]) and **schedule duality** (`out(p,q) = in(q,p)`,
/// equal extents).
///
/// Duality is also the sweep's deadlock freedom, so nothing else is
/// checked.  The executor posts every send of a sweep before its first
/// receive (the Figure 3 order), and sends never block.  A wait-for cycle
/// needs an edge *into* a send, and only an earlier receive on the same
/// rank could make one — there is none.  So a sweep can only hang on a
/// receive nobody sends or leave a send nobody receives, and those are
/// exactly [`Violation::DanglingRecv`] and [`Violation::DanglingSend`].
///
/// `set[r]` must be rank `r`'s schedule — the SPMD-deterministic plans a
/// simulator run (or, later, a real launch) produces.
pub fn check_schedule_set(set: &[CommSchedule]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (index, s) in set.iter().enumerate() {
        if s.rank != index {
            out.push(Violation::ScheduleRankMismatch {
                index,
                rank: s.rank,
            });
        }
        out.extend(check_schedule(s));
    }

    // Duality: match records by (from, to, low).
    let mut sends: BTreeMap<(usize, usize, usize), RangeRecord> = BTreeMap::new();
    for s in set {
        for r in s.send_records() {
            sends.insert((r.from_proc, r.to_proc, r.low), *r);
        }
    }
    let mut matched = 0usize;
    for s in set {
        for r in s.recv_records() {
            match sends.get(&(r.from_proc, r.to_proc, r.low)) {
                None => out.push(Violation::DanglingRecv {
                    rank: s.rank,
                    record: *r,
                }),
                Some(send) if send.high != r.high => {
                    matched += 1;
                    out.push(Violation::ByteCountMismatch {
                        from: r.from_proc,
                        to: r.to_proc,
                        low: r.low,
                        recv_high: r.high,
                        send_high: send.high,
                    });
                }
                Some(_) => matched += 1,
            }
        }
    }
    if matched != sends.len() {
        // Some send has no receiver: find them by probing the recv side.
        let mut recvs: BTreeMap<(usize, usize, usize), RangeRecord> = BTreeMap::new();
        for s in set {
            for r in s.recv_records() {
                recvs.insert((r.from_proc, r.to_proc, r.low), *r);
            }
        }
        for (key, send) in &sends {
            if !recvs.contains_key(key) {
                out.push(Violation::DanglingSend {
                    rank: send.from_proc,
                    record: *send,
                });
            }
        }
    }

    out
}

/// Verify that every reference the plan promises to serve is actually
/// served: local iterations reference only owned elements, and every
/// nonlocal reference is either owned or resolvable through the schedule's
/// binary search.  `refs_of` is the same enumerator the plan was built
/// with.
pub fn check_plan_refs<D, F>(schedule: &CommSchedule, dist: &D, mut refs_of: F) -> Vec<Violation>
where
    D: Distribution + ?Sized,
    F: FnMut(usize, &mut Vec<usize>),
{
    let mut out = Vec::new();
    let rank = schedule.rank;
    let mut refs = Vec::new();
    for &i in &schedule.local_iters {
        refs.clear();
        refs_of(i, &mut refs);
        for &g in &refs {
            if dist.owner(g) != rank {
                out.push(Violation::LocalIterNonlocalRef {
                    rank,
                    iter: i,
                    global: g,
                });
            }
        }
    }
    for &i in &schedule.nonlocal_iters {
        refs.clear();
        refs_of(i, &mut refs);
        for &g in &refs {
            if dist.owner(g) != rank && schedule.find(g).is_none() {
                out.push(Violation::UnresolvableRef {
                    rank,
                    iter: i,
                    global: g,
                });
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// 2. Sweep-tag wrap
// ----------------------------------------------------------------------

/// Model the executor's sweep-tag wrap: sweep `s` is stamped with
/// `EXECUTOR_BASE + (s mod SPAN)`, so two sweeps alias exactly when their
/// distance is a multiple of `SPAN`.  With at most `in_flight` sweeps
/// concurrently un-retired (solvers keep one, pipelined variants a handful),
/// tags can never collide as long as `in_flight <= SPAN` — verified
/// algebraically, plus an explicit enumeration of windows straddling the
/// wrap boundary, where the aliasing would first appear.
pub fn check_sweep_tag_wrap(in_flight: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    let span = tags::SPAN;
    if in_flight as Tag > span {
        // More in-flight sweeps than distinct tags: sweeps s and s + SPAN
        // are both live and share a tag.
        out.push(Violation::SweepTagCollision {
            sweep_a: 0,
            sweep_b: span as usize,
            tag: crate::executor::ExecutorConfig::sweep(0).tag,
        });
        return out;
    }
    // Enumerate a window of sweeps crossing the wrap boundary and check
    // every in-flight pair stays distinct.
    let probe = (in_flight as Tag).min(512);
    let start = span - probe;
    let tags_in_window: Vec<(usize, Tag)> = (0..2 * probe)
        .map(|k| {
            let sweep = (start + k) as usize;
            (sweep, crate::executor::ExecutorConfig::sweep(sweep).tag)
        })
        .collect();
    for (k, &(sweep_a, tag_a)) in tags_in_window.iter().enumerate() {
        for &(sweep_b, tag_b) in tags_in_window
            .iter()
            .skip(k + 1)
            .take(in_flight.saturating_sub(1))
        {
            if tag_a == tag_b {
                out.push(Violation::SweepTagCollision {
                    sweep_a,
                    sweep_b,
                    tag: tags::EXECUTOR_BASE + tag_a,
                });
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// 3. The live protocol check
// ----------------------------------------------------------------------

/// An order-sensitive [`ReduceOp`] whose accumulator is a Merkle-style hash
/// of the bracketing tree: `combine(a, b)` mixes its operands
/// asymmetrically, so *any* deviation in combine order, operand order, or
/// tree shape changes the final hash.  Running this op through the real
/// reduction pipeline and comparing against `tree_combine_partials`' replay
/// pins the determinism contract down exactly.
#[derive(Debug, Clone, Copy)]
pub struct BracketHash;

/// SplitMix64 finaliser: a cheap, well-distributed 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The leaf hash rank `r` contributes to a bracket-hash reduction.
pub fn bracket_leaf(rank: usize) -> u64 {
    mix64(rank as u64 ^ 0x6b61_6c69_2d76_6572) // "kali-ver"
}

impl ReduceOp for BracketHash {
    type Input = u64;
    type Acc = u64;
    fn identity() -> u64 {
        0
    }
    fn lift(v: u64) -> u64 {
        v
    }
    fn combine(a: u64, b: u64) -> u64 {
        // Asymmetric on purpose: combine(a, b) != combine(b, a), and the
        // mix is non-associative, so the hash encodes the full bracketing.
        mix64(
            a.wrapping_mul(0x100000001b3)
                .wrapping_add(mix64(b ^ 0x5bd1e995)),
        )
    }
    fn name() -> &'static str {
        "bracket-hash"
    }
}

/// One rank's share of the live protocol check: record this rank's events
/// around one `Process::allreduce` of its [`bracket_leaf`] under
/// [`BracketHash`], and return the rank's result with the trace.  Gather
/// every rank's pair for [`check_allreduce_run`].
pub fn traced_bracket_allreduce<P: Process>(proc: &mut P) -> (u64, Vec<Event>) {
    proc.trace_start();
    let leaf = bracket_leaf(proc.rank());
    let hash = proc.allreduce(leaf, |a, b| BracketHash::combine(*a, *b));
    (hash, proc.trace_take())
}

/// Check one live run of the allreduce protocol: `ranks[r]` is rank `r`'s
/// bracket-hash result and the events it recorded around it (see
/// [`traced_bracket_allreduce`]; the trace may span more than the one
/// allreduce).
///
/// Every rank's hash must equal `tree_combine_partials::<BracketHash>` of
/// the leaves — a [`Violation::BracketingMismatch`] naming the rank
/// otherwise — and the traces must pass
/// [`mc::check_trace`](crate::mc::check_trace), whose findings are appended.
///
/// No deadlock check is needed on top.  Matching is deterministic — every
/// receive names its source and tag, there are no wildcards — so the rounds
/// have one possible matching, and a run that completed is that matching
/// executed: it proves the protocol deadlock-free at this rank count.
pub fn check_allreduce_run(ranks: &[(u64, Vec<Event>)]) -> Vec<Violation> {
    let nprocs = ranks.len();
    let expected = tree_combine_partials::<BracketHash>((0..nprocs).map(bracket_leaf));
    let mut out: Vec<Violation> = ranks
        .iter()
        .enumerate()
        .filter(|(_, (found, _))| *found != expected)
        .map(|(rank, &(found, _))| Violation::BracketingMismatch {
            nprocs,
            rank,
            expected,
            found,
        })
        .collect();
    let traces: Vec<Vec<Event>> = ranks.iter().map(|(_, trace)| trace.clone()).collect();
    out.extend(check_trace(&traces));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::{DimDist, IndexRange, IndexSet};

    /// A consistent 2-rank schedule pair: rank 0 receives [8,10) from rank
    /// 1; rank 1 receives [6,8) from rank 0.
    fn sample_pair() -> Vec<CommSchedule> {
        let mut s0 = CommSchedule::from_recv_sets(
            0,
            &[IndexSet::new(), IndexSet::from_range(8, 10)],
            vec![0, 1, 2],
            vec![6, 7],
        );
        s0.set_send_records(
            2,
            vec![RangeRecord {
                from_proc: 0,
                to_proc: 1,
                low: 6,
                high: 8,
                buffer: 0,
            }],
        );
        let mut s1 = CommSchedule::from_recv_sets(
            1,
            &[IndexSet::from_range(6, 8), IndexSet::new()],
            vec![12, 13],
            vec![8, 9],
        );
        s1.set_send_records(
            2,
            vec![RangeRecord {
                from_proc: 1,
                to_proc: 0,
                low: 8,
                high: 10,
                buffer: 0,
            }],
        );
        vec![s0, s1]
    }

    #[test]
    fn consistent_schedules_pass_every_check() {
        let set = sample_pair();
        assert_eq!(check_schedule_set(&set), vec![]);
        for s in &set {
            assert_eq!(check_schedule(s), vec![]);
        }
    }

    #[test]
    fn dangling_recv_is_reported() {
        let mut set = sample_pair();
        // Rank 0 also claims [20,22) from rank 1, which plans no such send.
        let sets = [
            IndexSet::new(),
            IndexSet::from_ranges([IndexRange::new(8, 10), IndexRange::new(20, 22)]),
        ];
        let sends = set[0].send_records().to_vec();
        set[0] = CommSchedule::from_recv_sets(0, &sets, vec![0, 1, 2], vec![6, 7]);
        set[0].set_send_records(2, sends);
        let violations = check_schedule_set(&set);
        assert!(
            violations.iter().any(
                |v| matches!(v, Violation::DanglingRecv { rank: 0, record } if record.low == 20)
            ),
            "expected DanglingRecv, got: {violations:?}"
        );
    }

    #[test]
    fn dangling_send_is_reported() {
        let mut set = sample_pair();
        // Rank 1 receives nothing, so rank 0's send to it is unexpected.
        let sends = set[1].send_records().to_vec();
        set[1] = CommSchedule::from_recv_sets(1, &[], vec![12, 13], vec![8, 9]);
        set[1].set_send_records(2, sends);
        let violations = check_schedule_set(&set);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::DanglingSend { rank: 0, .. })),
            "expected DanglingSend, got: {violations:?}"
        );
    }

    #[test]
    fn byte_count_mismatch_is_reported() {
        let mut set = sample_pair();
        // The sender now offers [6,9); the receiver expects [6,8).
        set[0].set_send_records(
            2,
            vec![RangeRecord {
                from_proc: 0,
                to_proc: 1,
                low: 6,
                high: 9,
                buffer: 0,
            }],
        );
        let violations = check_schedule_set(&set);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::ByteCountMismatch {
                    from: 0,
                    to: 1,
                    low: 6,
                    recv_high: 8,
                    send_high: 9
                }
            )),
            "expected ByteCountMismatch, got: {violations:?}"
        );
    }

    #[test]
    fn overlapping_recv_ranges_are_reported() {
        // Two senders claiming overlapping global ranges, each dense.
        let s = CommSchedule::from_recv_sets(
            0,
            &[
                IndexSet::new(),
                IndexSet::from_range(5, 9),
                IndexSet::from_ranges([IndexRange::new(7, 11)]),
            ],
            vec![],
            vec![0],
        );
        let violations = check_schedule(&s);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::OverlappingRecvRanges { rank: 0, .. })),
            "expected OverlappingRecvRanges, got: {violations:?}"
        );
    }

    #[test]
    fn plan_refs_catch_unresolvable_and_misclassified_references() {
        let set = sample_pair();
        let dist = DimDist::block(12, 2);
        // Consistent refs pass.
        let ok = check_plan_refs(&set[0], dist.as_dyn(), |i, out| {
            if i < 6 {
                out.push(i); // local iterations touch owned elements
            } else {
                out.push(i + 2); // nonlocal iterations touch the received [8,10)
            }
        });
        assert_eq!(ok, vec![]);
        // A nonlocal ref the schedule never planned for.
        let bad = check_plan_refs(&set[0], dist.as_dyn(), |i, out| {
            if i == 7 {
                out.push(11);
            }
        });
        assert!(
            bad.iter().any(|v| matches!(
                v,
                Violation::UnresolvableRef {
                    rank: 0,
                    iter: 7,
                    global: 11
                }
            )),
            "expected UnresolvableRef, got: {bad:?}"
        );
        // A "local" iteration referencing a nonlocal element.
        let bad = check_plan_refs(&set[0], dist.as_dyn(), |i, out| {
            if i == 2 {
                out.push(9);
            }
        });
        assert!(
            bad.iter().any(|v| matches!(
                v,
                Violation::LocalIterNonlocalRef {
                    rank: 0,
                    iter: 2,
                    global: 9
                }
            )),
            "expected LocalIterNonlocalRef, got: {bad:?}"
        );
    }

    #[test]
    fn sweep_tag_wrap_is_safe() {
        assert_eq!(check_sweep_tag_wrap(1), vec![]);
        assert_eq!(check_sweep_tag_wrap(64), vec![]);
        // More in-flight sweeps than the window holds must be rejected.
        let violations = check_sweep_tag_wrap(tags::SPAN as usize + 1);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::SweepTagCollision { .. })),
            "expected SweepTagCollision, got: {violations:?}"
        );
    }

    /// The allreduce every backend ships, run live on dmsim at every rank
    /// count up to 64.  Every run completed, and with deterministic matching
    /// a completed run is the only possible matching executed, so the rounds
    /// are deadlock-free; the recorded rounds must also be race-free.
    #[test]
    fn tree_collective_rounds_are_deadlock_free() {
        use dmsim::{CostModel, Machine};
        for p in 1..=64 {
            let ranks = Machine::new(p, CostModel::ideal()).run(traced_bracket_allreduce);
            let traces: Vec<Vec<Event>> = ranks.into_iter().map(|(_, trace)| trace).collect();
            if p > 1 {
                assert!(
                    traces.iter().all(|t| !t.is_empty()),
                    "P = {p}: no rounds recorded"
                );
            }
            assert_eq!(check_trace(&traces), vec![], "P = {p}");
        }
    }

    /// Every rank of the live allreduce holds the bracketing
    /// `tree_combine_partials` replays, at every rank count up to 64.  A rank
    /// reporting another hash is named, and only that rank.
    #[test]
    fn reduce_bracketing_matches_the_replay_order() {
        use dmsim::{CostModel, Machine};
        for p in 1..=64 {
            let ranks = Machine::new(p, CostModel::ideal()).run(traced_bracket_allreduce);
            let expected = tree_combine_partials::<BracketHash>((0..p).map(bracket_leaf));
            assert!(ranks.iter().all(|&(hash, _)| hash == expected), "P = {p}");
            assert_eq!(check_allreduce_run(&ranks), vec![], "P = {p}");
            if p == 5 {
                let mut wrong = ranks;
                wrong[3].0 ^= 1;
                assert_eq!(
                    check_allreduce_run(&wrong),
                    vec![Violation::BracketingMismatch {
                        nprocs: 5,
                        rank: 3,
                        expected,
                        found: expected ^ 1,
                    }]
                );
            }
        }
    }

    #[test]
    fn bracket_hash_is_order_sensitive() {
        let (a, b, c) = (bracket_leaf(0), bracket_leaf(1), bracket_leaf(2));
        assert_ne!(BracketHash::combine(a, b), BracketHash::combine(b, a));
        assert_ne!(
            BracketHash::combine(BracketHash::combine(a, b), c),
            BracketHash::combine(a, BracketHash::combine(b, c))
        );
    }

    #[test]
    fn violations_render_readably() {
        let v = vec![
            Violation::DanglingRecv {
                rank: 3,
                record: RangeRecord {
                    from_proc: 1,
                    to_proc: 3,
                    low: 10,
                    high: 12,
                    buffer: 0,
                },
            },
            Violation::SweepTagCollision {
                sweep_a: 0,
                sweep_b: 7,
                tag: 0x2a,
            },
        ];
        let text = render(&v);
        assert!(text.contains("rank 3"));
        assert!(text.contains("no matching send"));
        assert!(text.contains("executor tag 0x2a"));
    }
}

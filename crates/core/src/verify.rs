//! Plan-time static verification of communication schedules, and a live
//! check of the allreduce protocol.
//!
//! The paper's central claim is that communication for irregular loops can
//! be *analysed ahead of execution*.  This module takes that claim
//! seriously for the runtime itself.  Given the SPMD-deterministic per-rank
//! plans of a loop, it proves — without executing a single sweep — what no
//! one rank's constructor can see, and it checks the protocol on the code
//! that ships:
//!
//! 1. **Schedule duality**: every receive record `(src, range)` on rank `r`
//!    is an identical send record `(dest = r, range)` on rank `src`, and
//!    back, and each rank's `recv_len` is its records' total
//!    ([`check_schedule_set`]).  The shape of the record lists and the
//!    iteration lists is [`CommSchedule`]'s constructors' to keep, in every
//!    build.
//! 2. **The live protocol check**: [`check_allreduce_run`] reads one traced
//!    run of the `Process::allreduce` every backend ships, over the
//!    order-sensitive [`BracketHash`].  Every rank must hold
//!    `tree_combine_partials`' replay, the trace must pass
//!    [`mc::check_trace`](crate::mc::check_trace), and a run that completes
//!    proves the tree's rounds deadlock-free at that rank count.
//!
//! What a live run reports by itself is not checked here.  A sender whose
//! record names an element it does not own panics packing it (under a
//! distribution with local runs; without them the read is unchecked); a
//! message of another length than its records panics on receipt, naming
//! the rank, the peer and the tag; and a reference the schedule does not
//! serve — off the plan, or on the local list but received — panics in the
//! executor's fetch, naming the rank and the element.
//!
//! Violations come back as the structured [`Violation`] enum with precise
//! diagnostics, through this module's public API for tests and tools and
//! the `verify` table (`tables verify`), which sweeps every solver/bench
//! configuration in CI.

use std::collections::BTreeMap;
use std::fmt;

use crate::mc::check_trace;
use crate::process::trace::Event;
use crate::process::{tree_combine_partials, Process, ReduceOp};
use crate::schedule::{CommSchedule, RangeRecord};

/// One statically detected protocol defect, with enough context to point at
/// the offending record, rank, or round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `recv_len` disagrees with the records' total length.
    RecvLenMismatch {
        /// Rank of the schedule.
        rank: usize,
        /// The `recv_len` the schedule declares.
        declared: usize,
        /// The sum of the receive records' lengths.
        actual: usize,
    },
    /// A receive record has no identical send record (same ranks, same
    /// range) on the sending rank: the receiver would block forever, or get
    /// a message of another length when the sender sends it other records.
    DanglingRecv {
        /// Rank of the receiving schedule.
        rank: usize,
        /// The unmatched receive record.
        record: RangeRecord,
    },
    /// A send record has no identical receive record on the destination
    /// rank: the message would arrive unexpected, and stay parked for good
    /// unless it lengthens a message the destination does expect.
    DanglingSend {
        /// Rank of the sending schedule.
        rank: usize,
        /// The unmatched send record.
        record: RangeRecord,
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
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RecvLenMismatch {
                rank,
                declared,
                actual,
            } => write!(
                f,
                "rank {rank}: recv_len declares {declared} elements but the records \
                 cover {actual}"
            ),
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
            Violation::UnmatchedMessage { from, to, label } => write!(
                f,
                "message {from}->{to} ({label}) has no matching counterpart"
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
        }
    }
}

// ----------------------------------------------------------------------
// 1. Schedule duality
// ----------------------------------------------------------------------

/// Verify what one rank's schedule does not hold by construction: that
/// `recv_len`, which any holder of the schedule may write, is its receive
/// records' total.  The record and iteration lists are the constructors' to
/// keep ([`CommSchedule::from_recv_sets`], [`CommSchedule::set_send_records`]);
/// duality needs the whole set — see [`check_schedule_set`].
pub fn check_schedule(s: &CommSchedule) -> Vec<Violation> {
    let actual = s.recv_records().iter().map(RangeRecord::len).sum();
    if actual == s.recv_len {
        return Vec::new();
    }
    vec![Violation::RecvLenMismatch {
        rank: s.rank(),
        declared: s.recv_len,
        actual,
    }]
}

/// Verify a whole machine's schedules at once: per-rank structure
/// ([`check_schedule`]) and **schedule duality** (`out(p,q) = in(q,p)`):
/// every receive record is an identical send record of its sender, and
/// back.
///
/// Duality is also the sweep's deadlock freedom, so nothing else is
/// checked.  The executor posts every send of a sweep before its first
/// receive (the Figure 3 order), and sends never block.  A wait-for cycle
/// needs an edge *into* a send, and only an earlier receive on the same
/// rank could make one — there is none.  So a sweep can only hang on a
/// receive nobody sends or leave a send nobody receives, and those are
/// exactly [`Violation::DanglingRecv`] and [`Violation::DanglingSend`].
///
/// `set` holds the SPMD-deterministic plans of one loop, one per rank, in
/// any order: records are paired by the ranks they name, never by where
/// their schedule sits in the set.
pub fn check_schedule_set(set: &[CommSchedule]) -> Vec<Violation> {
    let mut out: Vec<Violation> = set.iter().flat_map(check_schedule).collect();
    let by_key = |records: fn(&CommSchedule) -> &[RangeRecord]| -> BTreeMap<_, RangeRecord> {
        let records = set.iter().flat_map(records);
        records
            .map(|r| ((r.from_proc, r.to_proc, r.low, r.high), *r))
            .collect()
    };
    let (sends, recvs) = (
        by_key(CommSchedule::send_records),
        by_key(CommSchedule::recv_records),
    );
    for (key, &record) in &recvs {
        if !sends.contains_key(key) {
            let rank = record.to_proc;
            out.push(Violation::DanglingRecv { rank, record });
        }
    }
    for (key, &record) in &sends {
        if !recvs.contains_key(key) {
            let rank = record.from_proc;
            out.push(Violation::DanglingSend { rank, record });
        }
    }
    out
}

// ----------------------------------------------------------------------
// 2. The live protocol check
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
    use distrib::{IndexRange, IndexSet};

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
        // The sender now offers [6,9); the receiver expects [6,8): neither
        // record has its twin.
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
                Violation::DanglingRecv { rank: 1, record } if (record.low, record.high) == (6, 8)
            )),
            "expected the receive record, got: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::DanglingSend { rank: 0, record } if (record.low, record.high) == (6, 9)
            )),
            "expected the send record, got: {violations:?}"
        );
    }

    /// The allreduce every backend ships, run live on dmsim at every rank
    /// count up to 64.  Every run completed, and with deterministic matching
    /// a completed run is the only possible matching executed, so the rounds
    /// are deadlock-free; the recorded rounds must also pass the trace
    /// checks.
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
        let v = [
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
            Violation::RecvLenMismatch {
                rank: 2,
                declared: 7,
                actual: 6,
            },
        ];
        let text: Vec<String> = v.iter().map(Violation::to_string).collect();
        assert_eq!(
            text[0],
            "rank 3: recv [10,12) from rank 1 has no matching send"
        );
        assert!(text[1].starts_with("rank 2: recv_len declares 7"));
    }
}

//! The trace-level check of recorded executions.
//!
//! [`verify`](crate::verify) proves protocol properties from the *plans*;
//! this module checks what actually *ran*.  A backend records an [`Event`]
//! for every point-to-point message endpoint and collective entry (see
//! [`TraceRecorder`](crate::process::trace) and the `trace_*` hooks on
//! [`Process`](crate::process::Process)); [`check_trace`] then checks that
//! every `(src, dst, tag)` channel carries as many receives as sends.  A
//! receive returns only once its match has arrived, so in a completed run a
//! [`Violation::UnmatchedMessage`] is a send no receive ever took: a
//! message parked for good, or one that reached a rank which had already
//! finished, which only sometimes panics the sender.
//!
//! Nothing else about a completed run needs a trace check.  Every backend
//! records a `Send` before it hands the message over and a `Recv` only after
//! [`Mailbox::receive`](kali_process::Mailbox::receive) has returned the
//! match, so the trace cannot hold a causality cycle.  The one `Mailbox`
//! every backend delivers through is FIFO per `(src, tag)` — it asserts in
//! every build that each source's stamps rise — so a tag reused on one
//! channel, as the tree collectives reuse theirs by design, cannot reorder
//! the messages on it.  And ranks that enter different collectives either
//! wait on a peer that is not in them, a hang no trace records, or mix
//! two reductions' partials, which changes the reduced value the
//! equivalence suites compare with the sequential replay.
//!
//! The `mc` table (`tables mc`) runs this over every solver × distribution
//! × backend, and holds the native and mp results to dmsim's bit for bit.

use std::collections::BTreeMap;

use crate::process::trace::{Event, EventKind};
use crate::process::Tag;
use crate::verify::Violation;

/// Check a recorded execution trace for messages nobody received.
/// `traces[r]` must be rank `r`'s event sequence in program order, as
/// returned by the `trace_take` hook of [`Process`](crate::process::Process).
///
/// Returns one [`Violation::UnmatchedMessage`] per channel whose send and
/// receive counts differ (empty = every message was received).
pub fn check_trace(traces: &[Vec<Event>]) -> Vec<Violation> {
    // Sends and receives per (src, dst, tag) channel.
    let mut channels: BTreeMap<(usize, usize, Tag), (usize, usize)> = BTreeMap::new();
    for (rank, t) in traces.iter().enumerate() {
        for ev in t {
            match ev.kind {
                EventKind::Send { dst, tag } => {
                    channels.entry((rank, dst, tag)).or_default().0 += 1
                }
                EventKind::Recv { src, tag } => {
                    channels.entry((src, rank, tag)).or_default().1 += 1
                }
                EventKind::Collective { .. } => {}
            }
        }
    }
    let unmatched = channels
        .into_iter()
        .filter(|(_, (sends, recvs))| sends != recvs);
    unmatched
        .map(
            |((from, to, tag), (sends, recvs))| Violation::UnmatchedMessage {
                from,
                to,
                label: format!("trace tag {tag:#x}: {sends} sends, {recvs} recvs"),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, seq: u64, kind: EventKind) -> Event {
        Event { rank, seq, kind }
    }

    /// A clean 2-rank ping-pong: rank 0 sends, rank 1 receives, replies on
    /// a different tag, rank 0 receives.
    #[test]
    fn clean_ping_pong_passes() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Send { dst: 1, tag: 7 }),
                ev(0, 1, EventKind::Recv { src: 1, tag: 9 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 7 }),
                ev(1, 1, EventKind::Send { dst: 0, tag: 9 }),
            ],
        ];
        assert_eq!(check_trace(&traces), vec![]);
    }

    /// Reusing a tag on one channel with an acknowledgement in between is
    /// accepted.
    #[test]
    fn acknowledged_reuse_is_ordered() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Send { dst: 1, tag: 7 }),
                ev(0, 1, EventKind::Recv { src: 1, tag: 9 }), // ack
                ev(0, 2, EventKind::Send { dst: 1, tag: 7 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 7 }),
                ev(1, 1, EventKind::Send { dst: 0, tag: 9 }), // ack
                ev(1, 2, EventKind::Recv { src: 0, tag: 7 }),
            ],
        ];
        assert_eq!(check_trace(&traces), vec![]);
    }

    /// The tree collectives' pattern — one tag reused on a channel by
    /// consecutive collectives, nothing but the collectives between — is
    /// accepted: the mailbox delivers FIFO per `(src, tag)`.
    #[test]
    fn epoch_markers_on_both_sides_are_safe() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Send { dst: 1, tag: 7 }),
                ev(0, 1, EventKind::Collective { op: "allreduce" }),
                ev(0, 2, EventKind::Send { dst: 1, tag: 7 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 7 }),
                ev(1, 1, EventKind::Collective { op: "allreduce" }),
                ev(1, 2, EventKind::Recv { src: 0, tag: 7 }),
            ],
        ];
        assert_eq!(check_trace(&traces), vec![]);
    }

    /// A receive with no send anywhere: unmatched.
    #[test]
    fn missing_send_is_unmatched() {
        let traces = vec![vec![], vec![ev(1, 0, EventKind::Recv { src: 0, tag: 5 })]];
        let v = check_trace(&traces);
        assert!(
            v.iter()
                .any(|v| matches!(v, Violation::UnmatchedMessage { from: 0, to: 1, .. })),
            "expected UnmatchedMessage, got: {v:?}"
        );
    }
}

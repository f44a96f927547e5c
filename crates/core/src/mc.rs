//! Trace-level happens-before analysis of recorded executions.
//!
//! [`verify`](crate::verify) proves protocol properties from the *plans*;
//! this module proves ordering properties from what actually *ran*.  A
//! backend records an [`Event`] for every point-to-point message, collective
//! entry and chunk claim (see [`TraceRecorder`](crate::process::trace) and
//! the `trace_*` hooks on [`Process`](crate::process::Process));
//! [`check_trace`] then rebuilds the execution's causality graph — per-rank
//! program order plus one edge from each send to its matching receive — and
//! checks:
//!
//! 1. **Causal consistency.**  The graph must be acyclic: a cycle means
//!    some receive completed before its matching send could have been
//!    posted, i.e. the trace is not a possible execution
//!    ([`Violation::RecvBeforeSend`]).  Acyclicity is established with
//!    Kahn's algorithm, which simultaneously yields the **vector clocks**
//!    used by the race checks below — computed offline from the trace, so
//!    recording stays a cheap append.
//! 2. **Message matching.**  The `k`-th send on a `(src, dst, tag)` channel
//!    pairs with the `k`-th receive on that channel (both backends deliver
//!    per-channel FIFO); a count mismatch is an
//!    [`Violation::UnmatchedMessage`].
//! 3. **Channel-reuse races.**  Two consecutive messages on one channel are
//!    safe when the earlier receive happens-before the later send (the
//!    earlier message was provably drained first).  Without that edge the
//!    runtime's discipline requires a collective **epoch marker** between
//!    the two sends on the sender *and* between the two receives on the
//!    receiver — the tree-collective pattern, where SPMD lockstep plus
//!    per-channel FIFO keep reused round tags unambiguous.  No marker on
//!    the sender is a [`Violation::TagReuseRace`]; a sender-side marker
//!    without a receiver-side one is a [`Violation::MessageRace`].
//! 4. **Chunk-sink exclusivity.**  Chunk claims of one `(rank, sweep,
//!    phase)` must cover disjoint iteration positions, or the
//!    executor's sink would apply two writers to one slot
//!    ([`Violation::ChunkSinkConflict`]).
//! 5. **SPMD conformance.**  Every rank must enter the same collectives in
//!    the same order: each rank's sequence of `Collective` markers — the
//!    backends' own and the one [`Session::execute_reduce`] records per
//!    typed reduction, named after its operator — must equal rank 0's.
//!    The first divergence on a rank is a
//!    [`Violation::DivergentCollectives`]; code that branches on the rank
//!    id around a reduction hangs a real machine.
//!
//! [`Session::execute_reduce`]: crate::Session::execute_reduce
//!
//! The `mc_all` bench driver runs this over every solver × distribution ×
//! backend, and holds the native and mp results to dmsim's bit for bit.

use std::collections::BTreeMap;

use crate::process::trace::{Event, EventKind};
use crate::process::Tag;
use crate::verify::Violation;

/// Cap on the number of events reported on a causality cycle.
const CYCLE_CAP: usize = 12;

/// One side of a paired message: the event's position in its rank's trace
/// plus the recorder sequence number (for diagnostics).
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    pos: usize,
    seq: u64,
}

/// Analyze a recorded execution trace for causality violations and
/// channel-reuse races.  `traces[r]` must be rank `r`'s event sequence in
/// program order, as returned by the `trace_take` hook of
/// [`Process`](crate::process::Process).
///
/// Returns every violation found (empty = the trace is causally consistent
/// and race-free).  The analysis is offline and rank-count generic; it
/// costs `O(events × ranks)` space for the vector clocks.
pub fn check_trace(traces: &[Vec<Event>]) -> Vec<Violation> {
    let mut out = Vec::new();
    let nprocs = traces.len();

    // Global node numbering: node(rank, pos) = base[rank] + pos.
    let mut base = Vec::with_capacity(nprocs);
    let mut total = 0usize;
    for t in traces {
        base.push(total);
        total += t.len();
    }
    let node = |rank: usize, pos: usize| base[rank] + pos;

    // Pair messages per (src, dst, tag) channel: k-th send matches k-th
    // recv (both backends deliver per-channel FIFO).
    let mut sends: BTreeMap<(usize, usize, Tag), Vec<Endpoint>> = BTreeMap::new();
    let mut recvs: BTreeMap<(usize, usize, Tag), Vec<Endpoint>> = BTreeMap::new();
    for (rank, t) in traces.iter().enumerate() {
        for (pos, ev) in t.iter().enumerate() {
            match ev.kind {
                EventKind::Send { dst, tag } => sends
                    .entry((rank, dst, tag))
                    .or_default()
                    .push(Endpoint { pos, seq: ev.seq }),
                EventKind::Recv { src, tag } => recvs
                    .entry((src, rank, tag))
                    .or_default()
                    .push(Endpoint { pos, seq: ev.seq }),
                _ => {}
            }
        }
    }
    for (&(src, dst, tag), snd) in &sends {
        let rcv_len = recvs.get(&(src, dst, tag)).map_or(0, Vec::len);
        if snd.len() != rcv_len {
            out.push(Violation::UnmatchedMessage {
                from: src,
                to: dst,
                label: format!("trace tag {tag:#x}: {} sends, {rcv_len} recvs", snd.len()),
            });
        }
    }
    for (&(src, dst, tag), rcv) in &recvs {
        if !sends.contains_key(&(src, dst, tag)) {
            out.push(Violation::UnmatchedMessage {
                from: src,
                to: dst,
                label: format!("trace tag {tag:#x}: 0 sends, {} recvs", rcv.len()),
            });
        }
    }

    // Causality graph: program order plus send -> matched recv.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indegree = vec![0usize; total];
    for (rank, t) in traces.iter().enumerate() {
        for pos in 1..t.len() {
            edges[node(rank, pos - 1)].push(node(rank, pos));
            indegree[node(rank, pos)] += 1;
        }
    }
    for (&(src, dst, _tag), snd) in &sends {
        if let Some(rcv) = recvs.get(&(src, dst, _tag)) {
            for (s, r) in snd.iter().zip(rcv) {
                edges[node(src, s.pos)].push(node(dst, r.pos));
                indegree[node(dst, r.pos)] += 1;
            }
        }
    }

    // Kahn's algorithm, computing vector clocks as nodes finalize: when a
    // node pops, every predecessor has already merged its clock in, so we
    // stamp the node's own component and propagate to its successors.
    // vc[n][r] = x means: event x-1 of rank r (0-based position) happens
    // before-or-at n.
    let mut vc: Vec<Vec<u32>> = vec![vec![0; nprocs]; total];
    let mut sorted = vec![false; total];
    let mut stack: Vec<usize> = (0..total).filter(|&n| indegree[n] == 0).collect();
    let rank_of: Vec<usize> = (0..nprocs)
        .flat_map(|r| std::iter::repeat_n(r, traces[r].len()))
        .collect();
    let mut seen = 0usize;
    while let Some(n) = stack.pop() {
        seen += 1;
        sorted[n] = true;
        let r = rank_of[n];
        let pos = n - base[r];
        vc[n][r] = (pos + 1) as u32;
        let succs = std::mem::take(&mut edges[n]);
        let vc_n = vc[n].clone();
        for &m in &succs {
            for (slot, &v) in vc[m].iter_mut().zip(&vc_n) {
                *slot = (*slot).max(v);
            }
            indegree[m] -= 1;
            if indegree[m] == 0 {
                stack.push(m);
            }
        }
        edges[n] = succs;
    }
    if seen != total {
        let mut events = Vec::new();
        'outer: for (rank, t) in traces.iter().enumerate() {
            for (pos, ev) in t.iter().enumerate() {
                if !sorted[node(rank, pos)] {
                    events.push(format!("rank {rank} {}", describe(ev)));
                    if events.len() >= CYCLE_CAP {
                        events.push("...".to_string());
                        break 'outer;
                    }
                }
            }
        }
        out.push(Violation::RecvBeforeSend { events });
    }

    // hb(a, b): a's completion is in b's causal past.  Only meaningful for
    // sorted nodes (cycle members have unreliable clocks).
    let hb = |a_rank: usize, a_pos: usize, b_rank: usize, b_pos: usize| {
        let (a, b) = (node(a_rank, a_pos), node(b_rank, b_pos));
        sorted[a] && sorted[b] && vc[b][a_rank] >= (a_pos + 1) as u32
    };

    // Per-rank prefix counts of collective markers: markers_before[r][p] =
    // number of Collective events in positions [0, p) of rank r.
    let markers_before: Vec<Vec<u32>> = traces
        .iter()
        .map(|t| {
            let mut acc = 0u32;
            let mut prefix = Vec::with_capacity(t.len() + 1);
            prefix.push(0);
            for ev in t {
                if matches!(ev.kind, EventKind::Collective { .. }) {
                    acc += 1;
                }
                prefix.push(acc);
            }
            prefix
        })
        .collect();
    // A Collective event strictly between positions a_pos and b_pos of one
    // rank (the endpoints themselves are sends/receives, never markers).
    let marker_between = |rank: usize, a_pos: usize, b_pos: usize| {
        markers_before[rank][b_pos] > markers_before[rank][a_pos + 1]
    };

    // Channel-reuse rule over consecutive paired messages.
    for (&(src, dst, tag), snd) in &sends {
        let Some(rcv) = recvs.get(&(src, dst, tag)) else {
            continue;
        };
        let paired = snd.len().min(rcv.len());
        for k in 1..paired {
            let (s0, s1) = (snd[k - 1], snd[k]);
            let (r0, r1) = (rcv[k - 1], rcv[k]);
            if hb(dst, r0.pos, src, s1.pos) {
                continue; // earlier message provably drained first
            }
            if !marker_between(src, s0.pos, s1.pos) {
                out.push(Violation::TagReuseRace {
                    src,
                    dst,
                    tag,
                    first_seq: s0.seq,
                    second_seq: s1.seq,
                });
            } else if !marker_between(dst, r0.pos, r1.pos) {
                out.push(Violation::MessageRace {
                    src,
                    dst,
                    tag,
                    first_seq: r0.seq,
                    second_seq: r1.seq,
                });
            }
        }
    }

    // Chunk-sink exclusivity: claims of one (rank, sweep, phase) must be
    // disjoint in iteration position.
    let mut claims: BTreeMap<(usize, u64, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (rank, t) in traces.iter().enumerate() {
        for ev in t {
            if let EventKind::ChunkClaim {
                sweep,
                phase,
                low,
                high,
            } = ev.kind
            {
                claims
                    .entry((rank, sweep, phase))
                    .or_default()
                    .push((low, high));
            }
        }
    }
    for (&(rank, sweep, _phase), ranges) in &mut claims {
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            if w[1].0 < w[0].1 {
                out.push(Violation::ChunkSinkConflict {
                    rank,
                    sweep,
                    first: w[0],
                    second: w[1],
                });
            }
        }
    }

    // SPMD conformance: every rank's collective sequence is rank 0's.
    let collectives =
        |t: &[Event]| -> Vec<&str> { t.iter().filter_map(Event::collective).collect() };
    let reference = traces.first().map_or(Vec::new(), |t| collectives(t));
    for (rank, t) in traces.iter().enumerate().skip(1) {
        let found = collectives(t);
        let position =
            (0..reference.len().max(found.len())).find(|&k| reference.get(k) != found.get(k));
        if let Some(position) = position {
            out.push(Violation::DivergentCollectives {
                rank,
                position,
                reference: reference.get(position).copied(),
                found: found.get(position).copied(),
            });
        }
    }

    out
}

/// Human-readable one-liner for a trace event (cycle diagnostics).
fn describe(ev: &Event) -> String {
    match ev.kind {
        EventKind::Send { dst, tag } => format!("send tag {tag:#x} to {dst}"),
        EventKind::Recv { src, tag } => format!("recv tag {tag:#x} from {src}"),
        EventKind::Collective { op } => format!("collective '{op}'"),
        EventKind::ChunkClaim {
            sweep, low, high, ..
        } => format!("chunk claim sweep {sweep} [{low},{high})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, seq: u64, kind: EventKind) -> Event {
        Event { rank, seq, kind }
    }

    /// A clean 2-rank ping-pong: rank 0 sends, rank 1 receives, replies on
    /// a different tag, rank 0 receives.  No races, no cycles.
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

    /// Reusing a tag with an acknowledgement in between is ordered: the
    /// second send happens after the first receive via the ack edge.
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

    /// Back-to-back sends on one channel with no ordering edge and no
    /// epoch marker: a tag-reuse race.
    #[test]
    fn unseparated_reuse_is_a_tag_reuse_race() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Send { dst: 1, tag: 7 }),
                ev(0, 1, EventKind::Send { dst: 1, tag: 7 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 7 }),
                ev(1, 1, EventKind::Recv { src: 0, tag: 7 }),
            ],
        ];
        let v = check_trace(&traces);
        assert!(
            v.iter().any(|v| matches!(
                v,
                Violation::TagReuseRace {
                    src: 0,
                    dst: 1,
                    tag: 7,
                    first_seq: 0,
                    second_seq: 1
                }
            )),
            "expected TagReuseRace, got: {v:?}"
        );
    }

    /// Sender separated by a collective but receiver not: the receiver
    /// cannot tell which epoch a pending message belongs to.
    #[test]
    fn sender_only_separation_is_a_message_race() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Send { dst: 1, tag: 7 }),
                ev(0, 1, EventKind::Collective { op: "barrier" }),
                ev(0, 2, EventKind::Send { dst: 1, tag: 7 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 7 }),
                ev(1, 1, EventKind::Recv { src: 0, tag: 7 }),
            ],
        ];
        let v = check_trace(&traces);
        assert!(
            v.iter().any(|v| matches!(
                v,
                Violation::MessageRace {
                    src: 0,
                    dst: 1,
                    tag: 7,
                    ..
                }
            )),
            "expected MessageRace, got: {v:?}"
        );
    }

    /// Markers on both endpoints (the tree-collective discipline) excuse
    /// the missing happens-before edge.
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

    /// A cross pairing where each rank receives the other's message before
    /// it was sent: a causality cycle.
    #[test]
    fn causality_cycle_is_recv_before_send() {
        let traces = vec![
            vec![
                ev(0, 0, EventKind::Recv { src: 1, tag: 3 }),
                ev(0, 1, EventKind::Send { dst: 1, tag: 4 }),
            ],
            vec![
                ev(1, 0, EventKind::Recv { src: 0, tag: 4 }),
                ev(1, 1, EventKind::Send { dst: 0, tag: 3 }),
            ],
        ];
        let v = check_trace(&traces);
        assert!(
            v.iter()
                .any(|v| matches!(v, Violation::RecvBeforeSend { .. })),
            "expected RecvBeforeSend, got: {v:?}"
        );
    }

    /// Every rank must enter the same collectives in the same order: a
    /// swapped pair and a missing trailing reduction are each reported once,
    /// at the first position that differs.
    #[test]
    fn collective_sequences_must_be_rank_invariant() {
        let marked = |rank: usize, ops: &[&'static str]| -> Vec<Event> {
            let marker = |(seq, &op)| ev(rank, seq as u64, EventKind::Collective { op });
            ops.iter().enumerate().map(marker).collect()
        };
        let both = ["sum-f64", "norm2"];
        assert_eq!(check_trace(&[marked(0, &both), marked(1, &both)]), vec![]);
        let swapped = check_trace(&[marked(0, &both), marked(1, &["norm2", "sum-f64"])]);
        assert_eq!(
            swapped,
            vec![Violation::DivergentCollectives {
                rank: 1,
                position: 0,
                reference: Some("sum-f64"),
                found: Some("norm2"),
            }]
        );
        let short = check_trace(&[marked(0, &both), marked(1, &both[..1])]);
        assert_eq!(
            short,
            vec![Violation::DivergentCollectives {
                rank: 1,
                position: 1,
                reference: Some("norm2"),
                found: None,
            }]
        );
    }

    /// Overlapping chunk claims of one sweep and phase conflict; disjoint
    /// claims and claims of different phases do not.
    #[test]
    fn chunk_claims_must_be_disjoint_per_phase() {
        let claim = |sweep, phase, low, high| EventKind::ChunkClaim {
            sweep,
            phase,
            low,
            high,
        };
        let clean = vec![vec![
            ev(0, 0, claim(1, 0, 0, 8)),
            ev(0, 1, claim(1, 0, 8, 16)),
            ev(0, 2, claim(1, 1, 0, 8)),
        ]];
        assert_eq!(check_trace(&clean), vec![]);
        let overlapping = vec![vec![
            ev(0, 0, claim(1, 0, 0, 8)),
            ev(0, 1, claim(1, 0, 6, 12)),
        ]];
        let v = check_trace(&overlapping);
        assert!(
            v.iter().any(|v| matches!(
                v,
                Violation::ChunkSinkConflict {
                    rank: 0,
                    sweep: 1,
                    first: (0, 8),
                    second: (6, 12)
                }
            )),
            "expected ChunkSinkConflict, got: {v:?}"
        );
    }
}

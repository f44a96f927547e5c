//! Negative model checking: `kali::mc` rejects corrupted traces precisely.
//!
//! The positive direction is covered by the `mc_all` sweep (every
//! solver/distribution/backend configuration records a trace the
//! happens-before analyzer accepts).  This suite establishes the other
//! half: when a recorded execution trace **does** contain a race, the
//! analyzer reports it as the *specific* [`Violation`] variant the defect
//! deserves.
//!
//! Each race test starts from a genuinely recorded trace — a shift-stencil
//! sweep executed by a real [`Session`] through the executor on the
//! dmsim machine, which `check_trace` accepts violation-free — then splices
//! the minimal corrupting events in:
//!
//! | corruption                                            | expected violation  |
//! |-------------------------------------------------------|---------------------|
//! | duplicated message on a channel, no epoch between     | `TagReuseRace`      |
//! | …epoch marker on the sender only                      | `MessageRace`       |
//! | circular send/recv wait (hand-built two-rank cycle)   | `RecvBeforeSend`    |
//! | duplicated chunk claim overlapping the original       | `ChunkSinkConflict` |

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::{check_trace, AffineMap, Session, Violation};
use kali_repro::process::{Event, EventKind, Process, Tag};

/// Execute one traced shift-stencil sweep on a 2-rank dmsim
/// machine and return the per-rank event traces.
fn recorded_stencil() -> Vec<Vec<Event>> {
    Machine::new(2, CostModel::ideal()).run(|proc| {
        let n = 24;
        let dist = DimDist::block(n, proc.nprocs());
        let mut session = Session::new().with_workers(2);
        session.set_chunk_size(3);
        let loop_ = session.loop_1d(n - 1, dist.clone());
        let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
        let local: Vec<f64> = dist
            .local_set(proc.rank())
            .iter()
            .map(|g| g as f64)
            .collect();
        let mut out = local.clone();
        proc.trace_start();
        session.execute(
            proc,
            &loop_,
            &schedule,
            &dist,
            &local,
            |i, fetch| fetch.fetch(i + 1),
            |i, v| out[dist.local_index(i)] = v,
        );
        proc.trace_take()
    })
}

/// The position and identity of the first point-to-point message in a
/// recorded trace set: `(src, send index, dst, recv index, tag)`.
fn first_message(traces: &[Vec<Event>]) -> (usize, usize, usize, usize, Tag) {
    for (src, trace) in traces.iter().enumerate() {
        for (send_idx, ev) in trace.iter().enumerate() {
            if let EventKind::Send { dst, tag } = ev.kind {
                let recv_idx = traces[dst]
                    .iter()
                    .position(
                        |e| matches!(e.kind, EventKind::Recv { src: s, tag: t } if s == src && t == tag),
                    )
                    .expect("the recorded send must have a matching receive");
                return (src, send_idx, dst, recv_idx, tag);
            }
        }
    }
    panic!("the recorded stencil must exchange at least one message");
}

#[test]
fn pristine_recorded_traces_pass() {
    let traces = recorded_stencil();
    assert!(traces.iter().all(|t| !t.is_empty()));
    assert_eq!(check_trace(&traces), vec![]);
}

#[test]
fn injected_channel_reuse_is_a_tag_reuse_race() {
    let mut traces = recorded_stencil();
    let (src, send_idx, dst, recv_idx, tag) = first_message(&traces);

    // Splice a second message onto the same `(src, dst, tag)` channel,
    // directly adjacent to the recorded one: no acknowledgement flows back
    // between them and no collective separates the epochs, so nothing stops
    // the two in-flight messages from being delivered in either order.
    let first_seq = traces[src][send_idx].seq;
    let dup_send = Event {
        rank: src,
        seq: first_seq + 100,
        kind: EventKind::Send { dst, tag },
    };
    let dup_recv = Event {
        rank: dst,
        seq: traces[dst][recv_idx].seq + 100,
        kind: EventKind::Recv { src, tag },
    };
    traces[src].insert(send_idx + 1, dup_send);
    traces[dst].insert(recv_idx + 1, dup_recv);

    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::TagReuseRace { src: s, dst: d, tag: t, first_seq: f, .. }
                if s == src && d == dst && t == tag && f == first_seq
        )),
        "expected TagReuseRace on channel {src}->{dst} tag {tag:#x}, got:\n{violations:#?}"
    );
}

#[test]
fn sender_only_epoch_separation_is_a_message_race() {
    let mut traces = recorded_stencil();
    let (src, send_idx, dst, recv_idx, tag) = first_message(&traces);

    // Same channel reuse, but the *sender* passes an epoch marker between
    // its two sends while the receiver posts both receives back to back:
    // the receiver's window still admits either delivery order.
    let marker = Event {
        rank: src,
        seq: traces[src][send_idx].seq + 50,
        kind: EventKind::Collective { op: "barrier" },
    };
    let dup_send = Event {
        rank: src,
        seq: traces[src][send_idx].seq + 100,
        kind: EventKind::Send { dst, tag },
    };
    let first_recv_seq = traces[dst][recv_idx].seq;
    let dup_recv = Event {
        rank: dst,
        seq: first_recv_seq + 100,
        kind: EventKind::Recv { src, tag },
    };
    traces[src].insert(send_idx + 1, marker);
    traces[src].insert(send_idx + 2, dup_send);
    traces[dst].insert(recv_idx + 1, dup_recv);

    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::MessageRace { src: s, dst: d, tag: t, first_seq: f, .. }
                if s == src && d == dst && t == tag && f == first_recv_seq
        )),
        "expected MessageRace on channel {src}->{dst} tag {tag:#x}, got:\n{violations:#?}"
    );
}

#[test]
fn circular_waits_are_a_recv_before_send_violation() {
    // Two ranks that each observe the other's message before it was sent
    // cannot be ordered by any happens-before-consistent schedule.  (A real
    // backend cannot record this trace — which is exactly why the analyzer
    // must reject it rather than order it.)
    let ev = |rank: usize, seq: u64, kind: EventKind| Event { rank, seq, kind };
    let traces = vec![
        vec![
            ev(0, 0, EventKind::Recv { src: 1, tag: 0x20 }),
            ev(0, 1, EventKind::Send { dst: 1, tag: 0x10 }),
        ],
        vec![
            ev(1, 0, EventKind::Recv { src: 0, tag: 0x10 }),
            ev(1, 1, EventKind::Send { dst: 0, tag: 0x20 }),
        ],
    ];
    let violations = check_trace(&traces);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::RecvBeforeSend { events } if events.len() >= 2)),
        "expected RecvBeforeSend, got:\n{violations:#?}"
    );
}

#[test]
fn overlapping_chunk_claims_are_a_sink_conflict() {
    let mut traces = recorded_stencil();

    // Duplicate a recorded chunk claim so two workers of the same sweep and
    // phase claim overlapping iteration windows — two writers for one sink
    // slot.
    let (rank, idx) = traces
        .iter()
        .enumerate()
        .find_map(|(r, t)| {
            t.iter()
                .position(|e| matches!(e.kind, EventKind::ChunkClaim { .. }))
                .map(|i| (r, i))
        })
        .expect("the executor must record chunk claims");
    let mut dup = traces[rank][idx].clone();
    dup.seq += 100;
    let sweep = match dup.kind {
        EventKind::ChunkClaim { sweep, .. } => sweep,
        _ => unreachable!(),
    };
    traces[rank].insert(idx + 1, dup);

    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::ChunkSinkConflict { rank: r, sweep: s, .. } if r == rank && s == sweep
        )),
        "expected ChunkSinkConflict on rank {rank}, got:\n{violations:#?}"
    );
}

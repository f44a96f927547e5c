//! Negative verification: `kali::verify` rejects corrupted plans precisely.
//!
//! The positive direction is covered by `verify_all` (every solver/bench
//! configuration plans clean on both backends).  This suite establishes the
//! other half of the static-analysis contract: when a planned communication
//! schedule **is** defective, the checker reports the defect as the
//! *specific* [`Violation`] variant the corruption deserves — not a generic
//! failure, and not a pass.
//!
//! Each test starts from a genuinely planned schedule set (a 3-point
//! Jacobi-style stencil planned by a real [`Session`] on the dmsim
//! machine, which `check_schedule_set` accepts violation-free) or from the
//! event trace recorded around its two reductions (which
//! [`check_trace`] accepts).  A record corruption is rebuilt through the
//! constructors (`CommSchedule::from_recv_sets` and
//! `CommSchedule::set_send_records`) — what a buggy analysis could hand
//! them; the rank, the iteration lists and `recv_len` are edited in place.
//! Then the test asserts the matching variant fires:
//!
//! | corruption                              | expected violation          |
//! |-----------------------------------------|-----------------------------|
//! | receive record with no matching send    | `DanglingRecv`              |
//! | send record with no matching receive    | `DanglingSend`              |
//! | matched records with different extents  | `ByteCountMismatch`         |
//! | two senders named for one index         | `OverlappingRecvRanges`     |
//! | body reference the plan never fetched   | `UnresolvableRef`           |
//! | rank-divergent recorded collectives     | `DivergentCollectives`      |
//! | declared buffer length off by one       | `RecvLenMismatch`           |
//! | iteration list out of order             | `UnsortedIterations`        |
//! | iteration in both local & nonlocal list | `OverlappingIterationLists` |
//! | schedule stored under the wrong rank    | `ScheduleRankMismatch`      |
//! | nonlocal iteration filed as local       | `LocalIterNonlocalRef`      |
//! | recorded send/recv with no counterpart  | `UnmatchedMessage`          |
//! | more in-flight sweeps than tag span     | `SweepTagCollision`         |
//!
//! The shape of a record list is no `Violation`: the constructors build it
//! sorted, non-empty and with dense buffer offsets, and `set_send_records`,
//! which takes the records peers send, panics on one from another origin,
//! one addressed to this rank, or an empty one:
//! `record_claiming_another_ranks_endpoint_is_rejected`,
//! `self_message_records_are_rejected` and `empty_range_records_are_rejected`
//! hand it such a record.
//!
//! One variant guards a space no planned-schedule corruption can reach, so
//! it is constructed directly (with the justification in
//! `constant_space_violations_render_precisely`): `BracketingMismatch`
//! (only a *live* backend reduction disagreeing with the replay produces
//! one — exercised by `kali-core`'s unit test of `check_allreduce_run` and
//! by `verify_all`'s live allreduce).  The other four trace-level variants
//! (`TagReuseRace`, `MessageRace`, `RecvBeforeSend`, `ChunkSinkConflict`)
//! are driven from real recorded traces in `tests/mc_negative.rs`.
//!
//! `every_violation_variant_is_constructible_and_renders` closes the loop:
//! an exhaustive wildcard-free match over every variant, so adding a
//! variant without extending this audit fails to compile.

use kali_repro::distrib::{DimDist, IndexRange, IndexSet};
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::verify::{bracket_leaf, check_sweep_tag_wrap, BracketHash};
use kali_repro::kali::{
    check_plan_refs, check_schedule, check_schedule_set, check_trace, AffineMap, CommSchedule,
    Norm2, RangeRecord, Reduce, ReduceOp, Session, Span, Sum, Violation,
};
use kali_repro::process::{tags, Event, EventKind, Process};

const N: usize = 32;
const P: usize = 4;

/// Plan the 3-point stencil `A[i-1], A[i], A[i+1]` over the interior
/// iterations `1..N-1` of a block distribution on every rank of a
/// `P`-process dmsim machine, returning the per-rank schedules (cloned out
/// of the session cache so tests can corrupt them) and each rank's event
/// trace recorded around two reductions.
fn planned_stencil() -> (Vec<CommSchedule>, Vec<Vec<Event>>) {
    let results = Machine::new(P, CostModel::ideal()).run(|proc| {
        let dist = DimDist::block(N, P);
        let mut session = Session::new();
        let loop_ = session.loop_over(Span::new(1, N - 1), dist.clone());
        let refs = [
            AffineMap::shift(-1),
            AffineMap::identity(),
            AffineMap::shift(1),
        ];
        let schedule = session.plan(proc, &loop_, &dist, &refs);
        let local: Vec<f64> = dist
            .local_set(proc.rank())
            .iter()
            .map(|g| g as f64 + 0.5)
            .collect();
        // Two reductions so the trace has a sequence worth diverging.
        proc.trace_start();
        let _ = session.execute_reduce(
            proc,
            &loop_,
            &schedule,
            &dist,
            &local,
            Reduce::<Sum<f64>>::new(),
            |i, fetch| ((), fetch.fetch(i)),
            |_, ()| {},
        );
        let _ = session.execute_reduce(
            proc,
            &loop_,
            &schedule,
            &dist,
            &local,
            Reduce::<Norm2>::new(),
            |i, fetch| ((), fetch.fetch(i)),
            |_, ()| {},
        );
        ((*schedule).clone(), proc.trace_take())
    });
    results.into_iter().unzip()
}

/// The stencil's reference pattern, as the executor body would issue it.
fn stencil_refs(i: usize, out: &mut Vec<usize>) {
    if i > 0 {
        out.push(i - 1);
    }
    out.push(i);
    if i + 1 < N {
        out.push(i + 1);
    }
}

/// `s`'s receive sets, one per rank — what `CommSchedule::from_recv_sets`
/// was handed when `s` was planned.
fn recv_sets(s: &CommSchedule) -> Vec<IndexSet> {
    (0..P)
        .map(|q| {
            let records = s.recv_records().iter().filter(|r| r.from_proc == q);
            IndexSet::from_ranges(records.map(|r| IndexRange::new(r.low, r.high)))
        })
        .collect()
}

/// `s` planned again from the receive sets `sets`, with its own iteration
/// lists and send records.
fn replanned(s: &CommSchedule, sets: &[IndexSet]) -> CommSchedule {
    let (local, nonlocal) = (s.local_iters.clone(), s.nonlocal_iters.clone());
    let mut replanned = CommSchedule::from_recv_sets(s.rank, sets, local, nonlocal);
    replanned.set_send_records(P, s.send_records().to_vec());
    replanned
}

#[test]
fn pristine_plans_pass_all_checks() {
    let (set, traces) = planned_stencil();
    assert_eq!(check_schedule_set(&set), vec![]);
    let dist = DimDist::block(N, P);
    for s in &set {
        assert_eq!(check_plan_refs(s, dist.as_dyn(), stencil_refs), vec![]);
    }
    assert_eq!(check_trace(&traces), vec![]);
    // Every rank marked exactly the two reductions, in order, each ahead of
    // its allreduce.
    for trace in &traces {
        let ops: Vec<&str> = trace.iter().filter_map(Event::collective).collect();
        assert_eq!(ops, ["sum-f64", "allreduce", "norm2", "allreduce"]);
    }
}

#[test]
fn dangling_recv_record_is_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 1 now claims it will also receive [20,23) from rank 3 — but rank
    // 3 plans no such send.
    let mut sets = recv_sets(&set[1]);
    sets[3] = sets[3].union(&IndexSet::from_range(20, 23));
    set[1] = replanned(&set[1], &sets);
    let violations = check_schedule_set(&set);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::DanglingRecv { rank: 1, record }
                if record.from_proc == 3 && record.low == 20
        )),
        "expected DanglingRecv, got:\n{violations:#?}"
    );
}

#[test]
fn dangling_send_record_is_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 2 forgets it was going to receive from rank 1; rank 1's planned
    // send to rank 2 is now unexpected on arrival.
    let mut sets = recv_sets(&set[2]);
    sets[1] = IndexSet::new();
    set[2] = replanned(&set[2], &sets);
    let violations = check_schedule_set(&set);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::DanglingSend { rank: 1, record } if record.to_proc == 2
        )),
        "expected DanglingSend from rank 1 to rank 2, got:\n{violations:#?}"
    );
}

#[test]
fn mismatched_byte_counts_are_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 0's send to rank 1 grows by one element; the matched receive on
    // rank 1 still expects the original extent, so the two sides would
    // exchange different byte counts.
    let mut records = set[0].send_records().to_vec();
    let record = records
        .iter_mut()
        .find(|r| r.to_proc == 1)
        .expect("rank 0 sends its high boundary to rank 1");
    record.high += 1;
    let (low, send_high) = (record.low, record.high);
    set[0].set_send_records(P, records);
    let violations = check_schedule_set(&set);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::ByteCountMismatch { from: 0, to: 1, low: l, send_high: sh, .. }
                if l == low && sh == send_high
        )),
        "expected ByteCountMismatch on the 0->1 message, got:\n{violations:#?}"
    );
}

#[test]
fn overlapping_recv_ranges_are_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 1's halo receive from rank 0 ([7,8)) is also claimed from rank
    // 2: every global index has exactly one home, so two sources for one
    // element is a protocol error.
    let rank = 1;
    let mut sets = recv_sets(&set[rank]);
    sets[2] = sets[2].union(&sets[0]);
    set[rank] = replanned(&set[rank], &sets);
    let violations = check_schedule_set(&set);
    assert!(
        violations
            .iter()
            .any(|v| matches!(*v, Violation::OverlappingRecvRanges { rank: r, .. } if r == rank)),
        "expected OverlappingRecvRanges on rank {rank}, got:\n{violations:#?}"
    );
}

#[test]
fn references_outside_the_plan_are_rejected() {
    let (set, _) = planned_stencil();
    let dist = DimDist::block(N, P);
    // A body that suddenly reads 5 elements ahead was never planned for:
    // the stencil's schedule only fetched the ±1 halo.
    let violations = check_plan_refs(&set[1], dist.as_dyn(), |i, out| {
        stencil_refs(i, out);
        if i + 5 < N {
            out.push(i + 5);
        }
    });
    assert!(
        violations
            .iter()
            .any(|v| matches!(*v, Violation::UnresolvableRef { rank: 1, .. })),
        "expected UnresolvableRef on rank 1, got:\n{violations:#?}"
    );
}

#[test]
fn rank_divergent_collective_sequences_are_rejected() {
    let (_, mut traces) = planned_stencil();
    // Rank 2 swaps the markers of its two reductions — the SPMD conformance
    // rule (every rank issues the same collectives in the same order) is
    // broken even though the *set* of calls matches.
    let at = |op| traces[2].iter().position(|e| e.collective() == Some(op));
    let (sum, norm) = (at("sum-f64").unwrap(), at("norm2").unwrap());
    let sum_kind = traces[2][sum].kind;
    traces[2][sum].kind = std::mem::replace(&mut traces[2][norm].kind, sum_kind);
    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::DivergentCollectives {
                rank: 2,
                position: 0,
                ..
            }
        )),
        "expected DivergentCollectives on rank 2, got:\n{violations:#?}"
    );

    // A rank issuing an *extra* trailing collective diverges too (the
    // classic "reduce inside a rank-conditional" bug).
    let (_, mut traces) = planned_stencil();
    let seq = traces[3].len() as u64;
    traces[3].push(Event {
        rank: 3,
        seq,
        kind: EventKind::Collective { op: "sum-f64" },
    });
    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::DivergentCollectives {
                rank: 3,
                position: 4,
                reference: None,
                found: Some("sum-f64"),
            }
        )),
        "expected trailing DivergentCollectives on rank 3, got:\n{violations:#?}"
    );
}

/// Rank 1's planned send records handed back to `set_send_records` with
/// the first — its send of [8,9) to rank 0 — corrupted: what a buggy or
/// corrupt peer could ship through the inspector's exchange.  Returns the
/// message `set_send_records` panics with.
fn reinstall_corrupted_send_records(corrupt: impl FnOnce(&mut RangeRecord)) -> String {
    let (set, _) = planned_stencil();
    let mut schedule = set[1].clone();
    let mut records = schedule.send_records().to_vec();
    corrupt(&mut records[0]);
    let panic = std::panic::catch_unwind(move || schedule.set_send_records(P, records))
        .expect_err("set_send_records accepted a malformed peer record");
    panic
        .downcast_ref::<String>()
        .cloned()
        .expect("the panic message is formatted")
}

#[test]
fn record_claiming_another_ranks_endpoint_is_rejected() {
    let message = reinstall_corrupted_send_records(|r| r.from_proc = 2);
    let expected = "rank 1: peer 0's send record [8,9) originates on rank 2";
    assert!(message.contains(expected), "{message}");
}

#[test]
fn self_message_records_are_rejected() {
    // Local data never travels through the message layer.
    let message = reinstall_corrupted_send_records(|r| r.to_proc = 1);
    let expected = "rank 1: send record [8,9) names peer 1, not another of 4 ranks";
    assert!(message.contains(expected), "{message}");
}

#[test]
fn empty_range_records_are_rejected() {
    let message = reinstall_corrupted_send_records(|r| r.high = r.low);
    let expected = "rank 1: peer 0's send record [8,8) is empty";
    assert!(message.contains(expected), "{message}");
}

#[test]
fn declared_buffer_length_mismatch_is_rejected() {
    let (mut set, _) = planned_stencil();
    // The declared communication-buffer length no longer matches the sum of
    // the record extents.
    set[1].recv_len += 1;
    let declared = set[1].recv_len;
    let violations = check_schedule_set(&set);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::RecvLenMismatch { rank: 1, declared: d, actual } if d == declared && actual + 1 == d
        )),
        "expected RecvLenMismatch on rank 1, got:\n{violations:#?}"
    );
}

#[test]
fn unsorted_iteration_lists_are_rejected() {
    let (mut set, _) = planned_stencil();
    // Iteration lists are strictly ascending (the executor relies on it for
    // the owner-computes partition); swap two entries.
    assert!(set[1].local_iters.len() >= 2);
    set[1].local_iters.swap(0, 1);
    let violations = check_schedule(&set[1]);
    assert!(
        violations.iter().any(|v| matches!(
            *v,
            Violation::UnsortedIterations {
                rank: 1,
                list: "local",
                index: 1,
            }
        )),
        "expected UnsortedIterations on rank 1, got:\n{violations:#?}"
    );
}

#[test]
fn overlapping_iteration_lists_are_rejected() {
    let (mut set, _) = planned_stencil();
    // An iteration executed both as local and as nonlocal would run twice.
    let dup = set[1].local_iters[0];
    let pos = set[1].nonlocal_iters.partition_point(|&i| i < dup);
    set[1].nonlocal_iters.insert(pos, dup);
    let violations = check_schedule(&set[1]);
    assert!(
        violations.iter().any(
            |v| matches!(*v, Violation::OverlappingIterationLists { rank: 1, iter } if iter == dup)
        ),
        "expected OverlappingIterationLists on rank 1, got:\n{violations:#?}"
    );
}

#[test]
fn schedule_stored_under_the_wrong_rank_is_rejected() {
    let (mut set, _) = planned_stencil();
    // `set[r]` must be rank `r`'s schedule — an SPMD plan that lands in the
    // wrong slot corrupts every cross-rank check downstream.
    set[2].rank = 3;
    let violations = check_schedule_set(&set);
    assert!(
        violations
            .iter()
            .any(|v| matches!(*v, Violation::ScheduleRankMismatch { index: 2, rank: 3 })),
        "expected ScheduleRankMismatch at index 2, got:\n{violations:#?}"
    );
}

#[test]
fn nonlocal_iteration_filed_as_local_is_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 1's first nonlocal iteration (its lower boundary, which reads
    // the rank-0 halo) is misfiled into the local list: the executor would
    // run it before the halo arrives.
    let moved = set[1].nonlocal_iters.remove(0);
    let pos = set[1].local_iters.partition_point(|&i| i < moved);
    set[1].local_iters.insert(pos, moved);
    let dist = DimDist::block(N, P);
    let violations = check_plan_refs(&set[1], dist.as_dyn(), stencil_refs);
    assert!(
        violations.iter().any(
            |v| matches!(*v, Violation::LocalIterNonlocalRef { rank: 1, iter, .. } if iter == moved)
        ),
        "expected LocalIterNonlocalRef on rank 1 iteration {moved}, got:\n{violations:#?}"
    );
}

#[test]
fn unmatched_recorded_messages_are_rejected() {
    let (_, mut traces) = planned_stencil();
    // Rank 1's first recorded receive now names rank 3 and a tag nobody
    // sent on: a send nobody receives and a receive nobody sends.
    let first = traces[1]
        .iter_mut()
        .find(|e| matches!(e.kind, EventKind::Recv { .. }));
    let bogus = EventKind::Recv { src: 3, tag: 0x7 };
    let lost = std::mem::replace(&mut first.expect("rank 1 receives").kind, bogus);
    let EventKind::Recv { src, .. } = lost else {
        unreachable!()
    };
    let violations = check_trace(&traces);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::UnmatchedMessage { from, to: 1, label }
                if *from == src && label.ends_with(" 0 recvs")
        )),
        "expected the orphaned send, got:\n{violations:#?}"
    );
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::UnmatchedMessage { from: 3, to: 1, label } if label.contains(": 0 sends")
        )),
        "expected the sourceless recv, got:\n{violations:#?}"
    );
}

#[test]
fn sweep_tag_exhaustion_is_rejected() {
    // The realistic bound passes…
    assert_eq!(check_sweep_tag_wrap(1024), vec![]);
    // …but more concurrently un-retired sweeps than the executor window has
    // tags must alias: sweeps 0 and SPAN share a tag.
    let span = tags::SPAN as usize;
    let violations = check_sweep_tag_wrap(span + 1);
    assert!(
        violations
            .iter()
            .any(|v| matches!(*v, Violation::SweepTagCollision { sweep_a: 0, sweep_b, .. } if sweep_b == span)),
        "expected SweepTagCollision between sweeps 0 and SPAN, got:\n{violations:#?}"
    );
}

/// `BracketingMismatch` guards a space no schedule corruption can reach:
/// only a live backend reduction disagreeing with the sequential replay
/// produces one, and `verify_all` runs that comparison on every backend
/// every sweep.  Constructing it directly documents what it would report.
#[test]
fn constant_space_violations_render_precisely() {
    let expected = BracketHash::combine(bracket_leaf(0), bracket_leaf(1));
    let found = bracket_leaf(1);
    assert_ne!(expected, found);
    let v = Violation::BracketingMismatch {
        nprocs: 2,
        rank: 1,
        expected,
        found,
    };
    let s = v.to_string();
    assert!(s.contains("P=2") && s.contains("rank 1"));
}

/// Every variant's name — an exhaustive match with **no wildcard**, so
/// adding a `Violation` variant without extending this audit fails to
/// compile.
fn variant_name(v: &Violation) -> &'static str {
    match v {
        Violation::OverlappingRecvRanges { .. } => "OverlappingRecvRanges",
        Violation::RecvLenMismatch { .. } => "RecvLenMismatch",
        Violation::UnsortedIterations { .. } => "UnsortedIterations",
        Violation::OverlappingIterationLists { .. } => "OverlappingIterationLists",
        Violation::ScheduleRankMismatch { .. } => "ScheduleRankMismatch",
        Violation::DanglingRecv { .. } => "DanglingRecv",
        Violation::DanglingSend { .. } => "DanglingSend",
        Violation::ByteCountMismatch { .. } => "ByteCountMismatch",
        Violation::LocalIterNonlocalRef { .. } => "LocalIterNonlocalRef",
        Violation::UnresolvableRef { .. } => "UnresolvableRef",
        Violation::UnmatchedMessage { .. } => "UnmatchedMessage",
        Violation::DivergentCollectives { .. } => "DivergentCollectives",
        Violation::SweepTagCollision { .. } => "SweepTagCollision",
        Violation::BracketingMismatch { .. } => "BracketingMismatch",
        Violation::TagReuseRace { .. } => "TagReuseRace",
        Violation::MessageRace { .. } => "MessageRace",
        Violation::RecvBeforeSend { .. } => "RecvBeforeSend",
        Violation::ChunkSinkConflict { .. } => "ChunkSinkConflict",
    }
}

#[test]
fn every_violation_variant_is_constructible_and_renders() {
    let rec = RangeRecord {
        from_proc: 0,
        to_proc: 1,
        low: 4,
        high: 8,
        buffer: 0,
    };
    let all: Vec<Violation> = vec![
        Violation::OverlappingRecvRanges {
            rank: 1,
            first: rec,
            second: rec,
        },
        Violation::RecvLenMismatch {
            rank: 1,
            declared: 5,
            actual: 4,
        },
        Violation::UnsortedIterations {
            rank: 1,
            list: "local",
            index: 1,
        },
        Violation::OverlappingIterationLists { rank: 1, iter: 9 },
        Violation::ScheduleRankMismatch { index: 2, rank: 3 },
        Violation::DanglingRecv {
            rank: 1,
            record: rec,
        },
        Violation::DanglingSend {
            rank: 0,
            record: rec,
        },
        Violation::ByteCountMismatch {
            from: 0,
            to: 1,
            low: 4,
            recv_high: 8,
            send_high: 9,
        },
        Violation::LocalIterNonlocalRef {
            rank: 1,
            iter: 8,
            global: 7,
        },
        Violation::UnresolvableRef {
            rank: 1,
            iter: 8,
            global: 13,
        },
        Violation::UnmatchedMessage {
            from: 0,
            to: 1,
            label: "audit".to_string(),
        },
        Violation::DivergentCollectives {
            rank: 2,
            position: 0,
            reference: Some("sum-f64"),
            found: None,
        },
        Violation::SweepTagCollision {
            sweep_a: 0,
            sweep_b: 1,
            tag: 0x100,
        },
        Violation::BracketingMismatch {
            nprocs: 2,
            rank: 0,
            expected: 1,
            found: 2,
        },
        Violation::TagReuseRace {
            src: 0,
            dst: 1,
            tag: 0x100,
            first_seq: 1,
            second_seq: 2,
        },
        Violation::MessageRace {
            src: 0,
            dst: 1,
            tag: 0x100,
            first_seq: 1,
            second_seq: 2,
        },
        Violation::RecvBeforeSend {
            events: vec!["rank 0 recv tag 0x100 from 1".to_string()],
        },
        Violation::ChunkSinkConflict {
            rank: 0,
            sweep: 3,
            first: (0, 4),
            second: (2, 6),
        },
    ];
    let mut names: Vec<&str> = all.iter().map(variant_name).collect();
    for (v, name) in all.iter().zip(&names) {
        assert!(!v.to_string().is_empty(), "{name} must render");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        18,
        "every Violation variant must appear exactly once in the audit"
    );
}

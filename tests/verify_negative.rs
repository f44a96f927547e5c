//! Negative verification: corrupted plans are rejected precisely.
//!
//! The positive direction is covered by the `verify` table (`tables
//! verify`: every solver/bench configuration plans clean on every backend).
//! This suite establishes the other half: when a planned communication
//! schedule **is** defective, the defect is reported as the *specific*
//! [`Violation`] variant it deserves, or — where a live run reports it by
//! itself — as the specific panic that run dies with; never a generic
//! failure, and never a pass.
//!
//! Each test starts from a genuinely planned schedule set (a 3-point
//! Jacobi-style stencil planned by a real [`Session`] on the dmsim
//! machine, which `check_schedule_set` accepts violation-free) or from the
//! event trace recorded around its two reductions (which
//! [`check_trace`] accepts).  A schedule corruption is rebuilt through the
//! constructors (`CommSchedule::from_recv_sets` and
//! `CommSchedule::set_send_records`) — what a buggy analysis could hand
//! them; only `recv_len` is edited in place.  Then the test asserts the
//! matching variant fires:
//!
//! | corruption                              | expected violation          |
//! |-----------------------------------------|-----------------------------|
//! | receive record with no matching send    | `DanglingRecv`              |
//! | send record with no matching receive    | `DanglingSend`              |
//! | matched records with different extents  | `DanglingRecv` + `DanglingSend` |
//! | two senders named for one index         | `DanglingRecv`              |
//! | declared buffer length off by one       | `RecvLenMismatch`           |
//! | recorded send/recv with no counterpart  | `UnmatchedMessage`          |
//!
//! The shape of a schedule's lists is no `Violation`: the constructors
//! build the record lists sorted, non-empty and with dense buffer offsets,
//! `set_send_records`, which takes the records peers send, panics on one
//! from another origin, one addressed to this rank, or an empty one, and
//! `from_recv_sets` panics on an iteration list out of order or an
//! iteration on both lists, in every build.
//! `record_claiming_another_ranks_endpoint_is_rejected`,
//! `self_message_records_are_rejected`, `empty_range_records_are_rejected`,
//! `unsorted_iteration_lists_are_rejected` and
//! `overlapping_iteration_lists_are_rejected` hand them such lists.
//!
//! What a live run reports by itself is run live, on native, where the
//! first panic wakes every waiting peer: a schedule executed by another
//! rank than its own (`schedule_stored_under_the_wrong_rank_is_rejected`),
//! a body reference the plan never fetched
//! (`references_outside_the_plan_are_rejected`), a nonlocal iteration filed
//! as local (`nonlocal_iteration_filed_as_local_is_rejected`) and a record
//! naming an element its sender does not own
//! (`a_record_naming_an_element_its_sender_does_not_own_panics_the_sender`)
//! each panic, naming the rank and the element.
//!
//! One variant guards a space no planned-schedule corruption can reach, so
//! it is constructed directly (with the justification in
//! `constant_space_violations_render_precisely`): `BracketingMismatch`
//! (only a *live* backend reduction disagreeing with the replay produces
//! one — exercised by `kali-core`'s unit test of `check_allreduce_run` and
//! by the `verify` table's live allreduce).
//!
//! `every_violation_variant_is_constructible_and_renders` closes the loop:
//! an exhaustive wildcard-free match over every variant, so adding a
//! variant without extending this audit fails to compile.

use std::any::Any;
use std::sync::Mutex;

use kali_repro::distrib::{DimDist, IndexRange, IndexSet};
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::verify::{bracket_leaf, BracketHash};
use kali_repro::kali::{
    check_schedule_set, check_trace, AffineMap, CommSchedule, Fetcher, Norm2, RangeRecord, Reduce,
    ReduceOp, Session, Span, Sum, Violation,
};
use kali_repro::native::NativeMachine;
use kali_repro::process::{Event, EventKind, Process};

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
        // Two reductions, so the trace holds messages and collectives.
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
    let lists = (s.local_iters().to_vec(), s.nonlocal_iters().to_vec());
    relisted(s, sets, lists)
}

/// `s` planned again from the receive sets `sets` and the iteration lists
/// `(local, nonlocal)`, with its own send records.
fn relisted(s: &CommSchedule, sets: &[IndexSet], lists: (Vec<usize>, Vec<usize>)) -> CommSchedule {
    let (local, nonlocal) = lists;
    let mut replanned = CommSchedule::from_recv_sets(s.rank(), sets, local, nonlocal);
    replanned.set_send_records(P, s.send_records().to_vec());
    replanned
}

/// The message a panic carries.
fn panic_message(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .expect("the panic message is formatted")
}

/// Run one sweep of `body` over `set[rank]` on every rank of a native
/// machine and return the messages the ranks panicked with.  The first
/// panic poisons the peers, so no rank is left waiting.
fn live_panics<B>(set: &[CommSchedule], body: B) -> Vec<String>
where
    B: Fn(usize, &mut Fetcher<'_, f64, DimDist>) -> f64 + Sync,
{
    let seen = Mutex::new(Vec::new());
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        NativeMachine::new(P).run(|proc| {
            let dist = DimDist::block(N, P);
            let mut session = Session::new();
            let loop_ = session.loop_over(Span::new(1, N - 1), dist.clone());
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| g as f64 + 0.5)
                .collect();
            let schedule = &set[proc.rank()];
            let sweep = std::panic::AssertUnwindSafe(|| {
                session.execute(proc, &loop_, schedule, &dist, &local, &body, |_, _| {})
            });
            if let Err(cause) = std::panic::catch_unwind(sweep) {
                seen.lock()
                    .expect("unpoisoned")
                    .push(panic_message(&*cause));
                std::panic::resume_unwind(cause);
            }
        })
    }));
    assert!(run.is_err(), "the corrupted plan ran to completion");
    seen.into_inner().expect("unpoisoned")
}

/// The stencil body: the three references the plan was made for.
fn stencil_body(i: usize, fetch: &mut Fetcher<'_, f64, DimDist>) -> f64 {
    fetch.fetch(i - 1) + fetch.fetch(i) + fetch.fetch(i + 1)
}

#[test]
fn pristine_plans_pass_all_checks() {
    let (set, traces) = planned_stencil();
    assert_eq!(check_schedule_set(&set), vec![]);
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
            v,
            Violation::DanglingSend { rank: 0, record }
                if record.to_proc == 1 && (record.low, record.high) == (low, send_high)
        )),
        "expected the grown send record, got:\n{violations:#?}"
    );
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::DanglingRecv { rank: 1, record }
                if record.from_proc == 0 && (record.low, record.high) == (low, send_high - 1)
        )),
        "expected the receive record it no longer matches, got:\n{violations:#?}"
    );
}

#[test]
fn overlapping_recv_ranges_are_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 1's halo receive from rank 0 ([7,8)) is also claimed from rank
    // 2: every global index has exactly one home, and rank 2, which does
    // not own it, plans no such send.
    let mut sets = recv_sets(&set[1]);
    sets[2] = sets[2].union(&sets[0]);
    set[1] = replanned(&set[1], &sets);
    let violations = check_schedule_set(&set);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::DanglingRecv { rank: 1, record }
                if record.from_proc == 2 && (record.low, record.high) == (7, 8)
        )),
        "expected DanglingRecv on rank 1, got:\n{violations:#?}"
    );
}

#[test]
fn a_record_naming_an_element_its_sender_does_not_own_panics_the_sender() {
    let (mut set, _) = planned_stencil();
    // As above, but rank 2 plans the send too: the set is dual, and rank 2
    // finds out packing an element it does not own.
    let mut sets = recv_sets(&set[1]);
    sets[2] = sets[2].union(&sets[0]);
    set[1] = replanned(&set[1], &sets);
    let mut records = set[2].send_records().to_vec();
    records.push(RangeRecord {
        from_proc: 2,
        to_proc: 1,
        low: 7,
        high: 8,
        buffer: 0,
    });
    set[2].set_send_records(P, records);
    assert_eq!(check_schedule_set(&set), vec![]);
    let messages = live_panics(&set, stencil_body);
    assert!(
        messages
            .iter()
            .any(|m| m == "global index 7 is not owned under block"),
        "{messages:#?}"
    );
}

#[test]
fn references_outside_the_plan_are_rejected() {
    let (set, _) = planned_stencil();
    // A body that suddenly reads 5 elements ahead was never planned for:
    // the stencil's schedule only fetched the ±1 halo, so an iteration's
    // read of a peer's element finds it received for another iteration, on
    // the local list, or not received at all.
    let messages = live_panics(&set, |i, fetch| {
        let ahead = if i + 5 < N { fetch.fetch(i + 5) } else { 0.0 };
        stencil_body(i, fetch) + ahead
    });
    let off_the_plan = |m: &String| {
        m.contains("the schedule was planned for a different reference pattern")
            || m.contains("nor in its receive schedule")
    };
    assert!(messages.iter().any(off_the_plan), "{messages:#?}");
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
    panic_message(&*panic)
}

/// Rank 1's planned schedule rebuilt with its iteration lists edited by
/// `edit`: what a buggy analysis could hand `from_recv_sets`.  Returns the
/// message `from_recv_sets` panics with.
fn relist_corrupted(edit: impl FnOnce(&mut Vec<usize>, &mut Vec<usize>)) -> String {
    let (set, _) = planned_stencil();
    let s = &set[1];
    let (mut local, mut nonlocal) = (s.local_iters().to_vec(), s.nonlocal_iters().to_vec());
    edit(&mut local, &mut nonlocal);
    let sets = recv_sets(s);
    let panic = std::panic::catch_unwind(|| relisted(s, &sets, (local, nonlocal)))
        .expect_err("from_recv_sets accepted malformed iteration lists");
    panic_message(&*panic)
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
    // Iteration lists are strictly ascending (the executor's chunks and
    // sinks key on list positions); swap two entries.
    let message = relist_corrupted(|local, _| {
        assert!(local.len() >= 2);
        local.swap(0, 1);
    });
    let expected = "rank 1: local iteration 9 follows 10: not strictly ascending";
    assert!(message.contains(expected), "{message}");
}

#[test]
fn overlapping_iteration_lists_are_rejected() {
    // An iteration executed both as local and as nonlocal would run twice.
    let message = relist_corrupted(|local, nonlocal| {
        let dup = local[0];
        let pos = nonlocal.partition_point(|&i| i < dup);
        nonlocal.insert(pos, dup);
    });
    let expected = "rank 1: iteration 9 is on both the local and the nonlocal list";
    assert!(message.contains(expected), "{message}");
}

#[test]
fn schedule_stored_under_the_wrong_rank_is_rejected() {
    // `set[r]` is rank `r`'s schedule.  A plan that lands in another rank's
    // slot is executed by the wrong rank, and the executor refuses it before
    // it sends or receives anything.
    let (set, _) = planned_stencil();
    let misfiled: Vec<CommSchedule> = (0..P).map(|r| set[(r + 1) % P].clone()).collect();
    let mut messages = live_panics(&misfiled, stencil_body);
    messages.sort();
    assert_eq!(messages.len(), P, "{messages:#?}");
    for (rank, message) in messages.iter().enumerate() {
        let expected = format!("rank {rank}: executing another rank's schedule");
        assert!(message.contains(&expected), "{message}");
    }
}

#[test]
fn nonlocal_iteration_filed_as_local_is_rejected() {
    let (mut set, _) = planned_stencil();
    // Rank 1's first nonlocal iteration (its lower boundary, which reads
    // the rank-0 halo) is misfiled into the local list: the executor runs
    // it before the halo arrives, and its fetch finds no receive buffer.
    let (mut local, mut nonlocal) = (
        set[1].local_iters().to_vec(),
        set[1].nonlocal_iters().to_vec(),
    );
    let moved = nonlocal.remove(0);
    let pos = local.partition_point(|&i| i < moved);
    local.insert(pos, moved);
    set[1] = relisted(&set[1], &recv_sets(&set[1]), (local, nonlocal));
    let messages = live_panics(&set, stencil_body);
    let expected = format!(
        "rank 1: iteration {moved} of the local list fetched global {}, which is received \
         from rank 0",
        moved - 1
    );
    assert!(
        messages.iter().any(|m| m.starts_with(&expected)),
        "{messages:#?}"
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

/// `BracketingMismatch` guards a space no schedule corruption can reach:
/// only a live backend reduction disagreeing with the sequential replay
/// produces one, and the `verify` table runs that comparison on every backend
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
        Violation::RecvLenMismatch { .. } => "RecvLenMismatch",
        Violation::DanglingRecv { .. } => "DanglingRecv",
        Violation::DanglingSend { .. } => "DanglingSend",
        Violation::UnmatchedMessage { .. } => "UnmatchedMessage",
        Violation::BracketingMismatch { .. } => "BracketingMismatch",
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
        Violation::RecvLenMismatch {
            rank: 1,
            declared: 5,
            actual: 4,
        },
        Violation::DanglingRecv {
            rank: 1,
            record: rec,
        },
        Violation::DanglingSend {
            rank: 0,
            record: rec,
        },
        Violation::UnmatchedMessage {
            from: 0,
            to: 1,
            label: "audit".to_string(),
        },
        Violation::BracketingMismatch {
            nprocs: 2,
            rank: 0,
            expected: 1,
            found: 2,
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
        5,
        "every Violation variant must appear exactly once in the audit"
    );
}

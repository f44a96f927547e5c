//! Negative trace checking: `kali::mc` rejects what a faulty run records.
//!
//! The positive direction is covered by the `mc` table (`tables mc`: every
//! solver/distribution/backend configuration records a trace
//! `check_trace` accepts).  This suite establishes the other half on
//! traces a real run recorded: a shift-stencil sweep executed by a real
//! [`Session`] through the executor on the dmsim machine, which
//! `check_trace` accepts violation-free — and the same run with a send no
//! receive ever takes, which it rejects:
//!
//! | recorded defect                           | expected violation |
//! |-------------------------------------------|--------------------|
//! | a message sent that nobody receives       | `UnmatchedMessage` |
//!
//! A receive with no send is driven from a recorded trace in
//! `tests/verify_negative.rs`.  Nothing else about a completed run is a
//! trace variant: its trace holds no causality cycle, the one `Mailbox`
//! delivers FIFO per `(src, tag)`, which it asserts in every build, and
//! ranks entering different collectives hang or change the reduced value.

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::{check_trace, AffineMap, Session, Violation};
use kali_repro::process::{Event, Process, Tag};

/// The user tag of the stray messages.
const STRAY: Tag = 0x5a;

/// Execute one traced shift-stencil sweep on a 2-rank dmsim machine, rank 1
/// also sending `stray` messages to rank 0 on a tag rank 0 never receives
/// on, and return the per-rank event traces.  Rank 1 sends them ahead of
/// the halo rank 0 waits for, so rank 0 is still running when they arrive
/// (a stray sent to a rank that has finished panics the sender instead).
fn recorded_stencil(stray: usize) -> Vec<Vec<Event>> {
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
        if proc.rank() == 1 {
            for k in 0..stray {
                proc.send(0, STRAY, k as u64);
            }
        }
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

#[test]
fn pristine_recorded_traces_pass() {
    let traces = recorded_stencil(0);
    assert!(traces.iter().all(|t| !t.is_empty()));
    assert_eq!(check_trace(&traces), vec![]);
}

#[test]
fn a_send_nobody_receives_is_unmatched() {
    let traces = recorded_stencil(2);
    assert_eq!(
        check_trace(&traces),
        vec![Violation::UnmatchedMessage {
            from: 1,
            to: 0,
            label: format!("trace tag {STRAY:#x}: 2 sends, 0 recvs"),
        }]
    );
}

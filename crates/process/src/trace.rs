//! Structured execution-trace events for the trace checks.
//!
//! When a caller opts in ([`Process::trace_start`]), a backend records one
//! [`Event`] per point-to-point message endpoint and collective entry,
//! stamped with a per-rank sequence number.  The recorded per-rank event
//! vectors are the input of the trace checks (`kali_core::mc`), which
//! match messages and compare collective sequences *offline* — nothing is
//! ever piggybacked on messages, so tracing cannot perturb the run it
//! observes beyond the cost of pushing onto a local `Vec`.
//!
//! [`Process::trace_start`]: crate::Process::trace_start

use crate::Tag;

/// What one recorded event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-to-point send completed posting on this rank (recorded
    /// before the message is handed to the transport).
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
    },
    /// A point-to-point receive completed on this rank (recorded after the
    /// mailbox returned the matching message).
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
    },
    /// This rank entered a collective operation.  Every rank must record
    /// the same sequence of them (the SPMD contract).
    Collective {
        /// The collective's name (`"barrier"`, `"allreduce"`, ...).  A
        /// typed reduction (`execute_reduce`) names its operator
        /// (`ReduceOp::name`, e.g. `"sum-f64"`) just before its allreduce.
        op: &'static str,
    },
}

/// One recorded execution event of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The recording rank.
    pub rank: usize,
    /// Position in the rank's program order, starting at 0.  Informational:
    /// the trace checks read events by their position in the recorded
    /// vector, so hand-built traces need not maintain it.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The name of the collective this event entered (`None` for any other
    /// event).
    pub fn collective(&self) -> Option<&'static str> {
        match self.kind {
            EventKind::Collective { op } => Some(op),
            _ => None,
        }
    }
}

/// A per-rank event recorder, owned by a backend process and driven through
/// the [`Process`](crate::Process) trace hooks.  Inactive (and free) until
/// [`TraceRecorder::start`] flips it on.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    active: bool,
    next_seq: u64,
    events: Vec<Event>,
}

impl TraceRecorder {
    /// Discard any previous trace and begin recording.
    pub fn start(&mut self) {
        self.active = true;
        self.next_seq = 0;
        self.events.clear();
    }

    /// Whether events are currently being recorded.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Record one event for `rank` (no-op while inactive).
    pub fn record(&mut self, rank: usize, kind: EventKind) {
        if !self.active {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event { rank, seq, kind });
    }

    /// Stop recording and hand back the events captured since
    /// [`TraceRecorder::start`].
    pub fn take(&mut self) -> Vec<Event> {
        self.active = false;
        self.next_seq = 0;
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_is_inert_until_started() {
        let mut r = TraceRecorder::default();
        r.record(0, EventKind::Collective { op: "barrier" });
        assert!(!r.is_active());
        assert_eq!(r.take(), vec![]);
    }

    #[test]
    fn recorder_stamps_sequence_numbers_and_take_resets() {
        let mut r = TraceRecorder::default();
        r.start();
        r.record(2, EventKind::Send { dst: 1, tag: 7 });
        r.record(2, EventKind::Recv { src: 1, tag: 9 });
        let events = r.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].rank, 2);
        assert!(matches!(events[1].kind, EventKind::Recv { src: 1, tag: 9 }));
        // take() deactivates and clears.
        assert!(!r.is_active());
        r.record(2, EventKind::Send { dst: 0, tag: 1 });
        assert_eq!(r.take(), vec![]);
        // start() after take() restarts numbering from zero.
        r.start();
        r.record(2, EventKind::Collective { op: "barrier" });
        assert_eq!(r.take()[0].seq, 0);
    }
}

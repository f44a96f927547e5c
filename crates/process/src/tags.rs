//! Centralised tag-space layout.
//!
//! Every runtime component that exchanges point-to-point messages derives
//! its tags from this module, so the ranges are disjoint *by construction*
//! and documented in one place.  The 64-bit [`Tag`] space is
//! partitioned as:
//!
//! | range (half-open)        | owner                                          |
//! |--------------------------|------------------------------------------------|
//! | `[0, 2^40)`              | user programs (free-form tags)                 |
//! | `[2^40, 2^41)`           | executor data messages, offset by sweep number |
//! | `[2^41, 2^42)`           | hand-coded baseline halo exchange              |
//! | `[2^42, 2^43)`           | array redistribution traffic                   |
//! | `[2^43, 2^44)`           | reserved (unused)                              |
//! | `[2^44, 2^45)`           | tree collectives (phase + round encoded)       |
//! | `[2^45, 2^46)`           | transport control (handshake/result/shutdown)  |
//! | `[2^46, 2^63)`           | reserved (unused)                              |
//! | `[2^63, 2^64)`           | collectives (per-invocation sequence numbers)  |
//!
//! Collective tags additionally embed a per-stage offset in bits 32..40
//! ([`collective_stage_tag`]: dissemination-barrier round, crystal-router
//! dimension), which stays inside the collective range because bit 63 is
//! always set.
//!
//! The previous layout let callers pick magic constants per file
//! (`1 << 40`, `1 << 41`, `1 << 42`, `1 << 63`) with nothing checking
//! disjointness; a sweep counter larger than 2^41 − 2^40 would have walked
//! the executor range into the baseline's.  [`executor_tag`] and
//! [`redistribute_tag`] now bounds-check their offsets in debug builds.

use crate::Tag;

/// Exclusive upper bound of the tag range user programs may use freely.
pub const USER_LIMIT: Tag = 1 << 40;

/// Base of the executor data-message range (`[EXECUTOR_BASE,
/// EXECUTOR_BASE + SPAN)`).
pub const EXECUTOR_BASE: Tag = 1 << 40;

/// Base of the hand-coded baseline halo-exchange range.
pub const HALO_BASE: Tag = 1 << 41;

/// Base of the redistribution-traffic range.
pub const REDIST_BASE: Tag = 1 << 42;

/// Base of the tree-collective range used by the [`Process`] trait's
/// provided binomial-tree `allreduce` and recursive-doubling allgather
/// (phase in bits 40..42, round in the low bits).
///
/// Tree collectives use *fixed* per-(phase, round) tags instead of
/// per-invocation sequence numbers: every rank calls collectives in the
/// same order (the SPMD contract) and same-`(src, tag)` delivery is FIFO,
/// so messages of consecutive collectives cannot be confused.
///
/// [`Process`]: crate::Process
pub const TREE_BASE: Tag = 1 << 44;

/// Base of the transport-control range: frames a *transport* (not the SPMD
/// program) exchanges to run itself — the multi-process backend's worker
/// handshake, result delivery, worker-panic reports and shutdown frames.
/// Keeping these in a reserved window of the one shared tag space means a
/// control frame can never be mistaken for program traffic, and the
/// disjointness proof below covers the transport like any other component.
pub const TRANSPORT_BASE: Tag = 1 << 45;

/// Base of the collective-operation range (top half of the tag space).
pub const COLLECTIVE_BASE: Tag = 1 << 63;

/// Width of each non-collective component range.
pub const SPAN: Tag = 1 << 40;

/// Every component window of the tag space as `(name, start, end)`
/// half-open ranges — the single source of truth the compile-time
/// disjointness proof below and the runtime documentation test read.
pub const COMPONENT_WINDOWS: [(&str, Tag, Tag); 7] = [
    ("user", 0, USER_LIMIT),
    ("executor", EXECUTOR_BASE, EXECUTOR_BASE + SPAN),
    ("halo", HALO_BASE, HALO_BASE + SPAN),
    ("redistribute", REDIST_BASE, REDIST_BASE + SPAN),
    ("tree", TREE_BASE, TREE_BASE + (1 << 44)),
    ("transport", TRANSPORT_BASE, TRANSPORT_BASE + SPAN),
    ("collective", COLLECTIVE_BASE, Tag::MAX),
];

const fn windows_pairwise_disjoint(windows: &[(&str, Tag, Tag)]) -> bool {
    let mut i = 0;
    while i < windows.len() {
        let mut j = i + 1;
        while j < windows.len() {
            let (_, a_lo, a_hi) = windows[i];
            let (_, b_lo, b_hi) = windows[j];
            if !(a_hi <= b_lo || b_hi <= a_lo) {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

// Overlapping component windows fail the *build*, not a test run: moving a
// base or widening SPAN so two ranges collide is a compile error.
const _: () = assert!(
    windows_pairwise_disjoint(&COMPONENT_WINDOWS),
    "tag component windows must be pairwise disjoint"
);

/// Tag of the executor's data messages for one execution (sweep) of a
/// `forall`.
///
/// Successive executions must use distinct offsets so a fast neighbour's
/// sweep `s + 1` sends cannot be confused with its sweep `s` sends.
pub fn executor_tag(offset: Tag) -> Tag {
    debug_assert!(
        offset < SPAN,
        "executor tag offset {offset} exceeds the range span"
    );
    EXECUTOR_BASE + offset
}

/// Tag of one redistribution's traffic.  `offset` distinguishes concurrent
/// or back-to-back redistributions (0 when there is only one).
pub fn redistribute_tag(offset: Tag) -> Tag {
    debug_assert!(
        offset < SPAN,
        "redistribute tag offset {offset} exceeds the range span"
    );
    REDIST_BASE + offset
}

/// Tag of the hand-coded baseline's halo messages for one sweep.
pub fn halo_tag(offset: Tag) -> Tag {
    debug_assert!(
        offset < SPAN,
        "halo tag offset {offset} exceeds the range span"
    );
    HALO_BASE + offset
}

/// Tag of a transport handshake frame: the first frame on every
/// transport-level connection, carrying the connecting rank so the acceptor
/// can index the peer.
pub const TRANSPORT_HELLO: Tag = TRANSPORT_BASE;

/// Tag of a transport result frame: a worker's encoded SPMD return value,
/// delivered to the coordinator when the worker's program completes.
pub const TRANSPORT_RESULT: Tag = TRANSPORT_BASE + 1;

/// Tag of a transport error frame: a worker's panic report (rendered
/// message), delivered to the coordinator instead of a result.
pub const TRANSPORT_ERROR: Tag = TRANSPORT_BASE + 2;

/// Tag of a transport shutdown frame: an orderly-teardown marker on a
/// peer-to-peer connection.
pub const TRANSPORT_SHUTDOWN: Tag = TRANSPORT_BASE + 3;

// The named control tags must stay inside the transport window declared in
// `COMPONENT_WINDOWS` — widening the set past the span fails the build.
const _: () = assert!(
    TRANSPORT_SHUTDOWN < TRANSPORT_BASE + SPAN,
    "transport control tags must stay inside the transport window"
);
// And the window itself sits strictly between the tree collectives and the
// top-half collective range, with the control tags in ascending order.
const _: () = assert!(
    TREE_BASE + (1 << 44) <= TRANSPORT_HELLO
        && TRANSPORT_HELLO < TRANSPORT_RESULT
        && TRANSPORT_RESULT < TRANSPORT_ERROR
        && TRANSPORT_ERROR < TRANSPORT_SHUTDOWN
        && TRANSPORT_BASE + SPAN <= COLLECTIVE_BASE,
    "transport window must sit between the tree and collective ranges"
);

/// Phase discriminants of the tree collectives (bits 40..42 of the tag).
const TREE_REDUCE_PHASE: Tag = 0;
const TREE_BCAST_PHASE: Tag = 1;
const TREE_GATHER_PHASE: Tag = 2;

// The phase field is statically bounded: even the largest phase, shifted
// into bits 40..42 and combined with a maximal round offset, stays inside
// the tree window declared in `COMPONENT_WINDOWS`.
const _: () = assert!(
    TREE_BASE + (TREE_GATHER_PHASE << 40) + (SPAN - 1) < TREE_BASE + (1 << 44),
    "tree phase field must stay inside the tree-collective window"
);

fn tree_tag(phase: Tag, round: u32) -> Tag {
    debug_assert!(
        (round as Tag) < SPAN,
        "tree round {round} exceeds the range span"
    );
    TREE_BASE + (phase << 40) + round as Tag
}

/// Tag of round `round` of the binomial-tree reduce phase (partials moving
/// towards rank 0).
pub fn tree_reduce_tag(round: u32) -> Tag {
    tree_tag(TREE_REDUCE_PHASE, round)
}

/// Tag of round `round` of the binomial-tree broadcast phase (the combined
/// result moving back down the tree).  The round of a broadcast message is
/// `log2(stride)` of the hop, so sender and receiver derive it
/// independently.
pub fn tree_bcast_tag(round: u32) -> Tag {
    tree_tag(TREE_BCAST_PHASE, round)
}

/// Tag of round `round` of the recursive-doubling allgather.
pub fn tree_gather_tag(round: u32) -> Tag {
    tree_tag(TREE_GATHER_PHASE, round)
}

/// Tag of the `seq`-th collective operation of a run.
///
/// SPMD programs call collectives in the same order on every rank, so a
/// per-process monotonic sequence number yields matching tags machine-wide.
/// Bits 32..40 are left for the collective's internal stage offset
/// ([`collective_stage_tag`]).
pub fn collective_tag(seq: u64) -> Tag {
    debug_assert!(
        seq < 1 << 32,
        "collective sequence number {seq} overflows its field"
    );
    COLLECTIVE_BASE | seq
}

/// Tag of stage `stage` of the collective whose tag is `tag`: the stage in
/// bits 32..40, so the stages of one collective never borrow the sequence
/// number — the low bits — of a later one.
pub fn collective_stage_tag(tag: Tag, stage: u32) -> Tag {
    debug_assert!(
        stage < 1 << 8,
        "collective stage {stage} overflows its field"
    );
    tag | (stage as Tag) << 32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documentation of the invariant the `const` assertion above enforces
    /// at compile time: an overlap would fail the build before this test
    /// could even run.
    #[test]
    fn component_ranges_are_pairwise_disjoint() {
        for (i, a) in COMPONENT_WINDOWS.iter().enumerate() {
            for b in COMPONENT_WINDOWS.iter().skip(i + 1) {
                assert!(a.2 <= b.1 || b.2 <= a.1, "ranges {a:?} and {b:?} overlap");
            }
        }
        assert!(windows_pairwise_disjoint(&COMPONENT_WINDOWS));
    }

    #[test]
    fn constructors_land_in_their_ranges() {
        assert_eq!(executor_tag(0), EXECUTOR_BASE);
        assert!(executor_tag(SPAN - 1) < HALO_BASE);
        assert_eq!(halo_tag(3), HALO_BASE + 3);
        assert!(halo_tag(SPAN - 1) < REDIST_BASE);
        assert_eq!(redistribute_tag(0), REDIST_BASE);
        assert!(redistribute_tag(SPAN - 1) < TREE_BASE);
        // Transport control tags live in their reserved window, above the
        // tree collectives and below the top-half collective range — the
        // `const` assertions beside their definitions enforce this at
        // compile time; here we only pin the concrete values.
        assert_eq!(TRANSPORT_HELLO, 1 << 45);
        assert_eq!(TRANSPORT_SHUTDOWN, (1 << 45) + 3);
        assert_eq!(tree_reduce_tag(0), TREE_BASE);
        assert!(tree_reduce_tag(63) < tree_bcast_tag(0));
        assert!(tree_bcast_tag(63) < tree_gather_tag(0));
        assert!(tree_gather_tag(63) < TREE_BASE + (1 << 44));
        // Distinct (phase, round) pairs always map to distinct tags.
        let tree: Vec<Tag> = (0..3u64)
            .flat_map(|ph| (0..64).map(move |r| tree_tag(ph, r)))
            .collect();
        let mut dedup = tree.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tree.len());
        assert!(collective_tag(0) >= COLLECTIVE_BASE);
        // Stage offsets (bits 32..40) stay inside the collective range and
        // off the sequence number: stage 1 of collective 0 is not
        // collective 1.
        assert!(collective_stage_tag(collective_tag(u32::MAX as u64), 0xFF) >= COLLECTIVE_BASE);
        assert_ne!(
            collective_stage_tag(collective_tag(0), 1),
            collective_tag(1)
        );
        assert_eq!(
            collective_stage_tag(collective_tag(7), 0),
            collective_tag(7)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the range span")]
    fn oversized_executor_offset_is_rejected() {
        let _ = executor_tag(SPAN);
    }
}

//! The direct collectives, written once over point-to-point messaging.
//!
//! A backend's `barrier` / `exchange` / `allgather` records its trace
//! marker, draws the invocation's [`collective_tag`](crate::tags::collective_tag)
//! and calls one of these.  They speak only `send` / `send_vec` / `recv` /
//! `recv_vec`, so the message pattern — and the recorded trace — is the same
//! on every backend that uses them, and they merge in rank order, never in
//! arrival order: results depend on the inputs and the rank count alone.

use crate::{Process, Tag, Wire};

/// Dissemination barrier: `⌈log2 P⌉` rounds; in the round of stride `k`
/// every rank signals the rank `k` above it and waits for the one `k`
/// below.  Round `r` (stride `2^r`) sends on stage `r` of `tag`
/// ([`collective_stage_tag`](crate::tags::collective_stage_tag)).
pub fn dissemination_barrier<P: Process>(proc: &mut P, tag: Tag) {
    let (me, n) = (proc.rank(), proc.nprocs());
    let mut k = 1usize;
    while k < n {
        let round_tag = crate::tags::collective_stage_tag(tag, k.trailing_zeros());
        proc.send((me + k) % n, round_tag, 0u8);
        let _: u8 = proc.recv((me + n - k) % n, round_tag);
        k <<= 1;
    }
}

/// Direct personalised all-to-all: one message (possibly empty) to every
/// peer, received and concatenated in rank order with the rank's own items
/// in rank position.  Each message's records are charged
/// ([`Process::charge_record_handling`]) just before it is sent.
pub fn direct_exchange<P: Process, T: Wire>(
    proc: &mut P,
    tag: Tag,
    items: Vec<(usize, T)>,
) -> Vec<T> {
    let (me, n) = (proc.rank(), proc.nprocs());
    let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (dst, item) in items {
        assert!(dst < n, "routed item addressed to rank {dst} of {n}");
        buckets[dst].push(item);
    }
    let mine = std::mem::take(&mut buckets[me]);
    for (dst, bucket) in buckets.into_iter().enumerate() {
        if dst != me {
            proc.charge_record_handling(bucket.len());
            proc.send_vec(dst, tag, bucket);
        }
    }
    let mut out = Vec::new();
    for src in 0..me {
        out.extend(proc.recv_vec::<T>(src, tag));
    }
    out.extend(mine);
    for src in me + 1..n {
        out.extend(proc.recv_vec::<T>(src, tag));
    }
    out
}

/// Direct allgather: every rank sends its contribution to every peer and
/// returns all of them indexed by rank.  The contribution is cloned for the
/// rank's own slot and for every peer but the last, which takes the
/// original.
pub fn direct_allgather<P: Process, T: Clone + Wire>(
    proc: &mut P,
    tag: Tag,
    items: Vec<T>,
) -> Vec<Vec<T>> {
    let (me, n) = (proc.rank(), proc.nprocs());
    let Some(last) = (0..n).rev().find(|&dst| dst != me) else {
        return vec![items];
    };
    for dst in (0..last).filter(|&dst| dst != me) {
        proc.send_vec(dst, tag, items.clone());
    }
    let mut mine = Some(items.clone());
    proc.send_vec(last, tag, items);
    (0..n)
        .map(|src| {
            if src == me {
                mine.take().expect("own slot visited once")
            } else {
                proc.recv_vec(src, tag)
            }
        })
        .collect()
}

//! `(source, tag)` message matching, shared by every backend.
//!
//! A transport hands messages over in arrival order; a receive asks for
//! them by `(source, tag)`, FIFO per key.  [`Mailbox`] sits in between and
//! is the one place that discipline is decided: [`Mailbox::receive`] serves
//! a parked message, or pulls from the transport until the match arrives and
//! parks the rest in per-key queues.  It is generic over the parked payload
//! (a type-erased box on native, type hash plus encoded bytes on mp, the
//! box plus its simulated size and arrival time on dmsim), draws the
//! per-destination send sequence numbers its FIFO witness checks in every
//! build, and keeps `Counters::queue_peak`.

use std::collections::{HashMap, VecDeque};

use crate::Tag;

/// One message as a transport hands it over.
#[derive(Debug)]
pub struct Arrival<M> {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// The sender's [`Mailbox::stamp`] for this destination.
    pub seq: u64,
    /// The transport's representation of the value.
    pub payload: M,
}

/// The pending-message buffer and send-sequence stamps of one rank.
#[derive(Debug)]
pub struct Mailbox<M> {
    rank: usize,
    /// Arrivals not asked for yet, FIFO per key.  An emptied queue leaves
    /// the map: tags are mostly unique per sweep, so it would linger forever.
    queues: HashMap<(usize, Tag), VecDeque<M>>,
    /// Payloads parked now, and the most there ever were at once.
    parked: usize,
    peak: u64,
    /// Next send sequence number per destination (across all tags).
    send_seqs: Vec<u64>,
    /// The FIFO witness: one past the stamp of the latest arrival from each
    /// source.  Stamps count per destination and every transport is FIFO
    /// per peer, so each arrival from a source must carry a larger stamp
    /// than the one before it.
    arrived: Vec<u64>,
}

impl<M> Mailbox<M> {
    /// The empty mailbox of rank `rank` in a run of `nprocs` ranks.
    pub fn new(rank: usize, nprocs: usize) -> Self {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} procs");
        Mailbox {
            rank,
            queues: HashMap::new(),
            parked: 0,
            peak: 0,
            send_seqs: vec![0; nprocs],
            arrived: vec![0; nprocs],
        }
    }

    /// Range-check `dst` and draw the sequence number of the next message
    /// to it.
    pub fn stamp(&mut self, dst: usize) -> u64 {
        let (me, nprocs) = (self.rank, self.send_seqs.len());
        assert!(dst < nprocs, "rank {me}: send to rank {dst} of {nprocs}");
        let seq = self.send_seqs[dst];
        self.send_seqs[dst] = seq + 1;
        seq
    }

    /// Park an arrival nobody has asked for yet (a self-send, or a message
    /// that overtook the one a receive waits for).  Panics, in every build,
    /// unless it carries a larger stamp than the previous arrival from its
    /// source.
    pub fn park(&mut self, arrival: Arrival<M>) {
        let (src, tag, seq) = (arrival.src, arrival.tag, arrival.seq);
        self.witness(src, tag, seq);
        let queue = self.queues.entry((src, tag)).or_default();
        queue.push_back(arrival.payload);
        self.parked += 1;
        self.peak = self.peak.max(self.parked as u64);
    }

    /// Check, in every build, that an arrival from `src` carries a larger
    /// stamp than the previous arrival from `src`: the backend handed this
    /// rank a peer's messages in the order they were sent.  A parked
    /// message is checked when it arrives, so delivery from one `(src, tag)`
    /// queue is FIFO as well.
    fn witness(&mut self, src: usize, tag: Tag, seq: u64) {
        let next = &mut self.arrived[src];
        assert!(
            seq >= *next,
            "rank {}: arrival from rank {src} (tag {tag:#x}) carries seq {seq} after seq {}: \
             not FIFO",
            self.rank,
            *next - 1
        );
        *next = seq + 1;
    }

    /// Deliver the oldest message of channel `(src, tag)`: a parked one, or
    /// else whatever `pull` — "block for the transport's next arrival" —
    /// yields first that matches, everything before it being parked.
    ///
    /// Panics, naming this rank, the peer and the tag, on a receive no
    /// arrival can satisfy: `src` out of range, or `src` this rank itself
    /// with nothing parked (only peers feed the transport, so that wait
    /// would end as a hang or as an unrelated hang-up report).
    pub fn receive(&mut self, src: usize, tag: Tag, mut pull: impl FnMut() -> Arrival<M>) -> M {
        let (me, nprocs) = (self.rank, self.send_seqs.len());
        assert!(
            src < nprocs,
            "rank {me}: recv from rank {src} of {nprocs} (tag {tag:#x})"
        );
        if let Some(payload) = self.take(src, tag) {
            return payload;
        }
        assert!(
            src != me,
            "rank {me}: recv from rank {src} (itself) on tag {tag:#x} with nothing sent"
        );
        loop {
            let arrival = pull();
            if (arrival.src, arrival.tag) == (src, tag) {
                self.witness(src, tag, arrival.seq);
                return arrival.payload;
            }
            self.park(arrival);
        }
    }

    fn take(&mut self, src: usize, tag: Tag) -> Option<M> {
        let queue = self.queues.get_mut(&(src, tag))?;
        let payload = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&(src, tag));
        }
        self.parked -= 1;
        Some(payload)
    }

    /// Most payloads ever parked at once — `Counters::queue_peak`.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: Tag, seq: u64, payload: u32) -> Arrival<u32> {
        Arrival {
            src,
            tag,
            seq,
            payload,
        }
    }

    /// The `pull` of a receive that must be served from the pending buffer.
    fn nothing_arrives() -> Arrival<u32> {
        panic!("the transport was polled for a parked message")
    }

    #[test]
    fn delivery_is_fifo_per_key_and_an_emptied_queue_leaves_the_map() {
        let mut mb = Mailbox::new(0, 3);
        let interleaved = [(1, 5, 10), (2, 5, 20), (1, 6, 30), (1, 5, 11), (2, 5, 21)];
        for (seq, (src, tag, v)) in interleaved.into_iter().enumerate() {
            mb.park(msg(src, tag, seq as u64, v));
        }
        assert_eq!(mb.queues.len(), 3);
        let asked = [(2, 5), (1, 5), (1, 5), (1, 6), (2, 5)];
        let got = asked.map(|(src, tag)| mb.receive(src, tag, nothing_arrives));
        assert_eq!(got, [20, 10, 11, 30, 21]);
        assert!(mb.queues.is_empty(), "emptied queues must not linger");
    }

    #[test]
    fn receive_pulls_until_the_match_and_parks_the_rest_in_order() {
        let mut mb = Mailbox::new(1, 2);
        let mut wire = [(7, 70), (8, 80), (7, 71), (9, 90)]
            .into_iter()
            .enumerate()
            .map(|(seq, (tag, v))| msg(0, tag, seq as u64, v));
        assert_eq!(mb.receive(0, 9, || wire.next().expect("wire ran dry")), 90);
        assert_eq!(mb.parked, 3);
        let got = [7, 7, 8].map(|tag| mb.receive(0, tag, nothing_arrives));
        assert_eq!(got, [70, 71, 80]);
    }

    #[test]
    fn peak_is_a_high_water_mark() {
        let mut mb = Mailbox::new(0, 2);
        for seq in 0..3 {
            mb.park(msg(1, seq, seq, 0));
        }
        for tag in 0..3 {
            mb.receive(1, tag, nothing_arrives);
        }
        assert_eq!((mb.parked, mb.peak()), (0, 3));
        mb.park(msg(1, 9, 3, 0));
        assert_eq!((mb.parked, mb.peak()), (1, 3), "peak never falls");
    }

    #[test]
    fn stamps_count_per_destination() {
        let mut mb = Mailbox::<u32>::new(1, 3);
        let stamps = [0, 2, 0, 1, 0].map(|dst| mb.stamp(dst));
        assert_eq!(stamps, [0, 0, 1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "rank 0: arrival from rank 1 (tag 0x5) carries seq 3 after seq 4")]
    fn debug_builds_catch_a_reordered_pending_queue() {
        let mut mb = Mailbox::new(0, 2);
        mb.park(msg(1, 5, 4, 0));
        mb.park(msg(1, 5, 3, 0));
    }

    #[test]
    #[should_panic(expected = "rank 0: arrival from rank 1 (tag 0x5) carries seq 2 after seq 2")]
    fn debug_builds_catch_a_non_fifo_delivery() {
        let mut mb = Mailbox::new(0, 2);
        mb.receive(1, 5, || msg(1, 5, 2, 0));
        mb.receive(1, 5, || msg(1, 5, 2, 0));
    }
}

//! Ranks as threads: the one launcher and the one channel mesh of every
//! in-process machine (dmsim, native, and mp's thread mode).
//!
//! [`on_threads`] runs one scoped thread per rank and, if any rank panicked,
//! panics once with every failed rank's own message.  [`links`] is the
//! channel mesh of the backends whose ranks talk in-process.  A [`Link`]
//! dropped while its thread unwinds poisons every peer, so a peer blocked in
//! [`Link::pull`] fails at once naming the dead rank; one dropped on a
//! normal return just hangs up, so a peer left waiting on finished ranks
//! fails too.  Nothing waits for good on a failed rank.

use std::any::Any;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::{Arrival, Tag};

/// Run `body(rank, per_rank[rank])` on one scoped thread per rank and join
/// them all: each rank's result or panic payload, in rank order.
pub fn join_all<L, R>(
    per_rank: Vec<L>,
    body: impl Fn(usize, L) -> R + Sync,
) -> Vec<std::thread::Result<R>>
where
    L: Send,
    R: Send,
{
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (per_rank.into_iter().enumerate())
            .map(|(rank, local)| scope.spawn(move || body(rank, local)))
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    })
}

/// [`join_all`] for an SPMD program: the results in rank order, or — once
/// every rank has stopped — one panic, `SPMD worker panicked: ` followed by
/// each failed rank's own message in rank order (`rank 0: …; rank 2: …`).
pub fn on_threads<L, R>(per_rank: Vec<L>, body: impl Fn(usize, L) -> R + Sync) -> Vec<R>
where
    L: Send,
    R: Send,
{
    let (mut results, mut failures) = (Vec::new(), Vec::new());
    for (rank, outcome) in join_all(per_rank, body).into_iter().enumerate() {
        match outcome {
            Ok(result) => results.push(result),
            Err(cause) => failures.push(format!("rank {rank}: {}", panic_text(cause.as_ref()))),
        }
    }
    if !failures.is_empty() {
        panic!("SPMD worker panicked: {}", failures.join("; "));
    }
    results
}

/// A panic payload as text (panics carry `&str` or `String` in practice).
pub fn panic_text(cause: &(dyn Any + Send)) -> String {
    let text = cause.downcast_ref::<&str>().copied();
    let text = text.or_else(|| cause.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("worker panicked with a non-string payload")
        .to_string()
}

/// What a [`Link`]'s channels carry: a message, or the news that a peer's
/// thread is unwinding.
enum Packet<M> {
    Message(Arrival<M>),
    Poison { src: usize },
}

/// One rank's end of the channel mesh: a sender to every peer and its own
/// receiver.  Its failures panic naming the backend, the rank, the peer and
/// the tag.
pub struct Link<M> {
    rank: usize,
    backend: &'static str,
    /// This rank's own sender is disconnected (self-sends never reach the
    /// channel), so the receiver hangs up once every peer has.
    peers: Vec<Sender<Packet<M>>>,
    inbox: Receiver<Packet<M>>,
}

/// The channel mesh of `nprocs` ranks, one [`Link`] each, in rank order;
/// `backend` (`dmsim`, `native`) prefixes their failure messages.
pub fn links<M: Send>(nprocs: usize, backend: &'static str) -> Vec<Link<M>> {
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel()).unzip();
    let link = |(rank, inbox)| {
        let mut peers = senders.clone();
        peers[rank] = channel().0;
        Link {
            rank,
            backend,
            peers,
            inbox,
        }
    };
    inboxes.into_iter().enumerate().map(link).collect()
}

impl<M> Link<M> {
    /// The backend this link's failure messages name.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Hand `arrival` to rank `dst`; panics if `dst` has already exited.
    pub fn send(&self, dst: usize, arrival: Arrival<M>) {
        let tag = arrival.tag;
        if self.peers[dst].send(Packet::Message(arrival)).is_err() {
            let (backend, me) = (self.backend, self.rank);
            panic!("{backend} rank {me}: destination rank {dst} hung up (send tag {tag:#x})");
        }
    }

    /// Hand `arrival` to rank `dst` if it is still running; dropped if not.
    pub fn offer(&self, dst: usize, arrival: Arrival<M>) {
        let _ = self.peers[dst].send(Packet::Message(arrival));
    }

    /// Block for the next arrival from any peer: the `pull` of a
    /// [`Mailbox::receive`](crate::Mailbox::receive) of `(src, tag)`, named
    /// in the failures — a peer panicked, or every peer hung up.
    pub fn pull(&self, src: usize, tag: Tag) -> Arrival<M> {
        let (backend, me) = (self.backend, self.rank);
        match self.inbox.recv() {
            Ok(Packet::Message(arrival)) => arrival,
            Ok(Packet::Poison { src: dead }) => panic!(
                "{backend} rank {me}: peer rank {dead} panicked mid-run while rank {me} waited \
                 for tag {tag:#x} from rank {src}"
            ),
            Err(_) => panic!(
                "{backend} rank {me}: all peer ranks hung up while rank {me} waited for \
                 tag {tag:#x} from rank {src}"
            ),
        }
    }

    /// The next arrival if one is already here; panics if a peer panicked.
    pub fn try_pull(&self) -> Option<Arrival<M>> {
        match self.inbox.try_recv().ok()? {
            Packet::Message(arrival) => Some(arrival),
            Packet::Poison { src: dead } => {
                let (backend, me) = (self.backend, self.rank);
                panic!("{backend} rank {me}: peer rank {dead} panicked mid-run")
            }
        }
    }
}

impl<M> Drop for Link<M> {
    /// Poison every peer if this rank's thread is unwinding (a peer that
    /// has exited needs no waking).
    fn drop(&mut self) {
        if std::thread::panicking() {
            for peer in &self.peers {
                let _ = peer.send(Packet::Poison { src: self.rank });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_failed_rank_is_named_with_its_own_message() {
        let cause = std::panic::catch_unwind(|| {
            on_threads(vec![(); 4], |rank, ()| {
                if rank % 2 == 1 {
                    panic!("odd rank {rank} fails");
                }
            })
        })
        .expect_err("two ranks panicked");
        assert_eq!(
            panic_text(cause.as_ref()),
            "SPMD worker panicked: rank 1: odd rank 1 fails; rank 3: odd rank 3 fails"
        );
    }
}

//! [`MpProc`]: the [`Process`] implementation over socket-connected OS
//! processes.
//!
//! One `MpProc` owns this rank's end of a full peer mesh: a connected
//! stream per peer, split into a buffered reader (owned here, read only
//! when this rank blocks in `recv`) and a writer thread (so `send` never
//! blocks on a peer's kernel buffer — the [`Process`] contract).
//!
//! Shared with the native backend, in `kali-process`: message matching (the
//! pending buffer, per-channel FIFO, `queue_peak`) is [`Mailbox`], and the
//! barrier, exchange and allgather are [`collectives`] over this backend's
//! `send` / `recv` — so the two record equal traces for one program.  This
//! transport's own: the [`Wire`] codec and type hash, framing, the writer
//! threads, `wire_bytes`.
//!
//! Every transport failure is fatal and **structured**: a truncated or
//! corrupt frame, a type-hash mismatch, or a peer hangup panics with the
//! receiving rank, the peer rank and the tag in the message — the
//! fail-fast analogue of the poison packets of the in-process backends'
//! channel mesh (here the closed socket itself is the poison).

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::thread::JoinHandle;

use kali_process::trace::{Event, EventKind, TraceRecorder};
use kali_process::wire::{from_bytes, to_bytes};
use kali_process::{collectives, tags, Arrival, Counters, Mailbox, Process, Tag, Wire};

use crate::frame::{self, FrameError, HEADER_LEN};

/// One peer's sending half: an unbounded queue drained by a writer thread.
struct Writer {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    handle: Option<JoinHandle<()>>,
}

impl Writer {
    /// Spawn the writer thread for one peer stream.  The thread drains the
    /// queue with blocking `write_all`s; a write error means the peer is
    /// gone, so the thread discards the rest of the queue and exits (the
    /// receiving side reports the failure with full context).
    fn spawn(mut stream: UnixStream) -> Writer {
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let handle = std::thread::spawn(move || {
            for bytes in rx {
                if stream.write_all(&bytes).is_err() {
                    break;
                }
            }
        });
        Writer {
            tx: Some(tx),
            handle: Some(handle),
        }
    }
}

/// Per-process handle of a multi-process run — the socket-transport
/// implementation of [`Process`].
pub struct MpProc {
    rank: usize,
    nprocs: usize,
    /// Buffered reader per peer (`None` at this rank's own slot).
    readers: Vec<Option<BufReader<UnixStream>>>,
    /// Writer-thread handle per peer (`None` at this rank's own slot).
    writers: Vec<Option<Writer>>,
    /// Out-of-order arrivals and self-sends, matched on `(src, tag)`; a
    /// parked frame is its type hash and encoded payload.
    mailbox: Mailbox<(u32, Vec<u8>)>,
    /// Monotonic counter deriving collective tags (lockstep across ranks).
    coll_seq: u64,
    /// Bytes actually written to the transport by this rank: encoded
    /// payloads plus frame headers, surfaced as `Counters::wire_bytes`.
    wire_bytes: u64,
    recorder: TraceRecorder,
}

impl std::fmt::Debug for MpProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpProc")
            .field("rank", &self.rank)
            .field("nprocs", &self.nprocs)
            .field("queue_peak", &self.mailbox.peak())
            .field("wire_bytes", &self.wire_bytes)
            .finish_non_exhaustive()
    }
}

impl MpProc {
    /// Build a process handle from pre-connected peer streams.
    ///
    /// `peers[s]` must be a stream whose other end belongs to rank `s`;
    /// the slot at this rank's own index must be `None` (self-sends bypass
    /// the transport).  [`MpMachine`](crate::MpMachine) calls this after
    /// the mesh bootstrap; tests may call it directly over
    /// [`UnixStream::pair`] halves.
    pub fn from_peer_streams(rank: usize, nprocs: usize, peers: Vec<Option<UnixStream>>) -> MpProc {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} procs");
        assert_eq!(peers.len(), nprocs, "one peer slot per rank");
        assert!(peers[rank].is_none(), "a rank has no stream to itself");
        let mut readers = Vec::with_capacity(nprocs);
        let mut writers = Vec::with_capacity(nprocs);
        for (s, peer) in peers.into_iter().enumerate() {
            match peer {
                Some(stream) => {
                    assert_ne!(s, rank, "a rank has no stream to itself");
                    let write_half = stream
                        .try_clone()
                        .expect("cloning a unix stream for the writer thread");
                    readers.push(Some(BufReader::new(stream)));
                    writers.push(Some(Writer::spawn(write_half)));
                }
                None => {
                    readers.push(None);
                    writers.push(None);
                }
            }
        }
        MpProc {
            rank,
            nprocs,
            readers,
            writers,
            mailbox: Mailbox::new(rank, nprocs),
            coll_seq: 0,
            wire_bytes: 0,
            recorder: TraceRecorder::default(),
        }
    }

    /// Enter a collective: record its trace marker and draw its tag.
    fn begin_collective(&mut self, op: &'static str) -> Tag {
        self.recorder
            .record(self.rank, EventKind::Collective { op });
        let tag = tags::collective_tag(self.coll_seq);
        self.coll_seq += 1;
        tag
    }
}

impl Drop for MpProc {
    /// Flush the transport: drop every writer queue (ending its thread once
    /// the queue drains) and join the threads, so every frame queued before
    /// the drop is on the wire — or its peer is known-gone — before the
    /// sockets close.
    fn drop(&mut self) {
        for writer in self.writers.iter_mut().flatten() {
            writer.tx.take();
        }
        for writer in self.writers.iter_mut().flatten() {
            if let Some(handle) = writer.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Process for MpProc {
    /// No cost hook is overridden: a wall-clock backend charges nothing.
    const METERS: bool = false;

    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Encode and ship one value.  Never blocks: the frame goes to the
    /// destination's writer queue (or straight to the pending buffer for a
    /// self-send).
    fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
        let me = self.rank;
        let seq = self.mailbox.stamp(dst);
        self.recorder.record(me, EventKind::Send { dst, tag });
        let payload = to_bytes(&value);
        let tyh = frame::type_hash::<T>();
        if dst == me {
            // Self-sends bypass the transport but keep the encode/decode
            // round trip, so a self-message exercises the same codec path.
            self.mailbox.park(Arrival {
                src: me,
                tag,
                seq,
                payload: (tyh, payload),
            });
            return;
        }
        self.wire_bytes += (HEADER_LEN + payload.len()) as u64;
        let bytes = frame::frame_bytes(seq, tag, tyh, &payload);
        let tx = self.writers[dst]
            .as_ref()
            .and_then(|w| w.tx.as_ref())
            .expect("writer thread present for every peer");
        if tx.send(bytes).is_err() {
            panic!("mp rank {me}: destination rank {dst} hung up (send tag {tag:#x})");
        }
    }

    fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        self.send(dst, tag, values);
    }

    /// Block until the frame matching `(src, tag)` arrives and decode it.
    ///
    /// Frames for other tags from the same peer are parked in arrival
    /// (= send) order.  Every transport or codec failure panics with the
    /// receiving rank, the peer rank and the tag — structured fail-fast
    /// instead of a hang.
    fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        let me = self.rank;
        let (tyh, payload) = self.mailbox.receive(src, tag, || {
            // The mailbox has range-checked `src` and ruled out this rank's
            // own (empty) slot before it polls the transport.
            let reader = self.readers[src].as_mut().expect("a stream to every peer");
            match frame::read_frame(reader) {
                Ok(frame) => Arrival {
                    src,
                    tag: frame.tag,
                    seq: frame.seq,
                    payload: (frame.type_hash, frame.payload),
                },
                Err(FrameError::Closed) => panic!(
                    "mp rank {me}: peer rank {src} hung up while rank {me} waited \
                     for tag {tag:#x} (peer exited or panicked mid-run)"
                ),
                Err(e) => panic!(
                    "mp rank {me}: corrupt frame from rank {src} while waiting for \
                     tag {tag:#x}: {e}"
                ),
            }
        });
        if tyh != frame::type_hash::<T>() {
            panic!(
                "mp rank {me}: message type mismatch from rank {src} on tag {tag:#x}: \
                 expected {expected} (hash {eh:#010x}), frame carries hash {gh:#010x}",
                expected = std::any::type_name::<T>(),
                eh = frame::type_hash::<T>(),
                gh = tyh,
            );
        }
        self.recorder.record(me, EventKind::Recv { src, tag });
        from_bytes::<T>(&payload).unwrap_or_else(|e| {
            panic!(
                "mp rank {me}: undecodable payload from rank {src} on tag {tag:#x} \
                 (type {ty}): {e}",
                ty = std::any::type_name::<T>(),
            )
        })
    }

    fn barrier(&mut self) {
        let tag = self.begin_collective("barrier");
        collectives::dissemination_barrier(self, tag);
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        let tag = self.begin_collective("exchange");
        collectives::direct_exchange(self, tag, items)
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.begin_collective("allgather");
        collectives::direct_allgather(self, tag, items)
    }

    // `allreduce` / `allgather_doubling` use the trait's provided
    // binomial-tree implementations over this backend's `send`/`recv`, so
    // the bracketing (and the bits) match dmsim, native and the sequential
    // replay.

    /// The mp backend meters what only a real transport can: bytes on the
    /// wire (`wire_bytes`), plus the pending-buffer high-water mark.
    fn counters(&self) -> Counters {
        Counters {
            queue_peak: self.mailbox.peak(),
            wire_bytes: self.wire_bytes,
            ..Counters::default()
        }
    }

    fn trace_start(&mut self) {
        self.recorder.start();
    }

    fn trace_take(&mut self) -> Vec<Event> {
        self.recorder.take()
    }

    fn trace_active(&self) -> bool {
        self.recorder.is_active()
    }

    fn trace_emit(&mut self, kind: EventKind) {
        self.recorder.record(self.rank, kind);
    }
}

//! # kali-mp — the multi-process socket backend of the Kali runtime
//!
//! The third executable backend of the reproduction, and the first whose
//! messages leave the process: every rank is a real OS process (or, in
//! embedder mode, a thread) and every message crosses a Unix-domain socket
//! as a length-prefixed frame carrying a [`Wire`](kali_process::Wire)
//! encoding.  Where dmsim *models* the paper's distributed-memory machine
//! and the native backend runs threads over in-process channels, this
//! backend is the "system" half of ROADMAP's simulator-vs-system gate:
//! nothing can be smuggled between ranks through shared memory, because
//! there is none.
//!
//! * [`frame`] — the wire format: `[len | seq | tag | type-hash]` headers,
//!   total reads, structured [`frame::FrameError`]s.
//! * [`MpProc`] — the [`Process`](kali_process::Process) implementation:
//!   tag-addressed delivery with per-channel FIFO, writer threads so sends
//!   never block, the same rank-ordered collectives and binomial-tree
//!   allreduce bracketing as every other backend, a trace recorder, and
//!   measured `wire_bytes` metering.
//! * [`MpMachine`] — run construction: [`MpMachine::run`] re-executes the
//!   current test binary to get one worker process per rank (the workspace
//!   forbids `unsafe`, hence no `fork`), [`MpMachine::run_threads`] drives
//!   the identical socket transport with threads as rank containers for
//!   embedders whose results are not `Wire`.
//!
//! The backend joins the equivalence suite as the fourth column: results
//! are bitwise identical to dmsim, native and the sequential replay for
//! every solver and distribution in the repository's tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod frame;
mod machine;
mod proc;

pub use machine::MpMachine;
pub use proc::MpProc;

#[cfg(test)]
mod tests {
    use super::*;
    use kali_process::Process;
    use std::os::unix::net::UnixStream;

    /// A connected two-rank pair over socketpairs, no filesystem involved.
    fn pair() -> (MpProc, MpProc) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (
            MpProc::from_peer_streams(0, 2, vec![None, Some(a)]),
            MpProc::from_peer_streams(1, 2, vec![Some(b), None]),
        )
    }

    #[test]
    fn send_recv_round_trips_across_a_socketpair() {
        let (mut p0, mut p1) = pair();
        p0.send(1, 7, 0.1f64);
        p0.send_vec(1, 8, vec![1u64, 2, 3]);
        let x: f64 = p1.recv(0, 7);
        let v: Vec<u64> = p1.recv_vec(0, 8);
        assert_eq!(x.to_bits(), 0.1f64.to_bits());
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_park_and_stay_fifo() {
        let (mut p0, mut p1) = pair();
        for v in [1u64, 2, 3] {
            p0.send(1, 5, v);
        }
        p0.send(1, 6, 99u64);
        let _: u64 = p1.recv(0, 6); // parks the three tag-5 frames
        let got: Vec<u64> = (0..3).map(|_| p1.recv::<u64>(0, 5)).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(p1.counters().queue_peak >= 3);
    }

    #[test]
    fn self_send_round_trips_through_the_codec() {
        let mut p = MpProc::from_peer_streams(0, 1, vec![None]);
        p.send(0, 9, (3usize, 0.5f64));
        let (a, b): (usize, f64) = p.recv(0, 9);
        assert_eq!((a, b), (3, 0.5));
        // Self-sends never touch a transport.
        assert_eq!(p.counters().wire_bytes, 0);
    }

    #[test]
    fn wire_bytes_meter_frame_headers_and_payload() {
        let (mut p0, mut p1) = pair();
        p0.send(1, 1, 5u64); // 24-byte header + 8-byte payload
        let _: u64 = p1.recv(0, 1);
        assert_eq!(p0.counters().wire_bytes, (frame::HEADER_LEN + 8) as u64);
        assert_eq!(p1.counters().wire_bytes, 0, "receives are not sends");
    }

    #[test]
    fn type_mismatch_is_a_structured_panic() {
        let (mut p0, mut p1) = pair();
        p0.send(1, 4, 1u64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: f64 = p1.recv(0, 4);
        }))
        .expect_err("type mismatch must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(msg.contains("mp rank 1"), "names the receiving rank: {msg}");
        assert!(msg.contains("rank 0"), "names the sender: {msg}");
        assert!(msg.contains("0x4"), "names the tag: {msg}");
        assert!(msg.contains("f64"), "names the expected type: {msg}");
    }

    #[test]
    fn peer_hangup_fails_fast_with_rank_and_tag() {
        let (p0, mut p1) = pair();
        drop(p0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: u64 = p1.recv(0, 0x33);
        }))
        .expect_err("hangup must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(msg.contains("mp rank 1"), "names the waiter: {msg}");
        assert!(msg.contains("rank 0"), "names the dead peer: {msg}");
        assert!(msg.contains("0x33"), "names the tag: {msg}");
    }

    #[test]
    fn threads_mode_runs_collectives_across_sockets() {
        let m = MpMachine::new(4);
        let r = m.run_threads(|p| {
            let items: Vec<(usize, (usize, usize))> =
                (0..p.nprocs()).map(|dst| (dst, (p.rank(), dst))).collect();
            let exchanged = p.exchange(items);
            p.barrier();
            let gathered = p.allgather(vec![p.rank() as u64]);
            let sum = p.allreduce_sum_f64(0.1 * (p.rank() as f64 + 1.0));
            (exchanged, gathered, sum)
        });
        for (rank, (exchanged, gathered, sum)) in r.iter().enumerate() {
            let expected: Vec<(usize, usize)> = (0..4).map(|src| (src, rank)).collect();
            assert_eq!(*exchanged, expected, "rank-ordered exchange merge");
            assert_eq!(
                *gathered,
                (0..4).map(|r| vec![r as u64]).collect::<Vec<_>>()
            );
            assert_eq!(sum.to_bits(), r[0].2.to_bits(), "bitwise identical sums");
        }
    }

    #[test]
    fn threads_mode_is_deterministic_across_runs() {
        let run = || {
            MpMachine::new(3).run_threads(|p| {
                let items: Vec<(usize, u64)> = (0..p.nprocs())
                    .map(|d| (d, (p.rank() * 100 + d) as u64))
                    .collect();
                let exchanged = p.exchange(items);
                let sum = p.allreduce_sum_f64(exchanged.iter().sum::<u64>() as f64);
                (exchanged, sum.to_bits())
            })
        };
        assert_eq!(run(), run(), "results must not depend on socket timing");
    }

    #[test]
    fn wire_impl_for_range_like_tuples_survives_collectives() {
        // The inspector's exchange payload shape: routed tuples.
        let r = MpMachine::new(3).run_threads(|p| {
            let items: Vec<(usize, (usize, usize, usize))> = (0..p.nprocs())
                .map(|d| (d, (p.rank(), d, p.rank() * d)))
                .collect();
            p.exchange(items)
        });
        for (rank, got) in r.iter().enumerate() {
            let expected: Vec<(usize, usize, usize)> =
                (0..3).map(|src| (src, rank, src * rank)).collect();
            assert_eq!(*got, expected);
        }
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn worker_panic_fails_fast_across_the_mesh() {
        // Rank 0 panics while the others block in recv on it; its closing
        // sockets are the poison — peers see EOF (or a reset, which the
        // frame reader takes for EOF) and panic with the hang-up, and
        // `on_threads` reports every failed rank's message to the caller.
        MpMachine::new(3).run_threads(|p| {
            if p.rank() == 0 {
                panic!("deliberate worker failure");
            }
            let _: u64 = p.recv(0, 1);
        });
    }
}

//! Collective conformance: one generic program on the dmsim simulator, the
//! native threaded backend and the mp socket backend (threads as rank
//! containers, so all three share this process's atomics).
//!
//! Native and mp run the same `kali_process::collectives` over their own
//! `send` / `recv`: their results must agree element for element and their
//! recorded traces must be *equal*.  The simulator routes its exchange
//! through the crystal router and completes it with wildcard receives, so it
//! agrees on content, not on order or on the message pattern.

use std::sync::atomic::{AtomicUsize, Ordering};

use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::mp::MpMachine;
use kali_repro::native::NativeMachine;
use kali_repro::process::trace::{Event, EventKind};
use kali_repro::process::Process;

/// What one rank observed.
struct Seen {
    /// Ranks that had entered barrier `k` when this rank left it.
    entered_when_leaving: [usize; 2],
    exchanged: Vec<(usize, usize, usize)>,
    gathered: Vec<Vec<u64>>,
    trace: Vec<Event>,
}

/// Items rank `src` routes to rank `dst`: uneven, sometimes none, own rank
/// included.
fn routed(src: usize, dst: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..(src + dst) % 3).map(move |k| (src, dst, k))
}

fn contribution(rank: usize) -> Vec<u64> {
    (0..rank % 3).map(|k| (rank * 10 + k) as u64).collect()
}

fn program<P: Process>(proc: &mut P, entered: &[AtomicUsize; 2]) -> Seen {
    let (me, n) = (proc.rank(), proc.nprocs());
    proc.trace_start();
    // Two barriers back to back: nobody may leave either before everybody
    // has entered it.
    let entered_when_leaving = [0, 1].map(|k| {
        entered[k].fetch_add(1, Ordering::SeqCst);
        proc.barrier();
        entered[k].load(Ordering::SeqCst)
    });
    let items = (0..n).flat_map(|dst| routed(me, dst).map(move |item| (dst, item)));
    let exchanged = proc.exchange(items.collect());
    let gathered = proc.allgather(contribution(me));
    proc.barrier();
    Seen {
        entered_when_leaving,
        exchanged,
        gathered,
        trace: proc.trace_take(),
    }
}

#[test]
fn direct_collectives_conform_across_backends() {
    for nprocs in [1usize, 2, 3, 5, 8] {
        let entered = || [AtomicUsize::new(0), AtomicUsize::new(0)];
        let (on_sim, on_native, on_mp) = (entered(), entered(), entered());
        let simulated = Machine::new(nprocs, CostModel::ideal()).run(|p| program(p, &on_sim));
        let native = NativeMachine::new(nprocs).run(|p| program(p, &on_native));
        let mp = MpMachine::new(nprocs).run_threads(|p| program(p, &on_mp));

        let gathered: Vec<_> = (0..nprocs).map(contribution).collect();
        for rank in 0..nprocs {
            let at = format!("P = {nprocs}, rank {rank}");
            let (s, n, m) = (&simulated[rank], &native[rank], &mp[rank]);
            // Rank-ordered on the real transports, a multiset on dmsim.
            let exchanged: Vec<_> = (0..nprocs).flat_map(|src| routed(src, rank)).collect();
            assert_eq!(n.exchanged, exchanged, "native exchange, {at}");
            assert_eq!(m.exchanged, exchanged, "mp exchange, {at}");
            let mut sorted = s.exchanged.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, exchanged, "dmsim exchange, {at}");
            assert_eq!(n.trace, m.trace, "native and mp traces differ, {at}");

            for (backend, seen) in [("dmsim", s), ("native", n), ("mp", m)] {
                assert_eq!(seen.entered_when_leaving, [nprocs; 2], "{backend}, {at}");
                assert_eq!(seen.gathered, gathered, "{backend} allgather, {at}");
            }
            // Every collective draws a fresh tag: no channel is used twice
            // (by either transport, their traces being equal).
            let sends = n.trace.iter().filter_map(|e| match e.kind {
                EventKind::Send { dst, tag } => Some((dst, tag)),
                _ => None,
            });
            let mut channels: Vec<_> = sends.collect();
            let sent = channels.len();
            channels.sort_unstable();
            channels.dedup();
            assert_eq!(channels.len(), sent, "a channel is reused, {at}");
        }
    }
}

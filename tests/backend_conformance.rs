//! Collective conformance: one generic program on the dmsim simulator, the
//! native threaded backend and the mp socket backend (threads as rank
//! containers, so all three share this process's atomics).
//!
//! Native and mp run the same `kali_process::collectives` over their own
//! `send` / `recv`: their results must agree element for element and their
//! recorded traces must be *equal*.  The simulator runs them too, except
//! that its exchange at a power-of-two rank count is the paper's crystal
//! router, which delivers the same items in another order over another
//! message pattern; at any other rank count it falls back to the shared
//! exchange, and then its results and its trace are native's.  On every
//! backend each collective, and each stage of one, sends on a channel of
//! its own: no `(destination, tag)` pair is used twice.
//!
//! What the backends declare about themselves is checked here as well:
//! [`Process::METERS`]; and so is how they fail: a rank's panic reaches the
//! caller with the rank's own message, and never as a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{self, CostModel, Machine};
use kali_repro::kali::inspector::{owner_computes_iters, run_inspector};
use kali_repro::kali::{execute_sweep, ExecutorConfig};
use kali_repro::mp::{MpMachine, MpProc};
use kali_repro::native::{NativeMachine, NativeProc};
use kali_repro::process::trace::{Event, EventKind};
use kali_repro::process::{Process, Wire};

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
            // Rank-ordered, except under the crystal router: a multiset.
            let exchanged: Vec<_> = (0..nprocs).flat_map(|src| routed(src, rank)).collect();
            assert_eq!(n.exchanged, exchanged, "native exchange, {at}");
            assert_eq!(m.exchanged, exchanged, "mp exchange, {at}");
            assert_eq!(n.trace, m.trace, "native and mp traces differ, {at}");
            if nprocs.is_power_of_two() && nprocs > 1 {
                let mut sorted = s.exchanged.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, exchanged, "dmsim exchange, {at}");
            } else {
                assert_eq!(s.exchanged, exchanged, "dmsim exchange, {at}");
                assert_eq!(s.trace, n.trace, "dmsim and native traces differ, {at}");
            }

            for (backend, seen) in [("dmsim", s), ("native", n), ("mp", m)] {
                assert_eq!(seen.entered_when_leaving, [nprocs; 2], "{backend}, {at}");
                assert_eq!(seen.gathered, gathered, "{backend} allgather, {at}");
            }
            // Every collective draws a fresh tag and puts its stages above
            // it: no channel is used twice (by either transport, their
            // traces being equal, nor by the crystal router's stages).
            for (backend, seen) in [("dmsim", s), ("native", n)] {
                let sends = seen.trace.iter().filter_map(|e| match e.kind {
                    EventKind::Send { dst, tag } => Some((dst, tag)),
                    _ => None,
                });
                let mut channels: Vec<_> = sends.collect();
                let sent = channels.len();
                channels.sort_unstable();
                channels.dedup();
                assert_eq!(
                    channels.len(),
                    sent,
                    "a channel is reused on {backend}, {at}"
                );
            }
        }
    }
}

/// Rank 0 fails while its peers wait for it.
fn failing<P: Process>(proc: &mut P) {
    if proc.rank() == 0 {
        panic!("deliberate worker failure");
    }
    let _: u64 = proc.recv(0, 1);
}

/// The message a call panics with.
fn panic_text(run: impl FnOnce()) -> String {
    let cause = catch_unwind(AssertUnwindSafe(run)).expect_err("the run must fail");
    *cause.downcast::<String>().expect("a formatted message")
}

#[test]
fn a_rank_panic_reaches_the_caller_with_its_own_message() {
    // On every in-process machine the peers blocked on the failed rank are
    // woken, and the caller learns which rank failed and why.
    let dmsim = panic_text(|| drop(Machine::new(3, CostModel::ideal()).run(failing)));
    let native = panic_text(|| drop(NativeMachine::new(3).run(failing)));
    let mp = panic_text(|| drop(MpMachine::new(3).run_threads(failing)));
    for (backend, text) in [("dmsim", dmsim), ("native", native), ("mp", mp)] {
        assert!(
            text.starts_with("SPMD worker panicked: rank 0: deliberate worker failure"),
            "{backend}: {text}"
        );
    }
}

/// Rank 1 receives a `Vec<f64>` where rank 0 sent a `u64`; rank 1's panic
/// message, caught in the rank so the run itself completes.
fn mistyped<P: Process>(proc: &mut P) -> String {
    if proc.rank() == 0 {
        proc.send(1, 0x2a, 7u64);
        return String::new();
    }
    panic_text(|| drop(proc.recv::<Vec<f64>>(0, 0x2a)))
}

#[test]
fn a_receive_of_another_type_names_the_backend_rank_peer_and_tag() {
    // The two in-process machines share one transport and so one message;
    // mp decodes bytes and reports its own codec error instead.
    let dmsim = Machine::new(2, CostModel::ideal()).run(mistyped);
    let native = NativeMachine::new(2).run(mistyped);
    for (backend, texts) in [("dmsim", dmsim), ("native", native)] {
        let text = &texts[1];
        let want = format!("{backend} rank 1: message type mismatch from rank 0 on tag 0x2a: ");
        assert!(
            text.starts_with(&want) && text.ends_with("expected alloc::vec::Vec<f64>"),
            "{text}"
        );
    }
}

/// A backend handle wrapped the way a tracing or timing layer would wrap it:
/// every message forwarded, every charge written down — and
/// [`Process::METERS`] not mentioned, so it is the metering default.
struct Ledger<'a, P: Process> {
    inner: &'a mut P,
    charges: Vec<(&'static str, usize)>,
}

impl<P: Process> Process for Ledger<'_, P> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn send<T: Wire>(&mut self, dst: usize, tag: u64, value: T) {
        self.inner.send(dst, tag, value)
    }
    fn send_vec<T: Wire>(&mut self, dst: usize, tag: u64, values: Vec<T>) {
        self.inner.send_vec(dst, tag, values)
    }
    fn recv<T: Wire>(&mut self, src: usize, tag: u64) -> T {
        self.inner.recv(src, tag)
    }
    fn barrier(&mut self) {
        self.inner.barrier()
    }
    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        self.inner.exchange(items)
    }
    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.inner.allgather(items)
    }
    fn charge_flops(&mut self, n: usize) {
        self.charges.push(("flops", n));
    }
    fn charge_mem_refs(&mut self, n: usize) {
        self.charges.push(("mem_refs", n));
    }
    fn charge_loop_iters(&mut self, n: usize) {
        self.charges.push(("loop_iters", n));
    }
    fn charge_calls(&mut self, n: usize) {
        self.charges.push(("calls", n));
    }
    fn charge_local_access(&mut self) {
        self.charges.push(("local_access", 1));
    }
    fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.charges.push(("nonlocal_access", ranges));
    }
}

/// The shift of Figure 1 under a [`Ledger`], with a body that charges: what
/// two sweeps charged this rank, hook by hook, and the shifted values.
fn metered_shift<P: Process>(proc: &mut P) -> (Vec<(&'static str, usize)>, Vec<f64>) {
    let n = 40;
    let mut ledger = Ledger {
        inner: proc,
        charges: Vec::new(),
    };
    let dist = DimDist::block(n, ledger.nprocs());
    let rank = ledger.rank();
    let local: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
    let exec = owner_computes_iters(&dist, rank, n - 1);
    let schedule = run_inspector(&mut ledger, &dist, &exec, |i, refs| refs.push(i + 1));
    ledger.charges.clear(); // the inspector's own
    let mut shifted = local.clone();
    // Inline with one chunk, then on the pool with chunks of four.
    for (sweep, (workers, chunk)) in [(1, 0), (3, 4)].into_iter().enumerate() {
        execute_sweep(
            &mut ledger,
            ExecutorConfig::sweep(sweep)
                .with_workers(workers)
                .with_chunk(chunk),
            &schedule,
            &dist,
            &dist,
            &local,
            |i, fetch| {
                fetch.charge_flops(2);
                fetch.charge_mem_refs(3);
                fetch.charge_calls(1);
                (fetch.home(), fetch.fetch(i + 1))
            },
            |_, (l, v)| shifted[l] = v,
        );
    }
    (ledger.charges, shifted)
}

#[test]
fn metering_is_a_fact_about_the_backend_and_the_default_meters() {
    // The simulator prices every hook, native and mp override none, and a
    // wrapper that says nothing meters whatever it wraps.
    let meters = [
        dmsim::Proc::METERS,
        NativeProc::METERS,
        MpProc::METERS,
        Ledger::<NativeProc>::METERS,
    ];
    assert_eq!(meters, [true, false, false, true]);

    // So the wrapper is charged on native and on mp what it is charged on
    // the simulator, hook by hook and in the same order, however the sweep
    // is chunked.
    let simulated = Machine::new(2, CostModel::ncube7()).run(metered_shift);
    let native = NativeMachine::new(2).run(metered_shift);
    let mp = MpMachine::new(2).run_threads(metered_shift);
    for rank in 0..2 {
        let (charges, shifted) = &simulated[rank];
        let total = |hook| -> usize {
            let of_hook = charges.iter().filter(|(name, _)| *name == hook);
            of_hook.map(|&(_, n)| n).sum()
        };
        // 20 owned iterations on rank 0, 19 on rank 1 (the last element
        // has no right neighbour), two sweeps of each.
        let iterations = 2 * (20 - rank);
        assert_eq!(total("loop_iters"), iterations, "rank {rank}");
        assert_eq!(total("flops"), 2 * iterations, "rank {rank}");
        assert_eq!(total("calls"), iterations, "rank {rank}");
        let accesses = |hook| charges.iter().filter(|(name, _)| *name == hook).count();
        assert_eq!(
            accesses("local_access") + accesses("nonlocal_access"),
            iterations,
            "rank {rank}"
        );
        assert_eq!(accesses("nonlocal_access"), 2 * (1 - rank), "rank {rank}");
        assert_eq!(
            &native[rank],
            &(charges.clone(), shifted.clone()),
            "native, rank {rank}"
        );
        assert_eq!(
            &mp[rank],
            &(charges.clone(), shifted.clone()),
            "mp, rank {rank}"
        );
    }
}

//! [`Process`] implementation for the simulator's [`Proc`].
//!
//! This is what lets the backend-independent Kali runtime (`kali-core`,
//! `solvers`) run on the simulator: point-to-point messages map onto the
//! engine's timed sends/receives, the barrier and the exchange onto the
//! [`collectives`] module (the inspector's all-to-all becomes the paper's
//! crystal router), the allgather onto the direct one every backend shares,
//! and each cost hook charges the corresponding composite price from the
//! machine's [`CostModel`](crate::CostModel) — so the paper-table accounting
//! is exactly what it was when the runtime called the simulator directly.
//!
//! Reductions (`allreduce`, `allreduce_sum_f64`) deliberately stay at the
//! trait's provided binomial-tree implementation: it runs on the timed
//! `send`/`recv` mapped here, so every tree message is charged through the
//! cost model like any other point-to-point traffic, and the bracketing
//! (hence the bits) is identical to the native backend's and the
//! sequential replay's.

use kali_process::trace::{Event, EventKind};
use kali_process::{Counters, Process, Tag, Wire};

use crate::collectives;
use crate::engine::Proc;

impl Process for Proc {
    fn rank(&self) -> usize {
        Proc::rank(self)
    }

    fn nprocs(&self) -> usize {
        Proc::nprocs(self)
    }

    fn send<T: Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        self.send_bytes(dst, tag, std::mem::size_of::<T>(), value);
    }

    fn send_vec<T: Send + 'static>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        Proc::send_vec(self, dst, tag, values);
    }

    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        self.recv_from(src, tag)
    }

    fn barrier(&mut self) {
        self.trace_emit(EventKind::Collective { op: "barrier" });
        collectives::barrier(self);
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        self.trace_emit(EventKind::Collective { op: "exchange" });
        collectives::crystal_router(self, items)
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.trace_emit(EventKind::Collective { op: "allgather" });
        let tag = self.next_collective_tag();
        kali_process::collectives::direct_allgather(self, tag, items)
    }

    fn charge_flops(&mut self, n: usize) {
        Proc::charge_flops(self, n);
    }

    fn charge_mem_refs(&mut self, n: usize) {
        Proc::charge_mem_refs(self, n);
    }

    fn charge_loop_iters(&mut self, n: usize) {
        Proc::charge_loop_iters(self, n);
    }

    fn charge_calls(&mut self, n: usize) {
        Proc::charge_calls(self, n);
    }

    fn charge_local_access(&mut self) {
        let cost = self.cost().local_access();
        self.charge_seconds(cost);
    }

    fn charge_nonlocal_access(&mut self, ranges: usize) {
        Proc::charge_nonlocal_access(self, ranges);
    }

    fn charge_locality_check(&mut self) {
        let cost = self.cost().locality_check();
        self.charge_seconds(cost);
    }

    fn charge_record_handling(&mut self, n: usize) {
        let cost = self.cost().record_handling() * n as f64;
        self.charge_seconds(cost);
    }

    fn time(&self) -> f64 {
        self.clock()
    }

    fn counters(&self) -> Counters {
        Proc::counters(self)
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
        let rank = Proc::rank(self);
        self.recorder.record(rank, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Machine};

    /// Exercise the trait surface through a generic function, the way the
    /// runtime layer uses it.
    fn ring_shift<P: Process>(p: &mut P) -> u64 {
        let right = (p.rank() + 1) % p.nprocs();
        let left = (p.rank() + p.nprocs() - 1) % p.nprocs();
        p.send(right, 7, p.rank() as u64);
        let v: u64 = p.recv(left, 7);
        p.barrier();
        v
    }

    #[test]
    fn generic_ring_shift_runs_on_the_simulator() {
        let m = Machine::new(4, CostModel::ideal());
        let r = m.run(ring_shift);
        assert_eq!(r, vec![3, 0, 1, 2]);
    }

    #[test]
    fn trait_collectives_match_direct_collectives() {
        let m = Machine::new(8, CostModel::ideal());
        let sums = m.run(|proc| {
            let via_trait = Process::allreduce_sum_f64(proc, proc.rank() as f64);
            let gathered = Process::allgather(proc, vec![proc.rank() as u64]);
            let exchanged = Process::exchange(
                proc,
                (0..proc.nprocs())
                    .map(|d| (d, proc.rank() as u64))
                    .collect(),
            );
            (via_trait, gathered, exchanged)
        });
        for (rank, (sum, gathered, mut exchanged)) in sums.into_iter().enumerate() {
            assert_eq!(sum, 28.0, "rank {rank}");
            assert_eq!(
                gathered,
                (0..8u64).map(|r| vec![r]).collect::<Vec<_>>(),
                "rank {rank}"
            );
            exchanged.sort_unstable();
            assert_eq!(exchanged, (0..8u64).collect::<Vec<_>>(), "rank {rank}");
        }
    }

    #[test]
    fn allgather_clocks_do_not_depend_on_host_arrival_order() {
        // Contributions reach each rank in rank order in the first run and
        // in reverse rank order in the second: the clocks must not notice.
        let m = Machine::new(8, CostModel::ncube7());
        let clocks = |delay_ms: fn(usize) -> u64| {
            let (_, stats) = m.run_stats(|proc| {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms(proc.rank())));
                Process::allgather(proc, vec![proc.rank() as u64]);
            });
            stats.clocks
        };
        let ascending = clocks(|rank| 5 * rank as u64);
        let descending = clocks(|rank| 5 * (8 - rank) as u64);
        assert_eq!(ascending, descending);
    }

    #[test]
    fn cost_hooks_advance_the_simulated_clock() {
        let m = Machine::new(1, CostModel::ncube7());
        let (_, stats) = m.run_stats(|proc| {
            Process::charge_locality_check(proc);
            Process::charge_local_access(proc);
            Process::charge_nonlocal_access(proc, 16);
            Process::charge_record_handling(proc, 3);
        });
        let c = CostModel::ncube7();
        let expected = c.locality_check()
            + c.local_access()
            + c.nonlocal_access(16)
            + 3.0 * c.record_handling();
        assert!((stats.time - expected).abs() < 1e-12);
    }

    #[test]
    fn trait_time_and_counters_mirror_the_engine() {
        let m = Machine::new(1, CostModel::ncube7());
        m.run(|proc| {
            Process::charge_flops(proc, 10);
            assert_eq!(Process::time(proc), proc.clock());
            assert_eq!(Process::counters(proc).flops, 10);
        });
    }
}

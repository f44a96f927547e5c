//! The [`Session`]: one per-rank handle owning the execute-side runtime
//! state a Kali program needs.
//!
//! The paper's programs are sequences of `forall`s interleaved with global
//! reductions.  Before this module, every solver hand-wired the same
//! plumbing: a `ScheduleCache` built by hand, `const LOOP_ID` magic numbers,
//! a manually threaded sweep counter for executor tags, a manually threaded
//! epoch counter for redistributions, `proc.time()` bracketing around every
//! plan call, and raw `allreduce_sum_f64` calls outside the pipeline.  A
//! `Session` owns all of it:
//!
//! * the **schedule cache** — one per session, shared by every loop the
//!   session allocates (two interleaved `forall`s — red/black half-sweeps —
//!   share the cache but never a schedule, because their loop ids differ);
//! * **loop-id allocation** ([`Session::loop_1d`], [`Session::loop_over`]) —
//!   ids are handed out in program order, which is identical on every rank
//!   of an SPMD program, so the cache keys stay in lockstep;
//! * **sweep-tag allocation** — [`Session::execute`] stamps each execution
//!   with the next tag from one monotonically increasing counter (wrapping
//!   inside the executor's tag window), so interleaved loops can never
//!   confuse their in-flight messages;
//! * **data-version tracking** — [`Session::bump_data_version`] after a mesh
//!   adaptation makes every subsequent plan re-inspect exactly once;
//! * **redistribution epochs** — [`Session::redistribute`] tags each move
//!   with the next epoch and [`Session::retire_placement`] reclaims the
//!   retired placement's schedules from the cache;
//! * **metering** — inspector time (accumulated around every plan call) and
//!   reduction counts/bytes ([`Session::execute_reduce`]), snapshotted by
//!   [`Session::stats`] for the solvers' outcome structs.
//!
//! There are two ways to run a planned sweep: [`Session::execute`] (a
//! read-only body returning one value per iteration, a sink storing the
//! values on the rank's thread) and [`Session::execute_reduce`], which makes
//! reductions **first-class loop outputs**: the body also returns one
//! contribution per iteration and the session reduces them under a typed
//! [`ReduceOp`] — deterministically ordered, so dmsim, native and a
//! sequential replay agree bit for bit — while the collective's messages are
//! charged like any other communication.

use std::sync::Arc;

use distrib::Distribution;

use crate::cache::{CacheStats, ScheduleCache};
use crate::executor::{ExecutorConfig, Fetcher};
use crate::forall::ParallelLoop;
use crate::process::trace::Event;
use crate::process::{tree_allreduce_sends, Process, Reduce, ReduceOp};
use crate::redistribute::redistribute_epoch;
use crate::schedule::CommSchedule;
use crate::space::{IterSpace, Span};
use crate::verify::{self, CollectiveCall, Violation};

/// Per-rank execute-side runtime state: schedule cache, loop-id / sweep-tag /
/// epoch allocation, data-version tracking and reduction metering (see the
/// module docs).
///
/// A `Session` is SPMD state: every rank constructs one at the same point of
/// the program and calls the same methods in the same order, which keeps the
/// allocated ids, tags, versions and cache key sequences identical
/// everywhere — the lockstep the collective inspector requires.
#[derive(Debug)]
pub struct Session {
    cache: ScheduleCache,
    next_loop_id: u64,
    sweep: usize,
    epoch: u64,
    data_version: u64,
    overlap: bool,
    workers: usize,
    chunk: usize,
    loops_allocated: u64,
    sweeps_executed: u64,
    redistributions: u64,
    reductions: u64,
    reduction_bytes: u64,
    inspector_time: f64,
    collective_trace: Vec<CollectiveCall>,
}

/// A snapshot of one session's meters, for outcome structs and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Schedule-cache meters (hits, misses, evictions, residency).
    pub cache: CacheStats,
    /// Loops allocated by this session.
    pub loops_allocated: u64,
    /// Sweeps executed (plain and reducing).
    pub sweeps_executed: u64,
    /// Redistributions performed.
    pub redistributions: u64,
    /// Reductions performed ([`Session::execute_reduce`] calls).
    pub reductions: u64,
    /// Payload bytes this rank sent for those reductions: the tree
    /// allreduce's per-rank share, `tree_allreduce_sends(P, rank) ·
    /// size_of::<Acc>()` per reduction (summed over ranks this is the
    /// tree's `2(P − 1)` messages).
    pub reduction_bytes: u64,
    /// Simulated seconds this rank spent planning (inspector + closed-form
    /// analysis), accumulated around every plan call.
    pub inspector_time: f64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// Read a non-negative integer knob from the environment; unset, empty or
/// unparsable values fall back to the caller's default.
fn env_knob(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl Session {
    /// A session with the default schedule-cache capacity.
    pub fn new() -> Self {
        Session::with_cache_capacity(crate::cache::DEFAULT_CAPACITY)
    }

    /// A session whose schedule cache holds at most `capacity` schedules.
    ///
    /// The intra-rank worker-pool knobs initialise from the environment:
    /// `KALI_WORKERS` (threads per rank for the executor's chunks, default 1)
    /// and `KALI_CHUNK` (chunk length in iterations, default 0 = auto).
    /// Neither affects results — only wall-clock speed on the native
    /// backend — which is what lets an unmodified program be driven at any
    /// worker count from the outside.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Session {
            cache: ScheduleCache::with_capacity(capacity),
            next_loop_id: 1,
            sweep: 0,
            epoch: 0,
            data_version: 0,
            overlap: true,
            workers: env_knob("KALI_WORKERS").unwrap_or(1).max(1),
            chunk: env_knob("KALI_CHUNK").unwrap_or(0),
            loops_allocated: 0,
            sweeps_executed: 0,
            redistributions: 0,
            reductions: 0,
            reduction_bytes: 0,
            inspector_time: 0.0,
            collective_trace: Vec::new(),
        }
    }

    /// Set whether executions overlap communication with local iterations
    /// (the paper's executor shape; disabling it is the ablation knob).
    pub fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
    }

    /// Builder form of [`Session::set_overlap`].
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.set_overlap(overlap);
        self
    }

    /// Set the intra-rank worker-thread count for executions (clamped to
    /// at least 1).  With 1 worker no threads are spawned; any other count
    /// changes wall-clock speed only, never results — the executor's
    /// determinism contract ([`execute_sweep`](crate::execute_sweep)).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The intra-rank worker-thread count executions will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Builder form of [`Session::set_workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Set the chunk length (iterations per chunk) for executions;
    /// `0` picks the default and spaces may round it up to their preferred
    /// alignment (whole rows for `Rect`).  Never affects results.
    pub fn set_chunk_size(&mut self, chunk: usize) {
        self.chunk = chunk;
    }

    /// The configured chunk length (`0` = auto).
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    // ----------------------------------------------------------------
    // Loop allocation
    // ----------------------------------------------------------------

    /// Allocate the next loop id.  Ids are handed out in program order
    /// (identical on every rank of an SPMD program) and are unique within
    /// the session — which is all the session's own cache requires.
    pub fn alloc_loop_id(&mut self) -> u64 {
        let id = self.next_loop_id;
        self.next_loop_id += 1;
        self.loops_allocated += 1;
        id
    }

    /// Describe a loop over `space` with an owner-computes on-clause,
    /// allocating its id from this session.
    pub fn loop_over<S: IterSpace>(&mut self, space: S, on_dist: S::Dist) -> ParallelLoop<S> {
        let id = self.alloc_loop_id();
        ParallelLoop::over(id, space, on_dist)
    }

    /// Describe `forall i in 0..n on A[i].loc` (the 1-D shorthand),
    /// allocating its id from this session.
    pub fn loop_1d(&mut self, n: usize, on_dist: distrib::DimDist) -> ParallelLoop<Span> {
        self.loop_over(Span::upto(n), on_dist)
    }

    // ----------------------------------------------------------------
    // Data versions
    // ----------------------------------------------------------------

    /// The current data version (the generation of the run-time data
    /// controlling subscripts — the paper's `adj` array).
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Bump the data version (after a mesh adaptation): every subsequent
    /// plan misses once, and the cache's generation self-invalidation
    /// reclaims the dead generation's schedules.  Returns the new version.
    pub fn bump_data_version(&mut self) -> u64 {
        self.data_version += 1;
        self.data_version
    }

    // ----------------------------------------------------------------
    // Planning (timed, against the session's cache and version)
    // ----------------------------------------------------------------

    /// Plan affine references through [`ParallelLoop::plan`] using the
    /// session's cache and current data version, accumulating the elapsed
    /// (simulated) time into the session's inspector meter.
    pub fn plan<P, S>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        data_dist: &S::Dist,
        refs: &[S::Map],
    ) -> Arc<CommSchedule>
    where
        P: Process,
        S: IterSpace,
    {
        let before = proc.time();
        let schedule = loop_.plan(proc, &mut self.cache, data_dist, refs, self.data_version);
        self.inspector_time += proc.time() - before;
        self.debug_verify(&schedule);
        schedule
    }

    /// Plan data-dependent references through
    /// [`ParallelLoop::plan_indirect`] using the session's cache and current
    /// data version, accumulating the elapsed time into the inspector meter.
    pub fn plan_indirect<P, S, D, F>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        data_dist: &D,
        refs_of: F,
    ) -> Arc<CommSchedule>
    where
        P: Process,
        S: IterSpace,
        D: Distribution + ?Sized,
        F: FnMut(usize, &mut Vec<usize>),
    {
        let before = proc.time();
        let schedule =
            loop_.plan_indirect(proc, &mut self.cache, data_dist, self.data_version, refs_of);
        self.inspector_time += proc.time() - before;
        self.debug_verify(&schedule);
        schedule
    }

    /// Statically verify one planned schedule's rank-local invariants
    /// (record ordering, dense non-overlapping receive layout, lookup
    /// consistency, well-formed iteration lists) — see
    /// [`verify::check_schedule`].  Cross-rank properties (duality,
    /// deadlock freedom) need every rank's plan at once; gather those and
    /// call [`verify::check_schedule_set`].
    ///
    /// Debug builds run this automatically on every [`Session::plan`] /
    /// [`Session::plan_indirect`] result, so a broken analysis aborts at
    /// plan time with a diagnostic instead of hanging in the executor.
    pub fn verify_plan(&self, schedule: &CommSchedule) -> Vec<Violation> {
        verify::check_schedule(schedule)
    }

    #[inline]
    fn debug_verify(&self, schedule: &CommSchedule) {
        if cfg!(debug_assertions) {
            let violations = self.verify_plan(schedule);
            assert!(
                violations.is_empty(),
                "plan failed static verification:\n{}",
                verify::render(&violations)
            );
        }
    }

    // ----------------------------------------------------------------
    // Execution (sweep tags allocated here)
    // ----------------------------------------------------------------

    /// The executor configuration for the next sweep: the session's
    /// monotonic sweep counter (wrapped inside the executor tag window by
    /// [`ExecutorConfig::sweep`]) plus the session's overlap setting.
    fn next_sweep_config(&mut self) -> ExecutorConfig {
        let config = ExecutorConfig::sweep(self.sweep)
            .with_overlap(self.overlap)
            .with_workers(self.workers)
            .with_chunk(self.chunk);
        self.sweep += 1;
        self.sweeps_executed += 1;
        config
    }

    /// Execute one sweep of a planned loop ([`ParallelLoop::execute`]),
    /// stamping it with the next sweep tag and threading the session's
    /// overlap / worker / chunk knobs through.  The body is a read-only
    /// `Fn` returning one value per iteration; writes go through `sink` on
    /// the calling thread in ascending iteration order per phase.  Returns
    /// the number of iterations executed locally.
    #[allow(clippy::too_many_arguments)] // mirrors ParallelLoop::execute
    pub fn execute<P, S, D, T, V, F, W>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        body: F,
        sink: W,
    ) -> usize
    where
        P: Process,
        S: IterSpace,
        D: Distribution + ?Sized,
        T: Copy + Sync + kali_process::Wire,
        V: Send,
        F: Fn(usize, &mut Fetcher<'_, T, D>) -> V + Sync,
        W: FnMut(usize, V),
    {
        let config = self.next_sweep_config();
        loop_.execute(proc, config, schedule, data_dist, local_data, body, sink)
    }

    /// The one survivor of the pre-merge entry-point names, forwarding to
    /// [`Session::execute`]: `perf/src/adapter.rs` calls it, `perf/` is the
    /// benchmark's own directory (`BENCHMARK.json`'s `paths`) and a library
    /// PR may not edit it.  The benchmark PR (ROADMAP item 1) removes this
    /// alias together with that call site.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn execute_chunked<P, S, D, T, V, F, W>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        body: F,
        sink: W,
    ) -> usize
    where
        P: Process,
        S: IterSpace,
        D: Distribution + ?Sized,
        T: Copy + Sync + kali_process::Wire,
        V: Send,
        F: Fn(usize, &mut Fetcher<'_, T, D>) -> V + Sync,
        W: FnMut(usize, V),
    {
        self.execute(proc, loop_, schedule, data_dist, local_data, body, sink)
    }

    /// Execute one sweep whose value is a typed global reduction of the
    /// body's per-iteration contributions
    /// ([`ParallelLoop::execute_reduce`]: the body returns `(value,
    /// contribution)`, values reach `sink`), stamping it with the next
    /// sweep tag and metering the reduction (count and bytes) in the
    /// session.
    #[allow(clippy::too_many_arguments)] // mirrors ParallelLoop::execute_reduce
    pub fn execute_reduce<P, S, D, T, V, R, F, W>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        op: Reduce<R>,
        body: F,
        sink: W,
    ) -> R::Acc
    where
        P: Process,
        S: IterSpace,
        D: Distribution + ?Sized,
        T: Copy + Sync + kali_process::Wire,
        V: Send,
        R: ReduceOp,
        R::Input: Send,
        F: Fn(usize, &mut Fetcher<'_, T, D>) -> (V, R::Input) + Sync,
        W: FnMut(usize, V),
    {
        let config = self.next_sweep_config();
        let value = loop_.execute_reduce(
            proc, config, schedule, data_dist, local_data, op, body, sink,
        );
        self.meter_reduction::<P, R>(proc);
        value
    }

    /// Count one typed reduction: meters (count, bytes) plus one
    /// [`CollectiveCall`] appended to the collective trace the SPMD
    /// conformance check compares across ranks.
    fn meter_reduction<P: Process, R: ReduceOp>(&mut self, proc: &P) {
        self.reductions += 1;
        self.reduction_bytes += tree_allreduce_sends(proc.nprocs(), proc.rank()) as u64
            * std::mem::size_of::<R::Acc>() as u64;
        self.collective_trace.push(CollectiveCall {
            op: R::name(),
            acc_bytes: std::mem::size_of::<R::Acc>(),
        });
    }

    // ----------------------------------------------------------------
    // Redistribution (epochs allocated here)
    // ----------------------------------------------------------------

    /// Move a live array between distributions, tagging the traffic with
    /// the session's next redistribution epoch.
    pub fn redistribute<P, A, B, T>(
        &mut self,
        proc: &mut P,
        from: &A,
        to: &B,
        local_data: &[T],
    ) -> Vec<T>
    where
        P: Process,
        A: Distribution + ?Sized,
        B: Distribution + ?Sized,
        T: Copy + Default + kali_process::Wire,
    {
        let epoch = self.epoch;
        self.epoch += 1;
        self.redistributions += 1;
        redistribute_epoch(proc, from, to, local_data, epoch)
    }

    /// Reclaim every cached schedule `loop_` built under `retired` — the
    /// companion of a rebalancing [`Session::redistribute`]: once the data
    /// has moved, schedules describing the old placement are dead weight.
    /// Returns the number of entries reclaimed.
    pub fn retire_placement<S, D>(&mut self, loop_: &ParallelLoop<S>, retired: &D) -> usize
    where
        S: IterSpace,
        D: Distribution + ?Sized,
    {
        // The combined fingerprint in the cache key is version independent,
        // so probing with version 0 names every generation built under the
        // retired placement.
        let fingerprint = loop_.cache_key(retired, 0).dist_fingerprint;
        self.cache.invalidate_fingerprint(fingerprint)
    }

    // ----------------------------------------------------------------
    // Introspection
    // ----------------------------------------------------------------

    /// Direct access to the schedule cache (escape hatch for tests and
    /// tooling; programs normally go through the planning methods).
    pub fn cache(&mut self) -> &mut ScheduleCache {
        &mut self.cache
    }

    /// Simulated seconds this rank has spent planning so far.
    pub fn inspector_time(&self) -> f64 {
        self.inspector_time
    }

    /// Every collective this session has issued, in program order — the
    /// per-rank trace [`verify::check_collective_sequence`] compares across
    /// ranks to prove the SPMD contract (no code branches on the rank id
    /// around a collective).
    pub fn collective_trace(&self) -> &[CollectiveCall] {
        &self.collective_trace
    }

    /// Opt into event-trace recording on the backend: every subsequent
    /// send, receive, collective entry and chunk claim of this rank is
    /// recorded (a cheap per-event append) until [`Session::take_trace`].
    /// Backends without a recorder (the trait's default hooks) make this a
    /// no-op and return an empty trace.
    pub fn start_trace<P: Process>(&self, proc: &mut P) {
        proc.trace_start();
    }

    /// Stop recording and take this rank's recorded events.  Gather every
    /// rank's trace and feed the set to
    /// [`mc::check_trace`](crate::mc::check_trace) for happens-before
    /// analysis.
    pub fn take_trace<P: Process>(&self, proc: &mut P) -> Vec<Event> {
        proc.trace_take()
    }

    /// Snapshot every session meter.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            cache: self.cache.stats(),
            loops_allocated: self.loops_allocated,
            sweeps_executed: self.sweeps_executed,
            redistributions: self.redistributions,
            reductions: self.reductions,
            reduction_bytes: self.reduction_bytes,
            inspector_time: self.inspector_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::affine::AffineMap;
    use crate::process::Sum;
    use distrib::DimDist;
    use dmsim::{CostModel, Machine};

    #[test]
    fn sessions_allocate_distinct_loop_ids_and_share_one_cache() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(32, proc.nprocs());
            let mut session = Session::new();
            let a = session.loop_1d(32, dist.clone());
            let b = session.loop_1d(32, dist.clone());
            assert_ne!(a.loop_id, b.loop_id, "ids must be distinct");
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 5) % 32);
            session.plan_indirect(proc, &a, &dist, refs);
            session.plan_indirect(proc, &b, &dist, refs);
            let stats = session.stats();
            assert_eq!(stats.cache.misses, 2, "one inspector run per loop");
            assert_eq!(stats.loops_allocated, 2);
            // Replanning either loop hits the shared cache.
            session.plan_indirect(proc, &a, &dist, refs);
            session.plan_indirect(proc, &b, &dist, refs);
            assert_eq!(session.stats().cache.hits, 2);
        });
    }

    #[test]
    fn version_bumps_force_reinspection_through_the_session() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(24, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(24, dist.clone());
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 7) % 24);
            session.plan_indirect(proc, &loop_, &dist, refs);
            session.plan_indirect(proc, &loop_, &dist, refs);
            assert_eq!(session.stats().cache.misses, 1);
            assert_eq!(session.bump_data_version(), 1);
            session.plan_indirect(proc, &loop_, &dist, refs);
            let stats = session.stats();
            assert_eq!(stats.cache.misses, 2, "new version must re-inspect");
            assert_eq!(
                stats.cache.evictions, 1,
                "the dead generation must be reclaimed"
            );
        });
    }

    #[test]
    fn execute_allocates_monotonic_sweep_tags() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let n = 16;
            let dist = DimDist::block(n, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(n - 1, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| g as f64)
                .collect();
            let mut out = local.clone();
            for _ in 0..3 {
                session.execute(
                    proc,
                    &loop_,
                    &schedule,
                    &dist,
                    &local,
                    |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
                    |_, (l, v)| out[l] = v,
                );
            }
            assert_eq!(session.stats().sweeps_executed, 3);
        });
    }

    #[test]
    fn execute_reduce_meters_the_reduction() {
        let machine = Machine::new(4, CostModel::ideal());
        let results = machine.run(|proc| {
            let n = 20;
            let dist = DimDist::block(n, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(n, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::identity()]);
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| g as f64)
                .collect();
            let total = session.execute_reduce(
                proc,
                &loop_,
                &schedule,
                &dist,
                &local,
                Reduce::<Sum<f64>>::new(),
                |i, fetch| ((), fetch.fetch(i)),
                |_, ()| {},
            );
            (total, session.stats())
        });
        let expected: f64 = (0..20).map(|i| i as f64).sum();
        for (rank, (total, stats)) in results.iter().enumerate() {
            assert_eq!(*total, expected);
            assert_eq!(stats.reductions, 1);
            assert_eq!(
                stats.reduction_bytes,
                tree_allreduce_sends(4, rank) as u64 * 8,
                "tree sends * size_of::<f64>()"
            );
            assert_eq!(stats.sweeps_executed, 1);
        }
        // Machine-wide, the tree's 2(P-1) messages of 8 bytes.
        let machine_bytes: u64 = results.iter().map(|(_, s)| s.reduction_bytes).sum();
        assert_eq!(machine_bytes, 2 * 3 * 8);
        // Bitwise identical across ranks.
        for w in results.windows(2) {
            assert_eq!(w[0].0.to_bits(), w[1].0.to_bits());
        }
    }

    #[test]
    fn redistribute_allocates_epochs_and_retire_reclaims_schedules() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let n = 24;
            let block = DimDist::block(n, proc.nprocs());
            let cyclic = DimDist::cyclic(n, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(n, block.clone());
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 5) % 24);
            session.plan_indirect(proc, &loop_, &block, refs);
            assert_eq!(session.stats().cache.resident_entries, 1);

            let data: Vec<u64> = block
                .local_set(proc.rank())
                .iter()
                .map(|g| g as u64)
                .collect();
            let moved = session.redistribute(proc, &block, &cyclic, &data);
            let expected: Vec<u64> = cyclic
                .local_set(proc.rank())
                .iter()
                .map(|g| g as u64)
                .collect();
            assert_eq!(moved, expected);
            assert_eq!(session.stats().redistributions, 1);

            // Retiring the old placement reclaims its schedule.
            assert_eq!(session.retire_placement(&loop_, &block), 1);
            assert_eq!(session.stats().cache.resident_entries, 0);
            assert_eq!(session.stats().cache.evictions, 1);
        });
    }

    #[test]
    fn worker_and_chunk_knobs_default_sane_and_are_settable() {
        // Note: this does not set the KALI_WORKERS env var (process-global
        // state would race other tests); the env path is covered by the CI
        // job running the equivalence suite under KALI_WORKERS=4.
        let mut s = Session::new();
        assert!(s.workers() >= 1);
        s.set_workers(0);
        assert_eq!(s.workers(), 1, "worker count clamps to at least 1");
        let s = Session::new().with_workers(6);
        assert_eq!(s.workers(), 6);
        let mut s = Session::new();
        assert_eq!(s.chunk_size(), 0);
        s.set_chunk_size(512);
        assert_eq!(s.chunk_size(), 512);
    }

    #[test]
    fn chunked_session_execution_matches_scalar_bitwise() {
        // The scalar side is a sequential replay — the shift, and each
        // rank's ascending fold of squares tree-combined — for values and
        // reduction bits; meters and machine counters are compared with the
        // (one worker, one whole-list chunk) run.
        use crate::process::tree_combine_partials;
        let n = 33;
        let value = |g: usize| 0.1 * (g as f64 + 1.0);
        let run = |workers: usize, chunk: usize| {
            let machine = Machine::new(2, CostModel::ncube7());
            machine.run_stats(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let mut session = Session::new();
                session.set_workers(workers);
                session.set_chunk_size(chunk);
                let loop_ = session.loop_1d(n - 1, dist.clone());
                let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
                let local: Vec<f64> = dist.local_set(proc.rank()).iter().map(value).collect();
                let mut out = local.clone();
                let norm = session.execute_reduce(
                    proc,
                    &loop_,
                    &schedule,
                    &dist,
                    &local,
                    Reduce::<Sum<f64>>::new(),
                    |i, fetch| {
                        let v = fetch.fetch(i + 1);
                        (v, v * v)
                    },
                    |i, v| out[dist.local_index(i)] = v,
                );
                (out, norm, session.stats())
            })
        };
        let dist = DimDist::block(n, 2);
        let shifted = |g: usize| value(if g < n - 1 { g + 1 } else { g });
        let partials: Vec<f64> = (0..2)
            .map(|rank| {
                let owned = dist.local_set(rank);
                let iters = owned.iter().filter(|&g| g < n - 1);
                iters.fold(0.0, |acc, g| acc + shifted(g) * shifted(g))
            })
            .collect();
        let norm = tree_combine_partials::<Sum<f64>>(partials);
        let (whole, whole_stats) = run(1, usize::MAX);
        for workers in [1usize, 3] {
            for chunk in [0usize, 1, 5] {
                let (got, stats) = run(workers, chunk);
                for (rank, (a, b)) in got.iter().zip(&whole).enumerate() {
                    let expected: Vec<f64> = dist.local_set(rank).iter().map(shifted).collect();
                    assert_eq!(a.0, expected);
                    assert_eq!(a.1.to_bits(), norm.to_bits(), "reduction bits diverged");
                    assert_eq!(a.2, b.2, "session meters diverged");
                }
                // queue_peak is a scheduling observation, not a metered
                // cost; it is the one counter outside this contract.
                let strip = |mut c: crate::process::Counters| {
                    c.queue_peak = 0;
                    c
                };
                assert_eq!(
                    strip(stats.totals),
                    strip(whole_stats.totals),
                    "machine counters diverged"
                );
            }
        }
    }

    #[test]
    fn planned_schedules_verify_clean_and_collectives_are_traced() {
        let machine = Machine::new(3, CostModel::ideal());
        let traces = machine.run(|proc| {
            let n = 24;
            let dist = DimDist::block(n, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(n, dist.clone());
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 5) % 24);
            let schedule = session.plan_indirect(proc, &loop_, &dist, refs);
            // The plan passes rank-local static verification...
            assert_eq!(session.verify_plan(&schedule), vec![]);
            // ...and a hand-corrupted copy does not.
            let mut broken = (*schedule).clone();
            if let Some(r) = broken.recv_records.first_mut() {
                r.buffer += 1;
                assert!(!session.verify_plan(&broken).is_empty());
            }
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| g as f64)
                .collect();
            for _ in 0..2 {
                session.execute_reduce(
                    proc,
                    &loop_,
                    &schedule,
                    &dist,
                    &local,
                    Reduce::<Sum<f64>>::new(),
                    |i, fetch| ((), fetch.fetch((i * 5) % 24)),
                    |_, ()| {},
                );
            }
            session.collective_trace().to_vec()
        });
        // Each rank issued the same two collectives in the same order: the
        // SPMD conformance check accepts the traces.
        assert_eq!(crate::verify::check_collective_sequence(&traces), vec![]);
        for trace in &traces {
            assert_eq!(trace.len(), 2);
            assert_eq!(trace[0].op, "sum-f64");
            assert_eq!(trace[0].acc_bytes, 8);
        }
    }

    #[test]
    fn traced_chunked_execution_records_claims_and_passes_mc() {
        use crate::process::trace::EventKind;
        let machine = Machine::new(2, CostModel::ideal());
        let traces = machine.run(|proc| {
            let n = 24;
            let dist = DimDist::block(n, proc.nprocs());
            let mut session = Session::new().with_workers(2);
            session.set_chunk_size(3);
            let loop_ = session.loop_1d(n - 1, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| g as f64)
                .collect();
            let mut out = local.clone();
            session.start_trace(proc);
            let mut shift = |session: &mut Session, proc: &mut _| {
                session.execute(
                    proc,
                    &loop_,
                    &schedule,
                    &dist,
                    &local,
                    |i, fetch| fetch.fetch(i + 1),
                    |i, v| out[dist.local_index(i)] = v,
                )
            };
            shift(&mut session, proc);
            let trace = session.take_trace(proc);
            // Recording has stopped: later traffic is not recorded.
            shift(&mut session, proc);
            trace
        });
        // Every rank recorded its chunk claims; the boundary message shows
        // up as a send on one rank and a receive on the other; and the
        // trace set is causally consistent and race-free.
        for t in &traces {
            assert!(
                t.iter()
                    .any(|e| matches!(e.kind, EventKind::ChunkClaim { .. })),
                "chunk claims must be recorded"
            );
        }
        let all: Vec<&EventKind> = traces.iter().flatten().map(|e| &e.kind).collect();
        assert!(all.iter().any(|k| matches!(k, EventKind::Send { .. })));
        assert!(all.iter().any(|k| matches!(k, EventKind::Recv { .. })));
        assert_eq!(crate::mc::check_trace(&traces), vec![]);
    }

    #[test]
    fn overlap_knob_threads_through_to_the_executor() {
        // Results are independent of overlap; this just exercises the knob.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let n = 16;
            let dist = DimDist::block(n, proc.nprocs());
            let mut session = Session::new().overlap(false);
            let loop_ = session.loop_1d(n - 1, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            let local: Vec<f64> = dist
                .local_set(proc.rank())
                .iter()
                .map(|g| (g * 3) as f64)
                .collect();
            let mut out = local.clone();
            session.execute(
                proc,
                &loop_,
                &schedule,
                &dist,
                &local,
                |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
                |_, (l, v)| out[l] = v,
            );
            session.set_overlap(true);
        });
    }
}

//! The [`Session`]: the one front end that runs a `forall`.
//!
//! The paper's programs are sequences of `forall`s interleaved with global
//! reductions, and its compiler emits one inspector/executor expansion of
//! each `forall` (§3, Figures 3 and 6).  A `Session` is that expansion as a
//! library, one per rank.  A loop is **described** once
//! ([`Session::loop_1d`], [`Session::loop_over`] → [`ParallelLoop`]),
//! **planned** ([`Session::plan`] for affine references: the closed form
//! when one exists, the cached inspector otherwise; [`Session::plan_indirect`]
//! for data-dependent ones), and **executed** any number of times
//! ([`Session::execute`], or [`Session::execute_reduce`] when the loop is
//! also a reduction, or [`Session::execute_rows`] for a stencil that takes
//! its iterations a run at a time); live arrays change placement with
//! [`Session::redistribute`] and [`Session::retire_placement`].
//!
//! The layers underneath stay public for benches and tests that drive one
//! of them with hand-built inputs — [`IterSpace::analyze`],
//! [`run_inspector`], [`ScheduleCache`], [`execute_sweep`] with its
//! [`ExecutorConfig`], [`redistribution_schedule`](crate::redistribution_schedule)
//! — but the session is the one thing that composes them, and it owns the
//! state the composition needs:
//!
//! * the **schedule cache** — one per session, shared by every loop the
//!   session allocates (two interleaved `forall`s — red/black half-sweeps —
//!   share the cache but never a schedule, because their loop ids differ);
//! * **loop-id allocation** — ids are handed out in program order, which is
//!   identical on every rank of an SPMD program, so the cache keys stay in
//!   lockstep;
//! * **sweep-tag allocation** — each execution is stamped with the next tag
//!   from one monotonically increasing counter (wrapping inside the
//!   executor's tag window), so interleaved loops can never confuse their
//!   in-flight messages;
//! * **data-version tracking** — [`Session::bump_data_version`] after a mesh
//!   adaptation makes every subsequent plan re-inspect exactly once;
//! * **redistribution epochs** — each move is tagged with the next epoch;
//! * the **executor knobs** — intra-rank workers and chunk length (read
//!   from `KALI_WORKERS` / `KALI_CHUNK` at construction) reach every sweep,
//!   so an unmodified program can be driven at any worker count from the
//!   outside;
//! * **metering** — inspector time (accumulated around every plan call) and
//!   reduction counts/bytes, snapshotted by [`Session::stats`] for the
//!   solvers' outcome structs.  A plan needs no rank-local check: the
//!   schedule's constructors build its record and iteration lists
//!   well-formed and reject malformed peer records and iteration lists in
//!   every build.
//!
//! [`Session::execute_reduce`] makes reductions **first-class loop outputs**:
//! the body also returns one contribution per iteration and the session
//! reduces them under a typed [`ReduceOp`] — deterministically ordered, so
//! dmsim, native and a sequential replay agree bit for bit — while the
//! collective's messages are charged like any other communication.
//!
//! ## Out-of-bounds reference policy
//!
//! A reference that leaves the referenced array is a programming error, and
//! what happens to it depends on who names it:
//!
//! * an **affine** reference ([`Session::plan`]: `A[i+1]` at `i = N-1` when
//!   the loop was not restricted to `1..N-1`) makes **debug builds panic at
//!   plan time**, on both the closed-form and the inspector path; release
//!   builds treat the reference as absent (it is never fetched);
//! * a **data-dependent** reference ([`Session::plan_indirect`]: a stale
//!   `adj` entry) is **rejected at plan time in every build** — the
//!   inspector asserts each enumerated index against the array bounds,
//!   because a distribution would otherwise happily name an owner for it
//!   and the sweep would die later, blaming something else.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use distrib::{combine_fingerprints, Distribution};

use crate::cache::{CacheStats, ScheduleCache};
use crate::executor::{execute_rows_sweep, execute_sweep, ExecutorConfig, Fetcher};
use crate::forall::ParallelLoop;
use crate::inspector::run_inspector;
use crate::process::trace::EventKind;
use crate::process::{tree_allreduce_sends, tree_children, Process, Reduce, ReduceOp};
use crate::redistribute::redistribute_epoch;
use crate::schedule::CommSchedule;
use crate::space::{IterSpace, Span};

/// Per-rank front end and execute-side runtime state: schedule cache, loop-id
/// / sweep-tag / epoch allocation, data-version tracking and reduction
/// metering (see the module docs).
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
    workers: usize,
    chunk: usize,
    loops_allocated: u64,
    sweeps_executed: u64,
    redistributions: u64,
    reductions: u64,
    reduction_bytes: u64,
    inspector_time: f64,
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

/// The value of the integer knob `name`, given what the environment holds
/// for it: unset or empty keeps the caller's default, anything else must be
/// a non-negative integer.  A typo must not silently run the default — the
/// CI steps that set `KALI_WORKERS` exist to put the suites on a real pool.
fn parse_knob(name: &str, value: Option<&str>) -> Option<usize> {
    let value = value.map(str::trim).filter(|v| !v.is_empty())?;
    match value.parse() {
        Ok(knob) => Some(knob),
        Err(_) => panic!("{name}={value:?}: expected a non-negative integer"),
    }
}

/// Read a non-negative integer knob from the environment ([`parse_knob`]).
fn env_knob(name: &str) -> Option<usize> {
    let value = std::env::var_os(name);
    parse_knob(name, value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Stable fingerprint of a reference list: the repo's FNV-1a chained over
/// the bytes the maps' `Hash` impls emit.  A pure function of the
/// coefficients — never a `RandomState` — because SPMD ranks must hit and
/// miss the cache in lockstep.
fn refs_fingerprint<M: Hash>(refs: &[M]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 = combine_fingerprints(self.0, byte as u64);
            }
        }
    }
    let mut hasher = Fnv(0);
    refs.hash(&mut hasher);
    hasher.finish()
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
    /// worker count from the outside.  A value that is set and is not a
    /// non-negative integer panics here, naming the variable.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Session {
            cache: ScheduleCache::with_capacity(capacity),
            next_loop_id: 1,
            sweep: 0,
            epoch: 0,
            data_version: 0,
            workers: env_knob("KALI_WORKERS").unwrap_or(1).max(1),
            chunk: env_knob("KALI_CHUNK").unwrap_or(0),
            loops_allocated: 0,
            sweeps_executed: 0,
            redistributions: 0,
            reductions: 0,
            reduction_bytes: 0,
            inspector_time: 0.0,
        }
    }

    /// Set the intra-rank worker-thread count for executions (clamped to
    /// at least 1).  With 1 worker no threads are spawned; any other count
    /// changes wall-clock speed only, never results — the executor's
    /// determinism contract ([`execute_sweep`]).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
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

    /// Describe a loop over `space` with an owner-computes on-clause,
    /// allocating its id from this session.  Ids are handed out in program
    /// order (identical on every rank of an SPMD program) and are unique
    /// within the session — which is all the session's own cache requires.
    pub fn loop_over<S: IterSpace>(&mut self, space: S, on_dist: S::Dist) -> ParallelLoop<S> {
        let id = self.next_loop_id;
        self.next_loop_id += 1;
        self.loops_allocated += 1;
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

    /// Obtain a communication schedule for affine references into a
    /// `data_dist`-placed array: the compile-time analysis
    /// ([`IterSpace::analyze`]) when a closed form exists — no run-time set
    /// computation, **zero planning messages**, no cache entry — and the
    /// cached inspector otherwise, keyed on the loop, the session's data
    /// version, both distributions and `refs` themselves.
    ///
    /// A reference that leaves the array panics in debug builds — on *both*
    /// paths — and is treated as absent in release builds (see the module
    /// docs).  The elapsed (simulated) time goes to the inspector meter.
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
        let (space, rank) = (&loop_.space, proc.rank());
        #[cfg(debug_assertions)]
        for &i in &loop_.exec_iters(rank) {
            assert!(
                refs.iter()
                    .all(|m| space.apply_map(m, i, data_dist).is_some()),
                "loop {:#x}: an affine reference of iteration {i} leaves the bounds of \
                 the referenced array ({} elements); out-of-bounds references are a \
                 programming error — restrict the iteration space",
                loop_.loop_id,
                data_dist.n()
            );
        }
        let schedule = match space.analyze(&loop_.on_dist, data_dist, refs, rank) {
            Some(schedule) => Arc::new(schedule),
            None => {
                let mut key = loop_.cache_key(data_dist, self.data_version);
                key.refs_fingerprint = refs_fingerprint(refs);
                self.cache.get_or_build(key, || {
                    // Enumerated lazily: a cache hit never materialises the exec set.
                    let exec = loop_.exec_iters(rank);
                    run_inspector(proc, data_dist, &exec, |i, out| {
                        out.extend(refs.iter().filter_map(|m| space.apply_map(m, i, data_dist)))
                    })
                })
            }
        };
        self.planned(proc, before, schedule)
    }

    /// Obtain a communication schedule for data-dependent references by
    /// running the inspector once per `(loop, data version, distributions)`
    /// — see [`ParallelLoop::cache_key`] — and serving the cached schedule
    /// afterwards.
    ///
    /// `refs_of` enumerates, for a linearised iteration, the linearised
    /// global indices of the `data_dist`-distributed array it references;
    /// an index outside the array panics, in every build (see the module
    /// docs).  The elapsed time goes to the inspector meter.
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
        let key = loop_.cache_key(data_dist, self.data_version);
        let schedule = self.cache.get_or_build(key, || {
            // Enumerated lazily: a cache hit never materialises the exec set.
            let exec = loop_.exec_iters(proc.rank());
            run_inspector(proc, data_dist, &exec, refs_of)
        });
        self.planned(proc, before, schedule)
    }

    /// What every plan ends with: meter the time since `before`.  A
    /// schedule's rank-local shape is its constructors' to keep, in every
    /// build; the cross-rank invariants need every rank's plan at once —
    /// gather those for [`check_schedule_set`](crate::verify::check_schedule_set).
    fn planned<P: Process>(
        &mut self,
        proc: &P,
        before: f64,
        schedule: Arc<CommSchedule>,
    ) -> Arc<CommSchedule> {
        self.inspector_time += proc.time() - before;
        schedule
    }

    // ----------------------------------------------------------------
    // Execution (sweep tags allocated here)
    // ----------------------------------------------------------------

    /// Execute one sweep of a planned loop ([`execute_sweep`]): sends are
    /// posted, local iterations overlap the communication, nonlocal
    /// iterations run against the receive buffer.  The body is a read-only
    /// `Fn` returning one value per iteration; writes happen on the calling
    /// thread through `sink(i, value)` in ascending iteration order per
    /// phase, and the session's worker threads may run chunks concurrently.
    /// Results and metered counters are identical at every `(workers,
    /// chunk)` setting.  Returns the number of iterations executed locally.
    ///
    /// The sweep is stamped with the session's next sweep tag (wrapped
    /// inside the executor tag window by [`ExecutorConfig::sweep`]), and the
    /// session's chunk length is rounded up to the space's preferred
    /// alignment ([`IterSpace::chunk_align`]) — whole rows for
    /// [`Rect`](crate::space::Rect) spaces, a no-op elsewhere.  Alignment
    /// shapes chunk boundaries only.
    #[allow(clippy::too_many_arguments)] // execute_sweep's, the loop standing for config + on-clause
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
        let config = self.next_sweep(loop_);
        execute_sweep(
            proc,
            config,
            schedule,
            &loop_.on_dist,
            data_dist,
            local_data,
            body,
            sink,
        )
    }

    /// [`Session::execute`] with a body that runs a *run* of iterations at
    /// a time — the localised loop of a closed-form stencil (see the
    /// executor's module docs, *Rows*).
    ///
    /// `body(run, fetch)` is called once for every maximal stretch `run` of
    /// consecutive iterations inside one chunk and inside one owned run of
    /// the loop's on-clause distribution; iteration `run.start + k` has home
    /// offset `fetch.home() + k`.  It reads whole stretches of the
    /// referenced array with [`Fetcher::rows`], falling back to
    /// [`Fetcher::fetch`] element by element where `rows` answers `None`,
    /// and charges what the point body charges for `run.len()` iterations.
    /// `sink(run.start, value)` gets one value per run, in ascending order
    /// per phase.  Sends, receives, chunks, workers, tags and cost flushes
    /// are [`Session::execute`]'s; the sweep neither counts as an execution
    /// of the schedule's translation memo nor records one.
    #[allow(clippy::too_many_arguments)] // execute's
    pub fn execute_rows<P, S, D, T, V, F, W>(
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
        F: Fn(Range<usize>, &mut Fetcher<'_, T, D>) -> V + Sync,
        W: FnMut(usize, V),
    {
        let config = self.next_sweep(loop_);
        execute_rows_sweep(
            proc,
            config,
            schedule,
            &loop_.on_dist,
            data_dist,
            local_data,
            body,
            sink,
        )
    }

    /// The configuration of the next sweep of `loop_`: the next sweep tag,
    /// the session's knobs, the chunk rounded up to the space's alignment.
    fn next_sweep<S: IterSpace>(&mut self, loop_: &ParallelLoop<S>) -> ExecutorConfig {
        let mut config = ExecutorConfig::sweep(self.sweep)
            .with_workers(self.workers)
            .with_chunk(self.chunk);
        self.sweep += 1;
        self.sweeps_executed += 1;
        let align = loop_.space.chunk_align();
        if align > 1 {
            // Saturating: `usize::MAX` asks for one whole-list chunk.
            config.chunk = config
                .effective_chunk()
                .div_ceil(align)
                .saturating_mul(align);
        }
        config
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

    /// Execute one sweep in which the loop is also a **reduction**: the body
    /// returns `(value, contribution)` per iteration, values reach `sink`
    /// as in [`Session::execute`], and the loop's value is the global
    /// reduction of all contributions under the typed operator `R` — the
    /// paper's convergence tests and dot products as first-class loop
    /// outputs instead of an out-of-band `allreduce`.  The reduction is
    /// metered (count and bytes) in the session.
    ///
    /// The combining order is fixed and backend independent (the
    /// [`ReduceOp`] determinism contract): contributions fold in ascending
    /// **iteration** order on each rank — regardless of the executor's
    /// local-then-nonlocal execution order, the worker count and the chunk
    /// size — and the per-rank partials combine with the fixed
    /// **binomial-tree bracketing** through the generic
    /// [`Process::allreduce`] (`2(P−1)` messages).  The result is therefore
    /// bitwise identical on every rank, across dmsim and native, and
    /// against a sequential replay folding the same per-rank partial
    /// structure with `tree_combine_partials`.
    ///
    /// The collective runs *inside* the planned pipeline: its messages go
    /// through the backend like any other communication (so dmsim charges
    /// them), and the folds charge one flop per combine.
    #[allow(clippy::too_many_arguments)] // execute's + the reduction op
    pub fn execute_reduce<P, S, D, T, V, R, F, W>(
        &mut self,
        proc: &mut P,
        loop_: &ParallelLoop<S>,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        _op: Reduce<R>,
        body: F,
        mut sink: W,
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
        // Contributions arrive in executor order: the local iterations,
        // then the nonlocal ones — two ascending runs.  Merge-fold them in
        // ascending iteration order so the fold is a function of the loop
        // alone, not of the schedule's local/nonlocal split.
        let boundary = schedule.local_iters().len();
        let mut contributions: Vec<(usize, R::Input)> =
            Vec::with_capacity(boundary + schedule.nonlocal_iters().len());
        self.execute(
            proc,
            loop_,
            schedule,
            data_dist,
            local_data,
            body,
            |i, (v, c)| {
                sink(i, v);
                contributions.push((i, c));
            },
        );
        // A typed marker ahead of the allreduce's own, so the trace
        // checks' SPMD rule compares reductions by operator.
        proc.trace_emit(EventKind::Collective { op: R::name() });
        let value = fold_and_allreduce::<P, R>(proc, boundary, contributions);
        self.reductions += 1;
        self.reduction_bytes += tree_allreduce_sends(proc.nprocs(), proc.rank()) as u64
            * std::mem::size_of::<R::Acc>() as u64;
        value
    }

    // ----------------------------------------------------------------
    // Redistribution (epochs allocated here)
    // ----------------------------------------------------------------

    /// Move a live array between distributions, returning the new local
    /// storage (in `to`'s local index order) and tagging the traffic with
    /// the session's next redistribution epoch.  Must be called
    /// collectively; elements whose owner does not change are copied
    /// locally without communication.
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

    /// Simulated seconds this rank has spent planning so far.
    pub fn inspector_time(&self) -> f64 {
        self.inspector_time
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

/// Fold per-iteration reduction contributions in the fixed deterministic
/// order and combine across ranks: contributions arrive as two ascending
/// runs (local iterations first, nonlocal after, split at `boundary`), are
/// merge-folded in ascending **iteration** order, and the per-rank partials
/// combine with the **binomial-tree bracketing** through
/// [`Process::allreduce`].
///
/// **Bracketing contract.**  The cross-rank combine below must bracket
/// exactly like `tree_combine_partials::<R>` — `Process::allreduce`'s
/// documented behaviour — because the solvers' sequential replays
/// (`replay_reduce`) fold per-rank partials with that helper and assert
/// bitwise equality against this function's result.  Passing `R::combine`
/// through unchanged (never a rank-dependent or order-swapped closure) is
/// what keeps a future op addition from silently producing
/// backend-divergent bits; the reduction-determinism suite pins it for
/// every built-in op.
fn fold_and_allreduce<P: Process, R: ReduceOp>(
    proc: &mut P,
    boundary: usize,
    contributions: Vec<(usize, R::Input)>,
) -> R::Acc {
    proc.charge_flops(contributions.len());
    let (local, nonlocal) = contributions.split_at(boundary);
    debug_assert!(local.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(nonlocal.windows(2).all(|w| w[0].0 < w[1].0));
    let mut acc = R::identity();
    let (mut i, mut j) = (0usize, 0usize);
    while i < local.len() && j < nonlocal.len() {
        if local[i].0 < nonlocal[j].0 {
            acc = R::combine(acc, R::lift(local[i].1));
            i += 1;
        } else {
            acc = R::combine(acc, R::lift(nonlocal[j].1));
            j += 1;
        }
    }
    for &(_, v) in &local[i..] {
        acc = R::combine(acc, R::lift(v));
    }
    for &(_, v) in &nonlocal[j..] {
        acc = R::combine(acc, R::lift(v));
    }
    let partial = acc;
    // Each rank performs one combine per reduce-tree child it absorbs
    // (machine-wide P − 1 combines, the same work the flat fold did once).
    proc.charge_flops(tree_children(proc.nprocs(), proc.rank()));
    let total = proc.allreduce(partial, |a, b| R::combine(*a, *b));
    R::finish(total)
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
        // state would race other tests); the parsing is covered below and
        // the env path by the CI job running the equivalence suite under
        // KALI_WORKERS=4.
        let mut s = Session::new();
        assert!(s.workers >= 1);
        s.set_workers(0);
        assert_eq!(s.workers, 1, "worker count clamps to at least 1");
        let s = Session::new().with_workers(6);
        assert_eq!(s.workers, 6);
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
            proc.trace_start();
            let schedule = session.plan_indirect(proc, &loop_, &dist, refs);
            // The plan passes rank-local static verification...
            assert_eq!(crate::verify::check_schedule(&schedule), vec![]);
            // ...and a copy declaring one element too many does not.
            let mut broken = (*schedule).clone();
            broken.recv_len += 1;
            assert!(!crate::verify::check_schedule(&broken).is_empty());
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
            proc.trace_take()
        });
        // Each rank entered the same collectives in the same order — the
        // inspector's exchange, then per reduction its typed marker and the
        // allreduce's own — and the trace checks accept the traces.
        assert_eq!(crate::mc::check_trace(&traces), vec![]);
        for trace in &traces {
            let ops: Vec<&str> = trace.iter().filter_map(|e| e.collective()).collect();
            assert!(ops.ends_with(&["sum-f64", "allreduce", "sum-f64", "allreduce"]));
        }
    }

    #[test]
    fn traced_chunked_execution_passes_mc() {
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
            proc.trace_start();
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
            let trace = proc.trace_take();
            // Recording has stopped: later traffic is not recorded.
            shift(&mut session, proc);
            trace
        });
        // The boundary message shows up as a send on one rank and a receive
        // on the other, and the trace set passes the trace checks.
        let all: Vec<&EventKind> = traces.iter().flatten().map(|e| &e.kind).collect();
        assert!(all.iter().any(|k| matches!(k, EventKind::Send { .. })));
        assert!(all.iter().any(|k| matches!(k, EventKind::Recv { .. })));
        assert_eq!(crate::mc::check_trace(&traces), vec![]);
    }

    #[test]
    fn the_inspector_fallback_keys_the_cache_on_the_reference_maps() {
        // Regression: the fallback keyed the cache on loop, version and
        // placements only, so planning one loop for `A[2i]` and then for
        // `A[3i+1]` handed the first schedule back (the closed-form path,
        // which bypasses the cache, always honoured its maps).
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let on = DimDist::block(16, proc.nprocs());
            let data = DimDist::block(64, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(16, on);
            let doubled = session.plan(proc, &loop_, &data, &[AffineMap::new(2, 0)]);
            let tripled = session.plan(proc, &loop_, &data, &[AffineMap::new(3, 1)]);
            let cache = session.stats().cache;
            assert_eq!(
                (cache.misses, cache.hits),
                (2, 0),
                "one inspector run per map"
            );
            assert_ne!(doubled.signature(), tripled.signature());
            // Rank 1 runs 8..16: `2i` reaches 16..=30 (all of it rank 0's),
            // `3i + 1` reaches 25..=46, of which only 25, 28, 31 are.
            if proc.rank() == 1 {
                assert_eq!((doubled.recv_len, tripled.recv_len), (8, 3));
            }
            // Each list still hits its own entry, and retiring the placement
            // names both.
            session.plan(proc, &loop_, &data, &[AffineMap::new(2, 0)]);
            session.plan(proc, &loop_, &data, &[AffineMap::new(3, 1)]);
            assert_eq!(session.stats().cache.hits, 2);
            assert_eq!(session.retire_placement(&loop_, &data), 2);
        });
    }

    #[test]
    fn knobs_parse_strictly() {
        // The pure half of `env_knob`; no `set_var` here — the environment
        // is process-global and the suites run in parallel.
        assert_eq!(parse_knob("KALI_WORKERS", None), None);
        assert_eq!(parse_knob("KALI_WORKERS", Some("")), None);
        assert_eq!(parse_knob("KALI_WORKERS", Some("  ")), None);
        assert_eq!(parse_knob("KALI_WORKERS", Some("4")), Some(4));
        assert_eq!(parse_knob("KALI_CHUNK", Some(" 0\n")), Some(0));
        for malformed in ["4x", "-1", "four", "1.5"] {
            let panic = std::panic::catch_unwind(|| parse_knob("KALI_WORKERS", Some(malformed)))
                .expect_err("a malformed knob must not run the default");
            assert_eq!(
                *panic.downcast::<String>().expect("a formatted message"),
                format!("KALI_WORKERS={malformed:?}: expected a non-negative integer")
            );
        }
    }
}

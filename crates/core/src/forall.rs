//! The `forall` front-end: one typed plan→execute pipeline.
//!
//! The paper's programmer writes
//!
//! ```text
//! forall i in 1..N on A[i].loc do … end;
//! ```
//!
//! (or, with multi-dimensional arrays, `forall i in 1..N, j in 1..M on
//! A[i,j].loc`) and the compiler expands it into the inspector/executor
//! structure.  [`ParallelLoop`] is that expansion as a library: it describes
//! the loop (an [`IterSpace`] plus the on-clause distribution), obtains a
//! schedule with one unified [`ParallelLoop::plan`] — the compile-time
//! analyser when the references are affine and closed forms exist, the
//! (cached) inspector otherwise — and executes sweeps with
//! [`ParallelLoop::execute`] (or [`ParallelLoop::execute_reduce`] when the
//! loop is also a reduction): a read-only body returning one value per
//! iteration, and a sink that stores the values on the rank's own thread.
//!
//! The pipeline is generic over the space: [`Span`] gives the 1-D loops of
//! the original `Forall` API, [`Rect`](crate::space::Rect) gives rectangular
//! 2-D/3-D spaces over [`distrib::ArrayDist`] decompositions
//! (`dist by [block, *]` and friends), linearised row-major so the whole
//! schedule machinery is shared.
//!
//! ## Out-of-bounds reference policy
//!
//! An affine reference that leaves the referenced array (`A[i+1]` at
//! `i = N-1` when the loop was not restricted to `1..N-1`) is a programming
//! error: **debug builds panic during [`ParallelLoop::plan`]**, on both the
//! compile-time and the inspector path; release builds treat the reference
//! as absent (it is never fetched).  The inspector additionally
//! debug-asserts every enumerated reference against the array bounds, so
//! data-dependent subscripts get the same treatment through
//! [`ParallelLoop::plan_indirect`].

use std::sync::Arc;

use distrib::{combine_fingerprints, DimDist, Distribution};

use crate::cache::{LoopKey, ScheduleCache};
use crate::executor::{execute_sweep, ExecutorConfig, Fetcher};
use crate::inspector::run_inspector;
use crate::process::{tree_children, Process, Reduce, ReduceOp};
use crate::schedule::CommSchedule;
use crate::space::{IterSpace, Span};

/// A `forall … on OWNER[…].loc` loop description: a typed builder over an
/// iteration space, replacing the old `Forall` struct and its
/// `plan_affine`/`plan_indirect` free-function split.
#[derive(Debug, Clone)]
pub struct ParallelLoop<S: IterSpace> {
    /// Static identity of the loop (used as the schedule-cache key).
    pub loop_id: u64,
    /// The iteration space the loop ranges over.
    pub space: S,
    /// Distribution named in the `on` clause (owner-computes placement);
    /// `execute` hands it to the executor, which answers [`Fetcher::home`]
    /// under it.
    pub on_dist: S::Dist,
}

impl<S: IterSpace> ParallelLoop<S> {
    /// Describe a loop over `space` with an owner-computes on-clause.
    pub fn over(loop_id: u64, space: S, on_dist: S::Dist) -> Self {
        ParallelLoop {
            loop_id,
            space,
            on_dist,
        }
    }

    /// The linearised iterations this processor executes, in ascending
    /// order — computed range-aware (a narrow space never enumerates the
    /// full owned set).
    pub fn exec_iters(&self, rank: usize) -> Vec<usize> {
        self.space.exec_iters(&self.on_dist, rank)
    }

    /// The schedule-cache key for this loop referencing `data_dist`-placed
    /// data: loop id, data version, and a combined fingerprint of *both*
    /// distributions the schedule depends on *and* the iteration space.
    /// Redistributing either array — or re-describing the same `loop_id`
    /// over a different range or box — changes the fingerprint, so a stale
    /// schedule is never reused (it would route the wrong elements or run
    /// the wrong iterations).
    pub fn cache_key<D: Distribution + ?Sized>(&self, data_dist: &D, data_version: u64) -> LoopKey {
        LoopKey::new(
            self.loop_id,
            data_version,
            combine_fingerprints(
                self.space.fingerprint(),
                combine_fingerprints(self.on_dist.fingerprint(), data_dist.fingerprint()),
            ),
        )
    }

    /// Obtain a communication schedule for affine references into a
    /// `data_dist`-placed array: the compile-time analysis when a closed
    /// form exists (no run-time set computation, **zero planning
    /// messages**), the cached inspector otherwise.
    ///
    /// Out-of-bounds references are rejected with a panic in debug builds —
    /// on *both* paths — and treated as absent in release builds (see the
    /// module docs).
    pub fn plan<P: Process>(
        &self,
        proc: &mut P,
        cache: &mut ScheduleCache,
        data_dist: &S::Dist,
        refs: &[S::Map],
        data_version: u64,
    ) -> Arc<CommSchedule> {
        #[cfg(debug_assertions)]
        self.assert_refs_in_bounds(proc.rank(), data_dist, refs);
        if let Some(schedule) = self
            .space
            .analyze(&self.on_dist, data_dist, refs, proc.rank())
        {
            // Closed form: no run-time set computation, no communication.
            return Arc::new(schedule);
        }
        let key = self.cache_key(data_dist, data_version);
        let space = &self.space;
        cache.get_or_build(key, || {
            // Enumerated lazily: a cache hit never materialises the exec set.
            let exec = space.exec_iters(&self.on_dist, proc.rank());
            run_inspector(proc, data_dist, &exec, |i, out| {
                for m in refs {
                    if let Some(v) = space.apply_map(m, i, data_dist) {
                        out.push(v);
                    }
                }
            })
        })
    }

    /// The debug-build half of the out-of-bounds policy: every affine
    /// reference of every executed iteration must land inside the data
    /// array, whichever planning path ends up being taken.
    #[cfg(debug_assertions)]
    fn assert_refs_in_bounds(&self, rank: usize, data_dist: &S::Dist, refs: &[S::Map]) {
        for &i in &self.exec_iters(rank) {
            for m in refs {
                assert!(
                    self.space.apply_map(m, i, data_dist).is_some(),
                    "loop {:#x}: an affine reference of iteration {i} leaves the bounds \
                     of the referenced array ({} elements); out-of-bounds references are \
                     a programming error — restrict the iteration space",
                    self.loop_id,
                    data_dist.n()
                );
            }
        }
    }

    /// Obtain a communication schedule for data-dependent references by
    /// running the inspector (once per `(loop_id, data_version,
    /// distributions)` — see [`ParallelLoop::cache_key`]).
    ///
    /// `refs_of` enumerates, for a linearised iteration, the linearised
    /// global indices of the `data_dist`-distributed array it references.
    pub fn plan_indirect<P, D, F>(
        &self,
        proc: &mut P,
        cache: &mut ScheduleCache,
        data_dist: &D,
        data_version: u64,
        refs_of: F,
    ) -> Arc<CommSchedule>
    where
        P: Process,
        D: Distribution + ?Sized,
        F: FnMut(usize, &mut Vec<usize>),
    {
        let mut refs_of = refs_of;
        let key = self.cache_key(data_dist, data_version);
        cache.get_or_build(key, || {
            // Enumerated lazily: a cache hit never materialises the exec set.
            let exec = self.exec_iters(proc.rank());
            run_inspector(proc, data_dist, &exec, &mut refs_of)
        })
    }

    /// Execute one sweep of the loop under a previously planned schedule
    /// ([`execute_sweep`]): sends are posted, local iterations overlap the
    /// communication, nonlocal iterations run against the receive buffer.
    /// The body is a read-only `Fn` returning one value per iteration;
    /// writes happen on the calling thread through `sink(i, value)` in
    /// ascending iteration order per phase, and `config.workers` threads
    /// may run chunks concurrently.  Results and metered counters are
    /// identical at every `(workers, chunk)` setting.
    ///
    /// The configured chunk length is rounded up to the space's preferred
    /// alignment ([`IterSpace::chunk_align`]) — whole rows for [`Rect`]
    /// spaces, a no-op elsewhere.  Alignment shapes chunk boundaries only.
    ///
    /// [`Rect`]: crate::space::Rect
    #[allow(clippy::too_many_arguments)] // execute_sweep's, less the on-clause
    pub fn execute<P, D, T, V, F, W>(
        &self,
        proc: &mut P,
        mut config: ExecutorConfig,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        body: F,
        sink: W,
    ) -> usize
    where
        P: Process,
        D: Distribution + ?Sized,
        T: Copy + Sync + kali_process::Wire,
        V: Send,
        F: Fn(usize, &mut Fetcher<'_, T, D>) -> V + Sync,
        W: FnMut(usize, V),
    {
        let align = self.space.chunk_align();
        if align > 1 {
            // Saturating: `usize::MAX` asks for one whole-list chunk.
            config.chunk = config
                .effective_chunk()
                .div_ceil(align)
                .saturating_mul(align);
        }
        execute_sweep(
            proc,
            config,
            schedule,
            &self.on_dist,
            data_dist,
            local_data,
            body,
            sink,
        )
    }

    /// Execute one sweep in which the loop is also a **reduction**: the body
    /// returns `(value, contribution)` per iteration, values reach `sink`
    /// as in [`ParallelLoop::execute`], and the loop's value is the global
    /// reduction of all contributions under the typed operator `R` — the
    /// paper's convergence tests and dot products as first-class loop
    /// outputs instead of an out-of-band `allreduce` hack.
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
    pub fn execute_reduce<P, D, T, V, R, F, W>(
        &self,
        proc: &mut P,
        config: ExecutorConfig,
        schedule: &CommSchedule,
        data_dist: &D,
        local_data: &[T],
        _op: Reduce<R>,
        body: F,
        mut sink: W,
    ) -> R::Acc
    where
        P: Process,
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
        let boundary = schedule.local_iters.len();
        let mut contributions: Vec<(usize, R::Input)> =
            Vec::with_capacity(boundary + schedule.nonlocal_iters.len());
        self.execute(
            proc,
            config,
            schedule,
            data_dist,
            local_data,
            body,
            |i, (v, c)| {
                sink(i, v);
                contributions.push((i, c));
            },
        );
        fold_and_allreduce::<P, R>(proc, boundary, contributions)
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

impl ParallelLoop<Span> {
    /// Describe a loop `forall i in 0..n on A[i].loc` where `A` is
    /// distributed by `on_dist` — the 1-D shorthand matching the old
    /// `Forall::over`.
    pub fn over_1d(loop_id: u64, n: usize, on_dist: DimDist) -> Self {
        ParallelLoop::over(loop_id, Span::upto(n), on_dist)
    }

    /// Restrict the iteration range (`forall i in lo..hi`).
    pub fn range(mut self, lo: usize, hi: usize) -> Self {
        self.space = Span::new(lo, hi);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::affine::AffineMap;
    use crate::analysis::multi::MultiAffineMap;
    use crate::space::Rect;
    use distrib::ArrayDist;
    use dmsim::{CostModel, Machine};

    #[test]
    fn allreduce_brackets_exactly_like_tree_combine_partials() {
        // The bracketing contract `fold_and_allreduce` relies on: the
        // collective's cross-rank combine is `tree_combine_partials`, bit
        // for bit, at power-of-two and ragged rank counts.
        use crate::process::{tree_combine_partials, Sum};
        for nprocs in [2usize, 3, 4, 7, 8] {
            let partials: Vec<f64> = (0..nprocs).map(|r| 0.1 * (r as f64 + 1.0)).collect();
            let expected = tree_combine_partials::<Sum<f64>>(partials.clone());
            let machine = Machine::new(nprocs, CostModel::ideal());
            let results = machine.run(|proc| {
                let mine = partials[proc.rank()];
                proc.allreduce(mine, |a, b| a + b)
            });
            for (rank, got) in results.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "P={nprocs} rank {rank}: collective bracketing diverged from the replay"
                );
            }
        }
    }

    #[test]
    fn plan_uses_compile_time_path_without_messages() {
        let machine = Machine::new(4, CostModel::ideal());
        let (_, stats) = machine.run_stats(|proc| {
            let dist = DimDist::block(64, proc.nprocs());
            let loop_ = ParallelLoop::over_1d(1, 63, dist.clone());
            let mut cache = ScheduleCache::new();
            let schedule = loop_.plan(proc, &mut cache, &dist, &[AffineMap::shift(1)], 0);
            assert_eq!(
                cache.misses(),
                0,
                "compile-time analysis must bypass the cache"
            );
            schedule.recv_len
        });
        // Compile-time planning alone must not send a single message.
        assert_eq!(stats.totals.msgs_sent, 0);
    }

    #[test]
    fn plan_falls_back_to_inspector_for_strided_refs() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(32, proc.nprocs());
            let data = DimDist::block(64, proc.nprocs());
            let loop_ = ParallelLoop::over_1d(9, 32, dist);
            let mut cache = ScheduleCache::new();
            let s1 = loop_.plan(proc, &mut cache, &data, &[AffineMap::new(2, 0)], 0);
            assert_eq!(cache.misses(), 1, "inspector must have been consulted");
            let s2 = loop_.plan(proc, &mut cache, &data, &[AffineMap::new(2, 0)], 0);
            assert_eq!(cache.hits(), 1, "second plan must hit the cache");
            assert_eq!(s1.signature(), s2.signature());
        });
    }

    #[test]
    fn redistributing_the_data_invalidates_cached_schedules() {
        // The stale-schedule bug: same loop id, same data version, but the
        // referenced array has moved to a new distribution.  The fingerprint
        // in the cache key must force re-inspection.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let on = DimDist::block(32, proc.nprocs());
            let loop_ = ParallelLoop::over_1d(11, 32, on.clone());
            let mut cache = ScheduleCache::new();
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 5) % 32);
            let s1 = loop_.plan_indirect(proc, &mut cache, &on, 0, refs);
            assert_eq!(cache.misses(), 1);
            let moved = DimDist::cyclic(32, proc.nprocs());
            let s2 = loop_.plan_indirect(proc, &mut cache, &moved, 0, refs);
            assert_eq!(cache.misses(), 2, "stale schedule must not be reused");
            assert_ne!(
                s1.signature(),
                s2.signature(),
                "the schedules really do differ between placements"
            );
            // Planning again under either distribution now hits.
            loop_.plan_indirect(proc, &mut cache, &on, 0, refs);
            loop_.plan_indirect(proc, &mut cache, &moved, 0, refs);
            assert_eq!(cache.hits(), 2);
        });
    }

    #[test]
    fn reusing_a_loop_id_over_a_different_window_misses_the_cache() {
        // Regression: the cache key used to hash only (loop_id, version,
        // distribution fingerprints).  Two loops with the same id ranging
        // over different windows would share one schedule — the second
        // would execute the first window's iterations.  The space
        // fingerprint in the key forces a fresh plan.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(32, proc.nprocs());
            let mut cache = ScheduleCache::new();
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 7) % 32);
            let first = ParallelLoop::over_1d(13, 32, dist.clone()).range(0, 10);
            let s1 = first.plan_indirect(proc, &mut cache, &dist, 0, refs);
            let second = ParallelLoop::over_1d(13, 32, dist.clone()).range(10, 20);
            let s2 = second.plan_indirect(proc, &mut cache, &dist, 0, refs);
            assert_eq!(
                cache.misses(),
                2,
                "different windows must not share a schedule"
            );
            assert_ne!(s1.signature(), s2.signature());
            // Same window planned again still hits.
            first.plan_indirect(proc, &mut cache, &dist, 0, refs);
            assert_eq!(cache.hits(), 1);
            // The same holds for rectangular spaces.
            let flat = distrib::FlatDist::new(ArrayDist::block_rows(8, 4, proc.nprocs()));
            let top = ParallelLoop::over(14, Rect::full(&[8, 4]).restrict(0, 0, 4), flat.clone());
            let bottom =
                ParallelLoop::over(14, Rect::full(&[8, 4]).restrict(0, 4, 8), flat.clone());
            let refs2 = |g: usize, out: &mut Vec<usize>| out.push((g * 5) % 32);
            top.plan_indirect(proc, &mut cache, &flat, 0, refs2);
            bottom.plan_indirect(proc, &mut cache, &flat, 0, refs2);
            assert_eq!(
                cache.misses(),
                4,
                "different boxes must not share a schedule"
            );
        });
    }

    #[test]
    fn version_bumps_through_plan_indirect_reclaim_stale_generations() {
        // The adaptive-mesh pattern: the adj data changes, the caller bumps
        // the data version, and the cache must not only re-inspect but also
        // reclaim the schedule of the dead generation.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(32, proc.nprocs());
            let loop_ = ParallelLoop::over_1d(21, 32, dist.clone());
            let mut cache = ScheduleCache::new();
            for version in 0..4u64 {
                for _sweep in 0..3 {
                    loop_.plan_indirect(proc, &mut cache, &dist, version, |i, refs| {
                        refs.push((i + version as usize) % 32)
                    });
                }
            }
            assert_eq!(cache.misses(), 4, "one inspector run per generation");
            assert_eq!(cache.hits(), 8);
            assert_eq!(cache.len(), 1, "stale generations must be evicted");
            assert_eq!(cache.evictions(), 3);
        });
    }

    #[test]
    fn full_shift_pipeline_through_the_loop_api() {
        let n = 48;
        let machine = Machine::new(4, CostModel::ideal());
        let results = machine.run(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            let local_a: Vec<f64> = dist
                .local_set(rank)
                .iter()
                .map(|g| (g * g) as f64)
                .collect();
            let loop_ = ParallelLoop::over_1d(2, n - 1, dist.clone());
            let mut cache = ScheduleCache::new();
            let schedule = loop_.plan(proc, &mut cache, &dist, &[AffineMap::shift(1)], 0);
            let mut out = local_a.clone();
            loop_.execute(
                proc,
                ExecutorConfig::default(),
                &schedule,
                &dist,
                &local_a,
                |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
                |_, (l, v)| out[l] = v,
            );
            (rank, out)
        });
        let dist = DimDist::block(n, 4);
        for (rank, out) in results {
            for (l, v) in out.iter().enumerate() {
                let g = dist.global_index(rank, l);
                let expected = if g < n - 1 {
                    ((g + 1) * (g + 1)) as f64
                } else {
                    (g * g) as f64
                };
                assert_eq!(*v, expected, "global index {g}");
            }
        }
    }

    #[test]
    fn narrow_range_plans_only_the_window() {
        // The range-aware satellite carried into the new API: a narrow
        // window over a huge on-clause distribution must never enumerate
        // the full owned set (the old exec_iters materialised all of
        // 0..n/p and filtered afterwards — with n = 2^40 that would hang).
        let n = 1usize << 40;
        let dist = DimDist::block(n, 2);
        let loop_ = ParallelLoop::over_1d(3, n, dist.clone()).range(5, 25);
        assert_eq!(loop_.exec_iters(0), (5..25).collect::<Vec<_>>());
        assert!(loop_.exec_iters(1).is_empty());
        // The planned schedule covers exactly the window's references.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(64, proc.nprocs());
            let loop_ = ParallelLoop::over_1d(4, 64, dist.clone()).range(30, 34);
            let mut cache = ScheduleCache::new();
            let s = loop_.plan(proc, &mut cache, &dist, &[AffineMap::shift(1)], 0);
            let execs = loop_.exec_iters(proc.rank());
            assert_eq!(s.local_iters.len() + s.nonlocal_iters.len(), execs.len());
            if proc.rank() == 0 {
                // Iterations 30, 31 with ref i+1: only 31 -> 32 is nonlocal.
                assert_eq!(s.recv_len, 1);
            }
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn out_of_bounds_refs_panic_on_the_compile_time_path() {
        // forall i in 0..n referencing A[i+1]: iteration n-1 reaches A[n].
        // The old plan_affine silently dropped the reference; the unified
        // policy panics in debug builds on both planning paths.
        let dist = DimDist::block(16, 2);
        let loop_ = ParallelLoop::over_1d(5, 16, dist.clone());
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let mut cache = ScheduleCache::new();
            loop_.plan(proc, &mut cache, &dist, &[AffineMap::shift(1)], 0);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn out_of_bounds_refs_panic_on_the_inspector_path() {
        // A strided map (no closed form, inspector fallback) with the same
        // out-of-bounds defect: 2*i reaches past a data array of the same
        // size.  Must panic identically to the compile-time path.
        let dist = DimDist::block(16, 2);
        let loop_ = ParallelLoop::over_1d(6, 16, dist.clone());
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let mut cache = ScheduleCache::new();
            loop_.plan(proc, &mut cache, &dist, &[AffineMap::new(2, 0)], 0);
        });
    }

    #[test]
    fn rect_loop_plans_compile_time_and_executes_a_2d_stencil() {
        // The multi-dimensional pipeline end to end: a vertical shift
        // stencil over [block, *], planned with zero messages and executed
        // with one boundary row per neighbour.
        // Rows of 7 do not divide `usize::MAX`: rounding that chunk length
        // up to whole rows must saturate (one whole-list chunk), not wrap.
        let (r, c) = (16usize, 7usize);
        let machine = Machine::new(4, CostModel::ideal());
        let (results, stats) = machine.run_stats(|proc| {
            let flat = distrib::FlatDist::new(ArrayDist::block_rows(r, c, proc.nprocs()));
            let rank = proc.rank();
            let local_a: Vec<f64> = (0..flat.local_count(rank))
                .map(|l| flat.global_index(rank, l) as f64)
                .collect();
            let space = Rect::full(&[r, c]).restrict(0, 0, r - 1);
            let loop_ = ParallelLoop::over(7, space, flat.clone());
            let mut cache = ScheduleCache::new();
            let schedule = loop_.plan(
                proc,
                &mut cache,
                &flat,
                &[MultiAffineMap::shifts(&[1, 0])],
                0,
            );
            assert_eq!(cache.misses(), 0, "closed form must bypass the inspector");
            let planned_msgs = proc.counters().msgs_sent;
            assert_eq!(planned_msgs, 0, "planning must cost zero messages");
            let mut out = local_a.clone();
            for (sweep, chunk) in [0, usize::MAX].into_iter().enumerate() {
                let executed = loop_.execute(
                    proc,
                    ExecutorConfig::sweep(sweep).with_chunk(chunk),
                    &schedule,
                    &flat,
                    &local_a,
                    |g, fetch| (fetch.home(), fetch.fetch(g + c)),
                    |_, (l, v)| out[l] = v,
                );
                assert_eq!(executed, loop_.exec_iters(rank).len(), "chunk = {chunk}");
            }
            (rank, out)
        });
        // Executor traffic: 3 boundary rows of c elements, in each sweep.
        assert_eq!(stats.totals.bytes_sent, 2 * 3 * c as u64 * 8);
        let flat = distrib::FlatDist::new(ArrayDist::block_rows(r, c, 4));
        for (rank, out) in results {
            for (l, v) in out.iter().enumerate() {
                let g = flat.global_index(rank, l);
                let expected = if g < (r - 1) * c {
                    (g + c) as f64
                } else {
                    g as f64
                };
                assert_eq!(*v, expected, "flat index {g}");
            }
        }
    }

    #[test]
    fn rect_loop_falls_back_to_the_cached_inspector_for_indirect_refs() {
        let (r, c) = (8usize, 6usize);
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let flat = distrib::FlatDist::new(ArrayDist::block_rows(r, c, proc.nprocs()));
            let loop_ = ParallelLoop::over(8, Rect::full(&[r, c]), flat.clone());
            let mut cache = ScheduleCache::new();
            // A data-dependent permutation gather: no closed form.
            let refs = |g: usize, out: &mut Vec<usize>| out.push((g * 13 + 5) % (r * c));
            loop_.plan_indirect(proc, &mut cache, &flat, 0, refs);
            assert_eq!(cache.misses(), 1, "inspector must have been consulted");
            loop_.plan_indirect(proc, &mut cache, &flat, 0, refs);
            assert_eq!(cache.hits(), 1, "second plan must hit the cache");
        });
    }
}

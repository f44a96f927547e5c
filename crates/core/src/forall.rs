//! The `forall` description.
//!
//! The paper's programmer writes
//!
//! ```text
//! forall i in 1..N on A[i].loc do … end;
//! ```
//!
//! (or, with multi-dimensional arrays, `forall i in 1..N, j in 1..M on
//! A[i,j].loc`) and the compiler expands it into the inspector/executor
//! structure.  A [`ParallelLoop`] is the first line of that text and nothing
//! more: which loop of the program it is, the [`IterSpace`] it ranges over
//! ([`Span`] 1-D ranges, [`Stripe`](crate::space::Stripe) colour classes,
//! [`Rect`](crate::space::Rect) boxes over [`distrib::ArrayDist`]
//! decompositions, linearised row-major so the whole schedule machinery is
//! shared) and the distribution named in its on-clause.  The expansion —
//! plan, execute, reduce — is the [`Session`](crate::Session)'s, which takes
//! the description as an argument.

use distrib::{combine_fingerprints, DimDist, Distribution};

use crate::cache::LoopKey;
use crate::space::{IterSpace, Span};

/// A `forall … on OWNER[…].loc` loop description over an iteration space.
/// [`Session::loop_over`](crate::Session::loop_over) and
/// [`Session::loop_1d`](crate::Session::loop_1d) build one with an id that
/// is unique within the session.
#[derive(Debug, Clone)]
pub struct ParallelLoop<S: IterSpace> {
    /// Static identity of the loop (used as the schedule-cache key).
    pub loop_id: u64,
    /// The iteration space the loop ranges over.
    pub space: S,
    /// Distribution named in the `on` clause (owner-computes placement);
    /// the executor answers [`Fetcher::home`](crate::Fetcher::home) under it.
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
}

impl ParallelLoop<Span> {
    /// Describe a loop `forall i in 0..n on A[i].loc` where `A` is
    /// distributed by `on_dist` — the 1-D shorthand.
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
    //! A described loop, planned and executed through the [`Session`].

    use super::*;
    use crate::analysis::affine::AffineMap;
    use crate::analysis::multi::MultiAffineMap;
    use crate::session::Session;
    use crate::space::Rect;
    use distrib::ArrayDist;
    use dmsim::{CostModel, Machine, Process};

    #[test]
    fn allreduce_brackets_exactly_like_tree_combine_partials() {
        // The bracketing contract a reducing `forall` relies on
        // (`Session::execute_reduce`): the collective's cross-rank combine
        // is `tree_combine_partials`, bit for bit, at power-of-two and
        // ragged rank counts.
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
            let mut session = Session::new();
            let loop_ = session.loop_1d(63, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            assert_eq!(
                session.stats().cache.misses,
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
            let mut session = Session::new();
            let loop_ = session.loop_1d(32, dist);
            let s1 = session.plan(proc, &loop_, &data, &[AffineMap::new(2, 0)]);
            assert_eq!(
                session.stats().cache.misses,
                1,
                "inspector must have been consulted"
            );
            let s2 = session.plan(proc, &loop_, &data, &[AffineMap::new(2, 0)]);
            assert_eq!(
                session.stats().cache.hits,
                1,
                "second plan must hit the cache"
            );
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
            let mut session = Session::new();
            let loop_ = session.loop_1d(32, on.clone());
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 5) % 32);
            let s1 = session.plan_indirect(proc, &loop_, &on, refs);
            assert_eq!(session.stats().cache.misses, 1);
            let moved = DimDist::cyclic(32, proc.nprocs());
            let s2 = session.plan_indirect(proc, &loop_, &moved, refs);
            assert_eq!(
                session.stats().cache.misses,
                2,
                "stale schedule must not be reused"
            );
            assert_ne!(
                s1.signature(),
                s2.signature(),
                "the schedules really do differ between placements"
            );
            // Planning again under either distribution now hits.
            session.plan_indirect(proc, &loop_, &on, refs);
            session.plan_indirect(proc, &loop_, &moved, refs);
            assert_eq!(session.stats().cache.hits, 2);
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
            let mut session = Session::new();
            let refs = |i: usize, out: &mut Vec<usize>| out.push((i * 7) % 32);
            let first = ParallelLoop::over_1d(13, 32, dist.clone()).range(0, 10);
            let s1 = session.plan_indirect(proc, &first, &dist, refs);
            let second = ParallelLoop::over_1d(13, 32, dist.clone()).range(10, 20);
            let s2 = session.plan_indirect(proc, &second, &dist, refs);
            assert_eq!(
                session.stats().cache.misses,
                2,
                "different windows must not share a schedule"
            );
            assert_ne!(s1.signature(), s2.signature());
            // Same window planned again still hits.
            session.plan_indirect(proc, &first, &dist, refs);
            assert_eq!(session.stats().cache.hits, 1);
            // The same holds for rectangular spaces.
            let flat = distrib::FlatDist::new(ArrayDist::block_rows(8, 4, proc.nprocs()));
            let top = ParallelLoop::over(14, Rect::full(&[8, 4]).restrict(0, 0, 4), flat.clone());
            let bottom =
                ParallelLoop::over(14, Rect::full(&[8, 4]).restrict(0, 4, 8), flat.clone());
            let refs2 = |g: usize, out: &mut Vec<usize>| out.push((g * 5) % 32);
            session.plan_indirect(proc, &top, &flat, refs2);
            session.plan_indirect(proc, &bottom, &flat, refs2);
            assert_eq!(
                session.stats().cache.misses,
                4,
                "different boxes must not share a schedule"
            );
        });
    }

    #[test]
    fn version_bumps_through_plan_indirect_reclaim_stale_generations() {
        // The adaptive-mesh pattern: the adj data changes, the program bumps
        // the data version, and the cache must not only re-inspect but also
        // reclaim the schedule of the dead generation.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(32, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(32, dist.clone());
            for generation in 0..4usize {
                for _sweep in 0..3 {
                    session.plan_indirect(proc, &loop_, &dist, |i, refs| {
                        refs.push((i + generation) % 32)
                    });
                }
                session.bump_data_version();
            }
            let cache = session.stats().cache;
            assert_eq!(cache.misses, 4, "one inspector run per generation");
            assert_eq!(cache.hits, 8);
            assert_eq!(
                cache.resident_entries, 1,
                "stale generations must be evicted"
            );
            assert_eq!(cache.evictions, 3);
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
            let mut session = Session::new();
            let loop_ = session.loop_1d(n - 1, dist.clone());
            let schedule = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            let mut out = local_a.clone();
            session.execute(
                proc,
                &loop_,
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
        // A narrow window over a huge on-clause distribution must never
        // enumerate the full owned set (materialising all of 0..n/p and
        // filtering afterwards would hang at n = 2^40).
        let n = 1usize << 40;
        let dist = DimDist::block(n, 2);
        let loop_ = ParallelLoop::over_1d(3, n, dist.clone()).range(5, 25);
        assert_eq!(loop_.exec_iters(0), (5..25).collect::<Vec<_>>());
        assert!(loop_.exec_iters(1).is_empty());
        // The planned schedule covers exactly the window's references.
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(64, proc.nprocs());
            let mut session = Session::new();
            let loop_ = session.loop_1d(64, dist.clone()).range(30, 34);
            let s = session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
            let execs = loop_.exec_iters(proc.rank());
            assert_eq!(
                s.local_iters().len() + s.nonlocal_iters().len(),
                execs.len()
            );
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
        // Debug builds panic on both planning paths.
        let dist = DimDist::block(16, 2);
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let mut session = Session::new();
            let loop_ = session.loop_1d(16, dist.clone());
            session.plan(proc, &loop_, &dist, &[AffineMap::shift(1)]);
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
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let mut session = Session::new();
            let loop_ = session.loop_1d(16, dist.clone());
            session.plan(proc, &loop_, &dist, &[AffineMap::new(2, 0)]);
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
            let mut session = Session::new();
            let space = Rect::full(&[r, c]).restrict(0, 0, r - 1);
            let loop_ = session.loop_over(space, flat.clone());
            let schedule = session.plan(proc, &loop_, &flat, &[MultiAffineMap::shifts(&[1, 0])]);
            assert_eq!(
                session.stats().cache.misses,
                0,
                "closed form must bypass the inspector"
            );
            let planned_msgs = proc.counters().msgs_sent;
            assert_eq!(planned_msgs, 0, "planning must cost zero messages");
            let mut out = local_a.clone();
            for chunk in [0, usize::MAX] {
                session.set_chunk_size(chunk);
                let executed = session.execute(
                    proc,
                    &loop_,
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
            let mut session = Session::new();
            let loop_ = session.loop_over(Rect::full(&[r, c]), flat.clone());
            // A data-dependent permutation gather: no closed form.
            let refs = |g: usize, out: &mut Vec<usize>| out.push((g * 13 + 5) % (r * c));
            session.plan_indirect(proc, &loop_, &flat, refs);
            assert_eq!(
                session.stats().cache.misses,
                1,
                "inspector must have been consulted"
            );
            session.plan_indirect(proc, &loop_, &flat, refs);
            assert_eq!(
                session.stats().cache.hits,
                1,
                "second plan must hit the cache"
            );
        });
    }
}

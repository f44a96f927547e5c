//! Intra-rank worker pool for executor phases.
//!
//! One SPMD rank can use several OS threads to run the *compute* part of an
//! executor phase — the iteration chunks — while all communication and all
//! cost accounting stay on the rank's own thread.  The pool runs on
//! [`kali_process::threads::join_all`] (scoped threads, none long-lived):
//! workers are spawned for the duration of one phase, claim chunk indices
//! from a shared atomic counter, and hand back their `(index, result)`
//! pairs when they join.  The caller reassembles results **by chunk index**
//! and feeds them to a consumer in ascending chunk order, so what the
//! consumer sees is a deterministic function of the chunk boundaries alone —
//! which worker ran which chunk, and in what order, is unobservable.
//!
//! With `workers <= 1` (the default everywhere) the chunks run inline on the
//! calling thread, each consumed as soon as it is done, and no threads are
//! spawned, so the dmsim simulator's cost accounting and the single-threaded
//! behaviour are bit-for-bit untouched.

use std::sync::atomic::{AtomicUsize, Ordering};

use kali_process::threads;

/// Whether [`run_chunks`] runs its chunks inline on the calling thread: it
/// does with one worker, or when there is at most one chunk to run.  Both
/// are observable from its inputs, so a caller that can do better than
/// buffer a result per chunk when nothing leaves its thread asks here.
pub fn runs_inline(workers: usize, n_chunks: usize) -> bool {
    workers <= 1 || n_chunks <= 1
}

/// Run `run(0..n_chunks)` across up to `workers` threads and hand every
/// result to `consume(chunk, result)` on the calling thread, in ascending
/// chunk order.
///
/// * Deterministic: the sequence of `consume` calls depends only on `run`
///   and `n_chunks`, never on scheduling.
/// * Panic-safe: a panic inside `run` on any worker propagates to the
///   caller, payload and all, once every worker has stopped; no result of
///   that phase is consumed after it.
/// * Streaming when serial: `workers <= 1` or `n_chunks <= 1` runs inline
///   with no thread, no channel, no atomics, and consumes each result
///   before the next chunk runs, so only one result is alive at a time.
///   With several workers the results are reassembled by chunk index first
///   and consumed once all are in.
pub fn run_chunks<V, F, C>(workers: usize, n_chunks: usize, run: F, mut consume: C)
where
    V: Send,
    F: Fn(usize) -> V + Sync,
    C: FnMut(usize, V),
{
    if runs_inline(workers, n_chunks) {
        for i in 0..n_chunks {
            consume(i, run(i));
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let claimed = threads::join_all(vec![(); workers.min(n_chunks)], |_, ()| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break done;
            }
            done.push((i, run(i)));
        }
    });
    let mut slots: Vec<Option<V>> = (0..n_chunks).map(|_| None).collect();
    for worker in claimed {
        // A worker's panic continues on the caller with its own payload.
        let done = worker.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (i, v) in done {
            slots[i] = Some(v);
        }
    }

    for (i, slot) in slots.into_iter().enumerate() {
        consume(
            i,
            slot.expect("every chunk index was claimed and completed"),
        );
    }
}

/// Split `len` items into fixed-boundary chunks of `chunk` items (the last
/// chunk takes the remainder), returned as `(start, end)` index pairs.
///
/// Boundaries depend only on `(len, chunk)` — this is what makes chunked
/// execution reproducible: every worker count walks the same chunks.
pub fn chunk_bounds(len: usize, chunk: usize) -> Vec<(usize, usize)> {
    let chunk = chunk.max(1);
    let mut bounds = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = start.saturating_add(chunk).min(len);
        bounds.push((start, end));
        start = end;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_the_range_exactly_once() {
        for len in [0usize, 1, 5, 64, 100, 101] {
            // `usize::MAX`: the saturating whole-list chunk a session can
            // ask for.
            for chunk in [1usize, 3, 64, 1000, usize::MAX] {
                let bounds = chunk_bounds(len, chunk);
                let mut expect = 0;
                for &(s, e) in &bounds {
                    assert_eq!(s, expect);
                    assert!(e > s && e - s <= chunk);
                    expect = e;
                }
                assert_eq!(expect, len);
            }
        }
        assert!(chunk_bounds(0, 8).is_empty());
    }

    #[test]
    fn chunk_zero_is_clamped_to_one() {
        assert_eq!(chunk_bounds(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
    }

    /// The consumed `(chunk, result)` sequence of one `run_chunks` call.
    fn collect<V: Send>(
        workers: usize,
        n_chunks: usize,
        run: impl Fn(usize) -> V + Sync,
    ) -> Vec<(usize, V)> {
        let mut got = Vec::new();
        run_chunks(workers, n_chunks, run, |i, v| got.push((i, v)));
        got
    }

    #[test]
    fn results_come_back_in_chunk_order_for_any_worker_count() {
        let expected: Vec<(usize, usize)> = (0..37).map(|i| (i, i * i)).collect();
        for workers in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(
                collect(workers, 37, |i| i * i),
                expected,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn the_serial_path_consumes_each_chunk_before_running_the_next() {
        use std::sync::atomic::AtomicUsize;
        // `run` observes how many chunks were consumed before it started:
        // inline, chunk i starts after exactly i consumptions.
        let consumed = AtomicUsize::new(0);
        let mut seen_at_start = Vec::new();
        run_chunks(
            1,
            6,
            |_| consumed.load(Ordering::SeqCst),
            |i, before| {
                seen_at_start.push((i, before));
                consumed.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(seen_at_start, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn the_pool_actually_uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        // Many more chunks than workers plus a short spin gives every
        // thread a chance to claim at least one chunk; the assertion is
        // only that more than one *may* appear, not a strict count —
        // on a single-CPU host the spawned workers can still lose every
        // race, so require only that the set is non-empty and results are
        // right (determinism is covered by the test above).
        let n = 64;
        let got = collect(4, n, |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i + 1
        });
        assert_eq!(got, (0..n).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            collect(4, 16, |i| {
                if i == 7 {
                    panic!("boom in chunk 7");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn serial_path_spawns_nothing_and_preserves_order() {
        let tid = std::thread::current().id();
        let got = collect(1, 10, |_| std::thread::current().id());
        for (i, (j, t)) in got.iter().enumerate() {
            assert_eq!(i, *j);
            assert_eq!(*t, tid);
        }
    }
}

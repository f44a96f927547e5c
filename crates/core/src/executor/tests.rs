use std::sync::atomic::{AtomicUsize, Ordering};

use super::*;
use crate::inspector::{owner_computes_iters, run_inspector};
use distrib::DimDist;
use dmsim::{CostModel, Machine};

/// Strip the pending-queue high-water mark before comparing counter
/// totals: queue occupancy is a thread-scheduling observation, not a
/// metered cost, so it sits outside the knob-independence contract.
fn masked(c: crate::process::Counters) -> crate::process::Counters {
    crate::process::Counters { queue_peak: 0, ..c }
}

/// Distributed array shift (Figure 1): A[i] := A[i+1].
fn run_shift(nprocs: usize, n: usize) -> Vec<f64> {
    let machine = Machine::new(nprocs, CostModel::ideal());
    let results = machine.run(|proc| {
        let dist = DimDist::block(n, proc.nprocs());
        let rank = proc.rank();
        // Local pieces of A, initialised to the global values i*1.0.
        let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
        let exec = owner_computes_iters(&dist, rank, n - 1);
        let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
        let mut new_a = local_a.clone();
        execute_sweep(
            proc,
            ExecutorConfig::default(),
            &schedule,
            &dist,
            &dist,
            &local_a,
            |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
            |_, (l, v)| new_a[l] = v,
        );
        (rank, new_a)
    });
    // Reassemble the global array.
    let dist = DimDist::block(n, nprocs);
    let mut global = vec![0.0; n];
    for (rank, local) in results {
        for (l, v) in local.into_iter().enumerate() {
            global[dist.global_index(rank, l)] = v;
        }
    }
    global
}

#[test]
fn shift_matches_sequential_semantics() {
    for nprocs in [1, 2, 4, 8] {
        let n = 64;
        let got = run_shift(nprocs, n);
        let mut expected: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        expected[n - 1] = (n - 1) as f64;
        assert_eq!(got, expected, "nprocs={nprocs}");
    }
}

#[test]
fn executor_sends_one_message_per_neighbour_pair() {
    let n = 64;
    let nprocs = 4;
    let machine = Machine::new(nprocs, CostModel::ideal());
    let (_, stats) = machine.run_stats(|proc| {
        let dist = DimDist::block(n, proc.nprocs());
        let rank = proc.rank();
        let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
        let exec = owner_computes_iters(&dist, rank, n - 1);
        let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
        execute_sweep(
            proc,
            ExecutorConfig::default(),
            &schedule,
            &dist,
            &dist,
            &local_a,
            |i, fetch| fetch.fetch(i + 1),
            |_, _| {},
        );
    });
    // Inspector: the crystal router sends log2(4) = 2 messages per proc
    // (4*2 = 8).  Executor: 3 boundary messages in total.
    assert_eq!(stats.totals.msgs_sent, 8 + 3);
    // Executor moves exactly 3 halo elements of 8 bytes each.
    let executor_bytes: u64 = 3 * 8;
    assert!(stats.totals.bytes_sent >= executor_bytes);
}

#[test]
fn nonlocal_access_costs_more_than_local_access() {
    let n = 32;
    let run = |cost: CostModel| {
        let machine = Machine::new(2, cost);
        let (_, stats) = machine.run_stats(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&dist, rank, n - 1);
            let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
            execute_sweep(
                proc,
                ExecutorConfig::default(),
                &schedule,
                &dist,
                &dist,
                &local_a,
                |i, fetch| fetch.fetch(i + 1),
                |_, _| {},
            );
        });
        stats.time
    };
    let ideal = run(CostModel::ideal());
    let ncube = run(CostModel::ncube7());
    assert_eq!(ideal, 0.0);
    assert!(ncube > 0.0);
}

/// Single-rank mock backend that meters the charge hooks, for asserting
/// on the executor's cost accounting without a full machine.
#[derive(Default)]
struct MeteredSolo {
    counters: crate::process::Counters,
    nonlocal_charges: u64,
    local_charges: u64,
}

impl Process for MeteredSolo {
    fn rank(&self) -> usize {
        0
    }
    fn nprocs(&self) -> usize {
        2 // pretend a peer exists so upper-half indices are nonlocal
    }
    fn send<U: kali_process::Wire>(&mut self, _dst: usize, _tag: u64, _value: U) {
        panic!("metered solo backend has no peers");
    }
    fn send_vec<U: kali_process::Wire>(&mut self, _dst: usize, _tag: u64, _values: Vec<U>) {
        panic!("metered solo backend has no peers");
    }
    fn recv<U: kali_process::Wire>(&mut self, _src: usize, _tag: u64) -> U {
        panic!("metered solo backend has no peers");
    }
    fn barrier(&mut self) {}
    fn exchange<U: kali_process::Wire>(&mut self, items: Vec<(usize, U)>) -> Vec<U> {
        items.into_iter().map(|(_, v)| v).collect()
    }
    fn allgather<U: Clone + kali_process::Wire>(&mut self, items: Vec<U>) -> Vec<Vec<U>> {
        vec![items]
    }
    fn charge_loop_iters(&mut self, n: usize) {
        self.counters.loop_iters += n as u64;
    }
    fn charge_local_access(&mut self) {
        self.local_charges += 1;
    }
    fn charge_nonlocal_access(&mut self, _ranges: usize) {
        self.nonlocal_charges += 1;
        self.counters.nonlocal_refs += 1;
    }
    fn counters(&self) -> crate::process::Counters {
        self.counters
    }
}

/// A fetcher as one chunk of `execute_sweep` builds it on a backend that
/// meters.
fn chunk_fetcher<'a, D: Distribution>(
    dist: &'a D,
    runs: Option<&'a [LocalRun]>,
    schedule: &'a CommSchedule,
    local_data: &'a [f64],
    recv_buf: &'a [f64],
    memo: MemoPlan<'a>,
) -> Fetcher<'a, f64, D> {
    let home = Home::new(dist, runs);
    Fetcher::new(
        [local_data, recv_buf],
        dist,
        runs,
        schedule,
        memo,
        home,
        true,
    )
}

/// The message a caught panic carried (every panic here formats one).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    *payload
        .downcast::<String>()
        .expect("a formatted panic message")
}

#[test]
fn schedule_mismatch_panic_leaves_cost_counters_untouched() {
    // Regression: `Fetcher::fetch` used to charge the nonlocal access
    // *before* checking the schedule covered the index, so the panic path
    // left the counters (and on dmsim the simulated clock) inflated by an
    // access that never happened.  Now the failing chunk's costs — the
    // iterations it completed before the panic included — are discarded
    // unflushed.  Inline, the chunks before it have been flushed and that
    // is all; on the pool nothing of the phase is consumed.  Checked with
    // runs offered (block) and with the per-element fallback (cyclic).
    //
    // Two ways for a body not to be the one the schedule was planned for:
    // it reaches for an element no receive record covers, or — from an
    // iteration on the local list, which runs without a receive buffer —
    // for one that *is* received.  The second used to die of a bare `index
    // out of bounds: the len is 0`.
    use distrib::IndexSet;
    for dist in [DimDist::block(8, 2), DimDist::cyclic(8, 2)] {
        // Rank 0 runs its four owned iterations in two chunks of two; the
        // second chunk's second iteration reaches for rank 1's element 5.
        let owned: Vec<usize> = dist.local_set(0).iter().collect();
        let unscheduled = "global index 5 is neither local to rank 0 nor in its receive schedule";
        let received = format!(
            "rank 0: iteration {} of the local list fetched global 5, which is received from \
             rank 1: the schedule was planned for a different reference pattern",
            owned[3]
        );
        for (recv_sets, message) in [
            (vec![], unscheduled),
            (
                vec![IndexSet::new(), IndexSet::from_range(5, 6)],
                &*received,
            ),
        ] {
            let schedule = CommSchedule::from_recv_sets(0, &recv_sets, owned.clone(), vec![]);
            let local_data = [0.0f64; 4];
            for (workers, chunks_charged) in [(1usize, 1u64), (2, 0)] {
                let mut proc = MeteredSolo::default();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute_sweep(
                        &mut proc,
                        ExecutorConfig::default()
                            .with_workers(workers)
                            .with_chunk(2),
                        &schedule,
                        &dist,
                        &dist,
                        &local_data,
                        |i, fetch| fetch.fetch(if i == owned[3] { 5 } else { i }),
                        |_, _| {},
                    )
                }));
                let what = format!("{} at workers={workers}", dist.kind_name());
                let panic = result.expect_err("a fetch the schedule does not cover must panic");
                assert_eq!(panic_message(panic), message, "{what}");
                assert_eq!(proc.local_charges, 2 * chunks_charged, "{what}");
                assert_eq!(proc.nonlocal_charges, 0, "{what}");
                assert_eq!(
                    proc.counters(),
                    crate::process::Counters {
                        loop_iters: 2 * chunks_charged,
                        ..Default::default()
                    },
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn a_received_element_fetched_from_the_local_list_fails() {
    // The local list never sees the receive buffer: a body that reaches for
    // a received element from it fails with the schedule's message.
    let n = 16;
    let machine = Machine::new(2, CostModel::ncube7());
    let messages = machine.run(|proc| {
        let dist = DimDist::block(n, proc.nprocs());
        let rank = proc.rank();
        let local: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
        let exec = owner_computes_iters(&dist, rank, n);
        // Planned: only the rank's first iteration reads the peer's
        // element 8 − rank; every other iteration reads its own.
        let across = |i: usize| if i == exec[0] { n / 2 - rank } else { i };
        let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(across(i)));
        assert_eq!(schedule.nonlocal_iters(), [exec[0]]);
        let before = (proc.counters(), proc.time().to_bits());
        // Executed: its second iteration does so too.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_sweep(
                proc,
                ExecutorConfig::default(),
                &schedule,
                &dist,
                &dist,
                &local,
                |i, fetch| {
                    fetch.fetch(if i == exec[1] {
                        across(exec[0])
                    } else {
                        across(i)
                    })
                },
                |_, _: f64| {},
            )
        }));
        let message = panic_message(result.expect_err("the local list has no receive buffer"));
        // The halo is still in flight: let it land before its destination
        // goes away.
        proc.barrier();
        // Nothing of the failing chunk was charged: what the clock and the
        // counters moved by is the messages alone.
        let charged = proc.counters().since(&before.0);
        assert_eq!((charged.loop_iters, charged.nonlocal_refs), (0, 0));
        (message, exec[1], across(exec[0]))
    });
    for (rank, (message, iteration, global)) in messages.into_iter().enumerate() {
        assert_eq!(
            message,
            format!(
                "rank {rank}: iteration {iteration} of the local list fetched global \
                 {global}, which is received from rank {}: the schedule was planned for a \
                 different reference pattern",
                1 - rank
            )
        );
    }
}

#[test]
fn chunk_fetcher_window_agrees_with_the_schedule_search() {
    // The resolver's windows are a pure cache: hits, misses, window
    // switches and re-entries must all return exactly what a fresh
    // `CommSchedule::find` returns, and every nonlocal fetch must be
    // counted regardless of which path resolved it.
    use distrib::IndexSet;
    let dist = DimDist::block(8, 2); // rank 0 owns 0..4; 4..8 nonlocal
    let recv_sets = vec![IndexSet::new(), IndexSet::from_range(4, 8)];
    let schedule = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![]);
    let local_data = [0.5f64, 1.5, 2.5, 3.5];
    let recv_buf = [40.0f64, 50.0, 60.0, 70.0];
    let owned = dist.local_runs(0);
    for runs in [owned.as_deref(), None] {
        let mut fetcher = chunk_fetcher(
            &dist,
            runs,
            &schedule,
            &local_data,
            &recv_buf,
            MemoPlan::Off,
        );
        // Interleave local hits, the first nonlocal miss (seeds the
        // window), in-window runs, and repeats after leaving the
        // window — all on ordinal 0, so one window takes every switch.
        let pattern = [4usize, 5, 6, 1, 7, 4, 0, 6];
        let mut nonlocal = 0;
        for &g in &pattern {
            let expected = match schedule.find(g) {
                Some(pos) => {
                    nonlocal += 1;
                    recv_buf[pos]
                }
                None => local_data[dist.local_index(g)],
            };
            fetcher.next_iteration(0, 0);
            assert_eq!(fetcher.fetch(g).to_bits(), expected.to_bits());
        }
        assert_eq!(fetcher.costs.nonlocal_accesses, nonlocal);
        assert_eq!(fetcher.costs.local_accesses, pattern.len() - nonlocal);
        // The window now covers the receive range; an out-of-schedule
        // index still panics instead of resolving through stale state.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetcher.fetch(9)));
        assert!(result.is_err(), "index 9 is outside the schedule");
    }
}

/// What one reference does on the definitional route — `is_local` →
/// `local_index`, else `CommSchedule::find` — as `(nonlocal?, value
/// bits)`, or `None` where that route panics.
fn definitional<D: Distribution + ?Sized>(
    dist: &D,
    schedule: &CommSchedule,
    local_data: &[f64],
    recv_buf: &[f64],
    g: usize,
) -> Option<(bool, u64)> {
    if dist.is_local(schedule.rank(), g) {
        Some((false, local_data[dist.local_index(g)].to_bits()))
    } else {
        schedule.find(g).map(|pos| (true, recv_buf[pos].to_bits()))
    }
}

/// Which way the references of one execution went, told from the fetcher's
/// own state before each fetch (the replay cursor's head, the ordinal's
/// window) and checked against what the fetch then did to it.
#[derive(Debug, Default, PartialEq)]
struct Paths {
    /// What the memo was used for: `"off"`, `"record"` or `"replay"`.
    memo: &'static str,
    /// Read off the replay cursor.
    replayed: usize,
    /// Window hits, and those of them that followed a replay mismatch.
    hits: usize,
    hits_after_mismatch: usize,
    /// Hits on the last element of a window that ends where the local
    /// storage, or the receive buffer, ends.
    hits_at_the_end_of: [usize; 2],
    /// References that reached `miss` (panicking ones included).
    misses: usize,
}

/// One execution of `schedule`'s nonlocal phase as the executor runs it
/// — `begin_execution`, a fetcher over `iterations` (the references of
/// the iteration at each position of the nonlocal list), the recording
/// kept, the costs flushed — comparing every reference with the
/// definitional route: value bits, which hook is charged, and — for an
/// index that is neither owned nor scheduled — a panic that charges
/// nothing and disturbs nothing.  A replaying execution also checks the
/// memo it replays against `recorded`, the body of the recording sweep:
/// every reference that sweep fetched, in order, at its definitional slot.
/// Returns the paths the references took.
fn assert_execution_matches_the_definitional_route<D: Distribution>(
    dist: &D,
    runs: Option<&[LocalRun]>,
    schedule: &CommSchedule,
    local_data: &[f64],
    recv_buf: &[f64],
    iterations: &[Vec<usize>],
    recorded: &[Vec<usize>],
) -> Paths {
    let rank = schedule.rank();
    assert_eq!(schedule.nonlocal_iters().len(), iterations.len());
    let memo = schedule.begin_execution(dist, local_data.len());
    let mut paths = Paths {
        memo: match memo {
            MemoPlan::Off => "off",
            MemoPlan::Record { .. } => "record",
            MemoPlan::Replay(_) => "replay",
        },
        ..Paths::default()
    };
    if let MemoPlan::Replay(memo) = memo {
        for (position, refs) in recorded.iter().enumerate() {
            let slot_of = |&g: &usize| {
                let local = dist.is_local(rank, g).then(|| (dist.local_index(g), false));
                let slot = local.or_else(|| schedule.find(g).map(|pos| (pos, true)));
                slot.map(|slot| (g, slot))
            };
            let learned = memo.refs_of(position).iter();
            assert_eq!(
                learned
                    .map(|e| (e.global as usize, e.slot(local_data.len())))
                    .collect::<Vec<_>>(),
                refs.iter().filter_map(slot_of).collect::<Vec<_>>(),
                "memo row {position}"
            );
        }
    }
    let mut fetcher = chunk_fetcher(dist, runs, schedule, local_data, recv_buf, memo);
    let (mut local, mut nonlocal) = (0usize, 0usize);
    for (position, refs) in iterations.iter().enumerate() {
        fetcher.next_iteration(position, schedule.nonlocal_iters()[position]);
        for &g in refs {
            // The way this reference is about to go.
            let ordinal = fetcher.ordinal;
            let replays = fetcher.replay.first().map(|e| e.global as usize == g);
            let window = fetcher.windows[ordinal & (WINDOWS - 1)];
            let offset = g.wrapping_sub(window.low);
            if replays == Some(true) {
                paths.replayed += 1;
            } else if offset < window.src.len() {
                paths.hits += 1;
                paths.hits_after_mismatch += usize::from(replays == Some(false));
                let storage = [local_data, recv_buf][usize::from(window.nonlocal)];
                let at_the_end = offset + 1 == window.src.len()
                    && window.src.as_ptr_range().end == storage.as_ptr_range().end;
                paths.hits_at_the_end_of[usize::from(window.nonlocal)] += usize::from(at_the_end);
            } else {
                paths.misses += 1;
            }
            let expected = definitional(dist, schedule, local_data, recv_buf, g);
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetcher.fetch(g)));
            // A reference that went to the windows took an ordinal.
            let took = usize::from(replays != Some(true));
            assert_eq!(fetcher.ordinal, ordinal + took, "g={g}");
            match expected {
                Some((is_nonlocal, bits)) => {
                    assert_eq!(got.ok().map(f64::to_bits), Some(bits), "g={g}");
                    local += usize::from(!is_nonlocal);
                    nonlocal += usize::from(is_nonlocal);
                }
                None => {
                    let message = got.err().map(panic_message);
                    assert_eq!(
                        message,
                        Some(format!(
                            "global index {g} is neither local to rank {rank} \
                             nor in its receive schedule"
                        ))
                    );
                }
            }
            // After every reference, panicking or not: the fetcher has
            // counted exactly the definitional accesses so far.
            let so_far = ChunkCosts {
                local_accesses: local,
                nonlocal_accesses: nonlocal,
                ..ChunkCosts::default()
            };
            assert_eq!(fetcher.costs, so_far, "g={g}");
        }
    }
    // Flushed, they reach the backend as that many singular charges.
    let mut proc = MeteredSolo::default();
    fetcher.costs.flush_into(&mut proc, schedule.range_count());
    assert_eq!(proc.local_charges, local as u64);
    assert_eq!(proc.nonlocal_charges, nonlocal as u64);
    let counters = crate::process::Counters {
        nonlocal_refs: nonlocal as u64,
        ..Default::default()
    };
    assert_eq!(proc.counters(), counters);
    // What the fetcher learned, the executor keeps.
    schedule.finish_execution(memo, fetcher.recording);
    paths
}

mod resolver_properties {
    use super::*;
    use distrib::{ArrayDist, BlockDist, IndexRange, IndexSet, IrregularDist};
    use proptest::prelude::*;

    /// A random receive schedule for `rank`: a random subset of the
    /// ranges other ranks own, so some nonlocal indices stay
    /// unscheduled (the panic path) and records have gaps between them.
    fn random_schedule(
        dist: &dyn Distribution,
        rank: usize,
        picks: &[usize],
        nonlocal_iters: Vec<usize>,
    ) -> CommSchedule {
        let mut picks = picks.iter().cycle();
        let recv_sets: Vec<IndexSet> = (0..dist.nprocs())
            .map(|q| {
                if q == rank {
                    return IndexSet::new();
                }
                IndexSet::from_ranges(dist.local_set(q).ranges().iter().filter_map(|r| {
                    // Keep a random sub-range of roughly two in three, one
                    // in four of them a single element.
                    let pick = *picks.next().expect("cycle never ends");
                    let len = r.end - r.start;
                    let lo = r.start + pick % len;
                    let more = if pick.is_multiple_of(4) { 0 } else { pick / 7 };
                    let hi = lo + 1 + more % (r.end - lo);
                    (pick % 3 < 2).then_some(IndexRange::new(lo, hi))
                }))
            })
            .collect();
        CommSchedule::from_recv_sets(rank, &recv_sets, vec![], nonlocal_iters)
    }

    /// Reference sequences that hit, miss, switch and re-enter windows:
    /// per iteration, a few references that each walk their own stride
    /// from iteration to iteration (ordinal k keeps its row), mixed
    /// with uniformly random ones (switches, re-entries, unscheduled
    /// indices) and more references than there are windows.
    fn random_iterations(n: usize, seeds: &[usize]) -> Vec<Vec<usize>> {
        (0..48)
            .map(|it| {
                let width = 1 + seeds[it % seeds.len()] % (WINDOWS + 3);
                (0..width)
                    .map(|k| {
                        let seed = seeds[(it * 31 + k * 7) % seeds.len()];
                        if seed % 4 == 1 {
                            seed % n
                        } else {
                            (seeds[k % seeds.len()] + it + k * (n / 5 + 1)) % n
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The references the generator above cannot be trusted to produce:
    /// one iteration fetching both ends of every receive record and of
    /// every owned range, nine references at the least (the ordinals
    /// wrap); then, an iteration apiece and so on ordinal 0 every time,
    /// the last owned element twice and the last received element twice
    /// — the second of a pair hits the window the first installed, on
    /// the final element of its storage.  `swapped`, the pairs trade
    /// places: what a body that changed since the recording would fetch,
    /// every one of them a replay mismatch.
    fn edge_iterations(dist: &DimDist, schedule: &CommSchedule, swapped: bool) -> Vec<Vec<usize>> {
        let rank = schedule.rank();
        let records = schedule.recv_records().iter();
        let mut ends: Vec<usize> = records.flat_map(|r| [r.low, r.high - 1]).collect();
        let owned = dist.local_set(rank);
        ends.extend(owned.ranges().iter().flat_map(|r| [r.start, r.end - 1]));
        let last_owned = dist.local_count(rank).checked_sub(1);
        let last_owned = last_owned.map(|l| dist.global_index(rank, l));
        let mut last_received = schedule.recv_records().iter();
        let last_received = last_received
            .find(|r| r.buffer + r.len() == schedule.recv_len)
            .map(|r| r.high - 1);
        // A rank with neither reaches for an element it cannot have.
        ends.push(last_owned.or(last_received).unwrap_or(0));
        while ends.len() <= WINDOWS {
            ends.extend_from_within(..);
        }
        let mut pairs = [last_owned, last_owned, last_received, last_received];
        if swapped {
            pairs.rotate_left(2);
        }
        let pairs = pairs.into_iter().flatten().map(|g| vec![g]);
        std::iter::once(ends).chain(pairs).collect()
    }

    /// `iterations` as a body that changed since the memo was recorded
    /// would fetch them: per iteration unchanged, reordered, one
    /// reference replaced, more references than recorded, or fewer.
    fn changed_body(iterations: &[Vec<usize>], n: usize, seeds: &[usize]) -> Vec<Vec<usize>> {
        iterations
            .iter()
            .enumerate()
            .map(|(it, refs)| {
                let seed = seeds[(it * 13 + 5) % seeds.len()];
                let mut refs = refs.clone();
                match seed % 5 {
                    0 => {}
                    1 => refs.reverse(),
                    2 => {
                        let k = seed % refs.len();
                        refs[k] = (seed / 5) % n;
                    }
                    3 => refs.extend_from_within(..),
                    _ => refs.truncate(refs.len() / 2),
                }
                refs
            })
            .collect()
    }

    /// `inner` under another identity: the same mapping, a different
    /// fingerprint.
    #[derive(Debug)]
    struct Refingerprinted<'a>(&'a DimDist);

    impl Distribution for Refingerprinted<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn nprocs(&self) -> usize {
            self.0.nprocs()
        }
        fn owner(&self, i: usize) -> usize {
            self.0.owner(i)
        }
        fn local_index(&self, i: usize) -> usize {
            self.0.local_index(i)
        }
        fn global_index(&self, rank: usize, l: usize) -> usize {
            self.0.global_index(rank, l)
        }
        fn local_count(&self, rank: usize) -> usize {
            self.0.local_count(rank)
        }
        fn kind_name(&self) -> &'static str {
            "refingerprinted"
        }
        fn fingerprint(&self) -> u64 {
            !self.0.fingerprint()
        }
    }

    proptest! {
        #[test]
        fn fetchers_match_the_definitional_route(
            kind in 0usize..6,
            n in 24usize..200,
            p in 2usize..5,
            rank_pick in 0usize..16,
            picks in proptest::collection::vec(0usize..10_000, 8..24),
            seeds in proptest::collection::vec(0usize..100_000, 16..64),
        ) {
            let dist: DimDist = match kind {
                0 => DimDist::block(n, p),
                1 => DimDist::cyclic(n, p),
                2 => DimDist::block_cyclic(n, p, 20),
                3 => DimDist::irregular(IrregularDist::from_owners(
                    (0..n).map(|i| (i / 19 + picks[0]) % p).collect(),
                    p,
                )),
                // [*, block] with 40-wide row segments (runs offered)…
                4 => DimDist::flattened(ArrayDist::block_cols(n / 8, 40 * p, p)),
                // …and with 3-wide ones (declined).
                _ => DimDist::flattened(ArrayDist::block_cols(n / 8, 3 * p, p)),
            };
            let rank = rank_pick % p;
            let records = random_schedule(dist.as_dyn(), rank, &picks, vec![]);
            let mut iterations = random_iterations(dist.n(), &seeds);
            let mut changed = changed_body(&iterations, dist.n(), &seeds);
            iterations.extend(edge_iterations(&dist, &records, false));
            changed.extend(edge_iterations(&dist, &records, true));
            // The same records, one nonlocal iteration per reference list.
            let fresh = random_schedule(dist.as_dyn(), rank, &picks, (0..iterations.len()).collect());
            let local_data: Vec<f64> = (0..dist.local_count(rank))
                .map(|l| 1.0 + dist.global_index(rank, l) as f64)
                .collect();
            let mut longer = local_data.clone();
            longer.push(0.25);
            let recv_buf: Vec<f64> = (0..fresh.recv_len)
                .map(|pos| -1.0 - pos as f64)
                .collect();
            let renamed = Refingerprinted(&dist);
            let owned = dist.local_runs(rank);
            // The distribution's own choice, and the fallback forced.
            for runs in [owned.as_deref(), None] {
                // A copy has executed nothing and learned nothing.
                let schedule = fresh.clone();
                let bytes = schedule.approx_bytes();
                let run = |data: &[f64], body: &[Vec<usize>]| {
                    assert_execution_matches_the_definitional_route(
                        &dist, runs, &schedule, data, &recv_buf, body, &iterations,
                    )
                };
                // The second of an edge pair hits the last element of its
                // storage: of the owned run when runs are offered, of the
                // receive buffer either way.
                let ends_hit = |local: bool, received: bool| {
                    [usize::from(runs.is_some() && local), usize::from(received)]
                };
                let hits_ends = |paths: &Paths, ends: [usize; 2]| {
                    (0..2).all(|kind| paths.hits_at_the_end_of[kind] >= ends[kind])
                };
                let (local, received) = (!local_data.is_empty(), !recv_buf.is_empty());
                // Plain: windows and searches.
                let plain = run(&local_data, &iterations);
                prop_assert_eq!(plain.memo, "off");
                prop_assert_eq!(plain.replayed, 0);
                prop_assert!(hits_ends(&plain, ends_hit(local, received)), "{:?}", plain);
                prop_assert_eq!(schedule.approx_bytes(), bytes);
                // Recording: the very same references, which would hit
                // those windows, all reach `miss` and are all recorded
                // (every replaying run below checks the memo's rows).
                let recording = run(&local_data, &iterations);
                prop_assert_eq!(recording.memo, "record");
                prop_assert_eq!((recording.replayed, recording.hits), (0, 0));
                prop_assert_eq!(recording.misses, plain.hits + plain.misses);
                prop_assert!(schedule.approx_bytes() > bytes);
                // Replay (a panicking reference is in no memo, and the
                // rest of its iteration goes to the windows after it).
                let replay = run(&local_data, &iterations);
                prop_assert_eq!(replay.memo, "replay");
                // … of a body that changed since: partial hits, then the
                // windows — where there are two edge pairs to swap, all
                // four references mismatch and the second of each pair
                // hits — and of the recorded one again.
                let other = run(&local_data, &changed);
                prop_assert_eq!(other.memo, "replay");
                let swapped = ends_hit(local && received, local && received);
                prop_assert!(hits_ends(&other, swapped), "{:?}", other);
                prop_assert!(other.hits_after_mismatch >= swapped[0] + swapped[1], "{:?}", other);
                prop_assert_eq!(run(&local_data, &iterations), replay);
                // Under another placement the memo is ignored.
                prop_assert_eq!(run(&longer, &iterations).memo, "off");
                let elsewhere = assert_execution_matches_the_definitional_route(
                    &renamed, None, &schedule, &local_data, &recv_buf, &changed, &[],
                );
                prop_assert_eq!(elsewhere.memo, "off");
                prop_assert_eq!(run(&local_data, &changed), other);
            }
        }
    }

    #[test]
    fn both_sides_of_the_runs_choice_are_exercised() {
        // The generator above must keep covering `Some` and `None`.
        assert!(DimDist::block(24, 4).local_runs(1).is_some());
        assert!(DimDist::block_cyclic(199, 2, 20).local_runs(1).is_some());
        assert!(DimDist::flattened(ArrayDist::block_cols(3, 80, 2))
            .local_runs(1)
            .is_some());
        assert!(DimDist::cyclic(24, 4).local_runs(1).is_none());
        assert!(DimDist::flattened(ArrayDist::block_cols(3, 6, 2))
            .local_runs(1)
            .is_none());
        assert!(DimDist::new(BlockDist::new(24, 4)).local_runs(3).is_some());
    }
}

/// Block ownership through the trait's required methods alone (no
/// runs offered), stored ascending or — `reversed` — descending, so that
/// nothing may assume local order follows global order.
#[derive(Debug)]
struct PlainBlock {
    inner: distrib::BlockDist,
    reversed: bool,
}

impl PlainBlock {
    fn flip(&self, rank: usize, l: usize) -> usize {
        if self.reversed {
            self.inner.local_count(rank) - 1 - l
        } else {
            l
        }
    }
}

impl Distribution for PlainBlock {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn owner(&self, i: usize) -> usize {
        self.inner.owner(i)
    }
    fn local_index(&self, i: usize) -> usize {
        self.flip(self.inner.owner(i), self.inner.local_index(i))
    }
    fn global_index(&self, rank: usize, l: usize) -> usize {
        self.inner.global_index(rank, self.flip(rank, l))
    }
    fn local_count(&self, rank: usize) -> usize {
        self.inner.local_count(rank)
    }
    fn kind_name(&self) -> &'static str {
        "plain-block"
    }
    fn fingerprint(&self) -> u64 {
        !self.inner.fingerprint() ^ u64::from(self.reversed)
    }
}

/// On-clause distributions for the `home()` tests, all over 4 ranks:
/// every built-in on both sides of the runs choice, and two that
/// implement only the trait's required methods.
fn on_clause_distributions() -> Vec<(&'static str, DimDist)> {
    use distrib::{ArrayDist, BlockDist, DimAssign, IrregularDist, ProcGrid};
    let p = 4;
    let cyclic_block = ArrayDist::new(
        ProcGrid::new_2d(2, 2),
        vec![
            DimAssign::Distributed(DimDist::cyclic(6, 2)),
            DimAssign::Distributed(DimDist::block(40, 2)),
        ],
    );
    let plain = |reversed| PlainBlock {
        inner: BlockDist::new(150, p),
        reversed,
    };
    vec![
        ("block", DimDist::block(150, p)),
        ("cyclic", DimDist::cyclic(150, p)),
        ("block-cyclic", DimDist::block_cyclic(150, p, 20)),
        (
            "irregular",
            DimDist::irregular(IrregularDist::from_owners(
                (0..150).map(|i| (i / 17 + 1) % p).collect(),
                p,
            )),
        ),
        (
            "[block,*]",
            DimDist::flattened(ArrayDist::block_rows(8, 20, p)),
        ),
        (
            "[*,block]",
            DimDist::flattened(ArrayDist::block_cols(3, 80, p)),
        ),
        ("[cyclic,block]", DimDist::flattened(cyclic_block)),
        ("trait default", DimDist::new(plain(false))),
        ("reversed block", DimDist::new(plain(true))),
    ]
}

#[test]
fn home_follows_the_on_clause_distribution() {
    // A loop placed by `on` reading an array placed by `data`: for every
    // iteration of both phases and at every (workers, chunk), `home()` is
    // the offset under `on`.
    let p = 4;
    for (name, on) in on_clause_distributions() {
        let n = on.n();
        let data = DimDist::block_cyclic(n, p, 7);
        assert_ne!(on.fingerprint(), data.fingerprint(), "{name}");
        let machine = Machine::new(p, CostModel::ideal());
        let phases = machine.run(|proc| {
            let rank = proc.rank();
            let local: Vec<f64> = data.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&on, rank, n);
            let schedule = run_inspector(proc, &data, &exec, |i, refs| refs.push(i));
            for workers in [1usize, 4] {
                for chunk in [1usize, 3, 0] {
                    let at = format!("{name}: workers={workers} chunk={chunk}");
                    let mut seen = Vec::new();
                    execute_sweep(
                        proc,
                        ExecutorConfig::default()
                            .with_workers(workers)
                            .with_chunk(chunk),
                        &schedule,
                        &on,
                        &data,
                        &local,
                        |i, fetch| {
                            let home = fetch.home();
                            // Asking again, and after a fetch, changes nothing.
                            assert_eq!(fetch.fetch(i), i as f64);
                            assert_eq!(fetch.home(), home, "{at}: iteration {i}");
                            home
                        },
                        |i, home| {
                            assert_eq!(home, on.local_index(i), "{at}: iteration {i}");
                            seen.push(i);
                        },
                    );
                    seen.sort_unstable();
                    assert_eq!(seen, exec, "{at}");
                }
            }
            (
                schedule.local_iters().len(),
                schedule.nonlocal_iters().len(),
            )
        });
        // The two placements really differ: both phases ran somewhere.
        assert!(phases.iter().any(|&(local, _)| local > 0), "{name}");
        assert!(phases.iter().any(|&(_, nonlocal)| nonlocal > 0), "{name}");
    }
}

#[test]
fn home_of_an_iteration_outside_every_run_is_the_distributions_answer() {
    // A hand-built schedule may hand a rank an iteration it does not
    // own under the on-clause distribution; `home()` then says what
    // `local_index` says (as the body used to), and the window of the
    // run it left keeps answering afterwards.
    let dist = DimDist::block(8, 2); // rank 0 owns 0..4
    let empty = CommSchedule::from_recv_sets(0, &[], vec![], vec![]);
    let runs = dist.local_runs(0);
    let mut fetcher = chunk_fetcher(&dist, runs.as_deref(), &empty, &[], &[], MemoPlan::Off);
    for i in [1usize, 6, 2, 7, 3] {
        fetcher.home.iter = i;
        assert_eq!(fetcher.home(), dist.local_index(i), "iteration {i}");
    }
}

#[test]
fn home_is_invisible_to_a_metering_backend() {
    // Same sweeps, with and without the body asking for its home
    // offset: every counter and the simulated clock agree.
    for (name, on) in on_clause_distributions() {
        let n = on.n();
        let data = DimDist::block_cyclic(n, 4, 7);
        let run = |ask: bool| {
            let machine = Machine::new(4, CostModel::ncube7());
            let (_, stats) = machine.run_stats(|proc| {
                let rank = proc.rank();
                let local: Vec<f64> = data.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&on, rank, n - 1);
                let schedule = run_inspector(proc, &data, &exec, |i, refs| refs.push(i + 1));
                let mut out = vec![0.0; on.local_count(rank)];
                // Inline with the default chunk, then on the pool.
                for (sweep, (workers, chunk)) in [(1, 0), (4, 3)].into_iter().enumerate() {
                    execute_sweep(
                        proc,
                        ExecutorConfig::sweep(sweep)
                            .with_workers(workers)
                            .with_chunk(chunk),
                        &schedule,
                        &on,
                        &data,
                        &local,
                        |i, fetch| {
                            let l = if ask { fetch.home() } else { on.local_index(i) };
                            (l, fetch.fetch(i + 1))
                        },
                        |_, (l, v)| out[l] = v,
                    );
                }
                out
            });
            (masked(stats.totals), stats.time.to_bits())
        };
        assert_eq!(run(true), run(false), "{name}");
    }
}

#[test]
fn local_pieces_follow_the_runs_and_fall_back_per_element() {
    use distrib::ArrayDist;
    // [*, block] 4 × 64 over 2: rank 1 owns columns 32..64 of each row.
    let dist = DimDist::flattened(ArrayDist::block_cols(4, 64, 2));
    let runs = dist.local_runs(1).expect("32-wide segments are offered");
    let mut pieces = Vec::new();
    // One row segment from its middle, clipped at the range's end.
    for_each_local_piece(&dist, Some(&runs), 64 + 40, 64 + 50, |g, l, len| {
        pieces.push((g, l, len))
    });
    assert_eq!(pieces, vec![(104, 32 + 8, 10)]);
    // The fallback visits the same elements one by one.
    let mut singles = Vec::new();
    for_each_local_piece(&dist, None, 64 + 40, 64 + 50, |g, l, len| {
        singles.push((g, l, len))
    });
    assert_eq!(
        singles,
        (0..10).map(|k| (104 + k, 40 + k, 1)).collect::<Vec<_>>()
    );
    // A range reaching into columns the rank does not own is a bug in
    // the caller's schedule, not something to read past.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for_each_local_piece(&dist, Some(&runs), 64 + 60, 128 + 4, |_, _, _| {})
    }));
    assert!(result.is_err());
}

#[test]
fn sweep_tags_wrap_within_the_executor_window() {
    // Regression: `sweep as Tag` unchecked would let a long run's sweep
    // counter walk the executor tags into the adjacent reserved range
    // (and trip `executor_tag`'s debug assertion).
    let span = tags::SPAN as usize;
    assert_eq!(ExecutorConfig::sweep(0).tag, 0);
    assert_eq!(ExecutorConfig::sweep(span - 1).tag, tags::SPAN - 1);
    assert_eq!(ExecutorConfig::sweep(span).tag, 0, "boundary must wrap");
    assert_eq!(ExecutorConfig::sweep(span + 5).tag, 5);
    // The wrapped tag is always valid input for executor_tag.
    for sweep in [0, span - 1, span, 3 * span + 17] {
        let t = tags::executor_tag(ExecutorConfig::sweep(sweep).tag);
        assert!((tags::EXECUTOR_BASE..tags::EXECUTOR_BASE + tags::SPAN).contains(&t));
    }
    // The builders keep the tag.
    let c = ExecutorConfig::sweep(7).with_workers(3).with_chunk(5);
    assert_eq!((c.tag, c.workers, c.chunk), (7, 3, 5));
}

/// The shift of Figure 1 at any worker count and chunk size: the values
/// are the sequential shift's, and the metered counters those of the
/// (one worker, one whole-list chunk) run.
#[test]
fn chunked_shift_matches_scalar_at_any_workers_and_chunk() {
    let n = 64;
    let nprocs = 4;
    let run = |workers: usize, chunk: usize| {
        let machine = Machine::new(nprocs, CostModel::ncube7());
        machine.run_stats(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&dist, rank, n - 1);
            let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
            let mut new_a = local_a.clone();
            execute_sweep(
                proc,
                ExecutorConfig::default()
                    .with_workers(workers)
                    .with_chunk(chunk),
                &schedule,
                &dist,
                &dist,
                &local_a,
                |i, fetch| (fetch.home(), fetch.fetch(i + 1)),
                |_, (l, v)| new_a[l] = v,
            );
            new_a
        })
    };
    let dist = DimDist::block(n, nprocs);
    let shifted: Vec<Vec<f64>> = (0..nprocs)
        .map(|rank| {
            let owned = dist.local_set(rank);
            owned.iter().map(|g| (g + 1).min(n - 1) as f64).collect()
        })
        .collect();
    let (_, whole_stats) = run(1, usize::MAX);
    for workers in [1usize, 2, 4] {
        for chunk in [0usize, 1, 3, 7, 1024, usize::MAX] {
            let (vals, stats) = run(workers, chunk);
            assert_eq!(vals, shifted, "workers={workers} chunk={chunk}");
            assert_eq!(
                masked(stats.totals),
                masked(whole_stats.totals),
                "counters diverged at workers={workers} chunk={chunk}"
            );
        }
    }
}

/// Body charges through the `Fetcher` merge into the process in chunk
/// order and add up to what the body charged iteration by iteration: per
/// iteration 2 flops, 3 memory references, 1 call and the loop control,
/// one access per fetch — and nothing else besides packing and unpacking
/// the one halo element (2 memory references on either side).
#[test]
fn chunk_costs_merge_to_the_scalar_totals() {
    let n = 40;
    let iterations = (n - 1) as u64;
    for (workers, chunk) in [(1usize, 0usize), (3, 4)] {
        let machine = Machine::new(2, CostModel::ncube7());
        let charged = machine.run(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&dist, rank, n - 1);
            let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
            let before = proc.counters();
            execute_sweep(
                proc,
                ExecutorConfig::default()
                    .with_workers(workers)
                    .with_chunk(chunk),
                &schedule,
                &dist,
                &dist,
                &local_a,
                |i, fetch| {
                    fetch.charge_flops(2);
                    fetch.charge_mem_refs(3);
                    fetch.charge_calls(1);
                    fetch.fetch(i + 1)
                },
                |_i, _v: f64| {},
            );
            proc.counters().since(&before)
        });
        let total = charged[0].merge(&charged[1]);
        assert_eq!(total.flops, 2 * iterations);
        assert_eq!(total.mem_refs, 3 * iterations + 2 + 2);
        assert_eq!(total.calls, iterations);
        assert_eq!(total.loop_iters, iterations);
        assert_eq!(total.nonlocal_refs, 1, "only i = 19 reaches across");
    }
}

#[test]
#[should_panic(expected = "SPMD worker panicked")]
fn chunked_fetch_of_unscheduled_element_panics() {
    let machine = Machine::new(2, CostModel::ideal());
    machine.run(|proc| {
        let dist = DimDist::block(8, 2);
        let rank = proc.rank();
        let local_a: Vec<f64> = dist.local_set(rank).iter().map(|_| 0.0).collect();
        let exec = owner_computes_iters(&dist, rank, 8);
        let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i));
        execute_sweep(
            proc,
            ExecutorConfig::default().with_workers(2).with_chunk(2),
            &schedule,
            &dist,
            &dist,
            &local_a,
            |i, fetch| fetch.fetch((i + 4) % 8),
            |_i, _v: f64| {},
        );
    });
}

#[test]
#[should_panic(expected = "SPMD worker panicked")]
fn fetching_unscheduled_element_panics() {
    let machine = Machine::new(2, CostModel::ideal());
    machine.run(|proc| {
        let dist = DimDist::block(8, 2);
        let rank = proc.rank();
        let local_a: Vec<f64> = dist.local_set(rank).iter().map(|_| 0.0).collect();
        // Schedule built for the identity pattern (no communication)…
        let exec = owner_computes_iters(&dist, rank, 8);
        let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i));
        // …but the body reaches across the boundary.
        execute_sweep(
            proc,
            ExecutorConfig::default(),
            &schedule,
            &dist,
            &dist,
            &local_a,
            |i, fetch| fetch.fetch((i + 4) % 8),
            |_i, _v: f64| {},
        );
    });
}

// ----------------------------------------------------------------------
// Rows
// ----------------------------------------------------------------------

/// `inner`'s mapping without its runs: the per-element paths of a
/// distribution that offers none.
#[derive(Debug)]
struct NoRuns<D>(D);

impl<D: Distribution> Distribution for NoRuns<D> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn owner(&self, i: usize) -> usize {
        self.0.owner(i)
    }
    fn local_index(&self, i: usize) -> usize {
        self.0.local_index(i)
    }
    fn global_index(&self, rank: usize, l: usize) -> usize {
        self.0.global_index(rank, l)
    }
    fn local_count(&self, rank: usize) -> usize {
        self.0.local_count(rank)
    }
    fn kind_name(&self) -> &'static str {
        "no-runs"
    }
    fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }
}

/// One sweep configuration of [`stencil_sweeps`].
#[derive(Debug, Clone, Copy)]
struct StencilCase {
    /// Field shape.
    rows: usize,
    cols: usize,
    /// `[block, *]` when true, `[*, block]` otherwise.
    block_rows: bool,
    /// The vertical stencil (stride `cols`) when true, the horizontal one
    /// (stride 1) otherwise.
    vertical: bool,
    /// Whether the distributions offer their runs.
    runs: bool,
    workers: usize,
    chunk: usize,
}

/// What a run of [`stencil_sweeps`] leaves: the local field's bits and
/// what the backend metered.
type StencilRun = (Vec<u64>, crate::process::Counters);

/// Three sweeps of the three-point stencil of `case` over a double-buffered
/// field, planned in closed form, as a point body or (`rows`) as a rows
/// body that falls back to `fetch` where `Fetcher::rows` answers `None`.
/// `served` counts the row pieces `rows` served and those it did not.
fn stencil_sweeps<P: Process>(
    proc: &mut P,
    case: StencilCase,
    rows: bool,
    served: &[AtomicUsize; 2],
) -> StencilRun {
    use crate::{MultiAffineMap, Rect, Session};
    use distrib::{ArrayDist, FlatDist};
    let StencilCase {
        rows: r, cols: c, ..
    } = case;
    let (rank, p) = (proc.rank(), proc.nprocs());
    let flat = FlatDist::new(if case.block_rows {
        ArrayDist::block_rows(r, c, p)
    } else {
        ArrayDist::block_cols(r, c, p)
    });
    let (space, shift, stride) = if case.vertical {
        (Rect::full(&[r, c]).restrict(0, 1, r - 1), [1, 0], c)
    } else {
        (Rect::full(&[r, c]).restrict(1, 1, c - 1), [0, 1], 1)
    };
    let refs = [
        MultiAffineMap::shifts(&[-shift[0], -shift[1]]),
        MultiAffineMap::identity(2),
        MultiAffineMap::shifts(&shift),
    ];
    let mut session = Session::new();
    let loop_ = session.loop_over(space, flat.clone());
    let schedule = session.plan(proc, &loop_, &flat, &refs);
    let hidden = NoRuns(flat.clone());
    let dist: &dyn Distribution = if case.runs { &flat } else { &hidden };
    let mut a: Vec<f64> = (0..flat.local_count(rank))
        .map(|l| (flat.global_index(rank, l) * 37 % 23) as f64 * 0.125)
        .collect();
    let before = proc.counters();
    for sweep in 0..3 {
        let old = a.clone();
        let config = ExecutorConfig::sweep(sweep)
            .with_workers(case.workers)
            .with_chunk(case.chunk);
        if rows {
            execute_rows_sweep(
                proc,
                config,
                &schedule,
                dist,
                dist,
                &old,
                |run, fetch| {
                    let mut values = Vec::with_capacity(run.len());
                    let mut g = run.start;
                    while g < run.end {
                        let len = (run.end - g).min(c - g % c);
                        let row = fetch.rows([g - stride, g, g + stride], len);
                        served[usize::from(row.is_none())].fetch_add(1, Ordering::Relaxed);
                        match row {
                            Some([lo, mid, hi]) => values.extend(
                                lo.iter()
                                    .zip(mid)
                                    .zip(hi)
                                    .map(|((lo, mid), hi)| 0.25 * lo + 0.5 * mid + 0.25 * hi),
                            ),
                            None => values.extend((g..g + len).map(|g| {
                                let lo = fetch.fetch(g - stride);
                                let mid = fetch.fetch(g);
                                let hi = fetch.fetch(g + stride);
                                0.25 * lo + 0.5 * mid + 0.25 * hi
                            })),
                        }
                        g += len;
                    }
                    fetch.charge_flops(5 * run.len());
                    fetch.charge_mem_refs(run.len());
                    (fetch.home(), values)
                },
                |_, (l, values): (usize, Vec<f64>)| a[l..l + values.len()].copy_from_slice(&values),
            );
        } else {
            execute_sweep(
                proc,
                config,
                &schedule,
                dist,
                dist,
                &old,
                |g, fetch| {
                    let lo = fetch.fetch(g - stride);
                    let mid = fetch.fetch(g);
                    let hi = fetch.fetch(g + stride);
                    fetch.charge_flops(5);
                    fetch.charge_mem_refs(1);
                    (fetch.home(), 0.25 * lo + 0.5 * mid + 0.25 * hi)
                },
                |_, (l, v)| a[l] = v,
            );
        }
    }
    let bits = a.iter().map(|v| v.to_bits()).collect();
    (bits, masked(proc.counters().since(&before)))
}

/// Every case of the rows-versus-points comparison: both placements, both
/// stencil directions, runs offered and hidden, one worker and four,
/// default and three-iteration chunks.  The 9 × 40 field's `[*, block]`
/// runs are 20 wide at P = 2 and too short to be offered at P = 3 and 4
/// (`MIN_MEAN_RUN`), hidden or not.
fn stencil_cases() -> Vec<StencilCase> {
    let mut cases = Vec::new();
    for block_rows in [true, false] {
        for vertical in [true, false] {
            for runs in [true, false] {
                for (workers, chunk) in [(1, 0), (1, 3), (4, 0), (4, 3)] {
                    cases.push(StencilCase {
                        rows: 9,
                        cols: 40,
                        block_rows,
                        vertical,
                        runs,
                        workers,
                        chunk,
                    });
                }
            }
        }
    }
    cases
}

#[test]
fn rows_and_points_agree_bitwise_and_in_every_counter() {
    // dmsim: a fresh machine per case and body, so that the simulated
    // clocks start from the same zero and must end on the same bits.
    for p in 1..=4 {
        for case in stencil_cases() {
            let served = Default::default();
            let run = |rows: bool| {
                Machine::new(p, CostModel::ncube7()).run(|proc| {
                    let run = stencil_sweeps(proc, case, rows, &served);
                    (run, proc.time().to_bits())
                })
            };
            let (points, rows) = (run(false), run(true));
            assert_eq!(rows, points, "dmsim P={p} {case:?}");
            // Runs are offered unless hidden or, under [*, block] at
            // P ≥ 3, too short; then `rows` serves every piece — the halo
            // rows of the vertical stencil under [block, *] from the
            // receive records of the nonlocal list — and otherwise none.
            let [some, none] = served.map(AtomicUsize::into_inner);
            let offered = case.runs && (case.block_rows || p <= 2);
            assert_eq!((some > 0, none > 0), (offered, !offered), "P={p} {case:?}");
            let nonlocal: u64 = points.iter().map(|((_, c), _)| c.nonlocal_refs).sum();
            if case.block_rows && case.vertical && p > 1 {
                assert!(nonlocal > 0, "P={p} {case:?}");
            }
        }
    }
    // native and mp meter messages only: every case runs on one machine
    // per P, each rank comparing what the two bodies moved.
    for p in 1..=4 {
        let compare = |sweeps: &mut dyn FnMut(bool, StencilCase) -> StencilRun| {
            for case in stencil_cases() {
                assert_eq!(sweeps(true, case), sweeps(false, case), "P={p} {case:?}");
            }
        };
        let served = Default::default();
        kali_native::NativeMachine::new(p)
            .run(|proc| compare(&mut |rows, case| stencil_sweeps(proc, case, rows, &served)));
        kali_mp::MpMachine::new(p).run_threads(|proc| {
            compare(&mut |rows, case| stencil_sweeps(proc, case, rows, &served))
        });
    }
}

/// The `rows` contract on rank 0 of a block-placed `0..16` that receives
/// `8..10` and `12..14` from rank 1: every pair of stretch starts and
/// every length is served exactly when one run or one record holds each
/// stretch, with the definitional values and counts, and otherwise counts
/// nothing — `None`, or the panic of `fetch` for a start nothing covers.
#[test]
fn rows_serves_a_stretch_only_from_one_run_or_one_record() {
    use distrib::{IndexRange, IndexSet};
    let dist = DimDist::block(16, 2);
    let recv_sets = vec![
        IndexSet::new(),
        IndexSet::from_ranges(vec![IndexRange::new(8, 10), IndexRange::new(12, 14)]),
    ];
    let schedule = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![]);
    let local_data: Vec<f64> = (0..8).map(|g| g as f64).collect();
    let recv_buf = [100.0f64, 101.0, 102.0, 103.0];
    let runs = dist.local_runs(0);
    // Where one run or one record holds the whole stretch, and of what
    // kind; `None` where it is not covered at all.
    let held = |g: usize, len: usize| -> Option<Option<bool>> {
        let pieces = [(0, 8, false), (8, 10, true), (12, 14, true)];
        let (low, high, nonlocal) = pieces.into_iter().find(|&(l, h, _)| l <= g && g < h)?;
        Some((low <= g && g + len <= high).then_some(nonlocal))
    };
    let value = |g: usize| match schedule.find(g) {
        Some(pos) => recv_buf[pos],
        None => local_data[g],
    };
    for len in 1..=4 {
        for g0 in 0..16 {
            for g1 in [0, 6, 8, 12, g0] {
                let mut fetcher = chunk_fetcher(
                    &dist,
                    runs.as_deref(),
                    &schedule,
                    &local_data,
                    &recv_buf,
                    MemoPlan::Off,
                );
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fetcher
                        .rows([g0, g1], len)
                        .map(|rows| rows.map(<[f64]>::to_vec))
                }));
                let what = format!("rows([{g0}, {g1}], {len})");
                let (Some(first), Some(second)) = (held(g0, len), held(g1, len)) else {
                    let uncovered = if held(g0, len).is_none() { g0 } else { g1 };
                    assert_eq!(
                        got.err().map(panic_message),
                        Some(format!(
                            "global index {uncovered} is neither local to rank 0 nor in its \
                             receive schedule"
                        )),
                        "{what}"
                    );
                    assert_eq!(fetcher.costs, ChunkCosts::default(), "{what}");
                    continue;
                };
                let got = got.expect("covered starts do not panic");
                match first.zip(second) {
                    Some((first, second)) => {
                        let expected = [g0, g1].map(|g| (g..g + len).map(value).collect());
                        assert_eq!(got, Some(expected), "{what}");
                        let nonlocal = usize::from(first) + usize::from(second);
                        let counted = ChunkCosts {
                            local_accesses: (2 - nonlocal) * len,
                            nonlocal_accesses: nonlocal * len,
                            ..ChunkCosts::default()
                        };
                        assert_eq!(fetcher.costs, counted, "{what}");
                    }
                    None => {
                        assert_eq!(got, None, "{what}");
                        assert_eq!(fetcher.costs, ChunkCosts::default(), "{what}");
                    }
                }
            }
        }
    }
    // Without runs, `rows` serves nothing — not even a stretch one record
    // holds — and counts nothing.
    for dist in [
        DimDist::cyclic(16, 2),
        DimDist::new(NoRuns(DimDist::block(16, 2))),
    ] {
        assert_eq!(dist.local_runs(0), None);
        let mut fetcher = chunk_fetcher(
            &dist,
            None,
            &schedule,
            &local_data,
            &recv_buf,
            MemoPlan::Off,
        );
        assert_eq!(fetcher.rows([0], 2), None);
        assert_eq!(fetcher.rows([8], 2), None);
        assert_eq!(fetcher.costs, ChunkCosts::default());
    }
    // From the local list a received stretch fails as a received fetch
    // does: the schedule was planned for another body.
    let mut fetcher = chunk_fetcher(
        &dist,
        runs.as_deref(),
        &schedule,
        &local_data,
        &[],
        MemoPlan::Off,
    );
    fetcher.next_iteration(0, 3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetcher.rows([0, 8], 2)));
    assert_eq!(
        result.err().map(panic_message).as_deref(),
        Some(
            "rank 0: iteration 3 of the local list fetched global 8, which is received from \
             rank 1: the schedule was planned for a different reference pattern"
        )
    );
    assert_eq!(fetcher.costs, ChunkCosts::default());
}

#[test]
fn rows_sweeps_leave_the_translation_memo_alone() {
    // A [block, *] vertical stencil on two ranks: each rank's halo row
    // iterations form the nonlocal list, so point sweeps learn a memo on
    // their second execution.  After k rows sweeps, point sweeps must
    // learn and replay exactly as on a fresh schedule.
    use crate::{MultiAffineMap, Rect, Session};
    use distrib::{ArrayDist, FlatDist};
    let (r, c) = (8, 20);
    let footprints = |k: usize| {
        Machine::new(2, CostModel::ncube7()).run(|proc| {
            let flat = FlatDist::new(ArrayDist::block_rows(r, c, proc.nprocs()));
            let refs = [
                MultiAffineMap::shifts(&[-1, 0]),
                MultiAffineMap::identity(2),
                MultiAffineMap::shifts(&[1, 0]),
            ];
            let mut session = Session::new();
            let loop_ = session.loop_over(Rect::full(&[r, c]).restrict(0, 1, r - 1), flat.clone());
            let schedule = session.plan(proc, &loop_, &flat, &refs);
            assert!(!schedule.nonlocal_iters().is_empty());
            let old = vec![1.0f64; flat.local_count(proc.rank())];
            let fresh = schedule.approx_bytes();
            for _ in 0..k {
                session.execute_rows(
                    proc,
                    &loop_,
                    &schedule,
                    &flat,
                    &old,
                    |run, fetch| {
                        let mut sum = 0.0;
                        for g in run {
                            sum += fetch.fetch(g - c) + fetch.fetch(g + c);
                        }
                        sum
                    },
                    |_, _| {},
                );
                assert_eq!(
                    schedule.approx_bytes(),
                    fresh,
                    "a rows sweep learns nothing"
                );
            }
            let sweeps = (0..4)
                .map(|_| {
                    let mut sum = 0.0;
                    session.execute(
                        proc,
                        &loop_,
                        &schedule,
                        &flat,
                        &old,
                        |g, fetch| fetch.fetch(g - c) + fetch.fetch(g + c),
                        |_, v| sum += v,
                    );
                    (schedule.approx_bytes(), sum.to_bits())
                })
                .collect::<Vec<_>>();
            (fresh, sweeps)
        })
    };
    let fresh = footprints(0);
    for (before, sweeps) in &fresh {
        // Nothing learned by the first execution, the memo by the second.
        assert_eq!(sweeps[0].0, *before);
        assert!(sweeps[1].0 > *before, "the second point sweep records");
        assert_eq!(sweeps[3].0, sweeps[1].0);
    }
    for k in 1..=3 {
        assert_eq!(footprints(k), fresh, "after {k} rows sweeps");
    }
}

#[test]
fn rows_are_maximal_runs_inside_one_chunk_and_one_owned_run() {
    // The runs a rows sweep hands its body, under every on-clause
    // distribution of the `home()` tests and at every (workers, chunk):
    // together they are the iteration lists in order; inside each, home
    // offsets follow on from `fetch.home()`; and two runs that could have
    // been one are split by a chunk boundary or by the end of an owned run.
    let p = 4;
    for (name, on) in on_clause_distributions() {
        let n = on.n();
        let data = DimDist::block_cyclic(n, p, 7);
        Machine::new(p, CostModel::ideal()).run(|proc| {
            let rank = proc.rank();
            let local: Vec<f64> = data.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&on, rank, n);
            let schedule = run_inspector(proc, &data, &exec, |i, refs| refs.push(i));
            let owned = on.local_runs(rank);
            for workers in [1usize, 4] {
                for chunk in [1usize, 3, 0] {
                    let at = format!("{name}: rank {rank} workers={workers} chunk={chunk}");
                    let config = ExecutorConfig::default()
                        .with_workers(workers)
                        .with_chunk(chunk);
                    let mut runs = Vec::new();
                    execute_rows_sweep(
                        proc,
                        config,
                        &schedule,
                        &on,
                        &data,
                        &local,
                        |run, fetch| {
                            for g in run.clone() {
                                assert_eq!(fetch.fetch(g), g as f64);
                            }
                            (run, fetch.home())
                        },
                        |start, (run, home)| {
                            assert_eq!(start, run.start);
                            runs.push((run, home));
                        },
                    );
                    let chunk = config.effective_chunk();
                    let mut next = runs.into_iter();
                    for list in [schedule.local_iters(), schedule.nonlocal_iters()] {
                        let mut position = 0;
                        let mut previous: Option<Range<usize>> = None;
                        while position < list.len() {
                            let (run, home) = next.next().expect("a run for every iteration");
                            let len = run.len();
                            let iterations: Vec<usize> = run.clone().collect();
                            assert!(list[position..].starts_with(&iterations), "{at}: {run:?}");
                            for (k, i) in run.clone().enumerate() {
                                assert_eq!(on.local_index(i), home + k, "{at}: {run:?}");
                            }
                            assert_eq!(position / chunk, (position + len - 1) / chunk, "{at}");
                            if let Some(previous) = previous.filter(|r| r.end == run.start) {
                                let one_owned_run = owned
                                    .as_deref()
                                    .and_then(|runs| find_run(runs, previous.start))
                                    .is_some_and(|owned| run.start < owned.high);
                                assert!(
                                    position % chunk == 0 || !one_owned_run,
                                    "{at}: {previous:?} and {run:?} are one run"
                                );
                            }
                            previous = Some(run);
                            position += len;
                        }
                    }
                    assert!(next.next().is_none(), "{at}");
                }
            }
        });
    }
}

//! Schedule caching (paper §3.2).
//!
//! "Our run-time analysis takes advantage of this by computing the `exec(p)`
//! and `ref(p)` sets only the first time they are needed and saving them for
//! later loop executions.  This amortizes the cost of the run-time analysis
//! over many repetitions of the forall."
//!
//! A [`ScheduleCache`] is a per-processor map from a [`LoopKey`] to the
//! schedule built by the inspector.  The key has four parts:
//!
//! * the *loop id* — static identity of the `forall` in the program text;
//! * the *data version* — the paper's observation that the schedule stays
//!   valid only while the data controlling the subscripts (the `adj` array)
//!   is unchanged; bumping the version forces re-inspection;
//! * the *distribution fingerprint* — the identity of the distributions the
//!   schedule was built under.  A schedule is a function of the placement:
//!   after redistributing an array (or swapping the on-clause distribution)
//!   the cached `in`/`out` sets describe the *old* placement, so reusing
//!   them would silently move the wrong elements.  Keying on the
//!   fingerprint makes redistribution invalidate stale schedules without
//!   any explicit bookkeeping by the program;
//! * the *reference fingerprint* — the affine subscripts the schedule was
//!   planned for, when the inspector ran as the fallback of an affine plan
//!   (planning the same loop for `A[2i]` and then for `A[3i+1]` must build
//!   two schedules).
//!
//! ## Bounded residency and self-invalidation
//!
//! Under adaptive workloads the key space is open-ended: every mesh
//! adaptation mints a new `data_version`, every rebalancing redistribution a
//! new `dist_fingerprint`.  An unbounded map would retain one dead schedule
//! per (version, fingerprint) ever seen.  The cache therefore
//!
//! * holds at most [`ScheduleCache::capacity`] entries, evicting the least
//!   recently used schedule when a build would exceed the bound;
//! * **self-invalidates generations**: inserting a schedule for
//!   `(loop, version v)` evicts every entry of the same loop with a version
//!   `< v` — data versions are monotone, so those can never be requested
//!   again;
//! * exposes explicit reclamation ([`ScheduleCache::invalidate_loop`],
//!   [`ScheduleCache::invalidate_fingerprint`]) for the cases the cache
//!   cannot infer, e.g. a redistribution that permanently retires a
//!   placement;
//! * meters itself: hits, misses, evictions, resident bytes
//!   ([`CommSchedule::approx_bytes`]) and peak resident entries, surfaced
//!   through the solvers' `CommReport`.
//!
//! Eviction decisions depend only on the *sequence of keys* requested —
//! never on per-rank schedule contents — so SPMD ranks, which execute the
//! same program on the same versions and distributions, still hit and miss
//! in lockstep (the inspector is collective; a desynchronised miss would
//! deadlock).

use std::collections::HashMap;
use std::sync::Arc;

use crate::schedule::CommSchedule;

/// Key identifying one `forall`'s communication pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopKey {
    /// Static identity of the loop (one per `forall` in the program text).
    pub loop_id: u64,
    /// Version of the run-time data controlling the subscripts.
    pub data_version: u64,
    /// Fingerprint of everything else the schedule is a function of: the
    /// distributions it was built under (see
    /// [`distrib::Distribution::fingerprint`]) and, when the key is built by
    /// `ParallelLoop::cache_key`, the iteration space's own fingerprint —
    /// re-describing a loop id over a different window must never reuse the
    /// old window's schedule.
    pub dist_fingerprint: u64,
    /// Fingerprint of the affine reference subscripts the schedule was
    /// planned for, set by `Session::plan` on its inspector fallback; `0`
    /// where the references are the caller's run-time data and
    /// `data_version` speaks for them.  Kept apart from `dist_fingerprint`
    /// so [`ScheduleCache::invalidate_fingerprint`] still names every
    /// schedule of a retired placement.
    pub refs_fingerprint: u64,
}

impl LoopKey {
    /// Assemble a key from its parts (no reference fingerprint).
    pub fn new(loop_id: u64, data_version: u64, dist_fingerprint: u64) -> Self {
        LoopKey {
            loop_id,
            data_version,
            dist_fingerprint,
            refs_fingerprint: 0,
        }
    }
}

/// Default residency bound: generous for static programs (a handful of
/// `forall`s × a few placements), tight enough that adaptive runs minting
/// unbounded key streams stay bounded.
pub const DEFAULT_CAPACITY: usize = 64;

#[derive(Debug)]
struct Entry {
    schedule: Arc<CommSchedule>,
    /// Logical timestamp of the last hit or the insertion (LRU recency).
    last_use: u64,
}

/// A per-processor cache of communication schedules with a bounded LRU
/// residency and generation self-invalidation (see the module docs).
#[derive(Debug)]
pub struct ScheduleCache {
    map: HashMap<LoopKey, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_resident: usize,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ScheduleCache {
    /// Create an empty cache with the default residency bound
    /// ([`DEFAULT_CAPACITY`] entries).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty cache holding at most `capacity` schedules (at least
    /// one — a cache that cannot hold the schedule it just built would
    /// defeat the paper's amortisation argument entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        ScheduleCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_resident: 0,
        }
    }

    /// Fetch the schedule for `key`, building it with `build` on the first
    /// request ("the conditional is only executed once and the results
    /// saved for future executions of the forall").
    ///
    /// The builder typically runs the inspector, which is a *collective*
    /// operation — all processors must therefore miss or hit together.
    /// They do, because they execute the same program on the same versions
    /// and distributions **and** because every eviction decision here is a
    /// function of the key sequence alone (capacity, LRU order, generation
    /// eviction), never of rank-local schedule contents.
    ///
    /// On a miss, entries of the same loop with an older `data_version` are
    /// evicted (versions are monotone — stale generations are dead weight),
    /// and if the bound is still exceeded the least recently used entry
    /// goes.
    pub fn get_or_build<F>(&mut self, key: LoopKey, build: F) -> Arc<CommSchedule>
    where
        F: FnOnce() -> CommSchedule,
    {
        self.clock += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.last_use = self.clock;
            self.hits += 1;
            return Arc::clone(&entry.schedule);
        }
        self.misses += 1;

        // Generation self-invalidation: older data versions of this loop can
        // never be requested again (versions only move forward).
        self.evict_where(|k| k.loop_id == key.loop_id && k.data_version < key.data_version);

        let schedule = Arc::new(build());
        self.map.insert(
            key,
            Entry {
                schedule: Arc::clone(&schedule),
                last_use: self.clock,
            },
        );

        // Residency bound: evict least-recently-used until within capacity.
        // The fresh entry holds the strictly greatest timestamp (the clock
        // ticks once per call), so it is never the minimum while any older
        // entry remains — and `len > capacity >= 1` guarantees one does.
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("cache over capacity cannot be empty");
            self.remove_entry(&victim);
        }
        self.peak_resident = self.peak_resident.max(self.map.len());
        schedule
    }

    fn remove_entry(&mut self, key: &LoopKey) {
        if self.map.remove(key).is_some() {
            self.evictions += 1;
        }
    }

    fn evict_where<F: Fn(&LoopKey) -> bool>(&mut self, stale: F) -> usize {
        let victims: Vec<LoopKey> = self.map.keys().filter(|k| stale(k)).copied().collect();
        for v in &victims {
            self.remove_entry(v);
        }
        victims.len()
    }

    /// Forget every schedule of the given loop (e.g. when the loop itself is
    /// retired).  Returns the number of entries reclaimed; their memory is
    /// released immediately (modulo outstanding `Arc` clones held by
    /// executing sweeps).
    pub fn invalidate_loop(&mut self, loop_id: u64) -> usize {
        self.evict_where(|k| k.loop_id == loop_id)
    }

    /// Forget every schedule built under the given (combined) distribution
    /// fingerprint — the reclamation hook for redistribution: once an array
    /// has moved, schedules describing the old placement are dead weight
    /// unless the program redistributes back.  Returns the number of entries
    /// reclaimed.
    pub fn invalidate_fingerprint(&mut self, dist_fingerprint: u64) -> usize {
        self.evict_where(|k| k.dist_fingerprint == dist_fingerprint)
    }

    /// Drop everything (counts as evictions).
    pub fn clear(&mut self) {
        self.evict_where(|_| true);
    }

    /// Number of cached schedules.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no schedule is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The residency bound (maximum number of cached schedules).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses (inspector executions) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted so far (capacity pressure, generation
    /// self-invalidation, and explicit `invalidate_*` calls).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes held by the resident schedules
    /// ([`CommSchedule::approx_bytes`] summed over the entries as they are
    /// now — a resident schedule grows when it learns its translation
    /// memo).  A gauge for reporting only — eviction never consults it
    /// (schedule sizes differ between ranks; decisions based on them would
    /// break SPMD lockstep).
    pub fn resident_bytes(&self) -> usize {
        self.map.values().map(|e| e.schedule.approx_bytes()).sum()
    }

    /// Highest number of simultaneously resident schedules seen so far.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// One snapshot of every gauge and counter — what the solvers copy into
    /// their outcome structs (via `Session::stats`) instead of reading six
    /// getters by hand.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_entries: self.map.len(),
            resident_bytes: self.resident_bytes(),
            peak_resident: self.peak_resident,
        }
    }
}

/// A point-in-time snapshot of a [`ScheduleCache`]'s meters (see
/// [`ScheduleCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits so far.
    pub hits: u64,
    /// Cache misses (inspector executions) so far.
    pub misses: u64,
    /// Entries evicted so far.
    pub evictions: u64,
    /// Schedules currently resident.
    pub resident_entries: usize,
    /// Approximate bytes held by the resident schedules.
    pub resident_bytes: usize,
    /// Highest number of simultaneously resident schedules seen.
    pub peak_resident: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_schedule(rank: usize) -> CommSchedule {
        CommSchedule::from_recv_sets(rank, &[], vec![], vec![])
    }

    #[test]
    fn builds_once_and_reuses() {
        let mut cache = ScheduleCache::new();
        let mut builds = 0;
        for _sweep in 0..100 {
            let s = cache.get_or_build(LoopKey::new(1, 0, 7), || {
                builds += 1;
                dummy_schedule(3)
            });
            assert_eq!(s.rank(), 3);
        }
        assert_eq!(builds, 1, "inspector must run exactly once for 100 sweeps");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 99);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn distinct_loops_and_fingerprints_coexist() {
        let mut cache = ScheduleCache::new();
        cache.get_or_build(LoopKey::new(1, 0, 7), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(2, 0, 7), || dummy_schedule(1));
        cache.get_or_build(LoopKey::new(1, 0, 9), || dummy_schedule(2));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        // Same keys hit.
        cache.get_or_build(LoopKey::new(2, 0, 7), || unreachable!("must hit the cache"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn version_bump_forces_reinspection_and_reclaims_the_stale_generation() {
        let mut cache = ScheduleCache::new();
        let mut builds = 0;
        for version in 0..5u64 {
            for _sweep in 0..10 {
                cache.get_or_build(LoopKey::new(7, version, 7), || {
                    builds += 1;
                    dummy_schedule(0)
                });
            }
        }
        assert_eq!(builds, 5, "one inspector run per adj-array version");
        // Self-invalidation: each new generation evicts the previous one.
        assert_eq!(cache.len(), 1, "only the newest generation stays resident");
        assert_eq!(cache.evictions(), 4);
    }

    #[test]
    fn generation_eviction_is_per_loop() {
        let mut cache = ScheduleCache::new();
        cache.get_or_build(LoopKey::new(1, 0, 7), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(2, 0, 7), || dummy_schedule(0));
        // Bumping loop 1's version must not touch loop 2's entry.
        cache.get_or_build(LoopKey::new(1, 1, 7), || dummy_schedule(0));
        assert_eq!(cache.len(), 2);
        cache.get_or_build(LoopKey::new(2, 0, 7), || {
            unreachable!("loop 2 must survive")
        });
    }

    #[test]
    fn changing_the_distribution_forces_reinspection() {
        // The bug this key field fixes: redistributing an array changes the
        // placement but not the loop id or data version; the cached schedule
        // would silently describe the old placement.  Same-version entries
        // for different fingerprints coexist (redistributing back must hit).
        let mut cache = ScheduleCache::new();
        let mut builds = 0;
        for fingerprint in [10u64, 20, 10, 20] {
            cache.get_or_build(LoopKey::new(1, 0, fingerprint), || {
                builds += 1;
                dummy_schedule(0)
            });
        }
        assert_eq!(builds, 2, "one build per distinct distribution");
        assert_eq!(cache.hits(), 2, "revisiting a distribution hits its entry");
    }

    #[test]
    fn capacity_bounds_residency_under_an_open_ended_key_stream() {
        // The acceptance criterion: generate > 4x the bound in distinct keys
        // (distinct fingerprints, so generation eviction cannot help) and the
        // resident set must never exceed the configured capacity.
        let bound = 8usize;
        let distinct = 4 * bound + 7;
        let mut cache = ScheduleCache::with_capacity(bound);
        for fp in 0..distinct as u64 {
            cache.get_or_build(LoopKey::new(1, 0, fp), || dummy_schedule(0));
            assert!(
                cache.len() <= bound,
                "resident {} exceeds bound {bound}",
                cache.len()
            );
        }
        assert_eq!(cache.peak_resident(), bound);
        assert_eq!(cache.misses(), distinct as u64);
        assert_eq!(cache.evictions(), (distinct - bound) as u64);
        // Resident bytes track the survivors only.
        let expected: usize = bound * dummy_schedule(0).approx_bytes();
        assert_eq!(cache.resident_bytes(), expected);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = ScheduleCache::with_capacity(2);
        cache.get_or_build(LoopKey::new(1, 0, 1), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(1, 0, 2), || dummy_schedule(0));
        // Touch fingerprint 1 so fingerprint 2 becomes the LRU victim.
        cache.get_or_build(LoopKey::new(1, 0, 1), || unreachable!("must hit"));
        cache.get_or_build(LoopKey::new(1, 0, 3), || dummy_schedule(0));
        assert_eq!(cache.len(), 2);
        cache.get_or_build(LoopKey::new(1, 0, 1), || unreachable!("1 was recent"));
        let mut rebuilt = false;
        cache.get_or_build(LoopKey::new(1, 0, 2), || {
            rebuilt = true;
            dummy_schedule(0)
        });
        assert!(rebuilt, "fingerprint 2 must have been the LRU victim");
    }

    #[test]
    fn capacity_one_keeps_the_freshest_schedule() {
        let mut cache = ScheduleCache::with_capacity(1);
        for fp in 0..5u64 {
            cache.get_or_build(LoopKey::new(1, 0, fp), || dummy_schedule(0));
            assert_eq!(cache.len(), 1);
        }
        // The newest entry is resident, not the oldest.
        cache.get_or_build(LoopKey::new(1, 0, 4), || unreachable!("must hit"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn invalidate_fingerprint_reclaims_exactly_the_stale_placement() {
        let mut cache = ScheduleCache::new();
        cache.get_or_build(LoopKey::new(1, 0, 10), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(2, 0, 10), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(1, 0, 20), || dummy_schedule(0));
        let bytes_before = cache.resident_bytes();
        assert_eq!(cache.invalidate_fingerprint(10), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() < bytes_before);
        assert_eq!(cache.evictions(), 2);
        // The surviving placement still hits.
        cache.get_or_build(LoopKey::new(1, 0, 20), || unreachable!("must hit"));
    }

    #[test]
    fn residency_follows_what_a_resident_schedule_learns() {
        // The gauge is read off the live entries: a schedule that learns its
        // translation memo on its second execution grows in place, and its
        // eviction gives all of it back.
        use crate::executor::{execute_sweep, ExecutorConfig};
        use crate::inspector::{owner_computes_iters, run_inspector};
        use distrib::DimDist;
        use dmsim::{CostModel, Machine, Process};
        let n = 32;
        Machine::new(2, CostModel::ideal()).run(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            let local: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
            let mut cache = ScheduleCache::new();
            let key = LoopKey::new(1, 0, dist.fingerprint());
            let mut gauge = Vec::new();
            for sweep in 0..3 {
                let schedule = cache.get_or_build(key, || {
                    let exec = owner_computes_iters(&dist, rank, n - 1);
                    run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1))
                });
                gauge.push(cache.resident_bytes());
                let config = ExecutorConfig::sweep(sweep);
                execute_sweep(
                    proc,
                    config,
                    &schedule,
                    &dist,
                    &dist,
                    &local,
                    |i, fetch| fetch.fetch(i + 1),
                    |_, _| {},
                );
            }
            gauge.push(cache.resident_bytes());
            assert_eq!(cache.stats().resident_bytes, gauge[3]);
            assert!(gauge[0] > 0);
            assert_eq!(gauge[1], gauge[0], "the first execution learns nothing");
            if rank == 0 {
                // Rank 0 fetches element 16 from rank 1: one nonlocal
                // iteration, recorded by the second execution.
                assert!(gauge[2] > gauge[1], "the second execution records");
            } else {
                assert_eq!(gauge[2], gauge[1], "no nonlocal iteration, no memo");
            }
            assert_eq!(gauge[3], gauge[2], "replaying learns nothing more");
            assert_eq!(cache.invalidate_fingerprint(dist.fingerprint()), 1);
            assert_eq!(cache.resident_bytes(), 0);
        });
    }

    #[test]
    fn invalidate_and_clear() {
        let mut cache = ScheduleCache::new();
        cache.get_or_build(LoopKey::new(1, 0, 7), || dummy_schedule(0));
        cache.get_or_build(LoopKey::new(2, 0, 7), || dummy_schedule(0));
        assert_eq!(cache.invalidate_loop(1), 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.evictions(), 2);
    }
}

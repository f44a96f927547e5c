//! The [`Distribution`] trait and the built-in regular patterns.
//!
//! A distribution maps the index space `0..n` of one array dimension onto
//! `0..p` processors — the paper's `local : Proc → 2^Arr` function (§2.2).
//! Until this module existed the patterns lived in a closed enum; the
//! analysis layer is now written against this trait instead, so *any* type
//! implementing it — including the owner-table-backed
//! [`IrregularDist`](crate::IrregularDist) — plugs into the inspector,
//! executor, redistribution and schedule cache unchanged.
//!
//! Every implementation must uphold the invariants the paper's analysis
//! assumes:
//!
//! * `owner` is total on `0..n`: every index has exactly one owner;
//! * the `local_set`s of distinct processors are disjoint and their union is
//!   `0..n` (`local(p) ∩ local(q) = ∅`);
//! * `global_index(owner(i), local_index(i)) == i` and
//!   `local_index(global_index(r, l)) == l` for `l < local_count(r)` —
//!   global↔local translation round-trips.
//!
//! [`Distribution::fingerprint`] gives every distribution a stable identity
//! used by the schedule cache: two distributions with different fingerprints
//! may map indices differently, so schedules built under one must never be
//! reused under the other.
//!
//! [`Distribution::local_runs`] is the one *optional* view: a rank's owned
//! set as contiguous [`LocalRun`]s inside which global→local translation is
//! a single add.  The executor and redistribution use it to resolve an owned
//! reference without calling `owner`/`local_index`, to hand each iteration
//! of a loop placed by the distribution its own local offset, and to move
//! owned ranges as slices; a distribution that does not offer it (the
//! default) is served through `is_local`/`local_index`, element by element,
//! with the same results.

use crate::index::{IndexRange, IndexSet};

/// One contiguous run of a rank's owned set: the global indices
/// `low..high`, stored at the consecutive local offsets
/// `local_base..local_base + (high - low)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRun {
    /// First global index of the run.
    pub low: usize,
    /// One past the last global index of the run.
    pub high: usize,
    /// Local offset of `low` in the owner's storage.
    pub local_base: usize,
}

impl LocalRun {
    /// Number of elements in the run.
    pub fn len(&self) -> usize {
        self.high - self.low
    }

    /// True for a run covering nothing (never produced by `local_runs`).
    pub fn is_empty(&self) -> bool {
        self.high == self.low
    }
}

/// Shortest mean run length for which [`Distribution::local_runs`] offers
/// runs when a rank owns more than one: below it a walk leaves its run
/// every few references and pays the run search each time, which costs more
/// than the closed-form `owner`/`local_index` arithmetic it replaces.
pub const MIN_MEAN_RUN: usize = 16;

/// Append `run` to `runs`, merging it into the last run when it continues
/// that run both globally and locally.  Runs must arrive in ascending
/// global order.
pub(crate) fn push_run(runs: &mut Vec<LocalRun>, run: LocalRun) {
    if run.is_empty() {
        return;
    }
    if let Some(last) = runs.last_mut() {
        debug_assert!(last.high <= run.low, "runs must arrive in ascending order");
        if last.high == run.low && last.local_base + last.len() == run.local_base {
            last.high = run.high;
            return;
        }
    }
    runs.push(run);
}

/// The [`MIN_MEAN_RUN`] rule: keep `runs` when there is at most one (no
/// search to pay for) or they are long enough on average.
pub(crate) fn runs_if_long(runs: Vec<LocalRun>) -> Option<Vec<LocalRun>> {
    let owned: usize = runs.iter().map(LocalRun::len).sum();
    (runs.len() <= 1 || owned >= MIN_MEAN_RUN * runs.len()).then_some(runs)
}

/// The run of `runs` (sorted, disjoint — what [`Distribution::local_runs`]
/// returns) covering global index `g`, by binary search.
#[inline]
pub fn find_run(runs: &[LocalRun], g: usize) -> Option<&LocalRun> {
    let idx = runs.partition_point(|r| r.low <= g);
    let run = runs.get(idx.checked_sub(1)?)?;
    (g < run.high).then_some(run)
}

/// One dimension's data distribution: the pluggable strategy interface.
///
/// Object safe — the [`DimDist`](crate::DimDist) handle stores a
/// `dyn Distribution` so heterogeneous distributions flow through APIs that
/// need a concrete type, while generic runtime entry points (`run_inspector`,
/// `execute_sweep`, `redistribute`) accept any `D: Distribution + ?Sized`
/// directly.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Total number of elements being distributed.
    fn n(&self) -> usize;

    /// Number of processors the elements are distributed over.
    fn nprocs(&self) -> usize;

    /// Owning processor of global index `i`.
    fn owner(&self, i: usize) -> usize;

    /// Local offset of global index `i` within its owner's storage
    /// (global→local translation).
    fn local_index(&self, i: usize) -> usize;

    /// Global index of local offset `l` on processor `rank` (local→global
    /// translation).
    fn global_index(&self, rank: usize, l: usize) -> usize;

    /// Number of elements owned by processor `rank`.
    fn local_count(&self, rank: usize) -> usize;

    /// The paper's `local(p)`: the set of global indices owned by `rank`,
    /// used to enumerate a processor's owner-computes iterations.
    ///
    /// The default builds the set by walking `global_index`; regular
    /// patterns override it with closed-form range constructions.
    fn local_set(&self, rank: usize) -> IndexSet {
        IndexSet::from_indices((0..self.local_count(rank)).map(|l| self.global_index(rank, l)))
    }

    /// True when processor `rank` owns global index `i`.
    fn is_local(&self, rank: usize, i: usize) -> bool {
        self.owner(i) == rank
    }

    /// The owned set of `rank` as contiguous runs, or `None` when this
    /// distribution does not offer them.
    ///
    /// When `Some`, the runs must be sorted by `low`, non-empty, pairwise
    /// disjoint, cover exactly `local_set(rank)` (an empty `Vec` for a rank
    /// that owns nothing), and satisfy
    /// `local_index(g) == run.local_base + (g - run.low)` for every `g` in
    /// `run.low..run.high`.  Callers rely on all of it: the executor reads
    /// `local_data[run.local_base + (g - run.low)]` for an index it finds in
    /// a run and treats an index in no run as not owned.
    ///
    /// The executor reads the runs of two distributions per sweep: of the
    /// *data* distribution, to resolve the body's fetches, and of the loop's
    /// *on-clause* distribution, to hand each iteration the local offset of
    /// its own element (`Fetcher::home`) — there `run.local_base + (i -
    /// run.low)` is where the body stores its result, so a wrong
    /// `local_base` silently writes to the wrong element.
    ///
    /// The default `None` is always correct — callers then translate through
    /// [`Distribution::is_local`] and [`Distribution::local_index`], element
    /// by element, with identical results — so a user-defined distribution
    /// need not implement this; one whose ranks own long contiguous pieces
    /// may, to get the cheaper path.  The built-ins answer `None` themselves
    /// where runs are too short to pay ([`MIN_MEAN_RUN`]; always for
    /// [`CyclicDist`]).
    fn local_runs(&self, _rank: usize) -> Option<Vec<LocalRun>> {
        None
    }

    /// A short name for reports ("block", "cyclic", "irregular", …).
    fn kind_name(&self) -> &'static str;

    /// Stable identity of the index→owner mapping, for schedule-cache keys
    /// and redistribution checks.
    ///
    /// Two distributions describing the same mapping built the same way
    /// return equal fingerprints; distributions with different mappings
    /// return different fingerprints (modulo hash collisions).  Regular
    /// patterns hash their parameters in O(1); owner-table distributions
    /// hash the table once at construction.
    fn fingerprint(&self) -> u64;
}

/// 64-bit FNV-1a, the stable hash behind [`Distribution::fingerprint`]
/// (deliberately not `DefaultHasher`, whose output may change across Rust
/// releases — fingerprints may be compared across processes).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Combine two fingerprints order-sensitively (for cache keys covering both
/// the on-clause and the data distribution).
pub fn combine_fingerprints(a: u64, b: u64) -> u64 {
    fnv1a([a, b])
}

/// Contiguous blocks of `ceil(n/p)` elements: `local(p) = { i | ⌈i/B⌉ = p }`
/// (`dist by [block]`).
#[derive(Debug, Clone, Copy)]
pub struct BlockDist {
    n: usize,
    p: usize,
    /// Block length `⌈n/p⌉` (at least 1), fixed at construction: `owner`
    /// and `local_index` sit on per-reference paths and must not re-divide.
    block: usize,
}

impl BlockDist {
    /// Block distribution of `n` elements over `p` processors.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        BlockDist {
            n,
            p,
            block: n.div_ceil(p).max(1),
        }
    }

    /// The global range `rank` owns (empty past the end of the array).
    fn owned_range(&self, rank: usize) -> (usize, usize) {
        let lo = (rank * self.block).min(self.n);
        let hi = ((rank + 1) * self.block).min(self.n);
        (lo, hi)
    }
}

impl Distribution for BlockDist {
    fn n(&self) -> usize {
        self.n
    }

    fn nprocs(&self) -> usize {
        self.p
    }

    fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds (n = {})", self.n);
        (i / self.block).min(self.p - 1)
    }

    fn local_index(&self, i: usize) -> usize {
        i - self.owner(i) * self.block
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        rank * self.block + l
    }

    fn local_count(&self, rank: usize) -> usize {
        let (lo, hi) = self.owned_range(rank);
        hi - lo
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        let (lo, hi) = self.owned_range(rank);
        IndexSet::from_range(lo, hi)
    }

    fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        let (low, high) = self.owned_range(rank);
        let mut runs = Vec::new();
        push_run(
            &mut runs,
            LocalRun {
                low,
                high,
                local_base: 0,
            },
        );
        Some(runs)
    }

    fn kind_name(&self) -> &'static str {
        "block"
    }

    fn fingerprint(&self) -> u64 {
        fnv1a([1, self.n as u64, self.p as u64])
    }
}

/// Round-robin assignment: `local(p) = { i | i ≡ p (mod P) }`
/// (`dist by [cyclic]`).
#[derive(Debug, Clone, Copy)]
pub struct CyclicDist {
    n: usize,
    p: usize,
}

impl CyclicDist {
    /// Cyclic distribution of `n` elements over `p` processors.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        CyclicDist { n, p }
    }
}

impl Distribution for CyclicDist {
    fn n(&self) -> usize {
        self.n
    }

    fn nprocs(&self) -> usize {
        self.p
    }

    fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds (n = {})", self.n);
        i % self.p
    }

    fn local_index(&self, i: usize) -> usize {
        i / self.p
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        l * self.p + rank
    }

    fn local_count(&self, rank: usize) -> usize {
        let full = self.n / self.p;
        full + usize::from(rank < self.n % self.p)
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        IndexSet::from_indices((rank..self.n).step_by(self.p))
    }

    fn kind_name(&self) -> &'static str {
        "cyclic"
    }

    fn fingerprint(&self) -> u64 {
        fnv1a([2, self.n as u64, self.p as u64])
    }
}

/// Blocks of `block` elements dealt round-robin to processors
/// (`dist by [block-cyclic(b)]`).
#[derive(Debug, Clone, Copy)]
pub struct BlockCyclicDist {
    n: usize,
    p: usize,
    block: usize,
}

impl BlockCyclicDist {
    /// Block-cyclic distribution with the given block size.
    pub fn new(n: usize, p: usize, block: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!(block > 0, "block size must be positive");
        BlockCyclicDist { n, p, block }
    }
}

impl Distribution for BlockCyclicDist {
    fn n(&self) -> usize {
        self.n
    }

    fn nprocs(&self) -> usize {
        self.p
    }

    fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds (n = {})", self.n);
        (i / self.block) % self.p
    }

    fn local_index(&self, i: usize) -> usize {
        let blk = i / self.block;
        (blk / self.p) * self.block + i % self.block
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        let blk_local = l / self.block;
        let within = l % self.block;
        (blk_local * self.p + rank) * self.block + within
    }

    fn local_count(&self, rank: usize) -> usize {
        // Count elements i in 0..n with (i/block) % p == rank.
        let nblocks = self.n.div_ceil(self.block);
        let mut count = 0usize;
        let mut blk = rank;
        while blk < nblocks {
            let lo = blk * self.block;
            let hi = ((blk + 1) * self.block).min(self.n);
            count += hi - lo;
            blk += self.p;
        }
        count
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        let nblocks = self.n.div_ceil(self.block);
        let mut ranges = Vec::new();
        let mut blk = rank;
        while blk < nblocks {
            let lo = blk * self.block;
            let hi = ((blk + 1) * self.block).min(self.n);
            ranges.push(IndexRange::new(lo, hi));
            blk += self.p;
        }
        IndexSet::from_ranges(ranges)
    }

    fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        // The k-th owned block is global block `rank + k·p`, stored at local
        // offset `k·block`; only the array's last block can be short.
        let nblocks = self.n.div_ceil(self.block);
        let mut runs = Vec::new();
        for (k, blk) in (rank..nblocks).step_by(self.p).enumerate() {
            push_run(
                &mut runs,
                LocalRun {
                    low: blk * self.block,
                    high: ((blk + 1) * self.block).min(self.n),
                    local_base: k * self.block,
                },
            );
        }
        runs_if_long(runs)
    }

    fn kind_name(&self) -> &'static str {
        "block-cyclic"
    }

    fn fingerprint(&self) -> u64 {
        fnv1a([3, self.n as u64, self.p as u64, self.block as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_kinds_and_parameters() {
        let fps = [
            BlockDist::new(100, 4).fingerprint(),
            BlockDist::new(100, 5).fingerprint(),
            BlockDist::new(101, 4).fingerprint(),
            CyclicDist::new(100, 4).fingerprint(),
            BlockCyclicDist::new(100, 4, 2).fingerprint(),
            BlockCyclicDist::new(100, 4, 3).fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for (j, b) in fps.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "fingerprints {i} and {j} collide");
                }
            }
        }
        // Same parameters → same fingerprint (stable identity).
        assert_eq!(
            BlockDist::new(100, 4).fingerprint(),
            BlockDist::new(100, 4).fingerprint()
        );
    }

    #[test]
    fn default_local_set_matches_overrides() {
        // Check the trait's default local_set against the closed forms.
        struct Unopt(CyclicDist);
        impl std::fmt::Debug for Unopt {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fmt(f)
            }
        }
        impl Distribution for Unopt {
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
                "cyclic-default-set"
            }
            fn fingerprint(&self) -> u64 {
                self.0.fingerprint()
            }
        }
        let d = CyclicDist::new(23, 4);
        let u = Unopt(d);
        for rank in 0..4 {
            assert_eq!(u.local_set(rank), d.local_set(rank), "rank {rank}");
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine_fingerprints(1, 2), combine_fingerprints(2, 1));
        assert_eq!(combine_fingerprints(7, 9), combine_fingerprints(7, 9));
    }
}

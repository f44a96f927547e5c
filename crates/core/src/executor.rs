//! The executor: carry out one execution of a `forall` under a schedule.
//!
//! Figure 3 of the paper gives the structure generated for every `forall`:
//!
//! ```text
//! -- Send messages to other processors
//! for each q with out(p,q) ≠ ∅:  send(q, out(p,q))
//! -- Do local iterations
//! for each i ∈ exec(p) ∩ ref(p): …A[g(i)]…
//! -- Receive messages from other processors
//! for each q with in(p,q) ≠ ∅:   tmp[in(p,q)] := recv(q)
//! -- Do nonlocal iterations
//! for each i ∈ exec(p) − ref(p): …tmp[g(i)]…
//! ```
//!
//! Doing the local iterations *between* the sends and the receives overlaps
//! communication with computation; the received elements live in a
//! communication buffer addressed through the binary-searchable range
//! records of the [`CommSchedule`].
//!
//! There is one executor, [`execute_sweep`]; a body that takes a run of
//! iterations at a time goes through the same core (*Rows* below).  Each
//! iteration list runs as fixed-boundary chunks on up to
//! [`ExecutorConfig::workers`] threads: the body is a read-only `Fn` that
//! returns one value per iteration (or per run), and every write happens on
//! the rank's own thread through a `sink`.  What that makes independent of
//! the worker count and the chunk length is stated once, on
//! [`execute_sweep`].
//!
//! ## Address translation
//!
//! The paper (§4) accepts one run-time overhead as "unique to our system" —
//! the search on a *nonlocal* reference — and treats a local reference as a
//! cheap index translation.  [`Fetcher::fetch`] is built on one rule: a hit
//! is inlined into the body and costs a compare, an add and a load;
//! everything else is one call out of line.
//!
//! * **Hit.**  A sweep asks the data distribution **once** for the rank's
//!   owned set as contiguous runs ([`Distribution::local_runs`]).  Inside a
//!   run the element is `local_base + (g − low)` into the local storage,
//!   inside a receive record `buffer + (g − low)` into the receive buffer —
//!   the same arithmetic, so both are kept as *windows* `(low, src)`, `src`
//!   being the slice of storage covered: `src.get(g − low)` is window test,
//!   bounds check and address at once (an index below `low` wraps past any
//!   length).  A fetcher holds eight, indexed by the reference's **ordinal
//!   within the iteration**: the k-th reference of a stencil body walks its
//!   own row (or its own halo record) from one iteration to the next, so it
//!   keeps hitting its own window, and the three rows of a vertical stencil
//!   never evict each other.  Around the compare and the load a hit pays
//!   the ordinal's load, mask and store — and, on a backend that meters
//!   ([`Process::METERS`]), the access count; elsewhere one untaken branch.
//! * **Miss.**  `miss`, cold and never inlined: one binary search over the
//!   owned runs and, only when no run covers the index, the schedule's
//!   receive-record search; what it finds is sliced once and becomes the
//!   ordinal's window.  A distribution that offers no runs (the trait
//!   default; cyclic, scattered owner tables, any user-defined distribution
//!   that does not opt in) is asked [`Distribution::is_local`] /
//!   [`Distribution::local_index`] there per owned reference, exactly as
//!   before runs existed, and only nonlocal references use the windows.
//!   An index covered by nothing panics before anything is charged; so
//!   does a *received* one fetched from the local list, which runs without
//!   a receive buffer — in both cases the schedule was planned for another
//!   body.
//! * **Replay**, ahead of both on the nonlocal list of a reused schedule:
//!   the translation memo below.
//!
//! The same runs let the pack, unpack and copy loops of the executor and of
//! [`redistribute`](mod@crate::redistribute) translate once per run and move
//! slices.
//!
//! ### The iteration's own element
//!
//! Almost every body also needs the local offset of the element it was
//! *placed by* — where `new_a[i]` is stored, where `count[i]` and `adj[i, ·]`
//! are read — and used to compute it with a full `dist.local_index(i)` (a
//! division under block, a div-mod walk over the dimensions of a
//! [`FlatDist`](distrib::FlatDist)) on every iteration.  The executor knows
//! it already: the iteration lists enumerate the rank's owned set under the
//! loop's **on-clause** distribution, run after run.  [`Fetcher::home`]
//! hands it to the body — the inspector/executor literature's *localised*
//! loop:
//!
//! * **On-clause, not data.**  The offset is under the distribution that
//!   placed the iteration ([`ParallelLoop::on_dist`](crate::ParallelLoop),
//!   passed down by [`Session::execute`](crate::Session::execute); an
//!   argument of its own to the free function [`execute_sweep`]), which
//!   need not be the distribution of the array the body fetches from: a
//!   loop placed by `A` reading `B` stores at `A`'s offsets.
//! * **One window.**  A sweep asks the on-clause distribution once for the
//!   rank's runs; the executor notes the iteration index before calling the
//!   body, and `home()` answers from the run the previous iteration lay in —
//!   the same unsigned compare and add as a fetch.  Leaving the run (once
//!   per owned row segment) is a [`find_run`], out of line.
//! * **No runs, no assumption.**  A distribution that offers no runs
//!   (cyclic, user-defined) — or an iteration the rank was handed without
//!   owning it — is answered by `on_dist.local_index(i)`, exactly what the
//!   body would have computed, so a descending or otherwise non-monotone
//!   local order stays right.
//! * **Free.**  `home()` charges nothing and touches no counter: bodies
//!   never charged for `local_index` either (the loop-control charge covers
//!   the iteration), so simulated clocks and every `Counters` field are
//!   those of a body that does its own translation.  A body returns the
//!   offset with its value and the sink stores there.
//!
//! ### The translation memo of the nonlocal list
//!
//! Windows serve the local list: its references walk rows.  On the nonlocal
//! list of an irregular mesh they do not — about half the references of a
//! scrambled mesh are nonlocal, in no order, so window hit or miss, owned
//! run or receive record are coin flips the processor mispredicts, and that
//! (not the depth of the record search: an O(1) bucket index in
//! [`CommSchedule::find_record`] was measured and changed nothing) is what
//! the phase costs.  The paper's amortisation argument (§3.2) applies to it
//! as it does to the schedule: the outcome is the same on every sweep, so a
//! reused schedule remembers it.
//!
//! * **Life cycle.**  A schedule's *first* execution resolves as above and
//!   learns nothing.  Its *second* — the first proof that the schedule is
//!   reused at all — **records**, for every iteration of the nonlocal list
//!   in the body's own fetch order, the global index fetched and the slot
//!   it resolved to (`l` for an owned element, `local_len + buffer
//!   position` for a received one), indexed by the iteration's position in
//!   the list so it does not depend on `(workers, chunk)`; that sweep
//!   installs no window, so every reference reaches `miss` and is recorded
//!   there; chunks record apart and the rank's thread stitches them in
//!   chunk order.  From the *third* execution on a fetch first compares its
//!   index with the entry under the iteration's cursor and on a match reads
//!   the slot — no window, no search, and the storage is *indexed* by the
//!   slot's kind, never branched on: two loads, two compares.
//! * **Why the second execution.**  Recording is not free: done on the
//!   first execution it was measured at +11 % on a first sweep of the
//!   scrambled-mesh benchmark, done at inspector time at +26 % on an
//!   adaptive solve that replans before every sweep and so executes every
//!   schedule once.  Paid on the second execution it is charged only where
//!   there is reuse to amortise it over.
//! * **A pure cache.**  On a mismatch, or past the recorded references of
//!   an iteration, a fetch falls through to the windows, so a body that
//!   fetches something else (another loop over the same schedule, a changed
//!   subscript array) is merely not accelerated.  The memo is used only
//!   under the placement it was learned under —
//!   [`Distribution::fingerprint`] of the data distribution and the length
//!   of the local storage, checked once per sweep; a schedule whose slots
//!   do not fit 32 bits never learns one; a recording sweep that panics
//!   leaves none; equality, signatures and copies of a schedule ignore it;
//!   debug builds search for every replayed reference as well and assert
//!   the same slot.  The local phase pays one predictable compare per fetch
//!   for all of this.
//!
//! Which path resolves a reference is unobservable: values, the
//! `charge_local_access` / `charge_nonlocal_access` sequence and the panic
//! are those of the definitional route (`is_local` → `local_index`, else
//! [`CommSchedule::find`]), so a metering backend's clock does not move.
//!
//! ## Rows
//!
//! A hit costs a compare, an add and a load, but a point body still pays a
//! call, a window lookup per reference and a sink per iteration.  For a
//! stencil planned in closed form (§3.2) that is all the work there is: the
//! local iterations of Figure 3 are meant to be a plain loop over local
//! storage.  [`Session::execute_rows`](crate::Session::execute_rows) runs
//! such a loop a *run* at a time:
//!
//! * **Runs.**  The body is called once per maximal stretch of consecutive
//!   iterations that lies inside one chunk and inside one owned run of the
//!   on-clause distribution, with the stretch as a `Range`; the sink gets
//!   one value per run, keyed by its first iteration.  Chunks, workers,
//!   sends, receives and per-chunk cost flushes are the
//!   point sweep's, from one shared core; only the loop inside a chunk
//!   differs.  An on-clause distribution without runs, or an iteration the
//!   rank does not own, makes runs of one iteration.
//! * **The home invariant.**  Iteration `run.start + k` has home offset
//!   `fetch.home() + k` ([`Fetcher::home`]): the run lies in one owned run,
//!   so its own elements are consecutive in local storage.
//! * **All or nothing.**  [`Fetcher::rows`] hands out whole stretches of
//!   the referenced array, each held by one owned run or by one receive
//!   record, and counts `len` accesses of the right kind per stretch — or
//!   answers `None` and counts nothing, and the body fetches those
//!   elements one by one.  A body that charges its arithmetic per run
//!   (`charge_flops(5 * run.len())`) is therefore charged exactly what the
//!   point body is, and since costs reach the process as per-chunk totals,
//!   counters and simulated clocks are bit-equal.
//! * **The memo.**  A rows sweep leaves the translation memo alone: it does
//!   not count as an execution, records nothing and installs nothing, so
//!   point sweeps of the same schedule learn and replay as if it had not
//!   run.  Its nonlocal references come from a handful of records, one
//!   lookup per stretch, with nothing to remember.
//! * **When points are right.**  Irregular and indirect bodies (a mesh's
//!   `adj[i, ·]`, where the memo pays off), bodies whose references do not
//!   walk rows and loops that fold a reduction per iteration
//!   ([`Session::execute_reduce`](crate::Session::execute_reduce)) stay
//!   with the point body; so does a distribution without runs, where
//!   `rows` never serves.

use std::ops::Range;

use distrib::{find_run, Distribution, LocalRun};

use crate::pool;
use crate::process::{tags, Process, Tag};
use crate::schedule::{CommSchedule, MemoEntry, MemoPlan, Recording};

/// Default chunk length (in iterations) when no explicit chunk size is
/// configured.  Large enough that per-chunk overhead (one fetcher, one cost
/// flush, on the pool one result `Vec`) is negligible, small enough that a
/// worker pool load-balances across chunks.
pub const DEFAULT_CHUNK: usize = 2048;

/// Knobs for one execution of [`execute_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Tag offset distinguishing successive executions (sweep number).
    pub tag: Tag,
    /// Intra-rank worker threads.  `1` (the default) runs every chunk
    /// inline on the calling thread and spawns nothing.  Results never
    /// depend on this knob.
    pub workers: usize,
    /// Chunk length in iterations; `0` (the default) picks
    /// [`DEFAULT_CHUNK`].  Results never depend on this knob either — only
    /// the granularity of work distribution does.
    pub chunk: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            tag: 0,
            workers: 1,
            chunk: 0,
        }
    }
}

impl ExecutorConfig {
    /// Configuration for sweep number `sweep`.
    ///
    /// Sweep numbers wrap within the executor's tag window
    /// ([`tags::SPAN`]): a long-running program's sweep counter must never
    /// walk the executor tags into an adjacent component's reserved range.
    /// Wrapping is safe because messages between a processor pair with the
    /// same tag are delivered in send order, so two sweeps a full window
    /// apart can never be confused.
    pub fn sweep(sweep: usize) -> Self {
        ExecutorConfig {
            tag: (sweep as Tag) % tags::SPAN,
            ..ExecutorConfig::default()
        }
    }

    /// The same configuration with the given intra-rank worker count
    /// (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The same configuration with the given chunk length (`0` = default).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The chunk length this configuration resolves to.
    pub fn effective_chunk(&self) -> usize {
        if self.chunk > 0 {
            self.chunk
        } else {
            DEFAULT_CHUNK
        }
    }
}

// ----------------------------------------------------------------------
// Address translation
// ----------------------------------------------------------------------

/// Windows a fetcher keeps: references past the eighth of one iteration
/// share the windows of the first eight.  A power of two, so the ordinal
/// wraps with a mask.
const WINDOWS: usize = 8;

/// Where a stretch of global indices lives: the `len` indices from `low` at
/// `base..`, in the receive buffer when `nonlocal`, in local storage
/// otherwise.  The empty span (`len == 0`) covers nothing.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    low: usize,
    len: usize,
    base: usize,
    nonlocal: bool,
}

impl Span {
    fn new(low: usize, high: usize, base: usize, nonlocal: bool) -> Self {
        Span {
            low,
            len: high - low,
            base,
            nonlocal,
        }
    }

    /// Where `g` lives if the span covers it.  One unsigned compare: an
    /// index below `low` wraps to something no span is long enough for.
    #[inline]
    fn position(&self, g: usize) -> Option<usize> {
        let offset = g.wrapping_sub(self.low);
        (offset < self.len).then(|| self.base + offset)
    }
}

/// One remembered translation: a [`Span`] with its storage already sliced,
/// so that `src.get(g − low)` is window test and bounds check at once.  The
/// empty window matches nothing.  `nonlocal` is read on metering backends
/// only, to pick the counter.
#[derive(Clone, Copy)]
struct Window<'a, T> {
    low: usize,
    src: &'a [T],
    nonlocal: bool,
}

/// The iteration's own element: the local offset, under the loop's
/// **on-clause** distribution, of the iteration a fetcher is currently
/// handed to the body for (see the module docs).  Charges nothing.
struct Home<'a> {
    /// The on-clause distribution — not necessarily the data distribution.
    on_dist: &'a dyn Distribution,
    /// The rank's owned runs under it, fetched once per sweep; `None` when
    /// it offers none.
    runs: Option<&'a [LocalRun]>,
    /// The run the last answered iteration lay in.
    window: Span,
    /// The iteration the body is running.
    iter: usize,
}

impl<'a> Home<'a> {
    fn new(on_dist: &'a dyn Distribution, runs: Option<&'a [LocalRun]>) -> Self {
        Home {
            on_dist,
            runs,
            window: Span::default(),
            iter: 0,
        }
    }

    #[inline]
    fn offset(&mut self) -> usize {
        if let Some(l) = self.window.position(self.iter) {
            return l;
        }
        match self.runs {
            Some(runs) => self.leave_run(runs),
            // No runs, no window: what a body would compute for itself.
            None => self.on_dist.local_index(self.iter),
        }
    }

    /// Leaving the window's run — once per owned row segment, so kept out
    /// of the body's code.  An iteration in no run (the rank was handed it
    /// without owning it) is answered like a distribution without runs.
    #[cold]
    #[inline(never)]
    fn leave_run(&mut self, runs: &[LocalRun]) -> usize {
        match self.enter_run(runs) {
            Some(l) => l,
            None => self.on_dist.local_index(self.iter),
        }
    }

    /// Make the owned run of the current iteration the window, if there is
    /// one, and return the iteration's offset in it.
    fn enter_run(&mut self, runs: &[LocalRun]) -> Option<usize> {
        let run = find_run(runs, self.iter)?;
        self.window = Span::new(run.low, run.high, run.local_base, false);
        Some(run.local_base + (self.iter - run.low))
    }

    /// One past the last global index whose home offset follows on from the
    /// current iteration's: the end of its owned run, or the next index when
    /// no run holds it.
    fn run_end(&mut self) -> usize {
        let held = self.window.position(self.iter).is_some()
            || self.runs.is_some_and(|runs| self.enter_run(runs).is_some());
        if held {
            self.window.low + self.window.len
        } else {
            self.iter + 1
        }
    }
}

/// Visit the local storage of the owned global range `low..high` as
/// contiguous pieces `(global start, local start, length)` in ascending
/// global order: one piece per owned run the range overlaps, or one per
/// element when the distribution offers no runs.
pub(crate) fn for_each_local_piece<D: Distribution + ?Sized>(
    dist: &D,
    runs: Option<&[LocalRun]>,
    low: usize,
    high: usize,
    mut visit: impl FnMut(usize, usize, usize),
) {
    let Some(runs) = runs else {
        for g in low..high {
            visit(g, dist.local_index(g), 1);
        }
        return;
    };
    let mut rest = runs[runs.partition_point(|r| r.high <= low)..].iter();
    let mut g = low;
    while g < high {
        let run = rest
            .next()
            .filter(|run| run.low <= g)
            .unwrap_or_else(|| panic!("global index {g} is not owned under {}", dist.kind_name()));
        let end = run.high.min(high);
        visit(g, run.local_base + (g - run.low), end - g);
        g = end;
    }
}

/// Cost counters accumulated by one chunk of iterations, merged into the
/// process deterministically after the chunk completes.
///
/// Loop bodies may run off the rank's own thread, where no `&mut P` exists;
/// they charge into this plain struct instead, and the executor flushes
/// every chunk's counters **in ascending chunk order**.  The bulk charge
/// hooks repeat the singular ones, so a metering backend's clock sees the
/// additions of a body charging the process reference by reference — only
/// their grouping follows the chunk length, never the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCosts {
    /// Loop iterations of control overhead.
    pub loop_iters: usize,
    /// Local memory references.
    pub mem_refs: usize,
    /// Floating-point operations.
    pub flops: usize,
    /// Procedure calls.
    pub calls: usize,
    /// Local distributed-array accesses.
    pub local_accesses: usize,
    /// Nonlocal accesses resolved by binary search.
    pub nonlocal_accesses: usize,
}

impl ChunkCosts {
    /// Charge this chunk's accumulated costs to the process.  `ranges` is
    /// the schedule's record count (the `r` of the binary-search cost).
    fn flush_into<P: Process>(&self, proc: &mut P, ranges: usize) {
        if !P::METERS {
            return;
        }
        proc.charge_loop_iters(self.loop_iters);
        proc.charge_mem_refs(self.mem_refs);
        proc.charge_flops(self.flops);
        proc.charge_calls(self.calls);
        proc.charge_local_accesses(self.local_accesses);
        proc.charge_nonlocal_accesses(ranges, self.nonlocal_accesses);
    }
}

/// Resolves global indices of the referenced array to values for a loop
/// body running inside one chunk, **without** a process handle: local
/// accesses translate the index, nonlocal accesses search the communication
/// buffer (the "search overhead … unique to our system", §4).
///
/// Access costs (and any body arithmetic charged through the `charge_*`
/// methods) accumulate in the chunk's [`ChunkCosts`] — on a backend that
/// meters ([`Process::METERS`]); on one that does not, nothing is counted.
/// The windows start empty in every chunk and never escape it.
pub struct Fetcher<'a, T, D: Distribution + ?Sized = dyn Distribution> {
    /// Local storage of the referenced array, then the sweep's receive
    /// buffer (empty in the local phase): indexed by a reference's
    /// `nonlocal` flag, so that choosing between them is address arithmetic.
    storage: [&'a [T]; 2],
    /// `storage[0].len()` on its own: read from there, the compiler knows
    /// one of the two lengths a replayed slot is checked against and
    /// branches on the flag to use it.
    local_len: usize,
    dist: &'a D,
    /// The rank's owned runs, fetched once per sweep; `None` when the
    /// distribution offers none.
    runs: Option<&'a [LocalRun]>,
    schedule: &'a CommSchedule,
    windows: [Window<'a, T>; WINDOWS],
    /// References of the current iteration that went to the windows so far.
    ordinal: usize,
    /// What this phase does with the schedule's translation memo; always
    /// [`MemoPlan::Off`] in the local phase.
    memo: MemoPlan<'a>,
    /// Replaying: the current iteration's recorded references not yet
    /// compared with a fetch (empty otherwise).
    replay: &'a [MemoEntry],
    /// Recording: what has been resolved so far (empty otherwise).
    recording: Recording,
    home: Home<'a>,
    /// [`Process::METERS`] of the backend the sweep runs on.
    meters: bool,
    costs: ChunkCosts,
}

impl<'a, T: Copy, D: Distribution + ?Sized> Fetcher<'a, T, D> {
    /// A fetcher over `storage`: local data, then the receive buffer.
    fn new(
        storage: [&'a [T]; 2],
        dist: &'a D,
        runs: Option<&'a [LocalRun]>,
        schedule: &'a CommSchedule,
        memo: MemoPlan<'a>,
        home: Home<'a>,
        meters: bool,
    ) -> Self {
        let empty = Window {
            low: 0,
            src: &[],
            nonlocal: false,
        };
        Fetcher {
            storage,
            local_len: storage[0].len(),
            dist,
            runs,
            schedule,
            windows: [empty; WINDOWS],
            ordinal: 0,
            memo,
            replay: &[],
            recording: Recording::default(),
            home,
            meters,
            costs: ChunkCosts::default(),
        }
    }

    /// Fetch the value of global element `g` of the referenced array.
    ///
    /// Panics if `g` is neither owned nor covered by the schedule — that
    /// means the schedule was built for a different reference pattern, which
    /// is a correctness bug (the paper's system would read garbage).  The
    /// panic reaches the calling rank (from a worker, when the pool's scope
    /// joins) and the chunk's costs are discarded unflushed: nothing is
    /// charged for work that never completed.
    #[inline]
    pub fn fetch(&mut self, g: usize) -> T {
        if let Some((&entry, rest)) = self.replay.split_first() {
            self.replay = rest;
            if entry.global as usize == g {
                // A memo is replayed under its own `local_len` only.
                let (pos, nonlocal) = entry.slot(self.local_len);
                debug_assert!(
                    {
                        let span = self.locate(g);
                        span.nonlocal == nonlocal && span.position(g) == Some(pos)
                    },
                    "stale memo for {g}"
                );
                self.count(nonlocal);
                // Indexed, never branched on: the kind of consecutive
                // references of an irregular mesh is a coin flip.
                return self.storage[usize::from(nonlocal)][pos];
            }
        }
        let k = self.ordinal & (WINDOWS - 1);
        self.ordinal += 1;
        let window = self.windows[k];
        match window.src.get(g.wrapping_sub(window.low)) {
            Some(&value) => {
                self.count(window.nonlocal);
                value
            }
            None => self.miss(g, k),
        }
    }

    /// Count one access on a backend that meters.
    #[inline]
    fn count(&mut self, nonlocal: bool) {
        if self.meters {
            self.costs.local_accesses += usize::from(!nonlocal);
            self.costs.nonlocal_accesses += usize::from(nonlocal);
        }
    }

    /// Where `g` lives, by search: the owned runs (for a distribution
    /// without runs, the distribution itself), then the schedule's receive
    /// records.  Changes nothing; panics on an index covered by neither.
    /// Relies on the schedule invariant that receive records never cover an
    /// owned index.
    fn locate(&self, g: usize) -> Span {
        let rank = self.schedule.rank();
        match self.runs {
            Some(runs) => {
                if let Some(run) = find_run(runs, g) {
                    return Span::new(run.low, run.high, run.local_base, false);
                }
            }
            None => {
                if self.dist.is_local(rank, g) {
                    return Span::new(g, g + 1, self.dist.local_index(g), false);
                }
            }
        }
        let (low, high, base) = self.schedule.find_record(g).unwrap_or_else(|| {
            panic!("global index {g} is neither local to rank {rank} nor in its receive schedule")
        });
        Span::new(low, high, base, true)
    }

    /// Everything that is neither a replayed reference nor a window hit,
    /// out of line so that a hit stays a compare, an add and a load: find
    /// the element, slice its storage, and make it the ordinal's window —
    /// or, in the recording sweep, record it instead, which leaves the
    /// windows empty and brings every reference of that sweep here.
    /// Panics before anything is charged or changed.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, g: usize, k: usize) -> T {
        let span = self.locate(g);
        let (low, nonlocal, end) = (span.low, span.nonlocal, span.base + span.len);
        let Some(src) = self.storage[usize::from(nonlocal)].get(span.base..end) else {
            self.outside_storage(g, nonlocal, end)
        };
        let offset = g - low;
        if let MemoPlan::Record { local_len, .. } = self.memo {
            self.recording
                .push(g, span.base + offset, nonlocal, local_len);
        } else if nonlocal || self.runs.is_some() {
            // Without runs an owned element is a span of one: not worth
            // the nonlocal record the window may hold.
            self.windows[k & (WINDOWS - 1)] = Window { low, src, nonlocal };
        }
        self.count(nonlocal);
        src[offset]
    }

    /// The span that holds `g` ends at `end`, outside its storage.  For a
    /// receive record there is one way to get here: the local phase has no
    /// receive buffer, and an iteration the schedule put on the local list
    /// (every reference owned, when it was planned) asked for `g`.
    fn outside_storage(&self, g: usize, nonlocal: bool, end: usize) -> ! {
        let rank = self.schedule.rank();
        assert!(
            nonlocal,
            "rank {rank}: the owned run of global {g} ends at local offset {end}, past the {} \
             elements passed as local storage",
            self.local_len,
        );
        let mut records = self.schedule.recv_records().iter();
        let record = records.find(|r| r.low <= g && g < r.high);
        panic!(
            "rank {rank}: iteration {} of the local list fetched global {g}, which is received \
             from rank {}: the schedule was planned for a different reference pattern",
            self.home.iter,
            record.expect("a receive record covers it").from_proc,
        )
    }

    /// The local offset of the current iteration's own element under the
    /// loop's **on-clause** distribution: `on_dist.local_index(i)` for the
    /// `i` the body was called with, without the division — where the arrays
    /// aligned with the loop are read, and what a body returns with its
    /// value for the sink to store at.  Charges nothing.
    #[inline]
    pub fn home(&mut self) -> usize {
        self.home.offset()
    }

    /// The stretches `g..g + len` for each `g` of `starts`, as slices of the
    /// local storage or of the receive buffer — all of them, or `None`.
    ///
    /// A stretch is served only when one owned run of the data distribution,
    /// or one receive record, holds all of it.  Then the call counts `len`
    /// accesses per stretch, each of its stretch's kind, exactly what `len`
    /// calls of [`fetch`](Self::fetch) per stretch count.  `None` — a
    /// stretch crosses the end of a run or of a record, or the distribution
    /// offers no runs ([`Distribution::local_runs`]) — counts nothing, so a
    /// body that falls back to `fetch` element by element is charged what a
    /// point body is.  A stretch that starts at an index neither owned nor
    /// received panics as `fetch` does, naming rank and index.
    pub fn rows<const K: usize>(&mut self, starts: [usize; K], len: usize) -> Option<[&'a [T]; K]> {
        self.runs?;
        let mut rows: [&'a [T]; K] = [&[]; K];
        let mut nonlocal = 0;
        for (row, g) in rows.iter_mut().zip(starts) {
            let span = self.locate(g);
            let offset = g - span.low;
            if offset + len > span.len {
                return None;
            }
            let end = span.base + span.len;
            let Some(src) = self.storage[usize::from(span.nonlocal)].get(span.base..end) else {
                self.outside_storage(g, span.nonlocal, end)
            };
            *row = &src[offset..offset + len];
            nonlocal += usize::from(span.nonlocal);
        }
        if self.meters {
            self.costs.local_accesses += (K - nonlocal) * len;
            self.costs.nonlocal_accesses += nonlocal * len;
        }
        Some(rows)
    }

    /// True when the element is stored locally (no communication needed).
    pub fn is_local(&self, g: usize) -> bool {
        self.dist.is_local(self.schedule.rank(), g)
    }

    /// Charge `n` floating-point operations to this chunk.
    pub fn charge_flops(&mut self, n: usize) {
        if self.meters {
            self.costs.flops += n;
        }
    }

    /// Charge `n` local memory references to this chunk.
    pub fn charge_mem_refs(&mut self, n: usize) {
        if self.meters {
            self.costs.mem_refs += n;
        }
    }

    /// Charge `n` loop iterations of control overhead to this chunk.
    pub fn charge_loop_iters(&mut self, n: usize) {
        if self.meters {
            self.costs.loop_iters += n;
        }
    }

    /// Charge `n` procedure calls to this chunk.
    pub fn charge_calls(&mut self, n: usize) {
        if self.meters {
            self.costs.calls += n;
        }
    }

    /// Start iteration `i`, at `position` of the phase's list: its first
    /// window reference is ordinal 0 again, and under a memo it is the
    /// memo's row `position`.
    #[inline]
    fn next_iteration(&mut self, position: usize, i: usize) {
        self.ordinal = 0;
        self.home.iter = i;
        match self.memo {
            MemoPlan::Off => {}
            MemoPlan::Replay(memo) => self.replay = memo.refs_of(position),
            MemoPlan::Record { .. } => self.recording.begin_iteration(),
        }
    }

    /// The chunk loop: run `body` for the iterations `iters`, which sit at
    /// positions `start..` of their phase's list, handing each value to
    /// `emit`.  Returns what the chunk cost and what it recorded.
    ///
    /// Always inlined, so that the fetcher is a local of its caller — on
    /// its stack, not in registers: `miss` takes it by reference, and a body
    /// LLVM declines to inline reaches it through a pointer anyway.  Hence
    /// `meters` is a byte tested per charge, not a constant folded away.
    #[inline(always)]
    fn run_chunk<V>(
        mut self,
        start: usize,
        iters: &[usize],
        body: &impl Fn(usize, &mut Self) -> V,
        mut emit: impl FnMut(usize, V),
    ) -> (ChunkCosts, Recording) {
        // Loop control, one per iteration: only the total is ever charged.
        self.costs.loop_iters = iters.len();
        for (position, &i) in (start..).zip(iters) {
            self.next_iteration(position, i);
            emit(i, body(i, &mut self));
        }
        (self.costs, self.recording)
    }

    /// The chunk loop of a rows sweep: run `body` once per run of `iters`
    /// (see [`execute_rows_sweep`]), handing each value to `emit` with the
    /// run's first iteration.  The memo is off, so nothing is recorded.
    #[inline(always)]
    fn run_rows<V>(
        mut self,
        start: usize,
        iters: &[usize],
        body: &impl Fn(Range<usize>, &mut Self) -> V,
        mut emit: impl FnMut(usize, V),
    ) -> (ChunkCosts, Recording) {
        self.costs.loop_iters = iters.len();
        let mut position = 0;
        while let Some(&i) = iters.get(position) {
            self.next_iteration(start + position, i);
            let rest = &iters[position..];
            let n = (self.home.run_end() - i).min(rest.len());
            // The lists ascend strictly, so the n-th iteration is i + n − 1
            // exactly when all n are consecutive.
            let len = if rest[n - 1] == i + n - 1 {
                n
            } else {
                rest[..n]
                    .iter()
                    .zip(i..)
                    .take_while(|(&it, g)| it == *g)
                    .count()
            };
            emit(i, body(i..i + len, &mut self));
            position += len;
        }
        (self.costs, self.recording)
    }
}

/// Execute one sweep of a `forall` whose nonlocal data movement is described
/// by `schedule`: send, local iterations, receive, nonlocal iterations
/// (Figure 3 of the paper).
///
/// * `on_dist` — the distribution named in the loop's `on` clause, under
///   which [`Fetcher::home`] places each iteration's own element.
/// * `data_dist` / `local_data` — distribution and local storage of the
///   array referenced inside the loop body (the paper's `old_a`).
/// * `body` — the loop body: it receives the global iteration index and a
///   [`Fetcher`] for reading referenced elements, and returns the
///   iteration's value.
/// * `sink` — receives every `(i, value)` on the calling thread.
///
/// Each iteration list is split into fixed-boundary chunks
/// ([`ExecutorConfig::chunk`]) that run on up to [`ExecutorConfig::workers`]
/// threads ([`pool::run_chunks`]).
///
/// Determinism contract:
///
/// * `body` is a **read-only view** of the sweep: `Fn` (not `FnMut`),
///   fetching through a [`Fetcher`]; it returns one value per iteration
///   instead of writing in place.
/// * All writes happen on the calling thread through `sink(i, value)`,
///   invoked in ascending iteration order within each phase.
/// * Per-chunk cost counters merge in ascending chunk order, each chunk's
///   flush following its own values' sinks.  The sink has no handle on the
///   process, so it cannot observe where between its calls a flush falls.
///
/// Consequently results and counters are a function of the schedule and the
/// body alone — never of the worker count or chunk size.  When the chunks
/// run on the calling thread ([`pool::runs_inline`]: one worker, or a single
/// chunk) a value goes to `sink` as the body produces it and nothing is
/// buffered; on the pool a chunk's values wait in a per-chunk buffer until
/// every chunk of the phase is in.
///
/// Every processor must call this collectively.  Returns the number of
/// iterations executed locally (for reporting).
#[allow(clippy::too_many_arguments)] // the sweep's two distributions, body and sink
pub fn execute_sweep<P, D, T, V, F, W>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    on_dist: &dyn Distribution,
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
    let body = Points(body);
    sweep(
        proc, config, schedule, on_dist, data_dist, local_data, &body, sink,
    )
}

/// [`execute_sweep`] with a body that runs a *run* of iterations at a time
/// (see the module docs, *Rows*): `body(run, fetch)` for every maximal
/// stretch `run` of consecutive iterations inside one chunk and inside one
/// owned run of `on_dist`, where iteration `run.start + k` has home offset
/// `fetch.home() + k`; `sink(run.start, value)` once per run.  The sweep
/// leaves the schedule's translation memo alone.
#[allow(clippy::too_many_arguments)] // execute_sweep's
pub(crate) fn execute_rows_sweep<P, D, T, V, F, W>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    on_dist: &dyn Distribution,
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
    F: Fn(Range<usize>, &mut Fetcher<'_, T, D>) -> V + Sync,
    W: FnMut(usize, V),
{
    let body = Rows(body);
    sweep(
        proc, config, schedule, on_dist, data_dist, local_data, &body, sink,
    )
}

/// How a sweep hands the iterations of one chunk to its body: one call per
/// iteration ([`Points`]) or one per run ([`Rows`]).  Everything around the
/// chunk loop is [`sweep`]'s, shared.
trait ChunkLoop<T, D: Distribution + ?Sized, V>: Sync {
    /// Whether the sweep is an execution in the schedule's translation-memo
    /// life cycle.
    const MEMO: bool;

    /// Run the chunk of `iters`, at positions `start..` of their list,
    /// handing every `(i, value)` to `emit`.
    fn run_chunk(
        &self,
        fetcher: Fetcher<'_, T, D>,
        start: usize,
        iters: &[usize],
        emit: impl FnMut(usize, V),
    ) -> (ChunkCosts, Recording);
}

/// A body called once per iteration.
struct Points<F>(F);

/// A body called once per run.
struct Rows<F>(F);

impl<T, D, V, F> ChunkLoop<T, D, V> for Points<F>
where
    T: Copy,
    D: Distribution + ?Sized,
    F: Fn(usize, &mut Fetcher<'_, T, D>) -> V + Sync,
{
    const MEMO: bool = true;

    #[inline(always)]
    fn run_chunk(
        &self,
        fetcher: Fetcher<'_, T, D>,
        start: usize,
        iters: &[usize],
        emit: impl FnMut(usize, V),
    ) -> (ChunkCosts, Recording) {
        fetcher.run_chunk(start, iters, &self.0, emit)
    }
}

impl<T, D, V, F> ChunkLoop<T, D, V> for Rows<F>
where
    T: Copy,
    D: Distribution + ?Sized,
    F: Fn(Range<usize>, &mut Fetcher<'_, T, D>) -> V + Sync,
{
    const MEMO: bool = false;

    #[inline(always)]
    fn run_chunk(
        &self,
        fetcher: Fetcher<'_, T, D>,
        start: usize,
        iters: &[usize],
        emit: impl FnMut(usize, V),
    ) -> (ChunkCosts, Recording) {
        fetcher.run_rows(start, iters, &self.0, emit)
    }
}

/// The one sweep of both entry points: sends, the local list, the
/// receives, the nonlocal list, each list as chunks inline or on the pool,
/// and one cost flush per chunk.
#[allow(clippy::too_many_arguments)] // execute_sweep's
fn sweep<P, D, T, V, B, W>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    on_dist: &dyn Distribution,
    data_dist: &D,
    local_data: &[T],
    body: &B,
    mut sink: W,
) -> usize
where
    P: Process,
    D: Distribution + ?Sized,
    T: Copy + Sync + kali_process::Wire,
    V: Send,
    B: ChunkLoop<T, D, V>,
    W: FnMut(usize, V),
{
    let rank = proc.rank();
    assert_eq!(
        schedule.rank(),
        rank,
        "rank {rank}: executing another rank's schedule"
    );
    let tag = tags::executor_tag(config.tag);
    let chunk = config.effective_chunk();
    let ranges = schedule.range_count();
    let runs = data_dist.local_runs(rank);
    let runs = runs.as_deref();
    let home_runs = on_dist.local_runs(rank);
    let home_runs = home_runs.as_deref();
    let memo = if B::MEMO {
        schedule.begin_execution(data_dist, local_data.len())
    } else {
        MemoPlan::Off
    };
    send_phase(proc, schedule, data_dist, runs, local_data, tag);

    let mut run_phase = |proc: &mut P, phase: usize, iters: &[usize], recv_buf: &[T]| {
        // The memo is the nonlocal list's.
        let memo = if phase == 1 { memo } else { MemoPlan::Off };
        let bounds = pool::chunk_bounds(iters.len(), chunk);
        let fetcher = || {
            let home = Home::new(on_dist, home_runs);
            let storage = [local_data, recv_buf];
            Fetcher::new(storage, data_dist, runs, schedule, memo, home, P::METERS)
        };
        // A recording sweep's chunks each record their own iterations,
        // stitched here in list order.
        let mut recording = Recording::default();
        if pool::runs_inline(config.workers, bounds.len()) {
            for &(start, end) in &bounds {
                let (costs, chunk_recording) =
                    body.run_chunk(fetcher(), start, &iters[start..end], &mut sink);
                costs.flush_into(proc, ranges);
                recording.append(chunk_recording);
            }
            return recording;
        }
        pool::run_chunks(
            config.workers,
            bounds.len(),
            |ci| {
                let (start, end) = bounds[ci];
                let mut values = Vec::with_capacity(end - start);
                let done = body.run_chunk(fetcher(), start, &iters[start..end], |i, v| {
                    values.push((i, v))
                });
                (values, done)
            },
            // Back on the rank's thread, in ascending chunk (and therefore
            // ascending iteration) order.
            |_, (values, (costs, chunk_recording))| {
                for (i, value) in values {
                    sink(i, value);
                }
                costs.flush_into(proc, ranges);
                recording.append(chunk_recording);
            },
        );
        recording
    };

    // Paper order: local iterations run while messages are in flight, and
    // see no receive buffer.
    run_phase(proc, 0, schedule.local_iters(), &[]);
    let recv_buf = receive_all(proc, schedule, tag);
    let recording = run_phase(proc, 1, schedule.nonlocal_iters(), &recv_buf);
    schedule.finish_execution(memo, recording);
    schedule.local_iters().len() + schedule.nonlocal_iters().len()
}

/// Gather and send every scheduled outgoing message: one packed contiguous
/// buffer per destination, drawn from the backend's buffer pool
/// ([`Process::acquire_send_buffer`]) so a steady-state sweep allocates
/// nothing on pooling backends.
fn send_phase<P, D, T>(
    proc: &mut P,
    schedule: &CommSchedule,
    data_dist: &D,
    runs: Option<&[LocalRun]>,
    local_data: &[T],
    tag: Tag,
) where
    P: Process,
    D: Distribution + ?Sized,
    T: Copy + kali_process::Wire,
{
    for (to_proc, records) in schedule.send_messages() {
        let count: usize = records.iter().map(|r| r.len()).sum();
        let mut payload = proc.acquire_send_buffer::<T>(count);
        for record in records {
            // Gather: translate and read each owned element (2 memory
            // references apiece, charged in bulk per record).
            proc.charge_mem_refs(2 * record.len());
            for_each_local_piece(data_dist, runs, record.low, record.high, |_, l, len| {
                payload.extend_from_slice(&local_data[l..l + len]);
            });
        }
        proc.send_packed(to_proc, tag, payload);
    }
}

/// Receive every scheduled message directly into one contiguous
/// communication buffer.
///
/// [`CommSchedule::from_recv_sets`] assigns buffer offsets densely in
/// exactly the order [`CommSchedule::recv_messages`] iterates (ascending
/// sender, ascending `low`), and nothing else writes the records, so
/// appending each incoming message lands every element at its record's
/// offset — no per-element scatter, no `Option` intermediary, one
/// allocation per sweep.
fn receive_all<P, T>(proc: &mut P, schedule: &CommSchedule, tag: Tag) -> Vec<T>
where
    P: Process,
    T: Copy + kali_process::Wire,
{
    let mut recv_buf: Vec<T> = Vec::with_capacity(schedule.recv_len);
    for (from_proc, records) in schedule.recv_messages() {
        let expected: usize = records.iter().map(|r| r.len()).sum();
        let got = proc.recv_packed_append(from_proc, tag, &mut recv_buf);
        assert_eq!(
            got,
            expected,
            "rank {}: message from rank {from_proc} (tag {tag:#x}) has {got} elements, \
             schedule expects {expected}",
            schedule.rank()
        );
        // Unpack cost: one translate + one store per element, as before.
        proc.charge_mem_refs(2 * expected);
    }
    recv_buf
}

#[cfg(test)]
mod tests;

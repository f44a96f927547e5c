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
//! ## Address translation
//!
//! The paper (§4) accepts one run-time overhead as "unique to our system" —
//! the binary search on a *nonlocal* reference — and treats a local
//! reference as a cheap index translation.  Both fetchers ([`Fetcher`] on
//! the rank's thread, [`ChunkFetcher`] inside a chunk) therefore resolve a
//! global index through one shared resolver that keeps the common case to
//! one compare and an add:
//!
//! * a sweep asks the data distribution **once** for the rank's owned set
//!   as contiguous runs ([`Distribution::local_runs`]); inside a run the
//!   local offset is `local_base + (g − low)`, inside a receive record the
//!   buffer position is `buffer + (g − low)` — the same arithmetic, so both
//!   are kept as *windows* `(low, len, base)`, hit by the one unsigned
//!   compare `g − low < len` (an index below `low` wraps past any length);
//! * the resolver holds a small fixed array of windows indexed by the
//!   reference's **ordinal within the iteration**: the k-th reference of a
//!   stencil body walks its own row (or its own halo record) from one
//!   iteration to the next, so it keeps hitting its own window, and the
//!   three rows of a vertical stencil never evict each other;
//! * a miss costs one binary search over the owned runs and, only when no
//!   run covers the index, the schedule's receive-record search; an index
//!   covered by neither panics before anything is charged.
//!
//! A distribution that offers no runs (the trait default; cyclic, scattered
//! owner tables, any user-defined distribution that does not opt in) is
//! resolved through [`Distribution::is_local`] / [`Distribution::local_index`]
//! per owned reference, exactly as before runs existed, and only nonlocal
//! references use the windows.  The same runs let the pack, unpack and copy
//! loops of the executor and of [`redistribute`](mod@crate::redistribute)
//! translate once per run and move slices.
//!
//! ### The iteration's own element
//!
//! Almost every body also needs the local offset of the element it was
//! *placed by* — where `new_a[i]` is stored, where `count[i]` and `adj[i, ·]`
//! are read — and used to compute it with a full `dist.local_index(i)` (a
//! division under block, a div-mod walk over the dimensions of a
//! [`FlatDist`](distrib::FlatDist)) on every iteration.  The executor knows
//! it already: the iteration lists enumerate the rank's owned set under the
//! loop's **on-clause** distribution, run after run.  [`Fetcher::home`] and
//! [`ChunkFetcher::home`] hand it to the body — the inspector/executor
//! literature's *localised* loop:
//!
//! * **On-clause, not data.**  The offset is under the distribution that
//!   placed the iteration ([`ParallelLoop::on_dist`](crate::ParallelLoop),
//!   passed down by every `execute*`; an argument of its own to the free
//!   functions [`execute_sweep`] / [`execute_sweep_chunked`]), which need
//!   not be the distribution of the array the body fetches from: a loop
//!   placed by `A` reading `B` stores at `A`'s offsets.
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
//!   those of a body that does its own translation.  A chunked body returns
//!   the offset with its value and the sink stores there.
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
//!   reused at all — also **records**, for every iteration of the nonlocal
//!   list in the body's own fetch order, the global index fetched and the
//!   slot it resolved to (`l` for an owned element, `local_len + buffer
//!   position` for a received one), indexed by the iteration's position in
//!   the list so it does not depend on `(workers, chunk)`; chunks record
//!   apart and the rank's thread stitches them in chunk order.  From the
//!   *third* execution on the resolver **replays**: a fetch compares its
//!   index with the entry under the iteration's cursor and on a match reads
//!   the slot — no window, no search, and the storage is selected rather
//!   than branched on.
//! * **Why the second execution.**  Recording is not free: done on the
//!   first execution it was measured at +11 % on a first sweep of the
//!   scrambled-mesh benchmark, done at inspector time at +26 % on an
//!   adaptive solve that replans before every sweep and so executes every
//!   schedule once.  Paid on the second execution it is charged only where
//!   there is reuse to amortise it over.
//! * **A pure cache.**  On a mismatch, or past the recorded references of
//!   an iteration, a fetch falls through to the resolver above, so a body
//!   that fetches something else (another loop over the same schedule, a
//!   changed subscript array) is merely not accelerated.  The memo is used
//!   only under the placement it was learned under —
//!   [`Distribution::fingerprint`] of the data distribution and the length
//!   of the local storage, checked once per sweep; a schedule whose slots
//!   do not fit 32 bits never learns one; a recording sweep that panics
//!   leaves none; equality, signatures and copies of a schedule ignore it;
//!   debug builds resolve every replayed reference the long way as well and
//!   assert the same slot.  The local phase pays one predictable compare
//!   per fetch for all of this, and the recording code is out of line.
//!
//! Which path resolves a reference is unobservable: values, the
//! `charge_local_access` / `charge_nonlocal_access` sequence and the panic
//! are those of the definitional route (`is_local` → `local_index`, else
//! [`CommSchedule::find`]), so a metering backend's clock does not move.

use distrib::{find_run, Distribution, LocalRun};

use crate::process::trace::EventKind;
use crate::process::{tags, Process, Tag};
use crate::schedule::{CommSchedule, MemoEntry, MemoPlan, Recording};

/// Default chunk length (in iterations) for the chunked executor when no
/// explicit chunk size is configured.  Large enough that per-chunk overhead
/// (one result `Vec`, one cost flush) is negligible, small enough that a
/// worker pool load-balances across chunks.
pub const DEFAULT_CHUNK: usize = 2048;

/// Knobs for the executor, mostly used by the ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Overlap communication with the local iterations (the paper's code
    /// shape).  When `false`, messages are received immediately after they
    /// are sent and the local iterations run afterwards.
    pub overlap: bool,
    /// Tag offset distinguishing successive executions (sweep number).
    pub tag: Tag,
    /// Intra-rank worker threads for the chunked executor
    /// ([`execute_sweep_chunked`]).  `1` (the default) runs every chunk
    /// inline on the calling thread — no threads are spawned and behaviour
    /// is identical to the scalar path.  Results never depend on this knob.
    pub workers: usize,
    /// Chunk length for the chunked executor, in iterations; `0` (the
    /// default) picks [`DEFAULT_CHUNK`].  Results never depend on this knob
    /// either — only the granularity of work distribution does.
    pub chunk: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            overlap: true,
            tag: 0,
            workers: 1,
            chunk: 0,
        }
    }
}

impl ExecutorConfig {
    /// Configuration for sweep number `sweep` with overlap enabled.
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

    /// The same configuration with overlap switched as given (the ablation
    /// knob of the paper's executor shape).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
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

/// Windows a resolver keeps: references past the eighth of one iteration
/// share the windows of the first eight.  A power of two, so the ordinal
/// wraps with a mask.
const WINDOWS: usize = 8;

/// Where a resolved reference lives: `pos` in the sweep's receive buffer
/// when `nonlocal`, in the rank's local storage of the referenced array
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pos: usize,
    nonlocal: bool,
}

impl Slot {
    /// Read the element.  The storage is *selected*, not branched on: on an
    /// irregular mesh the kind of consecutive references is a coin flip.
    #[inline]
    fn read<T: Copy>(self, local_data: &[T], recv_buf: &[T]) -> T {
        let storage = if self.nonlocal { recv_buf } else { local_data };
        storage[self.pos]
    }
}

/// One remembered translation: the `len` global indices from `low` live at
/// `base..`, in the receive buffer when `nonlocal`, in local storage
/// otherwise.  The empty window (`len == 0`) matches nothing.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    low: usize,
    len: usize,
    base: usize,
    nonlocal: bool,
}

impl Window {
    fn new(low: usize, high: usize, base: usize, nonlocal: bool) -> Self {
        Window {
            low,
            len: high - low,
            base,
            nonlocal,
        }
    }

    /// Where `g` lives if the window covers it.  One unsigned compare: an
    /// index below `low` wraps to something no window is long enough for.
    #[inline]
    fn position(&self, g: usize) -> Option<usize> {
        let offset = g.wrapping_sub(self.low);
        (offset < self.len).then(|| self.base + offset)
    }

    #[inline]
    fn slot(&self, g: usize) -> Option<Slot> {
        self.position(g).map(|pos| Slot {
            pos,
            nonlocal: self.nonlocal,
        })
    }
}

/// The one translation path behind both fetchers (see the module docs).
///
/// Pure with respect to cost accounting: it returns where the element lives
/// and the fetcher charges; on an index that is neither owned nor scheduled
/// it panics with nothing charged and no window changed.  Relies on the
/// schedule invariant that receive records never cover an owned index.
struct Resolver<'a, D: Distribution + ?Sized> {
    dist: &'a D,
    rank: usize,
    /// The rank's owned runs, fetched once per sweep; `None` when the
    /// distribution offers none.
    runs: Option<&'a [LocalRun]>,
    schedule: &'a CommSchedule,
    windows: [Window; WINDOWS],
    /// References resolved the long way so far in the current iteration.
    ordinal: usize,
    /// What this phase does with the schedule's translation memo; always
    /// [`MemoPlan::Off`] in the local phase.
    memo: MemoPlan<'a>,
    /// Replaying: the current iteration's recorded references not yet
    /// compared with a fetch.
    replay: &'a [MemoEntry],
    /// Recording: what has been resolved so far (empty otherwise).
    recording: Recording,
}

impl<'a, D: Distribution + ?Sized> Resolver<'a, D> {
    fn new(
        dist: &'a D,
        runs: Option<&'a [LocalRun]>,
        schedule: &'a CommSchedule,
        memo: MemoPlan<'a>,
    ) -> Self {
        Resolver {
            dist,
            rank: schedule.rank,
            runs,
            schedule,
            windows: [Window::default(); WINDOWS],
            ordinal: 0,
            memo,
            replay: &[],
            recording: Recording::default(),
        }
    }

    /// Start the iteration at `position` of the phase's list: its first
    /// reference is ordinal 0 again, and under a memo it is the memo's row
    /// `position`.
    #[inline]
    fn next_iteration(&mut self, position: usize) {
        self.ordinal = 0;
        match self.memo {
            MemoPlan::Off => {}
            MemoPlan::Replay(memo) => self.replay = memo.refs_of(position),
            MemoPlan::Record { .. } => self.recording.begin_iteration(),
        }
    }

    #[inline]
    fn resolve(&mut self, g: usize) -> Slot {
        match self.memo {
            MemoPlan::Off => {}
            MemoPlan::Replay(memo) => {
                if let Some((&entry, rest)) = self.replay.split_first() {
                    self.replay = rest;
                    if entry.global as usize == g {
                        let (pos, nonlocal) = memo.slot(entry);
                        let slot = Slot { pos, nonlocal };
                        debug_assert_eq!(slot, self.resolve_long(g), "stale memo for {g}");
                        return slot;
                    }
                }
            }
            MemoPlan::Record { local_len, .. } => return self.resolve_and_record(g, local_len),
        }
        self.resolve_long(g)
    }

    /// The recording sweep's resolve, kept out of line so that the code of
    /// every other sweep's fetch loop does not grow by it.
    #[cold]
    #[inline(never)]
    fn resolve_and_record(&mut self, g: usize, local_len: usize) -> Slot {
        let slot = self.resolve_long(g);
        self.recording.push(g, slot.pos, slot.nonlocal, local_len);
        slot
    }

    /// Windows, then the owned runs, then the receive records.
    #[inline]
    fn resolve_long(&mut self, g: usize) -> Slot {
        let k = self.ordinal & (WINDOWS - 1);
        self.ordinal += 1;
        match self.runs {
            Some(runs) => {
                if let Some(slot) = self.windows[k].slot(g) {
                    return slot;
                }
                if let Some(run) = find_run(runs, g) {
                    self.windows[k] = Window::new(run.low, run.high, run.local_base, false);
                    return Slot {
                        pos: run.local_base + (g - run.low),
                        nonlocal: false,
                    };
                }
            }
            None => {
                if self.dist.is_local(self.rank, g) {
                    return Slot {
                        pos: self.dist.local_index(g),
                        nonlocal: false,
                    };
                }
                if let Some(slot) = self.windows[k].slot(g) {
                    return slot;
                }
            }
        }
        let (low, high, base) = self.schedule.find_record(g).unwrap_or_else(|| {
            panic!(
                "global index {g} is neither local to rank {} nor in its receive schedule",
                self.rank
            )
        });
        self.windows[k] = Window::new(low, high, base, true);
        Slot {
            pos: base + (g - low),
            nonlocal: true,
        }
    }
}

/// The iteration's own element: the local offset, under the loop's
/// **on-clause** distribution, of the iteration a fetcher is currently
/// handed to the body for (see the module docs).  Shared by both fetchers;
/// charges nothing.
struct Home<'a> {
    /// The on-clause distribution — not necessarily the data distribution.
    on_dist: &'a dyn Distribution,
    /// The rank's owned runs under it, fetched once per sweep; `None` when
    /// it offers none.
    runs: Option<&'a [LocalRun]>,
    /// The run the last answered iteration lay in.
    window: Window,
    /// The iteration the body is running.
    iter: usize,
}

impl<'a> Home<'a> {
    fn new(on_dist: &'a dyn Distribution, runs: Option<&'a [LocalRun]>) -> Self {
        Home {
            on_dist,
            runs,
            window: Window::default(),
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
        match find_run(runs, self.iter) {
            Some(run) => {
                self.window = Window::new(run.low, run.high, run.local_base, false);
                run.local_base + (self.iter - run.low)
            }
            None => self.on_dist.local_index(self.iter),
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

/// Resolves global indices of the referenced array to values, charging the
/// appropriate access costs: local accesses translate the index, nonlocal
/// accesses binary-search the communication buffer (the "search overhead …
/// unique to our system", §4).
pub struct Fetcher<'a, T, P: Process, D: Distribution + ?Sized = dyn Distribution> {
    proc: &'a mut P,
    ranges: usize,
    local_data: &'a [T],
    recv_buf: &'a [T],
    resolver: Resolver<'a, D>,
    home: Home<'a>,
}

impl<'a, T: Copy, P: Process, D: Distribution + ?Sized> Fetcher<'a, T, P, D> {
    /// Fetch the value of global element `g` of the referenced array.
    ///
    /// Panics if `g` is neither owned nor covered by the schedule — that
    /// means the schedule was built for a different reference pattern, which
    /// is a correctness bug (the paper's system would read garbage).  The
    /// access is charged only after it resolved: the panic leaves the cost
    /// counters (and the simulated clock) untouched.
    #[inline]
    pub fn fetch(&mut self, g: usize) -> T {
        let slot = self.resolver.resolve(g);
        if slot.nonlocal {
            self.proc.charge_nonlocal_access(self.ranges);
        } else {
            self.proc.charge_local_access();
        }
        slot.read(self.local_data, self.recv_buf)
    }

    /// The local offset of the current iteration's own element under the
    /// loop's **on-clause** distribution: `on_dist.local_index(i)` for the
    /// `i` the body was called with, without the division — where a body
    /// stores its result (`new_a[fetch.home()] = …`) and reads the arrays
    /// aligned with the loop.  Charges nothing.
    #[inline]
    pub fn home(&mut self) -> usize {
        self.home.offset()
    }

    /// True when the element is stored locally (no communication needed).
    pub fn is_local(&self, g: usize) -> bool {
        self.resolver.dist.is_local(self.resolver.rank, g)
    }

    /// Access the underlying process handle, e.g. to charge the cost of
    /// the loop body's own arithmetic.
    pub fn proc(&mut self) -> &mut P {
        self.proc
    }
}

/// Execute one sweep of a `forall` whose nonlocal data movement is described
/// by `schedule`.
///
/// * `on_dist` — the distribution named in the loop's `on` clause, under
///   which [`Fetcher::home`] places each iteration's own element.
/// * `data_dist` / `local_data` — distribution and local storage of the
///   array referenced inside the loop body (the paper's `old_a`).
/// * `body` — the loop body; it receives the global iteration index and a
///   [`Fetcher`] for reading referenced elements.
///
/// Every processor must call this collectively.  Returns the number of
/// iterations executed locally (for reporting).
pub fn execute_sweep<P, D, T, F>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    on_dist: &dyn Distribution,
    data_dist: &D,
    local_data: &[T],
    mut body: F,
) -> usize
where
    P: Process,
    D: Distribution + ?Sized,
    T: Copy + kali_process::Wire,
    F: FnMut(usize, &mut Fetcher<'_, T, P, D>),
{
    let rank = proc.rank();
    debug_assert_eq!(
        schedule.rank, rank,
        "schedule belongs to a different processor"
    );
    let tag = tags::executor_tag(config.tag);
    let runs = data_dist.local_runs(rank);
    let runs = runs.as_deref();
    let home_runs = on_dist.local_runs(rank);
    let home_runs = home_runs.as_deref();
    let memo = schedule.begin_execution(data_dist, local_data.len());
    send_phase(proc, schedule, data_dist, runs, local_data, tag);

    let mut run_iters = |proc: &mut P, iters: &[usize], recv_buf: &[T], memo: MemoPlan<'_>| {
        let mut fetcher = Fetcher {
            proc,
            ranges: schedule.range_count(),
            local_data,
            recv_buf,
            resolver: Resolver::new(data_dist, runs, schedule, memo),
            home: Home::new(on_dist, home_runs),
        };
        for (position, &i) in iters.iter().enumerate() {
            fetcher.proc.charge_loop_iters(1);
            fetcher.resolver.next_iteration(position);
            fetcher.home.iter = i;
            body(i, &mut fetcher);
        }
        fetcher.resolver.recording
    };

    let recv_buf = if config.overlap {
        // Paper order: local iterations run while messages are in flight.
        run_iters(proc, &schedule.local_iters, &[], MemoPlan::Off);
        receive_all(proc, schedule, tag)
    } else {
        // Ablation: no overlap — wait for all data first.
        let recv_buf = receive_all(proc, schedule, tag);
        run_iters(proc, &schedule.local_iters, &recv_buf, MemoPlan::Off);
        recv_buf
    };
    let recording = run_iters(proc, &schedule.nonlocal_iters, &recv_buf, memo);
    schedule.finish_execution(memo, recording);
    schedule.local_iters.len() + schedule.nonlocal_iters.len()
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
/// sender, ascending `low`), so appending each incoming message lands every
/// element at its record's offset — no per-element scatter, no `Option`
/// intermediary, one allocation per sweep.  A debug-only check verifies the
/// dense-layout contract record by record.
fn receive_all<P, T>(proc: &mut P, schedule: &CommSchedule, tag: Tag) -> Vec<T>
where
    P: Process,
    T: Copy + kali_process::Wire,
{
    debug_assert!(
        schedule.recv_layout_is_dense(),
        "packed receive requires the dense buffer layout from_recv_sets assigns"
    );
    let mut recv_buf: Vec<T> = Vec::with_capacity(schedule.recv_len);
    for (from_proc, records) in schedule.recv_messages() {
        let expected: usize = records.iter().map(|r| r.len()).sum();
        debug_assert_eq!(
            records.first().map(|r| r.buffer),
            Some(recv_buf.len()),
            "message from {from_proc} does not start at the buffer cursor"
        );
        let got = proc.recv_packed_append(from_proc, tag, &mut recv_buf);
        assert_eq!(
            got, expected,
            "message from {from_proc} has {got} elements, schedule expects {expected}"
        );
        // Unpack cost: one translate + one store per element, as before.
        proc.charge_mem_refs(2 * expected);
    }
    debug_assert_eq!(
        recv_buf.len(),
        schedule.recv_len,
        "receive buffer not completely filled"
    );
    recv_buf
}

// ----------------------------------------------------------------------
// Chunked intra-rank parallel execution
// ----------------------------------------------------------------------

/// Cost counters accumulated by one chunk of iterations, merged into the
/// process deterministically after the chunk completes.
///
/// The chunked executor runs loop bodies off the rank's own thread, where no
/// `&mut P` exists; bodies charge into this plain struct instead, and the
/// executor flushes every chunk's counters **in ascending chunk order** at
/// the phase boundary.  The bulk charge hooks repeat the singular ones, so
/// a metering backend's clock sees the same additions as the scalar path —
/// only their grouping changes, never the totals.
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
        proc.charge_loop_iters(self.loop_iters);
        proc.charge_mem_refs(self.mem_refs);
        proc.charge_flops(self.flops);
        proc.charge_calls(self.calls);
        proc.charge_local_accesses(self.local_accesses);
        proc.charge_nonlocal_accesses(ranges, self.nonlocal_accesses);
    }
}

/// The chunked twin of [`Fetcher`]: resolves global indices to values for a
/// loop body running inside a chunk, **without** a process handle.
///
/// Access costs (and any body arithmetic charged through the `charge_*`
/// methods) accumulate in a per-chunk [`ChunkCosts`] that the executor
/// merges deterministically afterwards, so the same body produces the same
/// accounting at any worker count.  The resolver's windows start empty in
/// every chunk and never escape it, so results and accounting are identical
/// at every `(workers, chunk)` setting.
pub struct ChunkFetcher<'a, T, D: Distribution + ?Sized = dyn Distribution> {
    local_data: &'a [T],
    recv_buf: &'a [T],
    resolver: Resolver<'a, D>,
    home: Home<'a>,
    costs: ChunkCosts,
}

impl<'a, T: Copy, D: Distribution + ?Sized> ChunkFetcher<'a, T, D> {
    /// Fetch the value of global element `g` of the referenced array.
    ///
    /// Panics if `g` is neither owned nor covered by the schedule, exactly
    /// like [`Fetcher::fetch`]; the panic propagates to the calling rank
    /// when the worker scope joins, and the chunk's costs are discarded
    /// unflushed (nothing is charged for work that never completed).
    #[inline]
    pub fn fetch(&mut self, g: usize) -> T {
        let slot = self.resolver.resolve(g);
        self.costs.local_accesses += usize::from(!slot.nonlocal);
        self.costs.nonlocal_accesses += usize::from(slot.nonlocal);
        slot.read(self.local_data, self.recv_buf)
    }

    /// The local offset of the current iteration's own element under the
    /// loop's on-clause distribution — [`Fetcher::home`], through the same
    /// code.  A chunked body returns it with its value for the sink to
    /// store at.  Charges nothing.
    #[inline]
    pub fn home(&mut self) -> usize {
        self.home.offset()
    }

    /// True when the element is stored locally (no communication needed).
    pub fn is_local(&self, g: usize) -> bool {
        self.resolver.dist.is_local(self.resolver.rank, g)
    }

    /// Charge `n` floating-point operations to this chunk.
    pub fn charge_flops(&mut self, n: usize) {
        self.costs.flops += n;
    }

    /// Charge `n` local memory references to this chunk.
    pub fn charge_mem_refs(&mut self, n: usize) {
        self.costs.mem_refs += n;
    }

    /// Charge `n` loop iterations of control overhead to this chunk.
    pub fn charge_loop_iters(&mut self, n: usize) {
        self.costs.loop_iters += n;
    }

    /// Charge `n` procedure calls to this chunk.
    pub fn charge_calls(&mut self, n: usize) {
        self.costs.calls += n;
    }
}

/// Execute one sweep of a `forall` with the **chunked intra-rank parallel
/// executor**.
///
/// The communication structure is identical to [`execute_sweep`] (send,
/// local iterations, receive, nonlocal iterations — Figure 3 of the paper);
/// the difference is how an iteration list runs: it is split into
/// deterministic fixed-boundary chunks ([`ExecutorConfig::chunk`]) executed
/// on up to [`ExecutorConfig::workers`] threads via
/// [`crate::pool::run_chunks`].
///
/// Determinism contract:
///
/// * `body` is a **read-only view** of the sweep: `Fn` (not `FnMut`),
///   fetching through a [`ChunkFetcher`]; it returns one value per
///   iteration instead of writing in place.
/// * All writes happen on the calling thread through `sink(i, value)`,
///   invoked in ascending iteration order within each phase.
/// * Per-chunk cost counters merge in ascending chunk order, each chunk's
///   flush preceding its own values' sinks, so metered totals match the
///   scalar path at every `(workers, chunk)` setting.
///
/// Consequently results and counters are a function of the schedule and the
/// body alone — never of the worker count or chunk size.  With one worker a
/// chunk's values reach the sink before the next chunk runs, so a phase
/// never holds more than one chunk of results.
///
/// Returns the number of iterations executed locally.
#[allow(clippy::too_many_arguments)] // execute_sweep + the sink
pub fn execute_sweep_chunked<P, D, T, V, F, W>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    on_dist: &dyn Distribution,
    data_dist: &D,
    local_data: &[T],
    body: F,
    mut sink: W,
) -> usize
where
    P: Process,
    D: Distribution + ?Sized + Sync,
    T: Copy + Sync + kali_process::Wire,
    V: Send,
    F: Fn(usize, &mut ChunkFetcher<'_, T, D>) -> V + Sync,
    W: FnMut(usize, V),
{
    let rank = proc.rank();
    debug_assert_eq!(
        schedule.rank, rank,
        "schedule belongs to a different processor"
    );
    let tag = tags::executor_tag(config.tag);
    let workers = config.workers.max(1);
    let chunk = config.effective_chunk();
    let ranges = schedule.range_count();
    let runs = data_dist.local_runs(rank);
    let runs = runs.as_deref();
    let home_runs = on_dist.local_runs(rank);
    let home_runs = home_runs.as_deref();
    let memo = schedule.begin_execution(data_dist, local_data.len());
    send_phase(proc, schedule, data_dist, runs, local_data, tag);

    let mut run_phase = |proc: &mut P, phase: usize, iters: &[usize], recv_buf: &[T]| {
        // The memo is the nonlocal list's.
        let memo = if phase == 1 { memo } else { MemoPlan::Off };
        let bounds = crate::pool::chunk_bounds(iters.len(), chunk);
        if proc.trace_active() {
            // One claim per chunk, recorded on the rank's thread before the
            // pool runs: the trace analyzer proves the claims of a phase
            // cover disjoint iteration positions (the sink's exclusivity).
            for &(start, end) in &bounds {
                proc.trace_emit(EventKind::ChunkClaim {
                    sweep: config.tag,
                    phase,
                    low: start,
                    high: end,
                });
            }
        }
        // A recording sweep's chunks each record their own iterations;
        // the consumer below stitches them in list order.
        let mut recording = Recording::default();
        crate::pool::run_chunks(
            workers,
            bounds.len(),
            |ci| {
                let (start, end) = bounds[ci];
                let mut fetcher = ChunkFetcher {
                    local_data,
                    recv_buf,
                    resolver: Resolver::new(data_dist, runs, schedule, memo),
                    home: Home::new(on_dist, home_runs),
                    costs: ChunkCosts::default(),
                };
                let mut values = Vec::with_capacity(end - start);
                for (position, &i) in (start..end).zip(&iters[start..end]) {
                    fetcher.costs.loop_iters += 1;
                    fetcher.resolver.next_iteration(position);
                    fetcher.home.iter = i;
                    values.push(body(i, &mut fetcher));
                }
                (values, fetcher.costs, fetcher.resolver.recording)
            },
            // Back on the rank's thread, in ascending chunk (and therefore
            // ascending iteration) order: flush the chunk's costs, then
            // hand its values to the sink.
            |ci, (values, costs, chunk_recording): (Vec<V>, ChunkCosts, Recording)| {
                costs.flush_into(proc, ranges);
                for (&i, value) in iters[bounds[ci].0..].iter().zip(values) {
                    sink(i, value);
                }
                recording.append(chunk_recording);
            },
        );
        recording
    };

    let recv_buf = if config.overlap {
        // Paper order: local iterations run while messages are in flight.
        run_phase(proc, 0, &schedule.local_iters, &[]);
        receive_all(proc, schedule, tag)
    } else {
        let recv_buf = receive_all(proc, schedule, tag);
        run_phase(proc, 0, &schedule.local_iters, &recv_buf);
        recv_buf
    };
    let recording = run_phase(proc, 1, &schedule.nonlocal_iters, &recv_buf);
    schedule.finish_execution(memo, recording);
    schedule.local_iters.len() + schedule.nonlocal_iters.len()
}

#[cfg(test)]
mod tests {
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
    fn run_shift(nprocs: usize, n: usize, overlap: bool) -> Vec<f64> {
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
                ExecutorConfig::default().with_overlap(overlap),
                &schedule,
                &dist,
                &dist,
                &local_a,
                |i, fetch| {
                    let v = fetch.fetch(i + 1);
                    new_a[fetch.home()] = v;
                },
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
            for overlap in [true, false] {
                let n = 64;
                let got = run_shift(nprocs, n, overlap);
                let mut expected: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
                expected[n - 1] = (n - 1) as f64;
                assert_eq!(got, expected, "nprocs={nprocs} overlap={overlap}");
            }
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
                |_i, fetch| {
                    let _ = fetch.fetch(_i + 1);
                },
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
                    |i, fetch| {
                        let _ = fetch.fetch(i + 1);
                    },
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

    impl MeteredSolo {
        /// A scalar fetcher over this backend, as `execute_sweep` builds it.
        fn fetcher<'a, D: Distribution>(
            &'a mut self,
            dist: &'a D,
            runs: Option<&'a [LocalRun]>,
            schedule: &'a CommSchedule,
            local_data: &'a [f64],
            recv_buf: &'a [f64],
            memo: MemoPlan<'a>,
        ) -> Fetcher<'a, f64, MeteredSolo, D> {
            Fetcher {
                proc: self,
                ranges: schedule.range_count(),
                local_data,
                recv_buf,
                resolver: Resolver::new(dist, runs, schedule, memo),
                home: Home::new(dist, runs),
            }
        }
    }

    /// A chunk fetcher as one chunk of `execute_sweep_chunked` builds it.
    fn chunk_fetcher<'a, D: Distribution>(
        dist: &'a D,
        runs: Option<&'a [LocalRun]>,
        schedule: &'a CommSchedule,
        local_data: &'a [f64],
        recv_buf: &'a [f64],
        memo: MemoPlan<'a>,
    ) -> ChunkFetcher<'a, f64, D> {
        ChunkFetcher {
            local_data,
            recv_buf,
            resolver: Resolver::new(dist, runs, schedule, memo),
            home: Home::new(dist, runs),
            costs: ChunkCosts::default(),
        }
    }

    #[test]
    fn schedule_mismatch_panic_leaves_cost_counters_untouched() {
        // Regression: `Fetcher::fetch` used to charge the nonlocal access
        // *before* checking the schedule covered the index, so the panic
        // path left the counters (and on dmsim the simulated clock)
        // inflated by an access that never happened.  Checked on both
        // sides of the runs choice: with the block distribution's run and
        // with the per-element fallback.
        let dist = DimDist::block(8, 2);
        let empty = CommSchedule::from_recv_sets(0, &[], vec![], vec![]);
        let local_data = [0.0f64; 4];
        let owned = dist.local_runs(0);
        assert!(owned.is_some(), "block offers its run");
        for runs in [owned.as_deref(), None] {
            let mut proc = MeteredSolo::default();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Global index 6 is owned by the (absent) rank 1 and not in
                // the schedule: the lookup fails and fetch panics.
                proc.fetcher(&dist, runs, &empty, &local_data, &[], MemoPlan::Off)
                    .fetch(6)
            }));
            assert!(result.is_err(), "unscheduled fetch must panic");
            assert_eq!(
                proc.nonlocal_charges, 0,
                "no nonlocal access may be charged on the panic path"
            );
            assert_eq!(proc.counters(), crate::process::Counters::default());
            // Sanity: the same fetcher charges exactly once on a successful
            // path.
            let mut fetcher = proc.fetcher(&dist, runs, &empty, &local_data, &[], MemoPlan::Off);
            assert_eq!(fetcher.fetch(2), 0.0);
            assert_eq!(proc.local_charges, 1);
            assert_eq!(proc.nonlocal_charges, 0);
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
                fetcher.resolver.next_iteration(0);
                assert_eq!(fetcher.fetch(g).to_bits(), expected.to_bits());
            }
            assert_eq!(fetcher.costs.nonlocal_accesses, nonlocal);
            assert_eq!(fetcher.costs.local_accesses, pattern.len() - nonlocal);
            // The window now covers the receive range; an out-of-schedule
            // index still panics instead of resolving through stale state.
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetcher.fetch(9)));
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
        if dist.is_local(schedule.rank, g) {
            Some((false, local_data[dist.local_index(g)].to_bits()))
        } else {
            schedule.find(g).map(|pos| (true, recv_buf[pos].to_bits()))
        }
    }

    /// One execution of `schedule`'s nonlocal phase as the executor runs it
    /// — `begin_execution`, both fetchers over `iterations` (the references
    /// of the iteration at each position of the nonlocal list), the
    /// recording kept — comparing every reference with the definitional
    /// route: value bits, which hook was charged, and — for an index that is
    /// neither owned nor scheduled — a panic that charges nothing and
    /// disturbs nothing.  Returns what the memo was used for: `"off"`,
    /// `"record"` or `"replay"`.
    fn assert_execution_matches_the_definitional_route<D: Distribution>(
        dist: &D,
        runs: Option<&[LocalRun]>,
        schedule: &CommSchedule,
        local_data: &[f64],
        recv_buf: &[f64],
        iterations: &[Vec<usize>],
    ) -> &'static str {
        let rank = schedule.rank;
        assert_eq!(schedule.nonlocal_iters.len(), iterations.len());
        let memo = schedule.begin_execution(dist, local_data.len());
        let mut proc = MeteredSolo::default();
        let mut scalar = proc.fetcher(dist, runs, schedule, local_data, recv_buf, memo);
        let mut chunked = chunk_fetcher(dist, runs, schedule, local_data, recv_buf, memo);
        let (mut local, mut nonlocal) = (0u64, 0u64);
        for (position, refs) in iterations.iter().enumerate() {
            scalar.resolver.next_iteration(position);
            chunked.resolver.next_iteration(position);
            for &g in refs {
                let expected = definitional(dist, schedule, local_data, recv_buf, g);
                let got_scalar =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scalar.fetch(g)));
                let got_chunked =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chunked.fetch(g)));
                match expected {
                    Some((is_nonlocal, bits)) => {
                        assert_eq!(got_scalar.ok().map(f64::to_bits), Some(bits), "g={g}");
                        assert_eq!(got_chunked.ok().map(f64::to_bits), Some(bits), "g={g}");
                        local += u64::from(!is_nonlocal);
                        nonlocal += u64::from(is_nonlocal);
                    }
                    None => {
                        for payload in [got_scalar.err(), got_chunked.err()] {
                            let message = payload
                                .and_then(|p| p.downcast::<String>().ok())
                                .expect("an unscheduled index panics with a message");
                            assert_eq!(
                                *message,
                                format!(
                                    "global index {g} is neither local to rank {rank} \
                                     nor in its receive schedule"
                                )
                            );
                        }
                    }
                }
                // After every reference, panicking or not: each fetcher has
                // charged exactly the definitional hooks so far.
                assert_eq!(scalar.proc.local_charges, local, "g={g}");
                assert_eq!(scalar.proc.nonlocal_charges, nonlocal, "g={g}");
                assert_eq!(chunked.costs.local_accesses as u64, local, "g={g}");
                assert_eq!(chunked.costs.nonlocal_accesses as u64, nonlocal, "g={g}");
            }
        }
        assert_eq!(
            chunked.costs,
            ChunkCosts {
                local_accesses: local as usize,
                nonlocal_accesses: nonlocal as usize,
                ..ChunkCosts::default()
            }
        );
        // Both fetchers learned the same thing; the executor keeps it.
        let recording = scalar.resolver.recording;
        assert_eq!(recording, chunked.resolver.recording);
        schedule.finish_execution(memo, recording);
        let counters = proc.counters();
        assert_eq!(
            counters,
            crate::process::Counters {
                nonlocal_refs: nonlocal,
                ..Default::default()
            }
        );
        match memo {
            MemoPlan::Off => "off",
            MemoPlan::Record { .. } => "record",
            MemoPlan::Replay(_) => "replay",
        }
    }

    mod resolver_properties {
        use super::*;
        use distrib::{ArrayDist, BlockDist, IndexRange, IndexSet, IrregularDist};
        use proptest::prelude::*;

        /// A random receive schedule for `rank`: a random subset of the
        /// ranges other ranks own, so some nonlocal indices stay
        /// unscheduled (the panic path) and records have gaps between them.
        fn random_schedule(dist: &dyn Distribution, rank: usize, picks: &[usize]) -> CommSchedule {
            let mut picks = picks.iter().cycle();
            let recv_sets: Vec<IndexSet> = (0..dist.nprocs())
                .map(|q| {
                    if q == rank {
                        return IndexSet::new();
                    }
                    IndexSet::from_ranges(dist.local_set(q).ranges().iter().filter_map(|r| {
                        // Keep a random sub-range of roughly two in three.
                        let pick = *picks.next().expect("cycle never ends");
                        let len = r.end - r.start;
                        let lo = r.start + pick % len;
                        let hi = lo + 1 + (pick / 7) % (r.end - lo);
                        (pick % 3 < 2).then_some(IndexRange::new(lo, hi))
                    }))
                })
                .collect();
            CommSchedule::from_recv_sets(rank, &recv_sets, vec![], vec![])
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
                let iterations = random_iterations(dist.n(), &seeds);
                let changed = changed_body(&iterations, dist.n(), &seeds);
                let mut fresh = random_schedule(dist.as_dyn(), rank, &picks);
                fresh.nonlocal_iters = (0..iterations.len()).collect();
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
                            &dist, runs, &schedule, data, &recv_buf, body,
                        )
                    };
                    // Plain, recording, replay …
                    prop_assert_eq!(run(&local_data, &iterations), "off");
                    prop_assert_eq!(schedule.approx_bytes(), bytes);
                    prop_assert_eq!(run(&local_data, &iterations), "record");
                    prop_assert!(schedule.approx_bytes() > bytes);
                    prop_assert_eq!(run(&local_data, &iterations), "replay");
                    // … of a body that changed since: partial hits, then
                    // the long way; and of the recorded one again.
                    prop_assert_eq!(run(&local_data, &changed), "replay");
                    prop_assert_eq!(run(&local_data, &iterations), "replay");
                    // Under another placement the memo is ignored.
                    prop_assert_eq!(run(&longer, &iterations), "off");
                    prop_assert_eq!(
                        assert_execution_matches_the_definitional_route(
                            &renamed, None, &schedule, &local_data, &recv_buf, &changed,
                        ),
                        "off"
                    );
                    prop_assert_eq!(run(&local_data, &changed), "replay");
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
        // A loop placed by `on` reading an array placed by `data`: for
        // every iteration of both phases, through both fetchers and at
        // every (workers, chunk), `home()` is the offset under `on`.
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
                let mut seen = Vec::new();
                execute_sweep(
                    proc,
                    ExecutorConfig::default(),
                    &schedule,
                    &on,
                    &data,
                    &local,
                    |i, fetch| {
                        assert_eq!(fetch.home(), on.local_index(i), "{name}: iteration {i}");
                        // Asking again, and after a fetch, changes nothing.
                        assert_eq!(fetch.fetch(i), i as f64);
                        assert_eq!(fetch.home(), on.local_index(i), "{name}: iteration {i}");
                        seen.push(i);
                    },
                );
                seen.sort_unstable();
                assert_eq!(seen, exec, "{name}: scalar sweep");
                for workers in [1usize, 4] {
                    for chunk in [1usize, 3, 0] {
                        let mut seen = Vec::new();
                        execute_sweep_chunked(
                            proc,
                            ExecutorConfig::default()
                                .with_workers(workers)
                                .with_chunk(chunk),
                            &schedule,
                            &on,
                            &data,
                            &local,
                            |i, fetch| (fetch.home(), fetch.fetch(i)),
                            |i, (home, value)| {
                                assert_eq!(
                                    home,
                                    on.local_index(i),
                                    "{name}: iteration {i} at workers={workers} chunk={chunk}"
                                );
                                assert_eq!(value, i as f64);
                                seen.push(i);
                            },
                        );
                        seen.sort_unstable();
                        assert_eq!(seen, exec, "{name}: workers={workers} chunk={chunk}");
                    }
                }
                (schedule.local_iters.len(), schedule.nonlocal_iters.len())
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
                    execute_sweep(
                        proc,
                        ExecutorConfig::sweep(0),
                        &schedule,
                        &on,
                        &data,
                        &local,
                        |i, fetch| {
                            let l = if ask { fetch.home() } else { on.local_index(i) };
                            out[l] = fetch.fetch(i + 1);
                        },
                    );
                    execute_sweep_chunked(
                        proc,
                        ExecutorConfig::sweep(1).with_workers(4).with_chunk(3),
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
        // Overlap builder keeps the tag.
        let c = ExecutorConfig::sweep(7).with_overlap(false);
        assert!(!c.overlap);
        assert_eq!(c.tag, 7);
    }

    /// The shift of Figure 1 on the chunked executor: any worker count and
    /// chunk size must reproduce the scalar path bit for bit, including the
    /// metered counters.
    #[test]
    fn chunked_shift_matches_scalar_at_any_workers_and_chunk() {
        let n = 64;
        let nprocs = 4;
        let run = |workers: usize, chunk: usize, chunked: bool| {
            let machine = Machine::new(nprocs, CostModel::ncube7());
            machine.run_stats(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let rank = proc.rank();
                let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&dist, rank, n - 1);
                let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
                let mut new_a = local_a.clone();
                if chunked {
                    execute_sweep_chunked(
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
                } else {
                    execute_sweep(
                        proc,
                        ExecutorConfig::default(),
                        &schedule,
                        &dist,
                        &dist,
                        &local_a,
                        |i, fetch| {
                            let v = fetch.fetch(i + 1);
                            new_a[fetch.home()] = v;
                        },
                    );
                }
                new_a
            })
        };
        let (scalar_vals, scalar_stats) = run(1, 0, false);
        for workers in [1usize, 2, 4] {
            for chunk in [0usize, 1, 3, 7, 1024] {
                let (vals, stats) = run(workers, chunk, true);
                assert_eq!(vals, scalar_vals, "workers={workers} chunk={chunk}");
                assert_eq!(
                    masked(stats.totals),
                    masked(scalar_stats.totals),
                    "counters diverged at workers={workers} chunk={chunk}"
                );
            }
        }
    }

    /// Body charges through the `ChunkFetcher` merge into the process in
    /// chunk order, matching an equivalent scalar body charging directly.
    #[test]
    fn chunk_costs_merge_to_the_scalar_totals() {
        let n = 40;
        let run = |chunked: bool| {
            let machine = Machine::new(2, CostModel::ncube7());
            let (_, stats) = machine.run_stats(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let rank = proc.rank();
                let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&dist, rank, n - 1);
                let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
                if chunked {
                    execute_sweep_chunked(
                        proc,
                        ExecutorConfig::default().with_workers(3).with_chunk(4),
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
                } else {
                    execute_sweep(
                        proc,
                        ExecutorConfig::default(),
                        &schedule,
                        &dist,
                        &dist,
                        &local_a,
                        |i, fetch| {
                            fetch.proc().charge_flops(2);
                            fetch.proc().charge_mem_refs(3);
                            fetch.proc().charge_calls(1);
                            let _ = fetch.fetch(i + 1);
                        },
                    );
                }
            });
            masked(stats.totals)
        };
        assert_eq!(run(true), run(false));
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
            execute_sweep_chunked(
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
                |i, fetch| {
                    let _ = fetch.fetch((i + 4) % 8);
                },
            );
        });
    }
}

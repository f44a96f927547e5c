//! Communication schedules: the `in(p,q)` / `out(p,q)` sets of the paper.
//!
//! §3.3 and Figure 5 of the paper describe the representation: a schedule is
//! a dynamically allocated array of *range records*
//! `(from_proc, to_proc, low, high, buffer)`, sorted by processor id with the
//! range start as a secondary key, with adjacent ranges combined so that a
//! single message per processor pair suffices and an individual element can
//! be found by binary search in `O(log r)` time.
//!
//! [`CommSchedule`] is that data structure plus the two iteration lists the
//! inspector produces (`local_list` and `nonlocal_list`), which drive the
//! executor's "local iterations / nonlocal iterations" split.
//!
//! A schedule that is executed more than once also learns a private
//! **translation memo** for its nonlocal list (see the executor's module
//! docs): a pure cache the executor fills and reads, invisible to equality,
//! [`CommSchedule::signature`] and copies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use distrib::{Distribution, IndexRange, IndexSet, LocalRun};
use kali_process::{Wire, WireError, WireReader};

/// One contiguous block of a distributed array to be communicated between a
/// pair of processors (Figure 5 of the paper).
///
/// `low..high` is a half-open range of **global** indices of the referenced
/// array; `buffer` is the offset of the first of these elements in the
/// receiving processor's communication buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeRecord {
    /// Sending processor (the owner of the elements).
    pub from_proc: usize,
    /// Receiving processor (the processor that referenced the elements).
    pub to_proc: usize,
    /// First global index of the block.
    pub low: usize,
    /// One past the last global index of the block.
    pub high: usize,
    /// Offset of the block in the receiver's communication buffer.
    pub buffer: usize,
}

/// Range records are exactly what the inspector's `exchange` ships between
/// ranks ("Form send_list using recv_lists from all processors", Figure 6),
/// so they must cross a real process boundary: five `usize` fields, encoded
/// in declaration order.
impl Wire for RangeRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let RangeRecord {
            from_proc,
            to_proc,
            low,
            high,
            buffer,
        } = *self;
        from_proc.encode(out);
        to_proc.encode(out);
        low.encode(out);
        high.encode(out);
        buffer.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RangeRecord {
            from_proc: usize::decode(r)?,
            to_proc: usize::decode(r)?,
            low: usize::decode(r)?,
            high: usize::decode(r)?,
            buffer: usize::decode(r)?,
        })
    }
}

impl RangeRecord {
    /// Number of elements covered by the record.
    pub fn len(&self) -> usize {
        self.high.saturating_sub(self.low)
    }

    /// True if the record covers no elements.
    pub fn is_empty(&self) -> bool {
        self.high <= self.low
    }
}

/// The complete communication schedule of one `forall` on one processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSchedule {
    /// Rank of the processor this schedule belongs to.
    rank: usize,
    /// Blocks this processor must receive, sorted by `(from_proc, low)`,
    /// non-empty, with `to_proc == rank` and dense buffer offsets in that
    /// order.  Written only by [`CommSchedule::from_recv_sets`].
    recv_records: Vec<RangeRecord>,
    /// Blocks this processor must send, sorted by `(to_proc, low)`,
    /// non-empty and disjoint per destination, with `from_proc == rank`.
    /// Written only by [`CommSchedule::set_send_records`].
    send_records: Vec<RangeRecord>,
    /// Iterations that reference only local data (`exec(p) ∩ ref(p)`),
    /// strictly ascending and disjoint from `nonlocal_iters`.  Written only
    /// by [`CommSchedule::from_recv_sets`], as is `nonlocal_iters`.
    local_iters: Vec<usize>,
    /// Iterations that reference at least one nonlocal element
    /// (`exec(p) − ref(p)`), strictly ascending.
    nonlocal_iters: Vec<usize>,
    /// Total number of elements to be received (the communication buffer
    /// length).
    pub recv_len: usize,
    /// Lookup table for nonlocal accesses: `(low, high, buffer)` sorted by
    /// `low`.  Global ranges from different senders are disjoint (every
    /// element has one home), so a plain binary search on `low` suffices.
    lookup: Vec<(usize, usize, usize)>,
    /// Execution count and the translation memo learned from it.
    translation: Translation,
}

impl CommSchedule {
    /// Build a schedule from the inspector's (or the compile-time
    /// analyser's) raw results.
    ///
    /// * `recv_sets[q]` is the set of global indices this processor must
    ///   receive from processor `q` (`in(p,q)` in the paper's notation);
    ///   entries for `q == rank` must be empty.
    /// * `local_iters` / `nonlocal_iters` are the iteration lists.
    ///
    /// Buffer offsets are assigned densely in `(from_proc, low)` order, the
    /// order in which the executor unpacks incoming messages.  An
    /// [`IndexSet`]'s ranges are sorted, disjoint and non-empty, so the
    /// records are too.  Send records
    /// are *not* filled in here — they are only known after the global
    /// exchange (`out(p,q) = in(q,p)`); use
    /// [`CommSchedule::set_send_records`].
    ///
    /// The iteration lists are checked in every build: each must be strictly
    /// ascending and no iteration may be on both (it would run twice, and
    /// the executor's chunks and sinks key on list positions).  A list that
    /// breaks either panics, naming this rank, the list and the iteration.
    pub fn from_recv_sets(
        rank: usize,
        recv_sets: &[IndexSet],
        local_iters: Vec<usize>,
        nonlocal_iters: Vec<usize>,
    ) -> Self {
        for (list, name) in [(&local_iters, "local"), (&nonlocal_iters, "nonlocal")] {
            // A fold with no early exit, so the common, ascending case runs
            // as one branch-free pass; the culprit is looked up only on
            // failure.
            let ascending = list.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
            if !ascending {
                let w = list
                    .windows(2)
                    .find(|w| w[0] >= w[1])
                    .expect("a pair out of order");
                panic!(
                    "rank {rank}: {name} iteration {} follows {}: not strictly ascending",
                    w[1], w[0]
                );
            }
        }
        // Each entry of the shorter list is looked up in what is left of the
        // longer one, galloping from its start: a closed-form plan's few
        // boundary iterations cost a few probes each, not a pass over the
        // interior.
        let (short, mut rest) = if local_iters.len() <= nonlocal_iters.len() {
            (&local_iters, &nonlocal_iters[..])
        } else {
            (&nonlocal_iters, &local_iters[..])
        };
        for &i in short {
            let mut end = 1;
            while end < rest.len() && rest[end - 1] < i {
                end *= 2;
            }
            let k = rest[..end.min(rest.len())].partition_point(|&j| j < i);
            assert!(
                rest.get(k) != Some(&i),
                "rank {rank}: iteration {i} is on both the local and the nonlocal list"
            );
            rest = &rest[k..];
        }
        let mut recv_records = Vec::new();
        let mut offset = 0usize;
        for (q, set) in recv_sets.iter().enumerate() {
            if q == rank {
                assert!(
                    set.is_empty(),
                    "rank {rank}: a processor never receives its own elements"
                );
                continue;
            }
            for r in set.ranges() {
                recv_records.push(RangeRecord {
                    from_proc: q,
                    to_proc: rank,
                    low: r.start,
                    high: r.end,
                    buffer: offset,
                });
                offset += r.len();
            }
        }
        let mut lookup: Vec<_> = recv_records
            .iter()
            .map(|r| (r.low, r.high, r.buffer))
            .collect();
        lookup.sort_unstable();
        CommSchedule {
            rank,
            recv_records,
            send_records: Vec::new(),
            local_iters,
            nonlocal_iters,
            recv_len: offset,
            lookup,
            translation: Translation::default(),
        }
    }

    /// Install the send records produced by the global exchange, sorting
    /// them by `(to_proc, low)` — the paper's "sorted on the `to_proc`
    /// field, again using `low` as the secondary key".
    ///
    /// The records were sent by this rank's peers (on mp, decoded from
    /// another process), so they are checked in every build: each must
    /// originate here, name another rank below `nprocs` as its peer and be
    /// non-empty, and no two to one destination may overlap.  A record that
    /// breaks one panics, naming this rank and the peer.
    pub fn set_send_records(&mut self, nprocs: usize, mut records: Vec<RangeRecord>) {
        let rank = self.rank;
        records.sort_by_key(|r| (r.to_proc, r.low));
        for r in &records {
            let (peer, low, high) = (r.to_proc, r.low, r.high);
            assert!(
                r.from_proc == rank,
                "rank {rank}: peer {peer}'s send record [{low},{high}) originates on rank {}",
                r.from_proc
            );
            assert!(
                peer != rank && peer < nprocs,
                "rank {rank}: send record [{low},{high}) names peer {peer}, not another of \
                 {nprocs} ranks"
            );
            assert!(
                !r.is_empty(),
                "rank {rank}: peer {peer}'s send record [{low},{high}) is empty"
            );
        }
        for w in records.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                a.to_proc != b.to_proc || a.high <= b.low,
                "rank {rank}: peer {}'s send records [{},{}) and [{},{}) overlap",
                b.to_proc,
                a.low,
                a.high,
                b.low,
                b.high
            );
        }
        self.send_records = records;
    }

    /// [`CommSchedule::set_send_records`] for an analysis that knows its
    /// send sets in closed form: `out_to(q)` is `out(p,q)`, asked for every
    /// `q` but this rank.
    pub(crate) fn set_send_sets(&mut self, nprocs: usize, out_to: impl Fn(usize) -> IndexSet) {
        let mut records = Vec::new();
        for q in (0..nprocs).filter(|&q| q != self.rank) {
            records.extend(out_to(q).ranges().iter().map(|r| RangeRecord {
                from_proc: self.rank,
                to_proc: q,
                low: r.start,
                high: r.end,
                buffer: 0, // buffer offsets are a receiver-side notion
            }));
        }
        self.set_send_records(nprocs, records);
    }

    /// Panic unless this rank owns every element of its send records under
    /// `dist`, the distribution they index: checked per owned run, or per
    /// element where `dist` has no runs.  The executor packs a send record
    /// through `dist`'s local indices unchecked, so a peer that asks for an
    /// element this rank does not own (say, because the two planned under
    /// different distributions) would otherwise be sent another element's
    /// value.  The panic names this rank, the peer and the record.
    pub(crate) fn assert_sends_owned<D: Distribution + ?Sized>(&self, dist: &D) {
        let rank = self.rank;
        let runs = dist.local_runs(rank);
        for r in &self.send_records {
            let owned = r.high <= dist.n()
                && match runs.as_deref() {
                    Some(runs) => runs_cover(runs, r.low, r.high),
                    None => (r.low..r.high).all(|g| dist.owner(g) == rank),
                };
            assert!(
                owned,
                "rank {rank}: peer {}'s send record [{},{}) names an element rank {rank} \
                 does not own under {}",
                r.to_proc,
                r.low,
                r.high,
                dist.kind_name()
            );
        }
    }

    /// Approximate heap footprint of the schedule in bytes — the quantity
    /// the schedule cache sums into its resident-bytes gauge.  Counts the
    /// record vectors, the iteration lists, the lookup table and — once the
    /// schedule has learned it — the translation memo, so the figure grows
    /// when a resident schedule is executed a second time; exact allocator
    /// overhead is not modelled.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.recv_records.len() + self.send_records.len())
                * std::mem::size_of::<RangeRecord>()
            + (self.local_iters.len() + self.nonlocal_iters.len()) * std::mem::size_of::<usize>()
            + self.lookup.len() * std::mem::size_of::<(usize, usize, usize)>()
            + self.translation.memo.get().map_or(0, |memo| {
                memo.starts.len() * std::mem::size_of::<u32>()
                    + memo.entries.len() * std::mem::size_of::<MemoEntry>()
            })
    }

    /// Count one execution of the schedule and say what the executor's
    /// nonlocal phase does with the translation memo in it: nothing on the
    /// first execution (a schedule that is never reused never pays), record
    /// on the second, replay from then on — but only under the placement
    /// the memo was learned under (`data_dist`'s fingerprint and the length
    /// of the local storage), and only when every slot fits the memo's
    /// 32-bit entries.
    pub(crate) fn begin_execution<D: Distribution + ?Sized>(
        &self,
        data_dist: &D,
        local_len: usize,
    ) -> MemoPlan<'_> {
        // Relaxed: the count publishes nothing — the memo itself is handed
        // over by the `OnceLock`.
        let earlier = self.translation.executions.fetch_add(1, Ordering::Relaxed);
        if earlier == 0 || self.nonlocal_iters.is_empty() {
            return MemoPlan::Off;
        }
        match self.translation.memo.get() {
            Some(memo)
                if memo.local_len == local_len && memo.fingerprint == data_dist.fingerprint() =>
            {
                MemoPlan::Replay(memo)
            }
            None if earlier == 1 && u32::try_from(local_len + self.recv_len).is_ok() => {
                MemoPlan::Record {
                    fingerprint: data_dist.fingerprint(),
                    local_len,
                }
            }
            _ => MemoPlan::Off,
        }
    }

    /// The nonlocal phase of the execution that `plan` was made for ran to
    /// its end: if it was the recording one, keep what it learned.
    /// `recording` then holds the references of every nonlocal iteration, in
    /// list order; one that does not fit the memo's 32-bit fields is
    /// dropped.  A sweep that panics never gets here, so a partial recording
    /// is never kept.
    pub(crate) fn finish_execution(&self, plan: MemoPlan<'_>, recording: Recording) {
        let MemoPlan::Record {
            fingerprint,
            local_len,
        } = plan
        else {
            return;
        };
        let Recording {
            mut starts,
            mut entries,
            overflowed,
        } = recording;
        debug_assert_eq!(starts.len(), self.nonlocal_iters.len());
        let (Ok(total), false) = (u32::try_from(entries.len()), overflowed) else {
            return;
        };
        starts.push(total);
        starts.shrink_to_fit();
        entries.shrink_to_fit();
        // A second `set` can only come from a concurrent recording of the
        // same schedule; either result is a valid memo.
        let _ = self.translation.memo.set(TranslationMemo {
            fingerprint,
            local_len,
            starts,
            entries,
        });
    }

    /// Rank of the processor this schedule belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Iterations that reference only local data, strictly ascending.
    pub fn local_iters(&self) -> &[usize] {
        &self.local_iters
    }

    /// Iterations that reference at least one nonlocal element, strictly
    /// ascending and disjoint from [`CommSchedule::local_iters`].
    pub fn nonlocal_iters(&self) -> &[usize] {
        &self.nonlocal_iters
    }

    /// Number of distinct processors this processor receives from.
    pub fn recv_partner_count(&self) -> usize {
        count_distinct(self.recv_records.iter().map(|r| r.from_proc))
    }

    /// Number of distinct processors this processor sends to.
    pub fn send_partner_count(&self) -> usize {
        count_distinct(self.send_records.iter().map(|r| r.to_proc))
    }

    /// Total number of elements this processor sends.
    pub fn send_len(&self) -> usize {
        self.send_records.iter().map(RangeRecord::len).sum()
    }

    /// Number of range records held (the `r` of the `O(log r)` bound).
    pub fn range_count(&self) -> usize {
        self.recv_records.len()
    }

    /// The receive records, sorted by `(from_proc, low)`; each record's
    /// `buffer` is the running sum of the lengths before it.
    pub fn recv_records(&self) -> &[RangeRecord] {
        &self.recv_records
    }

    /// The send records, sorted by `(to_proc, low)`.
    pub fn send_records(&self) -> &[RangeRecord] {
        &self.send_records
    }

    /// Group receive records by sending processor, in ascending processor
    /// order.  Each group's records are sorted by `low` and its buffer
    /// region is contiguous.
    pub fn recv_messages(&self) -> Vec<(usize, &[RangeRecord])> {
        group_by_proc(&self.recv_records, |r| r.from_proc)
    }

    /// Group send records by destination processor, in ascending processor
    /// order.
    pub fn send_messages(&self) -> Vec<(usize, &[RangeRecord])> {
        group_by_proc(&self.send_records, |r| r.to_proc)
    }

    /// Find the communication-buffer position of a received global index by
    /// binary search over the range records — the access path the executor
    /// uses for nonlocal references (`O(log r)`).
    pub fn find(&self, global: usize) -> Option<usize> {
        self.find_record(global)
            .map(|(low, _, buffer)| buffer + (global - low))
    }

    /// Locate the whole receive record covering a global index — `(low,
    /// high, buffer)` with `low <= global < high` — with one binary search.
    ///
    /// This is [`CommSchedule::find`] without the final offset arithmetic:
    /// the executor hoists the returned record as a chunk-local
    /// window, so a run of references landing in the same record resolves
    /// by offset arithmetic alone and pays the `O(log r)` search only when
    /// the run leaves the window.
    #[inline]
    pub fn find_record(&self, global: usize) -> Option<(usize, usize, usize)> {
        let idx = self.lookup.partition_point(|&(low, _, _)| low <= global);
        if idx == 0 {
            return None;
        }
        let (low, high, buffer) = self.lookup[idx - 1];
        (global < high).then_some((low, high, buffer))
    }

    /// The set of global indices this processor receives (for tests and
    /// reporting).
    pub fn recv_index_set(&self) -> IndexSet {
        IndexSet::from_ranges(
            self.recv_records
                .iter()
                .map(|r| IndexRange::new(r.low, r.high)),
        )
    }

    /// The set of global indices this processor sends.
    pub fn send_index_set(&self) -> IndexSet {
        IndexSet::from_ranges(
            self.send_records
                .iter()
                .map(|r| IndexRange::new(r.low, r.high)),
        )
    }

    /// Normalised copy for equality testing: buffer offsets and record order
    /// are implementation details of how the schedule was built, so
    /// comparisons between the compile-time and run-time analyses use the
    /// index sets and iteration lists only.
    pub fn signature(&self) -> ScheduleSignature {
        let mut recv_by_proc: Vec<(usize, Vec<IndexRange>)> = self
            .recv_messages()
            .into_iter()
            .map(|(q, recs)| {
                (
                    q,
                    recs.iter()
                        .map(|r| IndexRange::new(r.low, r.high))
                        .collect(),
                )
            })
            .collect();
        recv_by_proc.sort();
        let mut send_by_proc: Vec<(usize, Vec<IndexRange>)> = self
            .send_messages()
            .into_iter()
            .map(|(q, recs)| {
                (
                    q,
                    recs.iter()
                        .map(|r| IndexRange::new(r.low, r.high))
                        .collect(),
                )
            })
            .collect();
        send_by_proc.sort();
        ScheduleSignature {
            rank: self.rank,
            recv_by_proc,
            send_by_proc,
            local_iters: self.local_iters.clone(),
            nonlocal_iters: self.nonlocal_iters.clone(),
        }
    }
}

// ----------------------------------------------------------------------
// Translation memo
// ----------------------------------------------------------------------

/// How often the schedule has been executed, and what that taught it.
///
/// Not part of the schedule's value: two schedules are equal whatever they
/// have learned, and a copy starts its own life (it may be edited before it
/// is executed, which would leave a carried-over memo stale).
#[derive(Debug, Default)]
struct Translation {
    executions: AtomicUsize,
    memo: OnceLock<TranslationMemo>,
}

impl Clone for Translation {
    fn clone(&self) -> Self {
        Translation::default()
    }
}

impl PartialEq for Translation {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One memoised reference: the global index the body fetched and the slot it
/// resolved to — `l` for an owned element, `local_len + buffer position` for
/// a received one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoEntry {
    pub(crate) global: u32,
    slot: u32,
}

/// The resolved references of a schedule's `nonlocal_iters`, in the body's
/// own fetch order, indexed by the iteration's position in the list (so it
/// does not depend on how a sweep is chunked).
#[derive(Debug)]
pub(crate) struct TranslationMemo {
    /// [`Distribution::fingerprint`] of the data distribution and length of
    /// the local storage in the recording sweep: the memo is used under
    /// exactly these and ignored otherwise.
    fingerprint: u64,
    local_len: usize,
    /// The references of `nonlocal_iters[k]` are
    /// `entries[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    entries: Vec<MemoEntry>,
}

impl TranslationMemo {
    /// The recorded references of the iteration at `position` in the
    /// nonlocal list.
    #[inline]
    pub(crate) fn refs_of(&self, position: usize) -> &[MemoEntry] {
        &self.entries[self.starts[position] as usize..self.starts[position + 1] as usize]
    }
}

impl MemoEntry {
    /// Where the reference lives in a sweep whose local storage holds
    /// `local_len` elements (the memo's own, or it would not be replayed):
    /// `(position, nonlocal)` — a position in the receive buffer when
    /// `nonlocal`, in the local storage otherwise.  Arithmetic on the flag,
    /// so that nothing here can become a branch on a coin flip.
    #[inline]
    pub(crate) fn slot(self, local_len: usize) -> (usize, bool) {
        let slot = self.slot as usize;
        let nonlocal = slot >= local_len;
        (slot - usize::from(nonlocal) * local_len, nonlocal)
    }
}

/// What a recording sweep (or one chunk of it) has resolved so far.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Recording {
    /// Where each recorded iteration's references start in `entries`.
    starts: Vec<u32>,
    entries: Vec<MemoEntry>,
    /// Something did not fit the memo's 32-bit fields: the recording is
    /// dropped instead of installed.
    overflowed: bool,
}

impl Recording {
    /// The next iteration of the list starts here.
    pub(crate) fn begin_iteration(&mut self) {
        // Wraps only past 2^32 entries, which `finish_execution` refuses.
        self.starts.push(self.entries.len() as u32);
    }

    /// Remember that `global` resolved to `position` — in the receive
    /// buffer when `nonlocal`, in the local storage of `local_len` elements
    /// otherwise.
    pub(crate) fn push(
        &mut self,
        global: usize,
        position: usize,
        nonlocal: bool,
        local_len: usize,
    ) {
        let slot = position + if nonlocal { local_len } else { 0 };
        match (u32::try_from(global), u32::try_from(slot)) {
            (Ok(global), Ok(slot)) => self.entries.push(MemoEntry { global, slot }),
            _ => self.overflowed = true,
        }
    }

    /// Append the recording of the chunk that follows this one.
    pub(crate) fn append(&mut self, next: Recording) {
        let base = self.entries.len() as u32;
        self.starts
            .extend(next.starts.iter().map(|&s| base.wrapping_add(s)));
        self.entries.extend(next.entries);
        self.overflowed |= next.overflowed;
    }
}

/// What the executor's nonlocal phase does with the translation memo in one
/// execution (see [`CommSchedule::begin_execution`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemoPlan<'a> {
    /// Resolve every reference the long way.
    Off,
    /// Resolve the long way and remember the outcome.
    Record {
        /// Fingerprint of the data distribution of this sweep.
        fingerprint: u64,
        /// Length of the local storage of this sweep.
        local_len: usize,
    },
    /// Replay the memo, falling back to the long way on a mismatch.
    Replay(&'a TranslationMemo),
}

/// Order-independent summary of a schedule, used to compare schedules built
/// by different analyses (compile-time vs inspector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSignature {
    /// Processor the schedule belongs to.
    pub rank: usize,
    /// Received ranges grouped by sender.
    pub recv_by_proc: Vec<(usize, Vec<IndexRange>)>,
    /// Sent ranges grouped by receiver.
    pub send_by_proc: Vec<(usize, Vec<IndexRange>)>,
    /// Iterations with only local references.
    pub local_iters: Vec<usize>,
    /// Iterations with at least one nonlocal reference.
    pub nonlocal_iters: Vec<usize>,
}

fn count_distinct<I: Iterator<Item = usize>>(iter: I) -> usize {
    let mut v: Vec<usize> = iter.collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

fn group_by_proc<F: Fn(&RangeRecord) -> usize>(
    records: &[RangeRecord],
    key: F,
) -> Vec<(usize, &[RangeRecord])> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < records.len() {
        let p = key(&records[start]);
        let mut end = start + 1;
        while end < records.len() && key(&records[end]) == p {
            end += 1;
        }
        out.push((p, &records[start..end]));
        start = end;
    }
    out
}

/// Whether the owned `runs` (ascending, disjoint) hold every index of the
/// non-empty range `low..high`.
fn runs_cover(runs: &[LocalRun], low: usize, high: usize) -> bool {
    let mut covered = low;
    for run in &runs[runs.partition_point(|r| r.high <= low)..] {
        if covered >= high || run.low > covered {
            break;
        }
        covered = run.high;
    }
    covered >= high
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> CommSchedule {
        // Rank 1 of 4 receives [10,13) from proc 0 and [20,22)+[30,31) from proc 2.
        let recv_sets = vec![
            IndexSet::from_range(10, 13),
            IndexSet::new(),
            IndexSet::from_ranges([IndexRange::new(20, 22), IndexRange::new(30, 31)]),
            IndexSet::new(),
        ];
        let mut s = CommSchedule::from_recv_sets(1, &recv_sets, vec![5, 6], vec![7, 8, 9]);
        s.set_send_records(
            4,
            vec![
                RangeRecord {
                    from_proc: 1,
                    to_proc: 2,
                    low: 15,
                    high: 17,
                    buffer: 0,
                },
                RangeRecord {
                    from_proc: 1,
                    to_proc: 0,
                    low: 14,
                    high: 15,
                    buffer: 3,
                },
            ],
        );
        s
    }

    #[test]
    fn buffer_offsets_are_contiguous_in_record_order() {
        let s = sample_schedule();
        assert_eq!(s.recv_len, 6);
        assert_eq!(s.recv_records[0].buffer, 0);
        assert_eq!(s.recv_records[1].buffer, 3);
        assert_eq!(s.recv_records[2].buffer, 5);
        assert_eq!(s.range_count(), 3);
    }

    #[test]
    fn find_locates_received_elements() {
        let s = sample_schedule();
        assert_eq!(s.find(10), Some(0));
        assert_eq!(s.find(12), Some(2));
        assert_eq!(s.find(20), Some(3));
        assert_eq!(s.find(21), Some(4));
        assert_eq!(s.find(30), Some(5));
        // Elements never received.
        assert_eq!(s.find(13), None);
        assert_eq!(s.find(9), None);
        assert_eq!(s.find(25), None);
        assert_eq!(s.find(31), None);
    }

    #[test]
    fn find_record_returns_the_covering_window() {
        let s = sample_schedule();
        assert_eq!(s.find_record(10), Some((10, 13, 0)));
        assert_eq!(s.find_record(12), Some((10, 13, 0)));
        assert_eq!(s.find_record(21), Some((20, 22, 3)));
        assert_eq!(s.find_record(30), Some((30, 31, 5)));
        assert_eq!(s.find_record(13), None);
        assert_eq!(s.find_record(9), None);
        assert_eq!(s.find_record(31), None);
        // `find` is exactly `find_record` plus offset arithmetic, so a
        // cached window can never disagree with a fresh search.
        for g in 0..40 {
            assert_eq!(
                s.find(g),
                s.find_record(g).map(|(low, _, buffer)| buffer + (g - low))
            );
        }
    }

    #[test]
    fn messages_group_by_partner() {
        let s = sample_schedule();
        let recv = s.recv_messages();
        assert_eq!(recv.len(), 2);
        assert_eq!(recv[0].0, 0);
        assert_eq!(recv[0].1.len(), 1);
        assert_eq!(recv[1].0, 2);
        assert_eq!(recv[1].1.len(), 2);
        assert_eq!(s.recv_partner_count(), 2);

        let send = s.send_messages();
        assert_eq!(send.len(), 2);
        // Sorted by destination processor.
        assert_eq!(send[0].0, 0);
        assert_eq!(send[1].0, 2);
        assert_eq!(s.send_partner_count(), 2);
        assert_eq!(s.send_len(), 3);
    }

    #[test]
    fn index_sets_round_trip() {
        let s = sample_schedule();
        let recv = s.recv_index_set();
        assert_eq!(recv.len(), 6);
        assert!(recv.contains(11));
        assert!(recv.contains(30));
        assert!(!recv.contains(14));
        let send = s.send_index_set();
        assert_eq!(send.len(), 3);
        assert!(send.contains(16));
    }

    #[test]
    fn empty_schedule_is_well_formed() {
        let sets = vec![IndexSet::new(), IndexSet::new(), IndexSet::new()];
        let s = CommSchedule::from_recv_sets(0, &sets, vec![0, 1, 2], vec![]);
        assert_eq!(s.recv_len, 0);
        assert_eq!(s.range_count(), 0);
        assert_eq!(s.find(0), None);
        assert!(s.recv_messages().is_empty());
        assert_eq!(s.local_iters, vec![0, 1, 2]);
    }

    #[test]
    fn empty_ranges_never_become_records() {
        // An empty `(g, g)` record sorting after a covering `(lo, hi)` range
        // would make `find`'s "last range with low <= g" probe land on it
        // and miss the covering one.  `IndexSet` drops empty ranges, so
        // none reaches the records.
        let recv_sets = vec![
            IndexSet::new(),
            IndexSet::from_ranges([IndexRange::new(5, 9), IndexRange::new(7, 7)]),
        ];
        let s = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![]);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.recv_len, 4);
        for g in 5..9 {
            assert_eq!(
                s.find(g),
                Some(g - 5),
                "index {g} must resolve through the covering range"
            );
        }
        assert_eq!(s.find(9), None);
        assert_eq!(s.find(4), None);
    }

    #[test]
    fn runs_cover_only_ranges_inside_the_owned_runs() {
        let run = |low, high, local_base| LocalRun {
            low,
            high,
            local_base,
        };
        let runs = [run(0, 4, 0), run(8, 12, 4)];
        for (low, high) in [(0, 4), (1, 3), (8, 12), (11, 12)] {
            assert!(runs_cover(&runs, low, high), "[{low},{high})");
        }
        for (low, high) in [(3, 5), (4, 8), (10, 13), (12, 13), (0, 12)] {
            assert!(!runs_cover(&runs, low, high), "[{low},{high})");
        }
    }

    #[test]
    fn set_send_records_rejects_malformed_peer_records() {
        // What rank 1 of 4 could be handed by a buggy or corrupt peer, each
        // next to a well-formed record for peer 3.
        let record = |from_proc, to_proc, low, high| RangeRecord {
            from_proc,
            to_proc,
            low,
            high,
            buffer: 0,
        };
        let good = record(1, 3, 40, 42);
        let malformed = [
            ("another origin", vec![record(0, 2, 14, 16)]),
            ("addressed to this rank", vec![record(1, 1, 14, 16)]),
            ("past the last rank", vec![record(1, 4, 14, 16)]),
            ("empty", vec![record(1, 2, 14, 14)]),
            (
                "overlapping",
                vec![record(1, 2, 15, 17), record(1, 2, 14, 16)],
            ),
        ];
        for (what, mut records) in malformed {
            records.push(good);
            let peer = records[0].to_proc;
            let message = std::panic::catch_unwind(move || {
                CommSchedule::from_recv_sets(1, &[], vec![], vec![]).set_send_records(4, records)
            })
            .expect_err(what);
            let message = message
                .downcast_ref::<String>()
                .expect("the panic message is formatted");
            assert!(
                message.starts_with("rank 1: ") && message.contains(&format!("peer {peer}")),
                "{what}: {message}"
            );
        }
    }

    #[test]
    fn from_recv_sets_rejects_unsorted_and_overlapping_iteration_lists() {
        let malformed = [
            (
                "unsorted local",
                vec![5, 4],
                vec![],
                "local iteration 4 follows 5",
            ),
            (
                "repeated nonlocal",
                vec![],
                vec![7, 7],
                "nonlocal iteration 7 follows 7",
            ),
            (
                "on both lists",
                vec![2, 6],
                vec![4, 6],
                "iteration 6 is on both",
            ),
            (
                "on both lists, deep in the longer one",
                (0..100).step_by(2).collect(),
                vec![1, 3, 64],
                "iteration 64 is on both",
            ),
        ];
        for (what, local, nonlocal, expected) in malformed {
            let message =
                std::panic::catch_unwind(|| CommSchedule::from_recv_sets(3, &[], local, nonlocal))
                    .expect_err(what);
            let message = message
                .downcast_ref::<String>()
                .expect("the panic message is formatted");
            assert!(
                message.starts_with("rank 3: ") && message.contains(expected),
                "{what}: {message}"
            );
        }
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let empty = CommSchedule::from_recv_sets(0, &[], vec![], vec![]);
        let full = sample_schedule();
        assert!(empty.approx_bytes() >= std::mem::size_of::<CommSchedule>());
        assert!(full.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "never receives its own")]
    fn self_receive_is_rejected() {
        let sets = vec![IndexSet::from_range(0, 1), IndexSet::new()];
        let _ = CommSchedule::from_recv_sets(0, &sets, vec![], vec![]);
    }

    #[test]
    fn signatures_ignore_buffer_layout() {
        let a = sample_schedule();
        let mut b = sample_schedule();
        // Perturb buffer offsets; the signature must not change.
        for r in &mut b.recv_records {
            r.buffer += 100;
        }
        assert_eq!(a.signature(), b.signature());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn find_agrees_with_recv_index_set(
                ranges in proptest::collection::vec((0usize..500, 1usize..20), 0..12)
            ) {
                // Build disjoint sets per "source" processor.
                let nprocs = 5usize;
                let rank = 0usize;
                let mut sets = vec![IndexSet::new(); nprocs];
                let mut claimed = IndexSet::new();
                for (k, (start, len)) in ranges.iter().enumerate() {
                    let q = 1 + (k % (nprocs - 1));
                    let r = IndexRange::new(*start, start + len);
                    let fresh = IndexSet::from_ranges([r]).difference(&claimed);
                    claimed = claimed.union(&fresh);
                    sets[q] = sets[q].union(&fresh);
                }
                let s = CommSchedule::from_recv_sets(rank, &sets, vec![], vec![]);
                let set = s.recv_index_set();
                prop_assert_eq!(set.len(), s.recv_len);
                for g in 0..600usize {
                    prop_assert_eq!(s.find(g).is_some(), set.contains(g), "index {}", g);
                }
                // All buffer positions are distinct and within bounds.
                let mut positions: Vec<usize> = set.iter().filter_map(|g| s.find(g)).collect();
                positions.sort_unstable();
                positions.dedup();
                prop_assert_eq!(positions.len(), s.recv_len);
                prop_assert!(positions.iter().all(|&p| p < s.recv_len));
            }
        }
    }
}

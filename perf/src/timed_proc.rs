//! `TimedProc`: the benchmark's view of the `kali-process` trait boundary.
//!
//! Every per-layer communication number of the traced run is taken from
//! outside the runtime: the backend handle is wrapped in a [`TimedProc`],
//! which records one span per communication call and forwards the call
//! unchanged.  *Every* trait method is forwarded to the inner handle —
//! including the provided ones a backend overrides (`acquire_send_buffer`,
//! `send_packed`, `recv_packed_append`, the reductions, the cost hooks) —
//! because a method left at the trait default would silently run the
//! default on the wrapper instead of the backend's own implementation, and
//! the traced run would measure a different program.
//!
//! Besides this file only `adapter.rs` touches the library crates.

use std::time::Instant;

use kali_process::{trace, Counters, Process, Tag, Wire};

/// One recorded interval on one rank.  `parent` indexes the enclosing span
/// in the same rank's list (`None` for a root such as `solve`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Advance of the backend's own clock over the span: simulated seconds
    /// on dmsim, 0 on the wall-clock backends.
    pub modeled_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Names of the communication spans, in reporting order.
pub const SEND: &str = "proc.send";
pub const RECV_WAIT: &str = "proc.recv_wait";
pub const ALLREDUCE: &str = "proc.allreduce";
pub const EXCHANGE: &str = "proc.exchange";
pub const ALLGATHER: &str = "proc.allgather";
pub const BARRIER: &str = "proc.barrier";
pub const PROC_SPANS: [&str; 6] = [SEND, RECV_WAIT, ALLREDUCE, EXCHANGE, ALLGATHER, BARRIER];

/// What one rank recorded: its spans plus the point-to-point traffic the
/// runtime issued through the trait (collectives' internal messages are
/// the backend's business and are not counted here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    pub spans: Vec<Span>,
    pub msgs: u64,
    pub bytes: u64,
}

impl RankTrace {
    /// Seconds covered by the direct children of span `parent`, optionally
    /// only those called `name`.  Children of one parent never overlap (a
    /// rank is one thread), so the sum is the covered time.
    pub fn child_seconds(&self, parent: usize, name: Option<&str>) -> f64 {
        self.children(parent, name).map(Span::seconds).sum()
    }

    /// Direct children of span `parent`, optionally only those called `name`.
    pub fn children<'a>(
        &'a self,
        parent: usize,
        name: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.parent == Some(parent) && name.is_none_or(|n| s.name == n))
    }
}

/// A `Process` that times every communication call of the wrapped handle.
pub struct TimedProc<'a, P: Process> {
    inner: &'a mut P,
    epoch: Instant,
    open: Option<usize>,
    trace: RankTrace,
}

impl<'a, P: Process> TimedProc<'a, P> {
    /// Wrap `inner`; span timestamps count from `epoch` (shared by every
    /// rank of a run so the written trace lines up).
    pub fn new(inner: &'a mut P, epoch: Instant) -> Self {
        TimedProc {
            inner,
            epoch,
            open: None,
            trace: RankTrace::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a benchmark-owned span (`solve`, `executor.sweep`, …); the
    /// communication calls made until [`TimedProc::close`] become its
    /// children.  One level deep: the benchmark never nests its own spans.
    pub fn open(&mut self, name: &'static str) -> usize {
        assert!(self.open.is_none(), "benchmark spans do not nest");
        let id = self.trace.spans.len();
        let start_ns = self.now_ns();
        self.trace.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            modeled_s: self.inner.time(),
            parent: None,
        });
        self.open = Some(id);
        id
    }

    /// Close the span opened as `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open, Some(id), "closing a span that is not open");
        let end_ns = self.now_ns();
        let modeled_now = self.inner.time();
        let span = &mut self.trace.spans[id];
        span.end_ns = end_ns;
        span.modeled_s = modeled_now - span.modeled_s;
        self.open = None;
    }

    /// The wrapped handle, for calls that must stay out of the record (the
    /// barrier that aligns the ranks before a timed region).
    pub fn inner(&mut self) -> &mut P {
        self.inner
    }

    /// What has been recorded so far.
    pub fn recorded(&self) -> &RankTrace {
        &self.trace
    }

    /// Stop wrapping and hand back what was recorded.
    pub fn finish(self) -> RankTrace {
        assert!(self.open.is_none(), "a benchmark span was left open");
        self.trace
    }

    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut P) -> R) -> R {
        let modeled_before = self.inner.time();
        let start_ns = self.now_ns();
        let result = call(self.inner);
        let end_ns = self.now_ns();
        self.trace.spans.push(Span {
            name,
            start_ns,
            end_ns,
            modeled_s: self.inner.time() - modeled_before,
            parent: self.open,
        });
        result
    }

    fn count_message(&mut self, bytes: usize) {
        self.trace.msgs += 1;
        self.trace.bytes += bytes as u64;
    }
}

impl<P: Process> Process for TimedProc<'_, P> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
        self.count_message(std::mem::size_of::<T>());
        self.timed(SEND, |p| p.send(dst, tag, value));
    }

    fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        self.count_message(values.len() * std::mem::size_of::<T>());
        self.timed(SEND, |p| p.send_vec(dst, tag, values));
    }

    fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        self.timed(RECV_WAIT, |p| p.recv(src, tag))
    }

    fn recv_vec<T: Wire>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        self.timed(RECV_WAIT, |p| p.recv_vec(src, tag))
    }

    fn acquire_send_buffer<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        self.inner.acquire_send_buffer(capacity)
    }

    fn send_packed<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        self.count_message(values.len() * std::mem::size_of::<T>());
        self.timed(SEND, |p| p.send_packed(dst, tag, values));
    }

    fn recv_packed_append<T: Copy + Wire>(
        &mut self,
        src: usize,
        tag: Tag,
        out: &mut Vec<T>,
    ) -> usize {
        self.timed(RECV_WAIT, |p| p.recv_packed_append(src, tag, out))
    }

    fn barrier(&mut self) {
        self.timed(BARRIER, |p| p.barrier());
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        self.timed(EXCHANGE, |p| p.exchange(items))
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.timed(ALLGATHER, |p| p.allgather(items))
    }

    fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        self.timed(ALLREDUCE, |p| p.allreduce_sum_f64(value))
    }

    fn allreduce<T, F>(&mut self, value: T, combine: F) -> T
    where
        T: Clone + Wire,
        F: Fn(&T, &T) -> T,
    {
        self.timed(ALLREDUCE, |p| p.allreduce(value, combine))
    }

    fn allgather_doubling<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        self.timed(ALLGATHER, |p| p.allgather_doubling(items))
    }

    fn charge_flops(&mut self, n: usize) {
        self.inner.charge_flops(n);
    }

    fn charge_mem_refs(&mut self, n: usize) {
        self.inner.charge_mem_refs(n);
    }

    fn charge_loop_iters(&mut self, n: usize) {
        self.inner.charge_loop_iters(n);
    }

    fn charge_calls(&mut self, n: usize) {
        self.inner.charge_calls(n);
    }

    fn charge_local_access(&mut self) {
        self.inner.charge_local_access();
    }

    fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.inner.charge_nonlocal_access(ranges);
    }

    fn charge_local_accesses(&mut self, n: usize) {
        self.inner.charge_local_accesses(n);
    }

    fn charge_nonlocal_accesses(&mut self, ranges: usize, n: usize) {
        self.inner.charge_nonlocal_accesses(ranges, n);
    }

    fn charge_locality_check(&mut self) {
        self.inner.charge_locality_check();
    }

    fn charge_record_handling(&mut self, n: usize) {
        self.inner.charge_record_handling(n);
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn trace_start(&mut self) {
        self.inner.trace_start();
    }

    fn trace_take(&mut self) -> Vec<trace::Event> {
        self.inner.trace_take()
    }

    fn trace_active(&self) -> bool {
        self.inner.trace_active()
    }

    fn trace_emit(&mut self, kind: trace::EventKind) {
        self.inner.trace_emit(kind);
    }
}

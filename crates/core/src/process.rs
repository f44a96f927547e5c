//! The machine-backend abstraction the runtime is written against.
//!
//! Every runtime component of this crate (inspector, executor, `forall`,
//! redistribution, distributed arrays) is generic over [`Process`]: an SPMD
//! process handle providing ranks, typed point-to-point messages matched on
//! `(source, tag)`, the collective shapes of §3.3 (barrier, personalised
//! all-to-all, allgather, sum-allreduce), and optional cost-charging hooks.
//!
//! Three backends implement the trait:
//!
//! * **`dmsim::Proc`** — the deterministic machine simulator: the
//!   in-process transport `kali_process::inproc::Proc` timed by a modeled
//!   clock.  Its cost hooks advance that clock, priced by the NCUBE/7 /
//!   iPSC/2 cost models, reproducing the paper's measurements; its
//!   all-to-all is the paper's crystal router.
//! * **`kali_native::NativeProc`** — the same transport over a clock that
//!   keeps no time: real OS threads and channels, for wall-clock
//!   execution.  Its cost hooks do nothing.
//! * **`kali_mp::MpProc`** — one OS process (or thread) per rank, every
//!   message an encoded frame over a Unix-domain socket.
//!
//! The trait (and the [`tags`] module partitioning the tag space between
//! the runtime components) lives in the dependency-free `kali-process`
//! crate so backends can implement it without pulling in the analysis
//! layer; this module re-exports it as the crate's official path.

pub use kali_process::{
    combine_partials, tags, trace, tree_allreduce_messages, tree_allreduce_sends, tree_children,
    tree_combine_partials, Counters, Event, EventKind, Max, Min, Norm2, Process, Reduce, ReduceOp,
    Sum, Tag, TraceRecorder,
};

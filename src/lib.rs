//! # kali-repro — umbrella crate
//!
//! This crate re-exports the workspace members so that the repository-level
//! examples (`examples/`) and integration tests (`tests/`) can use a single
//! dependency.  The actual functionality lives in:
//!
//! * [`process`] (`kali-process`) — the machine-backend contract: the
//!   [`Process`](process::Process) trait every backend implements, and the
//!   centralised tag-space layout ([`process::tags`]).
//! * [`dmsim`] — the **simulator** backend: deterministic logical clocks
//!   and cost models for the paper's NCUBE/7 and iPSC/2, used to reproduce
//!   the published tables.
//! * [`native`] (`kali-native`) — the **native** backend: one OS thread per
//!   process with channel messaging, no cost accounting, wall-clock speed.
//! * [`mp`] (`kali-mp`) — the **multi-process** backend: one OS process per
//!   rank over Unix-domain sockets, every message a length-prefixed frame
//!   carrying a [`process::Wire`] encoding — the backend with no shared
//!   memory to smuggle anything through.
//! * [`distrib`] — processor grids, index sets and data distributions
//!   (block, cyclic, block-cyclic, replicated, user-defined).
//! * [`kali`] (`kali-core`) — the paper's contribution: a global name space
//!   over distributed arrays, `forall` loops, compile-time and run-time
//!   (inspector/executor) communication analysis, and schedule caching —
//!   all generic over the `Process` backend.
//! * [`meshes`] — regular and unstructured mesh workloads.
//! * [`solvers`] — Jacobi relaxation and friends written against the Kali
//!   API with their sequential replays, the `Program` registry over them,
//!   and the experiment driver that regenerates the paper's tables.
//! * [`baseline`] — the hand-coded message-passing comparator.
//!
//! The same solver runs on either backend because it only ever talks to
//! `Process`; the `backend_equivalence` integration test pins the two
//! backends to bit-identical numerical results.

#![forbid(unsafe_code)]

pub use baseline;
pub use distrib;
pub use dmsim;
pub use kali_core as kali;
pub use kali_mp as mp;
pub use kali_native as native;
pub use kali_process as process;
pub use meshes;
pub use solvers;

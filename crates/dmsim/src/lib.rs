//! # dmsim — a distributed-memory machine simulator
//!
//! This crate provides the *machine substrate* for the Kali reproduction
//! (Koelbel, Mehrotra, Van Rosendale, PPoPP 1990).  The paper ran on two
//! hypercube multicomputers — the NCUBE/7 and the Intel iPSC/2 — which no
//! longer exist.  `dmsim` replaces them with a deterministic simulation:
//!
//! * **SPMD execution.**  A [`Machine`] runs one OS thread per *virtual
//!   processor*.  Each virtual processor owns a [`Proc`] handle through which
//!   it sends, receives, and takes part in collective operations (barriers,
//!   reductions, and the crystal-router all-to-all used by the paper's
//!   inspector).  The handle is the native backend's in-process transport
//!   ([`kali_process::inproc`]) timed by a [`SimClock`]: the two backends
//!   move messages the same way, and only the simulator keeps time.
//! * **Logical clocks.**  Every processor carries a logical clock measured in
//!   *simulated seconds*.  Computation advances the clock through the
//!   [`CostModel`] (per-flop, per-memory-reference, per-loop-iteration and
//!   per-procedure-call charges); messages advance it through the usual
//!   `latency + bytes × per-byte` model plus per-hop routing charges on the
//!   chosen [`Topology`].  Every receive names its source, and merges the
//!   sender's timestamp, so the final clocks are a deterministic function of
//!   the program and the cost model, independent of host scheduling.
//! * **Machine presets.**  [`CostModel::ncube7`] and [`CostModel::ipsc2`]
//!   are calibrated so the experiments in the paper land in the same range
//!   and — more importantly — have the same *shape* (scaling curves,
//!   overhead ratios, crossover points).  [`CostModel::ideal`] charges no
//!   communication costs and is useful in tests.
//!
//! The crate is deliberately independent of the Kali analysis layer: it
//! only knows about processors, messages and time.  Everything specific to
//! global name spaces, distributions and inspector/executor analysis lives
//! in the `distrib` and `kali-core` crates.  The one contract shared with
//! that layer is the backend-neutral [`Process`] trait (from
//! `kali-process`), which [`Proc`] implements, so the runtime runs SPMD
//! programs on this simulator or on the native threaded backend
//! interchangeably — with the cost accounting kept here.
//!
//! ## Example
//!
//! ```
//! use dmsim::{CostModel, Machine, Process};
//!
//! // Four virtual processors on an ideal machine: a ring shift.
//! let machine = Machine::new(4, CostModel::ideal());
//! let results = machine.run(|proc| {
//!     let right = (proc.rank() + 1) % proc.nprocs();
//!     let left = (proc.rank() + proc.nprocs() - 1) % proc.nprocs();
//!     proc.send(right, 7, proc.rank() as u64);
//!     let v: u64 = proc.recv(left, 7);
//!     v
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod collectives;
pub mod cost;
pub mod engine;
pub mod stats;
pub mod topology;

pub use clock::PhaseTimer;
pub use cost::CostModel;
pub use engine::{Machine, Proc, SimClock};
pub use stats::{Counters, RunStats};
pub use topology::Topology;

/// The backend contract [`Proc`] implements (re-exported from
/// `kali-process` for convenience).
pub use kali_process::Process;

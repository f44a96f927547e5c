//! # kali-core — a global name space for distributed-memory machines
//!
//! This crate is the primary contribution of the reproduced paper
//! (Koelbel, Mehrotra, Van Rosendale, *Supporting Shared Data Structures on
//! Distributed Memory Architectures*, PPoPP 1990): a run-time system that
//! lets data-parallel loops be written against a **global name space** while
//! executing as SPMD message-passing code on a distributed-memory machine.
//!
//! The paper's Kali compiler translated `forall` loops into the structure
//! below; here the same structure is provided as a library API ("the output
//! of the compiler").  The whole runtime is generic over the [`process`]
//! abstraction — a [`Process`] is one SPMD process with
//! typed sends/receives and a few collectives — so the same program runs
//! unchanged on the `dmsim` machine simulator (with the paper's cost
//! accounting) or on the `kali-native` threaded backend (at wall-clock
//! speed):
//!
//! * [`schedule::CommSchedule`] — the `in(p,q)` / `out(p,q)` sets of §3.1,
//!   stored exactly as the paper stores them: sorted, coalesced range
//!   records with `O(log r)` binary-search access (§3.3, Figure 5).
//! * [`analysis`] — **compile-time** communication analysis: closed-form
//!   schedules for affine subscripts (`A[i±c]`) under any distribution,
//!   requiring no run-time set computation at all (§3.2).  One entry point,
//!   [`IterSpace::analyze`], answered by each iteration space for its own
//!   shape: 1-D ranges and strided classes through one evaluator of the
//!   §3.2 formulas, rectangular N-D boxes with per-dimension distributions
//!   through [`analysis::multi`], where every set factorises into
//!   per-dimension interval sets.
//! * [`inspector`] — **run-time** analysis: the inspector loop that records
//!   nonlocal references, splits iterations into local and nonlocal lists,
//!   and converts receive lists into send lists with a crystal-router global
//!   exchange (§3.3, Figure 6).
//! * [`executor`] — the executor: send boundary data, run local iterations
//!   (overlapping communication), receive, run nonlocal iterations, with
//!   received elements found by binary search over the range records.
//! * [`cache`] — schedule caching between repeated executions of the same
//!   `forall`, the amortisation that makes the inspector affordable (§3.2).
//!   The cache is bounded (LRU) and self-invalidating: version bumps evict
//!   stale generations, redistribution reclaims retired placements by
//!   fingerprint, and residency stays capped under adaptive-mesh churn.
//! * [`forall`] — the description of one `forall`: [`ParallelLoop`], a loop
//!   id, an on-clause distribution and an iteration [`space`] ([`Span`] 1-D
//!   ranges, [`Stripe`] strided colour classes, [`Rect`] rectangular 2-D/3-D
//!   boxes over `dist by [block, *]`-style [`distrib::ArrayDist`]
//!   decompositions, linearised row-major through [`distrib::FlatDist`]).
//! * [`session`] — the front end that runs it: the per-rank [`Session`]
//!   plans a described loop ([`Session::plan`], [`Session::plan_indirect`]),
//!   executes it ([`Session::execute`]) and reduces it — reductions are
//!   first-class loop outputs ([`Session::execute_reduce`]): the body's
//!   per-iteration contributions fold under a typed [`ReduceOp`] in a
//!   fixed, backend-independent order — while owning the state every
//!   program needs: the schedule cache, loop-id / sweep-tag / epoch
//!   allocation, data-version tracking and reduction metering.
//! * [`mod@redistribute`] — an extension: move a live distributed array from one
//!   distribution to another with a closed-form schedule, supporting the
//!   paper's "just change the dist clause" workflow across program phases.
//! * [`ownermap`] — distributed owner maps for irregular distributions:
//!   translation tables that are themselves block-distributed over the
//!   machine, assembled with one allgather into a
//!   [`distrib::IrregularDist`] (the run-time equivalent of
//!   the paper's compile-time `owner` functions).
//! * [`process`] — the backend contract: what the above needs from a
//!   machine.  Message tags used by the components are partitioned in
//!   [`process::tags`] so the ranges can never collide.
//! * [`verify`] — plan-time static verification: given the
//!   SPMD-deterministic per-rank plans, prove schedule duality (and with it
//!   a sweep's deadlock freedom) *before* anything executes, plus a live
//!   check of the allreduce every backend ships, reporting defects as
//!   structured [`verify::Violation`]s.
//! * [`mc`] — the trace-level check of a *recorded* execution (the
//!   backends' `trace_*` hooks): every message sent was received
//!   ([`mc::check_trace`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod executor;
pub mod forall;
pub mod inspector;
pub mod mc;
pub mod ownermap;
pub mod pool;
pub mod process;
pub mod redistribute;
pub mod schedule;
pub mod session;
pub mod space;
pub mod verify;

pub use analysis::affine::AffineMap;
pub use analysis::multi::MultiAffineMap;
pub use cache::{CacheStats, LoopKey, ScheduleCache};
pub use executor::{execute_sweep, ChunkCosts, ExecutorConfig, Fetcher};
pub use forall::ParallelLoop;
pub use inspector::{owner_computes_range, run_inspector};
pub use mc::check_trace;
pub use ownermap::DistOwnerMap;
pub use process::{Max, Min, Norm2, Process, Reduce, ReduceOp, Sum};
pub use redistribute::{redistribute_epoch, redistribution_schedule};
pub use schedule::{CommSchedule, RangeRecord};
pub use session::{Session, SessionStats};
pub use space::{IterSpace, Rect, Span, Stripe};
pub use verify::{check_schedule, check_schedule_set, Violation};

//! # solvers — applications written against the Kali global name space
//!
//! The paper's running example (Figure 4) is a nearest-neighbour Jacobi
//! relaxation over a mesh held in adjacency-list form.  This crate holds that
//! program and three more, each with its bit-identical sequential replay:
//!
//! * [`jacobi`] — Figure 4 as the paper's compiler would have generated it
//!   (a local copy `forall`, an inspector-planned relaxation with cached
//!   schedules, per-phase simulated timing), on a static mesh or on one that
//!   adapts every *k* sweeps; [`adaptive`] holds the churn's replay, the
//!   placement such a run ends on, and the scatter/gather helpers.
//! * [`cg`] — conjugate gradient on the mesh's shifted graph Laplacian:
//!   three `forall`s and two dot-product reductions per iteration, static or
//!   under churn.
//! * [`redblack`] — red–black Gauss–Seidel: two stripe-spaced `forall`s
//!   sharing one session cache, change norms fused into the half-sweeps.
//! * [`multidim`] — the 2-D phase-change demo: a field moved between
//!   `[block, *]` and `[*, block]` between sweep phases, every stencil
//!   planned by the multi-dimensional compile-time analysis.
//! * [`program`] — the registry: each solver above as one [`Program`] that
//!   runs on any backend, replays sequentially and gathers its result; every
//!   "same bits on every backend and in the replay" check iterates it.
//! * [`partitioned`] — the connectivity-partitioned distribution: the mesh
//!   partitioner's owner map, assembled collectively into a
//!   `distrib::IrregularDist`.
//! * [`reduce_replay`] — sequential replays of the typed reduction
//!   pipeline's fold structure under any placement.
//! * [`experiment`] and [`report`] — the measurement driver of Figures 7–10
//!   (total / executor / inspector time, overhead, speedup) and the row
//!   types the table binaries print.
//!
//! Every solver runs against a `kali_core::Session`, which owns the schedule
//! cache, allocates loop ids and sweep tags, tracks data versions and
//! redistribution epochs, and meters inspector time and typed reductions.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cg;
pub mod experiment;
pub mod jacobi;
pub mod multidim;
pub mod partitioned;
pub mod program;
pub mod redblack;
pub mod reduce_replay;
pub mod report;

pub use adaptive::{adaptive_jacobi_sequential, final_placement, gather_global};
pub use cg::{cg_sequential, cg_solve, CgConfig, CgOutcome};
pub use experiment::{
    run_jacobi_experiment, run_jacobi_experiment_placed, sequential_executor_time,
    ExperimentParams, Placement,
};
pub use jacobi::{jacobi_sequential, jacobi_sweeps, JacobiConfig, JacobiOutcome};
// The benchmark package still calls the adaptive run by its old names;
// removed together with its call sites when that package is next edited.
#[doc(hidden)]
pub use jacobi::{jacobi_sweeps as adaptive_jacobi_sweeps, JacobiConfig as AdaptiveConfig};
// The benchmark package still gathers the 2-D field by its old name;
// removed together with that call site when the package is next edited.
#[doc(hidden)]
pub use adaptive::gather_global as gather_multidim;
pub use multidim::{
    col_placement, multidim_field, multidim_sequential, multidim_sweeps, phase_comm_reports,
    row_placement, MultiDimConfig, MultiDimOutcome, PhaseStats, PhaseStrategy,
};
pub use partitioned::partitioned_dist;
pub use program::{Case, Program, Run};
pub use redblack::{redblack_sequential, redblack_sweeps, RedBlackConfig, RedBlackOutcome};
pub use reduce_replay::{replay_reduce, replay_reduce_filtered, replay_sum};
pub use report::{CommReport, ExperimentRow, PhaseBreakdown};

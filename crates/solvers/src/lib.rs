//! # solvers — applications written against the Kali global name space
//!
//! The paper's running example (Figure 4) is a nearest-neighbour Jacobi
//! relaxation over a mesh held in adjacency-list form.  This crate contains:
//!
//! * [`jacobi`] — that program, written against the `kali-core` API exactly
//!   as the paper's compiler would have generated it: a fully local copy
//!   `forall`, an inspector-planned relaxation `forall` with cached
//!   schedules, and per-phase simulated timing.  The same program runs on
//!   a mesh that is refined/coarsened every *k* sweeps, optionally
//!   rebalancing the placement — the workload that stresses §3.2's
//!   amortisation claim; [`adaptive`] holds that churn's sequential replay,
//!   the placement such a run ends on, and the scatter/gather helpers.
//! * [`experiment`] — the measurement driver that reproduces the paper's
//!   evaluation: it builds a machine (NCUBE/7 or iPSC/2 cost model), builds
//!   the mesh, runs the Kali Jacobi program SPMD, and reduces per-processor
//!   clocks into the rows of Figures 7–10 (total / executor / inspector
//!   time, inspector overhead, speedup).
//! * [`report`] — the row/report types shared by the experiment driver, the
//!   table binaries and the integration tests.
//! * [`partitioned`] — the connectivity-partitioned distribution for mesh
//!   problems: the greedy mesh partitioner's owner map, assembled
//!   collectively into a `distrib::IrregularDist` and handed to the solvers
//!   like any other distribution.
//! * [`multidim`] — the 2-D phase-change demo: alternating-direction
//!   smoothing over a `rows × cols` field that is redistributed from
//!   `[block, *]` to `[*, block]` between sweep phases (the paper's
//!   motivating row↔column redistribution scenario), with per-phase
//!   communication reports and stencil schedules planned entirely by the
//!   multi-dimensional compile-time analysis.
//! * [`cg`] — conjugate gradient on the mesh's shifted graph Laplacian:
//!   three interleaved `forall`s and two dot-product reductions per
//!   iteration, all through one `Session`, with a bit-identical sequential
//!   replay of the residual history (and a CG-under-churn mode on the same
//!   churn schedule).
//! * [`redblack`] — red–black Gauss–Seidel: two stripe-spaced `forall`s
//!   with distinct loop ids sharing one session cache, change-norm
//!   reductions fused into the half-sweeps.
//! * [`reduce_replay`] — sequential replay helpers reproducing the typed
//!   reduction pipeline's deterministic fold structure for any placement.
//!
//! Every solver runs against a `kali_core::Session`: the session owns the
//! schedule cache, allocates loop ids and sweep tags, tracks data versions
//! and redistribution epochs, accumulates inspector time, and meters the
//! typed reductions (`execute_reduce`) that replace the old out-of-band
//! `allreduce_sum_f64` calls.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cg;
pub mod experiment;
pub mod jacobi;
pub mod multidim;
pub mod partitioned;
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
pub use multidim::{
    col_placement, gather_multidim, multidim_field, multidim_sequential, multidim_sweeps,
    phase_comm_reports, row_placement, MultiDimConfig, MultiDimOutcome, PhaseStats, PhaseStrategy,
};
pub use partitioned::{partition_owner_map, partitioned_dist};
pub use redblack::{redblack_sequential, redblack_sweeps, RedBlackConfig, RedBlackOutcome};
pub use reduce_replay::{replay_reduce, replay_reduce_filtered, replay_sum};
pub use report::{CommReport, ExperimentRow, PhaseBreakdown};

//! # meshes — workload generators for the Kali reproduction
//!
//! The paper's evaluation (§4) runs a Jacobi relaxation over a mesh stored in
//! *adjacency-list form*: arrays `adj[1..n, 1..4]` and `coef[1..n, 1..4]`
//! hold, for every node, the indices of its neighbours and the corresponding
//! coefficients, with `count[1..n]` giving the number of neighbours.  The
//! authors' measurements use simple rectangular grids with the standard
//! five-point Laplacian, but the program is written for general unstructured
//! meshes (average degree ≈ 6 in 2-D), so this crate provides both:
//!
//! * [`grid::RegularGrid`] — an `nx × ny` grid with 4-neighbour (five-point
//!   stencil) connectivity, exactly the test problem of Figures 7–10;
//! * [`unstructured`] — synthetic irregular meshes with an average degree of
//!   about six and optional node renumbering, exercising the data-dependent
//!   communication patterns that force run-time (inspector) analysis;
//! * [`csr::AdjacencyMesh`] — the common adjacency + coefficient container
//!   both generators produce, in exactly the shape the paper's program uses;
//! * [`adapt`] — deterministic, seeded refine/coarsen perturbations of the
//!   connectivity (node count invariant), the adaptive-mesh workload that
//!   stresses the schedule cache's amortisation claim: every adaptation
//!   changes `adj`, forcing a data-version bump and a re-inspection.

#![forbid(unsafe_code)]

pub mod adapt;
pub mod csr;
pub mod grid;
pub mod partition;
pub mod unstructured;

pub use adapt::{
    adapt_step, adaptation_count, adapts_before, coarsen, evolve, refine, AdaptConfig,
};
pub use csr::AdjacencyMesh;
pub use grid::RegularGrid;
pub use partition::{block_partition, cut_edges, greedy_partition, strip_partition_rows};
pub use unstructured::UnstructuredMeshBuilder;

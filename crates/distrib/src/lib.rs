//! # distrib — processor arrays and data distributions
//!
//! This crate implements the *data mapping* half of the Kali programming
//! model (Koelbel, Mehrotra, Van Rosendale, PPoPP 1990, §2):
//!
//! * **Processor arrays** ([`ProcGrid`]) — the `processors Procs:
//!   array[1..P]` declaration of the paper.  A grid can be one- or
//!   multi-dimensional; processor ranks are mapped to grid coordinates in
//!   row-major order.
//! * **Distribution patterns** (the [`Distribution`] trait and the
//!   [`DimDist`] handle) — `dist by [block]`, `[cyclic]`,
//!   `[block-cyclic(b)]`, replication, and user-defined distributions given
//!   by an explicit owner table ([`IrregularDist`]).  Mathematically a
//!   distribution is the paper's `local : Proc → 2^Arr` function; the trait
//!   provides `owner(i)`, `local_set(p)`, `local_index(i)` and
//!   `global_index(p, l)` views of it, all mutually consistent, plus a
//!   stable `fingerprint()` identifying the mapping for schedule caching.
//!   New patterns are added by implementing the trait — nothing in the
//!   analysis layer enumerates the built-ins.
//! * **Index sets** ([`IndexSet`]) — sets of disjoint, sorted index ranges
//!   with union / intersection / difference.  The paper's analysis is
//!   phrased entirely in terms of such sets (`exec(p)`, `ref(p)`,
//!   `in(p,q)`, `out(p,q)`); `kali-core` reuses this type for both the
//!   compile-time closed forms and the run-time inspector.
//! * **Multi-dimensional decompositions** ([`ArrayDist`]) — one pattern per
//!   array dimension, with `*` (non-distributed) dimensions, matching the
//!   `dist by [block, *]` declarations of Figure 1.  The row-major
//!   [`FlatDist`] view turns any such decomposition into an ordinary 1-D
//!   [`Distribution`], which is how multi-dimensional arrays flow through
//!   the inspector/executor machinery unchanged (ownership factorises over
//!   dimensions; owned sets are Cartesian products, built by
//!   [`multi::product_flat`]).
//!
//! The analysis layer in `kali-core` is written purely against these
//! interfaces, so new distribution patterns automatically work with the
//! run-time (inspector/executor) analysis, and work with the compile-time
//! analysis whenever closed forms exist.

#![forbid(unsafe_code)]

pub mod dist;
pub mod distribution;
pub mod grid;
pub mod index;
pub mod irregular;
pub mod multi;

pub use dist::DimDist;
pub use distribution::{
    combine_fingerprints, find_run, BlockCyclicDist, BlockDist, CyclicDist, Distribution, LocalRun,
    MIN_MEAN_RUN,
};
pub use grid::ProcGrid;
pub use index::{IndexRange, IndexSet};
pub use irregular::IrregularDist;
pub use multi::{flatten_index, product_flat, unflatten_index, ArrayDist, DimAssign, FlatDist};

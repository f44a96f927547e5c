//! Communication analysis (paper §3).
//!
//! The paper gives one framework with two instantiations:
//!
//! * **Compile-time analysis** (§3.2, and reference \[3\]) — when the
//!   subscript functions and distributions admit closed forms, the sets
//!   `exec(p)`, `ref(p)`, `in(p,q)` and `out(p,q)` can be computed
//!   symbolically and no run-time set computation is needed at all.
//!   [`IterSpace::analyze`](crate::IterSpace::analyze) does this for affine
//!   subscripts `g(i) = ±i + c` under any of the supported distributions.
//! * **Run-time analysis** (§3.3) — when the subscripts involve run-time
//!   data (`old_a[adj[i, j]]`), the sets are computed by the *inspector*
//!   (see [`crate::inspector`]) the first time the loop runs and cached for
//!   later executions.
//!
//! Both paths produce the same [`crate::schedule::CommSchedule`] type, and a
//! property test in the integration suite checks that they agree whenever
//! the compile-time path applies.
//!
//! The compile-time path has one entry point and three spaces behind it:
//! [`Span`](crate::Span) (1-D ranges) and [`Stripe`](crate::Stripe) (strided
//! 1-D congruence classes, red–black colourings) each hand their `exec(q)`
//! to one evaluator of the §3.2 formulas (`compile_time.rs`), and
//! [`Rect`](crate::Rect) hands its box to [`multi`], for rectangular N-D
//! iteration spaces over `dist by [block, *]`-style decompositions, where
//! every set factorises into per-dimension interval sets.

pub mod affine;
mod compile_time;
pub mod multi;

pub use affine::AffineMap;
pub(crate) use compile_time::closed_form;
pub use multi::{analyze_multi, MultiAffineMap};

//! # baseline — comparators for the Kali reproduction
//!
//! The paper's pitch (§1) is that Kali's compiler-generated message passing
//! is "in many cases virtually identical" to what a programmer would have
//! written by hand in a message-passing language, while being far easier to
//! write and to re-distribute.  To check that claim we need the thing being
//! compared against:
//!
//! * [`handcoded`] — a hand-written SPMD Jacobi relaxation with explicit
//!   halo exchange: the programmer has hard-wired the block distribution,
//!   pre-translated the adjacency lists to local indices, and laid out ghost
//!   cells contiguously, so there is no run-time locality checking and no
//!   search overhead.  This is the paper's "had the user programmed directly
//!   in a message-passing language" baseline.
//!
//! Its ground truth is the Kali program's own replay, `solvers::jacobi_sequential`.

#![forbid(unsafe_code)]

pub mod handcoded;

pub use handcoded::{handcoded_jacobi, HandcodedOutcome};

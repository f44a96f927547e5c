//! # kali-native — a native threaded backend for the Kali runtime
//!
//! Where `dmsim` *simulates* a distributed-memory machine (logical clocks,
//! calibrated cost models, deterministic timings), this crate *is* one, at
//! the scale of a single host: a [`NativeMachine`] runs one OS thread per
//! SPMD process, and a [`NativeProc`] exchanges messages over unbounded
//! channels.  A [`NativeProc`] is the in-process transport the simulator
//! runs on too ([`kali_process::inproc::Proc`]), over the `()` clock: there
//! is no clock and no cost charging — every
//! [`Process`](kali_process::Process) cost hook does nothing — so a Jacobi
//! sweep runs at whatever speed the hardware allows.
//!
//! ## Determinism
//!
//! Message *contents* and every collective result are deterministic:
//! receives match on `(source, tag)`, collectives merge contributions in
//! rank order, and the runtime layer above never depends on arrival order.
//! Running the same program on `dmsim` and on this backend therefore
//! produces identical (bit-for-bit) array contents; the repository-level
//! `backend_equivalence` test holds the two to that.
//!
//! ## Example
//!
//! ```
//! use kali_native::NativeMachine;
//! use kali_process::Process;
//!
//! let machine = NativeMachine::new(4);
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

pub mod engine;

pub use engine::{NativeMachine, NativeProc};

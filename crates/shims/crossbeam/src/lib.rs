//! In-tree stand-in for the `crossbeam` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the handful of external dependencies the code uses are provided as small
//! workspace-local shims with the same names and API subsets.  This one
//! covers `crossbeam::channel`, implemented over `std::sync::mpsc`: unbounded
//! FIFO channels with cloneable senders and blocking receives.
//!
//! No crate imports it any more: the simulator and the native backend get
//! their channels from `kali_process::threads`, over `std::sync::mpsc`
//! directly.  Their manifests still name it because dropping it changes the
//! dependency graph the benchmark package's `Cargo.lock` records; it goes
//! when that lock file is next regenerated.

#![forbid(unsafe_code)]

pub mod channel {
    use std::sync::mpsc;

    /// Error returned by [`Sender::send`] when the receiver has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when every sender has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Send a value; fails only when the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives; fails only when every sender was
        /// dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive (used by tests).
        pub fn try_recv(&self) -> Result<T, RecvError> {
            self.inner.try_recv().map_err(|_| RecvError)
        }
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1u32).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        }

        #[test]
        fn cloned_senders_feed_one_receiver() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(7u8).unwrap())
                .join()
                .unwrap();
            assert_eq!(rx.recv().unwrap(), 7);
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}

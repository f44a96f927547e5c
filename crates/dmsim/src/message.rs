//! Message envelopes exchanged between virtual processors.
//!
//! Payloads are type-erased (`Box<dyn Any + Send>`) so that a program can
//! exchange arbitrary `Send + 'static` values — range-record lists, slices of
//! floats, scalars — without the engine having to know about them.  The
//! *simulated* size of a message is tracked separately from its in-memory
//! representation so the cost model can charge realistic byte counts.  The
//! source, tag and sequence number travel outside the envelope, in the
//! [`Arrival`](kali_process::Arrival) the receiver's mailbox matches on.

use std::any::Any;

/// Message tag, used to match sends with receives (like MPI tags).
pub type Tag = u64;

/// What the cost model and the receiver need of a message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Simulated payload size in bytes (used by the cost model).
    pub bytes: usize,
    /// Simulated time at which the message is fully available at its
    /// destination.
    pub arrival: f64,
    /// The actual data.
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Downcast the payload that rank `rank` received from `src` on `tag`
    /// to `T`, consuming the envelope.
    ///
    /// Panics, naming the three, on a type mismatch: a mismatch is a
    /// programming error in the SPMD program (the equivalent of an MPI type
    /// error) and never recoverable.
    pub fn into_payload<T: 'static>(self, rank: usize, src: usize, tag: Tag) -> T {
        *self.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "dmsim rank {rank}: message payload type mismatch from rank {src} on tag \
                 {tag:#x}: expected {}",
                std::any::type_name::<T>()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(payload: Box<dyn Any + Send>) -> Envelope {
        Envelope {
            bytes: 24,
            arrival: 0.5,
            payload,
        }
    }

    #[test]
    fn downcast_roundtrip() {
        let v: Vec<f64> = envelope(Box::new(vec![1.0f64, 2.0, 3.0])).into_payload(2, 1, 7);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dmsim rank 1: message payload type mismatch from rank 0 on tag 0x7")]
    fn downcast_wrong_type_panics() {
        let _: Vec<f64> = envelope(Box::new(42u64)).into_payload(1, 0, 7);
    }
}

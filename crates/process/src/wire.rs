//! The wire codec: canonical byte encodings for message payloads.
//!
//! The in-process backends (`dmsim`, `kali-native`) move payloads as typed
//! values through channels — a `send` hands the receiver the very same
//! bits, so *any* `Send + 'static` type would do.  A multi-process backend
//! cannot: its messages cross an OS process boundary over a socket, so
//! every payload must have a defined **byte encoding**.  The [`Wire`] trait
//! is that contract, and the [`Process`](crate::Process) messaging methods
//! require it — which is exactly what flushes silent shared-memory
//! assumptions (an `Arc` smuggled through a message would compile against a
//! channel backend but has no wire form).
//!
//! ## Format
//!
//! Encodings are canonical, little-endian, and self-delimiting:
//!
//! | type                   | encoding                                        |
//! |------------------------|-------------------------------------------------|
//! | `u8`/`u16`/`u32`/`u64` | fixed-width little-endian                       |
//! | `i64`                  | two's complement little-endian                  |
//! | `usize`                | as `u64` (checked on decode)                    |
//! | `f64`                  | IEEE-754 bits, little-endian (`to_bits`)        |
//! | `bool`                 | one byte, `0` or `1`                            |
//! | `()`                   | zero bytes                                      |
//! | tuples                 | fields in order, no padding                     |
//! | `Vec<T>` / `String`    | `u64` element/byte count, then the elements     |
//!
//! `f64` round-trips **bitwise** (including NaN payloads and signed
//! zeros) — the determinism contract extends across the wire unchanged.
//!
//! Decoding is total: every failure is a structured [`WireError`] naming
//! what was being decoded and what was wrong, never a panic or a hang —
//! the multi-process backend turns these into frame errors naming the
//! offending rank and tag.

use crate::trace::{Event, EventKind};
use crate::Counters;

/// A decode failure: what was being decoded and why it could not be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// An enum discriminant or restricted value was out of range.
    BadDiscriminant {
        /// What was being decoded.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A decoded length or index does not fit the platform's `usize`.
    LengthOverflow {
        /// What was being decoded.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The buffer held more bytes than the value consumed (only reported
    /// by whole-buffer decodes, [`from_bytes`]).
    TrailingBytes {
        /// Bytes left over after the value was fully decoded.
        remaining: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// A collective-operation name was not one of the registered names
    /// ([`KNOWN_COLLECTIVE_OPS`]).
    UnknownCollectiveOp {
        /// The unregistered name.
        name: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated payload while decoding {context}: needed {needed} bytes, {available} available"
            ),
            WireError::BadDiscriminant { context, value } => {
                write!(f, "bad discriminant {value} while decoding {context}")
            }
            WireError::LengthOverflow { context, value } => {
                write!(f, "length {value} overflows usize while decoding {context}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after a complete value")
            }
            WireError::BadUtf8 { context } => {
                write!(f, "invalid UTF-8 while decoding {context}")
            }
            WireError::UnknownCollectiveOp { name } => {
                write!(f, "unregistered collective op name {name:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over an encoded buffer, consumed front to back by
/// [`Wire::decode`].
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes, or report a truncation naming `context`.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take(8) returned 8 bytes"),
        ))
    }

    /// Decode a `u64` length prefix and check it fits `usize`.
    fn len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow { context, value: v })
    }
}

/// A type with a canonical byte encoding, eligible to cross a process
/// boundary as a message payload.
///
/// Every [`Process`](crate::Process) messaging method requires its payload
/// to be `Wire`; the in-process backends never call `encode`/`decode` (they
/// move the typed value), while the multi-process backend encodes on send
/// and decodes on receive.  Implementations must round-trip exactly:
/// `decode(encode(v)) == v`, bit for bit for floating-point payloads.
pub trait Wire: Send + Sized + 'static {
    /// Append this value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `r`, consuming exactly the bytes
    /// `encode` produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encode one value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode one value from a buffer, requiring the buffer to be consumed
/// exactly (trailing bytes are an error — a frame carries one value).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

macro_rules! impl_wire_int {
    ($($t:ty => $name:literal),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let b = r.take(std::mem::size_of::<$t>(), $name)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_wire_int!(u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64", i64 => "i64");

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow {
            context: "usize",
            value: v,
        })
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = r.take(8, "f64")?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("take(8) returned 8 bytes"),
        )))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadDiscriminant {
                context: "bool",
                value: v as u64,
            }),
        }
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A, B);
impl_wire_tuple!(A, B, C);
impl_wire_tuple!(A, B, C, D);
impl_wire_tuple!(A, B, C, D, E);

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len("Vec length")?;
        // Cap the up-front reservation: a corrupted length prefix must fail
        // with a truncation error on the first missing element, not abort
        // the process by reserving petabytes.
        let mut v = Vec::with_capacity(n.min(r.remaining().max(1)).min(1 << 16));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len("String length")?;
        let bytes = r.take(n, "String bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { context: "String" })
    }
}

/// The collective-operation names a trace may carry across a process
/// boundary.  [`EventKind::Collective`] holds a `&'static str`, so decoding
/// resolves the transmitted name against this table; backends that invent
/// new op names must register them here before shipping traces between
/// processes.  The built-in reduction operators are listed too: a typed
/// reduction marks the trace with its operator's [`ReduceOp::name`].
///
/// [`ReduceOp::name`]: crate::ReduceOp::name
pub const KNOWN_COLLECTIVE_OPS: [&str; 14] = [
    "barrier",
    "exchange",
    "allgather",
    "allgather-doubling",
    "allreduce",
    "sum-f64",
    "sum-u64",
    "sum-i64",
    "sum-usize",
    "min-f64",
    "min-u64",
    "max-f64",
    "max-u64",
    "norm2",
];

impl Wire for EventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EventKind::Send { dst, tag } => {
                out.push(0);
                dst.encode(out);
                tag.encode(out);
            }
            EventKind::Recv { src, tag } => {
                out.push(1);
                src.encode(out);
                tag.encode(out);
            }
            EventKind::Collective { op } => {
                out.push(2);
                op.to_string().encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("EventKind discriminant")? {
            0 => Ok(EventKind::Send {
                dst: usize::decode(r)?,
                tag: u64::decode(r)?,
            }),
            1 => Ok(EventKind::Recv {
                src: usize::decode(r)?,
                tag: u64::decode(r)?,
            }),
            2 => {
                let name = String::decode(r)?;
                KNOWN_COLLECTIVE_OPS
                    .iter()
                    .find(|&&known| known == name)
                    .map(|&known| EventKind::Collective { op: known })
                    .ok_or(WireError::UnknownCollectiveOp { name })
            }
            v => Err(WireError::BadDiscriminant {
                context: "EventKind discriminant",
                value: v as u64,
            }),
        }
    }
}

impl Wire for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.seq.encode(out);
        self.kind.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Event {
            rank: usize::decode(r)?,
            seq: u64::decode(r)?,
            kind: EventKind::decode(r)?,
        })
    }
}

impl Wire for Counters {
    fn encode(&self, out: &mut Vec<u8>) {
        // Exhaustive destructuring: adding a counter field without updating
        // the encoding is a compile error, not silent data loss.
        let Counters {
            msgs_sent,
            msgs_recv,
            bytes_sent,
            bytes_recv,
            flops,
            mem_refs,
            loop_iters,
            calls,
            nonlocal_refs,
            queue_peak,
            wire_bytes,
        } = self;
        for field in [
            msgs_sent,
            msgs_recv,
            bytes_sent,
            bytes_recv,
            flops,
            mem_refs,
            loop_iters,
            calls,
            nonlocal_refs,
            queue_peak,
            wire_bytes,
        ] {
            field.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Counters {
            msgs_sent: u64::decode(r)?,
            msgs_recv: u64::decode(r)?,
            bytes_sent: u64::decode(r)?,
            bytes_recv: u64::decode(r)?,
            flops: u64::decode(r)?,
            mem_refs: u64::decode(r)?,
            loop_iters: u64::decode(r)?,
            calls: u64::decode(r)?,
            nonlocal_refs: u64::decode(r)?,
            queue_peak: u64::decode(r)?,
            wire_bytes: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(String::from("kali"));
        roundtrip(String::new());
    }

    #[test]
    fn f64_roundtrips_bitwise_including_nan_payloads() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let back: f64 = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let back: f64 = from_bytes(&to_bytes(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip((1usize, 2.5f64));
        roundtrip((1u64, (2usize, 3usize), vec![4.0f64]));
        roundtrip(vec![vec![1u64, 2], vec![], vec![3]]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![(0usize, vec![1.5f64, 2.5])]);
    }

    #[test]
    fn truncated_buffers_fail_with_context() {
        let bytes = to_bytes(&7u64);
        let err = from_bytes::<u64>(&bytes[..5]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                context: "u64",
                needed: 8,
                available: 5
            }
        );
        // A corrupted Vec length prefix claims more elements than exist.
        let mut vec_bytes = to_bytes(&vec![1.0f64]);
        vec_bytes[0] = 200;
        let err = from_bytes::<Vec<f64>>(&vec_bytes).unwrap_err();
        assert!(matches!(err, WireError::Truncated { context: "f64", .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&1u64);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u64>(&bytes).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        assert_eq!(
            from_bytes::<bool>(&[7]).unwrap_err(),
            WireError::BadDiscriminant {
                context: "bool",
                value: 7
            }
        );
    }

    #[test]
    fn events_and_counters_roundtrip() {
        roundtrip(Event {
            rank: 3,
            seq: 9,
            kind: EventKind::Send {
                dst: 1,
                tag: 1 << 40,
            },
        });
        roundtrip(Event {
            rank: 0,
            seq: 0,
            kind: EventKind::Collective { op: "allreduce" },
        });
        roundtrip(Event {
            rank: 2,
            seq: 4,
            kind: EventKind::Recv { src: 0, tag: 128 },
        });
        let c = Counters {
            msgs_sent: 1,
            bytes_recv: 1 << 33,
            wire_bytes: 12345,
            ..Counters::default()
        };
        roundtrip(c);
    }

    #[test]
    fn unknown_collective_op_is_a_structured_error() {
        let mut out = Vec::new();
        out.push(2u8);
        String::from("mystery-op").encode(&mut out);
        let err = from_bytes::<EventKind>(&out).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownCollectiveOp {
                name: "mystery-op".into()
            }
        );
    }

    #[test]
    fn errors_render_humanly() {
        let s = WireError::Truncated {
            context: "f64",
            needed: 8,
            available: 2,
        }
        .to_string();
        assert!(s.contains("f64") && s.contains("8") && s.contains("2"));
        assert!(WireError::TrailingBytes { remaining: 3 }
            .to_string()
            .contains("3"));
    }
}

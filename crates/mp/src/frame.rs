//! The mp wire format: length-prefixed frames with tag-addressed delivery.
//!
//! Every message between two mp endpoints — program traffic and transport
//! control alike — travels as one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  payload length   (u32, little-endian, ≤ MAX_PAYLOAD)
//!      4     8  sequence number  (u64, per-(src, dst) send order witness)
//!     12     8  tag              (u64, the Process tag space)
//!     20     4  type hash        (u32, FNV-1a of the payload's type name)
//!     24     …  payload          (the Wire encoding of one value)
//! ```
//!
//! The header is fixed-size so a reader always knows how much to ask the
//! kernel for; the payload length bounds the second read exactly.  The type
//! hash is a cheap end-to-end check that the sender's `T` and the receiver's
//! `T` agree — both ends of an mp run execute the *same binary*, so equal
//! types hash equally and a mismatch is always a protocol error, reported
//! with both type names' hashes instead of a garbage decode.
//!
//! Reading is **total**: every failure mode — peer hangup, truncated
//! header, truncated or oversized payload — is a structured [`FrameError`],
//! never a panic or an unbounded read.  The [`MpProc`](crate::MpProc)
//! layer adds the rank context when it turns one of these into a fatal
//! error.

use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted};
use std::io::{self, Read, Write};

use kali_process::Tag;

/// Fixed size of the frame header in bytes.
pub const HEADER_LEN: usize = 24;

/// Upper bound on a frame payload (1 GiB).  A corrupted length prefix is
/// rejected against this bound *before* any allocation or read, so garbage
/// on the wire costs a structured error, not an OOM or a multi-gigabyte
/// read loop.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-(src, dst) send sequence number (FIFO witness).
    pub seq: u64,
    /// Message tag ([`kali_process::tags`] partitions the space).
    pub tag: Tag,
    /// FNV-1a hash of the payload's Rust type name ([`type_hash`]).
    pub type_hash: u32,
    /// The payload: the [`Wire`](kali_process::Wire) encoding of one value.
    pub payload: Vec<u8>,
}

/// A transport-layer failure, structured so callers can name the offending
/// endpoint and tag instead of hanging or reporting a bare I/O error.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection: EOF, or a reset, at a frame boundary.
    Closed,
    /// The connection ended mid-header: `got` of [`HEADER_LEN`] bytes
    /// arrived before EOF — a truncated length prefix.
    TruncatedHeader {
        /// Header bytes that did arrive.
        got: usize,
    },
    /// The connection ended mid-payload.
    TruncatedPayload {
        /// Tag from the (complete) header.
        tag: Tag,
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes that arrived before EOF.
        got: usize,
    },
    /// The header's length prefix exceeds [`MAX_PAYLOAD`] — corrupt, since
    /// no runtime message approaches the bound.
    OversizedPayload {
        /// Tag from the header.
        tag: Tag,
        /// The offending length prefix.
        len: u32,
    },
    /// The operating system reported an I/O error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::TruncatedHeader { got } => write!(
                f,
                "truncated frame header: {got} of {HEADER_LEN} bytes before EOF \
                 (truncated length prefix)"
            ),
            FrameError::TruncatedPayload { tag, expected, got } => write!(
                f,
                "truncated frame payload for tag {tag:#x}: {got} of {expected} bytes before EOF"
            ),
            FrameError::OversizedPayload { tag, len } => write!(
                f,
                "corrupt frame header for tag {tag:#x}: length prefix {len} exceeds the \
                 {MAX_PAYLOAD}-byte bound"
            ),
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// FNV-1a hash of `T`'s type name — the frame header's end-to-end type
/// check.  Both endpoints of an mp run execute the same binary, so
/// `std::any::type_name` is identical on both sides for the same `T`.
pub fn type_hash<T: 'static>() -> u32 {
    fnv1a(std::any::type_name::<T>().as_bytes())
}

/// FNV-1a over raw bytes (32-bit).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Serialise one frame into a contiguous byte buffer (header + payload),
/// ready for a single `write_all`.
pub fn frame_bytes(seq: u64, tag: Tag, type_hash: u32, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    assert!(
        len <= MAX_PAYLOAD,
        "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte bound"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&type_hash.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame (one `write_all` of header + payload).
pub fn write_frame(
    w: &mut impl Write,
    seq: u64,
    tag: Tag,
    type_hash: u32,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&frame_bytes(seq, tag, type_hash, payload))
}

/// Read exactly `buf.len()` bytes, reporting how many arrived if the stream
/// ends first.  `Ok(n)` with `n < buf.len()` means EOF after `n` bytes.  A
/// reset is EOF too: a peer that closes its socket with bytes of ours unread
/// resets the connection, and that is a hang-up, not a corrupt frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == Interrupted => continue,
            Err(e) if [ConnectionReset, ConnectionAborted].contains(&e.kind()) => {
                return Ok(filled)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one frame.  Total: EOF at a frame boundary is [`FrameError::Closed`],
/// EOF anywhere inside a frame is a structured truncation, and a corrupt
/// length prefix is rejected before any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_exact_or_eof(r, &mut header)?;
    if got == 0 {
        return Err(FrameError::Closed);
    }
    if got < HEADER_LEN {
        return Err(FrameError::TruncatedHeader { got });
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    let seq = u64::from_le_bytes(header[4..12].try_into().expect("8-byte slice"));
    let tag = u64::from_le_bytes(header[12..20].try_into().expect("8-byte slice"));
    let type_hash = u32::from_le_bytes(header[20..24].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::OversizedPayload { tag, len });
    }
    let expected = len as usize;
    let mut payload = vec![0u8; expected];
    let got = read_exact_or_eof(r, &mut payload)?;
    if got < expected {
        return Err(FrameError::TruncatedPayload { tag, expected, got });
    }
    Ok(Frame {
        seq,
        tag,
        type_hash,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let bytes = frame_bytes(7, 0x1234, type_hash::<u64>(), &[1, 2, 3]);
        assert_eq!(bytes.len(), HEADER_LEN + 3);
        let frame = read_frame(&mut bytes.as_slice()).expect("round trip");
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.tag, 0x1234);
        assert_eq!(frame.type_hash, type_hash::<u64>());
        assert_eq!(frame.payload, vec![1, 2, 3]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = frame_bytes(0, 5, 0, &[]);
        let frame = read_frame(&mut bytes.as_slice()).expect("round trip");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn eof_at_frame_boundary_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn a_peer_closing_with_our_bytes_unread_is_closed() {
        // Closing a Unix socket with unread data resets the connection: the
        // other end's next read fails with `ConnectionReset`, not EOF.
        let (mut ours, theirs) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        write_frame(&mut ours, 0, 7, 0, &[1, 2, 3]).expect("the peer is still open");
        drop(theirs);
        match read_frame(&mut ours) {
            Err(FrameError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_structured() {
        // A length prefix cut short mid-header: the negative-path contract
        // is a structured error naming how much arrived, never a hang.
        let bytes = frame_bytes(1, 9, 0, &[1, 2, 3]);
        let err = read_frame(&mut &bytes[..10]).expect_err("must fail");
        match err {
            FrameError::TruncatedHeader { got } => assert_eq!(got, 10),
            other => panic!("expected TruncatedHeader, got {other}"),
        }
        assert!(err.to_string().contains("truncated length prefix"));
    }

    #[test]
    fn truncated_payload_names_the_tag() {
        let bytes = frame_bytes(1, 0xBEEF, 0, &[1, 2, 3, 4]);
        let err = read_frame(&mut &bytes[..HEADER_LEN + 2]).expect_err("must fail");
        match err {
            FrameError::TruncatedPayload { tag, expected, got } => {
                assert_eq!(tag, 0xBEEF);
                assert_eq!(expected, 4);
                assert_eq!(got, 2);
            }
            other => panic!("expected TruncatedPayload, got {other}"),
        }
        assert!(err.to_string().contains("0xbeef"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = frame_bytes(1, 3, 0, &[]);
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bytes.as_slice()).expect_err("must fail") {
            FrameError::OversizedPayload { tag, len } => {
                assert_eq!(tag, 3);
                assert_eq!(len, u32::MAX);
            }
            other => panic!("expected OversizedPayload, got {other}"),
        }
    }

    #[test]
    fn type_hash_distinguishes_types_and_is_stable() {
        assert_eq!(type_hash::<u64>(), type_hash::<u64>());
        assert_ne!(type_hash::<u64>(), type_hash::<f64>());
        assert_ne!(type_hash::<Vec<f64>>(), type_hash::<f64>());
    }
}

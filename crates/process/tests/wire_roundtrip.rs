//! Property coverage for the [`Wire`] codec: `from_bytes(to_bytes(x)) == x`
//! for every wired type, and every way an encoding can be *wrong* — cut
//! short, padded with trailing bytes, or carrying a bad discriminant —
//! surfaces a structured [`WireError`], never a panic or a misdecode.
//!
//! The codec is the mp backend's contract with itself: both ends of a
//! socket run this exact code, so round-trip identity here is what makes
//! the multi-process equivalence column possible at all.

use kali_process::trace::{Event, EventKind};
use kali_process::wire::{from_bytes, to_bytes, KNOWN_COLLECTIVE_OPS};
use kali_process::{Counters, Wire, WireError};

/// Round-trip helper: encode, decode, compare.
fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = to_bytes(&value);
    let back: T = from_bytes(&bytes).expect("round trip decodes");
    assert_eq!(back, value);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns for `f64`, including NaNs, infinities and denormals —
    /// the codec promises *bit* identity, not numeric identity.
    fn arb_f64_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..u64::MAX,
            Just(f64::NAN.to_bits()),
            Just(f64::INFINITY.to_bits()),
            Just(f64::NEG_INFINITY.to_bits()),
            Just((-0.0f64).to_bits()),
            Just(1u64), // smallest positive denormal
        ]
    }

    /// ASCII strings of assorted lengths (the shim has no char strategy).
    fn arb_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(32u8..127, 0..24)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ascii range"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn scalars_round_trip(case in (0u64..u64::MAX, -1_000_000i64..1_000_000, 0usize..1_000_000)) {
            let (u, i, s) = case;
            roundtrip(u);
            roundtrip(i);
            roundtrip(s);
            roundtrip(u as u8);
            roundtrip(u as u16);
            roundtrip(u as u32);
            roundtrip(u % 2 == 0);
        }

        #[test]
        fn f64_round_trips_bitwise(bits in arb_f64_bits()) {
            let x = f64::from_bits(bits);
            let back: f64 = from_bytes(&to_bytes(&x)).expect("decodes");
            prop_assert_eq!(back.to_bits(), bits);
        }

        #[test]
        fn vectors_round_trip_including_empty(v in proptest::collection::vec(0u64..1 << 40, 0..16)) {
            roundtrip(v.clone());
            // Doubly nested — the packed-buffer shape (ragged rows).
            let ragged: Vec<Vec<u64>> = v.iter().map(|&n| vec![n; (n % 5) as usize]).collect();
            roundtrip(ragged);
        }

        #[test]
        fn tuples_and_strings_round_trip(case in (0usize..1000, arb_f64_bits(), arb_string())) {
            let (n, bits, s) = case;
            roundtrip((n, s.clone()));
            roundtrip((n, f64::from_bits(bits).to_bits(), s.clone(), true));
            roundtrip((n, (n as u64, s), vec![f64::from_bits(bits).to_bits(); n % 4]));
        }

        /// Cutting an encoding anywhere must yield `Err`, never a panic and
        /// never a value (the codec is self-delimiting: every prefix is
        /// incomplete, not accidentally valid).
        #[test]
        fn truncation_is_always_a_structured_error(case in (proptest::collection::vec(0u64..1 << 40, 1..8), 0usize..1000)) {
            let (v, cut_seed) = case;
            let bytes = to_bytes(&v);
            let cut = cut_seed % bytes.len();
            prop_assert!(from_bytes::<Vec<u64>>(&bytes[..cut]).is_err());
        }

        /// Trailing garbage after a complete value is rejected: a frame
        /// carries exactly one value.
        #[test]
        fn trailing_bytes_are_rejected(case in (0u64..1 << 40, 0u8..255)) {
            let (value, extra) = case;
            let mut bytes = to_bytes(&value);
            bytes.push(extra);
            match from_bytes::<u64>(&bytes) {
                Err(WireError::TrailingBytes { .. }) => {}
                other => prop_assert!(false, "expected TrailingBytes, got {:?}", other),
            }
        }
    }
}

#[test]
fn unit_and_event_types_round_trip() {
    roundtrip(());
    for op in KNOWN_COLLECTIVE_OPS {
        roundtrip(EventKind::Collective { op });
    }
    roundtrip(EventKind::Send { dst: 3, tag: 0xabc });
    roundtrip(EventKind::Recv {
        src: 1,
        tag: 1 << 45,
    });
    roundtrip(Event {
        rank: 2,
        seq: 99,
        kind: EventKind::Send { dst: 0, tag: 5 },
    });
    roundtrip(Counters {
        msgs_sent: 1,
        bytes_sent: 2,
        nonlocal_refs: 3,
        queue_peak: 4,
        wire_bytes: 5,
        ..Counters::default()
    });
}

#[test]
fn bad_discriminants_are_structured_errors() {
    // bool only admits 0 and 1.
    match from_bytes::<bool>(&[2]) {
        Err(WireError::BadDiscriminant { context, value }) => {
            assert_eq!(context, "bool");
            assert_eq!(value, 2);
        }
        other => panic!("expected BadDiscriminant, got {other:?}"),
    }
    // An EventKind with an unknown variant tag.
    match from_bytes::<EventKind>(&[9]) {
        Err(WireError::BadDiscriminant { .. }) => {}
        other => panic!("expected BadDiscriminant, got {other:?}"),
    }
    // A collective op name outside the registry.
    let mut bytes = vec![2u8];
    "warp-speed-reduce".to_string().encode(&mut bytes);
    match from_bytes::<EventKind>(&bytes) {
        Err(WireError::UnknownCollectiveOp { name }) => assert_eq!(name, "warp-speed-reduce"),
        other => panic!("expected UnknownCollectiveOp, got {other:?}"),
    }
}

#[test]
fn invalid_utf8_in_strings_is_a_structured_error() {
    let mut bytes = Vec::new();
    2u64.encode(&mut bytes); // length prefix: 2 bytes follow
    bytes.extend_from_slice(&[0xff, 0xfe]); // not UTF-8
    match from_bytes::<String>(&bytes) {
        Err(WireError::BadUtf8 { .. }) => {}
        other => panic!("expected BadUtf8, got {other:?}"),
    }
}

#[test]
fn corrupt_vector_length_fails_without_allocating() {
    // A Vec<u64> claiming u64::MAX elements with a one-byte body: the
    // decoder must fail on the first missing element instead of reserving
    // the claimed capacity up front.
    let mut bytes = Vec::new();
    u64::MAX.encode(&mut bytes);
    bytes.push(0);
    assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
}

//! Canonical, deterministic binary codec for TART.
//!
//! Checkpoints, message logs and wire envelopes in TART must be
//! **byte-identical across runs**: replay correctness is checked by
//! comparing serialized state, and duplicate messages are discarded by
//! timestamp equality. A general-purpose serialization framework makes no
//! canonical-form promise, so TART carries its own small codec:
//!
//! * [`Encode`] / [`Decode`] — the serialization traits;
//! * LEB128 varints for integers, zig-zag for signed values;
//! * map encodings sorted by key, so logically equal states produce equal
//!   bytes regardless of hash-map iteration order;
//! * [`crc32`] — the checksum used by the append-only message log.
//!
//! # Example
//!
//! ```
//! use tart_codec::{Decode, Encode};
//! use std::collections::HashMap;
//!
//! let mut counts: HashMap<String, u64> = HashMap::new();
//! counts.insert("the".into(), 3);
//! counts.insert("cat".into(), 1);
//!
//! let bytes = counts.to_bytes();
//! let back: HashMap<String, u64> = HashMap::from_bytes(&bytes)?;
//! assert_eq!(back, counts);
//! # Ok::<(), tart_codec::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod error;
mod primitives;
mod reader;
mod varint;

pub use crc::crc32;
pub use error::DecodeError;
pub use reader::Reader;

use bytes::BytesMut;

/// A value serializable into TART's canonical binary form.
///
/// Implementations must be *deterministic*: the same logical value always
/// encodes to the same bytes, on every run and every platform.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.to_vec()
    }
}

/// A value deserializable from TART's canonical binary form.
pub trait Decode: Sized {
    /// Reads one value from `r`, advancing it past the consumed bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed or truncated input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a value that must occupy the whole slice.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if input remains after the
    /// value, in addition to any error from [`Decode::decode`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(v)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    proptest! {
        #[test]
        fn u64_round_trips(v in any::<u64>()) { round_trip(&v); }

        #[test]
        fn i64_round_trips(v in any::<i64>()) { round_trip(&v); }

        #[test]
        fn f64_round_trips(v in any::<f64>().prop_filter("NaN compares unequal", |f| !f.is_nan())) {
            round_trip(&v);
        }

        #[test]
        fn string_round_trips(v in ".*") { round_trip(&v); }

        #[test]
        fn nested_structures_round_trip(
            v in proptest::collection::vec((any::<u32>(), ".{0,8}"), 0..20)
        ) {
            round_trip(&v);
        }

        #[test]
        fn option_round_trips(v in proptest::option::of(any::<u64>())) { round_trip(&v); }

        #[test]
        fn hash_map_encoding_is_canonical(
            pairs in proptest::collection::btree_map(any::<u16>(), any::<u32>(), 0..30)
        ) {
            let pairs: Vec<(u16, u32)> = pairs.into_iter().collect();
            let forward: HashMap<u16, u32> = pairs.iter().copied().collect();
            let reverse: HashMap<u16, u32> = pairs.iter().rev().copied().collect();
            prop_assert_eq!(forward.to_bytes(), reverse.to_bytes());
            let as_btree: BTreeMap<u16, u32> = pairs.iter().copied().collect();
            // HashMap and BTreeMap of equal content encode identically.
            prop_assert_eq!(forward.to_bytes(), as_btree.to_bytes());
            round_trip(&forward);
        }

        #[test]
        fn truncated_input_errors_not_panics(
            v in proptest::collection::vec(any::<u64>(), 0..10),
            cut in 0usize..64,
        ) {
            let bytes = v.to_bytes();
            if cut < bytes.len() {
                let r = Vec::<u64>::from_bytes(&bytes[..cut]);
                prop_assert!(r.is_err());
            }
        }
    }
}

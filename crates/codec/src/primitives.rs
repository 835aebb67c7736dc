//! `Encode`/`Decode` implementations for primitives, std containers and the
//! `tart-vtime` vocabulary types.

// tart-lint: allow(HASH-ITER) -- codec support for hash maps is deliberately canonical: encode sorts by key before emission, decode is order-independent
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

use bytes::{BufMut, BytesMut};
use tart_vtime::{
    ComponentId, EngineId, Interval, IntervalSet, PortId, VirtualDuration, VirtualTime, WireId,
};

use crate::varint::{read_varint, unzigzag, write_varint, zigzag};
use crate::{Decode, DecodeError, Encode, Reader};

// ---------------------------------------------------------------------------
// Unsigned integers: varint encoded.
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                write_varint(buf, u64::from(*self));
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let raw = read_varint(r)?;
                <$t>::try_from(raw).map_err(|_| DecodeError::VarintOverflow)
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, *self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = read_varint(r)?;
        usize::try_from(raw).map_err(|_| DecodeError::VarintOverflow)
    }
}

// ---------------------------------------------------------------------------
// Signed integers: zig-zag varint.
// ---------------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                write_varint(buf, zigzag(i64::from(*self)));
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let raw = unzigzag(read_varint(r)?);
                <$t>::try_from(raw).map_err(|_| DecodeError::VarintOverflow)
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

// ---------------------------------------------------------------------------
// Other primitives.
// ---------------------------------------------------------------------------

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "bool",
            }),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.to_bits());
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = r.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_be_bytes(raw)))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_str().encode(buf);
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
}

impl Encode for &str {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = read_varint(r)?;
        let len = r.check_len(len, 1).map_err(|e| match e {
            // A zero-length string is fine even with no remaining input.
            DecodeError::LengthOverflow { declared: 0 } => unreachable!(),
            other => other,
        })?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl Encode for () {
    fn encode(&self, _buf: &mut BytesMut) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Containers.
// ---------------------------------------------------------------------------

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "Option",
            }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_slice().encode(buf);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let declared = read_varint(r)?;
        if declared == 0 {
            return Ok(Vec::new());
        }
        let len = r.check_len(declared, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let declared = read_varint(r)?;
        if declared == 0 {
            return Ok(BTreeMap::new());
        }
        let len = r.check_len(declared, 1)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Hash maps encode *canonically*: entries are sorted by key bytes first, so
/// two maps with equal contents produce identical encodings regardless of
/// iteration order.
// tart-lint: allow(HASH-ITER) -- Encode for HashMap sorts entries by key first; the image is canonical (see the doc comment and the codec proptest)
impl<K, V, S> Encode for HashMap<K, V, S>
where
    K: Encode + Ord + Hash,
    V: Encode,
    S: BuildHasher,
{
    fn encode(&self, buf: &mut BytesMut) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write_varint(buf, entries.len() as u64);
        for (k, v) in entries {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

// tart-lint: allow(HASH-ITER) -- Decode fills a fresh map; no order observed
impl<K, V, S> Decode for HashMap<K, V, S>
where
    K: Decode + Eq + Hash,
    V: Decode,
    S: BuildHasher + Default,
{
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let declared = read_varint(r)?;
        if declared == 0 {
            // tart-lint: allow(HASH-ITER) -- constructing the decode target; no order observed
            return Ok(HashMap::default());
        }
        let len = r.check_len(declared, 1)?;
        // tart-lint: allow(HASH-ITER) -- constructing the decode target; no order observed
        let mut out = HashMap::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// tart-vtime vocabulary types.
// ---------------------------------------------------------------------------

macro_rules! impl_newtype_u64 {
    ($t:ty, $from:path, $to:ident) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                write_varint(buf, self.$to());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($from(read_varint(r)?))
            }
        }
    };
}

impl_newtype_u64!(VirtualTime, VirtualTime::from_ticks, as_ticks);
impl_newtype_u64!(VirtualDuration, VirtualDuration::from_ticks, as_ticks);

macro_rules! impl_id {
    ($t:ty, $raw:ty) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                write_varint(buf, u64::from(self.raw()));
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let raw = read_varint(r)?;
                <$raw>::try_from(raw)
                    .map(<$t>::new)
                    .map_err(|_| DecodeError::VarintOverflow)
            }
        }
    };
}

impl_id!(WireId, u32);
impl_id!(ComponentId, u32);
impl_id!(EngineId, u32);
impl_id!(PortId, u16);

impl Encode for Interval {
    fn encode(&self, buf: &mut BytesMut) {
        self.lo().encode(buf);
        // Delta-encode the upper bound: short intervals stay short.
        write_varint(buf, self.hi().as_ticks() - self.lo().as_ticks());
    }
}

impl Decode for Interval {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let lo = VirtualTime::decode(r)?;
        let span = read_varint(r)?;
        let hi_ticks = lo
            .as_ticks()
            .checked_add(span)
            .ok_or(DecodeError::VarintOverflow)?;
        Ok(Interval::new(lo, VirtualTime::from_ticks(hi_ticks)))
    }
}

impl Encode for IntervalSet {
    fn encode(&self, buf: &mut BytesMut) {
        let runs: Vec<Interval> = self.iter().collect();
        runs.encode(buf);
    }
}

impl Decode for IntervalSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let runs: Vec<Interval> = Vec::decode(r)?;
        Ok(runs.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decode, Encode};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(61_827u32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(61.827f64);
        round_trip(String::from("deterministic merge"));
        round_trip(String::new());
        round_trip(());
        round_trip(12345usize);
    }

    #[test]
    fn bool_rejects_junk_tag() {
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(DecodeError::InvalidTag { tag: 7, .. })
        ));
    }

    #[test]
    fn option_and_vec_round_trip() {
        round_trip(Option::<u64>::None);
        round_trip(Some(99u64));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(vec![(1u8, String::from("a")), (2, String::from("b"))]);
        round_trip((1u8, 2u16, String::from("c")));
    }

    #[test]
    fn maps_round_trip() {
        let mut h = HashMap::new();
        h.insert(String::from("alpha"), 1u64);
        h.insert(String::from("beta"), 2);
        round_trip(h);
        let mut b = BTreeMap::new();
        b.insert(5u32, String::from("five"));
        round_trip(b);
        round_trip(HashMap::<u8, u8>::new());
    }

    #[test]
    fn vtime_types_round_trip() {
        round_trip(VirtualTime::from_ticks(233_000));
        round_trip(VirtualDuration::from_micros(61));
        round_trip(WireId::new(7));
        round_trip(ComponentId::new(1));
        round_trip(EngineId::new(2));
        round_trip(PortId::new(3));
        round_trip(Interval::new(
            VirtualTime::from_ticks(100),
            VirtualTime::from_ticks(233_000),
        ));
        let set: IntervalSet = [
            Interval::new(VirtualTime::from_ticks(0), VirtualTime::from_ticks(9)),
            Interval::new(VirtualTime::from_ticks(20), VirtualTime::from_ticks(29)),
        ]
        .into_iter()
        .collect();
        round_trip(set);
    }

    #[test]
    fn narrowing_decode_rejects_oversized() {
        let bytes = (u64::from(u32::MAX) + 1).to_bytes();
        assert!(u32::from_bytes(&bytes).is_err());
        let bytes = 300u64.to_bytes();
        assert!(u8::from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_vec_length_is_rejected_early() {
        // Vec claiming u64::MAX elements with 2 bytes of payload.
        let mut buf = BytesMut::new();
        crate::varint::write_varint(&mut buf, u64::MAX);
        buf.put_u8(0);
        assert!(matches!(
            Vec::<u64>::from_bytes(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn f64_preserves_exact_bits() {
        for v in [
            0.0,
            -0.0,
            61.827,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let bytes = v.to_bytes();
            let back = f64::from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        crate::varint::write_varint(&mut buf, 2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            String::from_bytes(&buf).unwrap_err(),
            DecodeError::InvalidUtf8
        );
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = 5u64.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }
}

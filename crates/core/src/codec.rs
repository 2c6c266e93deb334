//! Compact hand-rolled binary wire codec.
//!
//! The workspace's one serialization format, with no serde derive behind
//! it: a varint-based little-endian encoding with a [`Wire`] trait
//! implemented by every type that crosses a node boundary or is written
//! to a write-ahead log (`FlexOffer`, `Profile`, `ScheduledFlexOffer`,
//! and — in the layers above — `FlexOfferUpdate`, `Message`,
//! `Envelope`, WAL event records and node snapshots).
//!
//! Design rules:
//!
//! * **Unsigned integers** are LEB128 varints (7 payload bits per byte,
//!   continuation high bit), so ids and short lengths cost one byte.
//! * **Signed integers** are zigzag-folded (`0, -1, 1, -2, …`) before
//!   varint encoding, so small negative slots stay small on the wire.
//! * **Floats** are raw IEEE-754 bits in 8 fixed little-endian bytes —
//!   bit-exact roundtrips, including `-0.0` and infinities, are a hard
//!   requirement for the replay-determinism guarantees of the WAL.
//! * **Decoding validates**: domain types decode through their checked
//!   constructors ([`FlexOffer`] through its builder, [`EnergyRange`]
//!   through [`EnergyRange::new`], …), so a corrupt or adversarial byte
//!   stream yields a [`CodecError`], never an invariant-violating value.

use crate::energy::{Energy, EnergyRange};
use crate::error::DomainError;
use crate::flexoffer::{FlexOffer, OfferKind};
use crate::id::{ActorId, AggregateId, FlexOfferId, GroupId, NodeId, RegionId};
use crate::price::Price;
use crate::profile::{Profile, Slice};
use crate::schedule::ScheduledFlexOffer;
use crate::time::TimeSlot;
use std::fmt;

/// Errors produced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The buffer ended mid-value.
    UnexpectedEof,
    /// A varint ran past 10 bytes (would overflow `u64`).
    VarintOverflow,
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// The decoded value failed domain validation.
    Domain(DomainError),
    /// Trailing bytes remained after a whole-buffer decode.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "buffer ended mid-value"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            CodecError::Domain(e) => write!(f, "decoded value failed validation: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DomainError> for CodecError {
    fn from(e: DomainError) -> CodecError {
        CodecError::Domain(e)
    }
}

/// Append a `u64` as a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint `u64`, advancing `buf`.
pub fn take_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let (&byte, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        v |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::VarintOverflow)
}

/// Append an `i64` zigzag-folded then varint-encoded.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a zigzag varint `i64`, advancing `buf`.
pub fn take_i64(buf: &mut &[u8]) -> Result<i64, CodecError> {
    let z = take_u64(buf)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Append an `f64` as its 8 raw IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read 8 fixed bytes back into an `f64` (bit-exact), advancing `buf`.
pub fn take_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let (bytes, rest) = buf.split_at(8);
    *buf = rest;
    Ok(f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("split at 8"),
    )))
}

/// Binary wire encoding: append-to-buffer encode and validating decode.
///
/// Every implementation guarantees `decode(encode(x)) == x` (bit-exact
/// for floats) and rejects malformed input with a [`CodecError`] rather
/// than constructing an invalid value.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a value that must occupy the *whole* buffer.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(v)
        } else {
            Err(CodecError::TrailingBytes(buf.len()))
        }
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        take_u64(buf)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        u32::try_from(take_u64(buf)?).map_err(|_| CodecError::InvalidTag {
            what: "u32",
            tag: u64::MAX,
        })
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(take_u64(buf)?).map_err(|_| CodecError::VarintOverflow)
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_i64(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        take_i64(buf)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        take_f64(buf)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&byte, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidTag {
                what: "bool",
                tag: u64::from(other),
            }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(CodecError::InvalidTag {
                what: "Option",
                tag: u64::from(other),
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(buf)?;
        // Guard against adversarial length prefixes: never pre-allocate
        // more elements than the remaining buffer could possibly hold
        // (every element costs at least one byte).
        let mut out = Vec::with_capacity(len.min(buf.len()));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

macro_rules! wire_id {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_u64(out, self.0);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                Ok($ty(take_u64(buf)?))
            }
        }
    )+};
}

wire_id!(ActorId, AggregateId, FlexOfferId, GroupId, NodeId, RegionId);

impl Wire for TimeSlot {
    fn encode(&self, out: &mut Vec<u8>) {
        put_i64(out, self.0);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TimeSlot(take_i64(buf)?))
    }
}

impl Wire for Price {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.0);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Price(take_f64(buf)?))
    }
}

impl Wire for Energy {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.kwh());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Energy::kwh_checked(take_f64(buf)?)?)
    }
}

impl Wire for EnergyRange {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.min().kwh());
        put_f64(out, self.max().kwh());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let min = take_f64(buf)?;
        let max = take_f64(buf)?;
        Ok(EnergyRange::new(min, max)?)
    }
}

impl Wire for OfferKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            OfferKind::Consumption => 0,
            OfferKind::Production => 1,
        });
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        *buf = rest;
        match tag {
            0 => Ok(OfferKind::Consumption),
            1 => Ok(OfferKind::Production),
            other => Err(CodecError::InvalidTag {
                what: "OfferKind",
                tag: u64::from(other),
            }),
        }
    }
}

impl Wire for Slice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.duration.encode(out);
        self.energy.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let duration = u32::decode(buf)?;
        let energy = EnergyRange::decode(buf)?;
        Ok(Slice::new(duration, energy)?)
    }
}

impl Wire for Profile {
    /// The bytes of `Vec<Slice>`, written from the borrowed slices.
    fn encode(&self, out: &mut Vec<u8>) {
        let slices = self.slices();
        put_u64(out, slices.len() as u64);
        for slice in slices {
            slice.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Profile::new(Vec::<Slice>::decode(buf)?)?)
    }
}

impl Wire for FlexOffer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id().encode(out);
        self.owner().encode(out);
        self.kind().encode(out);
        self.assignment_before().encode(out);
        self.earliest_start().encode(out);
        self.latest_start().encode(out);
        self.profile().encode(out);
        self.unit_price().encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let id = FlexOfferId::decode(buf)?;
        let owner = ActorId::decode(buf)?;
        let kind = OfferKind::decode(buf)?;
        let assignment_before = TimeSlot::decode(buf)?;
        let earliest_start = TimeSlot::decode(buf)?;
        let latest_start = TimeSlot::decode(buf)?;
        let profile = Profile::decode(buf)?;
        let unit_price = Price::decode(buf)?;
        // Route through the validating builder so decoded offers uphold
        // the same invariants as constructed ones.
        Ok(FlexOffer::builder(id.value(), owner.value())
            .kind(kind)
            .earliest_start(earliest_start)
            .latest_start(latest_start)
            .assignment_before(assignment_before)
            .profile(profile)
            .unit_price(unit_price)
            .build()?)
    }
}

impl Wire for ScheduledFlexOffer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.offer_id.encode(out);
        self.start.encode(out);
        self.slot_energies.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ScheduledFlexOffer {
            offer_id: FlexOfferId::decode(buf)?,
            start: TimeSlot::decode(buf)?,
            slot_energies: Vec::<Energy>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn varint_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            roundtrip(&v);
        }
        let mut out = Vec::new();
        put_u64(&mut out, 127);
        assert_eq!(out.len(), 1);
        out.clear();
        put_u64(&mut out, 128);
        assert_eq!(out.len(), 2);
        out.clear();
        put_u64(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn zigzag_keeps_small_negatives_small() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            roundtrip(&v);
        }
        let mut out = Vec::new();
        put_i64(&mut out, -1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn float_bits_exact() {
        for v in [
            0.0f64,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let bytes = v.to_bytes();
            let back = f64::from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_inputs_error() {
        let offer = sample_offer(42);
        let bytes = offer.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FlexOffer::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(matches!(
            u64::from_bytes(&[0x00, 0x00]),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn nan_energy_rejected_on_decode() {
        let mut bytes = Vec::new();
        put_f64(&mut bytes, f64::NAN);
        assert!(matches!(
            Energy::from_bytes(&bytes),
            Err(CodecError::Domain(_))
        ));
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(matches!(
            OfferKind::from_bytes(&[7]),
            Err(CodecError::InvalidTag { .. })
        ));
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(CodecError::InvalidTag { .. })
        ));
        assert!(matches!(
            Option::<u64>::from_bytes(&[9]),
            Err(CodecError::InvalidTag { .. })
        ));
    }

    #[test]
    fn adversarial_length_prefix_does_not_allocate() {
        // Claims 2^60 elements but carries none: must error, not OOM.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1u64 << 60);
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    fn sample_offer(id: u64) -> FlexOffer {
        FlexOffer::builder(id, 7)
            .kind(OfferKind::Production)
            .earliest_start(TimeSlot(96))
            .latest_start(TimeSlot(120))
            .assignment_before(TimeSlot(90))
            .profile(
                Profile::new(vec![
                    Slice::new(2, EnergyRange::new(1.0, 2.5).unwrap()).unwrap(),
                    Slice::new(3, EnergyRange::new(-1.0, 4.0).unwrap()).unwrap(),
                ])
                .unwrap(),
            )
            .unit_price(Price(0.07))
            .build()
            .unwrap()
    }

    #[test]
    fn flex_offer_roundtrip() {
        roundtrip(&sample_offer(9));
    }

    #[test]
    fn scheduled_offer_roundtrip() {
        let o = sample_offer(3);
        roundtrip(&ScheduledFlexOffer::at_fraction(&o, TimeSlot(100), 0.37));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            let mut buf = out.as_slice();
            prop_assert_eq!(take_u64(&mut buf).unwrap(), v);
            prop_assert!(buf.is_empty());
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            let mut out = Vec::new();
            put_i64(&mut out, v);
            let mut buf = out.as_slice();
            prop_assert_eq!(take_i64(&mut buf).unwrap(), v);
            prop_assert!(buf.is_empty());
        }

        #[test]
        fn prop_f64_bits_roundtrip(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            let mut out = Vec::new();
            put_f64(&mut out, v);
            let mut buf = out.as_slice();
            prop_assert_eq!(take_f64(&mut buf).unwrap().to_bits(), bits);
        }

        #[test]
        fn prop_flex_offer_roundtrip(
            id in any::<u64>(),
            owner in any::<u64>(),
            production in any::<bool>(),
            es in -1_000i64..1_000,
            tf in 0u32..64,
            lead in 0u32..32,
            slices in proptest::collection::vec(
                (1u32..5, -10.0f64..10.0, 0.0f64..10.0),
                1..6
            ),
            price in -1.0f64..1.0,
        ) {
            let profile = Profile::new(
                slices
                    .into_iter()
                    .map(|(d, lo, width)| {
                        Slice::new(d, EnergyRange::new(lo, lo + width).unwrap()).unwrap()
                    })
                    .collect(),
            )
            .unwrap();
            let offer = FlexOffer::builder(id, owner)
                .kind(if production { OfferKind::Production } else { OfferKind::Consumption })
                .earliest_start(TimeSlot(es))
                .latest_start(TimeSlot(es + tf as i64))
                .assignment_before(TimeSlot(es - lead as i64))
                .profile(profile)
                .unit_price(Price(price))
                .build()
                .unwrap();
            let back = FlexOffer::from_bytes(&offer.to_bytes()).unwrap();
            prop_assert_eq!(back, offer);
        }

        #[test]
        fn prop_scheduled_offer_roundtrip(
            id in any::<u64>(),
            start in -500i64..500,
            energies in proptest::collection::vec(-100.0f64..100.0, 0..12),
        ) {
            let s = ScheduledFlexOffer {
                offer_id: FlexOfferId(id),
                start: TimeSlot(start),
                slot_energies: energies.into_iter().map(Energy::from_kwh).collect(),
            };
            let back = ScheduledFlexOffer::from_bytes(&s.to_bytes()).unwrap();
            prop_assert_eq!(back, s);
        }
    }
}

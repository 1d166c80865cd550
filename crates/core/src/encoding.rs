//! A value's durable bytes: the [`Codec`] trait, its impls for the state
//! types the tree uses, and the framing the WAL and checkpoints wrap
//! around them.
//!
//! Every encoding is little-endian and carries no length of its own: a
//! state's bytes sit in a `u32`-length frame ([`put_framed`]), and
//! [`decode_framed`] requires the state to fill its frame exactly, so a
//! frame that is short or has bytes left over is an error, not a misread.

use std::io;

use remo_store::BitSet;

/// How a value becomes bytes and back: what the durability layer writes
/// for a vertex state (WAL envelope frames, checkpoint records) and a
/// registry cell. Every [`Algorithm::State`](crate::Algorithm::State)
/// implements it, so a durable engine needs nothing more of its algorithm,
/// and a durability-off engine never calls it.
///
/// `decode` reads from a cursor: the slice not yet read, which every read
/// shortens from the front. Compose impls field by field:
///
/// ```
/// use remo_core::Codec;
///
/// #[derive(Debug, PartialEq)]
/// struct Dist(u64);
///
/// impl Codec for Dist {
///     fn encode(&self, out: &mut Vec<u8>) {
///         self.0.encode(out);
///     }
///     fn decode(bytes: &mut &[u8]) -> std::io::Result<Self> {
///         u64::decode(bytes).map(Dist)
///     }
/// }
///
/// let mut out = Vec::new();
/// Dist(7).encode(&mut out);
/// assert_eq!(Dist::decode(&mut &out[..]).unwrap(), Dist(7));
/// assert!(Dist::decode(&mut &out[..4]).is_err(), "short input is an error");
/// ```
pub trait Codec: Sized {
    /// Appends the value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the front of `bytes` and advances past it: the
    /// exact inverse of [`Codec::encode`]. Input that is short or malformed
    /// is an [`io::ErrorKind::InvalidData`] error, never a panic.
    fn decode(bytes: &mut &[u8]) -> io::Result<Self>;
}

/// Corrupt durable data. The message is `what` alone: the caller that
/// reports the error names the step and the shard it failed in.
pub(crate) fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The first `n` bytes of `bytes`, which advances past them.
pub(crate) fn take<'a>(bytes: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > bytes.len() {
        return Err(invalid("truncated payload"));
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

/// Appends `value` in a `u32`-length frame.
pub(crate) fn put_framed(out: &mut Vec<u8>, value: &impl Codec) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    value.encode(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The bytes of the `u32`-length frame at the front of `bytes`.
pub(crate) fn get_frame<'a>(bytes: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let n = u32::decode(bytes)?;
    take(bytes, n as usize)
}

/// Decodes a value that fills `frame` exactly.
pub(crate) fn decode_framed<T: Codec>(mut frame: &[u8]) -> io::Result<T> {
    let value = T::decode(&mut frame)?;
    if !frame.is_empty() {
        return Err(invalid("state bytes left over"));
    }
    Ok(value)
}

macro_rules! le_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(bytes: &mut &[u8]) -> io::Result<Self> {
                let (head, rest) = bytes
                    .split_first_chunk()
                    .ok_or_else(|| invalid("truncated payload"))?;
                *bytes = rest;
                Ok(<$t>::from_le_bytes(*head))
            }
        }
    )*};
}

le_codec!(u8, u32, u64);

/// The first field's bytes, then the second's.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(bytes: &mut &[u8]) -> io::Result<Self> {
        Ok((A::decode(bytes)?, B::decode(bytes)?))
    }
}

/// The words, with no count: a set reads to the end of its frame, so it
/// comes last in any composite.
impl Codec for BitSet {
    fn encode(&self, out: &mut Vec<u8>) {
        for w in self.as_words() {
            w.encode(out);
        }
    }

    fn decode(bytes: &mut &[u8]) -> io::Result<Self> {
        let mut words = Vec::with_capacity(bytes.len() / 8);
        while !bytes.is_empty() {
            words.push(u64::decode(bytes)?);
        }
        Ok(BitSet::from_words(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegPayload;

    fn bytes_of(value: &impl Codec) -> Vec<u8> {
        let mut out = Vec::new();
        value.encode(&mut out);
        out
    }

    /// Decodes `bytes` whole and checks it encodes back to them.
    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T, bytes: &[u8]) {
        assert_eq!(bytes_of(&value), bytes, "{value:?}");
        assert_eq!(decode_framed::<T>(bytes).unwrap(), value);
    }

    /// One value of each state type in the tree, pinned to the bytes the
    /// WAL and checkpoints have always written for it (checkpoint version
    /// 3): changing any of them changes the durable format.
    #[test]
    fn every_state_type_keeps_its_durable_bytes() {
        roundtrip(0x0102_0304_0506_0708u64, &[8, 7, 6, 5, 4, 3, 2, 1]);
        roundtrip((3u32, 0x0102u64), &[3, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]);
        roundtrip(
            (5u64, u64::MAX),
            &[
                5, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255,
            ],
        );
        let mut set = BitSet::new();
        set.insert(0);
        set.insert(65);
        roundtrip(set, &[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);

        let columns = RegPayload::Columns(vec![1u64, 0x0200]);
        let mut want = vec![0, 2, 0, 0, 0];
        want.extend([8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
        want.extend([8, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0]);
        roundtrip(columns, &want);
        let delta = RegPayload::Delta {
            slot: 2,
            gen: 7,
            cell: 9u64,
            absorbs: |_, _| false,
        };
        let want = [
            1, 2, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0,
        ];
        roundtrip(delta, &want);
    }

    #[test]
    fn short_or_overlong_input_is_an_error() {
        let err = decode_framed::<u64>(&[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        let err = decode_framed::<u64>(&[0; 12]).unwrap_err();
        assert!(err.to_string().contains("left over"), "{err}");
        assert!(decode_framed::<(u32, u64)>(&[0; 11]).is_err());
        assert!(BitSet::decode(&mut &[0; 12][..]).is_err(), "a partial word");

        let mut out = Vec::new();
        put_framed(&mut out, &(1u32, 2u64));
        let mut cursor = &out[..];
        let frame = get_frame(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(decode_framed::<(u32, u64)>(frame).unwrap(), (1, 2));
        assert!(get_frame(&mut &out[..out.len() - 1]).is_err());
    }
}

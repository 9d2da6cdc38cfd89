//! Versioned, checksummed binary codecs for trained model artifacts.
//!
//! Training is expensive and serving is long-lived, so every trained model
//! in the workspace (GMMs, the SVM, scalers, speaker models, the UBM — up
//! to whole [`ModelBundle`](../../magshield_core/artifact/index.html)
//! artifacts) serializes through one hand-rolled wire format:
//!
//! ```text
//! [magic u32 LE][format version u8][payload len u32 LE][payload][fnv1a64 u64 LE]
//! ```
//!
//! * **magic** — four ASCII bytes naming the artifact type (e.g. `MGMM`),
//!   so a file of the wrong kind fails immediately with
//!   [`CodecError::BadMagic`] instead of decoding garbage;
//! * **format version** — bumped whenever an artifact's payload layout
//!   changes; old readers reject new artifacts (and vice versa) with
//!   [`CodecError::UnsupportedVersion`] rather than misinterpreting bytes;
//! * **payload len** — a length prefix so frames are self-delimiting and
//!   nested artifacts can embed each other;
//! * **checksum** — FNV-1a/64 over header + payload. Every step of FNV-1a
//!   is a bijection of the 64-bit state for a fixed input suffix, so any
//!   single corrupted byte is guaranteed to be detected.
//!
//! All integers are little-endian; floats are IEEE-754 `f64` bit patterns,
//! so round-trips are bit-exact. Decoding hostile input returns a typed
//! [`CodecError`] — it never panics and never allocates more than the
//! input could justify (length prefixes are validated against the bytes
//! actually present before any allocation).

use std::error::Error;
use std::fmt;

/// Builds a codec magic number from a four-byte ASCII tag.
pub const fn magic(tag: &[u8; 4]) -> u32 {
    u32::from_le_bytes(*tag)
}

/// FNV-1a 64-bit hash, the envelope checksum.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Typed failure decoding (or validating) a binary model artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The frame does not start with the expected artifact magic.
    BadMagic {
        /// Artifact type being decoded.
        artifact: &'static str,
        /// Magic the decoder expected.
        expected: u32,
        /// Magic found in the input.
        found: u32,
    },
    /// The artifact was written with an incompatible format version.
    UnsupportedVersion {
        /// Artifact type being decoded.
        artifact: &'static str,
        /// Version found in the input.
        found: u8,
        /// The single version this build reads and writes.
        supported: u8,
    },
    /// The input ended before the decoder got the bytes a field promised.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The stored checksum does not match the received bytes.
    ChecksumMismatch {
        /// Checksum recomputed over the received frame.
        expected: u64,
        /// Checksum stored in the frame.
        found: u64,
    },
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A tag byte (enum discriminant, bool) held an unknown value.
    BadTag {
        /// Which field held the tag.
        what: &'static str,
        /// The unrecognized value.
        found: u8,
    },
    /// The bytes decoded but describe an invalid model (shape mismatch,
    /// non-positive variance, weights that do not sum to one, …).
    Invalid {
        /// Artifact type being decoded.
        artifact: &'static str,
        /// Which invariant failed.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic {
                artifact,
                expected,
                found,
            } => write!(
                f,
                "{artifact}: bad magic {found:#010x} (expected {expected:#010x})"
            ),
            Self::UnsupportedVersion {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "{artifact}: unsupported format version {found} (this build supports {supported})"
            ),
            Self::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, have {available}"
                )
            }
            Self::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: computed {expected:#018x}, stored {found:#018x}"
            ),
            Self::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after payload")
            }
            Self::BadTag { what, found } => write!(f, "bad {what} tag {found}"),
            Self::Invalid { artifact, reason } => write!(f, "invalid {artifact}: {reason}"),
        }
    }
}

impl Error for CodecError {}

/// Append-only little-endian byte sink for encoding payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i16`, little-endian.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a collection length as a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` — model artifacts are nowhere near
    /// that large, so overflow is a programming error, not a data error.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("collection too large for codec length prefix"));
    }

    /// Appends `xs` raw, `W` bytes per element as produced by `to_le`.
    /// The bulk primitive under every typed slice writer; callers with
    /// composite elements (a 3-vector is three `f64`s) pass their own
    /// `to_le`.
    ///
    /// The buffer is reserved once, then filled a stack block at a time:
    /// each element's bytes land in the block, and each block is
    /// appended whole, so every byte of the buffer is written once (no
    /// zero fill ahead of the copy). An element wider than the 512-byte
    /// block fails to compile.
    pub fn put_le_slice<T: Copy, const W: usize>(
        &mut self,
        xs: &[T],
        to_le: impl Fn(T) -> [u8; W],
    ) {
        const BLOCK: usize = 512;
        const { assert!(W <= BLOCK, "element wider than the stack block") };
        let per_block = BLOCK / W;
        self.buf.reserve(xs.len() * W);
        let mut block = [0u8; BLOCK];
        for chunk in xs.chunks(per_block) {
            let filled = &mut block[..chunk.len() * W];
            for (dst, &x) in filled.chunks_exact_mut(W).zip(chunk) {
                dst.copy_from_slice(&to_le(x));
            }
            self.buf.extend_from_slice(filled);
        }
    }

    /// Appends `xs` raw (no length prefix) — for fields whose count is
    /// implied by earlier shape fields.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_le_slice(xs, f64::to_le_bytes);
    }

    /// Appends `xs` raw as `f32` bit patterns (count implied by shape).
    pub fn put_f32_slice(&mut self, xs: &[f32]) {
        self.put_le_slice(xs, f32::to_le_bytes);
    }

    /// Appends `xs` raw as little-endian `i16`s (count implied by shape).
    pub fn put_i16_slice(&mut self, xs: &[i16]) {
        self.put_le_slice(xs, i16::to_le_bytes);
    }

    /// Appends a length-prefixed `f64` vector.
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_len(xs.len());
        self.put_f64_slice(xs);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed opaque byte blob.
    pub fn put_nested(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `child`'s full envelope frame as a length-prefixed nested
    /// artifact — the bytes of `put_nested(&child.to_bytes())`, encoded
    /// in place: no child buffer, no copy.
    pub fn put_artifact<T: BinaryCodec>(&mut self, child: &T) {
        let prefix_at = self.buf.len();
        self.put_u32(0);
        let frame_len = self.put_frame(child);
        self.patch_len(prefix_at, frame_len);
    }

    /// Writes `value`'s envelope frame at the end of the buffer — header
    /// with a placeholder length, the payload encoded in place behind it,
    /// the length patched, then the checksum over the frame — and returns
    /// the frame's size.
    fn put_frame<T: BinaryCodec>(&mut self, value: &T) -> usize {
        let start = self.buf.len();
        self.put_u32(T::MAGIC);
        self.put_u8(T::VERSION);
        self.put_u32(0);
        value.encode_payload(self);
        self.patch_len(start + HEADER_LEN - 4, self.buf.len() - start - HEADER_LEN);
        let checksum = fnv1a_64(&self.buf[start..]);
        self.put_u64(checksum);
        self.buf.len() - start
    }

    /// Overwrites the `u32` length prefix at `at` with `n`.
    fn patch_len(&mut self, at: usize, n: usize) {
        let n = u32::try_from(n).expect("collection too large for codec length prefix");
        self.buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor over untrusted input; every read is bounds-checked
/// and returns [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor reached the end.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes raw — the caller validates any length
    /// it read from the input before asking for that many.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.get_bytes(N)?.try_into().unwrap())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        self.take_array().map(i64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        self.take_array().map(f64::from_le_bytes)
    }

    /// Reads a `bool` byte, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(CodecError::BadTag {
                what: "bool",
                found,
            }),
        }
    }

    /// Reads a `u32` length prefix as `usize`.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        Ok(self.get_u32()? as usize)
    }

    /// Reads exactly `count` raw elements of `W` bytes each, decoded by
    /// `from_le` — the inverse of [`ByteWriter::put_le_slice`].
    ///
    /// The whole byte budget is taken (and so validated) in one step
    /// before allocating, so a hostile count cannot trigger an
    /// out-of-memory allocation.
    pub fn get_le_vec<T, const W: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let needed = count.checked_mul(W).ok_or(CodecError::Truncated {
            needed: usize::MAX,
            available: self.remaining(),
        })?;
        Ok(self
            .get_bytes(needed)?
            .chunks_exact(W)
            .map(|c| from_le(c.try_into().unwrap()))
            .collect())
    }

    /// Reads exactly `count` raw `f64`s (count implied by shape fields),
    /// validating the byte budget before allocating.
    pub fn get_f64_vec(&mut self, count: usize) -> Result<Vec<f64>, CodecError> {
        self.get_le_vec(count, f64::from_le_bytes)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_len()?;
        self.get_f64_vec(n)
    }

    /// Reads exactly `count` raw `f32`s, validating the byte budget
    /// before allocating.
    pub fn get_f32_vec(&mut self, count: usize) -> Result<Vec<f32>, CodecError> {
        self.get_le_vec(count, f32::from_le_bytes)
    }

    /// Reads exactly `count` raw `i16`s, validating the byte budget
    /// before allocating.
    pub fn get_i16_vec(&mut self, count: usize) -> Result<Vec<i16>, CodecError> {
        self.get_le_vec(count, i16::from_le_bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        let n = self.get_len()?;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadTag {
            what: "utf-8 string",
            found: 0,
        })
    }

    /// Reads a length-prefixed opaque byte blob.
    pub fn get_nested(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_len()?;
        self.get_bytes(n)
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// Envelope header: magic (4) + version (1) + payload length (4).
const HEADER_LEN: usize = 9;
/// Trailing FNV-1a/64 checksum.
const CHECKSUM_LEN: usize = 8;

/// A model artifact with a versioned, checksummed binary representation.
///
/// Implementors provide the payload codec; the envelope (magic, version,
/// length prefix, checksum) is handled once here so every artifact shares
/// the same framing and the same hostile-input guarantees.
pub trait BinaryCodec: Sized {
    /// Four-ASCII-byte artifact magic (see [`magic`]).
    const MAGIC: u32;
    /// Payload format version; bump on any layout change. Encoding always
    /// writes this version.
    const VERSION: u8;
    /// Oldest payload version this build still decodes. Defaults to
    /// [`Self::VERSION`] (single-version artifacts); artifacts that grew
    /// fields lower it and branch in
    /// [`Self::decode_versioned_payload`] so already-deployed frames keep
    /// decoding across the bump.
    const MIN_VERSION: u8 = Self::VERSION;
    /// Human-readable artifact name used in error messages.
    const NAME: &'static str;

    /// Writes the payload (envelope excluded) into `w`.
    fn encode_payload(&self, w: &mut ByteWriter);

    /// Decodes the payload (envelope excluded) from `r`.
    ///
    /// Implementations must validate every model invariant and return
    /// [`CodecError::Invalid`] rather than panicking, because the input
    /// may be arbitrary bytes that survived the checksum only by being a
    /// well-formed frame of lies.
    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Decodes a payload whose version is known to lie in
    /// `MIN_VERSION..=VERSION`. The default ignores `version` and calls
    /// [`Self::decode_payload`]; multi-version artifacts override this to
    /// branch on the layout actually present.
    fn decode_versioned_payload(version: u8, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let _ = version;
        Self::decode_payload(r)
    }

    /// Serializes the artifact with the standard envelope, in one buffer:
    /// the header goes down with a placeholder length, the payload is
    /// encoded in place behind it, then the length is patched and the
    /// checksum appended. Nested artifacts go through
    /// [`ByteWriter::put_artifact`], which frames them the same way in
    /// the parent's buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_frame(self);
        w.into_bytes()
    }

    /// Deserializes an artifact, validating magic, version, length and
    /// checksum before touching the payload. Never panics on hostile
    /// input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let found_magic = r.get_u32()?;
        if found_magic != Self::MAGIC {
            return Err(CodecError::BadMagic {
                artifact: Self::NAME,
                expected: Self::MAGIC,
                found: found_magic,
            });
        }
        let version = r.get_u8()?;
        if version < Self::MIN_VERSION || version > Self::VERSION {
            return Err(CodecError::UnsupportedVersion {
                artifact: Self::NAME,
                found: version,
                supported: Self::VERSION,
            });
        }
        let len = r.get_len()?;
        let body = r.remaining();
        match body.checked_sub(CHECKSUM_LEN) {
            None => {
                return Err(CodecError::Truncated {
                    needed: len + CHECKSUM_LEN,
                    available: body,
                })
            }
            Some(have) if have < len => {
                return Err(CodecError::Truncated {
                    needed: len + CHECKSUM_LEN,
                    available: body,
                })
            }
            Some(have) if have > len => {
                return Err(CodecError::TrailingBytes { count: have - len });
            }
            Some(_) => {}
        }
        let frame_end = HEADER_LEN + len;
        let expected = fnv1a_64(&bytes[..frame_end]);
        let found = u64::from_le_bytes(
            bytes[frame_end..frame_end + CHECKSUM_LEN]
                .try_into()
                .unwrap(),
        );
        if expected != found {
            return Err(CodecError::ChecksumMismatch { expected, found });
        }
        let mut payload = ByteReader::new(&bytes[HEADER_LEN..frame_end]);
        let value = Self::decode_versioned_payload(version, &mut payload)?;
        payload.finish()?;
        Ok(value)
    }
}

/// Test support: asserts a codec survives hostile mutations of a valid
/// frame — every strict prefix and every single-bit flip must yield a
/// typed [`CodecError`], never a panic and never a silent `Ok`.
///
/// Single-bit flips are always *detected* (not merely usually): header
/// fields are validated structurally and the FNV-1a state transition is a
/// bijection per input byte, so one corrupted byte always changes the
/// checksum.
pub fn assert_hostile_input_fails<T: BinaryCodec>(frame: &[u8]) {
    for cut in 0..frame.len() {
        assert!(
            T::from_bytes(&frame[..cut]).is_err(),
            "{}: truncation to {cut}/{} bytes decoded successfully",
            T::NAME,
            frame.len()
        );
    }
    let mut mutated = frame.to_vec();
    for i in 0..mutated.len() {
        for bit in 0..8 {
            mutated[i] ^= 1 << bit;
            assert!(
                T::from_bytes(&mutated).is_err(),
                "{}: bit flip at byte {i} bit {bit} decoded successfully",
                T::NAME
            );
            mutated[i] ^= 1 << bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        id: u64,
        scale: f64,
        tags: Vec<f64>,
        label: String,
        flag: bool,
    }

    impl BinaryCodec for Probe {
        const MAGIC: u32 = magic(b"TPRB");
        const VERSION: u8 = 3;
        const NAME: &'static str = "Probe";

        fn encode_payload(&self, w: &mut ByteWriter) {
            w.put_u64(self.id);
            w.put_f64(self.scale);
            w.put_f64s(&self.tags);
            w.put_string(&self.label);
            w.put_bool(self.flag);
        }

        fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(Self {
                id: r.get_u64()?,
                scale: r.get_f64()?,
                tags: r.get_f64s()?,
                label: r.get_string()?,
                flag: r.get_bool()?,
            })
        }
    }

    fn probe() -> Probe {
        Probe {
            id: 0xDEAD_BEEF_0042,
            scale: -3.25e-9,
            tags: vec![1.0, f64::MIN_POSITIVE, -0.0, 6.02e23],
            label: "probe/α".into(),
            flag: true,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let p = probe();
        let bytes = p.to_bytes();
        assert_eq!(Probe::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn put_artifact_writes_the_nested_frame_bytes() {
        let p = probe();
        let mut copied = ByteWriter::new();
        copied.put_u8(7);
        copied.put_nested(&p.to_bytes());
        let mut in_place = ByteWriter::new();
        in_place.put_u8(7);
        in_place.put_artifact(&p);
        let bytes = in_place.into_bytes();
        assert_eq!(bytes, copied.into_bytes());
        let mut r = ByteReader::new(&bytes[1..]);
        assert_eq!(Probe::from_bytes(r.get_nested().unwrap()).unwrap(), p);
        r.finish().unwrap();
    }

    #[test]
    fn nan_survives_round_trip_bitwise() {
        let mut p = probe();
        p.scale = f64::NAN;
        let back = Probe::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back.scale.to_bits(), p.scale.to_bits());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = probe().to_bytes();
        bytes[0] ^= 0xFF;
        match Probe::from_bytes(&bytes) {
            Err(CodecError::BadMagic { artifact, .. }) => assert_eq!(artifact, "Probe"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = probe().to_bytes();
        bytes[4] = Probe::VERSION + 1;
        match Probe::from_bytes(&bytes) {
            Err(CodecError::UnsupportedVersion {
                found, supported, ..
            }) => {
                assert_eq!(found, Probe::VERSION + 1);
                assert_eq!(supported, Probe::VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = probe().to_bytes();
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            Probe::from_bytes(&bytes),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = probe().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Probe::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate_or_panic() {
        // A frame whose inner vector length claims u32::MAX elements: the
        // reader must notice the byte budget is impossible before
        // allocating.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_f64s(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn truncation_and_bit_flips_always_fail() {
        assert_hostile_input_fails::<Probe>(&probe().to_bytes());
    }

    #[test]
    fn bulk_slices_match_per_element_encoding() {
        let f = [1.5, -0.0, f64::NAN, f64::from_bits(1), f64::NEG_INFINITY];
        let g = [2.5f32, -0.0, f32::INFINITY];
        let h = [i16::MIN, -1, 0, i16::MAX];
        let mut bulk = ByteWriter::new();
        bulk.put_f64_slice(&f);
        bulk.put_f32_slice(&g);
        bulk.put_i16_slice(&h);
        let mut each = ByteWriter::new();
        f.iter().for_each(|&x| each.put_f64(x));
        g.iter().for_each(|&x| each.put_u32(x.to_bits()));
        h.iter().for_each(|&x| each.put_i16(x));
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, each.into_bytes());

        let mut r = ByteReader::new(&bytes);
        let back: Vec<u64> = r
            .get_f64_vec(f.len())
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(back, f.map(f64::to_bits));
        let back: Vec<u32> = r
            .get_f32_vec(g.len())
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(back, g.map(f32::to_bits));
        assert_eq!(r.get_i16_vec(h.len()).unwrap(), h);
        r.finish().unwrap();

        // A short budget is refused whole, before anything is consumed.
        let mut r = ByteReader::new(&bytes[..15]);
        assert_eq!(
            r.get_f64_vec(2),
            Err(CodecError::Truncated {
                needed: 16,
                available: 15
            })
        );
        assert_eq!(r.remaining(), 15);
    }

    #[test]
    fn fnv_vector() {
        // Canonical FNV-1a/64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn reader_reports_truncation_sizes() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u8().unwrap(), 1);
        match r.get_u64() {
            Err(CodecError::Truncated { needed, available }) => {
                assert_eq!((needed, available), (8, 2));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}

//! The one binary codec behind every byte format in the workspace: `.fplan`
//! plan artifacts (`fuse-graph`), `FCKP` checkpoints (`fuse-nn`) and `FNET`
//! wire frames with the messages inside them (`fuse-net`).
//!
//! * [`Writer`] and [`Reader`] encode and decode little-endian primitives.
//!   Floats travel as their IEEE-754 bit patterns, so a value decodes to
//!   exactly the bits that were encoded (NaN payloads included). Every read
//!   names what it reads, and every count read from input is bounded by the
//!   bytes that remain before anything is allocated for it.
//! * [`seal`] and [`open`] wrap a payload in the container `.fplan` and
//!   `FNET` share byte for byte:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, ASCII
//! 4       4     format version, u32 LE
//! 8       8     payload length N, u64 LE (at most MAX_PAYLOAD)
//! 16      N     payload
//! 16+N    8     FNV-1a-64 of the payload, u64 LE
//! ```
//!
//!   `FCKP` predates the length field (`magic | version | payload | FNV`);
//!   it is built from the same parts, [`Reader::header`] and
//!   [`Reader::checksum`].
//! * [`CodecError`] is the one error type for all of these failures.
//!
//! The checksum is an integrity check, not an authenticity one: anyone can
//! recompute it, so decoders above this layer must still treat every field
//! as untrusted input.

use std::fmt;
use std::ops::RangeInclusive;

/// Size of a sealed container's header: magic, version, payload length.
pub const HEADER_LEN: usize = 16;

/// Size of every container's trailer: the FNV-1a-64 checksum.
pub const TRAILER_LEN: usize = 8;

/// Structural cap on a sealed payload (1 GiB). A corrupt or forged length
/// field must surface as a typed error, not an absurd allocation; decoders
/// apply the same cap to anything they size from a payload field.
pub const MAX_PAYLOAD: u64 = 1 << 30;

/// FNV-1a 64-bit hash: dependency-free, byte-order independent, and enough
/// to catch truncation and bit rot.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The buffer does not open with the format's magic.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
        /// The four bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The format version is outside what this build reads.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The versions this build reads.
        supported: RangeInclusive<u32>,
    },
    /// The payload does not hash to the checksum in the trailer.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload as read.
        computed: u64,
    },
    /// The buffer ended before the value being read did.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The header declares a payload above [`MAX_PAYLOAD`].
    TooLarge {
        /// Declared payload length.
        len: u64,
        /// The cap.
        max: u64,
    },
    /// Bytes remain after a complete structure.
    Trailing {
        /// The structure that should have ended the buffer.
        what: &'static str,
        /// How many bytes remain.
        extra: usize,
    },
    /// A value was read whole but is not valid (not UTF-8, does not fit a
    /// `usize`).
    Invalid {
        /// What was being read.
        what: &'static str,
        /// Why it is rejected.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { expected, found } => {
                write!(f, "magic bytes {found:?} != b\"{}\"", String::from_utf8_lossy(expected))
            }
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "format v{found} unsupported (this build reads v{}..=v{})",
                supported.start(),
                supported.end()
            ),
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            CodecError::Truncated { what, needed, available } => write!(
                f,
                "truncated while reading {what}: needed {needed} bytes, found {available}"
            ),
            CodecError::TooLarge { len, max } => {
                write!(f, "header declares a {len}-byte payload (max {max})")
            }
            CodecError::Trailing { what, extra } => {
                write!(f, "{extra} trailing bytes after the {what}")
            }
            CodecError::Invalid { what, reason } => write!(f, "invalid {what}: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Wraps `payload` in a sealed container (see the module docs).
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    w.raw(&magic);
    w.u32(version);
    w.usize(payload.len());
    w.raw(payload);
    w.u64(fnv1a64(payload));
    w.into_bytes()
}

/// Validates a sealed container's header (magic, version, size cap) and
/// returns the total length it declares, so a stream reader knows how many
/// bytes to buffer before [`open`] can run.
pub fn sealed_len(header: &[u8], magic: [u8; 4], versions: RangeInclusive<u32>) -> Result<usize> {
    let mut r = Reader::new(header);
    r.header(magic, versions)?;
    Ok(HEADER_LEN + r.payload_len()? + TRAILER_LEN)
}

/// Opens a sealed container that must fill `bytes` exactly, returning its
/// format version and payload once the header and checksum check out.
pub fn open(bytes: &[u8], magic: [u8; 4], versions: RangeInclusive<u32>) -> Result<(u32, &[u8])> {
    let mut r = Reader::new(bytes);
    let version = r.header(magic, versions)?;
    let len = r.payload_len()?;
    let payload = r.raw(len, "payload")?;
    r.checksum(payload)?;
    r.finish("checksum")?;
    Ok((version, payload))
}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Finishes writing and takes the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes verbatim, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u32` element count, the counterpart of
    /// [`Reader::len_prefix_u32`]. Panics past `u32::MAX`, which none of the
    /// structures counted this way (names, ranks, plan steps) reaches.
    pub fn len_prefix_u32(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("a u32 element count fits in u32"));
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn str_u32(&mut self, v: &str) {
        self.len_prefix_u32(v.len());
        self.raw(v.as_bytes());
    }

    /// Appends a byte blob with a `u64` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// Appends an `f32` slice (bit patterns) with a `u64` length prefix.
    pub fn f32_slice(&mut self, v: &[f32]) {
        self.usize(v.len());
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.f32(x);
        }
    }

    /// Appends an `i8` slice (two's-complement bytes) with a `u64` length
    /// prefix.
    pub fn i8_slice(&mut self, v: &[i8]) {
        self.usize(v.len());
        self.buf.extend(v.iter().map(|&x| x as u8));
    }
}

/// Cursor over a borrowed buffer; each read consumes what it returns.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every byte was consumed. Decoders call this last, so a
    /// valid `what` followed by garbage is an error, not an ignored tail.
    pub fn finish(&self, what: &'static str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::Trailing { what, extra }),
        }
    }

    /// Reads `n` bytes verbatim.
    pub fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let available = self.remaining();
        if available < n {
            return Err(CodecError::Truncated { what, needed: n, available });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes and returns every remaining byte.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N]> {
        Ok(self.raw(N, what)?.try_into().expect("raw returns exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.raw(1, what)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u64` that must fit a `usize`. A value used as a count goes
    /// through [`Reader::len_prefix`] instead, which also bounds it.
    pub fn usize(&mut self, what: &'static str) -> Result<usize> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| CodecError::Invalid { what, reason: format!("{v} does not fit a usize") })
    }

    /// Reads a `u64` count of `unit`-byte items and checks that the items
    /// fit in the bytes that remain, so a corrupt count cannot size an
    /// allocation.
    pub fn len_prefix(&mut self, unit: usize, what: &'static str) -> Result<usize> {
        let len = self.usize(what)?;
        self.bounded(len, unit, what)
    }

    /// [`Reader::len_prefix`] for a `u32` count.
    pub fn len_prefix_u32(&mut self, unit: usize, what: &'static str) -> Result<usize> {
        let len = self.u32(what)? as usize;
        self.bounded(len, unit, what)
    }

    fn bounded(&self, len: usize, unit: usize, what: &'static str) -> Result<usize> {
        let needed = len.saturating_mul(unit.max(1));
        let available = self.remaining();
        if needed > available {
            return Err(CodecError::Truncated { what, needed, available });
        }
        Ok(len)
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self, what: &'static str) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    fn utf8(bytes: &[u8], what: &'static str) -> Result<String> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid { what, reason: format!("not UTF-8: {e}") })
    }

    /// Reads a UTF-8 string with a `u64` length prefix.
    pub fn str(&mut self, what: &'static str) -> Result<String> {
        let len = self.len_prefix(1, what)?;
        Self::utf8(self.raw(len, what)?, what)
    }

    /// Reads a UTF-8 string with a `u32` length prefix.
    pub fn str_u32(&mut self, what: &'static str) -> Result<String> {
        let len = self.len_prefix_u32(1, what)?;
        Self::utf8(self.raw(len, what)?, what)
    }

    /// Reads a byte blob with a `u64` length prefix.
    pub fn blob(&mut self, what: &'static str) -> Result<Vec<u8>> {
        let len = self.len_prefix(1, what)?;
        Ok(self.raw(len, what)?.to_vec())
    }

    /// Reads an `f32` slice (bit patterns) with a `u64` length prefix.
    pub fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>> {
        let len = self.len_prefix(4, what)?;
        let bytes = self.raw(len * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4 bytes")))
            .collect())
    }

    /// Reads an `i8` slice with a `u64` length prefix.
    pub fn i8_vec(&mut self, what: &'static str) -> Result<Vec<i8>> {
        let len = self.len_prefix(1, what)?;
        Ok(self.raw(len, what)?.iter().map(|&b| b as i8).collect())
    }

    /// Reads and checks a container's magic and `u32` format version,
    /// returning the version.
    pub fn header(&mut self, magic: [u8; 4], versions: RangeInclusive<u32>) -> Result<u32> {
        let found = self.array("magic")?;
        if found != magic {
            return Err(CodecError::BadMagic { expected: magic, found });
        }
        let version = self.u32("format version")?;
        if !versions.contains(&version) {
            return Err(CodecError::UnsupportedVersion { found: version, supported: versions });
        }
        Ok(version)
    }

    fn payload_len(&mut self) -> Result<usize> {
        let len = self.u64("payload length")?;
        if len > MAX_PAYLOAD {
            return Err(CodecError::TooLarge { len, max: MAX_PAYLOAD });
        }
        Ok(len as usize)
    }

    /// Reads a `u64` FNV-1a-64 trailer and checks it against `payload`.
    pub fn checksum(&mut self, payload: &[u8]) -> Result<()> {
        let stored = self.u64("checksum")?;
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f32(f32::from_bits(0x7f80_0001)); // a signalling NaN pattern
        w.f64(std::f64::consts::PI);
        w.str("héllo");
        w.str_u32("wörld");
        w.bytes(&[1, 2, 3]);
        w.f32_slice(&[1.5, -2.25]);
        w.i8_slice(&[-128, 0, 127]);
        w.raw(b"tail");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f32("d").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f32("e").unwrap().to_bits(), 0x7f80_0001);
        assert_eq!(r.f64("f").unwrap(), std::f64::consts::PI);
        assert_eq!(r.str("g").unwrap(), "héllo");
        assert_eq!(r.str_u32("h").unwrap(), "wörld");
        assert_eq!(r.blob("i").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f32_vec("j").unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.i8_vec("k").unwrap(), vec![-128, 0, 127]);
        assert_eq!(r.rest(), b"tail");
        r.finish("test record").unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(
            r.u64("word").unwrap_err(),
            CodecError::Truncated { what: "word", needed: 8, available: 4 }
        );

        // A corrupt length prefix larger than the remaining buffer must not
        // allocate; it fails as truncation.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        for unit in [1, 4] {
            let mut r = Reader::new(&bytes);
            assert_eq!(
                r.len_prefix(unit, "blob").unwrap_err(),
                CodecError::Truncated { what: "blob", needed: usize::MAX, available: 0 }
            );
        }
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(matches!(r.str_u32("name"), Err(CodecError::Truncated { what: "name", .. })));

        let mut r = Reader::new(&[0, 1, 2]);
        r.u8("x").unwrap();
        assert_eq!(r.finish("x").unwrap_err(), CodecError::Trailing { what: "x", extra: 2 });

        let mut r = Reader::new(&[1, 0, 0, 0, 0xff]);
        assert!(matches!(r.str_u32("name"), Err(CodecError::Invalid { what: "name", .. })));
    }
}

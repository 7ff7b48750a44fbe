//! The `FNET` wire frame: the length-prefixed, checksummed container every
//! byte on a cluster link travels in.
//!
//! The container is [`fuse_tensor::codec::seal`]'s, byte for byte the one
//! `.fplan` artifacts use. Normatively:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, ASCII "FNET"
//! 4       4     format version, u32 LE (currently 1)
//! 8       8     payload length N, u64 LE (at most 1 GiB)
//! 16      N     payload (opaque to the framing layer)
//! 16+N    8     FNV-1a-64 of the payload, u64 LE
//! ```
//!
//! Compatibility rules match the `.fplan` section of `REPRODUCIBILITY.md`:
//! the magic never changes; any layout change bumps the version; a decoder
//! rejects unknown versions rather than guessing; the checksum is computed
//! over the payload only (the header is validated structurally), and a
//! mismatch is a typed error, never a silent truncation.

use fuse_tensor::codec;

use crate::Result;

/// Frame magic: `"FNET"`.
pub const FRAME_MAGIC: [u8; 4] = *b"FNET";

/// Current frame format version.
pub const FRAME_VERSION: u32 = 1;

/// Wraps `payload` in a complete `FNET` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    codec::seal(FRAME_MAGIC, FRAME_VERSION, payload)
}

/// Validates a frame header and returns the *total* frame length (header +
/// payload + trailer) it declares. Stream transports use this to know how
/// many bytes to accumulate before [`decode_frame`] can run.
///
/// # Errors
///
/// Returns [`crate::NetError::Codec`] when fewer than
/// [`codec::HEADER_LEN`] bytes are given, or the magic, version or declared
/// length is wrong.
pub fn frame_len(header: &[u8]) -> Result<usize> {
    Ok(codec::sealed_len(header, FRAME_MAGIC, FRAME_VERSION..=FRAME_VERSION)?)
}

/// Decodes exactly one frame from `bytes` and returns its payload.
///
/// # Errors
///
/// Returns [`crate::NetError::Codec`] for the header errors of
/// [`frame_len`], a buffer shorter or longer than the declared frame, and a
/// payload that does not hash to the trailer.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8]> {
    Ok(codec::open(bytes, FRAME_MAGIC, FRAME_VERSION..=FRAME_VERSION)?.1)
}

#[cfg(test)]
mod tests {
    use fuse_tensor::codec::{CodecError, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN};

    use super::*;
    use crate::NetError;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"the quick brown fox", &[0u8; 1000]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
            assert_eq!(decode_frame(&frame).unwrap(), payload);
        }
    }

    #[test]
    fn corruption_matrix_yields_typed_errors() {
        let frame = encode_frame(b"payload");
        let codec_err = |bytes: &[u8]| match decode_frame(bytes).unwrap_err() {
            NetError::Codec(e) => e,
            other => panic!("expected a codec error, got {other:?}"),
        };

        // Truncated header.
        assert_eq!(
            codec_err(&frame[..10]),
            CodecError::Truncated { what: "payload length", needed: 8, available: 2 }
        );
        // Wrong magic.
        let mut bad = frame.clone();
        bad[0] = b'J';
        assert_eq!(
            codec_err(&bad),
            CodecError::BadMagic { expected: FRAME_MAGIC, found: *b"JNET" }
        );
        // Unsupported version.
        let mut bad = frame.clone();
        bad[4] = 99; // low byte of the LE version word
        assert_eq!(codec_err(&bad), CodecError::UnsupportedVersion { found: 99, supported: 1..=1 });
        // Truncated payload.
        assert_eq!(
            codec_err(&frame[..frame.len() - 1]),
            CodecError::Truncated { what: "checksum", needed: 8, available: 7 }
        );
        assert_eq!(
            codec_err(&frame[..HEADER_LEN + 3]),
            CodecError::Truncated { what: "payload", needed: 7, available: 3 }
        );
        // Flipped payload byte → checksum mismatch.
        let mut bad = frame.clone();
        bad[HEADER_LEN] ^= 0xff;
        assert!(matches!(codec_err(&bad), CodecError::ChecksumMismatch { .. }));
        // Flipped trailer byte → checksum mismatch.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(codec_err(&bad), CodecError::ChecksumMismatch { .. }));
        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert_eq!(codec_err(&bad), CodecError::Trailing { what: "checksum", extra: 1 });
        // Absurd declared length.
        let mut bad = frame;
        bad[8..16].fill(0xff);
        assert_eq!(codec_err(&bad), CodecError::TooLarge { len: u64::MAX, max: MAX_PAYLOAD });
    }

    #[test]
    fn frame_len_reports_the_full_frame_size() {
        let frame = encode_frame(b"12345");
        assert_eq!(frame_len(&frame[..HEADER_LEN]).unwrap(), frame.len());
    }
}

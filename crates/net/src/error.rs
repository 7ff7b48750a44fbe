//! Error type for the wire layer.

use std::error::Error;
use std::fmt;

use fuse_tensor::codec::CodecError;

/// Error returned by fallible wire operations (framing, transports, RPC).
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A frame or message failed at the byte level: wrong magic,
    /// unsupported version, checksum mismatch, truncation, an oversized
    /// payload or trailing bytes.
    Codec(CodecError),
    /// A frame payload decoded cleanly as bytes but not as the expected
    /// message structure.
    Decode(String),
    /// An I/O error on a TCP transport.
    Io(String),
    /// A remote call gave up after exhausting its retransmission attempts.
    Timeout,
    /// The peer is gone for good (socket closed, simulated endpoint
    /// dropped); retrying cannot help.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "wire codec error: {e}"),
            NetError::Decode(msg) => write!(f, "wire decode error: {msg}"),
            NetError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            NetError::Timeout => write!(f, "remote call timed out after all retransmissions"),
            NetError::Disconnected => write!(f, "transport peer disconnected"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_interesting_numbers() {
        let cut = CodecError::Truncated { what: "frame header", needed: 16, available: 3 };
        assert!(NetError::from(cut).to_string().contains("frame header"));
        let magic = CodecError::BadMagic { expected: *b"FNET", found: *b"JUNK" };
        assert!(NetError::from(magic).to_string().contains("FNET"));
        let version = CodecError::UnsupportedVersion { found: 9, supported: 1..=1 };
        assert!(NetError::from(version).to_string().contains('9'));
        let e = NetError::from(CodecError::ChecksumMismatch { stored: 1, computed: 2 });
        assert!(e.to_string().contains("0x"));
        let large = CodecError::TooLarge { len: 10, max: 5 };
        assert!(NetError::from(large).to_string().contains("10"));
        assert!(NetError::Decode("tag 77".into()).to_string().contains("tag 77"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}

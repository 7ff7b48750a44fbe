//! Pluggable frame transports.
//!
//! A [`Transport`] moves opaque payloads between two endpoints, one `FNET`
//! frame per payload. The contract is deliberately weak — exactly what a
//! flaky datagram link gives you: a sent payload may arrive zero, one, or
//! more times, and payloads may arrive out of order. The [`crate::rpc`]
//! layer builds exactly-once request/response semantics on top, so shard
//! state machines never see the weakness.
//!
//! Two implementations ship:
//!
//! * [`TcpTransport`] — a real TCP/loopback stream with `FNET` framing (TCP
//!   itself neither drops nor reorders, but the RPC layer does not rely on
//!   that).
//! * [`crate::sim::SimTransport`] — an in-memory pair with injectable
//!   delay, drop, duplication and reordering, used by tests to prove the
//!   serving contract holds on a link that exercises every recovery path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fuse_tensor::codec::HEADER_LEN;

use crate::error::NetError;
use crate::frame::{decode_frame, encode_frame, frame_len};
use crate::Result;

/// A bidirectional, frame-oriented, possibly-unreliable link endpoint.
pub trait Transport: Send {
    /// Sends one payload as one `FNET` frame. Delivery is not guaranteed
    /// (an implementation may drop, duplicate, reorder or delay it).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when the peer is gone for good
    /// and [`NetError::Io`] for transport-level failures.
    fn send(&mut self, payload: &[u8]) -> Result<()>;

    /// Receives the next frame's payload, waiting at most `timeout`.
    /// Returns `Ok(None)` when the deadline passes with nothing received —
    /// the signal the RPC layer's retransmission timer runs on.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when the peer is gone for good,
    /// frame-validation errors for corrupt data, and [`NetError::Io`] for
    /// transport-level failures.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>>;
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        (**self).send(payload)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        (**self).recv_timeout(timeout)
    }
}

/// `FNET` framing over a TCP stream (loopback or real network).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes read off the stream but not yet consumed as a complete frame;
    /// a read timeout mid-frame keeps the partial frame here.
    rx_buf: Vec<u8>,
}

impl TcpTransport {
    /// Connects to a listening host shard.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the connection fails.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-established stream (e.g. from `TcpListener::accept`).
    pub fn from_stream(stream: TcpStream) -> Self {
        // Frames are small and latency-bound; never batch them.
        let _ = stream.set_nodelay(true);
        TcpTransport { stream, rx_buf: Vec::new() }
    }

    /// Pops one complete frame's payload off the head of `rx_buf`, when one
    /// is fully buffered.
    fn take_buffered_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.rx_buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let total = frame_len(&self.rx_buf)?;
        if self.rx_buf.len() < total {
            return Ok(None);
        }
        let payload = decode_frame(&self.rx_buf[..total])?.to_vec();
        self.rx_buf.drain(..total);
        Ok(Some(payload))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        self.stream.write_all(&encode_frame(payload)).map_err(map_io)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(payload) = self.take_buffered_frame()? {
                return Ok(Some(payload));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // `set_read_timeout(Some(0))` is an error by contract; the
            // deadline check above keeps this strictly positive anyway, but
            // clamp defensively.
            let remaining = (deadline - now).max(Duration::from_millis(1));
            self.stream.set_read_timeout(Some(remaining)).map_err(map_io)?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.rx_buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(map_io(e)),
            }
        }
    }
}

fn map_io(e: std::io::Error) -> NetError {
    match e.kind() {
        std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::UnexpectedEof => NetError::Disconnected,
        _ => NetError::Io(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn tcp_round_trips_frames_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream);
            // Echo two messages back, then a large one.
            for _ in 0..3 {
                let msg = t.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
                t.send(&msg).unwrap();
            }
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(10)).unwrap(),
            None,
            "nothing sent yet: the deadline must pass quietly"
        );
        for msg in [&b"ping"[..], b"", &vec![0xabu8; 100_000]] {
            client.send(msg).unwrap();
            let echoed = client.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            assert_eq!(echoed, msg);
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_reports_a_closed_peer_as_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        server.join().unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            NetError::Disconnected
        );
    }
}

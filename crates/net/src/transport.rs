//! Socket transport: one enum over TCP and Unix-domain endpoints.
//!
//! The cluster protocol is transport-agnostic — everything above this
//! module speaks [`Stream`]/[`Listener`] and never sees which socket
//! family is underneath. Loopback clusters use Unix-domain sockets
//! (no ports to collide, the kernel cleans up with the directory);
//! TCP covers actual remote peers and platforms where a path-named
//! socket is inconvenient.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a peer listens: a TCP socket address or a Unix-domain
/// socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:7700`.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            EndpointAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound, non-blocking listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr` in non-blocking accept mode (the accept loop
    /// polls so it can observe shutdown). A stale Unix socket file
    /// left by a crashed process is removed first.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &EndpointAddr) -> io::Result<Self> {
        match addr {
            EndpointAddr::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
            EndpointAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener))
            }
        }
    }

    /// The address actually bound — for TCP this resolves a port-0
    /// bind to the kernel-assigned port, which is how the stats
    /// endpoint advertises a scrapable address without a fixed port.
    ///
    /// # Errors
    ///
    /// Propagates getsockname failures; fails for an unnamed
    /// Unix-domain listener (never produced by [`Listener::bind`]).
    pub fn local_addr(&self) -> io::Result<EndpointAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().map(EndpointAddr::Tcp),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                addr.as_pathname()
                    .map(|p| EndpointAddr::Unix(p.to_path_buf()))
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "unnamed unix listener")
                    })
            }
        }
    }

    /// Accepts one pending connection, or `None` when nothing is
    /// waiting. The returned stream is switched back to blocking
    /// mode, with `TCP_NODELAY` set on TCP (see [`Stream::connect`]).
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `WouldBlock`.
    pub fn accept_pending(&self) -> io::Result<Option<Stream>> {
        let accepted = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay()?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// One established connection over either socket family.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr` (blocking). TCP connections set
    /// `TCP_NODELAY`: the peer layer already coalesces whatever is
    /// queued into one write, so a frame must not also wait behind
    /// Nagle for the peer's delayed ACK.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (e.g. the peer is not yet
    /// listening — the peer layer retries with backoff).
    pub fn connect(addr: &EndpointAddr) -> io::Result<Self> {
        let stream = match addr {
            EndpointAddr::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr)?),
            EndpointAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_nodelay()?;
        Ok(stream)
    }

    /// Clones the handle (reader and writer threads each own one).
    ///
    /// # Errors
    ///
    /// Propagates `dup` failures.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Sets (or clears) the read timeout — used only during the
    /// HELLO handshake so a silent counterparty cannot pin a thread.
    ///
    /// # Errors
    ///
    /// Propagates setsockopt failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Sets `TCP_NODELAY` on a TCP stream; Unix-domain sockets have no
    /// Nagle delay.
    fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            Stream::Unix(_) => Ok(()),
        }
    }

    /// Half-closes the write side, signalling a clean end of stream
    /// to the peer while reads continue (the drain path).
    pub fn shutdown_write(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Write),
            Stream::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }

    /// Tears the connection down in both directions, unblocking any
    /// thread parked in a read or write on a clone of this handle.
    pub fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_unix_addr(tag: &str) -> EndpointAddr {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        EndpointAddr::Unix(
            std::env::temp_dir().join(format!("bsub-net-{}-{tag}-{n}.sock", std::process::id())),
        )
    }

    #[test]
    fn unix_round_trip_and_nonblocking_accept() {
        let addr = scratch_unix_addr("rt");
        let listener = Listener::bind(&addr).unwrap();
        assert!(
            listener.accept_pending().unwrap().is_none(),
            "nothing pending yet"
        );
        let mut client = Stream::connect(&addr).unwrap();
        let mut server = loop {
            if let Some(s) = listener.accept_pending().unwrap() {
                break s;
            }
        };
        let frame = Frame::new(FrameKind::Hello, vec![1, 2, 3]);
        frame.write_to(&mut client).unwrap();
        assert_eq!(Frame::read_from(&mut server).unwrap(), frame);
        if let EndpointAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn tcp_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = EndpointAddr::Tcp(listener.local_addr().unwrap());
        drop(listener);
        let listener = Listener::bind(&addr).unwrap();
        let mut client = Stream::connect(&addr).unwrap();
        let mut server = loop {
            if let Some(s) = listener.accept_pending().unwrap() {
                break s;
            }
        };
        for stream in [&client, &server] {
            match stream {
                Stream::Tcp(s) => assert!(s.nodelay().unwrap(), "TCP_NODELAY is set"),
                Stream::Unix(_) => panic!("connected over TCP"),
            }
        }
        let frame = Frame::new(FrameKind::PublishOk, 9u64.to_le_bytes().to_vec());
        frame.write_to(&mut server).unwrap();
        assert_eq!(Frame::read_from(&mut client).unwrap(), frame);
        assert!(addr.to_string().starts_with("tcp://127.0.0.1:"));
    }

    #[test]
    fn local_addr_resolves_port_zero() {
        let wildcard = EndpointAddr::Tcp("127.0.0.1:0".parse().unwrap());
        let listener = Listener::bind(&wildcard).unwrap();
        let bound = listener.local_addr().unwrap();
        match &bound {
            EndpointAddr::Tcp(addr) => assert_ne!(addr.port(), 0, "kernel assigned a port"),
            EndpointAddr::Unix(_) => panic!("bound a TCP listener"),
        }
        assert!(Stream::connect(&bound).is_ok());

        let unix = scratch_unix_addr("la");
        let listener = Listener::bind(&unix).unwrap();
        assert_eq!(listener.local_addr().unwrap(), unix);
        if let EndpointAddr::Unix(path) = &unix {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn bind_replaces_stale_unix_socket() {
        let addr = scratch_unix_addr("stale");
        let first = Listener::bind(&addr).unwrap();
        drop(first); // leaves the socket file behind
        let second = Listener::bind(&addr);
        assert!(second.is_ok(), "stale socket file is swept on bind");
        if let EndpointAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn half_close_delivers_eof_after_buffered_data() {
        let addr = scratch_unix_addr("drain");
        let listener = Listener::bind(&addr).unwrap();
        let mut client = Stream::connect(&addr).unwrap();
        let mut server = loop {
            if let Some(s) = listener.accept_pending().unwrap() {
                break s;
            }
        };
        let frame = Frame::new(FrameKind::Done, Vec::new());
        frame.write_to(&mut client).unwrap();
        client.shutdown_write();
        // The buffered frame still arrives, then a clean EOF.
        assert_eq!(Frame::read_from(&mut server).unwrap(), frame);
        let err = Frame::read_from(&mut server).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        if let EndpointAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

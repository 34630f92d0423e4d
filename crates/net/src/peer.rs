//! The peer/connection manager: lifecycle, dial races, backpressure.
//!
//! A [`PeerManager`] owns one listening socket and at most one live
//! connection per remote peer. Each connection moves through the
//! explicit state machine of DESIGN.md §12.1:
//!
//! ```text
//! Idle → Dialing ──┐
//!                  ├→ Established → Draining → Closed
//! Idle → Accepting ┘        │
//!                           └→ Closed   (error / displaced by a race)
//! ```
//!
//! Every decision of that state machine lives in one pure `PeerCore`
//! behind one mutex: the dial-race tie-break (*the connection dialed by
//! the lower peer id wins*, DESIGN.md §12.2), the epoch-guarded retire,
//! drain and shutdown. This module is its shell: the accept, dial,
//! reader and writer threads do the I/O, call the core under that lock,
//! and tear down what it returns. A dial-race loser is counted under
//! the `net_race_lost` metric.
//!
//! **Handshake.** Three HELLO frames: the dialer announces itself,
//! the acceptor replies, and the dialer confirms. Neither side installs
//! the connection before the confirmation (the reason is at the
//! acceptor's confirmation read).
//!
//! **Backpressure.** Each connection's outbound path is a bounded
//! queue drained by a dedicated writer thread; [`PeerManager::send`]
//! blocks when the queue is full, so a slow peer throttles its
//! producers instead of growing an unbounded buffer. The writer
//! coalesces queued frames into one socket write, and the reader reads
//! through an 8 KiB buffer. Inbound frames from all peers funnel into
//! one channel read via [`PeerManager::recv_any`], where a close
//! notice follows an installed connection's last frame.
//!
//! **Reset semantics.** Frame streams never resynchronize: any read
//! error (CRC mismatch, unknown kind, EOF mid-frame) closes the
//! connection. Re-establishing is the dialer's job, with the
//! deterministic jittered backoff of [`crate::backoff`].

use crate::backoff::Backoff;
use crate::frame::{frame_size_hist, frame_time_hist, Frame, FrameKind, HEADER_LEN};
use crate::peer_core::PeerCore;
use crate::transport::{EndpointAddr, Listener, Stream};
use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{Counter, SharedReport, SizeHist};
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// A cluster-wide peer identity. Ids double as the dial-race
/// tiebreaker, so they must be unique within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// Lifecycle state of the connection toward one remote peer
/// (DESIGN.md §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// No connection and no attempt in progress.
    #[default]
    Idle,
    /// An outbound dial (including its HELLO exchange) is in flight.
    Dialing,
    /// An inbound connection's HELLO exchange is in flight.
    Accepting,
    /// The connection is live in both directions.
    Established,
    /// The outbound queue is closed and flushing; reads continue
    /// until the peer closes.
    Draining,
    /// The connection is gone (drained, errored, or displaced by a
    /// dial race).
    Closed,
}

/// Outbound queue depth per connection; a full queue blocks
/// [`PeerManager::send`] (backpressure).
const QUEUE_DEPTH: usize = 64;

/// Byte cap on one coalesced socket write. The writer thread encodes
/// queued frames into one reused buffer until the queue is empty or the
/// buffer reaches this size; a frame whose body alone exceeds it is
/// written from its own `Vec` behind the buffer, never copied.
const WRITE_BATCH_BYTES: usize = 8 * 1024;

/// Capacity of each connection's buffered frame reader: one `read`
/// returns as many queued frames as fit.
const READ_BUF_BYTES: usize = 8 * 1024;

/// Read timeout for the first two legs of the HELLO handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Dial attempts before [`PeerManager::connect`] gives up.
const DIAL_ATTEMPTS: u32 = 200;

/// Configuration for a [`PeerManager`].
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This peer's identity.
    pub local: PeerId,
    /// The address this peer listens on.
    pub addr: EndpointAddr,
    /// Seed for the deterministic dial backoff.
    pub seed: u64,
}

impl PeerConfig {
    /// A configuration for `local` listening on `addr`.
    #[must_use]
    pub fn new(local: PeerId, addr: EndpointAddr, seed: u64) -> Self {
        Self { local, addr, seed }
    }
}

/// One installed connection's handle. The `stream` handle exists to
/// tear the socket down; the reader and writer threads own clones.
struct Conn {
    tx: SyncSender<Frame>,
    stream: Stream,
}

struct Shared {
    local: PeerId,
    core: Mutex<PeerCore<Conn>>,
    /// Signalled on every change to the installed connections (install,
    /// displacement, retirement, drain, shutdown) so waiters like
    /// [`PeerManager::await_connections`] never poll on a fixed sleep.
    conns_changed: Condvar,
    /// Every peer's frames; `None` is the notice that the peer's
    /// installed connection closed.
    inbound: Sender<(PeerId, Option<Frame>)>,
    shutdown: AtomicBool,
    /// Cross-thread metrics sink (socket threads have no thread-local
    /// profiler); disabled unless armed via [`PeerManager::metrics`].
    metrics: SharedReport,
}

impl Shared {
    fn core(&self) -> MutexGuard<'_, PeerCore<Conn>> {
        self.core.lock().expect("peer core lock")
    }

    fn count(&self, c: Counter) {
        self.metrics.record(|r| r.add_counter(c, 1));
    }
}

/// Manages this peer's listening socket and its connections; see the
/// module docs for the lifecycle, race, and backpressure rules.
pub struct PeerManager {
    shared: Arc<Shared>,
    inbound_rx: Mutex<Receiver<(PeerId, Option<Frame>)>>,
    config: PeerConfig,
}

impl fmt::Debug for PeerManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerManager")
            .field("local", &self.config.local)
            .field("addr", &self.config.addr)
            .field("connections", &self.connection_count())
            .finish_non_exhaustive()
    }
}

impl PeerManager {
    /// Binds the configured address and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: PeerConfig) -> io::Result<Arc<Self>> {
        let listener = Listener::bind(&config.addr)?;
        let (inbound_tx, inbound_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            local: config.local,
            core: Mutex::new(PeerCore::new()),
            conns_changed: Condvar::new(),
            inbound: inbound_tx,
            shutdown: AtomicBool::new(false),
            metrics: SharedReport::new(),
        });
        let manager = Arc::new(Self {
            shared: Arc::clone(&shared),
            inbound_rx: Mutex::new(inbound_rx),
            config,
        });
        thread::spawn(move || accept_loop(&shared, &listener));
        Ok(manager)
    }

    /// This peer's identity.
    #[must_use]
    pub fn local(&self) -> PeerId {
        self.config.local
    }

    /// The cross-thread metrics sink shared by this peer's socket
    /// threads. Disabled until [`SharedReport::enable`] is called, so
    /// an unobserved runtime records nothing.
    #[must_use]
    pub fn metrics(&self) -> &SharedReport {
        &self.shared.metrics
    }

    /// The lifecycle state of the connection toward `peer`.
    #[must_use]
    pub fn state(&self, peer: PeerId) -> ConnState {
        self.shared.core().state(peer)
    }

    /// The number of live connections.
    #[must_use]
    pub fn connection_count(&self) -> usize {
        self.shared.core().connection_count()
    }

    /// Dials `peer` at `addr` until a connection is established (in
    /// either direction — losing a dial race to the peer's own dial
    /// still counts as connected), retrying with the deterministic
    /// jittered backoff.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] after the configured number of
    /// attempts; [`io::ErrorKind::Interrupted`] on shutdown.
    pub fn connect(&self, peer: PeerId, addr: &EndpointAddr) -> io::Result<()> {
        let mut backoff = Backoff::new(
            self.config.seed,
            u64::from(self.config.local.0),
            u64::from(peer.0),
        );
        for _ in 0..DIAL_ATTEMPTS {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "peer manager is shut down",
                ));
            }
            if !self.shared.core().begin(peer, ConnState::Dialing) {
                return Ok(()); // already established
            }
            match self.dial_once(peer, addr) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    self.shared.count(Counter::NetRetries);
                    self.shared.core().abandon(peer, ConnState::Dialing);
                    thread::sleep(backoff.next_delay());
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("could not reach {peer} at {addr}"),
        ))
    }

    fn dial_once(&self, peer: PeerId, addr: &EndpointAddr) -> io::Result<()> {
        let mut stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        hello(self.config.local).write_to(&mut stream)?;
        let reply = Frame::read_from(&mut stream)?;
        let remote = decode_hello(&reply)?;
        if remote != peer {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dialed {peer}, reached {remote}"),
            ));
        }
        // Third leg of the handshake: confirm so the acceptor knows
        // this socket was not abandoned to a reply timeout. Only after
        // this write does either side install.
        hello(self.config.local).write_to(&mut stream)?;
        stream.set_read_timeout(None)?;
        // Either this socket was installed or an existing (or
        // race-winning) connection already serves the peer — both
        // mean "connected".
        install(&self.shared, peer, stream, self.config.local)
    }

    /// Queues `frame` for `peer`. Blocks while the peer's bounded
    /// outbound queue is full — this is the backpressure surface.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] without a live connection;
    /// [`io::ErrorKind::BrokenPipe`] if the connection died while the
    /// frame was queued.
    pub fn send(&self, peer: PeerId, frame: Frame) -> io::Result<()> {
        let tx = self.shared.core().conn(peer).map(|c| c.tx.clone());
        let tx = tx.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no connection to {peer}"),
            )
        })?;
        // Try the fast path first so a full queue — the backpressure
        // surface — is observable before this call blocks on it.
        let frame = match tx.try_send(frame) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("{peer} went away"),
                ));
            }
            Err(TrySendError::Full(frame)) => {
                self.shared.count(Counter::NetSendStalls);
                frame
            }
        };
        tx.send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, format!("{peer} went away")))
    }

    /// Receives the next inbound frame from any peer, waiting at most
    /// `timeout`. `None` on timeout, or when the next item is a close
    /// notice, which this consumes ([`PeerManager::recv_any`] returns
    /// it).
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(PeerId, Frame)> {
        let (peer, frame) = self.recv_any(timeout)?;
        frame.map(|frame| (peer, frame))
    }

    /// Receives the next inbound item from any peer, waiting at most
    /// `timeout`: a frame, or `None` for the notice that the peer's
    /// installed connection closed. The notice follows every frame that
    /// connection delivered and precedes every frame of a later one.
    /// `None` on timeout.
    #[must_use]
    pub fn recv_any(&self, timeout: Duration) -> Option<(PeerId, Option<Frame>)> {
        self.inbound_rx
            .lock()
            .expect("inbound lock")
            .recv_timeout(timeout)
            .ok()
    }

    /// Waits until `count` connections are live.
    ///
    /// Readiness-driven: the waiter parks on a condvar that every
    /// install or removal signals, so assembly needs no polling interval
    /// that could starve the handshake threads on a 1-vCPU host. A
    /// bounded wait slice remains as a backstop; each slice that expires
    /// without progress is counted under `net_poll_starved`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] if the cluster does not assemble
    /// within `timeout`.
    pub fn await_connections(&self, count: usize, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.core();
        while core.connection_count() < count {
            let now = Instant::now();
            let before = core.connection_count();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{before} of {count} peers connected before timeout"),
                ));
            }
            let slice = (deadline - now).min(Duration::from_secs(1));
            let (guard, wait) = self
                .shared
                .conns_changed
                .wait_timeout(core, slice)
                .expect("peer core lock");
            core = guard;
            if wait.timed_out() && core.connection_count() <= before {
                self.shared.count(Counter::NetPollStarved);
            }
        }
        Ok(())
    }

    /// Starts a graceful drain toward `peer`: the outbound queue is
    /// closed and flushed by the writer, then the write side shuts
    /// down; the peer observes a clean EOF after the last frame. The
    /// state reads `Draining` until the peer closes its end, then
    /// `Closed`.
    pub fn drain(&self, peer: PeerId) {
        // Dropping the Conn drops its SyncSender; the writer thread
        // drains the queue, then half-closes the socket.
        if self.shared.core().drain(peer).is_some() {
            self.shared.conns_changed.notify_all();
        }
    }

    /// Tears down every connection and stops the accept loop.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let conns = self.shared.core().shutdown();
        self.shared.conns_changed.notify_all();
        for (_, conn) in conns {
            conn.stream.shutdown_both();
        }
    }
}

impl Drop for PeerManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The HELLO frame announcing `local`: its peer id, u32 LE.
fn hello(local: PeerId) -> Frame {
    let mut w = Writer::with_capacity(4);
    w.u32(local.0);
    Frame::new(FrameKind::Hello, w.into_bytes())
}

fn decode_hello(frame: &Frame) -> io::Result<PeerId> {
    let mut r = Reader::new(&frame.body);
    r.u32()
        .filter(|_| frame.kind == FrameKind::Hello && r.finish().is_some())
        .map(PeerId)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HELLO"))
}

/// Longest the accept loop sleeps between empty polls.
const ACCEPT_IDLE_CAP: Duration = Duration::from_millis(5);

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    // Adaptive wait instead of a fixed sleep: yield while a burst may
    // still be arriving, then back off geometrically to the cap. On a
    // 1-vCPU host the yields give handshake threads the core instead
    // of parking the loop for a full 5 ms at the worst moment.
    let mut idle = 0u32;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept_pending() {
            Ok(Some(stream)) => {
                idle = 0;
                let shared = Arc::clone(shared);
                thread::spawn(move || accept_handshake(&shared, stream));
            }
            Ok(None) => {
                idle = idle.saturating_add(1);
                if idle <= 3 {
                    thread::yield_now();
                } else {
                    let backoff = Duration::from_micros(200).saturating_mul(1 << (idle - 4).min(8));
                    thread::sleep(backoff.min(ACCEPT_IDLE_CAP));
                }
            }
            Err(_) => break,
        }
    }
}

fn accept_handshake(shared: &Arc<Shared>, mut stream: Stream) {
    let mut accepting = None;
    let outcome = (|| -> io::Result<()> {
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let remote = decode_hello(&Frame::read_from(&mut stream)?)?;
        shared.core().begin(remote, ConnState::Accepting);
        accepting = Some(remote);
        hello(shared.local).write_to(&mut stream)?;
        // Wait for the dialer's confirmation before installing: a
        // dialer whose reply read timed out abandons the socket and
        // retries, and installing its ghost here would let the ghost
        // win the duplicate-dial tiebreak against that retry. The
        // confirmation read is NOT timed: the counterparty proved
        // itself live with a valid HELLO, and our dialer either
        // confirms promptly or closes the socket (a clean EOF aborts
        // this read) — while a timeout here would re-open the window
        // in the other direction, dropping a socket the dialer
        // already considers established.
        stream.set_read_timeout(None)?;
        let confirm = decode_hello(&Frame::read_from(&mut stream)?)?;
        if confirm != remote {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake confirmation names a different peer",
            ));
        }
        // An accepted connection was dialed by the remote peer.
        install(shared, remote, stream, remote)
    })();
    // A failed handshake installed nothing: otherwise every abandoned
    // handshake (or spoofed id) would leave an `Accepting` entry behind.
    if let (Err(_), Some(remote)) = (outcome, accepting) {
        shared.core().abandon(remote, ConnState::Accepting);
    }
}

/// Installs a freshly handshaken connection; the core resolves a dial
/// race against an installed one, and the loser's socket is torn down.
fn install(shared: &Arc<Shared>, peer: PeerId, stream: Stream, dialer: PeerId) -> io::Result<()> {
    let reader_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
    let (epoch, loser) = shared.core().install(peer, dialer, Conn { tx, stream });
    if let Some(loser) = loser {
        loser.stream.shutdown_both();
        shared.count(Counter::NetRaceLost);
    }
    let Some(epoch) = epoch else { return Ok(()) };
    shared.conns_changed.notify_all();
    {
        let shared = Arc::clone(shared);
        thread::spawn(move || reader_loop(&shared, reader_stream, peer, epoch));
    }
    {
        let shared = Arc::clone(shared);
        thread::spawn(move || writer_loop(&shared, writer_stream, &rx));
    }
    Ok(())
}

/// The reader thread's view of a socket: a buffered reader, so one
/// `read` serves many frames and a frame's header and body come from
/// one `read`. The handshake reads the raw stream, so nothing past the
/// confirmation HELLO is ever buffered and lost.
pub(crate) fn frame_reader<R: Read>(inner: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUF_BYTES, inner)
}

fn reader_loop(shared: &Arc<Shared>, stream: Stream, peer: PeerId, epoch: u64) {
    let mut reader = frame_reader(stream);
    // Reset semantics: any read error — CRC mismatch, EOF mid-frame,
    // socket teardown — ends the connection; the stream is never
    // resynchronized.
    while let Ok(frame) = Frame::read_from(&mut reader) {
        let bytes = (HEADER_LEN + frame.body.len()) as u64;
        shared.metrics.record(|r| {
            r.add_counter(Counter::NetFramesRecv, 1);
            r.add_counter(Counter::NetBytesRecv, bytes);
        });
        if shared.inbound.send((peer, Some(frame))).is_err() {
            break;
        }
    }
    let mut core = shared.core();
    let Some(retired) = core.retire(peer, epoch) else {
        return; // displaced or closed already: the slot stays as it is
    };
    if let Some(conn) = retired {
        conn.stream.shutdown_both();
        // Queued under the lock that retired the slot, so the frames of
        // a connection installed later always follow the notice.
        let _ = shared.inbound.send((peer, None));
        shared.conns_changed.notify_all();
    }
}

/// The writer thread's reusable drain state.
#[derive(Default)]
struct Outbox {
    /// Encoded frames awaiting the drain's one write.
    buf: Vec<u8>,
    /// Kind and encoded size of each frame the last drain wrote, in
    /// queue order.
    sent: Vec<(FrameKind, u64)>,
}

impl Outbox {
    /// Writes `first` and whatever is queued behind it with one socket
    /// write. Frames are encoded into `buf` until the queue is empty or
    /// `buf` reaches [`WRITE_BATCH_BYTES`]. A frame whose body exceeds
    /// the cap ends the drain without being copied: it goes out from
    /// its own `Vec`, behind the buffered bytes, in the same vectored
    /// write. So queue order holds and the buffer stays bounded.
    fn drain(&mut self, w: &mut impl Write, first: Frame, rx: &Receiver<Frame>) -> io::Result<()> {
        self.buf.clear();
        self.sent.clear();
        let mut next = Some(first);
        while let Some(frame) = next {
            self.sent.push((frame.kind, frame.encoded_len() as u64));
            if frame.body.len() > WRITE_BATCH_BYTES {
                return frame.write_after(&self.buf, w);
            }
            frame.encode_into(&mut self.buf);
            next = if self.buf.len() < WRITE_BATCH_BYTES {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        w.write_all(&self.buf)
    }
}

fn writer_loop(shared: &Arc<Shared>, mut stream: Stream, rx: &Receiver<Frame>) {
    let mut outbox = Outbox::default();
    while let Ok(first) = rx.recv() {
        // The clock is read only when the sink is armed, keeping the
        // unobserved hot path free of syscalls.
        let started = shared.metrics.is_enabled().then(Instant::now);
        if outbox.drain(&mut stream, first, rx).is_err() {
            return; // reader notices the dead socket and retires it
        }
        let write_ns = started.map(|started| started.elapsed().as_nanos() as u64);
        shared.metrics.record(|r| {
            // Every frame of a drain records the drain's wall clock,
            // first dequeue to completed write, under its own kind.
            // Sizes are recorded on the send side only, so a
            // cluster-wide merge counts each frame exactly once.
            for &(kind, bytes) in &outbox.sent {
                if let Some(ns) = write_ns {
                    r.record_time(frame_time_hist(kind), ns);
                    r.record_size(frame_size_hist(kind), bytes);
                }
                r.add_counter(Counter::NetFramesSent, 1);
                r.add_counter(Counter::NetBytesSent, bytes);
            }
            r.record_size(SizeHist::NetFramesPerWrite, outbox.sent.len() as u64);
        });
    }
    // Queue closed (drain): everything queued has been written.
    stream.shutdown_write();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn scratch_addr(tag: &str) -> EndpointAddr {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        EndpointAddr::Unix(
            std::env::temp_dir().join(format!("bsub-peer-{}-{tag}-{n}.sock", std::process::id())),
        )
    }

    fn pair(
        tag: &str,
    ) -> (
        Arc<PeerManager>,
        Arc<PeerManager>,
        EndpointAddr,
        EndpointAddr,
    ) {
        let (a_addr, b_addr) = (
            scratch_addr(&format!("{tag}a")),
            scratch_addr(&format!("{tag}b")),
        );
        let a = PeerManager::bind(PeerConfig::new(PeerId(0), a_addr.clone(), 7)).unwrap();
        let b = PeerManager::bind(PeerConfig::new(PeerId(1), b_addr.clone(), 7)).unwrap();
        (a, b, a_addr, b_addr)
    }

    /// Golden bytes: a HELLO body is the sender's peer id, u32 LE, and
    /// nothing else.
    #[test]
    fn hello_bytes_are_pinned() {
        let frame = hello(PeerId(0x0A0B_0C0D));
        assert_eq!(frame.kind, FrameKind::Hello);
        assert_eq!(frame.body, [0x0D, 0x0C, 0x0B, 0x0A]);
        assert_eq!(decode_hello(&frame).unwrap(), PeerId(0x0A0B_0C0D));
        for body in [vec![1, 2, 3], vec![1, 2, 3, 4, 5]] {
            assert!(decode_hello(&Frame::new(FrameKind::Hello, body)).is_err());
        }
        let wrong_kind = Frame::new(FrameKind::Dispatch, frame.body.clone());
        assert!(decode_hello(&wrong_kind).is_err());
    }

    #[test]
    fn connect_send_recv() {
        let (a, b, _a_addr, b_addr) = pair("basic");
        a.connect(PeerId(1), &b_addr).unwrap();
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
        a.send(
            PeerId(1),
            Frame::new(FrameKind::Dispatch, 42u64.to_le_bytes().to_vec()),
        )
        .unwrap();
        let (from, frame) = b
            .recv_timeout(Duration::from_secs(5))
            .expect("frame arrives");
        assert_eq!(from, PeerId(0));
        assert_eq!(frame.kind, FrameKind::Dispatch);
        assert_eq!(b.state(PeerId(0)), ConnState::Established);
        // And the reverse direction over the same socket.
        b.send(PeerId(0), Frame::new(FrameKind::PublishOk, Vec::new()))
            .unwrap();
        let (from, frame) = a
            .recv_timeout(Duration::from_secs(5))
            .expect("reply arrives");
        assert_eq!((from, frame.kind), (PeerId(1), FrameKind::PublishOk));
    }

    /// A second handshake from an already connected peer that loses the
    /// dial-race tiebreak leaves the incumbent connection, and its
    /// reported state, untouched.
    #[test]
    fn race_losing_handshake_keeps_established_state() {
        let (a, _b, a_addr, b_addr) = pair("racelost");
        a.connect(PeerId(1), &b_addr).unwrap();

        // Peer 1 dials again over a raw socket; the incumbent was
        // dialed by the lower id (0), so this newcomer loses.
        let mut raw = Stream::connect(&a_addr).unwrap();
        hello(PeerId(1)).write_to(&mut raw).unwrap();
        let reply = Frame::read_from(&mut raw).unwrap();
        assert_eq!(decode_hello(&reply).unwrap(), PeerId(0));
        hello(PeerId(1)).write_to(&mut raw).unwrap();
        // The loser's socket is shut down once `install` has resolved
        // the race, so EOF here means the handshake is over.
        assert!(Frame::read_from(&mut raw).is_err());

        assert_eq!(a.connection_count(), 1);
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
    }

    /// Handshakes abandoned after the acceptor's reply leave no state
    /// behind: the claimed peer ids read `Idle` again, so spoofed ids
    /// cannot grow the state table.
    #[test]
    fn abandoned_handshakes_leave_no_state() {
        let (a, _b, a_addr, _b_addr) = pair("abandon");
        for id in 100..=109 {
            let mut raw = Stream::connect(&a_addr).unwrap();
            hello(PeerId(id)).write_to(&mut raw).unwrap();
            let reply = Frame::read_from(&mut raw).unwrap();
            assert_eq!(decode_hello(&reply).unwrap(), PeerId(0));
            // Close without confirming.
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for id in 100..=109 {
            while a.state(PeerId(id)) != ConnState::Idle {
                assert!(
                    Instant::now() < deadline,
                    "peer {id} left in {:?}",
                    a.state(PeerId(id))
                );
                thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(a.connection_count(), 0);
    }

    /// A closed connection's notice comes before the frames of the
    /// peer's next connection: `recv_any` returns it, and
    /// `recv_timeout` consumes it as a `None`.
    #[test]
    fn close_notice_precedes_a_reconnects_frames() {
        let (first, b, _a_addr, b_addr) = pair("notice");
        first.connect(PeerId(1), &b_addr).unwrap();
        let mut gone = first;
        for round in 1..=2u8 {
            gone.shutdown();
            let deadline = Instant::now() + Duration::from_secs(5);
            while b.state(PeerId(0)) != ConnState::Closed {
                assert!(Instant::now() < deadline, "B never saw the close");
                thread::sleep(Duration::from_millis(5));
            }
            let back = PeerManager::bind(PeerConfig::new(
                PeerId(0),
                scratch_addr(&format!("notice{round}")),
                7,
            ))
            .unwrap();
            back.connect(PeerId(1), &b_addr).unwrap();
            back.send(PeerId(1), Frame::new(FrameKind::Dispatch, vec![round]))
                .unwrap();
            let wait = Duration::from_secs(5);
            let frame = if round == 1 {
                assert!(matches!(b.recv_any(wait), Some((PeerId(0), None))));
                b.recv_any(wait).and_then(|(_, frame)| frame)
            } else {
                assert!(b.recv_timeout(wait).is_none(), "the notice comes first");
                b.recv_timeout(wait).map(|(_, frame)| frame)
            };
            assert_eq!(frame.expect("the new connection's frame").body, [round]);
            gone = back;
        }
    }

    #[test]
    fn send_without_connection_errors() {
        let (a, _b, _a_addr, _b_addr) = pair("noconn");
        let err = a
            .send(PeerId(9), Frame::new(FrameKind::Done, Vec::new()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        assert_eq!(a.state(PeerId(9)), ConnState::Idle);
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        let addr = scratch_addr("late");
        let a = PeerManager::bind(PeerConfig::new(PeerId(0), scratch_addr("latea"), 7)).unwrap();
        let dial_addr = addr.clone();
        let dialer = {
            let a = Arc::clone(&a);
            thread::spawn(move || a.connect(PeerId(1), &dial_addr))
        };
        // Let a few dial attempts fail before the listener exists.
        thread::sleep(Duration::from_millis(60));
        let _b = PeerManager::bind(PeerConfig::new(PeerId(1), addr, 7)).unwrap();
        dialer.join().unwrap().unwrap();
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
    }

    #[test]
    fn metrics_sink_observes_the_lifecycle() {
        let (a, b, _a_addr, b_addr) = pair("obsplane");
        a.metrics().enable();
        a.connect(PeerId(1), &b_addr).unwrap();
        a.send(PeerId(1), Frame::new(FrameKind::Dispatch, vec![0; 16]))
            .unwrap();
        b.recv_timeout(Duration::from_secs(5)).expect("delivered");
        a.drain(PeerId(1));

        // The writer thread records asynchronously; wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = a.metrics().snapshot();
            // Dispatch + the dial-side share of the HELLO exchange.
            if snap.counter(Counter::NetFramesSent) >= 1 {
                assert!(snap.counter(Counter::NetBytesSent) >= 16);
                assert_eq!(
                    snap.size_hist(bsub_obs::SizeHist::NetFrameDispatchBytes)
                        .count(),
                    1
                );
                assert_eq!(
                    snap.time_hist(bsub_obs::TimeHist::NetFrameDispatchNs)
                        .count(),
                    1
                );
                break;
            }
            assert!(Instant::now() < deadline, "writer metrics never appeared");
            thread::yield_now();
        }

        // B never armed its sink: nothing recorded there.
        assert!(b.metrics().snapshot().is_empty());
    }

    /// A `Write` that keeps every byte and, for each write call, the
    /// address and length of every slice it was handed.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        calls: Vec<Vec<(usize, usize)>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let mut call = Vec::new();
            for buf in bufs {
                call.push((buf.as_ptr() as usize, buf.len()));
                self.bytes.extend_from_slice(buf);
            }
            self.calls.push(call);
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn write_to_bytes(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            frame.write_to(&mut out).unwrap();
        }
        out
    }

    /// Queues `frames` on a fresh outbound queue and drains it to the
    /// end, as the writer thread would; returns the frames each drain
    /// wrote, and asserts that each drain was one write call.
    fn drain_all(frames: &[Frame], w: &mut Recorder, outbox: &mut Outbox) -> Vec<usize> {
        let (tx, rx) = mpsc::sync_channel(frames.len());
        for frame in frames {
            tx.send(frame.clone()).unwrap();
        }
        drop(tx);
        let mut drains = Vec::new();
        while let Ok(first) = rx.recv() {
            outbox.drain(w, first, &rx).unwrap();
            drains.push(outbox.sent.len());
            assert_eq!(w.calls.len(), drains.len(), "one write per drain");
        }
        drains
    }

    /// Queued small frames leave in one write whose bytes are the
    /// concatenation of their `write_to` encodings; a queue longer
    /// than the byte cap splits at the cap, in order.
    #[test]
    fn drain_coalesces_queued_frames_into_one_write() {
        let frames: Vec<Frame> = (0..20u8)
            .map(|i| Frame::new(FrameKind::ALL[usize::from(i) % 15], vec![i; usize::from(i)]))
            .collect();
        let (mut w, mut outbox) = (Recorder::default(), Outbox::default());
        assert_eq!(drain_all(&frames, &mut w, &mut outbox), [20]);
        assert_eq!(w.bytes, write_to_bytes(&frames));
        let sent: Vec<(FrameKind, u64)> = frames
            .iter()
            .map(|f| (f.kind, f.encoded_len() as u64))
            .collect();
        assert_eq!(outbox.sent, sent);

        // 1008-byte frames: the 9th crosses the 8 KiB cap and ends a
        // drain; 64 frames take 8 writes.
        let frames = vec![Frame::new(FrameKind::Deliver, vec![5; 1000]); 64];
        let (mut w, mut outbox) = (Recorder::default(), Outbox::default());
        let drains = drain_all(&frames, &mut w, &mut outbox);
        assert_eq!(drains, [9, 9, 9, 9, 9, 9, 9, 1]);
        assert_eq!(w.bytes, write_to_bytes(&frames));
        assert!(outbox.buf.capacity() < 2 * WRITE_BATCH_BYTES);
    }

    /// A frame whose body exceeds the cap keeps its place in the
    /// order and ends its drain: it goes out behind the buffered frames
    /// in the same write, from its own `Vec`, never copied into the
    /// buffer.
    #[test]
    fn oversized_frame_keeps_its_place_and_is_not_copied() {
        let big = Frame::new(FrameKind::StateGrant, vec![9; WRITE_BATCH_BYTES + 1]);
        let frames = vec![
            Frame::new(FrameKind::Dispatch, vec![1; 8]),
            Frame::new(FrameKind::StateReq, vec![2; 4]),
            big.clone(),
            Frame::new(FrameKind::NodeFree, vec![3; 4]),
            Frame::new(FrameKind::Done, Vec::new()),
        ];
        let (tx, rx) = mpsc::sync_channel(frames.len());
        let mut big_body = (0, 0);
        for frame in frames.iter().cloned() {
            if frame.kind == FrameKind::StateGrant {
                big_body = (frame.body.as_ptr() as usize, frame.body.len());
            }
            tx.send(frame).unwrap();
        }
        drop(tx);
        let (mut w, mut outbox) = (Recorder::default(), Outbox::default());
        let mut drains = Vec::new();
        while let Ok(first) = rx.recv() {
            outbox.drain(&mut w, first, &rx).unwrap();
            drains.push(outbox.sent.len());
            assert!(
                outbox.buf.capacity() < big.body.len(),
                "big body never buffered"
            );
        }
        assert_eq!(drains, [3, 2]);
        assert_eq!(w.bytes, write_to_bytes(&frames));
        // The first write hands the socket the big frame's own body.
        assert_eq!(w.calls.len(), 2);
        assert!(w.calls[0].contains(&big_body), "{:?}", w.calls[0]);
    }

    #[test]
    fn drain_flushes_then_closes() {
        let (a, b, _a_addr, b_addr) = pair("drain");
        a.connect(PeerId(1), &b_addr).unwrap();
        // More than three queues' worth: `send` blocks on the full
        // queue while the writer drains it.
        for i in 0..200u64 {
            a.send(
                PeerId(1),
                Frame::new(FrameKind::Dispatch, i.to_le_bytes().to_vec()),
            )
            .unwrap();
        }
        a.drain(PeerId(1));
        assert!(matches!(
            a.state(PeerId(1)),
            ConnState::Draining | ConnState::Closed
        ));
        // Every queued frame still arrives, in order, before the EOF.
        for i in 0..200u64 {
            let (_, frame) = b
                .recv_timeout(Duration::from_secs(5))
                .expect("drained frame");
            assert_eq!(
                frame,
                Frame::new(FrameKind::Dispatch, i.to_le_bytes().to_vec())
            );
        }
        // B's reader sees the clean EOF and retires the connection;
        // B's teardown then ends A's reader, and A reaches `Closed`.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.state(PeerId(0)) != ConnState::Closed || a.state(PeerId(1)) != ConnState::Closed {
            assert!(
                std::time::Instant::now() < deadline,
                "both ends close after a drain: A {:?}, B {:?}",
                a.state(PeerId(1)),
                b.state(PeerId(0))
            );
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.connection_count(), 0);
        // B's close notice follows the last frame; A retired no
        // installed connection, so it queues none.
        assert!(matches!(
            b.recv_any(Duration::ZERO),
            Some((PeerId(0), None))
        ));
        assert!(b.recv_timeout(Duration::from_millis(10)).is_none());
        assert!(a.recv_any(Duration::ZERO).is_none());
    }
}

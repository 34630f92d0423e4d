//! The peer plane's decisions, with no sockets, threads or clock
//! (DESIGN.md §12.1–12.2). [`PeerCore`] holds one slot per remote
//! peer: its [`ConnState`] and, while a connection is installed, that
//! connection's dialer and handle `C`. No other code reads or writes a
//! peer's state, installed connection or epoch. Each method is one
//! event and returns the connections the caller must tear down.
//!
//! Of two connections to one peer, both ends keep the one dialed by the
//! lower peer id, so a dial race converges on one socket without
//! another byte. An equal dialer is a re-dial, which the remote only
//! makes after abandoning its previous socket: the newcomer wins.

use crate::peer::{ConnState, PeerId};
use std::collections::HashMap;

#[derive(Debug)]
struct Slot<C> {
    state: ConnState,
    /// The epoch of the slot's latest install (0 before the first).
    epoch: u64,
    /// The installed connection's dialer and handle: `Some` exactly
    /// while `state` is `Established`.
    conn: Option<(PeerId, C)>,
}

/// Every remote peer's lifecycle state and installed connection.
#[derive(Debug)]
pub(crate) struct PeerCore<C> {
    slots: HashMap<PeerId, Slot<C>>,
    /// The last epoch handed out.
    epoch: u64,
}

impl<C> PeerCore<C> {
    pub fn new() -> Self {
        Self {
            slots: HashMap::new(),
            epoch: 0,
        }
    }

    /// `Idle` for a peer without a slot.
    pub fn state(&self, peer: PeerId) -> ConnState {
        self.slots.get(&peer).map_or(ConnState::Idle, |s| s.state)
    }

    pub fn conn(&self, peer: PeerId) -> Option<&C> {
        self.slots.get(&peer)?.conn.as_ref().map(|(_, c)| c)
    }

    pub fn connection_count(&self) -> usize {
        self.slots.values().filter(|s| s.conn.is_some()).count()
    }

    /// A handshake with `peer` starts as `attempt` (`Dialing` or
    /// `Accepting`). While a connection is installed it changes nothing
    /// and returns `false`: the installed connection alone decides
    /// `Established`.
    pub fn begin(&mut self, peer: PeerId, attempt: ConnState) -> bool {
        let slot = self.slot(peer);
        if slot.conn.is_some() {
            return false;
        }
        slot.state = attempt;
        true
    }

    /// A handshake begun as `attempt` failed before installing: the
    /// peer reads `Idle` again, unless another handshake or an install
    /// has moved it on since.
    pub fn abandon(&mut self, peer: PeerId, attempt: ConnState) {
        if self.state(peer) == attempt {
            self.slots.remove(&peer);
        }
    }

    /// Installs `conn`, dialed by `dialer`, against any incumbent.
    /// Returns the new epoch (`None`: the newcomer lost the race) and
    /// the connection to tear down: the losing newcomer or the
    /// displaced incumbent.
    pub fn install(&mut self, peer: PeerId, dialer: PeerId, conn: C) -> (Option<u64>, Option<C>) {
        let epoch = self.epoch + 1;
        let slot = self.slot(peer);
        if matches!(slot.conn, Some((incumbent, _)) if incumbent < dialer) {
            return (None, Some(conn));
        }
        slot.epoch = epoch;
        slot.state = ConnState::Established;
        let displaced = slot.conn.replace((dialer, conn)).map(|(_, c)| c);
        self.epoch = epoch;
        (Some(epoch), displaced)
    }

    /// The reader of the connection installed at `epoch` exited. An
    /// `Established` or `Draining` slot of that epoch reads `Closed`,
    /// and the result holds its installed connection, if any. `None`
    /// when the slot does not move: a displaced connection's exit
    /// never retires the winner.
    pub fn retire(&mut self, peer: PeerId, epoch: u64) -> Option<Option<C>> {
        let slot = self.slots.get_mut(&peer).filter(|s| {
            s.epoch == epoch && matches!(s.state, ConnState::Established | ConnState::Draining)
        })?;
        slot.state = ConnState::Closed;
        Some(slot.conn.take().map(|(_, c)| c))
    }

    /// Returns the installed connection, whose outbound queue the caller
    /// closes; the slot reads `Draining` until its reader exits.
    pub fn drain(&mut self, peer: PeerId) -> Option<C> {
        let slot = self.slots.get_mut(&peer)?;
        let (_, conn) = slot.conn.take()?;
        slot.state = ConnState::Draining;
        Some(conn)
    }

    /// Every installed connection, each slot now `Closed`.
    pub fn shutdown(&mut self) -> Vec<(PeerId, C)> {
        let mut closed = Vec::new();
        for (&peer, slot) in &mut self.slots {
            if let Some((_, conn)) = slot.conn.take() {
                slot.state = ConnState::Closed;
                closed.push((peer, conn));
            }
        }
        closed
    }

    fn slot(&mut self, peer: PeerId) -> &mut Slot<C> {
        self.slots.entry(peer).or_insert(Slot {
            state: ConnState::Idle,
            epoch: 0,
            conn: None,
        })
    }
}

#[cfg(test)]
mod tests {
    //! A seeded, socket-free property test: simulated peers, with
    //! sockets as ids, run random schedules of dials, accepts, HELLO
    //! legs, abandons, reader exits, drains, failures, shutdowns and
    //! restarts, each event one call into the peer's core, as the shell
    //! makes it.

    use super::*;
    use bsub_bloom::SplitMix64;

    type Sock = usize;

    /// How far a socket's three-way HELLO has come.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Leg {
        /// The dialer wrote its HELLO.
        Hello,
        /// The acceptor read it, began `Accepting` and replied.
        Replied,
        /// The dialer confirmed and made its install call.
        Confirmed,
        /// The acceptor made its install or abandon call, or its
        /// listener was gone.
        Done,
    }

    /// A simulated socket: end 0 is the dialer's, end 1 the acceptor's.
    #[derive(Debug)]
    struct Socket {
        peers: [usize; 2],
        leg: Leg,
        /// Torn down by an end, failed or abandoned: every read ends.
        closed: bool,
        /// End `i`'s writer half-closed the socket after a drain.
        half_closed: [bool; 2],
        /// The install epoch of end `i`'s running reader.
        reader: [Option<u64>; 2],
    }

    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// `connect`: one dial attempt from the first peer.
        Dial(usize, usize),
        AcceptHello(Sock),
        /// The dialer reads the reply, confirms and installs.
        Confirm(Sock),
        /// The dialer gives up on its socket (reply timeout, error).
        Abandon(Sock),
        /// The acceptor reads the confirmation (`true`) or EOF.
        AcceptConfirm(Sock, bool),
        ReaderExit(Sock, usize),
        Drain(usize, usize),
        Fail(Sock),
        Shutdown(usize),
        /// A shut-down peer comes back under its id, with a fresh core.
        Restart(usize),
    }

    /// Counts of the interleavings the schedules must reach, or the
    /// test proves nothing.
    #[derive(Debug, Default)]
    struct Coverage {
        cross_races: u64,
        races_lost: u64,
        displaced: u64,
        /// Exits of displaced readers while the winner was installed.
        stale_exits: u64,
        drains_closed: u64,
        abandoned_accepts: u64,
        restarts: u64,
    }

    struct World {
        seed: u64,
        cores: Vec<PeerCore<Sock>>,
        shut: Vec<bool>,
        socks: Vec<Socket>,
        /// `dialing[a][b]`: the socket of `a`'s dial to `b` in flight.
        dialing: Vec<Vec<Option<Sock>>>,
        /// `installed[p][q]`: the socket `p` has installed toward `q`,
        /// as told by the core's own return values.
        installed: Vec<Vec<Option<Sock>>>,
        cov: Coverage,
    }

    fn id(p: usize) -> PeerId {
        PeerId(p as u32)
    }

    impl World {
        fn new(seed: u64, peers: usize, cov: Coverage) -> Self {
            Self {
                seed,
                cores: (0..peers).map(|_| PeerCore::new()).collect(),
                shut: vec![false; peers],
                socks: Vec::new(),
                dialing: vec![vec![None; peers]; peers],
                installed: vec![vec![None; peers]; peers],
                cov,
            }
        }

        fn peers(&self) -> usize {
            self.cores.len()
        }

        /// Whether peer `p` may come back: shut down, with no dial, no
        /// handshake and no reader of its old core left running.
        fn restartable(&self, p: usize) -> bool {
            self.shut[p]
                && self.dialing[p].iter().all(Option::is_none)
                && self.socks.iter().all(|s| {
                    (0..2).all(|end| s.peers[end] != p || s.reader[end].is_none())
                        && (s.peers[1] != p || s.leg == Leg::Done)
                })
        }

        /// The enabled events with their weights. While `settling`, no
        /// new dial, drain, failure, shutdown or restart starts, and a
        /// dialer abandons only a closed socket.
        fn enabled(&self, settling: bool) -> Vec<(u64, Action)> {
            let mut out = Vec::new();
            for a in 0..self.peers() {
                for b in (0..self.peers()).filter(|&b| b != a && !settling) {
                    if !self.shut[a] && self.dialing[a][b].is_none() {
                        out.push((3, Action::Dial(a, b)));
                    }
                    if self.installed[a][b].is_some() {
                        out.push((1, Action::Drain(a, b)));
                    }
                }
                if !settling && !self.shut[a] {
                    out.push((1, Action::Shutdown(a)));
                }
                if !settling && self.restartable(a) {
                    out.push((4, Action::Restart(a)));
                }
            }
            for (s, sock) in self.socks.iter().enumerate() {
                let [a, b] = sock.peers;
                let in_flight = self.dialing[a][b] == Some(s);
                match sock.leg {
                    Leg::Hello => out.push((3, Action::AcceptHello(s))),
                    Leg::Replied if sock.closed => out.push((3, Action::AcceptConfirm(s, false))),
                    Leg::Replied if in_flight => out.push((3, Action::Confirm(s))),
                    Leg::Confirmed => {
                        out.push((3, Action::AcceptConfirm(s, true)));
                        if sock.closed {
                            out.push((1, Action::AcceptConfirm(s, false)));
                        }
                    }
                    _ => {}
                }
                if in_flight && (sock.closed || !settling) {
                    out.push((1, Action::Abandon(s)));
                }
                for end in 0..2 {
                    let eof = sock.closed || sock.half_closed[1 - end];
                    if sock.reader[end].is_some() && eof {
                        out.push((3, Action::ReaderExit(s, end)));
                    }
                }
                if !settling && !sock.closed {
                    out.push((1, Action::Fail(s)));
                }
            }
            out
        }

        fn apply(&mut self, action: Action) {
            match action {
                Action::Dial(a, b) => {
                    if !self.cores[a].begin(id(b), ConnState::Dialing) {
                        assert!(
                            self.installed[a][b].is_some(),
                            "{}: {a} dials {b}",
                            self.seed
                        );
                        return; // already established
                    }
                    if self.dialing[b][a].is_some() {
                        self.cov.cross_races += 1;
                    }
                    self.dialing[a][b] = Some(self.socks.len());
                    self.socks.push(Socket {
                        peers: [a, b],
                        leg: Leg::Hello,
                        closed: false,
                        half_closed: [false; 2],
                        reader: [None; 2],
                    });
                }
                Action::AcceptHello(s) => {
                    let [a, b] = self.socks[s].peers;
                    if self.shut[b] {
                        // The listener is gone: the dial fails.
                        self.socks[s].leg = Leg::Done;
                        self.socks[s].closed = true;
                    } else {
                        self.cores[b].begin(id(a), ConnState::Accepting);
                        self.socks[s].leg = Leg::Replied;
                    }
                }
                Action::Confirm(s) => {
                    let [a, b] = self.socks[s].peers;
                    self.dialing[a][b] = None;
                    self.socks[s].leg = Leg::Confirmed;
                    self.install(s, 0);
                }
                Action::Abandon(s) => {
                    let [a, b] = self.socks[s].peers;
                    self.dialing[a][b] = None;
                    self.cores[a].abandon(id(b), ConnState::Dialing);
                    self.socks[s].closed = true;
                }
                Action::AcceptConfirm(s, confirmed) => {
                    self.socks[s].leg = Leg::Done;
                    if confirmed {
                        self.install(s, 1);
                    } else {
                        let [a, b] = self.socks[s].peers;
                        let before = self.cores[b].state(id(a));
                        self.cores[b].abandon(id(a), ConnState::Accepting);
                        if before == ConnState::Accepting {
                            self.cov.abandoned_accepts += 1;
                        }
                    }
                }
                Action::ReaderExit(s, end) => self.reader_exit(s, end),
                Action::Drain(a, b) => {
                    let s = self.cores[a].drain(id(b));
                    assert_eq!(s, self.installed[a][b], "{}: {a} drains {b}", self.seed);
                    let s = s.expect("drain of an installed connection");
                    self.installed[a][b] = None;
                    let end = usize::from(self.socks[s].peers[1] == a);
                    self.socks[s].half_closed[end] = true;
                    assert_eq!(self.cores[a].state(id(b)), ConnState::Draining);
                }
                Action::Fail(s) => self.socks[s].closed = true,
                Action::Shutdown(a) => {
                    self.shut[a] = true;
                    for (q, s) in self.cores[a].shutdown() {
                        let q = q.0 as usize;
                        assert_eq!(Some(s), self.installed[a][q], "{}: {a} shuts", self.seed);
                        self.installed[a][q] = None;
                        self.socks[s].closed = true;
                    }
                }
                Action::Restart(a) => {
                    assert!(self.installed[a].iter().all(Option::is_none));
                    self.cores[a] = PeerCore::new();
                    self.shut[a] = false;
                    self.cov.restarts += 1;
                }
            }
        }

        /// End `end` of socket `s` completed its handshake: install it,
        /// and check the outcome against the lower-dialer rule.
        fn install(&mut self, s: Sock, end: usize) {
            let (p, q) = (self.socks[s].peers[end], self.socks[s].peers[1 - end]);
            let dialer = self.socks[s].peers[0];
            let incumbent = self.installed[p][q];
            let incumbent_dialer = incumbent.map(|i| self.socks[i].peers[0]);
            let (epoch, torn) = self.cores[p].install(id(q), id(dialer), s);
            let seed = self.seed;
            match epoch {
                None => {
                    assert_eq!(torn, Some(s), "{seed}: the losing newcomer is torn down");
                    assert!(
                        incumbent_dialer.is_some_and(|d| d < dialer),
                        "{seed}: {p} dropped {s} (dialer {dialer}) for {incumbent:?}"
                    );
                    self.cov.races_lost += 1;
                    self.socks[s].closed = true;
                }
                Some(epoch) => {
                    assert_eq!(
                        torn, incumbent,
                        "{seed}: the displaced incumbent is torn down"
                    );
                    if let (Some(old), Some(old_dialer)) = (incumbent, incumbent_dialer) {
                        assert!(dialer <= old_dialer, "{seed}: {p} displaced {old} by {s}");
                        self.cov.displaced += 1;
                        self.socks[old].closed = true;
                    }
                    self.installed[p][q] = Some(s);
                    self.socks[s].reader[end] = Some(epoch);
                }
            }
        }

        fn reader_exit(&mut self, s: Sock, end: usize) {
            let (p, q) = (self.socks[s].peers[end], self.socks[s].peers[1 - end]);
            let epoch = self.socks[s].reader[end].take().expect("a running reader");
            let before = (self.installed[p][q], self.cores[p].state(id(q)));
            let seed = self.seed;
            match self.cores[p].retire(id(q), epoch) {
                Some(Some(retired)) => {
                    assert_eq!(retired, s, "{seed}: {p}'s reader of {s} retired another");
                    self.installed[p][q] = None;
                    self.socks[s].closed = true;
                }
                Some(None) => {
                    assert_eq!(before.1, ConnState::Draining, "{seed}: {p} toward {q}");
                    self.cov.drains_closed += 1;
                }
                None => {
                    if before.0.is_some() {
                        self.cov.stale_exits += 1;
                    }
                }
            }
            if before.0 != Some(s) {
                assert_eq!(
                    self.cores[p].conn(id(q)).copied(),
                    before.0,
                    "{seed}: a displaced reader of {s} touched {p}'s winner"
                );
            }
            if before.1 != ConnState::Idle && self.cores[p].state(id(q)) == ConnState::Idle {
                panic!("{seed}: a reader exit forgot {p}'s slot toward {q}");
            }
        }

        /// At most one installed connection per peer, and it is the one
        /// the core's return values say; `Established` exactly then.
        fn check(&self) {
            for p in 0..self.peers() {
                let mut count = 0;
                for q in (0..self.peers()).filter(|&q| q != p) {
                    let conn = self.cores[p].conn(id(q)).copied();
                    assert_eq!(conn, self.installed[p][q], "{}: {p} toward {q}", self.seed);
                    let established = self.cores[p].state(id(q)) == ConnState::Established;
                    assert_eq!(established, conn.is_some(), "{}: {p} toward {q}", self.seed);
                    count += usize::from(conn.is_some());
                }
                assert_eq!(self.cores[p].connection_count(), count, "{}", self.seed);
            }
        }

        /// Runs events drawn from `enabled(settling)` until none is left
        /// or `limit` ran.
        fn run(&mut self, rng: &mut SplitMix64, settling: bool, limit: usize) {
            for _ in 0..limit {
                let enabled = self.enabled(settling);
                let total: u64 = enabled.iter().map(|&(w, _)| w).sum();
                if total == 0 {
                    return;
                }
                let mut pick = rng.below(total);
                for &(weight, action) in &enabled {
                    if pick < weight {
                        self.apply(action);
                        break;
                    }
                    pick -= weight;
                }
                self.check();
            }
        }
    }

    /// Ten thousand seeded schedules over three to five peers. After
    /// each schedule, every handshake in flight completes and every
    /// reader whose socket closed exits; then both ends of every link
    /// agree on one socket. Then every socket closes; then every slot
    /// reads `Idle` or `Closed` and no connection is installed.
    #[test]
    fn schedules_keep_the_peer_invariants() {
        let mut cov = Coverage::default();
        for seed in 0..10_000u64 {
            let mut rng = SplitMix64::new(seed);
            let mut world = World::new(seed, 3 + rng.below_usize(3), cov);
            let steps = 20 + rng.below_usize(60);
            world.run(&mut rng, false, steps);
            world.run(&mut rng, true, usize::MAX);
            for p in 0..world.peers() {
                for q in p + 1..world.peers() {
                    assert_eq!(
                        world.cores[p].conn(id(q)),
                        world.cores[q].conn(id(p)),
                        "{seed}: the ends of link {p}-{q} disagree"
                    );
                }
            }

            let n = world.peers();
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                if let Some(s) = world.dialing[a][b] {
                    world.apply(Action::Abandon(s));
                }
            }
            for sock in &mut world.socks {
                sock.closed = true;
            }
            world.run(&mut rng, true, usize::MAX);
            for p in 0..world.peers() {
                for q in (0..world.peers()).filter(|&q| q != p) {
                    let state = world.cores[p].state(id(q));
                    assert!(
                        matches!(state, ConnState::Idle | ConnState::Closed),
                        "{seed}: {p} toward {q} left {state:?} once every socket closed"
                    );
                }
                assert_eq!(world.cores[p].connection_count(), 0, "{seed}");
            }
            cov = world.cov;
        }
        for (name, count) in [
            ("cross races", cov.cross_races),
            ("races lost", cov.races_lost),
            ("displacements", cov.displaced),
            ("stale reader exits", cov.stale_exits),
            ("drains closed", cov.drains_closed),
            ("abandoned accepts", cov.abandoned_accepts),
            ("restarts", cov.restarts),
        ] {
            assert!(count > 1_000, "only {count} {name}: {cov:?}");
        }
    }
}

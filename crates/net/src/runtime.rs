//! The networked host: a [`FlowerPeer`] machine driven by real TCP.
//!
//! Layering mirrors the simulator host exactly — the machine is the same
//! sans-io state machine `flower-cdn` runs under `simnet`; only the
//! outside changes:
//!
//! * a **listener thread** accepts connections on `127.0.0.1:port(me)`
//!   and spawns one reader thread per connection;
//! * reader threads decode frames and forward them over an `mpsc`
//!   channel to the **event loop thread**, which owns the machine, its
//!   RNG and its timers, and is the only place `Machine::handle` runs;
//! * outputs map to real effects: `Send` → a cached outbound TCP stream
//!   (dialed lazily, announced with a `Hello` frame), `SetTimer` → the
//!   timers, `Respond` → the API connection the request arrived on.
//!
//! Addressing is positional and hermetic: node `i` listens on
//! `port_base + i`, so a `NodeId` *is* a loopback address and no
//! discovery protocol is needed — the same trick the simulator plays
//! with dense node indices.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chord::{Chord, NodeRef};
use flower_proto::io::machine_rng;
use flower_proto::{
    ApiResp, DirPosition, FlowerMsg, FlowerPeer, FlowerReport, FlowerTimer, Fx, Input, InputOf,
    Lent, Machine, Output, PeerCtx, SimParams,
};
use simnet::{LocalityId, NodeId, Time};
use workload::{Catalog, WebsiteId};

use crate::wire::{self, Frame};

/// How a node process is wired into the loopback cluster.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's index; its listen port is `port_base + id`.
    pub id: u64,
    /// Base TCP port of the cluster.
    pub port_base: u16,
    pub website: WebsiteId,
    pub locality: LocalityId,
    /// Found the D-ring: start as the directory of
    /// `(website, locality, 0)` in a standalone single-member ring.
    pub founder: bool,
    /// Index of a node known to hold the directory position of
    /// `(website, seed_locality, 0)` — the local bootstrap entry.
    pub seed_dir: Option<u64>,
    pub seed_locality: LocalityId,
    /// Shrink protocol periods for smoke tests (seconds instead of
    /// hours).
    pub fast: bool,
    /// Seed of the machine RNG (per-node derivation as in the sim).
    pub run_seed: u64,
    /// Log protocol reports to stderr.
    pub verbose: bool,
}

impl NodeConfig {
    /// The loopback address of node `id` under this cluster layout.
    pub fn addr_of(&self, id: u64) -> SocketAddr {
        let port = self.port_base as u64 + id;
        SocketAddr::from(([127, 0, 0, 1], port as u16))
    }

    /// Protocol parameters for a live loopback node. `--fast` compresses
    /// the paper's hour-scale periods to seconds so a smoke test can
    /// watch a full keepalive → failure-detection → re-found cycle.
    pub fn params(&self) -> SimParams {
        let mut p = SimParams::paper_defaults(64);
        // No synthetic workload: a live node only queries when the CLI
        // asks it to, which `Catalog::is_active == false` guarantees.
        p.catalog.active_websites = 0;
        p.seed = self.run_seed;
        if self.fast {
            p.gossip_period_ms = 2_000;
            p.query_period_ms = 2_000;
            p.rpc_timeout_ms = 700;
            p.chord.stabilize_period_ms = 1_000;
            p.chord.fix_fingers_period_ms = 1_000;
            p.chord.check_predecessor_period_ms = 1_500;
            p.chord.rpc_timeout_ms = 700;
            p.chord.recursive_deadline_ms = 1_500;
        }
        p
    }
}

/// What reader threads push into the event loop.
enum Event {
    /// A connection produced a frame. `conn` identifies it for API
    /// responses.
    Frame { conn: u64, frame: Frame },
    /// A connection opened; the write half is registered so the loop
    /// can answer API requests arriving on it.
    Opened { conn: u64, stream: TcpStream },
    /// A connection ended (EOF or error).
    Closed { conn: u64 },
}

/// The networked node. Owns the machine, its RNG, what it lends the
/// machine, its timers and all sockets; everything protocol happens on the
/// thread that calls [`NetNode::run`].
pub struct NetNode {
    cfg: NodeConfig,
    me: NodeId,
    machine: FlowerPeer,
    rng: rand::rngs::StdRng,
    /// What the machine is lent: the output buffer, drained by `drive`; the
    /// process-local stand-in for the paper's rendezvous service, pruned
    /// of a peer whose dial is refused (see [`NetNode::send_peer`]); an
    /// origin dial no fault turns.
    lent: Lent<FlowerPeer>,
    started: Instant,
    /// Armed timers keyed like the simulator's wheel: fire time, then arm
    /// order.
    timers: BTreeMap<(u64, u64), FlowerTimer>,
    timer_seq: u64,
    /// Cached outbound peer connections.
    outbound: HashMap<NodeId, TcpStream>,
    /// Write halves of accepted connections, for API responses.
    conns: HashMap<u64, TcpStream>,
    /// Which peer a connection introduced itself as.
    conn_peer: HashMap<u64, NodeId>,
    /// API token → connection it arrived on.
    api_conns: HashMap<u64, u64>,
    next_token: u64,
}

impl NetNode {
    pub fn new(cfg: NodeConfig) -> NetNode {
        let me = NodeId::from_index(cfg.id as usize);
        let params = Rc::new(cfg.params());
        let catalog = Rc::new(Catalog::new(params.catalog.clone()));
        let mut lent = Lent::default();
        if let Some(seed) = cfg.seed_dir {
            let pos = DirPosition::base(cfg.website, cfg.seed_locality);
            let seed = NodeRef::new(NodeId::from_index(seed as usize), pos.chord_id());
            lent.registry.add(seed);
        }
        let pcx = PeerCtx {
            catalog,
            params: Rc::clone(&params),
            website: cfg.website,
            origin_latency_ms: 300,
            profiler: simnet::Profiler::new(),
        };
        let machine = if cfg.founder {
            let position = DirPosition::base(cfg.website, cfg.locality);
            let me_ref = NodeRef::new(me, position.chord_id());
            let (chord, actions) = Chord::create(me_ref, params.chord.clone());
            FlowerPeer::new_initial_directory(pcx, me, cfg.locality, position, chord, actions)
        } else {
            FlowerPeer::new_client(pcx, me, cfg.locality)
        };
        let rng = machine_rng(cfg.run_seed, me);
        NetNode {
            me,
            machine,
            rng,
            lent,
            started: Instant::now(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            outbound: HashMap::new(),
            conns: HashMap::new(),
            conn_peer: HashMap::new(),
            api_conns: HashMap::new(),
            next_token: 1,
            cfg,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Arm `timer` for `fire_at_ms`; equal deadlines fire in arm order.
    fn arm(&mut self, fire_at_ms: u64, timer: FlowerTimer) {
        self.timer_seq += 1;
        self.timers.insert((fire_at_ms, self.timer_seq), timer);
    }

    /// Take the earliest armed timer if it is due at `now_ms`.
    fn pop_due(&mut self, now_ms: u64) -> Option<FlowerTimer> {
        let (&(fire_at_ms, _), _) = self.timers.first_key_value()?;
        (fire_at_ms <= now_ms).then(|| self.timers.pop_first().expect("non-empty").1)
    }

    /// Feed one input to the machine and apply its outputs.
    fn drive(&mut self, input: InputOf<FlowerPeer>) {
        let now = Time::from_millis(self.now_ms());
        let fx = Fx::new(
            now,
            self.me,
            self.cfg.locality,
            &mut self.rng,
            false,
            &mut self.lent,
        );
        self.machine.handle(fx, input);
        // A refused send prunes the registry while the outputs are applied.
        let mut outputs = std::mem::take(&mut self.lent.out);
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg } => self.send_peer(to, &msg),
                Output::SetTimer { delay_ms, timer } => self.arm(self.now_ms() + delay_ms, timer),
                Output::Respond { token, resp } => self.respond(token, resp),
                Output::Report(r) => {
                    if self.cfg.verbose {
                        self.log_report(&r);
                    }
                }
                Output::Trace { .. } => {}
            }
        }
        self.lent.out = outputs;
    }

    fn log_report(&self, r: &FlowerReport) {
        match r {
            FlowerReport::Query(q) => eprintln!("[n{}] query via {:?}", self.cfg.id, q.via),
            FlowerReport::BecameDirectory {
                position,
                replacement,
            } => eprintln!(
                "[n{}] became directory of {:?} (replacement: {replacement})",
                self.cfg.id, position
            ),
            FlowerReport::PetalSplit { from, to } => {
                eprintln!("[n{}] petal split {from:?} -> {to:?}", self.cfg.id)
            }
            FlowerReport::Event(e) => eprintln!("[n{}] event {e:?}", self.cfg.id),
        }
    }

    /// Send a protocol message to a peer, dialing and caching the
    /// connection on first use. Failures drop the message — the
    /// protocol's deadlines treat a dead TCP peer exactly like the
    /// simulator treats a dropped packet.
    fn send_peer(&mut self, to: NodeId, msg: &FlowerMsg) {
        let frame = Frame::Peer(msg.clone());
        if let Some(stream) = self.outbound.get_mut(&to) {
            if wire::write_frame(stream, &frame).is_ok() {
                return;
            }
            self.outbound.remove(&to);
        }
        let addr = self.cfg.addr_of(to.raw());
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
            // Connection refused is a definite failure signal TCP gives
            // us that the simulator's lossy sends do not. Pruning the
            // dead node from the local rendezvous registry is the job
            // the sim engine does for the world's registry — without it,
            // claims after a directory death would route to the corpse
            // forever instead of degenerating to a re-found (§5.2.2).
            self.lent.registry.remove(to);
            return;
        };
        let _ = stream.set_nodelay(true);
        if wire::write_frame(&mut stream, &Frame::Hello { node: self.me }).is_err() {
            return;
        }
        if wire::write_frame(&mut stream, &frame).is_ok() {
            self.outbound.insert(to, stream);
        }
    }

    fn respond(&mut self, token: u64, resp: ApiResp) {
        let Some(conn) = self.api_conns.remove(&token) else {
            return;
        };
        if let Some(stream) = self.conns.get_mut(&conn) {
            let _ = wire::write_frame(stream, &Frame::ApiResp { token, resp });
        }
    }

    /// Run the node until a `Shutdown` frame.
    /// Binds the listener, then drives the machine's `Start` input and
    /// the event/timer loop forever.
    pub fn run(mut self) -> Result<(), wire::WireError> {
        let listen = self.cfg.addr_of(self.cfg.id);
        let listener = TcpListener::bind(listen)?;
        eprintln!(
            "[n{}] listening on {listen} ({})",
            self.cfg.id,
            if self.cfg.founder {
                "founder directory"
            } else {
                "client"
            }
        );
        let (tx, rx) = mpsc::channel::<Event>();
        spawn_listener(listener, tx);

        self.drive(Input::Start);
        loop {
            // Fire every due timer, then sleep until the next deadline
            // or the next socket event, whichever comes first.
            let now = self.now_ms();
            while let Some(timer) = self.pop_due(self.now_ms()) {
                self.drive(Input::Timer(timer));
            }
            let timeout = match self.timers.first_key_value() {
                Some((&(fire_at_ms, _), _)) => {
                    Duration::from_millis(fire_at_ms.saturating_sub(now).max(1))
                }
                None => Duration::from_millis(250),
            };
            let event = match rx.recv_timeout(timeout) {
                Ok(ev) => ev,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            };
            match event {
                Event::Opened { conn, stream } => {
                    self.conns.insert(conn, stream);
                }
                Event::Closed { conn } => {
                    self.conns.remove(&conn);
                    self.conn_peer.remove(&conn);
                }
                Event::Frame { conn, frame } => match frame {
                    Frame::Hello { node } => {
                        self.conn_peer.insert(conn, node);
                    }
                    Frame::Peer(msg) => {
                        // Peer frames require a prior Hello; an anonymous
                        // sender has no address to answer to.
                        let Some(&from) = self.conn_peer.get(&conn) else {
                            continue;
                        };
                        self.drive(Input::Deliver { from, msg });
                    }
                    Frame::Api { token: _, call } => {
                        // Tokens are node-allocated: the CLI's token only
                        // has to be unique per connection, ours per node.
                        let token = self.next_token;
                        self.next_token += 1;
                        self.api_conns.insert(token, conn);
                        self.drive(Input::Api { token, call });
                    }
                    Frame::ApiResp { .. } => {
                        // Nodes never receive API responses; ignore.
                    }
                    Frame::Shutdown => {
                        eprintln!("[n{}] shutdown requested", self.cfg.id);
                        // Leave's outputs (the hand-over) go out before the
                        // loop ends.
                        self.drive(Input::Leave);
                        return Ok(());
                    }
                },
            }
        }
    }
}

/// Accept loop: one reader thread per connection.
fn spawn_listener(listener: TcpListener, tx: mpsc::Sender<Event>) {
    std::thread::spawn(move || {
        let mut next_conn: u64 = 1;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let conn = next_conn;
            next_conn += 1;
            let _ = stream.set_nodelay(true);
            let Ok(write_half) = stream.try_clone() else {
                continue;
            };
            if tx
                .send(Event::Opened {
                    conn,
                    stream: write_half,
                })
                .is_err()
            {
                return;
            }
            let tx = tx.clone();
            std::thread::spawn(move || read_loop(conn, stream, tx));
        }
    });
}

/// Decode frames off one connection until EOF or a wire error.
fn read_loop(conn: u64, mut stream: TcpStream, tx: mpsc::Sender<Event>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if tx.send(Event::Frame { conn, frame }).is_err() {
                    return;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // A malformed frame poisons the stream (framing is
                // lost); log and drop the connection, not the node.
                if !matches!(&e, wire::WireError::Io(io) if io.kind() == ErrorKind::ConnectionReset)
                {
                    eprintln!("wire error on conn {conn}: {e}");
                }
                break;
            }
        }
    }
    let _ = tx.send(Event::Closed { conn });
}

// ---------------------------------------------------------------------
// Client side (flower-cli)
// ---------------------------------------------------------------------

/// Dial a node, send one API call, await the matching response.
pub fn api_request(
    addr: SocketAddr,
    call: flower_proto::ApiCall,
    timeout: Duration,
) -> Result<ApiResp, wire::WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    wire::write_frame(&mut stream, &Frame::Api { token: 0, call })?;
    loop {
        match wire::read_frame(&mut stream)? {
            Some(Frame::ApiResp { resp, .. }) => return Ok(resp),
            Some(_) => continue,
            None => {
                return Err(wire::WireError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "node closed the connection before responding",
                )))
            }
        }
    }
}

/// Ask a node to shut down cleanly. The node closes the connection once
/// the shutdown is processed.
pub fn shutdown(addr: SocketAddr, timeout: Duration) -> Result<(), wire::WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    wire::write_frame(&mut stream, &Frame::Shutdown)?;
    // Wait for the node to drop the connection so callers can treat a
    // successful return as "the node is gone".
    stream.set_read_timeout(Some(timeout))?;
    let mut sink = [0u8; 64];
    use std::io::Read;
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    let _ = stream.flush();
    Ok(())
}

#[cfg(test)]
mod tests;

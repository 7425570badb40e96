//! Length-prefixed, versioned wire codec for the flower protocol.
//!
//! A frame on the socket is
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 version][u8 kind][body...]
//! ```
//!
//! with all integers little-endian and fixed-width. The codec is
//! hand-rolled (no serde in the tree) and **total**: every decode path
//! returns a typed [`WireError`] — malformed, truncated or corrupt input
//! can never panic the node. Encoding is deterministic, so
//! `decode(encode(m)) == m` holds for every message (property-tested in
//! `tests/wire_roundtrip.rs`).

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordId, ChordMsg, NodeRef, StepResult};
use flower_proto::{
    ApiCall, ApiResp, DirInfo, DirPosition, DirectorySnapshot, FlowerMsg, ProviderKind, QueryId,
    RoleKind, RoutePayload, Summary,
};
use gossip::{Entry, GossipMsg};
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

/// Protocol version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload; a corrupt length prefix must not
/// make the reader allocate gigabytes.
pub const MAX_FRAME: usize = 8 << 20;

/// Upper bound on any single collection inside a frame (view entries,
/// object lists, successor lists). Generous for the protocol's real
/// traffic, tight enough that a hostile length field cannot balloon
/// memory before the truncation check catches it.
const MAX_ITEMS: usize = 1 << 20;

/// Upper bound on Bloom filter bits accepted off the wire (16 MiB of
/// summary is far beyond anything the protocol produces).
const MAX_BLOOM_BITS: usize = 1 << 27;

/// Everything that can go wrong decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The body ended before the announced structure did.
    Truncated,
    /// Version byte we do not speak.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Unknown enum discriminant inside a known structure.
    BadTag { what: &'static str, tag: u8 },
    /// A length or parameter field is inconsistent or absurd.
    Malformed(&'static str),
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Bytes left over after a complete decode (framing bug or garbage).
    TrailingBytes(usize),
    /// Underlying socket error.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Everything that travels on a socket between flower processes.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on a peer connection: who is dialing.
    Hello { node: NodeId },
    /// Protocol traffic between peers.
    Peer(FlowerMsg),
    /// A CLI request; `token` correlates the response on the same
    /// connection.
    Api { token: u64, call: ApiCall },
    /// The node's answer to an [`Frame::Api`] request.
    ApiResp { token: u64, resp: ApiResp },
    /// Ask the node to leave the ring and exit cleanly.
    Shutdown,
}

const KIND_HELLO: u8 = 0;
const KIND_PEER: u8 = 1;
const KIND_API: u8 = 2;
const KIND_API_RESP: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    fn node(&mut self, n: NodeId) {
        self.u64(n.raw());
    }
    fn website(&mut self, w: WebsiteId) {
        self.u16(w.0);
    }
    fn locality(&mut self, l: LocalityId) {
        self.u16(l.0);
    }
    fn object(&mut self, o: ObjectId) {
        self.website(o.website);
        self.u16(o.rank);
    }
    fn chord_id(&mut self, id: ChordId) {
        self.u64(id.0);
    }
    fn node_ref(&mut self, r: NodeRef) {
        self.node(r.node);
        self.chord_id(r.id);
    }
    fn qid(&mut self, q: QueryId) {
        self.u64(q.raw());
    }
    fn position(&mut self, p: DirPosition) {
        self.website(p.website);
        self.locality(p.locality);
        self.u32(p.instance);
    }
    fn dir_info(&mut self, d: &DirInfo) {
        self.position(d.position);
        self.node_ref(d.holder);
        self.u32(d.age);
    }
    fn bloom(&mut self, b: &BloomFilter) {
        self.u32(b.bit_len() as u32);
        self.u32(b.hash_count());
        self.u32(b.inserted() as u32);
        for w in b.words() {
            self.u64(*w);
        }
    }
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
    fn nodes(&mut self, ns: &[NodeId]) {
        self.len(ns.len());
        for n in ns {
            self.node(*n);
        }
    }
    fn objects(&mut self, os: &[ObjectId]) {
        self.len(os.len());
        for o in os {
            self.object(*o);
        }
    }
    fn view(&mut self, view: &[(NodeId, Summary)]) {
        self.len(view.len());
        for (n, s) in view {
            self.node(*n);
            self.bloom(s);
        }
    }
    fn step(&mut self, s: StepResult) {
        match s {
            StepResult::Owner(r) => {
                self.u8(0);
                self.node_ref(r);
            }
            StepResult::Forward(r) => {
                self.u8(1);
                self.node_ref(r);
            }
            StepResult::Unknown => self.u8(2),
        }
    }

    fn chord(&mut self, m: &ChordMsg) {
        match m {
            ChordMsg::FindNext { key, token, from } => {
                self.u8(0);
                self.chord_id(*key);
                self.u64(*token);
                self.node_ref(*from);
            }
            ChordMsg::FindNextReply { token, result } => {
                self.u8(1);
                self.u64(*token);
                self.step(*result);
            }
            ChordMsg::GetNeighbors { gen, from } => {
                self.u8(2);
                self.u64(*gen);
                self.node_ref(*from);
            }
            ChordMsg::NeighborsReply {
                gen,
                sender,
                predecessor,
                successors,
            } => {
                self.u8(3);
                self.u64(*gen);
                self.node_ref(*sender);
                self.opt(*predecessor, Enc::node_ref);
                self.len(successors.len());
                for s in successors {
                    self.node_ref(*s);
                }
            }
            ChordMsg::Notify { candidate } => {
                self.u8(4);
                self.node_ref(*candidate);
            }
            ChordMsg::Ping { nonce } => {
                self.u8(5);
                self.u64(*nonce);
            }
            ChordMsg::Pong { nonce } => {
                self.u8(6);
                self.u64(*nonce);
            }
            ChordMsg::Route {
                key,
                token,
                origin,
                hops,
            } => {
                self.u8(7);
                self.chord_id(*key);
                self.u64(*token);
                self.node_ref(*origin);
                self.u32(*hops);
            }
            ChordMsg::RouteResult { token, owner, hops } => {
                self.u8(8);
                self.u64(*token);
                self.node_ref(*owner);
                self.u32(*hops);
            }
        }
    }

    fn payload(&mut self, p: &RoutePayload) {
        match p {
            RoutePayload::ClientRequest {
                client,
                website,
                locality,
                object,
                qid,
            } => {
                self.u8(0);
                self.node(*client);
                self.website(*website);
                self.locality(*locality);
                self.opt(*object, Enc::object);
                self.qid(*qid);
            }
            RoutePayload::Claim { claimer, position } => {
                self.u8(1);
                self.node(*claimer);
                self.position(*position);
            }
        }
    }

    fn gossip(&mut self, g: &GossipMsg<Summary>) {
        let (tag, entries) = match g {
            GossipMsg::ShuffleReq { entries } => (0, entries),
            GossipMsg::ShuffleReply { entries } => (1, entries),
        };
        self.u8(tag);
        self.len(entries.len());
        for e in entries {
            self.node(e.node);
            self.u32(e.age);
            self.bloom(&e.payload);
        }
    }

    fn snapshot(&mut self, s: &DirectorySnapshot) {
        self.len(s.entries.len());
        for (node, objects, heard) in &s.entries {
            self.node(*node);
            self.objects(objects);
            self.u64(*heard);
        }
    }

    fn flower(&mut self, m: &FlowerMsg) {
        match m {
            FlowerMsg::Chord(c) => {
                self.u8(0);
                self.chord(c);
            }
            FlowerMsg::DRingRoute { key, payload } => {
                self.u8(1);
                self.chord_id(*key);
                self.payload(payload);
            }
            FlowerMsg::Routed { key, payload, hops } => {
                self.u8(2);
                self.chord_id(*key);
                self.payload(payload);
                self.u32(*hops);
            }
            FlowerMsg::RouteFailed { req_qid } => {
                self.u8(3);
                self.qid(*req_qid);
            }
            FlowerMsg::Redirect {
                qid,
                object,
                provider,
                dir,
                petal_view,
                dht_hops,
            } => {
                self.u8(4);
                self.qid(*qid);
                self.opt(*object, Enc::object);
                self.opt(*provider, Enc::node);
                self.dir_info(dir);
                self.view(petal_view);
                self.u32(*dht_hops);
            }
            FlowerMsg::DirQuery {
                qid,
                object,
                exclude,
            } => {
                self.u8(5);
                self.qid(*qid);
                self.object(*object);
                self.nodes(exclude);
            }
            FlowerMsg::SiblingQuery {
                client,
                qid,
                object,
                dir,
                petal_view,
                exclude,
                ttl,
            } => {
                self.u8(6);
                self.node(*client);
                self.qid(*qid);
                self.object(*object);
                self.dir_info(dir);
                self.view(petal_view);
                self.nodes(exclude);
                self.u8(*ttl);
            }
            FlowerMsg::DeadPeerReport { peer } => {
                self.u8(7);
                self.node(*peer);
            }
            FlowerMsg::Retract { objects } => {
                self.u8(8);
                self.objects(objects);
            }
            FlowerMsg::ClaimGranted { position, seed } => {
                self.u8(9);
                self.position(*position);
                self.node_ref(*seed);
            }
            FlowerMsg::ClaimDenied { position, holder } => {
                self.u8(10);
                self.position(*position);
                self.node_ref(*holder);
            }
            FlowerMsg::Fetch { qid, object } => {
                self.u8(11);
                self.qid(*qid);
                self.object(*object);
            }
            FlowerMsg::FetchOk { qid, object } => {
                self.u8(12);
                self.qid(*qid);
                self.object(*object);
            }
            FlowerMsg::FetchMiss { qid, object } => {
                self.u8(13);
                self.qid(*qid);
                self.object(*object);
            }
            FlowerMsg::Gossip { inner, dir_info } => {
                self.u8(14);
                self.gossip(inner);
                self.opt(dir_info.as_ref(), |e, d| e.dir_info(d));
            }
            FlowerMsg::Keepalive { seq } => {
                self.u8(15);
                self.u64(*seq);
            }
            FlowerMsg::Push { seq, objects, full } => {
                self.u8(16);
                self.u64(*seq);
                self.objects(objects);
                self.boolean(*full);
            }
            FlowerMsg::DirAck { seq, dir } => {
                self.u8(17);
                self.u64(*seq);
                self.dir_info(dir);
            }
            FlowerMsg::Promote {
                position,
                seed,
                snapshot,
            } => {
                self.u8(18);
                self.position(*position);
                self.node_ref(*seed);
                self.opt(snapshot.as_ref(), |e, s| e.snapshot(s));
            }
        }
    }

    fn api_call(&mut self, c: ApiCall) {
        match c {
            ApiCall::Ping => self.u8(0),
            ApiCall::Put { object } => {
                self.u8(1);
                self.object(object);
            }
            ApiCall::Get { object } => {
                self.u8(2);
                self.object(object);
            }
            ApiCall::FindDirectory => self.u8(3),
        }
    }

    fn api_resp(&mut self, r: &ApiResp) {
        match r {
            ApiResp::Pong {
                node,
                role,
                website,
                locality,
                store_len,
                view_len,
            } => {
                self.u8(0);
                self.node(*node);
                self.u8(match role {
                    RoleKind::Client => 0,
                    RoleKind::Content => 1,
                    RoleKind::Directory => 2,
                });
                self.website(*website);
                self.locality(*locality);
                self.u64(*store_len);
                self.u64(*view_len);
            }
            ApiResp::PutOk { object } => {
                self.u8(1);
                self.object(*object);
            }
            ApiResp::Got {
                object,
                provider,
                elapsed_ms,
            } => {
                self.u8(2);
                self.object(*object);
                self.u8(match provider {
                    ProviderKind::Local => 0,
                    ProviderKind::ContentPeer => 1,
                    ProviderKind::DirectoryPeer => 2,
                    ProviderKind::Origin => 3,
                });
                self.u64(*elapsed_ms);
            }
            ApiResp::Directory { dir } => {
                self.u8(3);
                self.opt(dir.as_ref(), |e, d| e.dir_info(d));
            }
            ApiResp::Busy => self.u8(4),
        }
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
}

type R<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> R<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> R<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn boolean(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
    fn count(&mut self) -> R<usize> {
        let n = self.u32()? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::Malformed("collection length"));
        }
        Ok(n)
    }

    fn node(&mut self) -> R<NodeId> {
        // Wire ids are u64 for forward compatibility; live ids are dense
        // u32 indices, so anything wider is garbage, not a node.
        let raw = self.u64()?;
        if raw >= u64::from(u32::MAX) {
            return Err(WireError::Malformed("node id"));
        }
        Ok(NodeId::from_index(raw as usize))
    }
    fn website(&mut self) -> R<WebsiteId> {
        Ok(WebsiteId(self.u16()?))
    }
    fn locality(&mut self) -> R<LocalityId> {
        Ok(LocalityId(self.u16()?))
    }
    fn object(&mut self) -> R<ObjectId> {
        Ok(ObjectId {
            website: self.website()?,
            rank: self.u16()?,
        })
    }
    fn chord_id(&mut self) -> R<ChordId> {
        Ok(ChordId(self.u64()?))
    }
    fn node_ref(&mut self) -> R<NodeRef> {
        Ok(NodeRef::new(self.node()?, self.chord_id()?))
    }
    fn qid(&mut self) -> R<QueryId> {
        Ok(QueryId::from_raw(self.u64()?))
    }
    fn position(&mut self) -> R<DirPosition> {
        let website = self.website()?;
        let locality = self.locality()?;
        let instance = self.u32()?;
        DirPosition::checked(website, locality, instance)
            .ok_or(WireError::Malformed("dir position"))
    }
    fn dir_info(&mut self) -> R<DirInfo> {
        Ok(DirInfo {
            position: self.position()?,
            holder: self.node_ref()?,
            age: self.u32()?,
        })
    }
    fn bloom(&mut self) -> R<Summary> {
        let m = self.u32()? as usize;
        let k = self.u32()?;
        let items = self.u32()? as usize;
        if m == 0 || m > MAX_BLOOM_BITS || k == 0 {
            return Err(WireError::Malformed("bloom parameters"));
        }
        let words = m.div_ceil(64);
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(self.u64()?);
        }
        BloomFilter::from_parts(m, k, items, bits)
            .map(Arc::new)
            .ok_or(WireError::Malformed("bloom parameters"))
    }
    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> R<T>) -> R<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
    fn nodes(&mut self) -> R<Vec<NodeId>> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.node()?);
        }
        Ok(v)
    }
    fn objects(&mut self) -> R<Vec<ObjectId>> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.object()?);
        }
        Ok(v)
    }
    fn view(&mut self) -> R<Vec<(NodeId, Summary)>> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let node = self.node()?;
            let s = self.bloom()?;
            v.push((node, s));
        }
        Ok(v)
    }
    fn step(&mut self) -> R<StepResult> {
        match self.u8()? {
            0 => Ok(StepResult::Owner(self.node_ref()?)),
            1 => Ok(StepResult::Forward(self.node_ref()?)),
            2 => Ok(StepResult::Unknown),
            tag => Err(WireError::BadTag {
                what: "step result",
                tag,
            }),
        }
    }

    fn chord(&mut self) -> R<ChordMsg> {
        Ok(match self.u8()? {
            0 => ChordMsg::FindNext {
                key: self.chord_id()?,
                token: self.u64()?,
                from: self.node_ref()?,
            },
            1 => ChordMsg::FindNextReply {
                token: self.u64()?,
                result: self.step()?,
            },
            2 => ChordMsg::GetNeighbors {
                gen: self.u64()?,
                from: self.node_ref()?,
            },
            3 => {
                let gen = self.u64()?;
                let sender = self.node_ref()?;
                let predecessor = self.opt(Dec::node_ref)?;
                let n = self.count()?;
                let mut successors = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    successors.push(self.node_ref()?);
                }
                ChordMsg::NeighborsReply {
                    gen,
                    sender,
                    predecessor,
                    successors,
                }
            }
            4 => ChordMsg::Notify {
                candidate: self.node_ref()?,
            },
            5 => ChordMsg::Ping { nonce: self.u64()? },
            6 => ChordMsg::Pong { nonce: self.u64()? },
            7 => ChordMsg::Route {
                key: self.chord_id()?,
                token: self.u64()?,
                origin: self.node_ref()?,
                hops: self.u32()?,
            },
            8 => ChordMsg::RouteResult {
                token: self.u64()?,
                owner: self.node_ref()?,
                hops: self.u32()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "chord message",
                    tag,
                })
            }
        })
    }

    fn payload(&mut self) -> R<RoutePayload> {
        Ok(match self.u8()? {
            0 => RoutePayload::ClientRequest {
                client: self.node()?,
                website: self.website()?,
                locality: self.locality()?,
                object: self.opt(Dec::object)?,
                qid: self.qid()?,
            },
            1 => RoutePayload::Claim {
                claimer: self.node()?,
                position: self.position()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "route payload",
                    tag,
                })
            }
        })
    }

    fn gossip(&mut self) -> R<GossipMsg<Summary>> {
        let tag = self.u8()?;
        if tag > 1 {
            return Err(WireError::BadTag {
                what: "gossip message",
                tag,
            });
        }
        let n = self.count()?;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let node = self.node()?;
            let age = self.u32()?;
            let payload = self.bloom()?;
            entries.push(Entry { node, age, payload });
        }
        Ok(if tag == 0 {
            GossipMsg::ShuffleReq { entries }
        } else {
            GossipMsg::ShuffleReply { entries }
        })
    }

    fn snapshot(&mut self) -> R<DirectorySnapshot> {
        let n = self.count()?;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let node = self.node()?;
            let objects = self.objects()?;
            let heard = self.u64()?;
            entries.push((node, objects, heard));
        }
        Ok(DirectorySnapshot { entries })
    }

    fn flower(&mut self) -> R<FlowerMsg> {
        Ok(match self.u8()? {
            0 => FlowerMsg::Chord(self.chord()?),
            1 => FlowerMsg::DRingRoute {
                key: self.chord_id()?,
                payload: self.payload()?,
            },
            2 => FlowerMsg::Routed {
                key: self.chord_id()?,
                payload: self.payload()?,
                hops: self.u32()?,
            },
            3 => FlowerMsg::RouteFailed {
                req_qid: self.qid()?,
            },
            4 => FlowerMsg::Redirect {
                qid: self.qid()?,
                object: self.opt(Dec::object)?,
                provider: self.opt(Dec::node)?,
                dir: self.dir_info()?,
                petal_view: self.view()?,
                dht_hops: self.u32()?,
            },
            5 => FlowerMsg::DirQuery {
                qid: self.qid()?,
                object: self.object()?,
                exclude: self.nodes()?,
            },
            6 => FlowerMsg::SiblingQuery {
                client: self.node()?,
                qid: self.qid()?,
                object: self.object()?,
                dir: self.dir_info()?,
                petal_view: self.view()?,
                exclude: self.nodes()?,
                ttl: self.u8()?,
            },
            7 => FlowerMsg::DeadPeerReport { peer: self.node()? },
            8 => FlowerMsg::Retract {
                objects: self.objects()?,
            },
            9 => FlowerMsg::ClaimGranted {
                position: self.position()?,
                seed: self.node_ref()?,
            },
            10 => FlowerMsg::ClaimDenied {
                position: self.position()?,
                holder: self.node_ref()?,
            },
            11 => FlowerMsg::Fetch {
                qid: self.qid()?,
                object: self.object()?,
            },
            12 => FlowerMsg::FetchOk {
                qid: self.qid()?,
                object: self.object()?,
            },
            13 => FlowerMsg::FetchMiss {
                qid: self.qid()?,
                object: self.object()?,
            },
            14 => FlowerMsg::Gossip {
                inner: self.gossip()?,
                dir_info: self.opt(Dec::dir_info)?,
            },
            15 => FlowerMsg::Keepalive { seq: self.u64()? },
            16 => FlowerMsg::Push {
                seq: self.u64()?,
                objects: self.objects()?,
                full: self.boolean()?,
            },
            17 => FlowerMsg::DirAck {
                seq: self.u64()?,
                dir: self.dir_info()?,
            },
            18 => FlowerMsg::Promote {
                position: self.position()?,
                seed: self.node_ref()?,
                snapshot: self.opt(Dec::snapshot)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "flower message",
                    tag,
                })
            }
        })
    }

    fn api_call(&mut self) -> R<ApiCall> {
        Ok(match self.u8()? {
            0 => ApiCall::Ping,
            1 => ApiCall::Put {
                object: self.object()?,
            },
            2 => ApiCall::Get {
                object: self.object()?,
            },
            3 => ApiCall::FindDirectory,
            tag => {
                return Err(WireError::BadTag {
                    what: "api call",
                    tag,
                })
            }
        })
    }

    fn role(&mut self) -> R<RoleKind> {
        Ok(match self.u8()? {
            0 => RoleKind::Client,
            1 => RoleKind::Content,
            2 => RoleKind::Directory,
            tag => return Err(WireError::BadTag { what: "role", tag }),
        })
    }

    fn provider(&mut self) -> R<ProviderKind> {
        Ok(match self.u8()? {
            0 => ProviderKind::Local,
            1 => ProviderKind::ContentPeer,
            2 => ProviderKind::DirectoryPeer,
            3 => ProviderKind::Origin,
            tag => {
                return Err(WireError::BadTag {
                    what: "provider",
                    tag,
                })
            }
        })
    }

    fn api_resp(&mut self) -> R<ApiResp> {
        Ok(match self.u8()? {
            0 => ApiResp::Pong {
                node: self.node()?,
                role: self.role()?,
                website: self.website()?,
                locality: self.locality()?,
                store_len: self.u64()?,
                view_len: self.u64()?,
            },
            1 => ApiResp::PutOk {
                object: self.object()?,
            },
            2 => ApiResp::Got {
                object: self.object()?,
                provider: self.provider()?,
                elapsed_ms: self.u64()?,
            },
            3 => ApiResp::Directory {
                dir: self.opt(Dec::dir_info)?,
            },
            4 => ApiResp::Busy,
            tag => {
                return Err(WireError::BadTag {
                    what: "api response",
                    tag,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Encode one frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(WIRE_VERSION);
    match frame {
        Frame::Hello { node } => {
            e.u8(KIND_HELLO);
            e.node(*node);
        }
        Frame::Peer(m) => {
            e.u8(KIND_PEER);
            e.flower(m);
        }
        Frame::Api { token, call } => {
            e.u8(KIND_API);
            e.u64(*token);
            e.api_call(*call);
        }
        Frame::ApiResp { token, resp } => {
            e.u8(KIND_API_RESP);
            e.u64(*token);
            e.api_resp(resp);
        }
        Frame::Shutdown => e.u8(KIND_SHUTDOWN),
    }
    let body = e.buf;
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode one frame payload (everything after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec { buf: payload };
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame = match d.u8()? {
        KIND_HELLO => Frame::Hello { node: d.node()? },
        KIND_PEER => Frame::Peer(d.flower()?),
        KIND_API => Frame::Api {
            token: d.u64()?,
            call: d.api_call()?,
        },
        KIND_API_RESP => Frame::ApiResp {
            token: d.u64()?,
            resp: d.api_resp()?,
        },
        KIND_SHUTDOWN => Frame::Shutdown,
        kind => return Err(WireError::BadKind(kind)),
    };
    if !d.buf.is_empty() {
        return Err(WireError::TrailingBytes(d.buf.len()));
    }
    Ok(frame)
}

/// Decode one length-prefixed frame from a byte slice; returns the frame
/// and the total bytes consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    if bytes.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let frame = decode_payload(&bytes[4..4 + len])?;
    Ok((frame, 4 + len))
}

/// The exact on-wire size of a peer message, length prefix and frame
/// header included. Ground truth for the `msg_wire_bytes` estimates.
pub fn peer_frame_len(msg: &FlowerMsg) -> usize {
    encode_frame(&Frame::Peer(msg.clone())).len()
}

/// Read one frame from a blocking stream. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(WireError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some)
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

//! The byte form of every protocol and API message, defined next to the
//! messages themselves.
//!
//! All integers are little-endian and fixed-width. The codec is hand-rolled
//! (no serde in the tree) and **total**: every decode path returns a typed
//! [`WireError`] — malformed, truncated or corrupt input can never panic a
//! node. Encoding is deterministic, so `decode(encode(m)) == m` holds for
//! every message (property-tested in `crates/net/tests/wire_roundtrip.rs`).
//!
//! One put code serves both hosts: `flower-net` runs [`Enc`] over a
//! `Vec<u8>` and frames the result for a socket; the simulator runs the
//! same [`Enc`] over a counter (`encoded_len`) to charge a message exactly
//! the bytes TCP would carry ([`FlowerMsg::wire_bytes`],
//! `SqMsg::wire_bytes`).

use std::fmt;
use std::io;
use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordId, ChordMsg, NodeRef, StepResult};
use gossip::{Entry, GossipMsg};
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::{
    ApiCall, ApiResp, DirInfo, DirPosition, DirectorySnapshot, FlowerMsg, ProviderKind, QueryId,
    RoleKind, RoutePayload, Summary,
};

/// Bytes the TCP host's frame adds around an encoded message: the `u32`
/// length prefix, the version byte and the kind byte.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 1;

/// The object body a transfer (`FetchOk`, Squirrel's `StoreCopy`) would
/// carry on a real wire. Objects are identifiers in this reproduction, so
/// the codec ships none; the byte accounting charges the paper's
/// small-object regime (a few KiB) on top of the encoded message.
pub const MODELLED_OBJECT_BYTES: usize = 4096;

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
    /// The length prefix exceeds the host's frame limit.
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

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Where an [`Enc`] puts its bytes.
pub trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    // Not generic, so without the hint every byte put from `flower-net`'s
    // instantiation of `Enc` would be an out-of-line call into this crate.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A counter as a sink keeps only the length of what was put.
impl Sink for usize {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// The bytes `put` writes, counted instead of written (no allocation).
pub(crate) fn encoded_len(put: impl FnOnce(&mut Enc<usize>)) -> usize {
    let mut e = Enc { out: 0 };
    put(&mut e);
    e.out
}

/// The put half of the codec, over any [`Sink`].
pub struct Enc<S> {
    pub out: S,
}

impl<S: Sink> Enc<S> {
    pub fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.out.put(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }
    pub(crate) fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    pub(crate) fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    pub fn node(&mut self, n: NodeId) {
        self.u64(n.raw());
    }
    pub(crate) fn website(&mut self, w: WebsiteId) {
        self.u16(w.0);
    }
    pub(crate) fn locality(&mut self, l: LocalityId) {
        self.u16(l.0);
    }
    pub(crate) fn object(&mut self, o: ObjectId) {
        self.website(o.website);
        self.u16(o.rank);
    }
    pub(crate) fn chord_id(&mut self, id: ChordId) {
        self.u64(id.0);
    }
    pub(crate) fn node_ref(&mut self, r: NodeRef) {
        self.node(r.node);
        self.chord_id(r.id);
    }
    pub(crate) fn qid(&mut self, q: QueryId) {
        self.u64(q.raw());
    }
    pub(crate) fn position(&mut self, p: DirPosition) {
        self.website(p.website);
        self.locality(p.locality);
        self.u32(p.instance);
    }
    pub(crate) fn dir_info(&mut self, d: &DirInfo) {
        self.position(d.position);
        self.node_ref(d.holder);
        self.u32(d.age);
    }
    pub(crate) fn bloom(&mut self, b: &BloomFilter) {
        self.u32(b.bit_len() as u32);
        self.u32(b.hash_count());
        self.u32(b.inserted() as u32);
        for w in b.words() {
            self.u64(*w);
        }
    }
    pub(crate) fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
    /// A length-prefixed sequence, each item put by `f`.
    pub(crate) fn list<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.len(items.len());
        for item in items {
            f(self, item);
        }
    }
    pub(crate) fn nodes(&mut self, ns: &[NodeId]) {
        self.list(ns, |e, n| e.node(*n));
    }
    pub(crate) fn objects(&mut self, os: &[ObjectId]) {
        self.list(os, |e, o| e.object(*o));
    }
    pub(crate) fn view(&mut self, view: &[(NodeId, Summary)]) {
        self.list(view, |e, (n, s)| {
            e.node(*n);
            e.bloom(s);
        });
    }
    pub(crate) fn step(&mut self, s: StepResult) {
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

    pub(crate) fn chord(&mut self, m: &ChordMsg) {
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
                self.opt(*predecessor, Self::node_ref);
                self.list(successors, |e, s| e.node_ref(*s));
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

    pub(crate) fn payload(&mut self, p: &RoutePayload) {
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
                self.opt(*object, Self::object);
                self.qid(*qid);
            }
            RoutePayload::Claim { claimer, position } => {
                self.u8(1);
                self.node(*claimer);
                self.position(*position);
            }
        }
    }

    pub(crate) fn gossip(&mut self, g: &GossipMsg<Summary>) {
        let (tag, entries) = match g {
            GossipMsg::ShuffleReq { entries } => (0, entries),
            GossipMsg::ShuffleReply { entries } => (1, entries),
        };
        self.u8(tag);
        self.list(entries, |e, entry| {
            e.node(entry.node);
            e.u32(entry.age);
            e.bloom(&entry.payload);
        });
    }

    pub(crate) fn snapshot(&mut self, s: &DirectorySnapshot) {
        self.list(&s.entries, |e, (node, objects, heard)| {
            e.node(*node);
            e.objects(objects);
            e.u64(*heard);
        });
    }

    pub fn flower(&mut self, m: &FlowerMsg) {
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
                self.opt(*object, Self::object);
                self.opt(*provider, Self::node);
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

    pub fn api_call(&mut self, c: ApiCall) {
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

    pub fn api_resp(&mut self, r: &ApiResp) {
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

/// The get half of the codec: a cursor over one received payload.
pub struct Dec<'a> {
    /// What is left to read.
    pub buf: &'a [u8],
}

type R<T> = Result<T, WireError>;

fn bad_tag<T>(what: &'static str, tag: u8) -> R<T> {
    Err(WireError::BadTag { what, tag })
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    pub fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> R<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> R<u64> {
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

    pub fn node(&mut self) -> R<NodeId> {
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
    /// A length-prefixed sequence, each item got by `f`. The announced
    /// length is capped and never trusted for more than a small
    /// pre-allocation: a hostile count runs into `Truncated` first.
    fn list<T>(&mut self, mut f: impl FnMut(&mut Self) -> R<T>) -> R<Vec<T>> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }
    fn nodes(&mut self) -> R<Vec<NodeId>> {
        self.list(Dec::node)
    }
    fn objects(&mut self) -> R<Vec<ObjectId>> {
        self.list(Dec::object)
    }
    fn view(&mut self) -> R<Vec<(NodeId, Summary)>> {
        self.list(|d| Ok((d.node()?, d.bloom()?)))
    }
    fn step(&mut self) -> R<StepResult> {
        match self.u8()? {
            0 => Ok(StepResult::Owner(self.node_ref()?)),
            1 => Ok(StepResult::Forward(self.node_ref()?)),
            2 => Ok(StepResult::Unknown),
            tag => bad_tag("step result", tag),
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
                let successors = self.list(Dec::node_ref)?;
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
            tag => return bad_tag("chord message", tag),
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
            tag => return bad_tag("route payload", tag),
        })
    }

    fn gossip(&mut self) -> R<GossipMsg<Summary>> {
        let tag = self.u8()?;
        if tag > 1 {
            return bad_tag("gossip message", tag);
        }
        let entries = self.list(|d| {
            Ok(Entry {
                node: d.node()?,
                age: d.u32()?,
                payload: d.bloom()?,
            })
        })?;
        Ok(if tag == 0 {
            GossipMsg::ShuffleReq { entries }
        } else {
            GossipMsg::ShuffleReply { entries }
        })
    }

    fn snapshot(&mut self) -> R<DirectorySnapshot> {
        let entries = self.list(|d| Ok((d.node()?, d.objects()?, d.u64()?)))?;
        Ok(DirectorySnapshot { entries })
    }

    pub fn flower(&mut self) -> R<FlowerMsg> {
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
            tag => return bad_tag("flower message", tag),
        })
    }

    pub fn api_call(&mut self) -> R<ApiCall> {
        Ok(match self.u8()? {
            0 => ApiCall::Ping,
            1 => ApiCall::Put {
                object: self.object()?,
            },
            2 => ApiCall::Get {
                object: self.object()?,
            },
            3 => ApiCall::FindDirectory,
            tag => return bad_tag("api call", tag),
        })
    }

    fn role(&mut self) -> R<RoleKind> {
        Ok(match self.u8()? {
            0 => RoleKind::Client,
            1 => RoleKind::Content,
            2 => RoleKind::Directory,
            tag => return bad_tag("role", tag),
        })
    }

    fn provider(&mut self) -> R<ProviderKind> {
        Ok(match self.u8()? {
            0 => ProviderKind::Local,
            1 => ProviderKind::ContentPeer,
            2 => ProviderKind::DirectoryPeer,
            3 => ProviderKind::Origin,
            tag => return bad_tag("provider", tag),
        })
    }

    pub fn api_resp(&mut self) -> R<ApiResp> {
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
            tag => return bad_tag("api response", tag),
        })
    }
}

//! Wire messages and timers of the Flower-CDN / PetalUp-CDN protocol.

use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordMsg, ChordTimer, NodeRef};
use gossip::GossipMsg;
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::directory::DirectorySnapshot;
use crate::dirinfo::DirInfo;
use crate::dring::DirPosition;
use crate::qid::QueryId;
use crate::timeline::Stage;
use crate::wire::{self, Wire};

/// A peer's content summary as carried in gossip views. A summary is
/// built once and never changed, and one peer's summary ends up in many
/// views, shuffles and Redirects, so it is shared: copying an entry copies
/// a pointer, not the filter's bit array. `Arc`, not `Rc`: the `net`
/// host's reader threads decode frames and pass them over channels.
pub type Summary = Arc<BloomFilter>;

/// Payloads routed over D-ring (inside [`FlowerMsg::DRingRoute`] /
/// [`FlowerMsg::Routed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePayload {
    /// A new client's query (§3.2) — or, with `object = None`, a plain
    /// petal-join request (peers of non-active websites, §6.1).
    ClientRequest {
        client: NodeId,
        website: WebsiteId,
        locality: LocalityId,
        object: Option<ObjectId>,
        qid: QueryId,
    },
    /// A claim on a (presumed vacant) directory position (§5.2.2). The
    /// first claim to reach the position's ring owner wins.
    Claim {
        claimer: NodeId,
        position: DirPosition,
    },
}

impl RoutePayload {
    /// The query a client request carries; a claim carries none.
    pub(crate) fn client_qid(&self) -> Option<QueryId> {
        match self {
            RoutePayload::ClientRequest { qid, .. } => Some(*qid),
            RoutePayload::Claim { .. } => None,
        }
    }
}

/// A directory peer answers query `qid`: where to get the object the
/// client's pending query names. Also the join ticket into the petal
/// (`dir` + `petal_view`).
#[derive(Debug, Clone, PartialEq)]
pub struct Redirect {
    pub qid: QueryId,
    /// `None`: fetch from the origin server (miss).
    pub provider: Option<NodeId>,
    /// The responding directory instance (the client's new dir-info).
    pub dir: DirInfo,
    /// Contacts to seed the client's petal view (§4).
    pub petal_view: Vec<(NodeId, Summary)>,
    /// DHT hops spent reaching this directory (0 for direct asks).
    pub dht_hops: u32,
}

/// A provider search for `client`'s query (§3.2). The directory that got
/// the query, finding no provider in its petal, walks it along its
/// same-website ring neighbours; whichever sibling can serve (or the last
/// one) answers the client directly with the first directory's join ticket
/// (`dir` + `petal_view`).
#[derive(Debug, Clone, PartialEq)]
pub struct SiblingQuery {
    pub client: NodeId,
    pub qid: QueryId,
    pub object: ObjectId,
    pub dir: DirInfo,
    pub petal_view: Vec<(NodeId, Summary)>,
    /// Providers that must not be named: the ones that already failed the
    /// client, the client, and every directory the search visited.
    pub exclude: Vec<NodeId>,
    /// Further siblings the search may visit.
    pub ttl: u8,
}

/// All messages exchanged by Flower-CDN peers.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowerMsg {
    /// D-ring maintenance traffic between directory peers.
    Chord(ChordMsg),
    /// A peer without D-ring membership asks a directory peer (its
    /// bootstrap) to route `payload` to the owner of `key`.
    DRingRoute {
        key: chord::ChordId,
        payload: RoutePayload,
    },
    /// Routed payload delivered to the ring owner of `key`.
    Routed {
        key: chord::ChordId,
        payload: RoutePayload,
        /// DHT hops the routing lookup took (for the lookup-latency metric).
        hops: u32,
    },
    /// The bootstrap could not route (D-ring lookup failed).
    RouteFailed { req_qid: QueryId },
    /// A directory peer answers a query.
    Redirect(Redirect),
    /// A content peer asks its own directory to resolve a query (§5.1
    /// restricts it to the instance it joined through). `exclude` lists
    /// providers that already failed the client on this query.
    DirQuery {
        qid: QueryId,
        object: ObjectId,
        exclude: Vec<NodeId>,
    },
    /// A provider search walking the website's sibling directories.
    SiblingQuery(SiblingQuery),
    /// A client reports a provider that failed to deliver, so the
    /// directory can drop the stale pointer.
    DeadPeerReport { peer: NodeId },
    /// A content peer evicted objects under a bounded-cache policy and
    /// retracts them from its directory's index.
    Retract { objects: Vec<ObjectId> },
    /// Position claim granted: claimer may join D-ring at the position,
    /// using `seed` as its Chord bootstrap.
    ClaimGranted {
        position: DirPosition,
        seed: NodeRef,
    },
    /// Claim denied: the position is already held by `holder`.
    ClaimDenied {
        position: DirPosition,
        holder: NodeRef,
    },
    /// Object transfer request…
    Fetch { qid: QueryId, object: ObjectId },
    /// …granted (the object travels back; the client's pending query
    /// names it)…
    FetchOk { qid: QueryId },
    /// …or refused (summary false positive / stale index entry).
    FetchMiss { qid: QueryId },
    /// Petal gossip: a Cyclon shuffle half, piggybacking the sender's
    /// dir-info (§5.1).
    Gossip {
        inner: GossipMsg<Summary>,
        dir_info: Option<DirInfo>,
    },
    /// Content peer liveness signal to its directory (§5.1).
    Keepalive { seq: u64 },
    /// Content peer content update to its directory: the objects added
    /// since the last push (§5.1), or all of them when re-registering
    /// with a replacement directory (§5.2.2).
    Push { seq: u64, objects: Vec<ObjectId> },
    /// Directory acknowledgement of keepalive/push; carries the directory's
    /// identity so dir-info ages reset (and re-point after replacement).
    DirAck { seq: u64, dir: DirInfo },
    /// Directory-to-content-peer promotion (§4: PetalUp split) or graceful
    /// hand-over (§5.2.2: voluntary leave, with a state snapshot).
    Promote {
        position: DirPosition,
        seed: NodeRef,
        snapshot: Option<DirectorySnapshot>,
    },
}

impl FlowerMsg {
    /// Stable protocol-class label of this message, used as the `class`
    /// field of [`simnet::TraceEvent`] send/deliver/drop events and as the
    /// key of per-class message-rate gauges.
    pub fn class(&self) -> &'static str {
        match self {
            FlowerMsg::Chord(m) => m.class(),
            FlowerMsg::DRingRoute { .. } => "dring_route",
            FlowerMsg::Routed { .. } => "routed",
            FlowerMsg::RouteFailed { .. } => "route_failed",
            FlowerMsg::Redirect { .. } => "redirect",
            FlowerMsg::DirQuery { .. } => "dir_query",
            FlowerMsg::SiblingQuery { .. } => "sibling_query",
            FlowerMsg::DeadPeerReport { .. } => "dead_peer_report",
            FlowerMsg::Retract { .. } => "retract",
            FlowerMsg::ClaimGranted { .. } => "claim_granted",
            FlowerMsg::ClaimDenied { .. } => "claim_denied",
            FlowerMsg::Fetch { .. } => "fetch",
            FlowerMsg::FetchOk { .. } => "fetch_ok",
            FlowerMsg::FetchMiss { .. } => "fetch_miss",
            FlowerMsg::Gossip { .. } => "gossip",
            FlowerMsg::Keepalive { .. } => "keepalive",
            FlowerMsg::Push { .. } => "push",
            FlowerMsg::DirAck { .. } => "dir_ack",
            FlowerMsg::Promote { .. } => "promote",
        }
    }

    /// Bytes this message occupies on the wire: the length of the frame
    /// the TCP host sends for it (the message's own `Wire::put`, counted),
    /// plus the object body a `FetchOk` would carry.
    pub fn wire_bytes(&self) -> usize {
        let body = match self {
            FlowerMsg::FetchOk { .. } => wire::MODELLED_OBJECT_BYTES,
            _ => 0,
        };
        wire::FRAME_OVERHEAD + wire::encoded_len(|e| self.put(e)) + body
    }
}

/// Timers of a Flower-CDN peer.
#[derive(Debug, Clone)]
pub enum FlowerTimer {
    /// D-ring maintenance (directory peers only).
    Chord(ChordTimer),
    /// Issue the next query (active peers).
    Query,
    /// Start the next gossip shuffle (content peers).
    Gossip,
    /// Shuffle partner failed to answer.
    GossipDeadline { gen: u64 },
    /// Send the next keepalive to the directory; also ages dir-info.
    Keepalive,
    /// The directory failed to acknowledge keepalive/push `seq`.
    DirAckDeadline { seq: u64 },
    /// A deadline query `qid` armed in `stage`: a routed request (D-ring
    /// query / DirQuery) or a fetch was not answered, or the origin-server
    /// round trip completed (origin fetches are modelled as a latency, not
    /// as messages — the origin is not a peer). Due only while the query is
    /// still in `stage`.
    Deadline { qid: QueryId, stage: Stage },
    /// Periodic directory housekeeping: index expiry, grant expiry.
    DirSweep,
    /// A position claim received no verdict.
    ClaimDeadline { claim_seq: u64 },
    /// Periodic directory self-check: verify we are still reachable as the
    /// ring owner of our position; demote otherwise (ghost-holder purge).
    PositionCheck,
}

impl FlowerTimer {
    /// Stable class label, used by [`simnet::TraceEvent`] timer events.
    pub fn class(&self) -> &'static str {
        match self {
            FlowerTimer::Chord(t) => t.class(),
            FlowerTimer::Query => "query",
            FlowerTimer::Gossip => "gossip",
            FlowerTimer::GossipDeadline { .. } => "gossip_deadline",
            FlowerTimer::Keepalive => "keepalive",
            FlowerTimer::DirAckDeadline { .. } => "dir_ack_deadline",
            FlowerTimer::Deadline { stage, .. } => stage.deadline_class("route_deadline"),
            FlowerTimer::DirSweep => "dir_sweep",
            FlowerTimer::ClaimDeadline { .. } => "claim_deadline",
            FlowerTimer::PositionCheck => "position_check",
        }
    }
}

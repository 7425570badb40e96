//! What a machine tells its host: one typed [`Event`] per fact, emitted
//! once through [`Fx::emit`](crate::io::Fx::emit), and the name table that
//! declares it. The engine folds the [folded](Event::folded) events; while
//! a sink listens, each named one becomes a
//! [`Custom`](simnet::TraceEvent::Custom) trace event under one of the
//! constants below, carrying [`Event::fields`]: each field under its own
//! name, in order, an absent optional one not at all, a `position` as `ws`,
//! `loc`, `inst`.

use cdn_metrics::QueryRecord;
use chord::{ChordId, NodeRef};
use simnet::{field_u64, FieldValue, Fields, LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::dring::DirPosition;
use crate::peer::ProtocolEvent;
use crate::qid::QueryId;

/// The name table, one row per variant of [`Event`]: a named row declares
/// the variant, its name's constant and its arms of [`Event::name`] and
/// [`Event::fields`]; the rows after `;` are only folded.
macro_rules! events {
    (
        $($(#[$doc:meta])* $named:ident { $($field:ident: $ty:ty),* } => $konst:ident = $name:literal,)*
        ; $($(#[$fdoc:meta])* $folded:ident $({ $($ffield:ident: $fty:ty),* })? $(($item:ty))?,)*
    ) => {
        /// One fact a machine reports; its host folds it, traces it, or both.
        #[derive(Debug, Clone, Copy)]
        pub enum Event {
            $($(#[$doc])* $named { $($field: $ty),* },)*
            $($(#[$fdoc])* $folded $({ $($ffield: $fty),* })? $(($item))?,)*
        }

        $(#[doc = concat!("Trace name of [`Event::", stringify!($named), "`].")]
        pub const $konst: &str = $name;)*

        impl Event {
            /// The trace name of this event; `None` for one only folded.
            pub fn name(&self) -> Option<&'static str> {
                match self {
                    $(Event::$named { .. } => Some($konst),)*
                    _ => None,
                }
            }

            /// The trace fields of a named event; none for one only folded.
            pub fn fields(&self) -> Fields {
                let mut f = Fields::new();
                match self {
                    $(Event::$named { $($field),* } => { $($field.put(stringify!($field), &mut f);)* })*
                    _ => {}
                }
                f
            }
        }
    };
}

events! {
    /// A peer issued a query.
    QueryIssued { qid: QueryId, ws: WebsiteId, object: ObjectId } => QUERY_ISSUED = "query_issued",
    /// A query completed; folded: the paper's three metrics derive from its record.
    QueryComplete { qid: QueryId, record: QueryRecord } => QUERY_COMPLETE = "query_complete",
    /// A client routes its query over D-ring, or a Squirrel peer its home lookup.
    RouteRequest { qid: QueryId, key: ChordId } => ROUTE_REQUEST = "route_request",
    /// A D-ring lookup finished on behalf of a routed payload.
    RouteDone { key: ChordId, owner: NodeId, hops: u32, qid: Option<QueryId> } => ROUTE_DONE = "route_done",
    /// A D-ring lookup failed: `qid` for a client request, `position` and
    /// `claimer` for a claim.
    RouteFailed {
        qid: Option<QueryId>, position: Option<DirPosition>, claimer: Option<NodeId>
    } => ROUTE_FAILED = "route_failed",
    /// A routed client request arrived at a directory instance.
    RoutedArrived { position: DirPosition, qid: QueryId } => ROUTED_ARRIVED = "routed_arrived",
    /// PetalUp (§4): a full instance passed a join/query to its next instance.
    InstanceForward { qid: QueryId, from_inst: u32, to_inst: u32 } => INSTANCE_FORWARD = "instance_forward",
    /// A directory answered a query.
    Redirect { qid: QueryId, hit: bool } => REDIRECT = "redirect",
    /// §3.2: a directory passed the query to a same-website sibling.
    SiblingForward { qid: QueryId, ttl: u32 } => SIBLING_FORWARD = "sibling_forward",
    /// A client asked a content peer for an object.
    Fetch { qid: QueryId, provider: NodeId } => FETCH = "fetch",
    /// The provider served the object.
    FetchOk { qid: QueryId } => FETCH_OK = "fetch_ok",
    /// The provider did not have the object; counts [`ProtocolEvent::FetchMiss`].
    FetchMiss { qid: QueryId, attempt: u32 } => FETCH_MISS = "fetch_miss",
    /// A fetch attempt timed out; counts [`ProtocolEvent::FetchTimeout`].
    FetchTimeout { qid: QueryId, attempt: u32 } => FETCH_TIMEOUT = "fetch_timeout",
    /// The client fell back to the origin server.
    OriginFetch { qid: QueryId } => ORIGIN_FETCH = "origin_fetch",
    /// A content peer started a gossip shuffle.
    GossipShuffle { partner: NodeId, gen: u64 } => GOSSIP_SHUFFLE = "gossip_shuffle",
    /// A content peer sent its periodic keepalive.
    Keepalive { seq: u64 } => KEEPALIVE = "keepalive",
    /// A content peer pushed new objects to its directory.
    Push { seq: u64, objects: usize } => PUSH = "push",
    /// §5.2.2: a peer claims a position; counts [`ProtocolEvent::ClaimStarted`].
    ClaimStarted { position: DirPosition, attempt: u32 } => CLAIM_STARTED = "claim_started",
    /// The ring owner granted a claim.
    ClaimGranted { position: DirPosition, claimer: NodeId } => CLAIM_GRANTED = "claim_granted",
    /// The ring owner denied a claim.
    ClaimDenied { position: DirPosition, holder: NodeRef } => CLAIM_DENIED = "claim_denied",
    /// A peer took a directory position (`snapshot`: with an index
    /// hand-over or not), or already held it when a sink attached
    /// (`replayed`). Not [`Event::EnteredDRing`]: that one waits for the
    /// D-ring join, which no initial member makes.
    BecameDirectory {
        position: DirPosition, replacement: bool, snapshot: Option<bool>, replayed: Option<bool>
    } => BECAME_DIRECTORY = "became_directory",
    /// A directory stood down, isolated or failing its self-checks; only
    /// the third self-check miss also counts [`ProtocolEvent::Demoted`].
    Demoted { position: DirPosition } => DEMOTED = "demoted",
    /// PetalUp (§4): an overloaded instance split its petal; folded.
    PetalSplit { ws: WebsiteId, loc: LocalityId, from_inst: u32, to_inst: u32 } => PETAL_SPLIT = "petal_split",
    /// PetalUp (§4): an instance promoted a member to a new instance.
    Promote { position: DirPosition, member: NodeId } => PROMOTE = "promote",
    /// Squirrel: the home node answered a query.
    HomeAnswer { qid: QueryId, hit: bool } => SQ_HOME_ANSWER = "sq_home_answer",
    ;
    /// The peer joined D-ring at `position`; `replacement` marks §5.2
    /// repair (vs. bootstrap/promotion occupancy).
    EnteredDRing { position: DirPosition, replacement: bool },
    /// A protocol event without a trace line of its own.
    Count(ProtocolEvent),
}

impl Event {
    /// Whether the engine folds this event into its result: then it is
    /// recorded whether or not a sink listens.
    pub fn folded(&self) -> bool {
        matches!(
            self,
            Event::QueryComplete { .. } | Event::EnteredDRing { .. } | Event::PetalSplit { .. }
        ) || self.counted().is_some()
    }

    /// The [`ProtocolEvent`] this event counts, if any.
    pub fn counted(&self) -> Option<ProtocolEvent> {
        match *self {
            Event::FetchMiss { .. } => Some(ProtocolEvent::FetchMiss),
            Event::FetchTimeout { .. } => Some(ProtocolEvent::FetchTimeout),
            Event::ClaimStarted { .. } => Some(ProtocolEvent::ClaimStarted),
            Event::Count(e) => Some(e),
            _ => None,
        }
    }
}

/// How a field of a named [`Event`] traces under its name `key`.
trait Put {
    fn put(&self, key: &'static str, f: &mut Fields);
}

/// One row per field type: the `(key, value)` pairs a field `v` traces as.
macro_rules! put {
    ($($ty:ty => |$v:ident, $key:tt| [$(($k:expr, $val:expr)),*];)*) => {
        $(impl Put for $ty {
            fn put(&self, $key: &'static str, f: &mut Fields) {
                let $v = *self;
                $(f.push(($k, $val.into()));)*
            }
        })*
    };
}

put! {
    u32 => |n, key| [(key, n)];
    u64 => |n, key| [(key, n)];
    usize => |n, key| [(key, n)];
    bool => |b, key| [(key, b)];
    NodeId => |n, key| [(key, n)];
    NodeRef => |r, key| [(key, r.node)];
    QueryId => |q, key| [(key, q.raw())];
    ChordId => |k, key| [(key, k.0)];
    WebsiteId => |w, key| [(key, w.0)];
    LocalityId => |l, key| [(key, l.0)];
    ObjectId => |o, key| [(key, o.as_u64())];
    DirPosition => |p, _| [("ws", p.website.0), ("loc", p.locality.0), ("inst", p.instance)];
    QueryRecord => |r, _| [("provider", r.provider.label())];
}

/// An optional field traces only when present.
impl<T: Put> Put for Option<T> {
    fn put(&self, key: &'static str, f: &mut Fields) {
        if let Some(v) = self {
            v.put(key, f);
        }
    }
}

/// A D-ring position as trace fields carry it: (website, locality,
/// instance).
pub type Pos = (u64, u64, u64);

/// The position a [`BECAME_DIRECTORY`] / [`DEMOTED`] event names.
pub fn pos_of(fields: &[(&'static str, FieldValue)]) -> Option<Pos> {
    Some((
        field_u64(fields, "ws")?,
        field_u64(fields, "loc")?,
        field_u64(fields, "inst")?,
    ))
}

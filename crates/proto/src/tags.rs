//! Names of the protocol-defined [`Custom`](simnet::TraceEvent::Custom)
//! trace events, shared by the emitters (peer/query/maintenance/squirrel),
//! the invariant checker and trace consumers.
//!
//! Field conventions: every query-scoped event carries `("qid", raw)`;
//! events about a directory position carry `("ws", _)`, `("loc", _)`,
//! `("inst", _)`.

use simnet::{field_u64, FieldValue, Fields};

use crate::dring::DirPosition;

/// Standard field triple identifying a directory position in trace events.
pub fn pos_fields(pos: DirPosition) -> Fields {
    vec![
        ("ws", pos.website.0.into()),
        ("loc", pos.locality.0.into()),
        ("inst", pos.instance.into()),
    ]
}

/// A D-ring position as trace fields carry it: (website, locality,
/// instance).
pub type Pos = (u64, u64, u64);

/// The position a [`BECAME_DIRECTORY`] / [`DEMOTED`] event names: what
/// [`pos_fields`] wrote.
pub fn pos_of(fields: &[(&'static str, FieldValue)]) -> Option<Pos> {
    Some((
        field_u64(fields, "ws")?,
        field_u64(fields, "loc")?,
        field_u64(fields, "inst")?,
    ))
}

/// A peer issued a query (fields: qid, ws, object).
pub const QUERY_ISSUED: &str = "query_issued";
/// A query reached a terminal state (fields: qid, provider kind label).
pub const QUERY_COMPLETE: &str = "query_complete";
/// A client handed its query to a bootstrap for D-ring routing
/// (fields: qid, key).
pub const ROUTE_REQUEST: &str = "route_request";
/// A D-ring lookup finished on behalf of a routed payload
/// (fields: qid?, key, owner, hops).
pub const ROUTE_DONE: &str = "route_done";
/// A D-ring lookup failed (fields: qid — client requests only).
pub const ROUTE_FAILED: &str = "route_failed";
/// A routed client request arrived at a directory instance
/// (fields: qid, ws, loc, inst).
pub const ROUTED_ARRIVED: &str = "routed_arrived";
/// PetalUp (§4): a full instance forwarded a join/query to the next
/// instance of its couple (fields: qid, from_inst, to_inst).
pub const INSTANCE_FORWARD: &str = "instance_forward";
/// A directory answered a query (fields: qid, hit).
pub const REDIRECT: &str = "redirect";
/// §3.2 cross-locality walk: a directory passed the query to a
/// same-website sibling (fields: qid, ttl).
pub const SIBLING_FORWARD: &str = "sibling_forward";
/// A client asked a content peer for an object (fields: qid, provider).
pub const FETCH: &str = "fetch";
/// The provider served the object (fields: qid).
pub const FETCH_OK: &str = "fetch_ok";
/// The provider did not have the object (fields: qid, attempt).
pub const FETCH_MISS: &str = "fetch_miss";
/// A fetch attempt timed out (fields: qid, attempt).
pub const FETCH_TIMEOUT: &str = "fetch_timeout";
/// The client fell back to the origin server (fields: qid).
pub const ORIGIN_FETCH: &str = "origin_fetch";

/// A content peer started a gossip shuffle (fields: partner, gen).
pub const GOSSIP_SHUFFLE: &str = "gossip_shuffle";
/// A content peer sent its periodic keepalive (fields: seq).
pub const KEEPALIVE: &str = "keepalive";
/// A content peer pushed new objects to its directory
/// (fields: seq, objects).
pub const PUSH: &str = "push";

/// §5.2.2: a peer started claiming a directory position
/// (fields: ws, loc, inst, attempt).
pub const CLAIM_STARTED: &str = "claim_started";
/// The ring owner granted a claim (fields: ws, loc, inst, claimer).
pub const CLAIM_GRANTED: &str = "claim_granted";
/// The ring owner denied a claim (fields: ws, loc, inst, holder).
pub const CLAIM_DENIED: &str = "claim_denied";
/// A peer became the directory of a position (fields: ws, loc, inst,
/// replacement, snapshot).
pub const BECAME_DIRECTORY: &str = "became_directory";
/// A directory demoted itself (ghost-holder purge or isolation)
/// (fields: ws, loc, inst).
pub const DEMOTED: &str = "demoted";
/// PetalUp (§4): an overloaded instance split its petal
/// (fields: ws, loc, from_inst, to_inst).
pub const PETAL_SPLIT: &str = "petal_split";
/// PetalUp (§4): an instance promoted a member to a new instance
/// (fields: ws, loc, inst, member).
pub const PROMOTE: &str = "promote";

/// Squirrel: the home node answered a query (fields: qid, hit).
pub const SQ_HOME_ANSWER: &str = "sq_home_answer";

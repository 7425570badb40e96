//! Wire messages, timers and actions of the Chord protocol.
//!
//! Lookups are **iterative**: the initiator drives routing hop by hop,
//! asking each contacted node for its best routing step. This keeps all
//! timeout/retry policy at the initiator — the right design under heavy
//! churn, because an intermediate node dying cannot strand a recursive
//! query in the overlay.

use crate::id::{ChordId, NodeRef};

/// Answer to a routing step request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The queried node determined the key's owner (its successor, or
    /// itself); routing terminates.
    Owner(NodeRef),
    /// Keep routing: this is the closest node preceding the key that the
    /// queried node knows about.
    Forward(NodeRef),
    /// The queried node is not in a position to answer (stranded: no
    /// successors). The asker should route around it.
    Unknown,
}

/// Chord wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChordMsg {
    /// Routing step request for `key` (iterative lookup, correlated by the
    /// initiator-scoped `token`). `from` identifies the asking node on the
    /// ring so the answerer can exclude it from forwards.
    FindNext {
        key: ChordId,
        token: u64,
        from: NodeRef,
    },
    /// Routing step answer.
    FindNextReply { token: u64, result: StepResult },
    /// Stabilization: ask a successor for its predecessor and successor
    /// list. `gen` correlates with the initiator's timeout.
    GetNeighbors { gen: u64, from: NodeRef },
    /// Stabilization answer.
    NeighborsReply {
        gen: u64,
        sender: NodeRef,
        predecessor: Option<NodeRef>,
        successors: Vec<NodeRef>,
    },
    /// "I might be your predecessor."
    Notify { candidate: NodeRef },
    /// Liveness probe for the predecessor check.
    Ping { nonce: u64 },
    /// Liveness answer.
    Pong { nonce: u64 },
    /// Recursive routing: forwarded hop by hop toward `key`'s owner, who
    /// answers the `origin` directly. Halves lookup latency versus the
    /// iterative mode (one one-way link per hop instead of an RTT) at the
    /// cost of coarser failure handling — exactly the trade the original
    /// Squirrel/PAST deployments made.
    Route {
        key: ChordId,
        token: u64,
        origin: NodeRef,
        hops: u32,
    },
    /// Terminal answer of a recursive route, sent straight to the origin.
    RouteResult {
        token: u64,
        owner: NodeRef,
        hops: u32,
    },
}

/// Timers the Chord node asks its host to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChordTimer {
    /// Periodic successor stabilization.
    Stabilize,
    /// One extra stabilization round (after join), without rescheduling.
    StabilizeOnce,
    /// Periodic finger repair.
    FixFingers,
    /// Periodic predecessor liveness check.
    CheckPredecessor,
    /// Deadline for one lookup routing step.
    LookupStep { token: u64, attempt: u32 },
    /// Deadline for a `GetNeighbors` round.
    StabilizeDeadline { gen: u64 },
    /// Deadline for a predecessor ping.
    PingDeadline { nonce: u64 },
    /// Overall deadline for one attempt of a recursive route.
    RouteDeadline { token: u64, attempt: u32 },
}

/// Outputs of the state machine, applied by the host.
#[derive(Debug, Clone)]
pub enum ChordAction {
    /// Transmit `msg` to the peer at `to`.
    Send { to: NodeRef, msg: ChordMsg },
    /// Arm a timer firing after `delay_ms`.
    SetTimer { delay_ms: u64, timer: ChordTimer },
    /// An external lookup finished: `owner` is `successor(key)`.
    LookupDone {
        token: u64,
        key: ChordId,
        owner: NodeRef,
        hops: u32,
    },
    /// An external lookup exhausted its retries.
    LookupFailed { token: u64, key: ChordId },
    /// This node resolved its own position and is now part of the ring.
    JoinComplete { successor: NodeRef },
    /// This node's join lookup failed (seed dead); the host should retry
    /// with a different seed ([`Chord::rejoin`](crate::Chord::rejoin)).
    JoinFailed,
    /// This node lost every successor: it is cut off from the ring and
    /// cannot route or answer. The host must re-join through a fresh seed
    /// ([`Chord::rejoin`](crate::Chord::rejoin)) or retire the node's ring
    /// role.
    Isolated,
}

impl ChordMsg {
    /// Stable protocol-class label, used as the `class` field of trace
    /// events and as the key of per-class message-rate gauges.
    pub fn class(&self) -> &'static str {
        match self {
            ChordMsg::FindNext { .. } => "chord_find_next",
            ChordMsg::FindNextReply { .. } => "chord_find_next_reply",
            ChordMsg::GetNeighbors { .. } => "chord_get_neighbors",
            ChordMsg::NeighborsReply { .. } => "chord_neighbors_reply",
            ChordMsg::Notify { .. } => "chord_notify",
            ChordMsg::Ping { .. } => "chord_ping",
            ChordMsg::Pong { .. } => "chord_pong",
            ChordMsg::Route { .. } => "chord_route",
            ChordMsg::RouteResult { .. } => "chord_route_result",
        }
    }
}

impl ChordTimer {
    /// Stable class label for trace timer events.
    pub fn class(&self) -> &'static str {
        match self {
            ChordTimer::Stabilize => "chord_stabilize",
            ChordTimer::StabilizeOnce => "chord_stabilize_once",
            ChordTimer::FixFingers => "chord_fix_fingers",
            ChordTimer::CheckPredecessor => "chord_check_predecessor",
            ChordTimer::LookupStep { .. } => "chord_lookup_step",
            ChordTimer::StabilizeDeadline { .. } => "chord_stabilize_deadline",
            ChordTimer::PingDeadline { .. } => "chord_ping_deadline",
            ChordTimer::RouteDeadline { .. } => "chord_route_deadline",
        }
    }
}

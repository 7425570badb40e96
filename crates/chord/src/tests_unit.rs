//! Node-level unit tests for the churn-hardening behaviours that the
//! harness-driven integration tests exercise only indirectly.

use simnet::NodeId;

use crate::id::{ChordId, NodeRef};
use crate::node::{Chord, ChordConfig};
use crate::proto::{ChordAction, ChordMsg, ChordTimer, StepResult};

fn r(i: usize, id: u64) -> NodeRef {
    NodeRef::new(NodeId::from_index(i), ChordId(id))
}

fn ring3() -> Vec<NodeRef> {
    vec![r(0, 100), r(1, 2_000), r(2, 60_000)]
}

#[test]
fn owns_strict_requires_a_predecessor() {
    let ring = ring3();
    let (node, _) = Chord::converged(1, &ring, ChordConfig::default());
    // Converged: predecessor known → strict ownership of (100, 2000].
    assert!(node.owns_strict(ChordId(101)));
    assert!(node.owns_strict(ChordId(2_000)));
    assert!(!node.owns_strict(ChordId(100)));
    assert!(!node.owns_strict(ChordId(2_001)));
    // A fresh joiner has no predecessor → strict ownership of nothing.
    let (joiner, _) = Chord::join(r(9, 40_000), ring[0], ChordConfig::default());
    assert!(!joiner.owns_strict(ChordId(40_000)));
    assert!(
        joiner.owns(ChordId(40_000)),
        "lenient owns stays permissive"
    );
}

#[test]
fn known_node_with_id_only_trusts_verified_neighbours() {
    let ring = ring3();
    let (node, _) = Chord::converged(1, &ring, ChordConfig::default());
    // Predecessor and immediate successor are verified neighbours.
    assert_eq!(
        node.known_node_with_id(ChordId(100)).map(|n| n.node),
        Some(ring[0].node)
    );
    assert_eq!(
        node.known_node_with_id(ChordId(60_000)).map(|n| n.node),
        Some(ring[2].node)
    );
    // Anything else — including ids only present in fingers — is not
    // treated as live evidence.
    assert!(node.known_node_with_id(ChordId(99)).is_none());
}

#[test]
fn converged_singleton_is_standalone_not_stranded() {
    let ring = vec![r(0, 42)];
    let (node, _) = Chord::converged(0, &ring, ChordConfig::default());
    assert!(node.is_joined());
    assert!(!node.is_stranded(), "a deliberate singleton is healthy");
    assert_eq!(node.successor().node, ring[0].node);
}

#[test]
fn stranded_node_refuses_to_answer() {
    let ring = ring3();
    let (mut node, _) = Chord::converged(1, &ring, ChordConfig::default());
    // Kill both other members from this node's perspective.
    node.node_failed(ring[0].node);
    node.node_failed(ring[2].node);
    assert!(node.is_stranded());
    // Routing step requests get a silent/Unknown treatment: FindNext is
    // answered with Unknown so the asker routes around us.
    let actions = node.handle_message(
        ring[0].node,
        ChordMsg::FindNext {
            key: ChordId(500),
            token: 7,
            from: ring[0],
        },
    );
    let mut saw_unknown = false;
    for a in actions {
        if let ChordAction::Send {
            msg: ChordMsg::FindNextReply { result, .. },
            ..
        } = a
        {
            assert_eq!(result, StepResult::Unknown);
            saw_unknown = true;
        }
    }
    assert!(saw_unknown, "stranded node must answer Unknown");
    // GetNeighbors is not answered at all (an empty successor list would
    // contract the asker's redundancy).
    let actions = node.handle_message(
        ring[0].node,
        ChordMsg::GetNeighbors {
            gen: 1,
            from: ring[0],
        },
    );
    assert!(
        actions.is_empty(),
        "stranded node must not hand out its empty successor list"
    );
}

#[test]
fn notify_rejects_duplicate_ids() {
    let ring = ring3();
    let (mut node, _) = Chord::converged(1, &ring, ChordConfig::default());
    let before = node.predecessor();
    // A ghost with our own ring id must not become our predecessor.
    node.handle_message(
        r(9, 2_000).node,
        ChordMsg::Notify {
            candidate: r(9, 2_000),
        },
    );
    assert_eq!(node.predecessor(), before);
}

#[test]
fn lookup_from_never_answers_locally() {
    let ring = ring3();
    let (mut node, _) = Chord::converged(1, &ring, ChordConfig::default());
    // The node owns (100, 2000]; a plain lookup would answer itself
    // immediately. lookup_from must instead ask the given start.
    let key = ChordId(1_500);
    let (_token, actions) = node.lookup_from(key, node.successor());
    let sends: Vec<_> = actions
        .iter()
        .filter(|a| matches!(a, ChordAction::Send { .. }))
        .collect();
    assert!(
        !sends.is_empty(),
        "self-audit lookups must go to the ring, got {actions:?}"
    );
    let dones = actions
        .iter()
        .any(|a| matches!(a, ChordAction::LookupDone { .. }));
    assert!(!dones, "must not resolve from our own tables");
}

#[test]
fn reassert_notifies_the_successor() {
    let ring = ring3();
    let (node, _) = Chord::converged(1, &ring, ChordConfig::default());
    let actions = node.reassert();
    assert_eq!(actions.len(), 1);
    match &actions[0] {
        ChordAction::Send {
            to,
            msg: ChordMsg::Notify { candidate },
        } => {
            assert_eq!(to.node, ring[2].node);
            assert_eq!(candidate.node, ring[1].node);
        }
        other => panic!("expected a notify, got {other:?}"),
    }
}

#[test]
fn periodic_timers_are_jittered_not_lockstep() {
    // Two nodes with different ids must not schedule identical periodic
    // delays (deterministic per-id jitter).
    let ring = ring3();
    let (_a, acts_a) = Chord::converged(0, &ring, ChordConfig::default());
    let (_b, acts_b) = Chord::converged(1, &ring, ChordConfig::default());
    let delays = |acts: &[ChordAction]| -> Vec<u64> {
        acts.iter()
            .filter_map(|a| match a {
                ChordAction::SetTimer { delay_ms, .. } => Some(*delay_ms),
                _ => None,
            })
            .collect()
    };
    let da = delays(&acts_a);
    let db = delays(&acts_b);
    assert_eq!(da.len(), 3);
    assert_ne!(da, db, "jitter must differ across nodes");
    // Jitter stays within ±25% of the configured periods.
    let cfg = ChordConfig::default();
    for (d, period) in da.iter().zip([
        cfg.stabilize_period_ms,
        cfg.fix_fingers_period_ms,
        cfg.check_predecessor_period_ms,
    ]) {
        assert!(
            (*d as f64) >= period as f64 * 0.74 && (*d as f64) <= period as f64 * 1.26,
            "delay {d} outside ±25% of {period}"
        );
    }
}

#[test]
fn join_aborts_on_duplicate_position() {
    // A node joining at an id already held must fail, not corrupt the ring.
    let ring = ring3();
    let seed = ring[0];
    let (mut joiner, actions) = Chord::join(r(9, 2_000), seed, ChordConfig::default());
    // Extract the join step request and simulate the answer: the owner of
    // key 2000 is the live holder with the *same id*.
    let token = actions
        .iter()
        .find_map(|a| match a {
            ChordAction::Send {
                msg: ChordMsg::FindNext { token, .. },
                ..
            } => Some(*token),
            _ => None,
        })
        .expect("join sends a step request");
    let reply = ChordMsg::FindNextReply {
        token,
        result: StepResult::Owner(ring[1]), // same id 2000, different node
    };
    let out = joiner.handle_message(seed.node, reply);
    assert!(
        out.iter().any(|a| matches!(a, ChordAction::JoinFailed)),
        "duplicate-id join must abort: {out:?}"
    );
    assert!(!joiner.is_joined());
}

/// A member of a converged eight-node ring (ids `k << 61`, we at 0) with
/// one request of every kind in flight: an external lookup, the lookups of
/// a finger sweep (node 2 failed, so slot 62 needs a full lookup), a
/// stabilize round and a predecessor ping. Returns the member, the external
/// lookup's token and key, every deadline armed and every rid sent so far.
fn member_with_everything_in_flight() -> (Chord, u64, ChordId, Vec<ChordTimer>, Vec<u64>) {
    let ring: Vec<NodeRef> = (0..8).map(|k| r(k, (k as u64) << 61)).collect();
    let cfg = ChordConfig {
        fingers_per_round: 64,
        ..ChordConfig::default()
    };
    let (mut node, mut actions) = Chord::converged(0, &ring, cfg);
    node.node_failed(ring[2].node);
    let key = ChordId(6 << 61);
    let (token, lookup) = node.lookup(key);
    actions.extend(lookup);
    for timer in [
        ChordTimer::FixFingers,
        ChordTimer::Stabilize,
        ChordTimer::CheckPredecessor,
    ] {
        actions.extend(node.handle_timer(timer));
    }
    let deadlines: Vec<ChordTimer> = actions
        .iter()
        .filter_map(|a| match a {
            ChordAction::SetTimer { timer, .. } if rid_of(timer).is_some() => Some(*timer),
            _ => None,
        })
        .collect();
    let rids: Vec<u64> = actions
        .iter()
        .filter_map(|a| match a {
            ChordAction::Send { msg, .. } => rid_sent(msg),
            _ => None,
        })
        .collect();
    let kinds = |f: fn(&ChordTimer) -> bool| deadlines.iter().filter(|t| f(t)).count();
    assert!(kinds(|t| matches!(t, ChordTimer::LookupStep { .. })) >= 3);
    assert_eq!(
        kinds(|t| matches!(t, ChordTimer::StabilizeDeadline { .. })),
        1
    );
    assert_eq!(kinds(|t| matches!(t, ChordTimer::PingDeadline { .. })), 1);
    assert!(node.pending_lookups() >= 3, "external + finger lookups");
    (node, token, key, deadlines, rids)
}

/// The rid a deadline guards.
fn rid_of(timer: &ChordTimer) -> Option<u64> {
    match *timer {
        ChordTimer::LookupStep { token, .. } | ChordTimer::RouteDeadline { token, .. } => {
            Some(token)
        }
        ChordTimer::StabilizeDeadline { gen } => Some(gen),
        ChordTimer::PingDeadline { nonce } => Some(nonce),
        _ => None,
    }
}

/// The rid a request carries.
fn rid_sent(msg: &ChordMsg) -> Option<u64> {
    match *msg {
        ChordMsg::FindNext { token, .. } | ChordMsg::Route { token, .. } => Some(token),
        ChordMsg::GetNeighbors { gen, .. } => Some(gen),
        ChordMsg::Ping { nonce } => Some(nonce),
        _ => None,
    }
}

fn seed() -> NodeRef {
    r(5, 5 << 61)
}

#[test]
fn rejoin_arms_no_second_set_of_periodics() {
    let (mut node, ..) = member_with_everything_in_flight();
    let actions = node.rejoin(seed());
    let periodic = actions.iter().any(|a| {
        matches!(
            a,
            ChordAction::SetTimer {
                timer: ChordTimer::Stabilize
                    | ChordTimer::FixFingers
                    | ChordTimer::CheckPredecessor,
                ..
            }
        )
    });
    assert!(!periodic, "the old chains keep running: {actions:?}");
    // And the old chain goes on in the re-joined node.
    let next = node.handle_timer(ChordTimer::Stabilize);
    assert!(
        matches!(
            next[..],
            [ChordAction::SetTimer {
                timer: ChordTimer::Stabilize,
                ..
            }]
        ),
        "{next:?}"
    );
}

#[test]
fn rejoin_fails_the_external_lookup_and_no_other() {
    let (mut node, token, key, ..) = member_with_everything_in_flight();
    let actions = node.rejoin(seed());
    let failed: Vec<(u64, ChordId)> = actions
        .iter()
        .filter_map(|a| match *a {
            ChordAction::LookupFailed { token, key } => Some((token, key)),
            _ => None,
        })
        .collect();
    assert_eq!(failed, [(token, key)], "{actions:?}");
    assert_eq!(node.pending_lookups(), 1, "only the join lookup is open");
}

#[test]
fn rejoin_joins_through_the_seed() {
    let (mut node, ..) = member_with_everything_in_flight();
    let me = node.me();
    let actions = node.rejoin(seed());
    let sends: Vec<(NodeRef, &ChordMsg)> = actions
        .iter()
        .filter_map(|a| match a {
            ChordAction::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect();
    let [(to, &ChordMsg::FindNext { key, token, from })] = sends[..] else {
        panic!("one FindNext: {actions:?}");
    };
    assert_eq!((to, key, from), (seed(), me.id, me));
    assert!(!node.is_joined());
    assert!(node.successor_list().is_empty() && node.predecessor().is_none());
    let reply = ChordMsg::FindNextReply {
        token,
        result: StepResult::Owner(r(1, 1 << 61)),
    };
    let out = node.handle_message(seed().node, reply);
    assert!(
        out.iter()
            .any(|a| matches!(a, ChordAction::JoinComplete { .. })),
        "{out:?}"
    );
    assert!(node.is_joined());
}

#[test]
fn rejoin_keeps_the_rid_counter() {
    let (mut node, _, _, deadlines, rids) = member_with_everything_in_flight();
    let before = rids
        .iter()
        .copied()
        .chain(deadlines.iter().filter_map(rid_of))
        .max()
        .expect("requests in flight");
    let actions = node.rejoin(seed());
    let join = actions
        .iter()
        .find_map(|a| match a {
            ChordAction::Send { msg, .. } => rid_sent(msg),
            _ => None,
        })
        .expect("the join lookup");
    assert!(
        join > before,
        "join rid {join} reuses one at or below {before}"
    );
    for timer in deadlines {
        let out = node.handle_timer(timer);
        assert!(out.is_empty(), "{timer:?} expired {out:?}");
    }
    assert_eq!(node.pending_lookups(), 1, "the join lookup survives");
    let (after, _) = node.lookup(ChordId(3 << 61));
    assert!(after > before, "lookup rid {after} at or below {before}");
}

/// The one step deadline among `actions`.
fn step_deadline(actions: &[ChordAction]) -> ChordTimer {
    let mut steps = actions.iter().filter_map(|a| match a {
        ChordAction::SetTimer {
            timer: t @ ChordTimer::LookupStep { .. },
            ..
        } => Some(*t),
        _ => None,
    });
    let step = steps.next().expect("a step deadline");
    assert!(steps.next().is_none(), "{actions:?}");
    step
}

/// ROADMAP 2(f), pinned as it stands: a joiner has no tables, so when a
/// step of its join lookup times out, `retry` finds no next hop but
/// itself and the join fails at once, although the seed that answered
/// the first step is alive and could be asked again. Its first hop timing
/// out fails it the same way. The fix for 2(f) flips both cases.
#[test]
fn roadmap_2f_a_joiner_whose_hop_times_out_fails_its_join() {
    let me = r(9, 3 << 61);
    // The seed itself never answers.
    let (mut joiner, actions) = Chord::join(me, seed(), ChordConfig::default());
    let out = joiner.handle_timer(step_deadline(&actions));
    assert!(
        matches!(out[..], [ChordAction::JoinFailed]),
        "first hop timed out: {out:?}"
    );
    assert!(!joiner.is_joined());
    assert_eq!(joiner.pending_lookups(), 0);

    // The seed forwards to a member that never answers.
    let (mut joiner, actions) = Chord::join(me, seed(), ChordConfig::default());
    let token = actions
        .iter()
        .find_map(|a| match a {
            ChordAction::Send {
                msg: ChordMsg::FindNext { token, .. },
                ..
            } => Some(*token),
            _ => None,
        })
        .expect("the join step");
    let reply = ChordMsg::FindNextReply {
        token,
        result: StepResult::Forward(r(2, 2 << 61)),
    };
    let out = joiner.handle_message(seed().node, reply);
    let out = joiner.handle_timer(step_deadline(&out));
    assert!(
        matches!(out[..], [ChordAction::JoinFailed]),
        "second hop timed out: {out:?}"
    );
    assert_eq!(joiner.pending_lookups(), 0);
}

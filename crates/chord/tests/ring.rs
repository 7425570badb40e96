//! Integration tests for the Chord state machine, driven by the shared
//! in-memory event loop of `common` (fixed link latency, silent message
//! loss to dead nodes).

mod common;

use std::collections::HashSet;

use chord::{Chord, ChordAction, ChordConfig, ChordId, ChordTimer, NodeRef};
use common::{Host, Policy};
use simnet::NodeId;

const LATENCY_MS: u64 = 20;

#[derive(Default)]
struct Outcome {
    lookups_done: Vec<(NodeId, u64, ChordId, NodeRef, u32)>,
    lookups_failed: Vec<(NodeId, u64, ChordId)>,
    joins: HashSet<NodeId>,
}

impl Policy for Outcome {
    fn outcome(host: &mut Harness, me: NodeId, action: ChordAction) {
        let outcome = &mut host.policy;
        match action {
            ChordAction::LookupDone {
                token,
                key,
                owner,
                hops,
            } => outcome.lookups_done.push((me, token, key, owner, hops)),
            ChordAction::LookupFailed { token, key } => {
                outcome.lookups_failed.push((me, token, key))
            }
            ChordAction::JoinComplete { .. } => {
                outcome.joins.insert(me);
            }
            ChordAction::JoinFailed => panic!("join failed for {me}"),
            // Static tests never strand nodes.
            ChordAction::Isolated => {}
            ChordAction::Send { .. } | ChordAction::SetTimer { .. } => unreachable!(),
        }
    }
}

type Harness = Host<Outcome>;

fn harness() -> Harness {
    Host::new(LATENCY_MS, Outcome::default())
}

impl Harness {
    fn create(&mut self, me: NodeRef, cfg: ChordConfig) {
        self.policy.joins.insert(me.node);
        self.spawn(me, Chord::create(me, cfg));
    }

    fn join(&mut self, me: NodeRef, seed: NodeRef, cfg: ChordConfig) {
        self.spawn(me, Chord::join(me, seed, cfg));
    }

    fn lookup(&mut self, from: NodeId, key: ChordId) {
        assert!(self.nodes.contains_key(&from), "origin alive");
        self.with_node(from, |n| n.lookup(key).1);
    }

    /// The node that *should* own `key`: the live node with the smallest
    /// clockwise distance from `key`.
    fn expected_owner(&self, key: ChordId) -> NodeRef {
        self.nodes
            .values()
            .map(|c| c.me())
            .min_by_key(|r| key.distance_to(r.id))
            .expect("ring non-empty")
    }

    /// Assert the successor pointers form the sorted ring exactly.
    fn assert_ring_converged(&self) {
        let mut refs: Vec<NodeRef> = self.nodes.values().map(|c| c.me()).collect();
        refs.sort_by_key(|r| r.id.0);
        let n = refs.len();
        for (i, r) in refs.iter().enumerate() {
            let want = refs[(i + 1) % n];
            let got = self.nodes[&r.node].successor();
            assert_eq!(
                got.node, want.node,
                "{} should point to {} but points to {}",
                r, want, got
            );
        }
    }
}

fn spread_ids(count: usize) -> Vec<NodeRef> {
    // Well-spread but not perfectly uniform ids.
    (0..count)
        .map(|i| {
            let id = bloomless_hash(i as u64);
            NodeRef::new(NodeId::from_index(i), ChordId(id))
        })
        .collect()
}

/// Cheap deterministic id spreader (independent of the bloom crate).
fn bloomless_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fast_cfg() -> ChordConfig {
    ChordConfig {
        stabilize_period_ms: 500,
        fix_fingers_period_ms: 250,
        check_predecessor_period_ms: 500,
        rpc_timeout_ms: 200,
        recursive_deadline_ms: 2_000,
        fingers_per_round: 4,
    }
}

/// Build a converged ring of `count` nodes.
fn build_ring(count: usize) -> (Harness, Vec<NodeRef>) {
    let refs = spread_ids(count);
    let mut h = harness();
    h.create(refs[0], fast_cfg());
    for r in &refs[1..] {
        h.join(*r, refs[0], fast_cfg());
    }
    // Enough stabilization rounds for pointers to converge.
    h.run_until(60_000);
    (h, refs)
}

#[test]
fn two_nodes_form_a_ring() {
    let refs = spread_ids(2);
    let mut h = harness();
    h.create(refs[0], fast_cfg());
    h.join(refs[1], refs[0], fast_cfg());
    h.run_until(10_000);
    assert!(h.policy.joins.contains(&refs[1].node));
    assert_eq!(h.nodes[&refs[0].node].successor().node, refs[1].node);
    assert_eq!(h.nodes[&refs[1].node].successor().node, refs[0].node);
    assert_eq!(
        h.nodes[&refs[0].node].predecessor().map(|p| p.node),
        Some(refs[1].node)
    );
}

#[test]
fn ring_of_32_converges_to_sorted_order() {
    let (h, refs) = build_ring(32);
    assert_eq!(h.policy.joins.len(), 32);
    h.assert_ring_converged();
    // Predecessors converge too.
    let mut sorted: Vec<NodeRef> = refs.clone();
    sorted.sort_by_key(|r| r.id.0);
    for (i, r) in sorted.iter().enumerate() {
        let want = sorted[(i + sorted.len() - 1) % sorted.len()];
        let got = h.nodes[&r.node].predecessor().expect("has predecessor");
        assert_eq!(got.node, want.node);
    }
}

#[test]
fn lookups_find_the_correct_owner() {
    let (mut h, refs) = build_ring(32);
    let keys: Vec<ChordId> = (0..50u64)
        .map(|i| ChordId(bloomless_hash(1_000 + i)))
        .collect();
    let origin = refs[7].node;
    for &k in &keys {
        h.lookup(origin, k);
    }
    h.run_until(120_000);
    assert!(h.policy.lookups_failed.is_empty());
    assert_eq!(h.policy.lookups_done.len(), keys.len());
    for (_, _, key, owner, hops) in &h.policy.lookups_done {
        let want = h.expected_owner(*key);
        assert_eq!(owner.node, want.node, "key {key} owner");
        assert!(*hops <= 32, "hops {hops} way too high for 32 nodes");
    }
}

#[test]
fn lookup_hop_count_is_logarithmic() {
    let (mut h, refs) = build_ring(64);
    // Extra settling so fingers are built (one per period per node).
    h.run_until(200_000);
    for i in 0..100u64 {
        let origin = refs[(i as usize) % 64].node;
        h.lookup(origin, ChordId(bloomless_hash(5_000 + i)));
    }
    h.run_until(400_000);
    assert_eq!(h.policy.lookups_done.len(), 100);
    let total_hops: u32 = h.policy.lookups_done.iter().map(|x| x.4).sum();
    let avg = f64::from(total_hops) / 100.0;
    // log2(64) = 6; converged Chord averages ~ (1/2) log2 N. Allow slack.
    assert!(avg <= 8.0, "average hops {avg} not logarithmic");
}

#[test]
fn ring_heals_after_mass_failure() {
    let (mut h, refs) = build_ring(32);
    h.assert_ring_converged();
    // Kill 8 of 32 nodes (25%), spread around the ring.
    let mut sorted = refs.clone();
    sorted.sort_by_key(|r| r.id.0);
    let dead: Vec<NodeRef> = sorted.iter().step_by(4).copied().collect();
    for d in &dead {
        h.kill(d.node);
    }
    // Let stabilization repair pointers.
    h.run_until(h.now + 60_000);
    h.assert_ring_converged();
    // Lookups still resolve correctly to live owners.
    let survivor = h.nodes.keys().next().copied().unwrap();
    for i in 0..30u64 {
        h.lookup(survivor, ChordId(bloomless_hash(9_000 + i)));
    }
    let deadline = h.now + 120_000;
    h.run_until(deadline);
    h.trace.assert_clean();
    assert!(
        h.policy.lookups_failed.is_empty(),
        "lookups failed: {:?}",
        h.policy.lookups_failed.len()
    );
    let done = h
        .policy
        .lookups_done
        .iter()
        .filter(|(n, ..)| *n == survivor)
        .count();
    assert_eq!(done, 30);
    for (_, _, key, owner, _) in &h.policy.lookups_done {
        if h.nodes.contains_key(&owner.node) {
            let want = h.expected_owner(*key);
            assert_eq!(owner.node, want.node, "key {key}");
        }
    }
}

#[test]
fn lookup_during_churn_survives_dead_hops() {
    let (mut h, refs) = build_ring(32);
    // Kill a third of the ring and immediately look up, before any
    // stabilization round can clean the tables.
    for r in refs.iter().skip(2).step_by(3) {
        h.kill(r.node);
    }
    let origin = refs[0].node;
    for i in 0..20u64 {
        h.lookup(origin, ChordId(bloomless_hash(7_777 + i)));
    }
    h.run_until(h.now + 120_000);
    h.trace.assert_clean();
    let done = h.policy.lookups_done.len();
    let failed = h.policy.lookups_failed.len();
    assert_eq!(done + failed, 20);
    assert!(
        done >= 18,
        "expected nearly all lookups to survive 33% failures, got {done}/20"
    );
}

#[test]
fn sequential_joins_through_random_seeds() {
    // Join each node through the previously joined node, not a fixed seed:
    // exercises join lookups routed across a partially built ring.
    let refs = spread_ids(24);
    let mut h = harness();
    h.create(refs[0], fast_cfg());
    for i in 1..refs.len() {
        h.join(refs[i], refs[i - 1], fast_cfg());
        h.run_until(h.now + 3_000);
    }
    h.run_until(h.now + 60_000);
    assert_eq!(h.policy.joins.len(), 24);
    h.assert_ring_converged();
}

#[test]
fn owns_is_exclusive_on_converged_ring() {
    let (h, _refs) = build_ring(16);
    for probe in 0..200u64 {
        let key = ChordId(bloomless_hash(31_337 + probe));
        let owners: Vec<NodeId> = h
            .nodes
            .values()
            .filter(|c| c.owns(key))
            .map(|c| c.me().node)
            .collect();
        assert_eq!(owners.len(), 1, "key {key} owned by {owners:?}");
        assert_eq!(owners[0], h.expected_owner(key).node);
    }
}

#[test]
fn converged_constructor_matches_organic_convergence() {
    let mut refs = spread_ids(40);
    refs.sort_by_key(|r| r.id.0);
    let mut h = harness();
    for (i, r) in refs.iter().enumerate() {
        h.policy.joins.insert(r.node);
        h.spawn(*r, Chord::converged(i, &refs, fast_cfg()));
    }
    // Already converged at t=0, before any stabilization.
    h.assert_ring_converged();
    // Lookups work immediately and are logarithmic.
    for i in 0..50u64 {
        let origin = refs[(i as usize) % 40].node;
        h.lookup(origin, ChordId(bloomless_hash(123 + i)));
    }
    h.run_until(60_000);
    assert_eq!(h.policy.lookups_done.len(), 50);
    for (_, _, key, owner, hops) in &h.policy.lookups_done {
        assert_eq!(owner.node, h.expected_owner(*key).node, "key {key}");
        assert!(*hops <= 7, "hops {hops} too high for a converged 40-ring");
    }
    // And it keeps running (stabilization does not destroy the state).
    h.run_until(120_000);
    h.assert_ring_converged();
    h.trace.assert_clean();
}

#[test]
fn recursive_lookup_finds_owner_with_fewer_message_delays() {
    let (mut h, refs) = build_ring(32);
    h.run_until(h.now + 60_000);
    let origin = refs[3].node;
    let start = h.now;
    let keys: Vec<ChordId> = (0..30u64)
        .map(|i| ChordId(bloomless_hash(60_000 + i)))
        .collect();
    for &k in &keys {
        h.with_node(origin, |n| n.lookup_recursive(k).1);
    }
    h.run_until(start + 120_000);
    assert_eq!(h.policy.lookups_done.len(), 30);
    for (_, _, key, owner, hops) in &h.policy.lookups_done {
        assert_eq!(owner.node, h.expected_owner(*key).node, "key {key}");
        assert!(*hops <= 12, "hops {hops}");
    }
}

#[test]
fn recursive_lookup_retries_through_other_first_hops_after_failures() {
    let (mut h, refs) = build_ring(32);
    h.run_until(h.now + 60_000);
    // Kill a third of the ring: recursive paths will break and must retry.
    for r in refs.iter().skip(1).step_by(3) {
        h.kill(r.node);
    }
    let origin = refs[0].node;
    assert!(h.nodes.contains_key(&origin));
    for i in 0..20u64 {
        h.with_node(origin, |n| {
            n.lookup_recursive(ChordId(bloomless_hash(71_000 + i))).1
        });
    }
    h.run_until(h.now + 120_000);
    let done = h.policy.lookups_done.len();
    let failed = h.policy.lookups_failed.len();
    assert_eq!(done + failed, 20);
    assert!(done >= 15, "recursive retry salvaged only {done}/20");
}

/// The repair budget, in messages, not wall: on a ring where nothing
/// changed, sweeping the whole finger table costs a node one question and
/// one answer per distinct finger it holds (a finger whose slots straddle
/// two firings is asked in both, hence the + 4). Re-resolving every slot
/// with a multi-hop lookup, as `fix_fingers` once did, costs ≈ 63.
#[test]
fn full_sweep_of_a_converged_ring_asks_each_distinct_finger_once() {
    let mut refs = spread_ids(1_024);
    refs.sort_by_key(|r| r.id.0);
    let cfg = ChordConfig::default();
    let firings = ChordId::BITS.div_ceil(cfg.fingers_per_round);
    let mut nodes: Vec<Chord> = (0..refs.len())
        .map(|i| Chord::converged(i, &refs, cfg.clone()).0)
        .collect();
    let mut at = vec![0; refs.len()];
    for (pos, r) in refs.iter().enumerate() {
        at[r.node.index()] = pos;
    }

    let mut total = 0;
    for me in 0..nodes.len() {
        let distinct: HashSet<NodeId> = (0..ChordId::BITS)
            .map(|i| refs[me].id.finger_start(i))
            .map(|start| refs[refs.partition_point(|r| r.id < start) % refs.len()].node)
            .filter(|&finger| finger != refs[me].node)
            .collect();
        let mut msgs = 0;
        for _ in 0..firings {
            let mut pending = vec![(me, nodes[me].handle_timer(ChordTimer::FixFingers))];
            while let Some((from, actions)) = pending.pop() {
                for action in actions {
                    // Every answer arrives, so no deadline ever matters.
                    if let ChordAction::Send { to, msg } = action {
                        msgs += 1;
                        let to = at[to.node.index()];
                        pending.push((to, nodes[to].handle_message(refs[from].node, msg)));
                    }
                }
            }
        }
        assert_eq!(
            nodes[me].pending_lookups(),
            0,
            "every question was answered"
        );
        assert!(
            msgs <= 2 * distinct.len() + 4,
            "{}: {msgs} messages to sweep {} distinct fingers",
            refs[me],
            distinct.len()
        );
        total += msgs;
    }
    let per_node = total as f64 / nodes.len() as f64;
    assert!(
        per_node <= 20.0,
        "{per_node:.1} messages per node and sweep"
    );
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.successor().node, refs[(i + 1) % refs.len()].node);
    }
}

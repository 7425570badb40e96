//! Differential tests for the route index: the table scans it replaced
//! are kept here, verbatim, as the oracle, and random tables — sparse and
//! stale fingers, several nodes under one ring id, one node under several,
//! holders of our own id, empty successor lists — must get the same answer
//! from both, tie-breaks included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

// ----------------------------------------------------------------------
// The oracle: one pass over every table entry per question.
// ----------------------------------------------------------------------

impl Chord {
    fn best_local_step_scan(&self, key: ChordId, exclude: &[NodeId]) -> NodeRef {
        let mut best: Option<NodeRef> = None;
        let mut best_dist = u64::MAX;
        for cand in self.known_nodes() {
            if exclude.contains(&cand.node) || cand.node == self.me.node {
                continue;
            }
            if cand.id.in_open_full(self.me.id, key) {
                let d = cand.id.distance_to(key);
                if d < best_dist {
                    best_dist = d;
                    best = Some(cand);
                }
            }
        }
        best.or_else(|| {
            self.successors
                .iter()
                .find(|s| !exclude.contains(&s.node))
                .copied()
        })
        .unwrap_or(self.me)
    }

    fn closest_preceding_scan(&self, key: ChordId) -> NodeRef {
        let mut best = self.me;
        let mut best_dist = u64::MAX;
        for cand in self.known_nodes() {
            if cand.id.in_open_full(self.me.id, key) {
                let d = cand.id.distance_to(key);
                if d < best_dist {
                    best_dist = d;
                    best = cand;
                }
            }
        }
        best
    }

    fn ref_for_scan(&self, node: NodeId) -> NodeRef {
        self.known_nodes()
            .find(|n| n.node == node)
            .unwrap_or(NodeRef::new(node, ChordId(0)))
    }

    /// The index must equal one built from scratch: a table write that
    /// forgot to mark it stale shows here.
    fn assert_route_current(&mut self, after: &str) {
        self.refresh_route();
        let lazy = self.route.clone();
        self.route_stale = true;
        self.refresh_route();
        assert_eq!(lazy, self.route, "route index stale after {after}");
    }
}

// ----------------------------------------------------------------------
// Random tables
// ----------------------------------------------------------------------

const NODES: usize = 12;

/// A node with arbitrary tables, and the pool of references they were
/// drawn from (few nodes, few ring ids, so both collide often).
fn random_node(rng: &mut StdRng) -> (Chord, Vec<NodeRef>) {
    let me_id = match rng.gen_range(0..4) {
        0 => 0,
        1 => u64::MAX - rng.gen_range(0..4u64),
        _ => rng.gen(),
    };
    let me = NodeRef::new(NodeId::from_index(0), ChordId(me_id));
    let ids: Vec<u64> = (0..rng.gen_range(2..14))
        .map(|_| match rng.gen_range(0..8) {
            0 => me_id, // a second holder of our own position
            1 => me_id.wrapping_add(rng.gen_range(1..4)),
            2 => me_id.wrapping_sub(rng.gen_range(1..4)),
            3 | 4 => me_id.wrapping_add(1u64 << rng.gen_range(0..64)),
            5 => me_id
                .wrapping_add(1u64 << rng.gen_range(0..64))
                .wrapping_sub(1),
            _ => rng.gen(),
        })
        .collect();
    let pool: Vec<NodeRef> = (0..rng.gen_range(1..24))
        .map(|_| {
            // Node 0 is ourselves: the tables never hold it, the queries
            // skip it all the same.
            let node = if rng.gen_bool(0.03) {
                0
            } else {
                rng.gen_range(1..NODES)
            };
            let id = ids[rng.gen_range(0..ids.len())];
            NodeRef::new(NodeId::from_index(node), ChordId(id))
        })
        .collect();
    let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];

    let mut node = Chord::bare(me, ChordConfig::default());
    node.joined = true;
    for _ in 0..rng.gen_range(0..=node.cfg.successor_list_len) {
        let s = pick(rng);
        node.successors.push(s);
    }
    if rng.gen_bool(0.8) {
        node.predecessor = Some(pick(rng));
    }
    let density = [0.05, 0.5, 1.0][rng.gen_range(0..3)];
    for i in 0..node.fingers.len() {
        if rng.gen_bool(density) {
            // Mostly the successor, as on a real ring; else anything,
            // which is often a node behind the finger's own start.
            node.fingers[i] = match node.successors.first() {
                Some(&s) if rng.gen_bool(0.6) => Some(s),
                _ => Some(pick(rng)),
            };
        }
    }
    node.route_stale = true;
    (node, pool)
}

fn random_key(rng: &mut StdRng, me: NodeRef, pool: &[NodeRef]) -> ChordId {
    let near = pool[rng.gen_range(0..pool.len())].id.0;
    ChordId(match rng.gen_range(0..6) {
        0 => me.id.0,
        1 => near,
        2 => near.wrapping_add(1),
        3 => near.wrapping_sub(1),
        _ => rng.gen(),
    })
}

fn random_exclude(rng: &mut StdRng, pool: &[NodeRef]) -> Vec<NodeId> {
    match rng.gen_range(0..4) {
        0 => Vec::new(),
        // Every holder of one ring id: the whole equal-id group goes.
        1 => {
            let id = pool[rng.gen_range(0..pool.len())].id;
            pool.iter().filter(|r| r.id == id).map(|r| r.node).collect()
        }
        2 => (0..NODES).map(NodeId::from_index).collect(),
        _ => (0..NODES)
            .filter(|_| rng.gen_bool(0.4))
            .map(NodeId::from_index)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn index_answers_like_the_scan(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut node, pool) = random_node(&mut rng);
        node.refresh_route();
        for _ in 0..8 {
            let key = random_key(&mut rng, node.me, &pool);
            prop_assert_eq!(
                node.closest_preceding(key),
                node.closest_preceding_scan(key),
                "closest_preceding({:?}) on {:?}", key, node
            );
            let exclude = random_exclude(&mut rng, &pool);
            prop_assert_eq!(
                node.best_local_step(key, &exclude),
                node.best_local_step_scan(key, &exclude),
                "best_local_step({:?}, {:?}) on {:?}", key, exclude, node
            );
        }
        for n in (0..NODES + 1).map(NodeId::from_index) {
            prop_assert_eq!(node.ref_for(n), node.ref_for_scan(n), "ref_for({:?}) on {:?}", n, node);
        }
    }

    /// Whatever sequence of table writes runs, the lazily rebuilt index
    /// equals one built from scratch: no write misses its stale mark.
    #[test]
    fn index_follows_every_table_write(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut node, pool) = random_node(&mut rng);
        node.assert_route_current("construction");
        for _ in 0..24 {
            let r = pool[rng.gen_range(0..pool.len())];
            let op = match rng.gen_range(0..9) {
                0 => {
                    node.purge(r.node);
                    "purge"
                }
                1 => {
                    node.adopt_successor(r);
                    "adopt_successor"
                }
                2 => {
                    node.on_notify(r);
                    "on_notify"
                }
                3 => {
                    // A reply to the round in flight, from whoever we
                    // asked: our successor, or (stale) somebody else.
                    let sender = if rng.gen_bool(0.8) { node.successor() } else { r };
                    let theirs = (0..rng.gen_range(0..10))
                        .map(|_| pool[rng.gen_range(0..pool.len())])
                        .collect();
                    let pred = rng.gen_bool(0.7).then(|| pool[rng.gen_range(0..pool.len())]);
                    node.on_neighbors_reply(node.stabilize_gen, sender, pred, theirs);
                    "on_neighbors_reply"
                }
                4 => {
                    let to = rng.gen_bool(0.8).then_some(r);
                    node.set_finger(rng.gen_range(0..64), to);
                    "set_finger"
                }
                5 => {
                    node.note_alive(r);
                    "note_alive"
                }
                6 => {
                    // An unanswered predecessor ping.
                    if let Some(p) = node.predecessor {
                        node.pending_ping = Some((7, p));
                        node.handle_timer(ChordTimer::PingDeadline { nonce: 7 });
                    }
                    "ping deadline"
                }
                7 => {
                    // An unanswered stabilize round drops the successor.
                    node.handle_timer(ChordTimer::StabilizeDeadline { gen: node.stabilize_gen });
                    "stabilize deadline"
                }
                _ => {
                    // A finger-repair lookup answered by `r`.
                    node.handle_timer(ChordTimer::FixFingers);
                    if let Some(token) = node.next_token.checked_sub(1) {
                        node.handle_message(
                            r.node,
                            ChordMsg::FindNextReply { token, result: StepResult::Owner(r) },
                        );
                    }
                    "finger repair"
                }
            };
            node.assert_route_current(op);
        }
    }
}

#[test]
fn converged_tables_are_indexed_once_each() {
    let ring: Vec<NodeRef> = (0..40u64)
        .map(|i| NodeRef::new(NodeId::from_index(i as usize), ChordId(i << 58)))
        .collect();
    let (mut node, _) = Chord::converged(3, &ring, ChordConfig::default());
    node.assert_route_current("converged");
    // 8 successors + predecessor + the fingers beyond the list (2^58 apart:
    // fingers 58..=63 reach 1, 2, 4, 8, 16 and 32 members ahead).
    let mut distinct: Vec<NodeRef> = node.known_nodes().collect();
    distinct.sort_by_key(|n| n.node);
    distinct.dedup();
    assert_eq!(node.route.len(), distinct.len());
    assert_eq!(node.route.len(), 8 + 1 + 2);
    assert!(node
        .route
        .windows(2)
        .all(|w| node.me.id.distance_to(w[0].id) < node.me.id.distance_to(w[1].id)));
}

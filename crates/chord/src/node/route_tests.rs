//! Differential tests for the route index: the table scans it replaced
//! are kept here, verbatim, as the oracle, and random tables — sparse and
//! stale fingers, several nodes under one ring id, one node under several,
//! holders of our own id, empty successor lists — must get the same answer
//! from both, tie-breaks included. The same goes for the two short cuts
//! over the finger table: `note_alive`'s settled prefix against the 64-slot
//! scan, and local finger starts settled in place against the lookup that
//! used to settle them.
//!
//! Below them, the finger-repair cases: what `FixFingers` sends, to whom,
//! and what each answer does to the table.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

// ----------------------------------------------------------------------
// The oracles: one pass over every table entry per question, every slot
// per heard node, a lookup per finger start.
// ----------------------------------------------------------------------

/// `settled_len` slot by slot, as `Chord::settled` defines the prefix.
fn settled_len_scan(me: ChordId, fingers: &Fingers) -> u32 {
    let mut floor = 0;
    fingers
        .iter()
        .zip(0u32..)
        .take_while(|&(f, i)| {
            f.is_some_and(|f| {
                let d = me.distance_to(f.id);
                let settled = d >= 1u64 << i && d >= floor;
                floor = d;
                settled
            })
        })
        .count() as u32
}

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
        for e in &self.route {
            let first = self.known_nodes().position(|n| n == e.node_ref());
            assert_eq!(first, Some(e.rank as usize), "rank of {e:?} after {after}");
        }
    }

    /// A settled prefix, once known, must be the fingers' own: a finger
    /// write that forgot to clear it shows here. Counted a run at a time,
    /// it must be what a count slot by slot finds.
    fn assert_settled_current(&self, after: &str) {
        let fresh = settled_len(self.me.id, &self.fingers);
        assert_eq!(
            fresh,
            settled_len_scan(self.me.id, &self.fingers),
            "settled_len after {after}"
        );
        if let Some(settled) = self.settled {
            assert_eq!(settled, fresh, "settled prefix stale after {after}");
        }
    }

    /// `note_alive` before the settled prefix: every slot, every time.
    fn note_alive_scan(&mut self, n: NodeRef) {
        if n.node == self.me.node || n.id == self.me.id {
            return;
        }
        for i in 0..ChordId::BITS {
            let idx = i as usize;
            let start = self.me.id.finger_start(i);
            if !start.in_open_closed(self.me.id, n.id) {
                continue; // n does not cover this finger interval
            }
            let better = match self.fingers.get(idx) {
                None => true,
                Some(cur) => start.distance_to(n.id) < start.distance_to(cur.id),
            };
            if better {
                self.fingers.set(1 << idx, Some(n));
                self.route_stale = true;
            }
        }
    }

    /// `resolve_finger` before local starts were settled in place: every
    /// slot opens a lookup, which a local start finishes at once.
    fn resolve_finger_by_lookup(&mut self, i: u32) -> Vec<ChordAction> {
        let token = self.start_lookup(self.me.id.finger_start(i), Purpose::Finger(i));
        self.resolve_or_send(token, false)
    }

    /// `on_fix_fingers_timer` over `resolve_finger_by_lookup`.
    fn on_fix_fingers_timer_by_lookup(&mut self) -> Vec<ChordAction> {
        let delay_ms = self.jittered(self.cfg.fix_fingers_period_ms);
        let mut actions = vec![ChordAction::SetTimer {
            delay_ms,
            timer: ChordTimer::FixFingers,
        }];
        if !self.joined || self.successor().node == self.me.node {
            return actions;
        }
        let first_token = self.reqs.next_rid();
        for _ in 0..self.cfg.fingers_per_round.max(1) {
            let i = self.next_finger;
            self.next_finger = (self.next_finger + 1) % ChordId::BITS;
            let start = self.me.id.finger_start(i);
            match self.fingers.get(i as usize) {
                Some(f) if self.local_owner(start).is_none() => actions.extend(
                    self.verify_finger(i, start, f, first_token)
                        .into_iter()
                        .flatten(),
                ),
                _ => actions.extend(self.resolve_finger_by_lookup(i)),
            }
        }
        actions
    }

    /// Everything a lookup in flight holds, in token order.
    fn lookups_in_flight(&self) -> Vec<(u64, ChordId, Purpose, NodeRef, u32)> {
        self.reqs
            .iter()
            .filter_map(|r| match &r.purpose {
                Rpc::Lookup(lk) => Some((r.rid, lk.key, lk.purpose, r.to, r.attempt)),
                _ => None,
            })
            .collect()
    }

    /// The purposes of the lookups in flight, in token order.
    fn lookup_purposes(&self) -> Vec<Purpose> {
        self.lookups_in_flight()
            .into_iter()
            .map(|lk| lk.2)
            .collect()
    }

    /// The rid of the open request of this kind (a stabilize round or a
    /// ping), opened and armed towards `to` if there is none.
    fn live_or_open(&mut self, to: NodeRef, kind: fn(&Rpc) -> bool, open: fn() -> Rpc) -> u64 {
        match self.reqs.iter().find(|r| kind(&r.purpose)) {
            Some(r) => r.rid,
            None => {
                let rid = self.reqs.open(to, open());
                self.reqs.arm(rid);
                rid
            }
        }
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
    for _ in 0..rng.gen_range(0..=SUCCESSOR_LIST_LEN) {
        let s = pick(rng);
        node.successors.push(s);
    }
    if rng.gen_bool(0.8) {
        node.predecessor = Some(pick(rng));
    }
    let density = [0.05, 0.5, 1.0][rng.gen_range(0..3)];
    for i in 0..ChordId::BITS as usize {
        if rng.gen_bool(density) {
            // Mostly the successor, as on a real ring; else anything,
            // which is often a node behind the finger's own start.
            let f = match node.successors.first() {
                Some(&s) if rng.gen_bool(0.6) => s,
                _ => pick(rng),
            };
            node.fingers.set(1 << i, Some(f));
        }
    }
    node.route_stale = true;
    (node, pool)
}

/// A member of a converged ring whose table was then disturbed: a few slots
/// emptied, or pointed at another member (often one behind the slot's
/// start) or at a stranger — a second holder of a member's ring id, a
/// holder of our own id, a node just beside a member. The pool is the ring
/// and the strangers.
fn ring_node(rng: &mut StdRng) -> (Chord, Vec<NodeRef>) {
    // Ids at every scale, so fingers of every height differ.
    let mut ids: Vec<u64> = (0..rng.gen_range(1..40))
        .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let ring: Vec<NodeRef> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| NodeRef::new(NodeId::from_index(k), ChordId(id)))
        .collect();
    let (mut node, _) =
        Chord::converged(rng.gen_range(0..ring.len()), &ring, ChordConfig::default());
    let mut pool = ring.clone();
    for k in 0..rng.gen_range(0..6) {
        let near = ring[rng.gen_range(0..ring.len())].id.0;
        let id = match rng.gen_range(0..4) {
            0 => node.me.id.0,
            1 => near,
            2 => near.wrapping_add(rng.gen_range(1..4)),
            _ => near.wrapping_sub(rng.gen_range(1..4)),
        };
        pool.push(NodeRef::new(
            NodeId::from_index(ring.len() + k),
            ChordId(id),
        ));
    }
    for _ in 0..rng.gen_range(0..4) {
        let to = rng
            .gen_bool(0.8)
            .then(|| pool[rng.gen_range(0..pool.len())]);
        node.set_fingers(1 << rng.gen_range(0..64), to);
    }
    (node, pool)
}

/// Two equal nodes from one seed (`Chord` has no `Clone`), either kind, and
/// the generator positioned after them, for what is then done to both.
fn twins(seed: u64) -> (Chord, Chord, Vec<NodeRef>, StdRng) {
    let make = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            random_node(rng)
        } else {
            ring_node(rng)
        }
    };
    let (b, _) = make(&mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, pool) = make(&mut rng);
    (a, b, pool, rng)
}

/// Actions compared as the golden test sees them.
fn shown(actions: &[ChordAction]) -> String {
    format!("{actions:?}")
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

/// A finger write's slots: mostly one, sometimes any.
fn random_slots(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.7) {
        1 << rng.gen_range(0..64)
    } else {
        rng.gen()
    }
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
                    let gen = node.live_or_open(
                        node.successor(),
                        |r| matches!(r, Rpc::Stabilize),
                        || Rpc::Stabilize,
                    );
                    node.on_neighbors_reply(gen, sender, pred, theirs);
                    "on_neighbors_reply"
                }
                4 => {
                    let to = rng.gen_bool(0.8).then_some(r);
                    node.set_fingers(random_slots(&mut rng), to);
                    "set_fingers"
                }
                5 => {
                    node.note_alive(r);
                    "note_alive"
                }
                6 => {
                    // An unanswered predecessor ping.
                    if let Some(p) = node.predecessor {
                        let nonce = node.live_or_open(p, |r| matches!(r, Rpc::Ping), || Rpc::Ping);
                        node.handle_timer(ChordTimer::PingDeadline { nonce });
                    }
                    "ping deadline"
                }
                7 => {
                    // An unanswered stabilize round drops the successor.
                    let gen = node.live_or_open(
                        node.successor(),
                        |r| matches!(r, Rpc::Stabilize),
                        || Rpc::Stabilize,
                    );
                    node.handle_timer(ChordTimer::StabilizeDeadline { gen });
                    "stabilize deadline"
                }
                _ => {
                    // A finger-repair lookup answered by `r`.
                    node.handle_timer(ChordTimer::FixFingers);
                    if let Some(token) = node.reqs.next_rid().checked_sub(1) {
                        node.handle_message(
                            r.node,
                            ChordMsg::FindNextReply { token, result: StepResult::Owner(r) },
                        );
                    }
                    "finger repair"
                }
            };
            node.assert_route_current(op);
            node.assert_settled_current(op);
        }
    }

    /// `note_alive` against the 64-slot scan it short-cuts, between every
    /// other finger write: the same fingers and the same stale mark, and a
    /// known settled prefix is always the fingers' own.
    #[test]
    fn note_alive_answers_like_the_scan(seed: u64) {
        let (mut node, mut scan, pool, mut rng) = twins(seed);
        for _ in 0..48 {
            let r = pool[rng.gen_range(0..pool.len())];
            let op = match rng.gen_range(0..10) {
                0 => {
                    node.purge(r.node);
                    scan.purge(r.node);
                    "purge"
                }
                1 => {
                    let (slots, to) = (random_slots(&mut rng), rng.gen_bool(0.7).then_some(r));
                    node.set_fingers(slots, to);
                    scan.set_fingers(slots, to);
                    "set_fingers"
                }
                2 => {
                    node.refresh_route();
                    scan.refresh_route();
                    "refresh_route"
                }
                _ => {
                    // A node we know of, or one just beside it.
                    let heard = match rng.gen_range(0..4) {
                        0 => NodeRef::new(r.node, ChordId(r.id.0.wrapping_add(1))),
                        1 => NodeRef::new(r.node, ChordId(r.id.0.wrapping_sub(1))),
                        _ => r,
                    };
                    node.note_alive(heard);
                    scan.note_alive_scan(heard);
                    "note_alive"
                }
            };
            prop_assert_eq!(&node.fingers, &scan.fingers, "fingers after {}", op);
            prop_assert_eq!(node.route_stale, scan.route_stale, "stale mark after {}", op);
            node.assert_settled_current(op);
        }
    }

    /// Every slot resolved both ways, in sweep order: a local start settled
    /// in place leaves what its lookup left — tokens, fingers, lookups in
    /// flight, the index once rebuilt — and emits what it emitted.
    #[test]
    fn resolve_finger_settles_like_its_lookup(seed: u64) {
        let (mut node, mut lookup, _, _) = twins(seed);
        for i in 0..ChordId::BITS {
            let (ours, theirs) = (node.resolve_finger(i), lookup.resolve_finger_by_lookup(i));
            prop_assert_eq!(shown(&ours), shown(&theirs), "slot {}", i);
            prop_assert_eq!(node.reqs.next_rid(), lookup.reqs.next_rid(), "slot {}", i);
            prop_assert_eq!(&node.fingers, &lookup.fingers, "slot {}", i);
            prop_assert_eq!(node.lookups_in_flight(), lookup.lookups_in_flight(), "slot {}", i);
        }
        node.refresh_route();
        lookup.refresh_route();
        prop_assert_eq!(&node.route, &lookup.route);
    }

    /// A whole sweep, four firings of 16 slots: the same actions with the
    /// same tokens as when every slot opened a lookup.
    #[test]
    fn fix_fingers_sweep_matches_the_lookup_path(seed: u64) {
        let (mut node, mut lookup, _, _) = twins(seed);
        for firing in 0..4 {
            let ours = node.handle_timer(ChordTimer::FixFingers);
            let theirs = lookup.on_fix_fingers_timer_by_lookup();
            prop_assert_eq!(shown(&ours), shown(&theirs), "firing {}", firing);
            prop_assert_eq!(node.reqs.next_rid(), lookup.reqs.next_rid(), "firing {}", firing);
            prop_assert_eq!(&node.fingers, &lookup.fingers, "firing {}", firing);
            prop_assert_eq!(node.lookups_in_flight(), lookup.lookups_in_flight(), "firing {}", firing);
        }
    }
}

#[test]
fn a_converged_table_hears_every_member_in_constant_time() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
    ids.sort_unstable();
    ids.dedup();
    let ring: Vec<NodeRef> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| NodeRef::new(NodeId::from_index(k), ChordId(id)))
        .collect();
    for me in [0, 1, 300, ring.len() - 1] {
        let (mut node, _) = Chord::converged(me, &ring, ChordConfig::default());
        for (k, &n) in ring.iter().enumerate() {
            assert!(
                k == me || node.settled_covers(n),
                "member {k} scans at {me}"
            );
        }
        // A newcomer just in front of a finger is closer to its start: it
        // is not covered, and the scan takes it.
        let start = node.me.id.finger_start(60);
        let f = node.fingers.get(60).expect("slot 60 is filled");
        assert_ne!(f.id, start);
        let newcomer = NodeRef::new(NodeId::from_index(9_999), ChordId(f.id.0.wrapping_sub(1)));
        assert!(!node.settled_covers(newcomer));
        node.note_alive(newcomer);
        assert_eq!(node.fingers.get(60), Some(newcomer));
        node.assert_settled_current("note_alive");
    }
}

#[test]
fn adopting_the_successor_list_as_it_stands_leaves_the_index_current() {
    let ring: Vec<NodeRef> = (0..40u64)
        .map(|i| NodeRef::new(NodeId::from_index(i as usize), ChordId(i << 58)))
        .collect();
    let (mut node, _) = Chord::converged(3, &ring, ChordConfig::default());
    node.refresh_route();
    // Every member of the list, and the next one past it (inserted at the
    // tail and cut off again), changes nothing.
    for &s in &ring[4..=4 + SUCCESSOR_LIST_LEN] {
        node.adopt_successor(s);
        assert!(!node.route_stale, "adopting {s} marked the index stale");
    }
    // A newcomer in front of the successor does.
    node.adopt_successor(NodeRef::new(NodeId::from_index(99), ChordId((3 << 58) + 1)));
    assert!(node.route_stale);
    node.assert_route_current("adopt_successor");
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

// ----------------------------------------------------------------------
// Finger repair: verify, then resolve
// ----------------------------------------------------------------------

/// A handful of machines, node `k` at ring id `ids[k]`, node 0 at id 0 the
/// one under test. Sends are delivered at once, or vanish when the receiver
/// is dead; node 0's timers are recorded, never fired.
struct Wire {
    nodes: Vec<Option<Chord>>,
    refs: Vec<NodeRef>,
    /// Every message delivered or lost, with its receiver, in send order.
    log: Vec<(usize, ChordMsg)>,
    timers: Vec<ChordTimer>,
}

impl Wire {
    /// The nodes in `live` hold converged tables over `live`. Node 0 holds
    /// converged tables over `believed` — the ring before it changed — and
    /// repairs `per_round` slots a firing, starting at `next_finger`.
    fn new(ids: &[u64], live: &[usize], believed: &[usize], per_round: u32, next: u32) -> Wire {
        let refs: Vec<NodeRef> = ids
            .iter()
            .enumerate()
            .map(|(k, &id)| NodeRef::new(NodeId::from_index(k), ChordId(id)))
            .collect();
        let ring = |members: &[usize]| members.iter().map(|&k| refs[k]).collect::<Vec<_>>();
        let cfg = ChordConfig {
            fingers_per_round: per_round,
            ..ChordConfig::default()
        };
        let mut nodes: Vec<Option<Chord>> = (0..ids.len()).map(|_| None).collect();
        for (at, &k) in live.iter().enumerate() {
            nodes[k] = Some(Chord::converged(at, &ring(live), cfg.clone()).0);
        }
        let mut me = Chord::converged(0, &ring(believed), cfg).0;
        me.next_finger = next;
        nodes[0] = Some(me);
        Wire {
            nodes,
            refs,
            log: Vec::new(),
            timers: Vec::new(),
        }
    }

    fn me(&mut self) -> &mut Chord {
        self.nodes[0].as_mut().expect("node 0 is live")
    }

    fn finger(&mut self, i: usize) -> Option<usize> {
        self.me().fingers.get(i).map(|f| f.node.index())
    }

    /// Apply node 0's `actions` and deliver until the wire is quiet.
    fn run(&mut self, actions: Vec<ChordAction>) {
        let mut queue = VecDeque::from([(0, actions)]);
        while let Some((at, actions)) = queue.pop_front() {
            for action in actions {
                match action {
                    ChordAction::Send { to, msg } => {
                        let to = to.node.index();
                        self.log.push((to, msg.clone()));
                        if let Some(node) = self.nodes[to].as_mut() {
                            queue.push_back((to, node.handle_message(self.refs[at].node, msg)));
                        }
                    }
                    ChordAction::SetTimer { timer, .. } if at == 0 => self.timers.push(timer),
                    _ => {}
                }
            }
        }
    }

    /// Fire node 0's `FixFingers`; the sends are returned, not delivered.
    fn fix_fingers(&mut self) -> Vec<ChordAction> {
        self.me().handle_timer(ChordTimer::FixFingers)
    }

    /// The one step deadline armed so far.
    fn step_deadline(&self) -> ChordTimer {
        let mut steps = self
            .timers
            .iter()
            .filter(|t| matches!(t, ChordTimer::LookupStep { .. }));
        let only = *steps.next().expect("a step deadline");
        assert!(steps.next().is_none(), "one question, one deadline");
        only
    }

    /// `(receiver, key)` of every `FindNext` so far.
    fn questions(&self) -> Vec<(usize, u64)> {
        self.log
            .iter()
            .filter_map(|(to, msg)| question(*to, msg))
            .collect()
    }
}

/// `(receiver, key)` if `msg` is a `FindNext`.
fn question(to: usize, msg: &ChordMsg) -> Option<(usize, u64)> {
    match msg {
        ChordMsg::FindNext { key, .. } => Some((to, key.0)),
        _ => None,
    }
}

/// `(receiver, key)` of every `FindNext` among `actions`.
fn find_nexts(actions: &[ChordAction]) -> Vec<(usize, u64)> {
    actions
        .iter()
        .filter_map(|a| match a {
            ChordAction::Send { to, msg } => question(to.node.index(), msg),
            _ => None,
        })
        .collect()
}

/// Node 0 (id 0) and its successor S (id 1) sit side by side, so every
/// slot from 1 up needs the ring: F at 2^41 holds slots 1..=41, G at 2^62
/// slots 42..=62. N, A and B are nodes node 0 has not heard of.
const S: usize = 1;
const A: usize = 2;
const N: usize = 3;
const B: usize = 4;
const F: usize = 5;
const G: usize = 6;
const IDS: [u64; 7] = [
    0,
    1,
    (1 << 39) + 5,
    (1 << 40) + 5,
    (1 << 40) + 9,
    1 << 41,
    1 << 62,
];

#[test]
fn confirming_incumbent_costs_one_round_trip() {
    let ring = [0, S, F, G];
    let mut w = Wire::new(&IDS, &ring, &ring, 1, 40);
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(F, 1 << 40)]);
    assert_eq!(w.me().pending_lookups(), 1);
    w.run(actions);
    assert_eq!(w.log.len(), 2, "one question, one answer: {:?}", w.log);
    assert_eq!(
        w.log[1],
        (
            0,
            ChordMsg::FindNextReply {
                token: 0,
                result: StepResult::Owner(w.refs[F])
            }
        )
    );
    assert_eq!(w.finger(40), Some(F));
    assert_eq!(
        w.me().pending_lookups(),
        0,
        "a confirmed question is closed"
    );
    // Its deadline fires stale.
    let deadline = w.step_deadline();
    assert!(w.me().handle_timer(deadline).is_empty());
    assert_eq!(w.finger(40), Some(F));
}

#[test]
fn slots_sharing_an_incumbent_ask_once() {
    let ring = [0, S, F, G];
    let mut w = Wire::new(&IDS, &ring, &ring, 8, 34);
    let actions = w.fix_fingers();
    // Slots 34..=41 all hold F; the lowest start is the one whose answer
    // covers the rest.
    assert_eq!(find_nexts(&actions), [(F, 1 << 34)]);
    assert_eq!(
        w.me().lookup_purposes()[0],
        Purpose::VerifyFingers(0xff << 34)
    );
    w.run(actions);
    assert_eq!(w.log.len(), 2);
    assert_eq!(w.me().pending_lookups(), 0);
    assert!((34..=41).all(|i| w.finger(i) == Some(F)));
    // The next firing is a new round of questions: 42..=49 hold G.
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(G, 1 << 42)]);
}

#[test]
fn forward_resolves_every_covered_slot_by_its_own_start() {
    // N joined between start 40 and start 41, in front of F.
    let mut w = Wire::new(&IDS, &[0, S, N, F, G], &[0, S, F, G], 3, 39);
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(F, 1 << 39)]);
    w.run(actions);
    // F forwards (to S: what it knows closest before the key). That is a
    // route, not an owner: each slot is looked up from our own tables, and
    // the forward S then gives for start 41 is followed to N, not restarted.
    assert_eq!(
        w.log[1],
        (
            0,
            ChordMsg::FindNextReply {
                token: 0,
                result: StepResult::Forward(w.refs[S])
            }
        )
    );
    assert_eq!(
        w.questions(),
        [
            (F, 1 << 39),
            (S, 1 << 39),
            (S, 1 << 40),
            (S, 1 << 41),
            (N, 1 << 41)
        ]
    );
    assert_eq!(w.finger(39), Some(N));
    assert_eq!(w.finger(40), Some(N));
    assert_eq!(w.finger(41), Some(F), "start 41 lies past N");
    assert_eq!(w.me().pending_lookups(), 0);
}

#[test]
fn dead_incumbent_is_purged_and_every_covered_slot_resolved_at_once() {
    // F died; A and B joined where it used to answer.
    let mut w = Wire::new(&IDS, &[0, S, A, B, G], &[0, S, F, G], 3, 39);
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(F, 1 << 39)]);
    w.run(actions);
    assert_eq!(w.log.len(), 1, "nobody answers for F");
    let deadline = w.step_deadline();
    let actions = w.me().handle_timer(deadline);
    assert!((1..=41).all(|i| w.finger(i).is_none()), "F is purged");
    // All three slots are looked up in the deadline's own call.
    assert_eq!(
        find_nexts(&actions),
        [(S, 1 << 39), (S, 1 << 40), (S, 1 << 41)]
    );
    w.run(actions);
    // Start 40's lookup is forwarded by S and follows the forward to A.
    assert!(w.questions().contains(&(A, 1 << 40)));
    assert_eq!(w.finger(39), Some(A));
    assert_eq!(w.finger(40), Some(B));
    assert_eq!(w.finger(41), Some(G));
    assert_eq!(w.me().pending_lookups(), 0);
    assert!(w.me().handle_timer(deadline).is_empty(), "fires once");
}

#[test]
fn incumbent_that_moved_on_the_ring_does_not_confirm() {
    // F left its position and re-entered the ring at 2^50 (a directory
    // peer that takes another position keeps its address). It owns start
    // 41 once more, but not as the finger we hold.
    let mut w = Wire::new(&IDS, &[0, S, B, G], &[0, S, F, G], 1, 41);
    let moved = NodeRef::new(w.refs[F].node, ChordId(1 << 50));
    let ring = [w.refs[0], w.refs[S], w.refs[B], moved, w.refs[G]];
    for (at, k) in [(1, S), (2, B), (3, F), (4, G)] {
        w.nodes[k] = Some(Chord::converged(at, &ring, ChordConfig::default()).0);
    }
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(F, 1 << 41)]);
    w.run(actions);
    assert_eq!(
        w.log[1],
        (
            0,
            ChordMsg::FindNextReply {
                token: 0,
                result: StepResult::Owner(moved)
            }
        )
    );
    assert_eq!(w.questions()[1..], [(S, 1 << 41), (B, 1 << 41)]);
    assert_eq!(w.me().fingers.get(41), Some(moved));
}

#[test]
fn local_starts_cost_nothing_and_are_not_folded_into_a_question() {
    // Node 0 adopted a successor at 2^10 in front of its old one at 2^20,
    // which every low finger still names.
    let ids = [0, 1 << 10, 1 << 20, 1 << 62];
    let mut w = Wire::new(&ids, &[0, 1, 2, 3], &[0, 2, 3], 16, 0);
    let new = w.refs[1];
    w.me().adopt_successor(new);
    assert!((0..=20).all(|i| w.finger(i) == Some(2)));
    let actions = w.fix_fingers();
    // Starts 0..=10 are the successor's, decided here and now; 11..=15
    // still need the old finger's word, in one question.
    assert!((0..=10).all(|i| w.finger(i) == Some(1)));
    assert_eq!(find_nexts(&actions), [(2, 1 << 11)]);
    assert_eq!(
        w.me().lookup_purposes()[0],
        Purpose::VerifyFingers(0x1f << 11)
    );
    w.run(actions);
    assert_eq!(w.log.len(), 2);
    assert!((11..=15).all(|i| w.finger(i) == Some(2)));
}

#[test]
fn empty_slot_is_resolved_not_asked_of_a_neighbouring_finger() {
    let ring = [0, S, F, G];
    let mut w = Wire::new(&IDS, &ring, &ring, 2, 40);
    w.me().set_fingers(1 << 40, None);
    let actions = w.fix_fingers();
    assert_eq!(find_nexts(&actions), [(S, 1 << 40), (F, 1 << 41)]);
    assert_eq!(
        w.me().lookup_purposes(),
        [Purpose::Finger(40), Purpose::VerifyFingers(1 << 41)]
    );
    w.run(actions);
    assert_eq!(w.finger(40), Some(F));
    assert_eq!(w.me().pending_lookups(), 0);
}

#[test]
fn slot_past_the_wrap_is_not_covered_by_an_earlier_key() {
    // Slots 63, 0, 1 in one firing. X joined between start 1 and start 63;
    // node 0 still names F, beyond both, for either.
    let ids = [0, 1, 1 << 20, (1 << 63) + 5];
    let mut w = Wire::new(&ids, &[0, 1, 2, 3], &[0, 1, 3], 3, 63);
    assert_eq!((w.finger(63), w.finger(1)), (Some(3), Some(3)));
    let actions = w.fix_fingers();
    // "I own 2^63" says nothing about start 1 = 2: it gets its own question.
    assert_eq!(find_nexts(&actions), [(3, 1 << 63), (3, 2)]);
    w.run(actions);
    assert_eq!(w.finger(63), Some(3));
    assert_eq!(w.finger(1), Some(2));
    assert_eq!(w.me().pending_lookups(), 0);
}

#[test]
fn a_reply_of_another_kind_settles_nothing() {
    let ring = [0, S, F, G];
    let mut w = Wire::new(&IDS, &ring, &ring, 1, 40);
    let actions = w.fix_fingers();
    let token = actions
        .iter()
        .find_map(|a| match a {
            ChordAction::Send {
                msg: ChordMsg::FindNext { token, .. },
                ..
            } => Some(*token),
            _ => None,
        })
        .expect("a question to F");
    // F died: nobody answers the question. A pong and a stabilize reply
    // carrying its token are not its answer.
    w.nodes[F] = None;
    w.run(actions);
    let f = w.refs[F];
    let foreign = [
        ChordMsg::Pong { nonce: token },
        ChordMsg::NeighborsReply {
            gen: token,
            sender: f,
            predecessor: None,
            successors: Vec::new(),
        },
    ];
    for msg in foreign {
        assert!(w.me().handle_message(f.node, msg).is_empty());
    }
    assert_eq!(w.me().pending_lookups(), 1, "the question is still open");
    let deadline = w.step_deadline();
    assert!(
        !w.me().handle_timer(deadline).is_empty(),
        "its deadline is still live"
    );
    // Nor are a step reply, a route result and a pong carrying a
    // stabilize round's gen its answer.
    w.nodes[S] = None;
    let gen = w
        .me()
        .handle_timer(ChordTimer::Stabilize)
        .iter()
        .find_map(|a| match a {
            ChordAction::SetTimer {
                timer: ChordTimer::StabilizeDeadline { gen },
                ..
            } => Some(*gen),
            _ => None,
        })
        .expect("a stabilize round");
    let s = w.refs[S];
    let foreign = [
        ChordMsg::FindNextReply {
            token: gen,
            result: StepResult::Owner(s),
        },
        ChordMsg::RouteResult {
            token: gen,
            owner: s,
            hops: 1,
        },
        ChordMsg::Pong { nonce: gen },
    ];
    for msg in foreign {
        assert!(w.me().handle_message(s.node, msg).is_empty());
    }
    let deadline = ChordTimer::StabilizeDeadline { gen };
    assert!(
        !w.me().handle_timer(deadline).is_empty(),
        "the round's deadline is still live"
    );
}

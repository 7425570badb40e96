//! Golden pin for the Chord layer alone: a 128-node converged ring driven
//! in-process through a fixed script — iterative, audited and recursive
//! lookups, out-of-band `node_failed`, a mass failure, joins (fresh ids, a
//! vacated id taken over by a replacement, an occupied id), `reassert`, and
//! several minutes of every periodic and deadline timer — with an FNV-1a
//! hash over the full action stream. Where `engine_golden.rs` says
//! "something moved", this says whether Chord moved.
//!
//! The constant was captured at the last commit whose `Chord` answered
//! routing questions by scanning all 73 table entries; any faster
//! implementation must reproduce the stream byte for byte, tie-breaks
//! included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use chord::{Chord, ChordAction, ChordConfig, ChordId, ChordMsg, ChordTimer, NodeRef};
use simnet::NodeId;

const RING: usize = 128;
const LATENCY_MS: u64 = 40;
const GOLDEN: u64 = 0x6d9e_71d1_8841_571d;

enum Ev {
    Msg {
        to: NodeId,
        from: NodeId,
        msg: ChordMsg,
    },
    Timer {
        node: NodeId,
        timer: ChordTimer,
    },
}

struct Fnv(u64);

impl Fnv {
    fn line(&mut self, text: &str) {
        for b in text.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Harness {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    events: Vec<Option<Ev>>,
    /// Indexed by `NodeId`; `None` once dead.
    nodes: Vec<Option<Chord>>,
    hash: Fnv,
    rng: u64,
}

impl Harness {
    fn push(&mut self, at: u64, ev: Ev) {
        self.events.push(Some(ev));
        self.queue.push(Reverse((at, self.seq)));
        self.seq += 1;
    }

    fn apply(&mut self, me: NodeId, actions: Vec<ChordAction>) {
        for a in actions {
            self.hash.line(&format!("{} {me:?} {a:?}", self.now));
            match a {
                ChordAction::Send { to, msg } => self.push(
                    self.now + LATENCY_MS,
                    Ev::Msg {
                        to: to.node,
                        from: me,
                        msg,
                    },
                ),
                ChordAction::SetTimer { delay_ms, timer } => {
                    self.push(self.now + delay_ms, Ev::Timer { node: me, timer })
                }
                // A failed join retires the node; a stranded one re-joins
                // through the lowest live member, as the hosts do.
                ChordAction::JoinFailed => self.nodes[me.index()] = None,
                ChordAction::Isolated => {
                    let own = self.nodes[me.index()].as_ref().expect("acting").me();
                    let seed = self
                        .nodes
                        .iter()
                        .flatten()
                        .map(Chord::me)
                        .find(|r| r.node != me);
                    if let Some(seed) = seed {
                        self.join(own, seed);
                    }
                }
                ChordAction::LookupDone { .. }
                | ChordAction::LookupFailed { .. }
                | ChordAction::JoinComplete { .. } => {}
            }
        }
    }

    fn join(&mut self, me: NodeRef, seed: NodeRef) {
        let (node, actions) = Chord::join(me, seed, ChordConfig::default());
        if self.nodes.len() <= me.node.index() {
            self.nodes.resize_with(me.node.index() + 1, || None);
        }
        self.nodes[me.node.index()] = Some(node);
        self.apply(me.node, actions);
    }

    fn live(&self) -> Vec<NodeRef> {
        self.nodes.iter().flatten().map(Chord::me).collect()
    }

    /// A pseudo-random live member.
    fn member(&mut self) -> NodeRef {
        let live = self.live();
        live[(splitmix(&mut self.rng) % live.len() as u64) as usize]
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut Chord) -> Vec<ChordAction>) {
        if let Some(node) = self.nodes.get_mut(id.index()).and_then(Option::as_mut) {
            let actions = f(node);
            self.apply(id, actions);
        }
    }

    fn run_until(&mut self, until: u64) {
        while let Some(&Reverse((at, seq))) = self.queue.peek() {
            if at > until {
                break;
            }
            self.queue.pop();
            self.now = at;
            match self.events[seq as usize].take().expect("popped once") {
                Ev::Msg { to, from, msg } => self.with_node(to, |n| n.handle_message(from, msg)),
                Ev::Timer { node, timer } => {
                    let Some(n) = self.nodes[node.index()].as_ref() else {
                        continue;
                    };
                    let live = n.timer_is_live(&timer);
                    self.hash
                        .line(&format!("{at} {node:?} {timer:?} live={live}"));
                    self.with_node(node, |n| n.handle_timer(timer));
                }
            }
        }
        self.now = until;
    }

    /// One of each lookup flavour from pseudo-random members.
    fn lookups(&mut self, count: usize) {
        for _ in 0..count {
            let key = ChordId(splitmix(&mut self.rng));
            let from = self.member().node;
            self.with_node(from, |n| n.lookup(key).1);
            let from = self.member().node;
            self.with_node(from, |n| n.lookup_recursive(key).1);
            let from = self.member().node;
            self.with_node(from, |n| {
                let start = n.successor();
                n.lookup_from(n.me().id, start).1
            });
        }
    }
}

#[test]
fn chord_action_stream_is_pinned() {
    let mut rng = 0xC40D_601D_u64;
    let mut ids: Vec<u64> = (0..RING).map(|_| splitmix(&mut rng)).collect();
    ids.sort_unstable();
    let refs: Vec<NodeRef> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| NodeRef::new(NodeId::from_index(i), ChordId(id)))
        .collect();
    let mut h = Harness {
        now: 0,
        seq: 0,
        queue: BinaryHeap::new(),
        events: Vec::new(),
        nodes: Vec::new(),
        hash: Fnv(0xcbf2_9ce4_8422_2325),
        rng,
    };
    for i in 0..RING {
        let (node, actions) = Chord::converged(i, &refs, ChordConfig::default());
        h.nodes.push(Some(node));
        h.apply(refs[i].node, actions);
    }

    // A healthy minute: every periodic timer fires, fingers re-resolve.
    h.lookups(16);
    h.run_until(60_000);

    // Out-of-band failure reports, then the node really dies.
    for victim in [refs[5], refs[77]] {
        for _ in 0..6 {
            let witness = h.member().node;
            h.with_node(witness, |n| {
                n.node_failed(victim.node);
                Vec::new()
            });
        }
        h.nodes[victim.node.index()] = None;
    }
    h.lookups(8);
    h.run_until(75_000);

    // Mass failure: every eighth member (fingers go stale) plus the run
    // between two of them, so 16..=24 are gone and node 15 — whose whole
    // successor list that is — strands.
    for i in (17..24).chain((0..RING).step_by(8)) {
        h.nodes[i] = None;
    }
    h.lookups(24);
    h.run_until(120_000);

    // Joins: fresh ids, replacements taking over vacated ids (survivors
    // still hold the corpse under the same ring id), and an occupied id.
    for i in 0..12 {
        let id = match i % 3 {
            0 => ChordId(splitmix(&mut h.rng)),
            1 => refs[8 * i].id,
            _ => h.member().id,
        };
        let seed = h.member();
        h.join(NodeRef::new(NodeId::from_index(RING + i), id), seed);
        h.lookups(2);
        h.run_until(120_000 + 2_500 * (i as u64 + 1));
    }
    for _ in 0..8 {
        let who = h.member().node;
        h.with_node(who, |n| n.reassert());
    }

    // Let the ring heal through two full finger sweeps.
    for minute in 3..8 {
        h.lookups(8);
        h.run_until(minute * 60_000);
    }

    for node in h.nodes.iter().flatten() {
        let line = format!(
            "final {:?} joined={} stranded={} pending={} pred={:?} succ={:?}",
            node.me(),
            node.is_joined(),
            node.is_stranded(),
            node.pending_lookups(),
            node.predecessor(),
            node.successor_list()
        );
        h.hash.line(&line);
    }
    assert_eq!(
        h.hash.0, GOLDEN,
        "the Chord action stream diverged: {:#018x}",
        h.hash.0
    );
}

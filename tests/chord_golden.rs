//! Golden pin for the Chord layer alone: a 128-node converged ring driven
//! in-process through a fixed script — iterative, audited and recursive
//! lookups, out-of-band `node_failed`, a mass failure, joins (fresh ids, a
//! vacated id taken over by a replacement, an occupied id), `reassert`, and
//! several minutes of every periodic and deadline timer — with an FNV-1a
//! hash over the full action stream. Where `engine_golden.rs` says
//! "something moved", this says whether Chord moved.
//!
//! The constant was re-recorded when finger repair began asking the
//! incumbent finger before resolving a slot (16 slots a firing, and a
//! stabilize round as often as a firing): that moved what the periodic
//! timers send on purpose. It was re-recorded once more when `Chord`'s
//! host-side liveness predicate was deleted: every timer line used to end
//! in a `live=` token computed with it, and with that token stripped the
//! 648 642 lines of the old stream and of this one are equal. It was
//! re-recorded again when lookups, stabilize rounds and pings began
//! drawing their `token` / `gen` / `nonce` from one table of outstanding
//! requests: with those values masked, the 648 642 lines of the old
//! stream and of this one are equal. A change that only makes `Chord`
//! faster must reproduce the stream byte for byte, tie-breaks included.

#[path = "../crates/chord/tests/common/mod.rs"]
mod common;

use chord::{Chord, ChordAction, ChordConfig, ChordId, ChordTimer, NodeRef};
use common::{Host, Policy};
use simnet::NodeId;

const RING: usize = 128;
const LATENCY_MS: u64 = 40;
const GOLDEN: u64 = 0xa3e8_eb24_c535_1cf6;

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

/// Hashes every action and every timer fire; owns the script's RNG.
struct Pin {
    hash: Fnv,
    rng: u64,
}

impl Policy for Pin {
    fn observe(&mut self, now: u64, me: NodeId, action: &ChordAction) {
        self.hash.line(&format!("{now} {me:?} {action:?}"));
    }

    fn timer_fires(&mut self, now: u64, node: &Chord, timer: &ChordTimer) {
        let id = node.me().node;
        self.hash.line(&format!("{now} {id:?} {timer:?}"));
    }

    fn outcome(host: &mut Harness, me: NodeId, action: ChordAction) {
        match action {
            // A failed join retires the node; a stranded one re-joins
            // through the lowest live member, as the hosts do.
            ChordAction::JoinFailed => host.kill(me),
            ChordAction::Isolated => {
                let own = host.nodes[&me].me();
                let seed = host.nodes.values().map(Chord::me).find(|r| r.node != me);
                if let Some(seed) = seed {
                    host.install(own, Chord::join(own, seed, ChordConfig::default()));
                }
            }
            _ => {}
        }
    }
}

type Harness = Host<Pin>;

impl Harness {
    /// A pseudo-random live member.
    fn member(&mut self) -> NodeRef {
        let live: Vec<NodeRef> = self.nodes.values().map(Chord::me).collect();
        live[(splitmix(&mut self.policy.rng) % live.len() as u64) as usize]
    }

    /// One of each lookup flavour from pseudo-random members.
    fn lookups(&mut self, count: usize) {
        for _ in 0..count {
            let key = ChordId(splitmix(&mut self.policy.rng));
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
    let mut h = Harness::new(
        LATENCY_MS,
        Pin {
            hash: Fnv(0xcbf2_9ce4_8422_2325),
            rng,
        },
    );
    for i in 0..RING {
        h.spawn(refs[i], Chord::converged(i, &refs, ChordConfig::default()));
    }

    // A healthy minute: every periodic timer fires, one full finger sweep.
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
        h.kill(victim.node);
    }
    h.lookups(8);
    h.run_until(75_000);

    // Mass failure: every eighth member (fingers go stale) plus the run
    // between two of them, so 16..=24 are gone and node 15 — whose whole
    // successor list that is — strands.
    for i in (17..24).chain((0..RING).step_by(8)) {
        h.kill(refs[i].node);
    }
    h.lookups(24);
    h.run_until(120_000);

    // Joins: fresh ids, replacements taking over vacated ids (survivors
    // still hold the corpse under the same ring id), and an occupied id.
    for i in 0..12 {
        let id = match i % 3 {
            0 => ChordId(splitmix(&mut h.policy.rng)),
            1 => refs[8 * i].id,
            _ => h.member().id,
        };
        let seed = h.member();
        let me = NodeRef::new(NodeId::from_index(RING + i), id);
        h.spawn(me, Chord::join(me, seed, ChordConfig::default()));
        h.lookups(2);
        h.run_until(120_000 + 2_500 * (i as u64 + 1));
    }
    for _ in 0..8 {
        let who = h.member().node;
        h.with_node(who, |n| n.reassert());
    }

    // Let the ring heal through five full finger sweeps.
    for minute in 3..8 {
        h.lookups(8);
        h.run_until(minute * 60_000);
    }

    for node in h.nodes.values() {
        let line = format!(
            "final {:?} joined={} stranded={} pending={} pred={:?} succ={:?}",
            node.me(),
            node.is_joined(),
            node.is_stranded(),
            node.pending_lookups(),
            node.predecessor(),
            node.successor_list()
        );
        h.policy.hash.line(&line);
    }
    assert_eq!(
        h.policy.hash.0, GOLDEN,
        "the Chord action stream diverged: {:#018x}",
        h.policy.hash.0
    );
}

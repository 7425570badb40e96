//! Sustained-churn convergence test: the ring must stay near-converged
//! while nodes continuously join and fail (the paper's §6.1 regime).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use chord::{Chord, ChordAction, ChordConfig, ChordId, ChordMsg, ChordTimer, NodeRef};
use simnet::{LivenessChecker, LocalityId, NodeId, Time, TraceEvent, TraceSink};

const LATENCY_MS: u64 = 50;

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

struct H {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Option<Ev>>,
    nodes: BTreeMap<NodeId, Chord>,
    isolated: Vec<(u64, NodeId)>,
    /// Nodes needing a re-bootstrap (JoinFailed or Isolated), handled by
    /// the driver loop the way real hosts do.
    rejoin_queue: Vec<NodeId>,
    join_failures: u64,
    /// Trace-driven consistency checker fed by the harness (see ring.rs).
    trace: LivenessChecker,
}

impl H {
    fn new() -> H {
        H {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            nodes: BTreeMap::new(),
            isolated: Vec::new(),
            rejoin_queue: Vec::new(),
            join_failures: 0,
            trace: LivenessChecker::new(),
        }
    }
    fn emit(&mut self, ev: TraceEvent) {
        self.trace.event(Time::from_millis(self.now), &ev);
    }
    fn note_spawn(&mut self, id: NodeId) {
        self.emit(TraceEvent::NodeSpawn {
            node: id,
            locality: LocalityId(0),
        });
    }
    fn note_fail(&mut self, id: NodeId) {
        self.emit(TraceEvent::NodeFail { node: id });
    }
    fn push(&mut self, at: u64, ev: Ev) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.queue.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }
    fn apply(&mut self, me: NodeId, actions: Vec<ChordAction>) {
        for a in actions {
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
                ChordAction::Isolated => {
                    self.isolated.push((self.now, me));
                    self.rejoin_queue.push(me);
                }
                ChordAction::JoinFailed => {
                    self.join_failures += 1;
                    self.rejoin_queue.push(me);
                }
                _ => {}
            }
        }
    }
    fn run_until(&mut self, t: u64) {
        while let Some(&Reverse((at, _, _))) = self.queue.peek() {
            if at > t {
                break;
            }
            let Reverse((at, _, idx)) = self.queue.pop().unwrap();
            self.now = at;
            let Some(ev) = self.events[idx].take() else {
                continue;
            };
            match ev {
                Ev::Msg { to, from, msg } => {
                    let class = msg.class();
                    if let Some(n) = self.nodes.get_mut(&to) {
                        let acts = n.handle_message(from, msg);
                        self.emit(TraceEvent::MsgDeliver {
                            src: from,
                            dst: to,
                            class,
                        });
                        self.apply(to, acts);
                    } else {
                        self.emit(TraceEvent::MsgDrop {
                            src: from,
                            dst: to,
                            class,
                            reason: simnet::DropReason::DeadDestination,
                        });
                    }
                }
                Ev::Timer { node, timer } => {
                    if let Some(n) = self.nodes.get_mut(&node) {
                        let acts = n.handle_timer(timer);
                        self.apply(node, acts);
                    }
                }
            }
        }
        self.now = t;
    }
    /// (succ_ok fraction over joined nodes, stranded, predless, pred_ok fraction)
    fn health(&self) -> (f64, usize, usize, f64) {
        let mut m: Vec<(ChordId, NodeId, NodeId, bool, Option<NodeId>)> = self
            .nodes
            .values()
            .filter(|c| c.is_joined())
            .map(|c| {
                (
                    c.me().id,
                    c.me().node,
                    c.successor().node,
                    c.is_stranded(),
                    c.predecessor().map(|p| p.node),
                )
            })
            .collect();
        m.sort_by_key(|x| x.0 .0);
        let n = m.len();
        if n == 0 {
            return (1.0, 0, 0, 1.0);
        }
        let mut ok = 0;
        let mut pred_ok = 0;
        for (i, x) in m.iter().enumerate() {
            if x.2 == m[(i + 1) % n].1 {
                ok += 1;
            }
            if x.4 == Some(m[(i + n - 1) % n].1) {
                pred_ok += 1;
            }
        }
        let stranded = m.iter().filter(|x| x.3).count();
        let predless = m.iter().filter(|x| x.4.is_none()).count();
        (
            ok as f64 / n as f64,
            stranded,
            predless,
            pred_ok as f64 / n as f64,
        )
    }

    fn mean_list_len(&self) -> f64 {
        let (sum, n) = self
            .nodes
            .values()
            .filter(|c| c.is_joined())
            .fold((0usize, 0usize), |(s, n), c| {
                (s + c.successor_list().len(), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

fn hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn cfg() -> ChordConfig {
    ChordConfig::default()
}

#[test]
fn ring_stays_converged_under_sustained_churn() {
    let mut h = H::new();
    // Seed ring: 200 converged nodes.
    let mut refs: Vec<NodeRef> = (0..200)
        .map(|i| NodeRef::new(NodeId::from_index(i), ChordId(hash(i as u64))))
        .collect();
    refs.sort_by_key(|r| r.id.0);
    for (i, r) in refs.iter().enumerate() {
        h.note_spawn(r.node);
        let (node, actions) = Chord::converged(i, &refs, cfg());
        h.nodes.insert(r.node, node);
        h.apply(r.node, actions);
    }
    // Churn: every 2 s one node dies and one joins (mean lifetime ≈
    // 400 s ≈ 13 stabilize periods — comparable to the paper's ratio).
    let mut next_id = 200usize;
    let mut rng_state = 12345u64;
    let mut rand = move || {
        rng_state = hash(rng_state);
        rng_state
    };
    let horizon = 3 * 3_600_000u64; // 3 hours
    let mut t = 60_000u64;
    let mut report = Vec::new();
    let mut next_report = 600_000u64;
    while t < horizon {
        h.run_until(t);
        // Fail a random live node.
        let live: Vec<NodeId> = h.nodes.keys().copied().collect();
        let victim = live[(rand() % live.len() as u64) as usize];
        h.note_fail(victim);
        h.nodes.remove(&victim);
        // A new node joins through a random live seed.
        let live: Vec<NodeId> = h.nodes.keys().copied().collect();
        let seed_id = live[(rand() % live.len() as u64) as usize];
        let seed = h.nodes[&seed_id].me();
        let me = NodeRef::new(NodeId::from_index(next_id), ChordId(hash(next_id as u64)));
        next_id += 1;
        h.note_spawn(me.node);
        let (node, actions) = Chord::join(me, seed, cfg());
        h.nodes.insert(me.node, node);
        h.apply(me.node, actions);
        // Host behaviour: re-bootstrap nodes that failed to join or got
        // isolated, through a random live seed.
        let pending: Vec<NodeId> = h.rejoin_queue.drain(..).collect();
        for id in pending {
            if !h.nodes.contains_key(&id) {
                continue;
            }
            let live: Vec<NodeId> = h
                .nodes
                .iter()
                .filter(|(n, c)| **n != id && c.is_joined() && !c.is_stranded())
                .map(|(n, _)| *n)
                .collect();
            if live.is_empty() {
                continue;
            }
            let seed_id = live[(rand() % live.len() as u64) as usize];
            let seed = h.nodes[&seed_id].me();
            let me = h.nodes[&id].me();
            let (node, actions) = Chord::join(me, seed, cfg());
            h.nodes.insert(id, node);
            h.apply(id, actions);
        }
        t += 2_000;
        if t >= next_report {
            let (s, st, pl, p) = h.health();
            let ml = h.mean_list_len();
            let joined = h.nodes.values().filter(|c| c.is_joined()).count();
            eprintln!(
                "min {}: pop={} joined={joined} succ_ok={s:.2} stranded={st} predless={pl} pred_ok={p:.2} list={ml:.1} iso={} joinfail={}",
                t / 60_000,
                h.nodes.len(),
                h.isolated.len(),
                h.join_failures,
            );
            report.push((t / 60_000, s, st, pl, p));
            next_report += 600_000;
        }
    }
    h.run_until(horizon + 120_000);
    for (min, s, st, pl, p) in &report {
        eprintln!("min {min}: succ_ok={s:.2} stranded={st} predless={pl} pred_ok={p:.2}");
    }
    let (succ_ok, stranded, _predless, _): (f64, usize, usize, f64) = h.health();
    eprintln!("final: succ_ok={succ_ok:.2} stranded={stranded}");
    h.trace.assert_clean();
    assert!(succ_ok > 0.85, "ring decayed: final succ_ok {succ_ok:.2}");
    assert!(stranded < 10, "{stranded} stranded nodes accumulated");
}

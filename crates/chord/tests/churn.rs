//! Sustained-churn convergence test: the ring must stay near-converged
//! while nodes continuously join and fail (the paper's §6.1 regime).

mod common;

use chord::{Chord, ChordAction, ChordConfig, ChordId, NodeRef};
use common::{Host, Policy};
use simnet::NodeId;

const LATENCY_MS: u64 = 50;
/// Failed join attempts over the run today (ROADMAP 2(f)).
const JOIN_FAILURES: u64 = 1_001;

#[derive(Default)]
struct Churn {
    isolated: Vec<(u64, NodeId)>,
    /// Nodes needing a re-join (JoinFailed or Isolated), handled by
    /// the driver loop the way real hosts do.
    rejoin_queue: Vec<NodeId>,
    join_failures: u64,
}

impl Policy for Churn {
    fn outcome(host: &mut H, me: NodeId, action: ChordAction) {
        match action {
            ChordAction::Isolated => {
                host.policy.isolated.push((host.now, me));
                host.policy.rejoin_queue.push(me);
            }
            ChordAction::JoinFailed => {
                host.policy.join_failures += 1;
                host.policy.rejoin_queue.push(me);
            }
            _ => {}
        }
    }
}

type H = Host<Churn>;

impl H {
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
    let mut h = H::new(LATENCY_MS, Churn::default());
    // Seed ring: 200 converged nodes.
    let mut refs: Vec<NodeRef> = (0..200)
        .map(|i| NodeRef::new(NodeId::from_index(i), ChordId(hash(i as u64))))
        .collect();
    refs.sort_by_key(|r| r.id.0);
    for (i, r) in refs.iter().enumerate() {
        h.spawn(*r, Chord::converged(i, &refs, cfg()));
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
        h.kill(victim);
        // A new node joins through a random live seed.
        let live: Vec<NodeId> = h.nodes.keys().copied().collect();
        let seed_id = live[(rand() % live.len() as u64) as usize];
        let seed = h.nodes[&seed_id].me();
        let me = NodeRef::new(NodeId::from_index(next_id), ChordId(hash(next_id as u64)));
        next_id += 1;
        h.spawn(me, Chord::join(me, seed, cfg()));
        // Host behaviour: nodes that failed to join or got isolated
        // re-join in place, through a random live seed.
        let pending: Vec<NodeId> = h.policy.rejoin_queue.drain(..).collect();
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
            h.with_node(id, |c| c.rejoin(seed));
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
                h.policy.isolated.len(),
                h.policy.join_failures,
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
    let joinfail = h.policy.join_failures;
    eprintln!("final: succ_ok={succ_ok:.2} stranded={stranded} joinfail={joinfail}");
    h.trace.assert_clean();
    assert!(succ_ok > 0.85, "ring decayed: final succ_ok {succ_ok:.2}");
    assert!(stranded < 10, "{stranded} stranded nodes accumulated");
    // ROADMAP 2(f), recorded as it stands: about one join attempt in eight
    // fails on this healthy ring, because a joiner gives up on its first
    // failed step. The count is a ceiling; the fix for 2(f) lowers it.
    assert!(joinfail <= JOIN_FAILURES, "{joinfail} failed joins");
}

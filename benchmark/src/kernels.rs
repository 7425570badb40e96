//! The kernel suite: each layer's public functions timed directly, outside
//! any simulation, so a per-layer number exists that no other layer can
//! colour. Fixed operation counts, ns/op as the median of five batches, and
//! every kernel checks its own result — a kernel that got faster by
//! computing the wrong thing fails the run.
//!
//! Inputs are drawn from the seed before the clock starts; the timed loops
//! see only the generated inputs.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bloom::BloomFilter;
use chord::{Chord, ChordAction, ChordConfig, ChordId, ChordMsg, ChordTimer, NodeRef};
use flower_cdn::api::{ApiCall, ApiResp, ProviderKind};
use flower_cdn::msg::{FlowerMsg, RoutePayload};
use flower_cdn::{Bootstrap, ContentStore, DirInfo, DirPosition, DirectoryIndex, QueryId};
use flower_net::runtime::{api_request, shutdown, NetNode, NodeConfig};
use flower_net::wire::{decode_frame, encode_frame, Frame};
use gossip::{Cyclon, Entry, GossipMsg, ShuffleMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::wheel::Wheel;
use simnet::{Ctx, LocalityId, Node, NodeId, Time, Topology, TopologyConfig, World};
use workload::{generate_sessions, ChurnConfig, ObjectId, WebsiteId, Zipf};

use crate::json::Json;
use crate::stats::{median, percentile};

/// Every metric the suite reports, in report order.
pub const NAMES: [&str; 28] = [
    "simnet.wheel.schedule_pop_ns",
    "simnet.wheel.cancel_owned_ns",
    "simnet.world.pingpong_ns_per_event",
    "simnet.topology.latency_ns",
    "chord.converged_build_us",
    "chord.ring_lookup_us",
    "chord.ring_lookup_hops",
    "chord.fix_fingers_round_us",
    "chord.fix_fingers_round_msgs",
    "chord.stabilize_round_us",
    "gossip.shuffle_roundtrip_ns",
    "bloom.insert_ns",
    "bloom.contains_ns",
    "bloom.union_ns",
    "proto.store.summary_us",
    "proto.directory.record_us",
    "proto.directory.provider_for_ns",
    "proto.bootstrap.add_remove_us_100k",
    "proto.bootstrap.pick_ns_100k",
    "net.wire.encode_ns_per_frame",
    "net.wire.decode_ns_per_frame",
    "net.wire.encode_mb_s",
    "net.wire.decode_mb_s",
    "net.wire.bytes_per_frame",
    "net.runtime.api_ping_p50_us",
    "net.runtime.api_ping_p99_us",
    "workload.zipf_sample_ns",
    "workload.generate_sessions_ms_100k",
];

const BATCHES: usize = 5;

/// What the suite measured, and every self-check that failed.
pub struct Report {
    pub values: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        let mut values = Json::obj();
        for (name, v) in &self.values {
            values.set(name, *v);
        }
        let failures: Vec<Json> = self.failures.iter().map(|f| f.as_str().into()).collect();
        Json::obj()
            .with("values", values)
            .with("failures", failures)
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        let values = NAMES
            .iter()
            .map(|&name| {
                j.get("values")
                    .ok_or("kernel report without values")?
                    .num(name)
                    .map(|v| (name, v))
            })
            .collect::<Result<_, String>>()?;
        let failures = j
            .get("failures")
            .ok_or("kernel report without failures")?
            .items()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        Ok(Report { values, failures })
    }
}

struct Suite {
    rng: StdRng,
    /// Operation counts ÷ 10 (`--quick`).
    quick: bool,
    values: Vec<(&'static str, f64)>,
    failures: Vec<String>,
}

impl Suite {
    fn ops(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

/// Median over the batches of nanoseconds per operation. `batch` prepares
/// its inputs, then returns how long its operations took and how many
/// there were.
fn ns_per_op(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (elapsed, ops) = batch();
            elapsed.as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Run the whole suite once.
pub fn run(seed: u64, quick: bool) -> Report {
    let started = Instant::now();
    let mut s = Suite {
        rng: StdRng::seed_from_u64(seed ^ 0x6b65_726e),
        quick,
        values: Vec::new(),
        failures: Vec::new(),
    };
    wheel(&mut s);
    world_pingpong(&mut s);
    topology_latency(&mut s);
    chord_ring(&mut s);
    gossip_shuffle(&mut s);
    bloom_filter(&mut s);
    store_and_directory(&mut s);
    bootstrap_registry(&mut s);
    wire_codec(&mut s);
    net_runtime(&mut s);
    workload_generators(&mut s);
    eprintln!(
        "benchmark: kernel suite took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    debug_assert_eq!(
        s.values.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        NAMES.to_vec()
    );
    Report {
        values: s.values,
        failures: s.failures,
    }
}

// ---------------------------------------------------------------------
// simnet
// ---------------------------------------------------------------------

/// Far enough to drain any deadline below, without going near `u64::MAX`.
const DRAIN: u64 = 1 << 40;

fn wheel(s: &mut Suite) {
    // Deadlines shaped like the simulator's: 70 % link latencies and RPC
    // deadlines (≤ 500 ms), 25 % periodic maintenance (≤ 60 s), 5 %
    // session ends (≤ 90 min, the overflow heap).
    let n = s.ops(1_000_000);
    let delays: Vec<u64> = (0..n)
        .map(|_| match s.rng.gen_range(0..100u32) {
            0..=69 => s.rng.gen_range(1..=500u64),
            70..=94 => s.rng.gen_range(501..=60_000u64),
            _ => s.rng.gen_range(60_001..=5_400_000u64),
        })
        .collect();
    let backlog = n / 10;
    let mut ordered = true;
    let ns = ns_per_op(|| {
        let mut wheel: Wheel<u64> = Wheel::new();
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let mut now = 0u64;
        let mut pop = |wheel: &mut Wheel<u64>, now: &mut u64| match wheel.pop_next(DRAIN) {
            Some((at, seq)) => {
                ordered &= (at, seq) >= last;
                last = (at, seq);
                *now = at;
                popped += 1;
                true
            }
            None => false,
        };
        let started = Instant::now();
        for (seq, delay) in delays.iter().enumerate() {
            wheel.schedule(now + delay, seq as u64, None, seq as u64);
            if seq >= backlog {
                pop(&mut wheel, &mut now);
            }
        }
        while pop(&mut wheel, &mut now) {}
        let elapsed = started.elapsed();
        ordered &= popped == n;
        (elapsed, n)
    });
    s.put("simnet.wheel.schedule_pop_ns", ns);
    s.check(ordered, "wheel: events did not pop in (at, seq) order");

    let owners = (n / 10) as u32;
    let mut reclaimed = true;
    let ns = ns_per_op(|| {
        let mut wheel: Wheel<u32> = Wheel::new();
        for (seq, delay) in delays.iter().enumerate() {
            wheel.schedule(*delay, seq as u64, Some(seq as u32 % owners), 0);
        }
        let started = Instant::now();
        let cancelled: u64 = (0..owners).map(|o| wheel.cancel_owned(o)).sum();
        let elapsed = started.elapsed();
        reclaimed &= cancelled == n as u64 && wheel.live() == 0;
        (elapsed, n)
    });
    s.put("simnet.wheel.cancel_owned_ns", ns);
    s.check(reclaimed, "wheel: cancel_owned left live entries behind");
}

/// A node that does nothing but pass a token on: the bare cost of one
/// trip through the event loop.
struct Bouncer {
    next: NodeId,
    hops: u32,
}

impl Node for Bouncer {
    type Msg = u32;
    type Timer = ();
    type Report = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        // The partner may not be spawned yet; start once everyone is.
        ctx.set_timer(1, ());
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: NodeId, left: u32) {
        if left > 1 {
            ctx.send(self.next, left - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self>, _timer: ()) {
        ctx.send(self.next, self.hops);
    }
}

fn world_pingpong(s: &mut Suite) {
    let nodes = 10_000usize;
    let hops = s.ops(40) as u32;
    let events = nodes * (hops as usize + 1);
    let mut all_delivered = true;
    let ns = ns_per_op(|| {
        let topology = Topology::new(TopologyConfig::default(), &mut s.rng);
        let mut world: World<Bouncer, ()> = World::new(topology, s.rng.gen());
        for i in 0..nodes {
            let at = world.topology().sample_point(&mut s.rng);
            let next = NodeId::from_index((i * 7919 + 1) % nodes);
            world.spawn(at, |_, _| Bouncer { next, hops });
        }
        let started = Instant::now();
        world.run(Time::from_millis(DRAIN), |_, ()| {});
        let elapsed = started.elapsed();
        all_delivered &= world.stats().delivered == (nodes * hops as usize) as u64;
        (elapsed, events)
    });
    s.put("simnet.world.pingpong_ns_per_event", ns);
    s.check(all_delivered, "world: ping-pong lost or invented messages");
}

fn topology_latency(s: &mut Suite) {
    let nodes = 10_000usize;
    let cfg = TopologyConfig::default();
    let (min_ms, max_ms) = (cfg.latency.min_ms, cfg.latency.max_ms);
    let mut topology = Topology::new(cfg, &mut s.rng);
    for i in 0..nodes {
        let at = topology.sample_point(&mut s.rng);
        topology.register(NodeId::from_index(i), at);
    }
    let n = s.ops(1_000_000);
    let pairs: Vec<(NodeId, NodeId)> = (0..n)
        .map(|_| {
            let a = s.rng.gen_range(0..nodes);
            let b = (a + s.rng.gen_range(1..nodes)) % nodes;
            (NodeId::from_index(a), NodeId::from_index(b))
        })
        .collect();
    let mut in_range = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let mut sum = 0u64;
        for &(a, b) in &pairs {
            sum += topology.latency(black_box(a), black_box(b));
        }
        let elapsed = started.elapsed();
        let n = n as u64;
        in_range &= (n * min_ms..=n * max_ms).contains(&black_box(sum));
        (elapsed, pairs.len())
    });
    s.put("simnet.topology.latency_ns", ns);
    s.check(
        in_range,
        "topology: a latency fell outside the model's range",
    );
}

// ---------------------------------------------------------------------
// chord
// ---------------------------------------------------------------------

/// A converged ring pumped in-process: actions are delivered by the
/// benchmark in FIFO order with no latency and no `simnet`. Deadline timers
/// are dropped — every node is alive, so every reply arrives first.
struct Ring {
    refs: Vec<NodeRef>,
    nodes: Vec<Chord>,
    queue: VecDeque<(usize, NodeId, ChordMsg)>,
    msgs: u64,
    done: Vec<(ChordId, NodeRef, u32)>,
    failed: u64,
}

impl Ring {
    fn apply(&mut self, me: usize, actions: Vec<ChordAction>) {
        for a in actions {
            match a {
                ChordAction::Send { to, msg } => {
                    self.msgs += 1;
                    self.queue
                        .push_back((to.node.index(), self.refs[me].node, msg));
                }
                ChordAction::LookupDone {
                    key, owner, hops, ..
                } => self.done.push((key, owner, hops)),
                ChordAction::LookupFailed { .. } => self.failed += 1,
                _ => {}
            }
        }
    }

    fn pump(&mut self) {
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let actions = self.nodes[to].handle_message(from, msg);
            self.apply(to, actions);
        }
    }

    /// Fire `timer` on every node and deliver until quiet. Returns the
    /// messages that took.
    fn round(&mut self, timer: ChordTimer) -> u64 {
        let before = self.msgs;
        for me in 0..self.nodes.len() {
            let actions = self.nodes[me].handle_timer(timer);
            self.apply(me, actions);
        }
        self.pump();
        self.msgs - before
    }

    /// Ground truth: the first member at or after `key`, wrapping.
    fn successor(&self, key: ChordId) -> NodeRef {
        let pos = self.refs.partition_point(|r| r.id < key) % self.refs.len();
        self.refs[pos]
    }
}

fn chord_ring(s: &mut Suite) {
    let size = 1_024usize;
    let mut ids: Vec<u64> = (0..size).map(|_| s.rng.gen()).collect();
    ids.sort_unstable();
    ids.dedup();
    let refs: Vec<NodeRef> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| NodeRef::new(NodeId::from_index(i), ChordId(id)))
        .collect();
    let size = refs.len();

    let mut built = Vec::new();
    let ns = ns_per_op(|| {
        let started = Instant::now();
        built = (0..size)
            .map(|i| Chord::converged(i, &refs, ChordConfig::default()).0)
            .collect();
        (started.elapsed(), size)
    });
    s.put("chord.converged_build_us", ns / 1e3);
    let mut ring = Ring {
        refs,
        nodes: built,
        queue: VecDeque::new(),
        msgs: 0,
        done: Vec::new(),
        failed: 0,
    };

    let lookups = s.ops(20_000) / BATCHES;
    let ns = ns_per_op(|| {
        let asks: Vec<(usize, ChordId)> = (0..lookups)
            .map(|_| (s.rng.gen_range(0..size), ChordId(s.rng.gen())))
            .collect();
        let started = Instant::now();
        for &(from, key) in &asks {
            let (_, actions) = ring.nodes[from].lookup(key);
            ring.apply(from, actions);
            ring.pump();
        }
        (started.elapsed(), lookups)
    });
    s.put("chord.ring_lookup_us", ns / 1e3);
    let total = ring.done.len();
    let hops: u64 = ring.done.iter().map(|&(_, _, h)| u64::from(h)).sum();
    s.put("chord.ring_lookup_hops", hops as f64 / total.max(1) as f64);
    let all_right = total == lookups * BATCHES
        && ring.failed == 0
        && ring
            .done
            .iter()
            .all(|&(key, owner, _)| owner == ring.successor(key));
    s.check(
        all_right,
        "chord: a lookup did not end at the key's successor",
    );

    // One round repairs the whole finger table: a firing only covers
    // `fingers_per_round` fingers, and the low ones resolve locally.
    let firings = ChordId::BITS.div_ceil(ChordConfig::default().fingers_per_round.max(1));
    let mut round_msgs = 0;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        round_msgs = (0..firings)
            .map(|_| ring.round(ChordTimer::FixFingers))
            .sum();
        (started.elapsed(), size)
    });
    s.put("chord.fix_fingers_round_us", ns / 1e3);
    s.put(
        "chord.fix_fingers_round_msgs",
        round_msgs as f64 / size as f64,
    );
    let ns = ns_per_op(|| {
        let started = Instant::now();
        ring.round(ChordTimer::Stabilize);
        (started.elapsed(), size)
    });
    s.put("chord.stabilize_round_us", ns / 1e3);
    let still_converged =
        (0..size).all(|i| ring.nodes[i].successor().node == ring.refs[(i + 1) % size].node);
    s.check(
        still_converged,
        "chord: maintenance rounds broke a successor pointer",
    );
}

// ---------------------------------------------------------------------
// gossip, bloom
// ---------------------------------------------------------------------

fn object(rank: usize) -> ObjectId {
    ObjectId {
        website: WebsiteId(1),
        rank: rank as u16,
    }
}

/// A content store holding the first `n` ranks of a website.
fn store_of(n: usize) -> ContentStore {
    let mut store = ContentStore::new();
    for rank in 0..n {
        store.insert(object(rank));
    }
    store
}

fn gossip_shuffle(s: &mut Suite) {
    let summary = store_of(150).summary();
    let view = 20usize;
    let trips = s.ops(20_000) / BATCHES;
    let mut learned = true;
    let ns = ns_per_op(|| {
        let engine = |me: usize| {
            let mut c = Cyclon::new(NodeId::from_index(me), ShuffleMode::Union, 5, 0);
            c.seed((2..2 + view).map(|n| Entry::new(NodeId::from_index(n), summary.clone())));
            c
        };
        let (mut a, mut b) = (engine(0), engine(1));
        let started = Instant::now();
        for _ in 0..trips {
            // Whoever `a` picks, `b` plays the passive side.
            let Some((target, GossipMsg::ShuffleReq { entries }, _)) =
                a.start_shuffle(summary.clone(), &mut s.rng)
            else {
                learned = false;
                break;
            };
            let GossipMsg::ShuffleReply { entries } =
                b.handle_request(a.me(), entries, summary.clone(), &mut s.rng)
            else {
                learned = false;
                break;
            };
            a.handle_reply(target, entries);
        }
        let elapsed = started.elapsed();
        learned &= b.view().contains(a.me()) && a.view().len() >= view;
        (elapsed, trips)
    });
    s.put("gossip.shuffle_roundtrip_ns", ns);
    s.check(
        learned,
        "gossip: a shuffle did not spread the initiator's descriptor",
    );
}

fn bloom_filter(s: &mut Suite) {
    // Sized like the summaries peers gossip.
    let template = store_of(150).summary();
    let empty = || BloomFilter::with_params(template.bit_len(), template.hash_count());
    let keys: Vec<u64> = (0..150).map(|r| object(r).as_u64()).collect();

    let filters = s.ops(5_000) / BATCHES;
    let mut no_false_negatives = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let mut last = empty();
        for _ in 0..filters {
            let mut f = empty();
            for &k in &keys {
                f.insert(black_box(k));
            }
            last = f;
        }
        let elapsed = started.elapsed();
        no_false_negatives &= keys.iter().all(|&k| last.contains(k));
        (elapsed, filters * keys.len())
    });
    s.put("bloom.insert_ns", ns);

    // Half the probes are members, half are ranks the store never held.
    let probes: Vec<u64> = (0..s.ops(1_000_000))
        .map(|i| object(if i % 2 == 0 { i % 150 } else { 1_000 + i % 150 }).as_u64())
        .collect();
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let found = probes
            .iter()
            .filter(|&&k| template.contains(black_box(k)))
            .count();
        let elapsed = started.elapsed();
        no_false_negatives &= found >= probes.len() / 2;
        (elapsed, probes.len())
    });
    s.put("bloom.contains_ns", ns);

    let unions = s.ops(200_000) / BATCHES;
    let ns = ns_per_op(|| {
        let mut acc = empty();
        let started = Instant::now();
        for _ in 0..unions {
            acc.union(black_box(&template));
        }
        let elapsed = started.elapsed();
        no_false_negatives &= keys.iter().all(|&k| acc.contains(k));
        (elapsed, unions)
    });
    s.put("bloom.union_ns", ns);
    s.check(no_false_negatives, "bloom: a member was reported absent");
}

// ---------------------------------------------------------------------
// proto
// ---------------------------------------------------------------------

fn store_and_directory(s: &mut Suite) {
    let store = store_of(150);
    let calls = s.ops(10_000) / BATCHES;
    let mut complete = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let mut summary = store.summary();
        for _ in 1..calls {
            summary = black_box(&store).summary();
        }
        let elapsed = started.elapsed();
        complete &= store.iter().all(|o| summary.contains(o.as_u64()));
        (elapsed, calls)
    });
    s.put("proto.store.summary_us", ns / 1e3);
    s.check(complete, "store: a summary misses a stored object");

    // A petal's index: 1000 peers announcing 30 objects each.
    let peers = s.ops(1_000).max(10);
    let ranks = 300usize;
    let mut index = DirectoryIndex::new();
    let ns = ns_per_op(|| {
        index = DirectoryIndex::new();
        let started = Instant::now();
        for p in 0..peers {
            let objects = (0..30).map(|j| object((p * 7 + j) % ranks));
            index.record_objects(NodeId::from_index(p), objects, p as u64);
        }
        (started.elapsed(), peers)
    });
    s.put("proto.directory.record_us", ns / 1e3);

    let asks: Vec<(ObjectId, NodeId)> = (0..s.ops(200_000))
        .map(|_| {
            (
                object(s.rng.gen_range(0..ranks)),
                NodeId::from_index(s.rng.gen_range(0..peers)),
            )
        })
        .collect();
    let mut always_found = index.object_count() == ranks;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let found = asks
            .iter()
            .filter(|(o, asker)| index.provider_for(*o, &[*asker], &mut s.rng).is_some())
            .count();
        let elapsed = started.elapsed();
        always_found &= found == asks.len();
        (elapsed, asks.len())
    });
    s.put("proto.directory.provider_for_ns", ns);
    s.check(
        always_found,
        "directory: no provider for an object the index holds",
    );
}

fn bootstrap_registry(s: &mut Suite) {
    // The rendezvous registry at the perf ladder's top rung. Its linear
    // scans are ROADMAP item 2's; building it is quadratic for the same
    // reason, which is why this is the suite's slowest kernel.
    let members = s.ops(100_000);
    let member = |i: usize| NodeRef::new(NodeId::from_index(i), ChordId(i as u64));
    let mut registry = Bootstrap::new();
    for i in 0..members {
        registry.add(member(i));
    }
    let pairs = s.ops(2_000).max(50) / BATCHES;
    let mut fresh = members;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        for _ in 0..pairs {
            registry.add(member(fresh));
            registry.remove(NodeId::from_index(fresh - members));
            fresh += 1;
        }
        (started.elapsed(), pairs)
    });
    s.put("proto.bootstrap.add_remove_us_100k", ns / 1e3);
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let picked = (0..pairs)
            .filter(|_| registry.pick(&mut s.rng, &[]).is_some())
            .count();
        (started.elapsed(), picked.max(1))
    });
    s.put("proto.bootstrap.pick_ns_100k", ns);
    let consistent = registry.len() == members
        && registry.members().first().map(|m| m.node.index()) == Some(fresh - members);
    s.check(consistent, "bootstrap: add/remove lost or kept a member");
}

// ---------------------------------------------------------------------
// net
// ---------------------------------------------------------------------

/// One frame of each kind that dominates a live cluster's traffic.
fn wire_corpus() -> Vec<Frame> {
    let node = NodeId::from_index;
    let summary = store_of(150).summary();
    let position = DirPosition::base(WebsiteId(1), LocalityId(2));
    let holder = NodeRef::new(node(7), position.chord_id());
    let qid = QueryId::new(node(42), 9);
    vec![
        Frame::Peer(FlowerMsg::Chord(ChordMsg::Ping { nonce: 0xfeed })),
        Frame::Peer(FlowerMsg::Routed {
            key: position.chord_id(),
            payload: RoutePayload::ClientRequest {
                client: node(42),
                website: WebsiteId(1),
                locality: LocalityId(2),
                object: Some(object(17)),
                qid,
            },
            hops: 3,
        }),
        Frame::Peer(FlowerMsg::Gossip {
            inner: GossipMsg::ShuffleReq {
                entries: (10..15)
                    .map(|n| Entry::new(node(n), summary.clone()))
                    .collect(),
            },
            dir_info: Some(DirInfo::fresh(position, holder)),
        }),
        Frame::Api {
            token: 1,
            call: ApiCall::Get { object: object(17) },
        },
        Frame::ApiResp {
            token: 1,
            resp: ApiResp::Got {
                object: object(17),
                provider: ProviderKind::ContentPeer,
                elapsed_ms: 120,
            },
        },
    ]
}

fn wire_codec(s: &mut Suite) {
    let corpus = wire_corpus();
    let encoded: Vec<Vec<u8>> = corpus.iter().map(encode_frame).collect();
    let corpus_bytes: usize = encoded.iter().map(Vec::len).sum();
    let rounds = s.ops(100_000) / BATCHES;
    let frames = rounds * corpus.len();

    let ns = ns_per_op(|| {
        let started = Instant::now();
        let mut bytes = 0usize;
        for _ in 0..rounds {
            for f in &corpus {
                bytes += encode_frame(black_box(f)).len();
            }
        }
        black_box(bytes);
        (started.elapsed(), frames)
    });
    let bytes_per_frame = corpus_bytes as f64 / corpus.len() as f64;
    s.put("net.wire.encode_ns_per_frame", ns);
    let encode_mb_s = bytes_per_frame / ns * 1e3;

    let mut round_trips = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        for _ in 0..rounds {
            for (bytes, f) in encoded.iter().zip(&corpus) {
                match decode_frame(black_box(bytes)) {
                    Ok((back, used)) => round_trips &= used == bytes.len() && back == *f,
                    Err(_) => round_trips = false,
                }
            }
        }
        (started.elapsed(), frames)
    });
    s.put("net.wire.decode_ns_per_frame", ns);
    s.put("net.wire.encode_mb_s", encode_mb_s);
    s.put("net.wire.decode_mb_s", bytes_per_frame / ns * 1e3);
    s.put("net.wire.bytes_per_frame", bytes_per_frame);
    s.check(round_trips, "wire: decode(encode(frame)) != frame");
}

/// Sequential `Ping` calls against one founder node on host loopback, one
/// connection at a time. Needs a loopback interface; where there is none
/// the two metrics read 0 and a note goes to stderr — they feed no
/// end-to-end metric of this benchmark.
fn net_runtime(s: &mut Suite) {
    let pings = s.ops(2_000);
    let timeout = Duration::from_secs(2);
    let measured = (|| -> Result<Vec<u64>, String> {
        // Ask the OS for a free port, then hand it to the node.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| e.to_string())?
            .port();
        let cfg = NodeConfig {
            id: 0,
            port_base: port,
            website: WebsiteId(0),
            locality: LocalityId(0),
            founder: true,
            seed_dir: None,
            seed_locality: LocalityId(0),
            fast: true,
            run_seed: 1,
            verbose: false,
        };
        let addr = cfg.addr_of(0);
        let node = std::thread::spawn(move || NetNode::new(cfg).run().map_err(|e| e.to_string()));
        let mut up = false;
        for _ in 0..200 {
            if api_request(addr, ApiCall::Ping, timeout).is_ok() {
                up = true;
                break;
            }
            if node.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut micros = Vec::with_capacity(pings);
        let mut outcome = Ok(());
        if up {
            for _ in 0..pings {
                let started = Instant::now();
                match api_request(addr, ApiCall::Ping, timeout) {
                    Ok(ApiResp::Pong { .. }) => micros.push(started.elapsed().as_micros() as u64),
                    other => {
                        outcome = Err(format!("ping answered {other:?}"));
                        break;
                    }
                }
            }
            // `shutdown` waits out its timeout for the node to close the
            // connection, which a reader thread keeps open; keep it short.
            shutdown(addr, Duration::from_millis(100)).map_err(|e| e.to_string())?;
        }
        match node.join() {
            Ok(Ok(())) if up => outcome.map(|()| micros),
            Ok(Ok(())) => Err("node exited before answering".to_string()),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("node thread panicked".to_string()),
        }
    })();
    match measured {
        Ok(mut micros) => {
            micros.sort_unstable();
            s.put(
                "net.runtime.api_ping_p50_us",
                percentile(&micros, 50.0) as f64,
            );
            s.put(
                "net.runtime.api_ping_p99_us",
                percentile(&micros, 99.0) as f64,
            );
            s.check(micros.len() == pings, "net: a ping went unanswered");
        }
        Err(e) => {
            eprintln!("benchmark: net.runtime kernel skipped, loopback node unavailable: {e}");
            s.put("net.runtime.api_ping_p50_us", 0.0);
            s.put("net.runtime.api_ping_p99_us", 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------

fn workload_generators(s: &mut Suite) {
    let zipf = Zipf::new(300, 0.8);
    let draws = s.ops(2_000_000) / BATCHES;
    let mut in_range = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let mut top = 0usize;
        for _ in 0..draws {
            top = top.max(zipf.sample(&mut s.rng));
        }
        let elapsed = started.elapsed();
        in_range &= black_box(top) < zipf.len();
        (elapsed, draws)
    });
    s.put("workload.zipf_sample_ns", ns);
    s.check(in_range, "zipf: a sample fell outside the catalogue");

    // One simulated hour of the perf ladder's churn at its top rung.
    let cfg = ChurnConfig {
        target_population: s.ops(100_000),
        mean_uptime_ms: 20 * 60_000,
        horizon_ms: 3_600_000,
        leave_probability: 0.0,
    };
    let initial = 120;
    let expected = cfg.target_population as f64 * 3.0;
    let mut plausible = true;
    let ns = ns_per_op(|| {
        let started = Instant::now();
        let sessions = generate_sessions(&cfg, initial, &mut s.rng);
        let elapsed = started.elapsed();
        let arrivals = (sessions.len() - initial) as f64;
        plausible &= (arrivals / expected - 1.0).abs() < 0.05
            && sessions[initial..]
                .windows(2)
                .all(|w| w[0].arrival_ms <= w[1].arrival_ms)
            && sessions.iter().all(|x| x.arrival_ms < cfg.horizon_ms);
        (elapsed, 1)
    });
    s.put("workload.generate_sessions_ms_100k", ns / 1e6);
    s.check(
        plausible,
        "churn: the session schedule is not a Poisson stream over the horizon",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_reports_every_name_and_passes_its_checks() {
        let report = run(7, true);
        let names: Vec<&str> = report.values.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, NAMES.to_vec());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for (name, v) in &report.values {
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
        let back = Report::from_json(&Json::parse(&report.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.values, report.values);
    }

    #[test]
    fn wire_corpus_round_trips() {
        for f in wire_corpus() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), (f, bytes.len()));
        }
    }
}

//! Deterministic replay: a sans-io machine is a pure function of its
//! construction blueprint, its host RNG and its input sequence.
//!
//! The simulator runs a scripted scenario with a **tapped** client: the
//! [`SimHost`](flower_cdn::SimHost) tap records every `(now, input,
//! outputs)` exchange the machine performs — for Flower-CDN a directory
//! failure and the client's §5.2.2 replacement take-over, for Squirrel the
//! loss of a home node and of a listed downloader. A scripted harness then
//! rebuilds the machine from scratch — the recorded peer's own `PeerCtx`,
//! the same `machine_rng` derivation — and feeds it the recorded inputs at
//! the recorded times, lending it through `Fx::new` a plain registry
//! rebuilt from the world's t=0 members. Every output stream must match
//! the recording byte-for-byte (compared via `Debug`).
//!
//! This is the property that lets one protocol core run under both the
//! simulator and the networked node: nothing but its inputs and what its
//! host lends it influences what the machine emits. The only change to
//! the lent registry the harness scripts is the engine's own removal of
//! the failed peers at the failure point; what the machine registers or
//! deregisters itself, it does to the registry it is lent.
//!
//! The recorded streams are also **pinned**: an FNV-1a digest over every
//! exchange — each `Event` the machine emits, trace-only ones included,
//! since a sink listens — is checked in debug and in release. A refactor
//! of `crates/proto` that changes a message, a timer, an RNG draw, an
//! event or its fields, or the order of outputs within one `handle` call
//! moves a digest. So does one that only renames a variant or a field,
//! because the digest hashes `Debug` text. A re-record shows the old and
//! the new stream (dump `stream` in `replay()` on both commits) equal line
//! for line once what the change renamed or added or removed is mapped or
//! stripped; CHANGES.md lists each re-record and its proof.

use std::fmt::Debug;
use std::rc::Rc;

use flower_cdn::peer::ProtocolEvent;
use flower_cdn::squirrel::{object_key, peer_ring_id, SquirrelPeer};
use flower_cdn::{
    machine_rng, Bootstrap, Event, FlowerPeer, FlowerSim, Fx, Lent, Machine, Output, PeerCtx,
    SimDriver, SimParams, SquirrelMode, SquirrelSim, TapEntry, TapLog,
};
use simnet::{LocalityId, NodeId, Time, TraceEvent, TraceSink};
use workload::{ObjectId, WebsiteId};

const FLOWER_STREAM_FNV: u64 = 0x2746_db78_3f1c_9b32;
const SQUIRREL_STREAM_FNV: u64 = 0xe5e2_f230_05cd_5db4;

/// One website under test, `localities` initial ring members per website,
/// no Poisson arrivals and no natural deaths: every event in the run is
/// either scripted by the test or emitted by the machines themselves.
fn scripted_params(seed: u64, localities: u16) -> SimParams {
    let horizon = 2 * 3_600_000;
    let mut p = SimParams::quick(10, horizon);
    p.seed = seed;
    p.population = 0; // arrival rate 0: no unscripted peers
    p.catalog.websites = 4;
    p.catalog.active_websites = 1;
    p.catalog.objects_per_site = 40;
    p.topology.localities = localities;
    p.mean_uptime_ms = horizon * 1_000;
    p.query_period_ms = 120_000;
    p.gossip_period_ms = 600_000;
    p
}

/// Re-feed the recorded inputs to `machine` (node `me`, fresh RNG, lent
/// `registry`) and demand the recorded outputs back; `before` mirrors what
/// the engine did to the registry by the time of each exchange. Returns
/// the FNV-1a digest of the recorded stream.
fn replay<M: Machine>(
    entries: &[TapEntry<M>],
    machine: &mut M,
    seed: u64,
    me: NodeId,
    locality: LocalityId,
    registry: Bootstrap,
    mut before: impl FnMut(Time, &mut Bootstrap),
) -> u64
where
    M::Msg: Debug,
    M::Timer: Debug,
    M::Api: Debug,
    M::ApiResp: Debug,
{
    let mut rng = machine_rng(seed, me);
    let mut lent = Lent {
        registry,
        ..Lent::default()
    };
    let mut stream = String::new();
    for (i, e) in entries.iter().enumerate() {
        before(e.now, &mut lent.registry);
        lent.out.clear();
        let fx = Fx::new(e.now, me, locality, &mut rng, true, &mut lent);
        machine.handle(fx, e.input.clone());
        let recorded = format!("{} {:?} {:?}\n", e.now.as_millis(), e.input, e.outputs);
        assert_eq!(
            format!("{} {:?} {:?}\n", e.now.as_millis(), e.input, lent.out),
            recorded,
            "exchange {i} of {} diverged",
            entries.len(),
        );
        stream.push_str(&recorded);
    }
    bloom::hash::fnv1a(stream.as_bytes())
}

/// A sink that keeps nothing: attaching it is what makes the machines emit
/// their trace-only events into the tapped stream.
struct Discard;

impl TraceSink for Discard {
    fn event(&mut self, _at: Time, _ev: &TraceEvent) {}
}

/// A registry presenting `members` in their original order.
fn registry_of(members: &[chord::NodeRef]) -> Bootstrap {
    let mut registry = Bootstrap::new();
    for m in members {
        registry.add(*m);
    }
    registry
}

#[test]
fn tapped_flower_client_replays_byte_identically() {
    let seed = 0xD1CE;
    let mut sim = FlowerSim::new(scripted_params(seed, 1));
    // With a sink attached the machines emit their trace-only events too.
    sim.add_trace_sink(Discard);

    // Snapshot the rendezvous registry before anything runs: the replay
    // registry must present the same members in the same order.
    let initial_members = sim.bootstrap_registry().members().to_vec();
    assert_eq!(initial_members.len(), 4, "one directory per website");

    let log: TapLog<FlowerPeer> = TapLog::default();
    let c = sim.spawn_client_tapped(WebsiteId(0), LocalityId(0), Rc::clone(&log));

    // Phase 1: join the petal, issue queries, gossip, keepalive.
    let fail_at = Time::from_mins(30);
    sim.run_until(fail_at);
    let victim = sim
        .directories()
        .into_iter()
        .find(|(_, p, _)| p.website == WebsiteId(0))
        .map(|(id, _, _)| id)
        .expect("website 0 directory alive");
    assert_ne!(victim, c);

    // Phase 2: kill the directory. The engine prunes it from the world's
    // registry (rendezvous liveness checking) — the one change to the lent
    // registry the replay harness must script.
    sim.fail_peer(victim);
    sim.run_until(Time::from_mins(75));

    // The client was the petal's only content peer, so it must be the
    // replacement directory — the recording covers the whole recovery arc.
    let peer = sim.world().node(c).expect("client alive");
    assert!(
        peer.is_directory(),
        "sole content peer must take over the failed directory"
    );
    let blueprint: PeerCtx = peer.peer_ctx().clone();
    let entries = log.borrow();
    let recorded_replacement = entries.iter().any(|e| {
        e.outputs.iter().any(|o| {
            matches!(
                o,
                Output::Event(Event::EnteredDRing {
                    replacement: true,
                    ..
                })
            )
        })
    });
    assert!(
        recorded_replacement,
        "the tap must have recorded the §5.2.2 take-over"
    );

    // --- Scripted replay: fresh machine, fresh RNG, fresh registry. ---
    let mut machine = FlowerPeer::new_client(blueprint, c, LocalityId(0));
    let mut fail_applied = false;
    let digest = replay(
        &entries,
        &mut machine,
        seed,
        c,
        LocalityId(0),
        registry_of(&initial_members),
        |now, registry| {
            // All phase-1 events fire at or before `fail_at`.
            if !fail_applied && now > fail_at {
                registry.remove(victim);
                fail_applied = true;
            }
        },
    );
    assert!(fail_applied, "replay never crossed the failure point");
    assert!(
        machine.is_directory(),
        "replayed machine must end in the recorded role"
    );
    assert_eq!(
        digest, FLOWER_STREAM_FNV,
        "the Flower-CDN client emits a different stream: {digest:#018x}"
    );
}

#[test]
fn tapped_squirrel_client_replays_byte_identically() {
    let seed = 0x5C1D;
    let mut sim = SquirrelSim::new(scripted_params(seed, 3), SquirrelMode::Directory);
    sim.add_trace_sink(Discard);
    let initial_members = sim.bootstrap_registry().members().to_vec();
    assert_eq!(initial_members.len(), 12, "one ring member per couple");

    let log: TapLog<SquirrelPeer> = TapLog::default();
    let c = sim.spawn_client_tapped(WebsiteId(0), LocalityId(0), Rc::clone(&log));
    let mates: Vec<NodeId> = (1..3)
        .map(|l| sim.spawn_client(WebsiteId(0), LocalityId(l)))
        .collect();

    // Phase 1: join the ring, query; the three clients and website 0's
    // initial members list each other as downloaders at the home nodes.
    let fail_at = Time::from_mins(20);
    sim.run_until(fail_at);

    // Phase 2: kill the home node of the hottest object of website 0 that
    // a third party homes, and one listed downloader. The client's later
    // queries meet an unanswered home (re-route, or origin) and a fetch
    // timeout (ask the home again).
    let home = (0..40)
        .filter_map(|rank| sim.ring_owner_of(object_key(ObjectId::from_u64(rank))))
        .find(|n| *n != c && !mates.contains(n))
        .expect("a third-party home node");
    sim.fail_peer(home);
    sim.fail_peer(mates[0]);
    sim.run_until(Time::from_mins(60));

    let peer = sim.world().node(c).expect("client alive");
    let blueprint: PeerCtx = peer.peer_ctx().clone();
    let entries = log.borrow();
    let reported = |want: ProtocolEvent| {
        entries
            .iter()
            .flat_map(|e| &e.outputs)
            .any(|o| matches!(o, Output::Event(e) if e.counted() == Some(want)))
    };
    assert!(
        reported(ProtocolEvent::DirQueryTimeout) && reported(ProtocolEvent::FetchTimeout),
        "the tap must have recorded both losses"
    );

    // The client joined through a registry member the engine drew; its
    // first exchange sends that seed the join request.
    let seed_node = entries[0]
        .outputs
        .iter()
        .find_map(|o| match o {
            Output::Send { to, .. } => Some(*to),
            _ => None,
        })
        .expect("a join request");
    let join_seed = chord::NodeRef::new(seed_node, peer_ring_id(seed_node));

    let mut machine = SquirrelPeer::arriving(blueprint, SquirrelMode::Directory, c, join_seed);
    let mut fail_applied = false;
    let digest = replay(
        &entries,
        &mut machine,
        seed,
        c,
        LocalityId(0),
        registry_of(&initial_members),
        |now, registry| {
            // A Squirrel peer reads the registry only to re-join after losing
            // the ring, which this script never causes; the engine's pruning
            // is mirrored all the same.
            if !fail_applied && now > fail_at {
                registry.remove(home);
                registry.remove(mates[0]);
                fail_applied = true;
            }
        },
    );
    assert!(fail_applied, "replay never crossed the failure point");
    assert!(machine.is_joined());
    assert_eq!(
        digest, SQUIRREL_STREAM_FNV,
        "the Squirrel client emits a different stream: {digest:#018x}"
    );
}

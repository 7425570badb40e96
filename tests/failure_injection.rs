//! Targeted failure injection against the §5 maintenance protocols,
//! driven through the `chaos` scenario engine: scripted directory
//! assassination, graceful leave hand-over, locality partitions that heal,
//! determinism under chaos, and the maintenance ablations.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use flower_cdn::experiments::MaintenanceVariant;
use flower_cdn::invariants::InvariantConfig;
use flower_cdn::ownership::Ownership;
use flower_cdn::tags::Pos;
use flower_cdn::{
    run_system_with, FaultAction, FlowerSim, InvariantChecker, ResilienceTracker, Scenario,
    SimDriver, SimParams, System,
};
use simnet::{NodeId, Time, TraceEvent, TraceSink};

mod golden;

fn params(seed: u64) -> SimParams {
    let horizon = 3_600_000;
    let mut p = SimParams::quick(200, horizon);
    p.seed = seed;
    p.mean_uptime_ms = horizon * 4; // light natural churn: we inject our own
    p.query_period_ms = 60_000;
    p.gossip_period_ms = horizon / 8;
    p.catalog.websites = 4;
    p.catalog.active_websites = 4;
    p.catalog.objects_per_site = 120;
    p
}

#[test]
fn scripted_assassination_is_replaced_and_served() {
    // Kill the whole directory layer at 20 min via the scenario engine and
    // let the §5.2.2 claim protocol repair it. The tracker measures the
    // repair from the trace stream alone: replacements installed, and
    // replacements that went on to serve a query (finite MTTR).
    let mut sim = FlowerSim::new(params(17));
    sim.apply_scenario(&Scenario::new().at(
        20 * 60_000,
        FaultAction::KillDirectories {
            website: None,
            count: None,
        },
    ));
    let tracker = ResilienceTracker::new(60_000);
    sim.add_trace_sink(tracker.clone());
    let result = sim.run();

    let s = tracker.summary();
    assert!(
        !s.recoveries.is_empty(),
        "the kill wave should hit tracked directories"
    );
    assert!(
        s.replaced() >= s.recoveries.len() / 2,
        "only {}/{} positions re-occupied",
        s.replaced(),
        s.recoveries.len()
    );
    assert!(
        s.served() > 0,
        "at least one replacement should serve a query"
    );
    let ttr = s.mean_ttr_ms().expect("served > 0 implies a TTR");
    assert!(ttr > 0.0 && ttr.is_finite(), "mean TTR {ttr} ms");
    assert!(result.replacements > 0, "repairs must have been recorded");
}

/// The ownership fold the checker and the tracker read, as a sink.
#[derive(Clone, Default)]
struct Folded(Rc<RefCell<Ownership>>);

impl TraceSink for Folded {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        self.0.borrow_mut().fold(at, ev);
    }
}

#[test]
fn ownership_fold_matches_the_machines() {
    // The machines hold some positions twice for a while (§5.2.2's
    // replacement window), so the fold keeps every holder; and every
    // stand-down is traced, so it keeps no ghost.
    let mut sim = FlowerSim::new(golden::params());
    let folded = Folded::default();
    sim.add_trace_sink(folded.clone());
    let scenario = golden::SCENARIO.parse::<Scenario>();
    sim.apply_scenario(&scenario.expect("scenario parses"));
    for mins in (5..=golden::HORIZON_MS / 60_000).step_by(5) {
        sim.run_until(Time::from_mins(mins));
        let machines: BTreeSet<(NodeId, Pos)> = (sim.directories().into_iter())
            .map(|(node, at, _)| {
                let (ws, loc) = (u64::from(at.website.0), u64::from(at.locality.0));
                (node, (ws, loc, u64::from(at.instance)))
            })
            .collect();
        let fold: BTreeSet<(NodeId, Pos)> = folded.0.borrow().held().collect();
        assert_eq!(fold, machines, "at {mins} min");
    }
}

#[test]
fn graceful_leave_hands_over_the_index() {
    let mut sim = FlowerSim::new(params(23));
    sim.run_until(Time::from_mins(20));
    let dirs = sim.directories();
    let (victim, pos, load) = *dirs
        .iter()
        .max_by_key(|(_, _, load)| *load)
        .expect("at least one directory");
    assert!(load > 1, "need a loaded directory (got {load})");
    // Voluntary leave → Promote with snapshot (§5.2.2).
    sim.leave_peer(victim);
    sim.run_until(Time::from_mins(25));
    let after = sim.directories();
    let heir = after
        .iter()
        .find(|(_, p, _)| p.chord_id() == pos.chord_id());
    let (heir_id, _, heir_load) = heir.expect("position re-occupied after hand-over");
    assert_ne!(*heir_id, victim);
    assert!(
        *heir_load > 0,
        "the heir should inherit the index snapshot, load = {heir_load}"
    );
}

#[test]
fn healed_partition_queries_terminate() {
    // Cut locality 1 off from the rest of the world for 10 minutes.
    // Queries from the partitioned locality must not hang on unreachable
    // D-ring peers: the route retry/backoff ladder gives up within the
    // checker's 120 s query deadline and falls back to the origin. The
    // invariant checker asserts exactly that (plus directory uniqueness).
    let mut sim = FlowerSim::new(params(41));
    let partition_ms = 10 * 60_000;
    sim.apply_scenario(&Scenario::new().at(
        15 * 60_000,
        FaultAction::Partition {
            locality: 1,
            heal_after_ms: Some(partition_ms),
        },
    ));
    // An overlap minted while the holder is unreachable cannot resolve
    // before the partition heals and a few position-check rounds pass, so
    // the uniqueness grace must cover the partition window.
    let checker = InvariantChecker::with_config(InvariantConfig {
        replacement_grace_ms: partition_ms + 5 * 60_000,
    });
    sim.add_trace_sink(checker.clone());
    let result = sim.run();
    assert!(result.stats.queries > 100, "workload too thin");
    assert!(
        checker.queries_issued() > 0,
        "the checker must have observed the run"
    );
    checker.assert_clean();
}

#[test]
fn chaos_runs_are_trace_identical_across_reruns() {
    // Same seed + same scenario ⇒ byte-identical trace streams. This pins
    // the determinism contract of the chaos layer: victim selection,
    // partitions and link faults must draw only from their own RNG
    // streams, never perturbing the simulation's.
    let dir = std::env::temp_dir().join(format!("flower_chaos_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = Scenario::new()
        .at(
            10 * 60_000,
            FaultAction::KillDirectories {
                website: None,
                count: Some(4),
            },
        )
        .at(
            18 * 60_000,
            FaultAction::Partition {
                locality: 0,
                heal_after_ms: Some(5 * 60_000),
            },
        )
        .at(
            26 * 60_000,
            FaultAction::LinkFault {
                loss: 0.05,
                duplicate: 0.01,
                jitter_ms: 20,
                for_ms: Some(5 * 60_000),
            },
        )
        .at(
            34 * 60_000,
            FaultAction::JoinWave {
                count: 20,
                website: Some(0),
                lifetime_ms: None,
            },
        );
    let run = |path: &std::path::Path| {
        let mut p = params(67);
        p.population = 80;
        p.horizon_ms = 40 * 60_000;
        let mut sim = FlowerSim::new(p);
        sim.apply_scenario(&scenario);
        let w = cdn_metrics::JsonlTraceWriter::create(path).expect("create trace file");
        sim.add_trace_sink(w);
        sim.run()
    };
    let pa = dir.join("a.jsonl");
    let pb = dir.join("b.jsonl");
    let a = run(&pa);
    let b = run(&pb);
    assert_eq!(a.records.len(), b.records.len());
    assert_eq!(a.stats.hits, b.stats.hits);
    let ta = std::fs::read(&pa).expect("trace a");
    let tb = std::fs::read(&pb).expect("trace b");
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "chaos reruns must produce byte-identical traces");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn maintenance_ablation_full_beats_no_push() {
    // Without pushes, replacement directories can never rebuild their
    // index from the petal — the paper's §6.2.1 recovery argument.
    let base = {
        let horizon = 3_600_000;
        let mut p = SimParams::quick(200, horizon);
        p.mean_uptime_ms = horizon / 4; // heavy churn: recovery matters
        p.query_period_ms = p.mean_uptime_ms / 12;
        p.gossip_period_ms = p.mean_uptime_ms;
        p.catalog.websites = 6;
        p.catalog.active_websites = 3;
        p.catalog.objects_per_site = 150;
        p.seed = 29;
        p
    };
    let run = |variant: MaintenanceVariant| {
        let mut params = base.clone();
        variant.apply(&mut params);
        run_system_with(System::FlowerCdn, params, |_| {})
    };
    let full = run(MaintenanceVariant::Full);
    let no_push = run(MaintenanceVariant::NoPush);
    assert!(
        full.stats.hit_ratio() > no_push.stats.hit_ratio(),
        "full {:.3} should beat no-push {:.3}",
        full.stats.hit_ratio(),
        no_push.stats.hit_ratio()
    );
}

#[test]
fn petalup_splits_bound_directory_load() {
    let horizon = 3_600_000u64;
    let mut p = SimParams::quick(300, horizon);
    p.seed = 37;
    p.catalog.websites = 1;
    p.catalog.active_websites = 1;
    p.catalog.objects_per_site = 200;
    p.directory_capacity = 6;
    p.mean_uptime_ms = horizon; // let petals grow
    let capacity = p.directory_capacity;
    let mut sim = FlowerSim::new(p);
    sim.run_until(Time::from_millis(horizon));
    let loads = sim.directory_loads();
    let max_instance = loads.iter().map(|(p, _)| p.instance).max().unwrap_or(0);
    assert!(
        max_instance >= 1,
        "the single crowded petal must have split at least once"
    );
    // Loads may transiently exceed the cap by the one query that triggers
    // a split, but must stay in its vicinity.
    let max_load = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
    assert!(
        max_load <= capacity * 2,
        "load {max_load} runs far beyond the capacity {capacity}"
    );
    let result = sim.finish();
    assert!(result.splits >= 1);
}

#[test]
fn bounded_caches_degrade_gracefully_and_stay_consistent() {
    use flower_cdn::peer::ProtocolEvent;
    use flower_cdn::StorePolicy;
    let horizon = 3_600_000u64;
    let mk = |policy| {
        let mut p = SimParams::quick(200, horizon);
        p.seed = 55;
        p.mean_uptime_ms = horizon / 3;
        p.query_period_ms = p.mean_uptime_ms / 16;
        p.gossip_period_ms = p.mean_uptime_ms;
        p.catalog.websites = 4;
        p.catalog.active_websites = 2;
        p.catalog.objects_per_site = 120;
        p.store_policy = policy;
        p
    };
    let unlimited = FlowerSim::new(mk(StorePolicy::Unlimited)).run();
    let tiny = FlowerSim::new(mk(StorePolicy::Lru { capacity: 3 })).run();
    assert!(
        unlimited.stats.hit_ratio() >= tiny.stats.hit_ratio(),
        "unlimited {:.3} must not lose to a 3-object cache {:.3}",
        unlimited.stats.hit_ratio(),
        tiny.stats.hit_ratio()
    );
    // With index retraction in place, tiny caches must not flood the
    // system with stale redirects. The residual misses come from gossip
    // summaries — Bloom filters cannot retract and refresh only at the
    // next shuffle — so the bound is loose but still diagnostic: without
    // retraction this rate triples.
    let event = |e: ProtocolEvent| tiny.events.get(&e).copied().unwrap_or(0);
    let misses = event(ProtocolEvent::FetchMiss);
    assert!(
        (misses as f64) < 0.15 * tiny.stats.queries as f64,
        "{misses} stale-redirect misses over {} queries",
        tiny.stats.queries
    );
    // And the tiny cache still achieves something (Zipf head fits).
    assert!(
        tiny.stats.hit_ratio() > 0.02,
        "tiny-cache hit {:.3}",
        tiny.stats.hit_ratio()
    );
    // The only digit-for-digit pin of the `StorePolicy::Lru` path (the
    // goldens and the benchmark run `Unlimited`), the same in debug and
    // release. Re-record only with a change that means to move what an
    // LRU run does — last, Chord's finger repair asking the incumbent
    // first, which halved `messages_delivered` (was 430 095) and shifted
    // the other four by a few units.
    assert_eq!(
        (
            tiny.stats.queries,
            tiny.stats.hits,
            tiny.messages_delivered,
            misses,
            event(ProtocolEvent::FetchTimeout)
        ),
        (3_648, 1_494, 202_644, 403, 625),
        "LRU run moved: (queries, hits, messages_delivered, FetchMiss, FetchTimeout)"
    );
}

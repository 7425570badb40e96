//! Golden determinism pins for both engines through the chaos and gauge
//! paths: the exact summary row, event count, diagnostic-event map, gauge
//! series, `records` line (count and FNV-1a over every `QueryRecord` in
//! order) and per-class message sends and wire bytes of one seeded run per
//! system, and of Squirrel's home-store scheme. A refactor or a pure optimisation
//! must reproduce them digit for digit. They were last re-recorded when
//! Chord's finger repair began asking the incumbent finger before
//! resolving a slot, which moved the ring's traffic — and with it every
//! number here — on purpose. Since then only the `bytes=` of `fetch_ok`,
//! `fetch_miss`, `redirect`, `push` and `sq_answer` moved, when replies
//! stopped echoing the object their query names and `Push` lost its
//! `full` byte.
//!
//! A second, traced run of the Flower-CDN and the Squirrel configuration
//! pins what the machines themselves trace: the count of every custom
//! event tag and an FNV-1a over those events' JSONL lines, in order, from
//! the t = 0 positions replayed into the sink to the horizon. The Flower-CDN
//! FNV was re-recorded once, when a failed claim route began to trace the
//! claim's position and claimer: the two claim `route_failed` lines gained
//! those fields and every other line stayed byte-identical. A third traced
//! run, of one crowded website with small directories, pins PetalUp's
//! trace shapes (`petal_split`, `promote`, `instance_forward`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use cdn_metrics::JsonlTraceWriter;
use flower_cdn::{FlowerSim, Scenario, SimDriver, SimParams, SquirrelMode, SquirrelSim};
use simnet::{Time, TraceEvent, TraceSink};

const HORIZON_MS: u64 = 40 * 60_000;

/// One line per dispatcher arm (peer-targeted and environment faults,
/// with and without their optional keys), spread over the 40 minutes.
const SCENARIO: &str = "\
at 4m kill-directories website=0
at 7m kill-random count=5 locality=2
at 10m join-wave count=12 website=1 lifetime=8m
at 12m join-wave count=6
at 14m leave-wave count=6
at 16m partition locality=3 heal-after=3m
at 22m link-fault loss=0.05 duplicate=0.02 jitter=30ms for=4m
at 28m origin-brownout extra=400ms website=0 for=5m
at 33m kill-directories count=4
";

fn params() -> SimParams {
    let mut p = SimParams::quick(120, HORIZON_MS);
    p.seed = 0x601D;
    // A quarter of the sessions end gracefully, so the churn schedule
    // exercises the `Leave` control event as well as `Fail`.
    p.leave_probability = 0.25;
    p
}

/// Set a simulation up the way the harnesses do (profiler, gauges, then
/// scenario), run it to the horizon and render everything the test pins as
/// text. Profiling only times phases, so every other line is what an
/// unprofiled run produces; the `msg` lines are its per-class send counts
/// and wire bytes.
fn fingerprint<D: SimDriver>(mut sim: D, events_processed: impl Fn(&D) -> u64) -> String {
    sim.enable_profiling();
    sim.enable_gauges(5 * 60_000);
    sim.apply_scenario(&SCENARIO.parse::<Scenario>().expect("scenario parses"));
    sim.run_until(Time::from_millis(HORIZON_MS));
    let events = events_processed(&sim);
    let result = sim.finish();
    let mut out = String::new();
    writeln!(out, "summary {}", result.summary().csv_fields().join(",")).unwrap();
    writeln!(out, "events_processed {events}").unwrap();
    writeln!(out, "events {:?}", result.events).unwrap();
    // Every record, in `RunResult::records` order: whenever the engine
    // folds reports, the sequence it hands back must stay this one.
    let mut lines = String::new();
    for r in &result.records {
        writeln!(lines, "{r:?}").unwrap();
    }
    let fnv = bloom::hash::fnv1a(lines.as_bytes());
    writeln!(out, "records n={} fnv={fnv:016x}", result.records.len()).unwrap();
    for name in result.gauges.names() {
        let points = result.gauges.series(name).expect("named series");
        let (t, v) = *points.last().expect("non-empty series");
        writeln!(out, "gauge {name} n={} last=({t},{v})", points.len()).unwrap();
    }
    let perf = result.perf.expect("profiled run");
    for m in &perf.messages {
        writeln!(out, "msg {} count={} bytes={}", m.class, m.count, m.bytes).unwrap();
    }
    // How often each timer class fired: a deadline renamed, merged or
    // armed a different number of times shows here.
    for p in &perf.phases {
        if let Some(class) = p.path.strip_prefix("timer/").filter(|c| !c.contains('/')) {
            writeln!(out, "timer {class} count={}", p.count).unwrap();
        }
    }
    out
}

const FLOWER_GOLDEN: &str = "\
summary 7427,4148,0.558503,512.651,134.774,1.416,403002,54.262,213,0,128
events_processed 716435
events {FetchTimeout: 227, DirQueryTimeout: 159, RouteFailure: 22, AckTimeout: 242, ClaimStarted: 429, DirNoProvider: 1102, NoDirInfo: 84, Demoted: 2}
records n=7427 fnv=eb53cc5ab1fcc3d8
gauge dring_size n=8 last=(2400000,54)
gauge events_per_sim_sec n=8 last=(2400000,387.99666666666667)
gauge instance_depth_max n=8 last=(2400000,0)
gauge petal_size_max n=8 last=(2400000,5)
gauge petal_size_mean n=8 last=(2400000,2.037037037037037)
gauge population n=8 last=(2400000,128)
gauge queue_depth n=8 last=(2400000,785)
gauge rate/chord_find_next n=8 last=(2400000,76.41)
gauge rate/chord_find_next_reply n=8 last=(2400000,76.44)
gauge rate/chord_get_neighbors n=8 last=(2400000,11.296666666666667)
gauge rate/chord_neighbors_reply n=8 last=(2400000,11.29)
gauge rate/chord_notify n=8 last=(2400000,11.29)
gauge rate/chord_ping n=8 last=(2400000,11.11)
gauge rate/chord_pong n=8 last=(2400000,11.106666666666667)
gauge rate/chord_route n=8 last=(2400000,0.78)
gauge rate/chord_route_result n=8 last=(2400000,0.36)
gauge rate/claim_denied n=8 last=(2400000,0.06666666666666667)
gauge rate/claim_granted n=8 last=(2400000,0.06666666666666667)
gauge rate/dead_peer_report n=7 last=(2400000,0.06333333333333334)
gauge rate/dir_ack n=8 last=(2400000,1.1233333333333333)
gauge rate/dir_query n=8 last=(2400000,1.5433333333333332)
gauge rate/dring_route n=8 last=(2400000,0.3466666666666667)
gauge rate/fetch n=8 last=(2400000,2.546666666666667)
gauge rate/fetch_ok n=8 last=(2400000,2.5433333333333334)
gauge rate/gossip n=8 last=(2400000,0.7433333333333333)
gauge rate/keepalive n=8 last=(2400000,0.65)
gauge rate/promote n=8 last=(2400000,0.02)
gauge rate/push n=8 last=(2400000,0.47333333333333333)
gauge rate/redirect n=8 last=(2400000,1.7266666666666666)
gauge rate/route_failed n=3 last=(2400000,0.0033333333333333335)
gauge rate/routed n=8 last=(2400000,0.3333333333333333)
gauge rate/sibling_query n=8 last=(2400000,0.63)
msg chord_find_next count=133675 bytes=5347000
msg chord_find_next_reply count=129813 bytes=4283813
msg chord_get_neighbors count=24316 bytes=778112
msg chord_neighbors_reply count=23875 bytes=4286543
msg chord_notify count=23878 bytes=573072
msg chord_ping count=23041 bytes=368656
msg chord_pong count=22759 bytes=364144
msg chord_route count=2721 bytes=119724
msg chord_route_result count=1104 bytes=39744
msg claim_denied count=224 bytes=6944
msg claim_granted count=219 bytes=6789
msg dead_peer_report count=157 bytes=2355
msg dir_ack count=2181 bytes=93783
msg dir_query count=2826 bytes=88598
msg dring_route count=1085 bytes=38864
msg fetch count=4390 bytes=83410
msg fetch_ok count=4182 bytes=17192202
msg gossip count=1491 bytes=937635
msg keepalive count=1308 bytes=19620
msg promote count=42 bytes=6180
msg push count=1131 bytes=50373
msg redirect count=3118 bytes=403784
msg route_failed count=2 bytes=30
msg routed count=999 bytes=39797
msg sibling_query count=1274 bytes=141964
timer chord_fix_fingers count=47003
timer query count=8444
timer origin_done count=3282
timer chord_check_predecessor count=23514
timer chord_stabilize count=23367
timer chord_ping_deadline count=22963
timer chord_stabilize_deadline count=24243
timer chord_lookup_step count=133242
timer chord_route_deadline count=1196
timer route_deadline count=3422
timer dir_ack_deadline count=2422
timer dir_sweep count=4999
timer chord_stabilize_once count=434
timer keepalive count=1435
timer gossip count=1402
timer fetch_deadline count=4379
timer gossip_deadline count=974
timer position_check count=938
timer claim_deadline count=418
";

const SQUIRREL_GOLDEN: &str = "\
summary 6647,3901,0.586881,2112.448,226.091,2.523,852123,128.197,0,0,126
events_processed 1510575
events {FetchMiss: 20, FetchTimeout: 768, DirQueryTimeout: 432, RouteFailure: 32, DirNoProvider: 2632, AnsweredByNonOwner: 581}
records n=6647 fnv=841fb6ef9ce96919
gauge events_per_sim_sec n=8 last=(2400000,666.4533333333334)
gauge homed_objects n=8 last=(2400000,422)
gauge population n=8 last=(2400000,126)
gauge queue_depth n=8 last=(2400000,956)
gauge rate/chord_find_next n=8 last=(2400000,102.77666666666667)
gauge rate/chord_find_next_reply n=8 last=(2400000,102.64333333333333)
gauge rate/chord_get_neighbors n=8 last=(2400000,28.983333333333334)
gauge rate/chord_neighbors_reply n=8 last=(2400000,28.96)
gauge rate/chord_notify n=8 last=(2400000,28.283333333333335)
gauge rate/chord_ping n=8 last=(2400000,28.033333333333335)
gauge rate/chord_pong n=8 last=(2400000,28.003333333333334)
gauge rate/chord_route n=8 last=(2400000,9.3)
gauge rate/chord_route_result n=8 last=(2400000,3.0966666666666667)
gauge rate/fetch n=8 last=(2400000,2.18)
gauge rate/fetch_miss n=8 last=(2400000,0.01)
gauge rate/fetch_ok n=8 last=(2400000,2.1766666666666667)
gauge rate/sq_answer n=8 last=(2400000,3.34)
gauge rate/sq_query n=8 last=(2400000,3.3433333333333333)
gauge ring_size n=8 last=(2400000,126)
msg chord_find_next count=264470 bytes=10578800
msg chord_find_next_reply count=257623 bytes=8500359
msg chord_get_neighbors count=61164 bytes=1957248
msg chord_neighbors_reply count=59996 bytes=10758300
msg chord_notify count=58553 bytes=1405272
msg chord_ping count=56808 bytes=908928
msg chord_pong count=56107 bytes=897712
msg chord_route count=19410 bytes=854040
msg chord_route_result count=6903 bytes=248508
msg fetch count=4695 bytes=89205
msg fetch_miss count=20 bytes=300
msg fetch_ok count=3918 bytes=16106898
msg sq_answer count=7541 bytes=159544
msg sq_query count=7675 bytes=246565
timer chord_fix_fingers count=117972
timer query count=9036
timer chord_check_predecessor count=58759
timer chord_stabilize count=58791
timer origin_done count=2746
timer chord_stabilize_once count=1066
timer chord_lookup_step count=263609
timer chord_ping_deadline count=56619
timer chord_stabilize_deadline count=60982
timer sq_answer_deadline count=7630
timer chord_route_deadline count=7515
timer fetch_deadline count=4683
";

#[test]
fn flower_engine_matches_pre_refactor_golden() {
    let got = fingerprint(FlowerSim::new(params()), |s| {
        s.world().stats().events_processed()
    });
    assert_eq!(got, FLOWER_GOLDEN, "got:\n{got}");
}

#[test]
fn squirrel_engine_matches_pre_refactor_golden() {
    let got = fingerprint(SquirrelSim::new(params(), SquirrelMode::Directory), |s| {
        s.world().stats().events_processed()
    });
    assert_eq!(got, SQUIRREL_GOLDEN, "got:\n{got}");
}

const SQUIRREL_HOME_STORE_GOLDEN: &str = "\
summary 6756,4438,0.656898,1857.084,221.410,2.519,849997,125.814,0,0,126
events_processed 1508071
events {FetchTimeout: 36, DirQueryTimeout: 225, RouteFailure: 30, DirNoProvider: 2259, AnsweredByNonOwner: 312}
records n=6756 fnv=bcdc4feff4d09064
gauge events_per_sim_sec n=8 last=(2400000,619.8)
gauge homed_objects n=8 last=(2400000,0)
gauge population n=8 last=(2400000,126)
gauge queue_depth n=8 last=(2400000,934)
gauge rate/chord_find_next n=8 last=(2400000,92.78)
gauge rate/chord_find_next_reply n=8 last=(2400000,92.69666666666667)
gauge rate/chord_get_neighbors n=8 last=(2400000,27.413333333333334)
gauge rate/chord_neighbors_reply n=8 last=(2400000,27.393333333333334)
gauge rate/chord_notify n=8 last=(2400000,27.186666666666667)
gauge rate/chord_ping n=8 last=(2400000,26.47)
gauge rate/chord_pong n=8 last=(2400000,26.446666666666665)
gauge rate/chord_route n=8 last=(2400000,8.166666666666666)
gauge rate/chord_route_result n=8 last=(2400000,2.97)
gauge rate/fetch n=8 last=(2400000,2.1766666666666667)
gauge rate/fetch_ok n=8 last=(2400000,2.1733333333333333)
gauge rate/sq_answer n=8 last=(2400000,2.95)
gauge rate/sq_query n=8 last=(2400000,2.9466666666666668)
gauge rate/sq_store_copy n=8 last=(2400000,0.7833333333333333)
gauge ring_size n=8 last=(2400000,126)
msg chord_find_next count=263697 bytes=10547880
msg chord_find_next_reply count=256664 bytes=8468184
msg chord_get_neighbors count=60822 bytes=1946304
msg chord_neighbors_reply count=59731 bytes=10668799
msg chord_notify count=58252 bytes=1398048
msg chord_ping count=56682 bytes=906912
msg chord_pong count=55924 bytes=894784
msg chord_route count=19046 bytes=838024
msg chord_route_result count=6756 bytes=243216
msg fetch count=4477 bytes=85063
msg fetch_ok count=4472 bytes=18384392
msg sq_answer count=6710 bytes=143792
msg sq_query count=6875 bytes=213573
msg sq_store_copy count=2163 bytes=8883441
timer chord_fix_fingers count=119657
timer query count=9026
timer chord_check_predecessor count=59591
timer chord_stabilize count=59635
timer origin_done count=2318
timer chord_stabilize_once count=1062
timer chord_lookup_step count=262776
timer chord_ping_deadline count=56492
timer chord_stabilize_deadline count=60641
timer sq_answer_deadline count=6843
timer chord_route_deadline count=7319
timer fetch_deadline count=4471
";

/// The home-store scheme: the home node caches the object and is handed a
/// copy after every origin fetch (`sq_store_copy`), so which home a query
/// last asked is pinned here too.
#[test]
fn squirrel_home_store_engine_matches_golden() {
    let got = fingerprint(SquirrelSim::new(params(), SquirrelMode::HomeStore), |s| {
        s.world().stats().events_processed()
    });
    assert_eq!(got, SQUIRREL_HOME_STORE_GOLDEN, "got:\n{got}");
}

/// Keeps only what the machines emit — [`TraceEvent::Custom`], including
/// the `"replayed":true` positions a sink attached at t = 0 is handed —
/// as the JSONL lines the trace writer renders, with a count per tag.
struct Customs {
    jsonl: JsonlTraceWriter<Vec<u8>>,
    per_tag: BTreeMap<&'static str, u64>,
}

impl Default for Customs {
    fn default() -> Customs {
        Customs {
            jsonl: JsonlTraceWriter::new(Vec::new()),
            per_tag: BTreeMap::new(),
        }
    }
}

/// A shared handle, so the test reads the sink after the run.
#[derive(Clone, Default)]
struct CustomSink(Rc<RefCell<Customs>>);

impl TraceSink for CustomSink {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        if let TraceEvent::Custom { name, .. } = ev {
            let mut c = self.0.borrow_mut();
            *c.per_tag.entry(name).or_default() += 1;
            c.jsonl.event(at, ev);
        }
    }
}

/// The golden run of `sim`, traced: one line per tag with its count, then
/// the count and FNV-1a of every machine-emitted JSONL line in order.
fn custom_trace<D: SimDriver>(sim: D) -> String {
    traced_until(sim, Some(SCENARIO), HORIZON_MS)
}

/// `sim` traced to `horizon_ms` under `scenario`, rendered as
/// [`custom_trace`] renders it.
fn traced_until<D: SimDriver>(mut sim: D, scenario: Option<&str>, horizon_ms: u64) -> String {
    let sink = CustomSink::default();
    sim.add_trace_sink(sink.clone());
    if let Some(scenario) = scenario {
        sim.apply_scenario(&scenario.parse::<Scenario>().expect("scenario parses"));
    }
    sim.run_until(Time::from_millis(horizon_ms));
    drop(sim.finish());
    let c = std::mem::take(&mut *sink.0.borrow_mut());
    let mut out = String::new();
    for (tag, n) in &c.per_tag {
        writeln!(out, "custom {tag} n={n}").unwrap();
    }
    let lines = c.jsonl.lines();
    let fnv = bloom::hash::fnv1a(&c.jsonl.into_inner());
    writeln!(out, "jsonl lines={lines} fnv={fnv:016x}").unwrap();
    out
}

const FLOWER_CUSTOM_TRACE: &str = "\
custom became_directory n=313
custom claim_denied n=224
custom claim_granted n=219
custom claim_started n=429
custom demoted n=17
custom fetch n=4390
custom fetch_ok n=4148
custom fetch_timeout n=227
custom gossip_shuffle n=978
custom keepalive n=1308
custom origin_fetch n=3285
custom push n=1131
custom query_complete n=7427
custom query_issued n=7441
custom redirect n=3116
custom route_done n=1115
custom route_failed n=4
custom route_request n=656
custom routed_arrived n=556
custom sibling_forward n=1274
jsonl lines=38258 fnv=0fd70df44a2be40d
";

/// What the Flower-CDN machines trace over the golden run, to the byte.
#[test]
fn flower_machine_trace_is_pinned() {
    let got = custom_trace(FlowerSim::new(params()));
    assert_eq!(got, FLOWER_CUSTOM_TRACE, "got:\n{got}");
}

const SQUIRREL_CUSTOM_TRACE: &str = "\
custom fetch n=4695
custom fetch_miss n=20
custom fetch_ok n=3901
custom fetch_timeout n=768
custom origin_fetch n=2748
custom query_complete n=6647
custom query_issued n=6701
custom route_request n=7069
custom sq_home_answer n=7541
jsonl lines=40090 fnv=02d18836465dfcdc
";

/// What the Squirrel machines trace over the golden run, to the byte.
#[test]
fn squirrel_machine_trace_is_pinned() {
    let got = custom_trace(SquirrelSim::new(params(), SquirrelMode::Directory));
    assert_eq!(got, SQUIRREL_CUSTOM_TRACE, "got:\n{got}");
}

/// One crowded website whose directories hold at most a handful of
/// content peers, so PetalUp (§4) splits petals, promotes members and
/// forwards joins and queries between instances: trace shapes the golden
/// scenario run never produces.
fn petalup_params() -> SimParams {
    let horizon_ms = 30 * 60_000;
    let mut p = SimParams::quick(150, horizon_ms);
    p.seed = 0x9E7A;
    p.catalog.websites = 1;
    p.catalog.active_websites = 1;
    p.catalog.objects_per_site = 200;
    p.directory_capacity = 4;
    p.mean_uptime_ms = horizon_ms;
    p
}

const PETALUP_CUSTOM_TRACE: &str = "\
custom became_directory n=50
custom claim_denied n=51
custom claim_granted n=15
custom claim_started n=76
custom demoted n=1
custom fetch n=11591
custom fetch_ok n=11396
custom fetch_timeout n=191
custom gossip_shuffle n=984
custom instance_forward n=227
custom keepalive n=996
custom origin_fetch n=2798
custom petal_split n=29
custom promote n=29
custom push n=1383
custom query_complete n=14193
custom query_issued n=14201
custom redirect n=5417
custom route_done n=242
custom route_request n=165
custom routed_arrived n=391
custom sibling_forward n=6027
jsonl lines=70453 fnv=75a4fac2f612a1b5
";

/// What the Flower-CDN machines trace while petals split, to the byte.
#[test]
fn flower_petalup_trace_is_pinned() {
    let p = petalup_params();
    let horizon_ms = p.horizon_ms;
    let got = traced_until(FlowerSim::new(p), None, horizon_ms);
    for tag in ["petal_split", "promote", "instance_forward"] {
        assert!(
            got.contains(&format!("custom {tag} n=")),
            "no {tag}:\n{got}"
        );
    }
    assert_eq!(got, PETALUP_CUSTOM_TRACE, "got:\n{got}");
}

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
//! `full` byte. The Squirrel pins (both schemes' runs and the Squirrel
//! trace below) were re-recorded when a stranded Squirrel peer began to
//! re-join its one Chord in place instead of building a second: no second
//! set of timer chains runs on, the query whose home lookup the cut-off
//! ring held now ends, and a re-join arms no second query clock. The
//! Flower-CDN pins did not move.
//!
//! A second, traced run of the Flower-CDN and the Squirrel configuration
//! pins what the machines themselves trace: the count of every custom
//! event tag and an FNV-1a over those events' JSONL lines, in order, from
//! the t = 0 positions replayed into the sink to the horizon. The Flower-CDN
//! FNV was re-recorded twice: when a failed claim route began to trace the
//! claim's position and claimer (the two claim `route_failed` lines gained
//! those fields), and when a directory whose D-ring join fails began to
//! trace its stand-down (35 `demoted` lines were added); each time every
//! other line stayed byte-identical. A third traced
//! run, of one crowded website with small directories, pins PetalUp's
//! trace shapes (`petal_split`, `promote`, `instance_forward`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use cdn_metrics::JsonlTraceWriter;
use flower_cdn::{FlowerSim, Scenario, SimDriver, SimParams, SquirrelMode, SquirrelSim};
use simnet::{Time, TraceEvent, TraceSink};

mod golden;

use golden::{params, HORIZON_MS, SCENARIO};

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
summary 6834,3642,0.532924,2028.587,233.117,2.353,806965,118.081,0,0,126
events_processed 1418204
events {FetchMiss: 19, FetchTimeout: 763, DirQueryTimeout: 467, RouteFailure: 38, DirNoProvider: 3048, AnsweredByNonOwner: 932}
records n=6834 fnv=1c270ef4463557d1
gauge events_per_sim_sec n=8 last=(2400000,611.68)
gauge homed_objects n=8 last=(2400000,617)
gauge population n=8 last=(2400000,126)
gauge queue_depth n=8 last=(2400000,889)
gauge rate/chord_find_next n=8 last=(2400000,93.47)
gauge rate/chord_find_next_reply n=8 last=(2400000,93.37)
gauge rate/chord_get_neighbors n=8 last=(2400000,26.63)
gauge rate/chord_neighbors_reply n=8 last=(2400000,26.61)
gauge rate/chord_notify n=8 last=(2400000,26.673333333333332)
gauge rate/chord_ping n=8 last=(2400000,25.66)
gauge rate/chord_pong n=8 last=(2400000,25.626666666666665)
gauge rate/chord_route n=8 last=(2400000,8.663333333333334)
gauge rate/chord_route_result n=8 last=(2400000,3.0566666666666666)
gauge rate/fetch n=8 last=(2400000,2.0233333333333334)
gauge rate/fetch_miss n=8 last=(2400000,0.01)
gauge rate/fetch_ok n=8 last=(2400000,2.0166666666666666)
gauge rate/sq_answer n=8 last=(2400000,3.3233333333333333)
gauge rate/sq_query n=8 last=(2400000,3.316666666666667)
gauge ring_size n=8 last=(2400000,126)
msg chord_find_next count=258016 bytes=10320640
msg chord_find_next_reply count=251745 bytes=8306401
msg chord_get_neighbors count=54637 bytes=1748384
msg chord_neighbors_reply count=53660 bytes=9622924
msg chord_notify count=53616 bytes=1286784
msg chord_ping count=49376 bytes=790016
msg chord_pong count=48765 bytes=780240
msg chord_route count=18508 bytes=814352
msg chord_route_result count=6770 bytes=243720
msg fetch count=4429 bytes=84151
msg fetch_miss count=19 bytes=285
msg fetch_ok count=3663 bytes=15058593
msg sq_answer count=7637 bytes=158936
msg sq_query count=7798 bytes=250250
timer chord_fix_fingers count=104961
timer query count=8747
timer chord_check_predecessor count=52259
timer chord_stabilize count=52268
timer origin_done count=3192
timer chord_stabilize_once count=1067
timer chord_lookup_step count=257145
timer chord_ping_deadline count=49212
timer chord_stabilize_deadline count=54468
timer sq_answer_deadline count=7757
timer chord_route_deadline count=7357
timer fetch_deadline count=4415
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
summary 6836,4025,0.588795,1840.001,224.162,2.377,734568,107.456,0,0,126
events_processed 1307187
events {FetchTimeout: 37, DirQueryTimeout: 257, RouteFailure: 43, DirNoProvider: 2728, AnsweredByNonOwner: 592}
records n=6836 fnv=95c1f6dcb38442d5
gauge events_per_sim_sec n=8 last=(2400000,564.8066666666666)
gauge homed_objects n=8 last=(2400000,0)
gauge population n=8 last=(2400000,126)
gauge queue_depth n=8 last=(2400000,919)
gauge rate/chord_find_next n=8 last=(2400000,79.42666666666666)
gauge rate/chord_find_next_reply n=8 last=(2400000,79.34333333333333)
gauge rate/chord_get_neighbors n=8 last=(2400000,26.45)
gauge rate/chord_neighbors_reply n=8 last=(2400000,26.43)
gauge rate/chord_notify n=8 last=(2400000,26.49)
gauge rate/chord_ping n=8 last=(2400000,25.52)
gauge rate/chord_pong n=8 last=(2400000,25.486666666666668)
gauge rate/chord_route n=8 last=(2400000,7.43)
gauge rate/chord_route_result n=8 last=(2400000,2.9466666666666668)
gauge rate/fetch n=8 last=(2400000,1.87)
gauge rate/fetch_ok n=8 last=(2400000,1.8733333333333333)
gauge rate/sq_answer n=8 last=(2400000,2.933333333333333)
gauge rate/sq_query n=8 last=(2400000,2.933333333333333)
gauge rate/sq_store_copy n=8 last=(2400000,1.06)
gauge ring_size n=8 last=(2400000,126)
msg chord_find_next count=220991 bytes=8839640
msg chord_find_next_reply count=214441 bytes=7075257
msg chord_get_neighbors count=54283 bytes=1737056
msg chord_neighbors_reply count=53332 bytes=9569732
msg chord_notify count=53319 bytes=1279656
msg chord_ping count=50309 bytes=804944
msg chord_pong count=49693 bytes=795088
msg chord_route count=18197 bytes=800668
msg chord_route_result count=6751 bytes=243036
msg fetch count=4063 bytes=77197
msg fetch_ok count=4048 bytes=16641328
msg sq_answer count=6787 bytes=141720
msg sq_query count=6965 bytes=216371
msg sq_store_copy count=2636 bytes=10826052
timer chord_fix_fingers count=104961
timer query count=8697
timer chord_check_predecessor count=52259
timer chord_stabilize count=52268
timer origin_done count=2811
timer chord_stabilize_once count=1060
timer chord_lookup_step count=220262
timer chord_ping_deadline count=50135
timer chord_stabilize_deadline count=54113
timer sq_answer_deadline count=6933
timer chord_route_deadline count=7300
timer fetch_deadline count=4059
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
custom demoted n=52
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
jsonl lines=38293 fnv=9bd046bb696b9f96
";

/// What the Flower-CDN machines trace over the golden run, to the byte.
#[test]
fn flower_machine_trace_is_pinned() {
    let got = custom_trace(FlowerSim::new(params()));
    assert_eq!(got, FLOWER_CUSTOM_TRACE, "got:\n{got}");
}

const SQUIRREL_CUSTOM_TRACE: &str = "\
custom fetch n=4429
custom fetch_miss n=19
custom fetch_ok n=3642
custom fetch_timeout n=763
custom origin_fetch n=3196
custom query_complete n=6834
custom query_issued n=6871
custom route_request n=7256
custom sq_home_answer n=7637
jsonl lines=40647 fnv=0332e70d5217eb1e
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

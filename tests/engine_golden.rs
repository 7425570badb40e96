//! Golden determinism pins for both engines through the chaos and gauge
//! paths: the exact summary row, event count, diagnostic-event map, gauge
//! series and `records` line (count and FNV-1a over every `QueryRecord` in
//! order) of one seeded run per system. A refactor or a pure optimisation
//! must reproduce them digit for digit. They were last re-recorded when
//! Chord's finger repair began asking the incumbent finger before
//! resolving a slot, which moved the ring's traffic — and with it every
//! number here — on purpose.

use std::fmt::Write as _;

use flower_cdn::{FlowerSim, Scenario, SimDriver, SimParams, SquirrelMode, SquirrelSim};
use simnet::Time;

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

/// Set a simulation up the way the harnesses do (gauges, then scenario),
/// run it to the horizon and render everything the test pins as text.
fn fingerprint<D: SimDriver>(mut sim: D, events_processed: impl Fn(&D) -> u64) -> String {
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

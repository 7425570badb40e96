//! Golden determinism pins for both engines through the chaos and gauge
//! paths: the exact summary row, event count, diagnostic-event map and
//! gauge series of one seeded run per system. The constants were captured
//! at the last commit that still had two hand-mirrored engines
//! (`FlowerSim` in `engine.rs`, `SquirrelSim` in `squirrel.rs`); the
//! single `Engine<S>` must reproduce them digit for digit. The `records`
//! line (count and FNV-1a over every `QueryRecord` in order) was captured
//! at the last commit that folded reports only in `finish`.

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
summary 7505,4057,0.540573,452.515,138.089,1.312,625413,83.333,235,0,128
events_processed 1050667
events {FetchTimeout: 216, DirQueryTimeout: 136, RouteFailure: 22, AckTimeout: 204, ClaimStarted: 372, DirNoProvider: 1108, NoDirInfo: 209, Demoted: 12}
records n=7505 fnv=97f56b1259c3f8e8
gauge dring_size n=8 last=(2400000,53)
gauge events_per_sim_sec n=8 last=(2400000,491.15)
gauge instance_depth_max n=8 last=(2400000,0)
gauge petal_size_max n=8 last=(2400000,6)
gauge petal_size_mean n=8 last=(2400000,2.056603773584906)
gauge population n=8 last=(2400000,128)
gauge queue_depth n=8 last=(2400000,877)
gauge rate/chord_find_next n=8 last=(2400000,112.46666666666667)
gauge rate/chord_find_next_reply n=8 last=(2400000,112.49333333333334)
gauge rate/chord_get_neighbors n=8 last=(2400000,11.083333333333334)
gauge rate/chord_neighbors_reply n=8 last=(2400000,11.08)
gauge rate/chord_notify n=8 last=(2400000,11.09)
gauge rate/chord_ping n=8 last=(2400000,10.836666666666666)
gauge rate/chord_pong n=8 last=(2400000,10.83)
gauge rate/chord_route n=8 last=(2400000,0.7666666666666667)
gauge rate/chord_route_result n=8 last=(2400000,0.33666666666666667)
gauge rate/claim_denied n=8 last=(2400000,0.06)
gauge rate/claim_granted n=8 last=(2400000,0.07666666666666666)
gauge rate/dead_peer_report n=7 last=(2400000,0.08)
gauge rate/dir_ack n=8 last=(2400000,1.1033333333333333)
gauge rate/dir_query n=8 last=(2400000,1.3766666666666667)
gauge rate/dring_route n=8 last=(2400000,0.3333333333333333)
gauge rate/fetch n=8 last=(2400000,2.5766666666666667)
gauge rate/fetch_ok n=8 last=(2400000,2.5733333333333333)
gauge rate/gossip n=8 last=(2400000,0.7866666666666666)
gauge rate/keepalive n=8 last=(2400000,0.6266666666666667)
gauge rate/promote n=8 last=(2400000,0.02)
gauge rate/push n=8 last=(2400000,0.4766666666666667)
gauge rate/redirect n=8 last=(2400000,1.5766666666666667)
gauge rate/route_failed n=8 last=(2400000,0)
gauge rate/routed n=8 last=(2400000,0.3333333333333333)
gauge rate/sibling_query n=8 last=(2400000,0.63)
";

const SQUIRREL_GOLDEN: &str = "\
summary 6464,4186,0.647587,2283.446,225.811,2.640,967518,149.678,0,0,126
events_processed 1691885
events {FetchMiss: 25, FetchTimeout: 859, DirQueryTimeout: 457, RouteFailure: 47, DirNoProvider: 2156, AnsweredByNonOwner: 199}
records n=6464 fnv=0654b31271eac506
gauge events_per_sim_sec n=8 last=(2400000,713.3466666666667)
gauge homed_objects n=8 last=(2400000,343)
gauge population n=8 last=(2400000,126)
gauge queue_depth n=8 last=(2400000,889)
gauge rate/chord_find_next n=8 last=(2400000,120.38666666666667)
gauge rate/chord_find_next_reply n=8 last=(2400000,120.23666666666666)
gauge rate/chord_get_neighbors n=8 last=(2400000,28.64)
gauge rate/chord_neighbors_reply n=8 last=(2400000,28.60333333333333)
gauge rate/chord_notify n=8 last=(2400000,28.156666666666666)
gauge rate/chord_ping n=8 last=(2400000,27.703333333333333)
gauge rate/chord_pong n=8 last=(2400000,27.673333333333332)
gauge rate/chord_route n=8 last=(2400000,8.673333333333334)
gauge rate/chord_route_result n=8 last=(2400000,2.84)
gauge rate/fetch n=8 last=(2400000,2.006666666666667)
gauge rate/fetch_miss n=8 last=(2400000,0.0033333333333333335)
gauge rate/fetch_ok n=8 last=(2400000,2.0033333333333334)
gauge rate/sq_answer n=8 last=(2400000,3.0933333333333333)
gauge rate/sq_query n=8 last=(2400000,3.0933333333333333)
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

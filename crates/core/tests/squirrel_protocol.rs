//! Deterministic micro-scenarios for the Squirrel baseline: home-node
//! directories, redirection, and the paper's central criticism — abrupt
//! directory loss on home-node failure (§2, §6.2.1).

use flower_cdn::squirrel::{object_key, SquirrelMode, SquirrelSim};
use flower_cdn::{InvariantChecker, SimDriver, SimParams, StorePolicy};
use simnet::{LocalityId, Time};
use workload::{ObjectId, WebsiteId};

fn quiet_params(seed: u64) -> SimParams {
    let horizon = 2 * 3_600_000;
    let mut p = SimParams::quick(10, horizon);
    p.seed = seed;
    p.catalog.websites = 4;
    p.catalog.active_websites = 1;
    p.catalog.objects_per_site = 30;
    p.topology.localities = 2;
    p.mean_uptime_ms = horizon * 1_000; // no natural churn
    p.query_period_ms = 120_000;
    p
}

#[test]
fn second_querier_is_redirected_to_the_first_downloader() {
    let mut sim = SquirrelSim::new(quiet_params(1), SquirrelMode::Directory);
    sim.spawn_client(WebsiteId(0), LocalityId(0));
    sim.run_until(Time::from_mins(40));
    sim.spawn_client(WebsiteId(0), LocalityId(1));
    sim.run_until(Time::from_mins(110));
    let result = sim.finish();
    assert!(
        result.stats.hits > 0,
        "hit ratio {:.3} over {} queries — home directories never redirected",
        result.stats.hit_ratio(),
        result.stats.queries
    );
    // Squirrel has no locality awareness: hits may cross localities.
    assert!(result.stats.queries > 20);
}

#[test]
fn home_node_failure_loses_the_directory() {
    // The paper's criticism: "the directory information is abruptly lost
    // at the failure of its storing peer". Kill a hot object's home node
    // and watch the very next query for it miss.
    let mut sim = SquirrelSim::new(quiet_params(2), SquirrelMode::Directory);
    let a = sim.spawn_client(WebsiteId(0), LocalityId(0));
    let b = sim.spawn_client(WebsiteId(0), LocalityId(1));
    sim.run_until(Time::from_mins(60));
    // Pick an object both clients are known to hold (rank 0 is Zipf-hot,
    // queried early by both with overwhelming probability).
    let hot = ObjectId {
        website: WebsiteId(0),
        rank: 0,
    };
    let home = sim.ring_owner_of(object_key(hot)).expect("ring alive");
    if home == a || home == b {
        // The home happens to be one of the clients; killing it would
        // remove a downloader too and muddy the assertion — accept the
        // setup and just verify the run completes.
        let r = sim.finish();
        assert!(r.stats.queries > 0);
        return;
    }
    sim.fail_peer(home);
    sim.run_until(Time::from_mins(110));
    let r = sim.finish();
    // The system keeps operating: queries complete, new home nodes take
    // over the arc and re-learn downloaders.
    assert!(r.stats.queries > 20);
    assert!(
        r.stats.hit_ratio() > 0.0,
        "directory recovery through re-registration never happened"
    );
}

#[test]
fn home_store_mode_caches_at_the_home_node() {
    let mut sim = SquirrelSim::new(quiet_params(3), SquirrelMode::HomeStore);
    sim.spawn_client(WebsiteId(0), LocalityId(0));
    sim.run_until(Time::from_mins(40));
    sim.spawn_client(WebsiteId(0), LocalityId(1));
    sim.run_until(Time::from_mins(110));
    let r = sim.finish();
    let home_served = r
        .records
        .iter()
        .filter(|q| q.provider == cdn_metrics::Provider::DirectoryPeer)
        .count();
    assert!(
        home_served > 0,
        "home-store never served from a home node ({} hits total)",
        r.stats.hits
    );
}

#[test]
fn lru_home_store_copies_obey_the_store_policy() {
    // A copy handed to a home node is a download like any other: under an
    // LRU policy it evicts, so no home ever holds more than its capacity.
    let horizon = 2 * 3_600_000;
    let mut params = SimParams::quick(150, horizon);
    params.seed = 1;
    params.store_policy = StorePolicy::Lru { capacity: 2 };
    let mut sim = SquirrelSim::new(params, SquirrelMode::HomeStore);
    sim.run_until(Time::from_millis(horizon));
    let fullest = sim.world().live_nodes().map(|(_, p)| p.store_len()).max();
    assert!(fullest.is_some_and(|n| n <= 2), "fullest store {fullest:?}");
    assert!(sim.finish().stats.queries > 0);
}

#[test]
fn squirrel_queries_always_pay_dht_routing() {
    // Unlike Flower-CDN content peers (petal-local resolution), every
    // Squirrel query routes over the DHT: records must carry hops or a
    // failed-routing marker, never petal-style zero-cost resolution.
    let mut sim = SquirrelSim::new(quiet_params(4), SquirrelMode::Directory);
    sim.spawn_client(WebsiteId(0), LocalityId(0));
    sim.run_until(Time::from_mins(60));
    let r = sim.finish();
    for q in &r.records {
        assert_eq!(q.via, cdn_metrics::ResolvedVia::DhtRoute);
    }
}

#[test]
fn failed_fetch_is_traced_under_the_querys_qid() {
    // A listed downloader dies; the next requester the home sends to it
    // waits out the fetch deadline. The trace must show that attempt on the
    // query's causal path, as a Flower-CDN trace does.
    let path = std::env::temp_dir().join(format!("sq_fetch_timeout_{}.jsonl", std::process::id()));
    let mut sim = SquirrelSim::new(quiet_params(5), SquirrelMode::Directory);
    sim.add_trace_sink(cdn_metrics::JsonlTraceWriter::create(&path).expect("temp file"));
    let downloader = sim.spawn_client(WebsiteId(0), LocalityId(0));
    sim.run_until(Time::from_mins(50));
    sim.spawn_client(WebsiteId(0), LocalityId(1));
    sim.fail_peer(downloader);
    sim.run_until(Time::from_mins(110));
    drop(sim.finish());

    let text = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();
    let lines: Vec<_> = text
        .lines()
        .map(|l| cdn_metrics::parse_trace_line(l).expect("well-formed line"))
        .collect();
    let timeout = lines
        .iter()
        .find(|l| l.name() == Some("fetch_timeout"))
        .expect("a fetch_timeout line");
    assert_eq!(timeout.num("attempt"), Some(1.0));
    let qid = timeout.num("qid").expect("qid on the line");
    let path_of_query: Vec<&str> = lines
        .iter()
        .filter(|l| l.num("qid") == Some(qid))
        .filter_map(|l| l.name())
        .collect();
    let at = |name| path_of_query.iter().position(|n| *n == name);
    assert_eq!(at("query_issued"), Some(0), "{path_of_query:?}");
    assert!(
        at("fetch") < at("fetch_timeout") && at("fetch_timeout") < at("query_complete"),
        "{path_of_query:?}"
    );
}

#[test]
fn queries_terminate_while_churn_strands_ring_members() {
    // Heavy churn (mean uptime 10 min over an hour, P = 100) strands ring
    // members often enough that some re-join with a query's home lookup in
    // flight. The re-join fails that lookup into the query's retry, so
    // every query still ends.
    let horizon = 3_600_000;
    let mut p = SimParams::quick(100, horizon);
    p.seed = 1;
    p.mean_uptime_ms = 10 * 60_000;
    p.query_period_ms = 60_000;
    p.catalog.websites = 4;
    p.catalog.active_websites = 4;
    let mut sim = SquirrelSim::new(p, SquirrelMode::Directory);
    let checker = InvariantChecker::new();
    sim.add_trace_sink(checker.clone());
    sim.run_until(Time::from_millis(horizon));
    let r = sim.finish();
    checker.assert_clean();
    assert!(r.stats.queries > 5_000, "{} queries", r.stats.queries);
}

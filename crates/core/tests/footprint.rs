//! Memory follows the live population, not the run's history.
//!
//! A byte-counting global allocator gives the *live heap* (bytes allocated
//! and not yet freed by this thread) — a pure function of the seed, which
//! peak RSS is not. One seeded run per system at a population that is
//! stationary from sim-minute 60 on (mean uptime 10 min), where some 3 600
//! ids are spawned for some 300 peers alive, must
//!
//! * (a) hold no more heap at sim-minute 120 than at sim-minute 60, give or
//!   take 15 %: whatever a dead peer owned and whatever a folded report
//!   needed is gone. The query records the run returns are the one thing
//!   that must grow with elapsed time, so (a) weighs the heap net of
//!   `RunResult::records`' capacity at each point, taken from identical
//!   runs finished there (the runs are deterministic, so this is exact);
//! * (b) hold no more heap per live peer than recorded below, give or take
//!   10 %: no per-peer buffer came back, and no queued event grew back to
//!   the size of a message.
//!
//! Beside them, (c) a ten-object store's summary takes less heap than its
//! 2 085 bits as words alone (264 B), and (d) a directory index shaped
//! like `flower_query`'s takes at most 14 B of heap per holder (11.3 B;
//! the two `BTreeMap`s with a `Vec` of holders per object it replaced
//! took 19.6 B).
//!
//! Reverting the boxed node slots or the fold-as-produced reports fails (a);
//! reverting the world-owned output buffer fails (b) (CHANGES.md, PR 18),
//! and so does queueing message bodies in the wheel's slab again, a Chord
//! finger table that keeps room for 64 fingers (5 315 B per Squirrel
//! peer), a Chord request table that keeps a drained burst's room
//! (5 473 B), or queueing every churn arrival at set-up instead of
//! replaying them one at a time (4 991 B per Flower-CDN peer, 4 701 B per
//! Squirrel peer). An inline `PendingQuery` reads 3 612 B per Flower-CDN
//! peer, inside the 10 %: the size pin of a Flower-CDN host
//! (`engine::tests::a_flower_peer_host_is_at_most_376_bytes`) is what
//! fails for it. Bloom summaries kept as bit words whatever they hold, as
//! before their sparse form, read 3 509 B per Flower-CDN peer, inside the
//! 10 % too: (c) is what fails for them (such a summary takes at least
//! 320 B). A directory index kept in `BTreeMap`s again reads 3 427 B per
//! Flower-CDN peer, inside the 10 % as well: (d) is what fails for it.
//!
//! `census` (ignored; it prints, it checks nothing) is the probe behind
//! these numbers: the live heap of the two Flower-CDN benchmark workloads
//! at sim-minute 90 by allocation site, from backtraces the allocator
//! samples.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use cdn_metrics::QueryRecord;
use flower_cdn::{
    shape_params, DirectoryIndex, FlowerSim, RunResult, SimDriver, SimParams, SquirrelMode,
    SquirrelSim,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{NodeId, Time};
use workload::{ObjectId, WebsiteId, Zipf};

thread_local! {
    /// Bytes this thread allocated and has not freed. Const-initialised and
    /// without a destructor, so the allocator can touch it at any time.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Set while the census does its own bookkeeping: what it allocates
    /// then is neither counted nor sampled.
    static BUSY: Cell<bool> = const { Cell::new(false) };
    /// The census samples every n-th allocation below `CENSUS_WHOLE`
    /// bytes and every one from there up (0: it is off) …
    static SAMPLE_EVERY: Cell<u32> = const { Cell::new(0) };
    /// … and this many small allocations are left before the next sample.
    static UNTIL_SAMPLE: Cell<u32> = const { Cell::new(0) };
    /// The sampled allocations still live: address → (bytes, the number
    /// of allocations the sample stands for, where). Touched only while
    /// `BUSY` is set.
    static SAMPLES: RefCell<HashMap<usize, (usize, u32, Backtrace)>> =
        RefCell::new(HashMap::new());
}

fn add_live(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

/// Runs `f` as census bookkeeping, unless the census is already in it.
fn census_busy(f: impl FnOnce()) {
    if !BUSY.replace(true) {
        f();
        BUSY.set(false);
    }
}

fn note_alloc(ptr: *mut u8, bytes: usize) {
    if BUSY.get() {
        return;
    }
    add_live(bytes as isize);
    let every = SAMPLE_EVERY.get();
    if every == 0 || ptr.is_null() {
        return;
    }
    let weight = if bytes >= CENSUS_WHOLE {
        1
    } else if UNTIL_SAMPLE.get() == 0 {
        UNTIL_SAMPLE.set(every - 1);
        every
    } else {
        UNTIL_SAMPLE.set(UNTIL_SAMPLE.get() - 1);
        return;
    };
    census_busy(|| {
        let site = Backtrace::force_capture();
        SAMPLES.with(|s| s.borrow_mut().insert(ptr as usize, (bytes, weight, site)));
    });
}

fn note_free(ptr: *mut u8, bytes: usize) {
    if BUSY.get() {
        return;
    }
    add_live(-(bytes as isize));
    if SAMPLE_EVERY.get() != 0 {
        census_busy(|| {
            SAMPLES.with(|s| s.borrow_mut().remove(&(ptr as usize)));
        });
    }
}

struct CountingBytes;

// SAFETY: every operation is delegated to `System` unchanged. The counter
// update touches only const-initialised thread-local `Cell`s and neither
// allocates nor unwinds; the census's sampling, when a test turns it on,
// allocates only with `BUSY` set, which sends those allocations straight
// through.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        note_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        note_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(ptr, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            note_free(ptr, layout.size());
            note_alloc(moved, new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOC: CountingBytes = CountingBytes;

const MINUTE_MS: u64 = 60_000;

fn params() -> SimParams {
    let mut p = shape_params(300, 0xF007);
    p.horizon_ms = 120 * MINUTE_MS;
    p.mean_uptime_ms = 10 * MINUTE_MS;
    p.query_period_ms = 2 * MINUTE_MS;
    p
}

/// What one seeded run holds: the live heap of the simulation (everything
/// this thread allocated since `build` was entered) at sim-minutes 60 and
/// 120, the part of it that is the query records' buffer, and the
/// population at the end.
struct Footprint {
    at_60: isize,
    at_120: isize,
    records_60: isize,
    records_120: isize,
    alive: usize,
}

/// Bytes `RunResult::records` holds: its capacity, not its length.
fn records_bytes(result: &RunResult) -> isize {
    (result.records.capacity() * std::mem::size_of::<QueryRecord>()) as isize
}

fn footprint<D: SimDriver>(build: impl Fn(SimParams) -> D) -> Footprint {
    let base = LIVE.with(Cell::get);
    let mut sim = build(params());
    sim.run_until(Time::from_millis(60 * MINUTE_MS));
    let at_60 = LIVE.with(Cell::get) - base;
    sim.run_until(Time::from_millis(120 * MINUTE_MS));
    let at_120 = LIVE.with(Cell::get) - base;
    let alive = sim.live_population();
    let result = sim.finish();
    assert!(result.stats.queries > 1_000, "the run did its work");
    let records_120 = records_bytes(&result);
    drop(result);
    // Finishing folds nothing a run to the same time has not folded, so
    // the same run finished at minute 60 holds the buffer the measured one
    // held then.
    let mut early = build(params());
    early.run_until(Time::from_millis(60 * MINUTE_MS));
    let records_60 = records_bytes(&early.finish());
    Footprint {
        at_60,
        at_120,
        records_60,
        records_120,
        alive,
    }
}

fn check(system: &str, f: Footprint, recorded_per_peer: isize) {
    let per_peer = f.at_120 / f.alive as isize;
    let (net_60, net_120) = (f.at_60 - f.records_60, f.at_120 - f.records_120);
    println!(
        "{system}: live heap {} B @ 60 min, {} B @ 120 min ({net_60} B and {net_120} B \
         net of the records), {} alive, {per_peer} B/peer",
        f.at_60, f.at_120, f.alive
    );
    assert!(
        net_120 * 100 <= net_60 * 115,
        "{system}: live heap net of the query records grew with elapsed time at a \
         stationary population: {net_60} B at sim-minute 60, {net_120} B at sim-minute 120"
    );
    assert!(
        per_peer * 100 <= recorded_per_peer * 110,
        "{system}: {per_peer} B of live heap per live peer, recorded {recorded_per_peer}"
    );
}

#[test]
fn flower_heap_follows_the_live_population() {
    check("flower", footprint(FlowerSim::new), 3_236);
}

#[test]
fn squirrel_heap_follows_the_live_population() {
    let build = |p| SquirrelSim::new(p, SquirrelMode::Directory);
    check("squirrel", footprint(build), 3_712);
}

#[test]
fn a_ten_object_summary_takes_less_heap_than_its_words() {
    let mut store = flower_proto::ContentStore::new();
    for rank in 0..10 {
        store.insert(ObjectId {
            website: WebsiteId(1),
            rank,
        });
    }
    let base = LIVE.with(Cell::get);
    let summary = store.summary();
    let heap = LIVE.with(Cell::get) - base;
    assert_eq!(summary.bit_len(), 2_085, "the standard summary shape");
    assert!(
        heap < 264,
        "a ten-object summary takes {heap} B of heap, its words alone 264 B"
    );
}

/// (d) A directory shaped like `flower_query`'s at sim-minute 90 (138
/// directories, ≈ 22 content peers and ≈ 1 280 holders each): 25 peers
/// announce ranks drawn from the workload's Zipf over 300 objects (seed
/// 90), one rank per announcement, peer after peer, 70 rounds. Returns
/// the heap the index holds and its holders (a holder is a peer that
/// holds an object).
fn directory_heap() -> (isize, usize) {
    let zipf = Zipf::new(300, 0.8);
    let mut rng = StdRng::seed_from_u64(90);
    let base = LIVE.with(Cell::get);
    let mut index = DirectoryIndex::new();
    for round in 0..70u64 {
        for peer in 0..25 {
            let object = ObjectId {
                website: WebsiteId(3),
                rank: zipf.sample(&mut rng) as u16,
            };
            index.record_objects(NodeId::from_index(peer), [object], round * 20_000);
        }
    }
    let heap = LIVE.with(Cell::get) - base;
    let holders = index.snapshot().entries.iter().map(|e| e.1.len()).sum();
    (heap, holders)
}

#[test]
fn a_directory_index_costs_at_most_14_bytes_per_holder() {
    let (heap, holders) = directory_heap();
    let per_holder = heap as f64 / holders as f64;
    println!("directory: {heap} B of heap for {holders} holders, {per_holder:.1} B per holder");
    assert!(
        heap <= 14 * holders as isize,
        "a directory index takes {per_holder:.1} B of heap per holder, recorded at most 14"
    );
}

/// Flower-CDN's two benchmark workloads (`benchmark/src/workloads.rs`) at
/// seed 47, run to sim-minute 90, the end of their timed hour.
fn benchmark_shape(workload: &str) -> SimParams {
    let mut p = match workload {
        "flower_query" => {
            let mut p = shape_params(3_000, 47);
            p.catalog.websites = 8;
            p.catalog.active_websites = 8;
            p.mean_uptime_ms = 30 * MINUTE_MS;
            p.query_period_ms = 20_000;
            p.gossip_period_ms = 5 * MINUTE_MS;
            p
        }
        "flower_churn" => {
            let mut p = shape_params(8_000, 47);
            p.mean_uptime_ms = 20 * MINUTE_MS;
            p.query_period_ms = 2 * MINUTE_MS;
            p.gossip_period_ms = 20 * MINUTE_MS;
            p
        }
        other => panic!("no Flower-CDN benchmark workload {other}"),
    };
    p.horizon_ms = 90 * MINUTE_MS;
    p
}

/// The census samples one in this many allocations below `CENSUS_WHOLE`
/// bytes, and every allocation from there up.
const CENSUS_EVERY: u32 = 16;
const CENSUS_WHOLE: usize = 512;

/// The simulator's crates: a sampled allocation is charged to the first
/// two frames of its backtrace that lie in one of them.
const SIMULATOR: [&str; 11] = [
    "flower_proto::",
    "flower_cdn::",
    "simnet::",
    "chord::",
    "gossip::",
    "bloom::",
    "workload::",
    "cdn_metrics::",
    "chaos::",
    "intern::",
    "profile::",
];

fn site_of(trace: &str) -> String {
    let ours: Vec<&str> = trace
        .lines()
        .filter_map(|line| {
            let (number, frame) = line.trim_start().split_once(": ")?;
            number.parse::<usize>().ok()?;
            Some(frame)
        })
        .filter(|frame| {
            let frame = frame.trim_start_matches('<');
            SIMULATOR.iter().any(|krate| frame.starts_with(krate))
        })
        .take(2)
        .collect();
    if ours.is_empty() {
        "(no simulator frame)".to_string()
    } else {
        ours.join(" ← ")
    }
}

/// Print the live heap of `workload` at sim-minute 90 by allocation site,
/// estimated from the sampled allocations still live.
fn census_of(workload: &str) {
    UNTIL_SAMPLE.set(0);
    SAMPLE_EVERY.set(CENSUS_EVERY);
    let base = LIVE.with(Cell::get);
    let mut sim = FlowerSim::new(benchmark_shape(workload));
    sim.run_until(Time::from_millis(90 * MINUTE_MS));
    let live = LIVE.with(Cell::get) - base;
    SAMPLE_EVERY.set(0);
    BUSY.set(true);
    // Site → (estimated bytes, estimated allocations).
    let mut sites: HashMap<String, (usize, usize)> = HashMap::new();
    let samples = SAMPLES.with(|s| std::mem::take(&mut *s.borrow_mut()));
    for (bytes, weight, trace) in samples.into_values() {
        let site = sites.entry(site_of(&trace.to_string())).or_default();
        site.0 += bytes * weight as usize;
        site.1 += weight as usize;
    }
    let mut sites: Vec<(String, (usize, usize))> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    let estimated: usize = sites.iter().map(|s| s.1 .0).sum();
    println!(
        "{workload} @ sim-minute 90: live heap {live} B, {} alive; estimated from \
         the samples {estimated} B",
        sim.live_population()
    );
    println!("  {:>10} {:>7} {:>6}  site", "est. B", "allocs", "share");
    for (site, (bytes, count)) in sites.iter().take(30) {
        let share = 100.0 * *bytes as f64 / estimated.max(1) as f64;
        println!("  {bytes:>10} {count:>7} {share:>5.1}%  {site}");
    }
    BUSY.set(false);
}

/// The allocation census behind the footprint work: run with
/// `cargo test --release -p flower-cdn --test footprint census -- --ignored --nocapture`
/// (some 15 s). A function inlined into its caller is charged to the
/// caller.
#[test]
#[ignore = "a probe that prints, not a check"]
fn census() {
    census_of("flower_query");
    census_of("flower_churn");
}

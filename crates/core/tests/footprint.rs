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
//! Reverting the boxed node slots or the fold-as-produced reports fails (a);
//! reverting the world-owned output buffer fails (b) (CHANGES.md, PR 18),
//! and so does queueing message bodies in the wheel's slab again, a Chord
//! finger table that keeps room for 64 fingers (5 315 B per Squirrel
//! peer) or a Chord request table that keeps a drained burst's room
//! (5 473 B).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdn_metrics::QueryRecord;
use flower_cdn::{
    shape_params, FlowerSim, RunResult, SimDriver, SimParams, SquirrelMode, SquirrelSim,
};
use simnet::Time;

thread_local! {
    /// Bytes this thread allocated and has not freed. Const-initialised and
    /// without a destructor, so the allocator can touch it at any time.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

struct CountingBytes;

// SAFETY: every operation is delegated to `System` unchanged; the counter
// update touches only a const-initialised thread-local `Cell` and neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
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
    check("flower", footprint(FlowerSim::new), 4_993);
}

#[test]
fn squirrel_heap_follows_the_live_population() {
    let build = |p| SquirrelSim::new(p, SquirrelMode::Directory);
    check("squirrel", footprint(build), 4_552);
}

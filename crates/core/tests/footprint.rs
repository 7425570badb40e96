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
//!   needed is gone;
//! * (b) hold no more heap per live peer than recorded below, give or take
//!   10 %: no per-peer buffer came back.
//!
//! Reverting the boxed node slots or the fold-as-produced reports fails (a);
//! reverting the world-owned output buffer fails (b) (CHANGES.md, PR 18).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flower_cdn::{shape_params, FlowerSim, SimDriver, SimParams, SquirrelMode, SquirrelSim};
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

/// Live heap of the simulation (everything this thread allocated since
/// `build` was entered) at sim-minutes 60 and 120, and the population at
/// the end.
fn footprint<D: SimDriver>(build: impl FnOnce(SimParams) -> D) -> (isize, isize, usize) {
    let base = LIVE.with(Cell::get);
    let mut sim = build(params());
    sim.run_until(Time::from_millis(60 * MINUTE_MS));
    let at_60 = LIVE.with(Cell::get) - base;
    sim.run_until(Time::from_millis(120 * MINUTE_MS));
    let at_120 = LIVE.with(Cell::get) - base;
    let alive = sim.live_population();
    let result = sim.finish();
    assert!(result.stats.queries > 1_000, "the run did its work");
    (at_60, at_120, alive)
}

fn check(system: &str, (at_60, at_120, alive): (isize, isize, usize), recorded_per_peer: isize) {
    let per_peer = at_120 / alive as isize;
    println!("{system}: live heap {at_60} B @ 60 min, {at_120} B @ 120 min, {alive} alive, {per_peer} B/peer");
    assert!(
        at_120 * 100 <= at_60 * 115,
        "{system}: live heap grew with elapsed time at a stationary population: \
         {at_60} B at sim-minute 60, {at_120} B at sim-minute 120"
    );
    assert!(
        per_peer * 100 <= recorded_per_peer * 110,
        "{system}: {per_peer} B of live heap per live peer, recorded {recorded_per_peer}"
    );
}

#[test]
fn flower_heap_follows_the_live_population() {
    check("flower", footprint(FlowerSim::new), 7_642);
}

#[test]
fn squirrel_heap_follows_the_live_population() {
    let build = |p| SquirrelSim::new(p, SquirrelMode::Directory);
    check("squirrel", footprint(build), 7_624);
}

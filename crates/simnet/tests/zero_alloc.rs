//! The observability fast path is *zero-cost*, not just cheap: with no
//! trace sink attached and the profiler disabled, dispatching events
//! allocates nothing. Measured with the counting global allocator, so a
//! regression (an eager `format!`, a `Vec` built for a sink that isn't
//! there) fails the suite instead of silently taxing every run. The
//! counter is per thread, so a window counts only what the world's own
//! thread allocated: libtest's other threads (and the other tests here)
//! cannot land in it.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, Ordering};

use rand::SeedableRng;
use simnet::{Ctx, Node, NodeId, Point, Time, Topology, TopologyConfig, VecSink, World};

#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// A node that pre-arms a long ladder of one-shot timers at spawn and
/// then does nothing in its callbacks: after setup, the event loop only
/// pops and dispatches — any allocation in the measured window comes from
/// the world's own dispatch path.
struct Metronome {
    ticks: u64,
}

impl Node for Metronome {
    type Msg = ();
    type Timer = ();
    type Report = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        for i in 0..20_000u64 {
            ctx.set_timer(10 + i * 10, ());
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<Self>, _timer: ()) {
        self.ticks += 1;
    }

    fn timer_class(_t: &()) -> &'static str {
        "tick"
    }
}

fn build_world(seed: u64) -> World<Metronome, ()> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let topo = Topology::new(TopologyConfig::default(), &mut rng);
    let mut world: World<Metronome, ()> = World::new(topo, seed);
    world.spawn(Point::new(10.0, 10.0), |_, _| Metronome { ticks: 0 });
    world
}

/// The fast path, and the same workload observed as the control.
#[test]
fn dispatch_fast_path_allocates_nothing_and_observability_is_the_only_cost() {
    // --- Fast path: no sink, profiler disabled. ---
    let mut world = build_world(7);
    // Warm up: the first stretch absorbs any lazy one-time setup.
    world.run(Time::from_millis(50_000), |_, ()| {});
    assert!(world.stats().timers > 1_000, "warm-up dispatched events");

    let before = profile::alloc_count();
    world.run(Time::from_millis(150_000), |_, ()| {});
    let delta = profile::alloc_count() - before;

    let fired = world.stats().timers;
    assert!(fired > 10_000, "measured window dispatched events");
    assert_eq!(
        delta, 0,
        "no sink + disabled profiler must allocate nothing across \
         ~{fired} dispatches, saw {delta} allocations"
    );

    // --- Control: same workload with a sink attached and the profiler
    // enabled *does* allocate — the counter really measures the dispatch
    // path, and the cost lives behind the opt-in. ---
    let mut world = build_world(7);
    world.add_trace_sink(Box::new(VecSink::new()));
    world.profiler().enable();
    world.run(Time::from_millis(50_000), |_, ()| {});

    let before = profile::alloc_count();
    world.run(Time::from_millis(150_000), |_, ()| {});
    let observed = profile::alloc_count() - before;
    assert!(
        observed > 0,
        "tracing + profiling should be visible to the allocator"
    );

    // The profiler saw the dispatch phases the fast path skipped.
    let rows = world.profiler().phase_rows();
    assert!(
        rows.iter().any(|r| r.path == "timer/tick"),
        "expected a timer/tick phase, got {:?}",
        rows.iter().map(|r| r.path.clone()).collect::<Vec<_>>()
    );
}

/// A node in a 10k-peer ring: every period it pings its successor and
/// re-arms. Steady state exercises the full hot path — timer pop, message
/// schedule through the topology's latency model, delivery, re-arm — with
/// events continuously entering and leaving the wheel's slab.
struct RingPinger {
    me: usize,
    population: usize,
    period_ms: u64,
}

impl Node for RingPinger {
    type Msg = ();
    type Timer = ();
    type Report = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        // Stagger the ring so fires spread across wheel slots instead of
        // stacking on one tick.
        ctx.set_timer(self.period_ms + (self.me as u64 % 97), ());
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Ctx<Self>, _timer: ()) {
        let succ = NodeId::from_index((self.me + 1) % self.population);
        ctx.send(succ, ());
        ctx.set_timer(self.period_ms, ());
    }

    fn timer_class(_t: &()) -> &'static str {
        "ping"
    }
}

/// At P = 10_000 the steady state stays allocation-free: after warm-up
/// (slab, buckets and scratch buffers at their high-water marks) a full
/// measured minute of pops, deliveries and re-arms does not allocate once —
/// nor does a second one with the per-class message table kept (the gauge
/// runs' setting: counting on, profiler off), once its class is in.
#[test]
fn ten_thousand_node_steady_state_allocates_nothing() {
    const P: usize = 10_000;

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let topo = Topology::new(TopologyConfig::default(), &mut rng);
    let mut world: World<RingPinger, ()> = World::new(topo, 11);
    for i in 0..P {
        let x = (i % 1000) as f64;
        let y = (i / 1000) as f64;
        world.spawn(Point::new(x, y), |id, _| RingPinger {
            me: id.index(),
            population: P,
            period_ms: 500,
        });
    }

    // Warm up one minute of sim time: every node has fired repeatedly, so
    // the wheel slab and the world's scratch buffers are at capacity.
    world.run(Time::from_millis(60_000), |_, ()| {});
    let warm_events = world.stats().timers + world.stats().delivered;
    assert!(warm_events > 1_000_000, "warm-up dispatched {warm_events}");

    let before = profile::alloc_count();
    world.run(Time::from_millis(120_000), |_, ()| {});
    let delta = profile::alloc_count() - before;

    let events = world.stats().timers + world.stats().delivered - warm_events;
    assert!(events > 2_000_000, "measured window dispatched {events}");
    assert_eq!(
        delta, 0,
        "P={P} steady state must not allocate: {events} events, {delta} allocations"
    );

    world.count_messages();
    world.run(Time::from_millis(125_000), |_, ()| {});
    let before = profile::alloc_count();
    world.run(Time::from_millis(185_000), |_, ()| {});
    let delta = profile::alloc_count() - before;
    let counted = world.msg_counts()["msg"];
    assert!(counted.delivered > 1_000_000, "counted {counted:?}");
    assert_eq!(
        counted.bytes, 0,
        "wire bytes are measured only while profiling"
    );
    assert_eq!(
        delta, 0,
        "P={P} with message counting must not allocate: {delta} allocations"
    );
}

/// A node that reports once a tick, forever.
struct Teller;

impl Node for Teller {
    type Msg = ();
    type Timer = ();
    type Report = u64;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.set_timer(10, ());
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Ctx<Self>, _timer: ()) {
        ctx.report(ctx.now().as_millis());
        ctx.set_timer(10, ());
    }
}

/// `drain_reports` hands the reports out and keeps the buffer: a caller
/// that drains as often as the engine folds (at every control event) pays
/// no allocation for it.
#[test]
fn draining_reports_keeps_the_buffer() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let topo = Topology::new(TopologyConfig::default(), &mut rng);
    let mut world: World<Teller, ()> = World::new(topo, 13);
    let teller = world.spawn(Point::new(10.0, 10.0), |_, _| Teller);

    // Warm up as the other tests do (the wheel settles over the first
    // sim-minute), draining as in the measured window.
    for slice in 1..=60u64 {
        world.run(Time::from_millis(slice * 1_000), |_, ()| {});
        assert_eq!(world.drain_reports().count(), 100);
    }

    let before = profile::alloc_count();
    let mut last = 60_000;
    for slice in 61..=120u64 {
        world.run(Time::from_millis(slice * 1_000), |_, ()| {});
        for (at, id, said) in world.drain_reports() {
            assert_eq!((id, at.as_millis()), (teller, said));
            assert_eq!(said, last + 10, "reports come out in emission order");
            last = said;
        }
    }
    let delta = profile::alloc_count() - before;
    assert_eq!(last, 120_000, "every slice was drained");
    assert_eq!(delta, 0, "draining must not give the buffer away");
}

/// The counter is the calling thread's: this thread's allocations show in
/// it, and another thread allocating all through a window does not.
#[test]
fn only_the_measuring_threads_allocations_count() {
    let before = profile::alloc_count();
    black_box(vec![1u8; 16]);
    assert!(profile::alloc_count() > before, "the counter is live");

    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                spin_loop();
            }
            for i in 0..1_000u32 {
                black_box(vec![i; 4]);
            }
            done.store(true, Ordering::Release);
        });
        let before = profile::alloc_count();
        go.store(true, Ordering::Release);
        while !done.load(Ordering::Acquire) {
            spin_loop();
        }
        let delta = profile::alloc_count() - before;
        assert_eq!(delta, 0, "another thread's allocations were counted");
    });
}

//! The experiment engine, once for both systems: builds the world of §6.1
//! (topology, origin servers, the converged t=0 ring, the churn schedule),
//! runs it, and collects the measurement records.
//!
//! The paper's comparison is only meaningful because Flower-CDN and
//! Squirrel face the same topology, churn law and workload, so everything
//! they share — construction, churn, the control handler, chaos dispatch,
//! gauge sampling, the [`SimDriver`] surface — exists exactly once, in
//! [`Engine`]. What the systems really differ in is the [`SimSystem`]
//! trait, implemented by [`crate::flower::Flower`] and
//! [`crate::squirrel::Squirrel`].

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use cdn_metrics::{GaugeRegistry, QueryRecord, QueryStats};
use chord::{Chord, ChordAction, ChordId, NodeRef};
use flower_proto::io::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{ClassCount, LocalityId, NodeId, Point, Time, Topology, TraceSink, World};
use workload::{generate_sessions, Catalog, WebsiteId};

use crate::bootstrap::Bootstrap;
use crate::chaos_driver;
use crate::config::SimParams;
use crate::driver::SimDriver;
use crate::experiments::System;
use crate::host::{SimHost, TapLog, WorldLent};
use crate::peer::{FlowerReport, PeerCtx, ProtocolEvent};

/// Engine-level control events scheduled into the simulation.
pub enum Control {
    /// A fresh peer arrives (churn), interested in `website`. When its
    /// `lifetime_ms` expire it fails silently — or leaves gracefully if
    /// `graceful` (set per session from `SimParams::leave_probability`).
    Spawn {
        website: WebsiteId,
        lifetime_ms: u64,
        graceful: bool,
    },
    /// The session of `node` expires: silent failure (§6.1 — peers never
    /// leave gracefully in the headline runs), or, if `graceful`, the leave
    /// path whose hand-over (§5.2.2) runs before removal.
    Retire { node: NodeId, graceful: bool },
    /// A scheduled fault from a [`chaos::Scenario`] fires now.
    Chaos(chaos::FaultAction),
    /// Periodic gauge-sampling tick; armed by [`SimDriver::enable_gauges`]
    /// and self-rescheduling.
    Sample,
}

/// The simulated world of system `S`.
pub type SimWorld<S> = World<SimHost<<S as SimSystem>::Machine>, Control>;

/// What the two simulated systems really differ in. Everything else —
/// construction, churn, control handling, fault dispatch, sampling, result
/// collection — is [`Engine`], shared.
pub trait SimSystem: Sized {
    /// The sans-io protocol machine every peer of this system runs. Both
    /// systems report in one vocabulary, so a run folds into its
    /// [`RunResult`] the same way.
    type Machine: Machine<Report = FlowerReport>;

    /// Which of the compared systems this is (labels the perf cell).
    const SYSTEM: System;

    /// Ring id of the t=0 member `me` that stands for `(website,
    /// locality)`. Both systems start from one member per couple — the
    /// paper's `k × |W|` initial D-ring — so they share count, placement
    /// and interest assignment; only where a member sits on the ring
    /// differs.
    fn initial_ring_id(me: NodeId, website: WebsiteId, locality: LocalityId) -> ChordId;

    /// The machine of a t=0 member, given its converged Chord state.
    fn initial_machine(
        &self,
        pcx: PeerCtx,
        me: NodeId,
        locality: LocalityId,
        chord: Chord,
        startup_actions: Vec<ChordAction>,
    ) -> Self::Machine;

    /// Constructor for the machine of a peer arriving mid-run, or `None`
    /// if the arrival is lost (no overlay member of `registry` left to
    /// join through). Whatever the system draws from the engine RNG it
    /// draws here, right after the engine sampled the peer's coordinate.
    /// It keeps no borrow (`use<Self>`): the machine starts in `spawn`.
    fn arriving(
        &self,
        pcx: PeerCtx,
        registry: &Bootstrap,
        rng: &mut StdRng,
    ) -> Option<impl FnOnce(NodeId, LocalityId) -> Self::Machine + use<Self>>;

    /// Victims of a `kill-directories` fault: the peers holding the
    /// system's "who holds what" knowledge for `website` (every website if
    /// unset), at most `count` of them if set.
    fn directory_victims(
        world: &SimWorld<Self>,
        catalog: &Catalog,
        website: Option<u32>,
        count: Option<u32>,
        rng: &mut StdRng,
    ) -> Vec<NodeId>;

    /// Record this system's own gauge series for one sample (population,
    /// message rates and event-loop gauges are the engine's).
    fn sample_gauges(world: &SimWorld<Self>, record: &mut dyn FnMut(&'static str, f64));

    /// Replay already-materialized protocol state into a sink attached
    /// after construction (the engine replays the node spawns itself).
    fn replay_state(_world: &SimWorld<Self>, _sink: &mut dyn TraceSink) {}
}

/// Sampling state behind `enable_gauges`: the shared registry the samples
/// land in, plus what turns the world's cumulative counts into rates.
struct GaugeState {
    period_ms: u64,
    registry: Rc<RefCell<GaugeRegistry>>,
    /// Per delivered class: its `rate/<class>` series name, formatted once,
    /// and its delivery count at the previous sample.
    rates: BTreeMap<&'static str, (String, u64)>,
    last_events: u64,
}

/// The next exact multiple of `period_ms` strictly after `now`. Gauge
/// ticks land on aligned sim-time boundaries — `period, 2·period, …` —
/// regardless of when sampling was enabled or of jitter in the enabling
/// path, so gauge rows line up across seeds and systems.
fn next_sample_at(now: Time, period_ms: u64) -> Time {
    Time::from_millis((now.as_millis() / period_ms + 1) * period_ms)
}

impl GaugeState {
    fn new(period_ms: u64) -> GaugeState {
        assert!(period_ms > 0, "gauge period must be positive");
        GaugeState {
            period_ms,
            registry: Rc::new(RefCell::new(GaugeRegistry::new())),
            rates: BTreeMap::new(),
            last_events: 0,
        }
    }

    fn record(&self, name: &str, at_ms: u64, value: f64) {
        self.registry.borrow_mut().record(name, at_ms, value);
    }

    /// Record one `rate/<class>` point (messages per second delivered since
    /// the previous sample) for every protocol class delivered so far.
    fn sample_message_rates(&mut self, at_ms: u64, counts: &BTreeMap<&'static str, ClassCount>) {
        let secs = self.period_ms as f64 / 1000.0;
        let mut reg = self.registry.borrow_mut();
        for (&class, c) in counts.iter().filter(|(_, c)| c.delivered > 0) {
            let (name, last) = self
                .rates
                .entry(class)
                .or_insert_with(|| (format!("rate/{class}"), 0));
            reg.record(name, at_ms, (c.delivered - *last) as f64 / secs);
            *last = c.delivered;
        }
    }

    /// Record the event-loop gauges: scheduler queue depth right now and
    /// events dispatched per sim-second since the previous sample.
    fn sample_event_loop(&mut self, at_ms: u64, queue_depth: usize, total_events: u64) {
        let secs = self.period_ms as f64 / 1000.0;
        let delta = total_events - self.last_events;
        self.last_events = total_events;
        let mut reg = self.registry.borrow_mut();
        reg.record("queue_depth", at_ms, queue_depth as f64);
        reg.record("events_per_sim_sec", at_ms, delta as f64 / secs);
    }
}

/// Everything a finished run produced.
#[derive(Default)]
pub struct RunResult {
    /// Count per low-level protocol event (diagnostics). The map is
    /// sparse: a key is present iff the event was reported at least once
    /// during the run, so a missing key means zero occurrences. Counts
    /// cover the whole run regardless of warm-up windows, and Squirrel
    /// peers report in the same vocabulary, so both systems are
    /// inspectable the same way.
    pub events: BTreeMap<ProtocolEvent, u64>,
    /// One record per completed object query (active websites only).
    pub records: Vec<QueryRecord>,
    /// Directory replacements observed (position repairs, §5.2).
    pub replacements: u64,
    /// PetalUp splits observed (§4).
    pub splits: u64,
    /// Aggregate stats over `records`.
    pub stats: QueryStats,
    /// Live population when the run finished (the name is historical: it
    /// is a column of the committed `results/*.csv`; under the steady-state
    /// churn law the final population is also close to the peak).
    pub peak_population: usize,
    /// Total protocol messages delivered over the run — the paper's
    /// "incurred overhead" axis. Includes everything: maintenance
    /// (gossip, keepalive, push, DHT stabilization) and query traffic.
    pub messages_delivered: u64,
    /// Sampled gauge series (population, D-ring size, petal sizes,
    /// per-class message rates). Empty unless `enable_gauges` was called
    /// before the run.
    pub gauges: GaugeRegistry,
    /// Performance cell of this run (wall clock, events/sec, per-phase
    /// breakdown, per-class message bytes). `None` unless
    /// [`SimDriver::enable_profiling`] was called.
    pub perf: Option<profile::RunPerf>,
}

impl RunResult {
    /// Messages delivered per completed query — the cost of the achieved
    /// hit ratio.
    pub fn messages_per_query(&self) -> f64 {
        if self.stats.queries == 0 {
            0.0
        } else {
            self.messages_delivered as f64 / self.stats.queries as f64
        }
    }

    /// The schema-stable scalar summary of this run — what the sweep
    /// orchestrator aggregates and the bench binaries serialize (one CSV /
    /// JSON shape for every system; see [`cdn_metrics::RunSummary`]).
    pub fn summary(&self) -> cdn_metrics::RunSummary {
        cdn_metrics::RunSummary {
            queries: self.stats.queries,
            hits: self.stats.hits,
            hit_ratio: self.stats.hit_ratio(),
            mean_lookup_ms: self.stats.mean_lookup_ms(),
            mean_transfer_ms: self.stats.mean_transfer_ms(),
            mean_dht_hops: self.stats.mean_dht_hops(),
            messages_delivered: self.messages_delivered,
            messages_per_query: self.messages_per_query(),
            replacements: self.replacements,
            splits: self.splits,
            peak_population: self.peak_population as u64,
        }
    }
}

/// The simulation of system `S`: its world plus the engine state around it.
pub struct Engine<S: SimSystem> {
    world: SimWorld<S>,
    ctl: Controller<S>,
    /// Wall-clock and allocation baselines for the perf cell, captured at
    /// construction so setup cost is part of the measured run.
    built_at: std::time::Instant,
    alloc_base: u64,
}

/// Everything of an [`Engine`] but the world. It is a struct of its own so
/// the control handler can borrow it mutably while `World::run` holds the
/// world.
pub(crate) struct Controller<S: SimSystem> {
    system: S,
    pub(crate) params: Rc<SimParams>,
    pub(crate) catalog: Rc<Catalog>,
    /// Per-website origin server coordinates.
    origins: Vec<Point>,
    /// Engine-level randomness (placement, churn, victim selection);
    /// machines draw from their own per-node RNGs.
    pub(crate) rng: StdRng,
    gauges: Option<GaugeState>,
    /// The world's one output buffer, rendezvous registry and origin dial,
    /// lent to every host spawned.
    pub(crate) lent: WorldLent<S::Machine>,
    /// The run's result so far: reports are folded into it as the world
    /// hands them over (at every control event and at the end of every
    /// `run_until`), so none is held longer than until the next control
    /// event. [`SimDriver::finish`] fills in the rest.
    result: RunResult,
}

impl<S: SimSystem> Controller<S> {
    fn peer_ctx(&self, world: &SimWorld<S>, website: WebsiteId, at: Point) -> PeerCtx {
        let origin = self.origins[website.0 as usize];
        PeerCtx {
            catalog: Rc::clone(&self.catalog),
            params: Rc::clone(&self.params),
            website,
            origin_latency_ms: world.topology().latency_between(at, origin),
            profiler: world.profiler().clone(),
        }
    }

    /// Spawn a peer interested in `website` somewhere in `locality`
    /// (anywhere if unset), with no departure scheduled. `None` if the
    /// system dropped the arrival.
    fn spawn(
        &mut self,
        world: &mut SimWorld<S>,
        website: WebsiteId,
        locality: Option<LocalityId>,
        tap: Option<TapLog<S::Machine>>,
    ) -> Option<NodeId> {
        let at = match locality {
            Some(l) => world.topology().sample_point_in(l, &mut self.rng),
            None => world.topology().sample_point(&mut self.rng),
        };
        let pcx = self.peer_ctx(world, website, at);
        let make = self
            .system
            .arriving(pcx, &self.lent.borrow().registry, &mut self.rng)?;
        let (run_seed, lent) = (self.params.seed, Rc::clone(&self.lent));
        Some(world.spawn(at, |me, locality| {
            SimHost::new(run_seed, me, make(me, locality), lent, tap)
        }))
    }

    /// Take `id` out of the run — silently, or through its hand-over
    /// (§5.2.2) if `graceful` — and out of the rendezvous registry, which
    /// health-checks its entries.
    pub(crate) fn retire(&self, world: &mut SimWorld<S>, id: NodeId, graceful: bool) {
        if graceful {
            world.leave(id);
        } else {
            world.fail(id);
        }
        self.lent.borrow_mut().registry.remove(id);
    }

    /// Fold what the machines reported since the last call into the
    /// result, in report order.
    fn fold_reports(&mut self, world: &mut SimWorld<S>) {
        let result = &mut self.result;
        for (_, _, report) in world.drain_reports() {
            match report {
                FlowerReport::Query(q) => {
                    result.stats.record(&q);
                    result.records.push(q);
                }
                FlowerReport::BecameDirectory { replacement, .. } => {
                    result.replacements += u64::from(replacement)
                }
                FlowerReport::PetalSplit { .. } => result.splits += 1,
                FlowerReport::Event(e) => *result.events.entry(e).or_default() += 1,
            }
        }
    }

    /// The control handler `World::run` calls back into.
    fn on_control(&mut self, world: &mut SimWorld<S>, control: Control) {
        self.fold_reports(world);
        match control {
            Control::Spawn {
                website,
                lifetime_ms,
                graceful,
            } => {
                if let Some(node) = self.spawn(world, website, None, None) {
                    let end_at = world.now() + lifetime_ms;
                    world.schedule_control(end_at, Control::Retire { node, graceful });
                }
            }
            Control::Retire { node, graceful } => self.retire(world, node, graceful),
            Control::Chaos(action) => chaos_driver::dispatch(self, world, action),
            Control::Sample => {
                if let Some(g) = self.gauges.as_mut() {
                    let at = world.now().as_millis();
                    g.record("population", at, world.live_count() as f64);
                    S::sample_gauges(world, &mut |name, value| g.record(name, at, value));
                    g.sample_message_rates(at, world.msg_counts());
                    g.sample_event_loop(at, world.queue_depth(), world.stats().events_processed());
                    world.schedule_control(
                        next_sample_at(world.now(), g.period_ms),
                        Control::Sample,
                    );
                }
            }
        }
    }
}

impl<S: SimSystem> Engine<S> {
    /// Build the t=0 state: topology, origin servers, one converged ring
    /// member per (website, locality), and the churn schedule.
    pub(crate) fn build(params: SimParams, system: S) -> Engine<S> {
        let built_at = std::time::Instant::now();
        let alloc_base = profile::alloc_count();
        let params = Rc::new(params);
        let catalog = Rc::new(Catalog::new(params.catalog.clone()));
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xE61E);
        let topology = Topology::new(params.topology.clone(), &mut rng);
        let origins: Vec<Point> = (0..params.catalog.websites)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..params.topology.world_size),
                    rng.gen_range(0.0..params.topology.world_size),
                )
            })
            .collect();
        let mut sim = Engine {
            world: World::new(topology, params.seed),
            ctl: Controller {
                system,
                params,
                catalog,
                origins,
                rng,
                gauges: None,
                lent: WorldLent::<S::Machine>::default(),
                result: RunResult::default(),
            },
            built_at,
            alloc_base,
        };
        sim.spawn_initial_ring();
        sim.schedule_churn();
        sim
    }

    /// "We start with a population of k×|W| = 600 directory peers … which
    /// form the initial D-ring (one directory peer per couple)." Squirrel
    /// starts from the same members on its one ring of ordinary peers.
    fn spawn_initial_ring(&mut self) {
        // Assign node ids in spawn order and collect the ring first.
        let first = self.world.next_id().index();
        let mut members: Vec<(WebsiteId, LocalityId, NodeRef)> = Vec::new();
        for ws in 0..self.ctl.params.catalog.websites {
            for loc in 0..self.ctl.params.topology.localities {
                let me = NodeId::from_index(first + members.len());
                let (ws, loc) = (WebsiteId(ws), LocalityId(loc));
                members.push((ws, loc, NodeRef::new(me, S::initial_ring_id(me, ws, loc))));
            }
        }
        let mut ring: Vec<NodeRef> = members.iter().map(|&(_, _, r)| r).collect();
        ring.sort_by_key(|r| r.id.0);
        for (ws, loc, me_ref) in members {
            let ring_idx = ring
                .binary_search_by_key(&me_ref.id.0, |r| r.id.0)
                .expect("member in ring");
            let (chord, actions) = Chord::converged(ring_idx, &ring, self.ctl.params.chord.clone());
            let at = self
                .world
                .topology()
                .sample_point_in(loc, &mut self.ctl.rng);
            let pcx = self.ctl.peer_ctx(&self.world, ws, at);
            let (run_seed, system) = (self.ctl.params.seed, &self.ctl.system);
            let lent = Rc::clone(&self.ctl.lent);
            let spawned = self.world.spawn(at, |me, locality| {
                let machine = system.initial_machine(pcx, me, locality, chord, actions);
                SimHost::new(run_seed, me, machine, lent, None)
            });
            debug_assert_eq!(spawned, me_ref.node);
        }
    }

    /// Schedule the full churn: lifetimes for the initial members, and
    /// Poisson arrivals (each a future `Spawn`) for the rest of the run.
    fn schedule_churn(&mut self) {
        let churn = self.ctl.params.churn();
        let initial = self.ctl.params.initial_directories();
        let sessions = generate_sessions(&churn, initial, &mut self.ctl.rng);
        for (i, s) in sessions.iter().enumerate() {
            if i < initial {
                // Already spawned; only their departure is scheduled.
                let end = Control::Retire {
                    node: NodeId::from_index(i),
                    graceful: s.graceful,
                };
                self.world
                    .schedule_control(Time::from_millis(s.departure_ms()), end);
            } else {
                let website = self.ctl.catalog.assign_interest(&mut self.ctl.rng);
                self.world.schedule_control(
                    Time::from_millis(s.arrival_ms),
                    Control::Spawn {
                        website,
                        lifetime_ms: s.lifetime_ms,
                        graceful: s.graceful,
                    },
                );
            }
        }
    }

    /// Access the world (tests and ad-hoc inspection).
    pub fn world(&self) -> &SimWorld<S> {
        &self.world
    }

    /// The world's rendezvous registry (replay tests snapshot its t=0
    /// contents to reconstruct what a recorded machine saw).
    pub fn bootstrap_registry(&self) -> Ref<'_, Bootstrap> {
        Ref::map(self.ctl.lent.borrow(), |lent| &lent.registry)
    }

    /// Manually spawn a client peer interested in `website`, placed in
    /// `locality`, with no scheduled failure — protocol tests drive churn
    /// themselves. Returns its id.
    pub fn spawn_client(&mut self, website: WebsiteId, locality: LocalityId) -> NodeId {
        self.ctl
            .spawn(&mut self.world, website, Some(locality), None)
            .expect("overlay non-empty")
    }

    /// As [`Engine::spawn_client`], but recording every machine
    /// input/output exchange into `log` (the deterministic-replay test).
    pub fn spawn_client_tapped(
        &mut self,
        website: WebsiteId,
        locality: LocalityId,
        log: TapLog<S::Machine>,
    ) -> NodeId {
        self.ctl
            .spawn(&mut self.world, website, Some(locality), Some(log))
            .expect("overlay non-empty")
    }

    /// Failure injection: silently kill a specific peer right now (tests).
    pub fn fail_peer(&mut self, id: NodeId) {
        self.ctl.retire(&mut self.world, id, false);
    }

    /// Graceful departure of a specific peer (exercises the §5.2.2
    /// hand-over path, which the paper's fail-only churn never runs).
    pub fn leave_peer(&mut self, id: NodeId) {
        self.ctl.retire(&mut self.world, id, true);
    }

    /// The perf cell of a finished profiled run: the world's profiler,
    /// message table and scheduler counters against the baselines captured
    /// at construction.
    fn collect_perf(&self) -> profile::RunPerf {
        profile::RunPerf {
            system: S::SYSTEM.label().to_string(),
            population: self.ctl.params.population as u64,
            seed: self.ctl.params.seed,
            sim_hours: self.world.now().as_millis() as f64 / 3_600_000.0,
            wall_ms: self.built_at.elapsed().as_secs_f64() * 1000.0,
            events: self.world.stats().events_processed(),
            events_per_sec: 0.0,
            wall_ms_per_sim_hour: 0.0,
            peak_rss_bytes: profile::peak_rss_bytes(),
            allocs: profile::alloc_count().saturating_sub(self.alloc_base),
            allocs_per_event: 0.0,
            phases: self.world.profiler().phase_rows(),
            messages: self
                .world
                .msg_counts()
                .iter()
                .filter(|(_, c)| c.sent > 0)
                .map(|(&class, c)| profile::MsgRow {
                    class: class.to_string(),
                    count: c.sent,
                    bytes: c.bytes,
                })
                .collect(),
        }
        .with_derived()
    }
}

impl<S: SimSystem> SimDriver for Engine<S> {
    fn params(&self) -> &SimParams {
        &self.ctl.params
    }

    fn now(&self) -> Time {
        self.world.now()
    }

    fn live_population(&self) -> usize {
        self.world.live_count()
    }

    fn run_until(&mut self, t: Time) {
        let Engine { world, ctl, .. } = self;
        world.run(t, |world, control| ctl.on_control(world, control));
        ctl.fold_reports(world);
    }

    /// Faults execute in the control handler at their `at_ms`; auto-heal /
    /// revert tails (`heal-after`, `for`) are scheduled when the fault
    /// fires.
    fn apply_scenario(&mut self, scenario: &chaos::Scenario) {
        let p = &self.ctl.params;
        if let Err(e) = scenario.check_bounds(p.catalog.websites, p.topology.localities) {
            panic!("scenario does not fit this run: {e}");
        }
        for f in scenario.iter() {
            self.world
                .schedule_control(Time::from_millis(f.at_ms), Control::Chaos(f.action.clone()));
        }
    }

    /// `build` has already spawned the initial ring by the time a sink can
    /// be attached, hence the replay: one `NodeSpawn` per live node, then
    /// whatever protocol state the system replays.
    fn add_trace_sink_boxed(&mut self, mut sink: Box<dyn TraceSink>) {
        let now = self.world.now();
        for (id, _) in self.world.live_nodes() {
            let locality = self.world.topology().locality(id);
            sink.event(now, &simnet::TraceEvent::NodeSpawn { node: id, locality });
        }
        S::replay_state(&self.world, sink.as_mut());
        self.world.add_trace_sink(sink);
    }

    /// Every `period_ms` of virtual time the engine records live
    /// population, the system's own series (D-ring and petal sizes; ring
    /// size and home-directory load) and per-class message rates, read off
    /// the world's message table — no trace sink is attached.
    fn enable_gauges(&mut self, period_ms: u64) -> Rc<RefCell<GaugeRegistry>> {
        self.world.count_messages();
        let state = GaugeState::new(period_ms);
        let registry = Rc::clone(&state.registry);
        self.world
            .schedule_control(next_sample_at(self.world.now(), period_ms), Control::Sample);
        self.ctl.gauges = Some(state);
        registry
    }

    fn enable_profiling(&mut self) {
        self.world.profiler().enable();
        self.world.count_messages();
    }

    fn finish(mut self) -> RunResult {
        self.world.flush_trace_sinks();
        let perf = self
            .world
            .profiler()
            .is_enabled()
            .then(|| self.collect_perf());
        // Whatever a caller made the machines report outside `run_until`
        // (`spawn_client`, `leave_peer`).
        self.ctl.fold_reports(&mut self.world);
        let gauges = self.ctl.gauges.as_ref();
        RunResult {
            peak_population: self.world.live_count(),
            messages_delivered: self.world.stats().delivered,
            gauges: gauges.map_or_else(GaugeRegistry::new, |g| g.registry.borrow().clone()),
            perf,
            ..self.ctl.result
        }
    }
}

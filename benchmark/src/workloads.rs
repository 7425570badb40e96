//! The four workloads and one repetition of each.
//!
//! A repetition always runs in a fresh child process (`run-one`): peak RSS
//! (`VmHWM`) is process-wide and only ever grows, and allocator state left
//! by one simulation would colour the next. The child builds the inputs
//! from the seed, runs the simulation through the public driver surface and
//! prints one [`Rep`] as a JSON line.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cdn_metrics::{QueryRecord, ResolvedVia};
use flower_cdn::peer::ProtocolEvent;
use flower_cdn::{
    run_system_with, shape_params, InvariantChecker, RunResult, SimDriver, SimParams, System,
};
use simnet::Time;
use sweep::{execute_cell, run_cells, Cell, Grid, SweepOpts};

use crate::json::{counters, Json};
use crate::layers::Fold;
use crate::probe::Probing;
use crate::stats::percentile;

const MINUTE_MS: u64 = 60_000;
/// Single-simulation workloads: population climbs from the initial
/// directories to ≈ 0.78 P (uptime 20 min) during this, untimed.
const WARMUP_MS: u64 = 30 * MINUTE_MS;
/// The timed window that follows: one simulated hour.
const WINDOW_MS: u64 = 60 * MINUTE_MS;
/// The lookup-latency limit of `lookup_within_2s_share`, in sim ms. A
/// lookup that loses one application RPC (1.2 sim-s deadline) still meets
/// it; one that loses two, or a whole recursive route (3.5 sim-s), does not.
const LOOKUP_LIMIT_MS: u64 = 2_000;
/// The timed window runs in this many slices, with a host probe sample
/// before, between and after them.
const SLICES: u64 = 12;
/// `grid_small` runs this many consecutive seeds of each system.
const GRID_SEEDS: u64 = 4;

pub struct Workload {
    pub name: &'static str,
    /// Why it is in the set, in one line (also the `why` of BENCHMARK.json).
    pub why: &'static str,
    /// The knobs, for the `--out` document and the README.
    pub knobs: &'static str,
    /// Upper edge of what the host probe reads beside this workload on a
    /// quiet reference sandbox, ns per load; wall metrics are scaled back
    /// when it reads slower. Infinite: the wall is reported as measured.
    pub quiet_probe_ns: f64,
    shape: Shape,
}

enum Shape {
    /// One simulation: 30 sim-min warm-up, then one timed simulated hour.
    Single {
        system: System,
        population: usize,
        tune: fn(&mut SimParams),
    },
    /// `sweep::run_cells` over {Flower-CDN, Squirrel} × consecutive seeds,
    /// one simulated hour each, no warm-up split.
    Grid { population: usize },
}

/// The `perf` ladder's one-hour knobs (`perf --smoke` / `--scale`).
fn ladder_knobs(p: &mut SimParams) {
    p.mean_uptime_ms = 20 * MINUTE_MS;
    p.query_period_ms = 2 * MINUTE_MS;
    p.gossip_period_ms = 20 * MINUTE_MS;
}

/// Narrow the catalog to the ladder's four active websites, so that every
/// peer queries. Per-peer rates and object popularity stay the ladder's;
/// but with 4 of 20 websites active a population of a few hundred leaves a
/// few thousand queries per run, and msgs/query, hit ratio and the latency
/// metrics then swing by 10 % and more from seed to seed.
fn all_peers_query(p: &mut SimParams) {
    p.catalog.websites = 4;
    p.catalog.active_websites = 4;
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flower_query",
        why: "Hot petals: every peer queries every 20 s, so the Flower query path, gossip and Bloom \
              summaries do the work and Chord little; a Chord-maintenance change should not move it.",
        knobs: "Flower-CDN, P=3000, 8 websites / 8 active x 300 objects, uptime 30 min, \
                query period 20 s, gossip 5 min, 30 sim-min warm-up + 1 timed sim-hour",
        quiet_probe_ns: 95.0,
        shape: Shape::Single {
            system: System::FlowerCdn,
            population: 3_000,
            tune: |p| {
                p.catalog.websites = 8;
                p.catalog.active_websites = 8;
                p.mean_uptime_ms = 30 * MINUTE_MS;
                p.query_period_ms = 20_000;
                p.gossip_period_ms = 5 * MINUTE_MS;
            },
        },
    },
    Workload {
        name: "flower_churn",
        why: "Same engine under membership load: joins and failures every few sim-ms and a growing D-ring, \
              so Chord repair, control events and memory footprint dominate; shows what a query-path win costs there.",
        knobs: "Flower-CDN, P=8000, 20 websites / 4 active x 300 objects, uptime 20 min, \
                query period 2 min, gossip 20 min (the perf ladder's knobs), \
                30 sim-min warm-up + 1 timed sim-hour",
        quiet_probe_ns: 95.0,
        shape: Shape::Single {
            system: System::FlowerCdn,
            population: 8_000,
            tune: ladder_knobs,
        },
    },
    Workload {
        name: "squirrel_ring",
        why: "Every peer sits on one Chord ring and nearly all events are chord_*: the workload on which a \
              Chord maintenance budget must show its gain; tiny footprint, so cache locality should not move it.",
        knobs: "Squirrel (directory mode), P=600, 4 websites / 4 active x 300 objects, uptime 20 min, \
                query period 2 min, gossip 20 min, 30 sim-min warm-up + 1 timed sim-hour",
        quiet_probe_ns: 95.0,
        shape: Shape::Single {
            system: System::Squirrel,
            population: 600,
            tune: |p| {
                ladder_knobs(p);
                all_peers_query(p);
            },
        },
    },
    Workload {
        name: "grid_small",
        why: "What users run: a sweep grid of short cache-resident runs, where construction, per-run fixed cost \
              and result folding matter; the bypass workload that catches a large-P win paid for by small runs.",
        knobs: "sweep::run_cells --jobs 1: {Flower-CDN, Squirrel} x P=240 x seeds seed..seed+3 x 1 sim-hour, \
                perf --smoke knobs (uptime 20 min, query period 2 min, gossip 20 min) with \
                4 websites / 4 active x 300 objects; no warm-up split, outcomes pooled over the 8 runs",
        // Cache-resident cells: the host's slow phases move them less than
        // they move the probe, and scaling made ten-seed spreads wider.
        quiet_probe_ns: f64::INFINITY,
        shape: Shape::Grid { population: 240 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a repetition additionally records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing attached: the only mode wall-clock metrics come from.
    Timed,
    /// `enable_profiling()` on from construction.
    Traced,
    /// An `InvariantChecker` sink attached.
    Check,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Check => "check",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Traced, Mode::Check]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

counters! {
    /// Seed-deterministic outcome of a repetition. Identical for every
    /// repetition of a workload whatever its mode; [`Rep::digest`] hashes it.
    pub struct Outcome {
        /// Completed queries issued inside the timed window…
        pub queries,
        /// …those served from the P2P system…
        pub hits,
        /// …those resolved from the querier's own gossip view…
        pub local_view,
        /// …those whose lookup met [`LOOKUP_LIMIT_MS`]…
        pub within_limit,
        /// …those routed over the DHT, and their hops.
        pub routed,
        pub hop_sum,
        pub lookup_ms_sum,
        pub transfer_ms_sum,
        pub lookup_ms_p50,
        pub lookup_ms_p99,
        /// Completed queries of the whole run, warm-up included.
        pub completed,
        /// `RunResult::messages_delivered`, whole run.
        pub messages_delivered,
        pub replacements,
        pub splits,
        /// Live peers when the run ended (largest cell for a grid).
        pub population,
        /// Whole-run protocol diagnostics (`RunResult::events`).
        pub fetch_miss,
        pub fetch_timeout,
        pub route_failure,
        pub dir_query_timeout,
    }
}

impl Outcome {
    /// FNV-1a over every field, in declaration order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, v) in self.to_json().fields() {
            let n = v.as_f64().expect("counters are numbers") as u64;
            for b in n.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

counters! {
    /// What the `InvariantChecker` saw over a whole check repetition.
    pub struct Checked {
        pub issued,
        pub completed,
        pub violations,
    }
}

/// One repetition, as printed by the child.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub mode: Mode,
    /// Wall seconds from the parent spawning the child to the end of
    /// warm-up (`grid_small`: to the first cell starting).
    pub setup_s: f64,
    /// Wall seconds of the timed window, probe samples excluded.
    pub window_s: f64,
    /// Mean reading of the host probe over the window, ns per load.
    pub probe_ns: f64,
    /// Simulated hours inside the timed window.
    pub sim_hours: f64,
    /// `VmHWM` of the child when it finished, less the host probe's buffer.
    pub peak_rss_bytes: u64,
    pub outcome: Outcome,
    pub checked: Option<Checked>,
    pub fold: Option<Fold>,
}

impl Rep {
    /// The `outcome_digest` every repetition of a workload must share.
    pub fn digest(&self) -> u64 {
        self.outcome.digest()
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("mode", self.mode.name())
            .with("setup_s", self.setup_s)
            .with("window_s", self.window_s)
            .with("probe_ns", self.probe_ns)
            .with("sim_hours", self.sim_hours)
            .with("peak_rss_bytes", self.peak_rss_bytes)
            .with("outcome", self.outcome.to_json())
            .with("outcome_digest", format!("{:016x}", self.digest()));
        if let Some(c) = &self.checked {
            j.set("checked", c.to_json());
        }
        if let Some(f) = &self.fold {
            j.set("fold", f.to_json());
        }
        j
    }

    pub fn from_json(j: &Json) -> Result<Rep, String> {
        Ok(Rep {
            mode: Mode::parse(j.text("mode")?).ok_or("unknown mode")?,
            setup_s: j.num("setup_s")?,
            window_s: j.num("window_s")?,
            probe_ns: j.num("probe_ns")?,
            sim_hours: j.num("sim_hours")?,
            peak_rss_bytes: j.uint("peak_rss_bytes")?,
            outcome: Outcome::from_json(j.get("outcome").ok_or("rep without outcome")?)?,
            checked: j.get("checked").map(Checked::from_json).transpose()?,
            fold: j.get("fold").map(Fold::from_json).transpose()?,
        })
    }
}

/// Everything a set of finished runs adds up to; the child-side accumulator
/// behind [`Outcome`].
#[derive(Default)]
struct Tally {
    outcome: Outcome,
    /// Lookup latencies of the timed-window queries of every run, pooled.
    lookups: Vec<u64>,
    checked: Checked,
    fold: Fold,
}

impl Tally {
    /// Fold one finished run in. Only queries issued at or after
    /// `window_start_ms` count towards the outcome metrics.
    fn of_run(system: System, result: &RunResult, window_start_ms: u64) -> Tally {
        let mut t = Tally::default();
        let o = &mut t.outcome;
        let in_window = |r: &&QueryRecord| r.issued_at_ms >= window_start_ms;
        for r in result.records.iter().filter(in_window) {
            o.queries += 1;
            o.hits += u64::from(r.is_hit());
            o.local_view += u64::from(r.via == ResolvedVia::LocalView);
            o.within_limit += u64::from(r.lookup_ms <= LOOKUP_LIMIT_MS);
            if r.via == ResolvedVia::DhtRoute {
                o.routed += 1;
                o.hop_sum += u64::from(r.dht_hops);
            }
            o.lookup_ms_sum += r.lookup_ms;
            o.transfer_ms_sum += r.transfer_ms;
            t.lookups.push(r.lookup_ms);
        }
        // `summary()` is what the sweep aggregates; going through it keeps
        // result folding inside the timed window of `grid_small`.
        let summary = result.summary();
        o.completed = summary.queries;
        o.messages_delivered = summary.messages_delivered;
        o.replacements = summary.replacements;
        o.splits = summary.splits;
        o.population = summary.peak_population;
        let event = |e: ProtocolEvent| result.events.get(&e).copied().unwrap_or(0);
        o.fetch_miss = event(ProtocolEvent::FetchMiss);
        o.fetch_timeout = event(ProtocolEvent::FetchTimeout);
        o.route_failure = event(ProtocolEvent::RouteFailure);
        o.dir_query_timeout = event(ProtocolEvent::DirQueryTimeout);
        if let Some(perf) = &result.perf {
            t.fold = Fold::of_run(system, &perf.phases, &perf.messages);
        }
        t
    }

    fn absorb(&mut self, other: Tally) {
        let population = self.outcome.population.max(other.outcome.population);
        self.outcome.absorb(&other.outcome);
        self.outcome.population = population;
        self.lookups.extend(other.lookups);
        self.checked.absorb(&other.checked);
        self.fold.absorb(&other.fold);
    }

    fn record_checker(&mut self, checker: &InvariantChecker) {
        self.checked = Checked {
            issued: checker.queries_issued(),
            completed: checker.queries_completed(),
            violations: checker.violations().len() as u64,
        };
    }

    /// The outcome, with the percentiles over the pooled window queries.
    fn finish(mut self) -> Outcome {
        self.lookups.sort_unstable();
        if !self.lookups.is_empty() {
            self.outcome.lookup_ms_p50 = percentile(&self.lookups, 50.0);
            self.outcome.lookup_ms_p99 = percentile(&self.lookups, 99.0);
        }
        self.outcome
    }
}

impl Workload {
    /// Population after `--quick` scaling (÷ 10: harness smoke, not numbers).
    fn population(&self, quick: bool) -> usize {
        let p = match self.shape {
            Shape::Single { population, .. } | Shape::Grid { population } => population,
        };
        if quick {
            p / 10
        } else {
            p
        }
    }

    /// The simulation parameters, built from the seed alone (`grid_small`:
    /// of the cell run with `seed`).
    pub fn params(&self, seed: u64, quick: bool) -> SimParams {
        let mut p = shape_params(self.population(quick), seed);
        match self.shape {
            Shape::Single { tune, .. } => {
                p.horizon_ms = WARMUP_MS + WINDOW_MS;
                tune(&mut p);
            }
            Shape::Grid { .. } => {
                p.horizon_ms = WINDOW_MS;
                ladder_knobs(&mut p);
                all_peers_query(&mut p);
            }
        }
        p
    }

    /// `grid_small`: one cell per system, `GRID_SEEDS` consecutive seeds.
    fn grid(&self, seed: u64, quick: bool) -> Grid {
        let mut grid = Grid::new((seed..seed + GRID_SEEDS).collect());
        for system in [System::FlowerCdn, System::Squirrel] {
            grid.push(Cell::new(system.label(), system, self.params(seed, quick)));
        }
        grid
    }

    /// Run one repetition in this process. `spawned_at` is when the parent
    /// started the child, so set-up includes process start.
    pub fn run_rep(&self, seed: u64, quick: bool, mode: Mode, spawned_at: SystemTime) -> Rep {
        let since_spawn = || {
            SystemTime::now()
                .duration_since(spawned_at)
                .unwrap_or(Duration::ZERO)
                .as_secs_f64()
        };
        let (setup_s, window_s, probing, sim_hours, mut tally) = match self.shape {
            Shape::Single { system, .. } => {
                let params = self.params(seed, quick);
                let checker = InvariantChecker::new();
                let (mut setup_s, mut window_s) = (0.0, 0.0);
                let mut probing = None;
                let result = run_system_with(system, params, |sim| {
                    attach(sim, mode, &checker);
                    sim.run_until(Time::from_millis(WARMUP_MS));
                    setup_s = since_spawn();
                    // Built between set-up and window: it belongs to neither.
                    let probing = probing.insert(Probing::start());
                    probing.sample();
                    for slice in 1..=SLICES {
                        let started = Instant::now();
                        sim.run_until(Time::from_millis(WARMUP_MS + WINDOW_MS * slice / SLICES));
                        window_s += started.elapsed().as_secs_f64();
                        probing.sample();
                    }
                });
                let mut tally = Tally::of_run(system, &result, WARMUP_MS);
                if mode == Mode::Check {
                    tally.record_checker(&checker);
                }
                let probing = probing.expect("the driver ran the customization");
                (setup_s, window_s, probing, 1.0, tally)
            }
            Shape::Grid { .. } => {
                let grid = self.grid(seed, quick);
                let opts = SweepOpts {
                    jobs: 1,
                    gauge_period_ms: None,
                    trace_dir: None,
                    progress: false,
                    profile: mode == Mode::Traced,
                };
                let first_cell_at = OnceLock::new();
                // One sample before every cell and one after the last. (The
                // probe is built by its first sample, after set-up ends.)
                let probing = Mutex::new(None);
                let sample = || {
                    probing
                        .lock()
                        .expect("the probe never panics")
                        .get_or_insert_with(Probing::start)
                        .sample();
                };
                let per_cell = run_cells(&grid, &opts, |cell, cell_seed| {
                    first_cell_at.get_or_init(since_spawn);
                    sample();
                    if mode == Mode::Check {
                        // `execute_cell` has no hook for a sink.
                        let mut params = cell.params.clone();
                        params.seed = cell_seed;
                        let checker = InvariantChecker::new();
                        let result = run_system_with(cell.system, params, |sim| {
                            attach(sim, mode, &checker);
                        });
                        let mut tally = Tally::of_run(cell.system, &result, 0);
                        tally.record_checker(&checker);
                        tally
                    } else {
                        Tally::of_run(cell.system, &execute_cell(cell, cell_seed, &opts), 0)
                    }
                });
                let mut tally = Tally::default();
                for t in per_cell.into_iter().flatten().map(|(_, t)| t) {
                    tally.absorb(t);
                }
                sample();
                let probing = probing
                    .into_inner()
                    .expect("the probe never panics")
                    .expect("sampled at least once");
                let setup_s = *first_cell_at.get().expect("the grid has cells");
                // The probe's time is not the grid's.
                let window_s = since_spawn() - setup_s - probing.busy_s();
                let sim_hours = grid.total_runs() as f64 * WINDOW_MS as f64 / 3_600_000.0;
                (setup_s, window_s, probing, sim_hours, tally)
            }
        };
        let checked = (mode == Mode::Check).then_some(tally.checked);
        let fold = (mode == Mode::Traced).then(|| std::mem::take(&mut tally.fold));
        let outcome = tally.finish();
        Rep {
            mode,
            setup_s,
            window_s,
            probe_ns: probing.mean_ns(),
            sim_hours,
            peak_rss_bytes: probing.peak_rss_without_probe(),
            outcome,
            checked,
            fold,
        }
    }
}

/// Attach what `mode` asks for, in the order every harness of the repo uses
/// (profiler, then trace sink).
fn attach(sim: &mut dyn SimDriver, mode: Mode, checker: &InvariantChecker) {
    match mode {
        Mode::Timed => {}
        Mode::Traced => sim.enable_profiling(),
        Mode::Check => sim.add_trace_sink_boxed(Box::new(checker.clone())),
    }
}

/// Nanoseconds since the Unix epoch, for handing the spawn instant to a
/// child on its command line.
pub fn unix_nanos(t: SystemTime) -> u128 {
    t.duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_nanos()
}

pub fn from_unix_nanos(n: u128) -> SystemTime {
    UNIX_EPOCH + Duration::new((n / 1_000_000_000) as u64, (n % 1_000_000_000) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in &WORKLOADS {
            let render = |seed| format!("{:?}", w.params(seed, false));
            assert_eq!(render(47), render(47), "{}", w.name);
            assert_ne!(render(47), render(48), "{}", w.name);
        }
    }

    #[test]
    fn grid_small_is_two_systems_by_consecutive_seeds() {
        let grid = find("grid_small").unwrap().grid(47, false);
        assert_eq!(grid.seeds, [47, 48, 49, 50]);
        let systems: Vec<System> = grid.cells.iter().map(|c| c.system).collect();
        assert_eq!(systems, [System::FlowerCdn, System::Squirrel]);
        assert!(grid.cells.iter().all(|c| c.params.horizon_ms == WINDOW_MS));
        assert_eq!(grid.total_runs(), 8);
    }

    #[test]
    fn quick_divides_populations_by_ten() {
        for w in &WORKLOADS {
            let full = w.params(1, false).population;
            assert_eq!(w.params(1, true).population, full / 10);
        }
    }

    #[test]
    fn reasons_fit_the_benchmark_contract() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn digest_depends_on_every_field() {
        let base = Outcome {
            queries: 10,
            hits: 5,
            ..Outcome::default()
        };
        let mut other = base;
        other.dir_query_timeout = 1;
        assert_ne!(base.digest(), other.digest());
        assert_eq!(base.digest(), base.digest());
    }

    #[test]
    fn spawn_instant_survives_the_command_line() {
        let now = SystemTime::now();
        assert_eq!(from_unix_nanos(unix_nanos(now)), now);
    }

    #[test]
    fn rep_round_trips_through_its_json_line() {
        let w = find("grid_small").unwrap();
        for mode in [Mode::Timed, Mode::Traced, Mode::Check] {
            let rep = w.run_rep(3, true, mode, SystemTime::now());
            let line = rep.to_json().render();
            assert!(!line.contains('\n'));
            assert_eq!(Rep::from_json(&Json::parse(&line).unwrap()).unwrap(), rep);
            assert_eq!(rep.checked.is_some(), mode == Mode::Check);
            assert_eq!(rep.fold.is_some(), mode == Mode::Traced);
        }
    }
}

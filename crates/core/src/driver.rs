//! The unified simulation-driver surface.
//!
//! Run, instrument, inject faults, collect results: the [`SimDriver`]
//! trait is what a harness may do to a simulation, so experiment drivers,
//! the bench binaries and the `sweep` orchestrator are written against *a
//! simulation* (`&mut dyn SimDriver`) rather than against a system. Its
//! one implementor is [`Engine<S>`](crate::engine::Engine).
//!
//! The trait is object-safe for everything a harness needs mid-setup
//! (`&mut dyn SimDriver` works for attaching sinks, gauges and scenarios);
//! only the consuming `finish`/`run` and the sugar `add_trace_sink` are
//! `Self: Sized`.

use std::cell::RefCell;
use std::rc::Rc;

use cdn_metrics::GaugeRegistry;
use simnet::{Time, TraceSink};

use crate::config::SimParams;
use crate::engine::RunResult;

/// Common driver surface of a single-threaded deterministic simulation.
///
/// A driver is built from [`SimParams`] (plus system-specific extras),
/// optionally customized — trace sinks, gauges, a fault scenario — and
/// then run to its horizon. The contract every implementation upholds:
///
/// * **Determinism** — the same `(params, scenario, sink/gauge set)`
///   reproduces the same [`RunResult`] byte for byte, on any thread.
/// * **Self-containment** — the simulation shares nothing mutable with
///   other instances; building and running it wholly inside one worker
///   thread is always safe.
/// * **Setup order** — customizations apply before `run`/`run_until`
///   advances time past the first event.
pub trait SimDriver {
    /// The parameters this simulation was built from.
    fn params(&self) -> &SimParams;

    /// Current virtual time.
    fn now(&self) -> Time;

    /// Live peers right now.
    fn live_population(&self) -> usize;

    /// Advance virtual time to `t` (tests and time-sliced experiments).
    fn run_until(&mut self, t: Time);

    /// Schedule every fault of `scenario` into the run. Call before
    /// `run`/`run_until`; applying the same scenario to the same seed
    /// reproduces the run byte for byte. Panics if the scenario targets a
    /// website or locality the run does not have
    /// ([`chaos::Scenario::check_bounds`]).
    fn apply_scenario(&mut self, scenario: &chaos::Scenario);

    /// Attach a structured trace sink. Already-materialized world state
    /// (the t=0 population, held directory positions) is replayed into the
    /// sink first so stateful sinks start from a consistent picture.
    fn add_trace_sink_boxed(&mut self, sink: Box<dyn TraceSink>);

    /// Turn on periodic gauge sampling with this period of virtual time.
    /// Samples land on exact multiples of the period, so gauge rows align
    /// across seeds and systems. Returns a live handle to the registry;
    /// [`RunResult::gauges`] carries the same series after `finish`.
    fn enable_gauges(&mut self, period_ms: u64) -> Rc<RefCell<GaugeRegistry>>;

    /// Turn on the performance profiler: hierarchical phase timers on the
    /// event loop and protocol hot spots, plus the world's per-class send
    /// counts and wire bytes. Costs nothing until called.
    /// [`RunResult::perf`] carries the measured cell after `finish`.
    fn enable_profiling(&mut self);

    /// Consume the simulation and aggregate everything it produced.
    fn finish(self) -> RunResult
    where
        Self: Sized;

    /// Run to the configured horizon and collect results.
    fn run(mut self) -> RunResult
    where
        Self: Sized,
    {
        let horizon = Time::from_millis(self.params().horizon_ms);
        self.run_until(horizon);
        self.finish()
    }

    /// Sugar over [`SimDriver::add_trace_sink_boxed`] for concrete sims.
    fn add_trace_sink(&mut self, sink: impl TraceSink + 'static)
    where
        Self: Sized,
    {
        self.add_trace_sink_boxed(Box::new(sink));
    }
}

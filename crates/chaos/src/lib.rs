//! # chaos — scripted fault injection
//!
//! The paper's headline claim is *robustness*: Flower-CDN's maintenance
//! protocols (§5) keep hit ratio and latency stable where Squirrel's
//! directories vanish abruptly. Evaluating that claim needs more failure
//! modes than exponential fail-stop churn, so this crate provides [`Scenario`]
//! — a declarative, deterministic schedule of typed [`FaultAction`]s against a
//! running simulation: targeted directory assassination, mass join/leave
//! waves, flash crowds, locality-scoped partitions that heal after a delay,
//! per-link loss/duplication/jitter (via [`simnet::LinkConditioner`]), and
//! origin-server brownouts. Scenarios round-trip through a line-oriented text
//! format (see [`scenario`]) so they can live in files and be passed to any
//! bench harness with `--scenario FILE`.
//!
//! The crate deliberately depends only on `simnet`: protocol engines in
//! `flower-cdn` *interpret* a `Scenario` (they know what "a directory of
//! website 3" means) and measure what it did to the protocol
//! (`flower_cdn::resilience`); this crate only defines the vocabulary.

pub mod scenario;

pub use scenario::{FaultAction, ParseError, Scenario, ScheduledFault};

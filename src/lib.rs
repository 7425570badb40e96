//! # flower-cdn-repro — umbrella crate and architecture tour
//!
//! This crate re-exports the whole workspace (so the runnable examples and
//! the cross-crate integration tests have one entry point) and hosts the
//! guided tour below. See `README.md` for usage, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## The stack, bottom-up
//!
//! **[`simnet`]** is the deterministic discrete-event simulator everything
//! runs on: a virtual millisecond clock, a `(time, seq)`-ordered event
//! queue, and a synthetic 2-D latency topology with landmark-based
//! locality binning (k = 6 localities, 10–500 ms links — §6.1 of the
//! paper). A simulated node implements [`simnet::Node`] and interacts
//! with the world only through a [`simnet::Ctx`]: sends (delayed by link
//! latency, silently dropped to dead nodes), timers, and measurement
//! reports. Same seed → bit-identical run.
//!
//! Protocol code is not a `Node`: each protocol is a sans-io
//! [`flower_cdn::Machine`] that sees only the [`flower_cdn::Fx`] its host
//! lends it for one input — the time, its identity, its RNG, and the
//! host's [`flower_cdn::Lent`] (output buffer, rendezvous registry, origin
//! dial, profiler). [`flower_cdn::SimHost`] is the `Node` that drives a machine from
//! simulator callbacks; `flower-net`'s `NetNode` drives the same machine
//! from TCP frames and wall-clock timers.
//!
//! **[`chord`]** is a sans-io Chord DHT. Hosts drive it by calling
//! `handle_message` / `handle_timer` / `lookup*` and applying the returned
//! [`chord::ChordAction`]s. It carries the churn-hardening the paper's
//! 60-minute-uptime regime demands: successor *lists* with fresh-first
//! merging, strict-ownership routing termination, stranded-node detection
//! (`Isolated`), duplicate-id join refusal, jittered maintenance, and both
//! iterative (per-hop retry) and recursive (one-way-per-hop) lookups.
//!
//! **[`gossip`]** is Cyclon-style membership: aged partial views whose
//! entries piggyback an application payload — Flower-CDN uses Bloom
//! content summaries from **[`bloom`]**. Petals use the unbounded
//! freshness-union mode ("we do not limit the view size", §6.1) with
//! age-based expiry so dead contacts vanish epidemically.
//!
//! **[`workload`]** generates the paper's evaluation conditions: a catalog
//! of |W| websites × 500 Zipf-popular objects, never-ask-twice per-peer
//! query streams, and the churn law (exponential uptimes, Poisson arrivals
//! at rate P/m, fail-only departures).
//!
//! ## The paper's system
//!
//! **[`flower_cdn`]** implements the contribution. One state machine —
//! [`flower_cdn::FlowerPeer`] — covers the peer's whole life:
//!
//! 1. **Client**: a fresh peer routes its first query over D-ring (through
//!    a bootstrap directory, recursively) to `d(ws, loc)`; the directory
//!    registers it, hands it a petal view and a provider (or the origin),
//!    and the client becomes a…
//! 2. **Content peer**: resolves queries view-first (gossip summaries),
//!    then via its directory instance, then via the directory's
//!    same-website siblings, then the origin; gossips hourly; keepalives
//!    and pushes content updates to its directory (threshold 0.5); carries
//!    a `dir-info` record whose freshness-merge during gossip spreads
//!    knowledge of directory replacements (§5.1). It may be drafted as a…
//! 3. **Directory peer**: a D-ring member whose id encodes
//!    `(website, locality, instance)` so a website's directories are ring
//!    neighbours. It indexes its petal partition, answers queries,
//!    arbitrates position claims for vacant neighbours (§5.2.2),
//!    splits the petal when overloaded (PetalUp, §4), audits its own
//!    reachability (ghost-holder purge), and hands its index over on a
//!    graceful leave.
//!
//! **Squirrel** ([`flower_cdn::SquirrelSim`]) is the baseline: every peer
//! on one Chord ring, per-object home-node directories, no locality
//! awareness — implemented on the same substrates so the comparison
//! isolates the protocol difference, exactly as in §6.
//!
//! ## Where the numbers come from
//!
//! Every completed query emits a [`cdn_metrics::QueryRecord`] with the
//! §6 metrics (hit, lookup latency, transfer distance); engines aggregate
//! them into [`flower_cdn::RunResult`]s, and `flower_cdn::experiments`
//! plus the `flower-bench` harnesses turn those into Figures 3–5,
//! Table 2 and the ablations.

pub use bloom;
pub use cdn_metrics;
pub use chord;
pub use flower_cdn;
pub use gossip;
pub use simnet;
pub use workload;

//! # flower-cdn — Flower-CDN and PetalUp-CDN, with the Squirrel baseline
//!
//! Reproduction of the system described in *"Leveraging P2P overlays for
//! Large-scale and Highly Robust Content Distribution and Search"*
//! (M. El Dick, VLDB 2009 PhD Workshop), which overviews Flower-CDN
//! (EDBT 2009), its scalable variant PetalUp-CDN, and their churn
//! maintenance protocols.
//!
//! The crate provides:
//!
//! * the **peer state machine** ([`peer::FlowerPeer`]) covering all roles —
//!   client, petal content peer, D-ring directory peer — with the full
//!   maintenance suite (gossip + dir-info, keepalive/push, position claims,
//!   PetalUp splits, graceful hand-over);
//! * **D-ring key management** ([`dring`]) over the `chord` crate;
//! * the **Squirrel baseline** ([`squirrel`]) — the decentralized P2P web
//!   cache of Iyer et al. (PODC 2002) in its directory and home-store
//!   flavours over a plain Chord of all peers;
//! * one **experiment engine** ([`engine::Engine`]) driving both systems
//!   ([`flower::Flower`], [`squirrel::Squirrel`]) under the paper's §6.1
//!   workload/churn on the `simnet` simulator;
//! * **experiment drivers** ([`experiments`]) regenerating every figure and
//!   table of §6.
//!
//! ```
//! use flower_cdn::{FlowerSim, SimDriver, SimParams};
//!
//! // A miniature run: 60 peers, 20 simulated minutes, same protocol stack
//! // as the paper-scale experiments (SimParams::paper_defaults).
//! let mut params = SimParams::quick(60, 20 * 60_000);
//! params.seed = 1;
//! params.catalog.websites = 4;
//! params.catalog.active_websites = 2;
//! params.catalog.objects_per_site = 50;
//! let result = FlowerSim::new(params).run();
//! assert!(result.stats.queries > 0);
//! assert!(result.stats.hit_ratio() >= 0.0 && result.stats.hit_ratio() <= 1.0);
//! ```

// Protocol modules live in `flower-proto` (sans-io state machines); they
// are re-exported here so `flower_cdn::msg::...`-style paths keep working.
pub use flower_proto::{
    api, bootstrap, config, directory, dirinfo, dring, maintenance, msg, peer, qid, query, store,
    tags,
};

mod chaos_driver;
pub mod driver;
pub mod engine;
pub mod experiments;
pub mod flower;
pub mod host;
pub mod invariants;
pub mod resilience;
pub mod squirrel;

pub use bootstrap::Bootstrap;
pub use chaos::{FaultAction, Scenario};
pub use config::SimParams;
pub use directory::{DirectoryIndex, DirectorySnapshot};
pub use dirinfo::DirInfo;
pub use dring::DirPosition;
pub use driver::SimDriver;
pub use engine::{Control, Engine, RunResult, SimSystem};
pub use experiments::{run_comparison, run_system_with, shape_params, ComparisonRun, System};
pub use flower::{Flower, FlowerHost, FlowerSim};
pub use flower_proto::{
    machine_rng, machine_seed, ApiCall, ApiResp, Fx, Input, Lent, Machine, OriginDial, Output,
    ProviderKind, RoleKind,
};
pub use host::{SimHost, TapEntry, TapLog, WorldLent};
pub use invariants::InvariantChecker;
pub use msg::{FlowerMsg, FlowerTimer, RoutePayload, Summary};
pub use peer::{FlowerPeer, FlowerReport, PeerCtx, Role};
pub use qid::QueryId;
pub use resilience::{AvailabilityBucket, Recovery, ResilienceSummary, ResilienceTracker};
pub use squirrel::{Squirrel, SquirrelHost, SquirrelMode, SquirrelSim};
pub use store::{ContentStore, StorePolicy};

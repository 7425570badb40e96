//! # flower-proto — sans-io protocol cores
//!
//! The Flower-CDN / PetalUp-CDN peer ([`peer::FlowerPeer`]) and the
//! Squirrel baseline peer ([`squirrel::SquirrelPeer`]) as pure state
//! machines: each implements [`io::Machine`] — `handle(fx, input)` —
//! where inputs are delivered messages, timer fires and API calls, and the
//! outputs recorded through the lent [`io::Fx`] are send / set-timer /
//! report / respond commands. Both embed one query [`timeline`]: the fetch → retry → origin
//! → record path the paper's three metrics are read from.
//!
//! No I/O, no clock, no global RNG, no shared state: hosts (the
//! `flower-cdn` simulation engines, the `flower-net` TCP node, the
//! deterministic replay harness) own time, randomness, the rendezvous
//! registry and the origin dial ([`io::Lent`]) and execute the returned
//! commands. The same
//! machine under the same seed and input sequence emits byte-identical
//! output streams on every host.

pub mod api;
pub mod bootstrap;
pub mod config;
pub mod directory;
pub mod dirinfo;
pub mod dring;
pub mod io;
pub mod maintenance;
pub mod msg;
pub mod origin;
pub mod peer;
pub mod qid;
pub mod query;
pub mod squirrel;
pub mod store;
pub mod tags;
pub mod timeline;
pub mod wire;

pub use api::{ApiCall, ApiResp, ProviderKind, RoleKind};
pub use bootstrap::Bootstrap;
pub use config::SimParams;
pub use directory::{DirectoryIndex, DirectorySnapshot};
pub use dirinfo::DirInfo;
pub use dring::DirPosition;
pub use io::{machine_rng, machine_seed, Fx, Input, InputOf, Lent, Machine, Output, OutputOf};
pub use msg::{FlowerMsg, FlowerTimer, Redirect, RoutePayload, SiblingQuery, Summary};
pub use origin::OriginDial;
pub use peer::{FlowerPeer, FlowerReport, PeerCtx, Role};
pub use qid::QueryId;
pub use squirrel::{SquirrelMode, SquirrelPeer};
pub use store::{ContentStore, StorePolicy};

//! # workload — the Flower-CDN evaluation workload (§6.1)
//!
//! "For our query workload, we use synthetically generated data because
//! available web traces reflect object accesses while we are interested in
//! website accesses. Each website provides 500 objects which are
//! requestable and cacheable. We apply Zipf distribution for object
//! requests submitted to each website."
//!
//! * [`dist`] — hand-rolled, statistically tested Zipf / exponential /
//!   Poisson samplers;
//! * [`catalog`] — websites, objects, interest assignment, the
//!   never-ask-twice query draw;
//! * [`churn`] — exponential uptimes, Poisson arrivals converging to a
//!   target population, fail-only departures.

pub mod catalog;
pub mod churn;
pub mod dist;

pub use catalog::{Catalog, CatalogConfig, ObjectId, WebsiteId};
pub use churn::{generate_sessions, population_at, ArrivalReplay, ChurnConfig, Session, Sessions};
pub use dist::{sample_exp, sample_poisson_gap, Zipf};

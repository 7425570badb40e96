//! # chord — a sans-io Chord DHT
//!
//! Implementation of Chord (Stoica et al., SIGCOMM 2001), the structured
//! overlay the paper builds on twice over:
//!
//! * "We choose Chord as our DHT-based overlay and we simulate its routing
//!   and churn stabilization protocols. On top of Chord, we implement the
//!   key management service of D-ring." (§6.1)
//! * The Squirrel baseline likewise runs its home-node directory over a
//!   plain Chord among **all** peers.
//!
//! The [`Chord`] state machine is sans-io: hosts call
//! [`Chord::handle_message`] / [`Chord::handle_timer`] / [`Chord::lookup`]
//! and apply the returned [`ChordAction`]s to their network and timer
//! facilities. See the `flower-cdn` crate for the two production hosts and
//! this crate's `tests/` for a minimal reference harness.
//!
//! Robustness features exercised by the paper's churn model (mean uptime
//! 60 min, fail-only departures):
//!
//! * successor lists (`r` configurable) with fresh-first, never-shrinking
//!   stabilization-time merging — successor pointers are maintained
//!   *exclusively* by stabilize/notify (second-hand reports are trusted
//!   only for finger repair);
//! * iterative lookups with per-step deadlines, dead-node exclusion and
//!   bounded retry, plus recursive routing with whole-attempt retries;
//! * strict-ownership termination: no node claims a key without a live
//!   predecessor, so sparse tables cannot spray state across wrong owners;
//! * stranded-node detection ([`ChordAction::Isolated`]): a node that lost
//!   every successor refuses to route or answer stabilization and asks its
//!   host to re-join, which it does in place ([`Chord::rejoin`]): one
//!   `Chord`, one rid counter and one set of timer chains per node life;
//! * duplicate-id hygiene: joins onto an occupied position abort, and
//!   same-id candidates are never adopted as neighbours;
//! * jittered maintenance periods (±25 %) so rings do not stabilize in
//!   lockstep;
//! * `notify`-based predecessor tracking with liveness pings.
//!
//! `tests/churn.rs` holds the ring under sustained churn (one death and
//! one join every 2 s on a 200-node ring for 3 simulated hours) and
//! asserts ≥85 % successor-pointer correctness throughout — the regime the
//! paper's evaluation needs.

pub mod id;
pub mod node;
pub mod outstanding;
pub mod proto;

#[cfg(test)]
mod tests_unit;

pub use id::{ChordId, NodeRef};
pub use node::{Chord, ChordConfig};
pub use outstanding::{Outstanding, Request, FIRST_ATTEMPT};
pub use proto::{ChordAction, ChordMsg, ChordTimer, StepResult};

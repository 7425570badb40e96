//! # flower-net — the flower protocol on real sockets
//!
//! The sim and the network share one protocol implementation: the
//! sans-io machines of `flower-proto`. This crate is the *other* host —
//! where `flower-cdn`'s `SimHost` drives a machine from simulator
//! events, [`runtime::NetNode`] drives the identical machine from
//! loopback TCP frames and wall-clock timers.
//!
//! * [`wire`] — the length-prefixed, versioned framing and stream I/O
//!   around `flower_proto::wire`, the codec of every protocol and API
//!   message (hand-rolled, total, panic-free);
//! * [`runtime`] — listener/reader threads, the single-threaded event
//!   loop that owns the machine, and the client helpers `flower-cli`
//!   uses.

pub mod runtime;
pub mod wire;

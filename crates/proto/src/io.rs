//! The sans-io machine contract.
//!
//! A protocol core is a [`Machine`]: a pure state machine that consumes one
//! [`Input`] at a time — a delivered message, a timer fire, a local API
//! call, a start or leave notification — and records the complete list of
//! [`Output`] commands it wants executed (sends, timer arms, measurement
//! reports, API responses). The machine performs no I/O, reads no clocks
//! and shares no state: for each input the host lends it an [`Fx`] — the
//! current time, its id and locality, a deterministic RNG, whether a trace
//! sink listens, and the host's [`Lent`] (output buffer, rendezvous
//! registry, origin dial) — so the same state, inputs, seed and registry
//! always produce byte-identical output streams, whether the host is the
//! discrete-event simulator, a replay harness or a real TCP event loop.
//!
//! [`Fx`]'s API mirrors the simulator's `Ctx` (send / set_timer / report /
//! trace / now / me / locality) and records every effect as an [`Output`]
//! in call order. A machine never retires itself: a node leaves only when
//! its host removes it, after an [`Input::Leave`] or without notice.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Fields, LocalityId, NodeId, Time};

use crate::bootstrap::Bootstrap;
use crate::origin::OriginDial;

/// One event handed to a machine by its host.
///
/// Generic over the payload types, not the machine, so the derives bound
/// only what is stored; signatures say [`InputOf<M>`].
#[derive(Clone, Debug)]
pub enum Input<Msg, Timer, Api> {
    /// The machine has just been brought up.
    Start,
    /// A protocol message from `from` was delivered.
    Deliver { from: NodeId, msg: Msg },
    /// A timer armed via [`Fx::set_timer`] fired.
    Timer(Timer),
    /// A local API call (CLI client, RPC surface). Simulation hosts never
    /// produce these; the networked node does.
    Api { token: u64, call: Api },
    /// The node is leaving gracefully and may emit farewell messages.
    Leave,
}

/// The [`Input`] of machine `M`.
pub type InputOf<M> = Input<<M as Machine>::Msg, <M as Machine>::Timer, <M as Machine>::Api>;

/// One command a machine asks its host to execute.
///
/// Generic over the payload types for the same reason as [`Input`];
/// signatures say [`OutputOf<M>`].
#[derive(Clone, Debug)]
pub enum Output<Msg, Timer, Report, ApiResp> {
    /// Send `msg` to `to` (unreliable; the protocol tolerates loss).
    Send { to: NodeId, msg: Msg },
    /// Deliver `timer` back to this machine after `delay_ms`.
    SetTimer { delay_ms: u64, timer: Timer },
    /// Emit a measurement record for the experiment engine.
    Report(Report),
    /// A structured trace event (only emitted while a sink listens).
    Trace { name: &'static str, fields: Fields },
    /// Answer the API call identified by `token`.
    Respond { token: u64, resp: ApiResp },
}

/// The [`Output`] of machine `M`.
pub type OutputOf<M> = Output<
    <M as Machine>::Msg,
    <M as Machine>::Timer,
    <M as Machine>::Report,
    <M as Machine>::ApiResp,
>;

/// A pure protocol state machine.
pub trait Machine: Sized {
    /// Wire message type exchanged between machines of this protocol.
    type Msg: Clone;
    /// Timer tag type delivered back via [`Output::SetTimer`].
    type Timer: Clone;
    /// Measurement record type collected by the experiment engine.
    type Report: Clone;
    /// Local API request type (empty `()` for machines with no API).
    type Api: Clone;
    /// Local API response type.
    type ApiResp: Clone;

    /// Consume one input and record every resulting command through `ctx`,
    /// in order. Its buffer is the host's: a host that drains it after each
    /// call reuses one allocation per node in steady state.
    fn handle(&mut self, ctx: Fx<'_, Self>, input: InputOf<Self>);

    /// Stable protocol class of a message (trace/gauge/profiler label).
    fn msg_class(_msg: &Self::Msg) -> &'static str {
        "msg"
    }

    /// Stable protocol class of a timer (trace/profiler label).
    fn timer_class(_timer: &Self::Timer) -> &'static str {
        "timer"
    }

    /// Serialized size of `msg` on the wire, in bytes, for the profiler's
    /// per-class overhead accounting. Both protocols override the default
    /// with the measured length of the codec's encoding ([`crate::wire`]).
    fn msg_wire_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// Derive the per-machine RNG seed from the run seed and the node id.
///
/// Every host (sim engine, net node, replay harness) must use this so a
/// machine's random choices depend only on `(run seed, node id, its own
/// input sequence)` — the property the deterministic-replay test relies on.
pub fn machine_seed(run_seed: u64, me: NodeId) -> u64 {
    // SplitMix64 finalizer over the combined words: cheap, well-mixed, and
    // stable across platforms.
    let mut z = run_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(me.raw().wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construct the host-side RNG for one machine.
pub fn machine_rng(run_seed: u64, me: NodeId) -> StdRng {
    StdRng::seed_from_u64(machine_seed(run_seed, me))
}

/// What a host owns and lends its machines, one exchange at a time,
/// besides each machine's own RNG. The simulator keeps one per world, the
/// TCP node one of its own, a replay harness or a unit test a local one.
pub struct Lent<M: Machine> {
    /// The exchange's outputs in call order; the host drains it after
    /// every `handle`, so its capacity is reused.
    pub out: Vec<OutputOf<M>>,
    pub registry: Bootstrap,
    pub dial: OriginDial,
}

impl<M: Machine> Default for Lent<M> {
    fn default() -> Lent<M> {
        Lent {
            out: Vec::new(),
            registry: Bootstrap::new(),
            dial: OriginDial::default(),
        }
    }
}

/// The context a host lends a machine for one [`Machine::handle`] call.
/// Mirrors the simulator `Ctx` API so protocol code is written once and
/// runs under any host.
pub struct Fx<'a, M: Machine> {
    now: Time,
    me: NodeId,
    locality: LocalityId,
    /// The host-owned deterministic RNG for this machine.
    pub rng: &'a mut StdRng,
    /// The host's rendezvous registry; picks draw from `rng`.
    pub registry: &'a mut Bootstrap,
    /// Origin health: a chaos brownout adds to every origin round trip.
    pub dial: &'a OriginDial,
    tracing: bool,
    outputs: &'a mut Vec<OutputOf<M>>,
}

impl<'a, M: Machine> Fx<'a, M> {
    /// Lend node `me` at `locality` the time `now`, its RNG and the host's
    /// `lent` state for one `handle` call; effects are appended to
    /// `lent.out` in call order, trace events only while `tracing`.
    pub fn new(
        now: Time,
        me: NodeId,
        locality: LocalityId,
        rng: &'a mut StdRng,
        tracing: bool,
        lent: &'a mut Lent<M>,
    ) -> Fx<'a, M> {
        Fx {
            now,
            me,
            locality,
            rng,
            registry: &mut lent.registry,
            dial: &lent.dial,
            tracing,
            outputs: &mut lent.out,
        }
    }

    /// The current time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// This node's physical locality (landmark bin).
    pub fn locality(&self) -> LocalityId {
        self.locality
    }

    /// Send `msg` to `to`.
    pub fn send(&mut self, to: NodeId, msg: M::Msg) {
        self.outputs.push(Output::Send { to, msg });
    }

    /// Arrange for `timer` to be delivered back after `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: u64, timer: M::Timer) {
        self.outputs.push(Output::SetTimer { delay_ms, timer });
    }

    /// Emit a measurement record.
    pub fn report(&mut self, r: M::Report) {
        self.outputs.push(Output::Report(r));
    }

    /// Answer the API call identified by `token`.
    pub fn respond(&mut self, token: u64, resp: M::ApiResp) {
        self.outputs.push(Output::Respond { token, resp });
    }

    /// Emit a protocol trace event. `fields` is a closure so field
    /// construction costs nothing when no sink is attached.
    pub fn trace(&mut self, name: &'static str, fields: impl FnOnce() -> Fields) {
        if self.tracing {
            self.outputs.push(Output::Trace {
                name,
                fields: fields(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Machine for Echo {
        type Msg = u8;
        type Timer = u8;
        type Report = ();
        type Api = ();
        type ApiResp = ();
        fn handle(&mut self, mut fx: Fx<'_, Self>, input: InputOf<Self>) {
            if let Input::Deliver { from, msg } = input {
                fx.send(from, msg);
                fx.set_timer(5, msg);
            }
        }
    }

    #[test]
    fn fx_records_effects_in_call_order() {
        let me = NodeId::from_index(0);
        let mut rng = machine_rng(1, me);
        let mut lent = Lent::default();
        Echo.handle(
            Fx::new(Time::ZERO, me, LocalityId(0), &mut rng, false, &mut lent),
            Input::Deliver {
                from: NodeId::from_index(7),
                msg: 3,
            },
        );
        let out = lent.out;
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], Output::Send { to, msg: 3 } if to == NodeId::from_index(7)));
        assert!(matches!(
            out[1],
            Output::SetTimer {
                delay_ms: 5,
                timer: 3
            }
        ));
    }

    #[test]
    fn machine_seed_is_stable_and_distinct_per_node() {
        let a = machine_seed(42, NodeId::from_index(1));
        let b = machine_seed(42, NodeId::from_index(2));
        let a2 = machine_seed(42, NodeId::from_index(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(machine_seed(43, NodeId::from_index(1)), a);
    }
}

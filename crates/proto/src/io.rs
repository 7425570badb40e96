//! The sans-io machine contract.
//!
//! A protocol core is a [`Machine`]: a pure state machine that consumes one
//! [`Input`] at a time — a delivered message, a timer fire, a local API
//! call, a start or leave notification — and appends to the host's buffer
//! the complete list of [`Output`] commands it wants executed (sends, timer
//! arms, measurement reports, API responses). The machine performs no I/O and
//! reads no clocks: the host supplies the current time and a deterministic
//! RNG through [`Env`], so the same machine state, the same input sequence
//! and the same RNG seed always produce byte-identical output streams —
//! whether the host is the discrete-event simulator, a replay harness or a
//! real TCP event loop.
//!
//! Protocol method bodies are written against [`Fx`], an effects buffer
//! whose API mirrors the simulator's `Ctx` (send / set_timer / report /
//! trace / now / me / locality / stop) and records every effect as an
//! [`Output`] in call order.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Fields, LocalityId, NodeId, Time};

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
    /// A structured trace event (only emitted when [`Env::tracing`]).
    Trace { name: &'static str, fields: Fields },
    /// Answer the API call identified by `token`.
    Respond { token: u64, resp: ApiResp },
    /// Retire this node (voluntary shutdown).
    Stop,
}

/// The [`Output`] of machine `M`.
pub type OutputOf<M> = Output<
    <M as Machine>::Msg,
    <M as Machine>::Timer,
    <M as Machine>::Report,
    <M as Machine>::ApiResp,
>;

/// Host-supplied execution environment for one [`Machine::handle`] call.
pub struct Env<'a> {
    /// Current time (virtual in the simulator, wall-clock in `net`).
    pub now: Time,
    /// This node's id.
    pub me: NodeId,
    /// This node's physical locality (landmark bin).
    pub locality: LocalityId,
    /// The host-owned deterministic RNG for this machine.
    pub rng: &'a mut StdRng,
    /// Whether a trace sink is attached (machines skip trace-only work
    /// otherwise).
    pub tracing: bool,
}

impl<'a> Env<'a> {
    /// An environment for tests and replay: time `now_ms`, no tracing.
    pub fn bare(now_ms: u64, me: NodeId, locality: LocalityId, rng: &'a mut StdRng) -> Env<'a> {
        Env {
            now: Time::from_millis(now_ms),
            me,
            locality,
            rng,
            tracing: false,
        }
    }
}

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

    /// Consume one input and append every resulting command to `out`, in
    /// order. `out` is the host's buffer: a host that drains it after each
    /// call reuses one allocation per node in steady state.
    fn handle(&mut self, env: Env<'_>, input: InputOf<Self>, out: &mut Vec<OutputOf<Self>>);

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

/// Effects buffer handed to protocol method bodies. Mirrors the simulator
/// `Ctx` API so protocol code is written once and runs under any host.
pub struct Fx<'a, M: Machine> {
    now: Time,
    me: NodeId,
    locality: LocalityId,
    /// The host-owned deterministic RNG for this machine.
    pub rng: &'a mut StdRng,
    tracing: bool,
    outputs: &'a mut Vec<OutputOf<M>>,
}

impl<'a, M: Machine> Fx<'a, M> {
    /// Open an effects buffer over `env` for one `handle` call; effects are
    /// appended to `out` in call order.
    pub fn new(env: Env<'a>, out: &'a mut Vec<OutputOf<M>>) -> Fx<'a, M> {
        Fx {
            now: env.now,
            me: env.me,
            locality: env.locality,
            rng: env.rng,
            tracing: env.tracing,
            outputs: out,
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

    /// Retire this node after the current input is processed.
    pub fn stop(&mut self) {
        self.outputs.push(Output::Stop);
    }

    /// Whether a trace sink is attached to the host.
    pub fn tracing(&self) -> bool {
        self.tracing
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
        fn handle(&mut self, env: Env<'_>, input: InputOf<Self>, out: &mut Vec<OutputOf<Self>>) {
            let mut fx = Fx::<Self>::new(env, out);
            if let Input::Deliver { from, msg } = input {
                fx.send(from, msg);
                fx.set_timer(5, msg);
            }
        }
    }

    #[test]
    fn fx_records_effects_in_call_order() {
        let mut rng = machine_rng(1, NodeId::from_index(0));
        let env = Env::bare(0, NodeId::from_index(0), LocalityId(0), &mut rng);
        let mut out = Vec::new();
        Echo.handle(
            env,
            Input::Deliver {
                from: NodeId::from_index(7),
                msg: 3,
            },
            &mut out,
        );
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

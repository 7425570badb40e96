//! The simulation host for sans-io protocol machines.
//!
//! [`SimHost`] wraps a [`Machine`] together with its host-owned RNG and
//! implements the simulator's [`Node`] trait by building an [`Env`] from
//! the callback [`Ctx`], running [`Machine::handle`], and draining the
//! returned [`Output`] commands back into the `Ctx` buffers, one buffer per
//! kind. The world applies them kind by kind — trace events, then sends,
//! then timers, then reports — each kind in the order the protocol emitted
//! it (`World::with_node`; every pin in the repository rests on that
//! order), and the machine itself never touches simulator types.
//!
//! The buffer the machine writes into is the world's, not the host's
//! ([`OutputBuf`]).
//!
//! An optional **tap** records every `(input, outputs)` exchange — the
//! deterministic-replay test replays the recorded inputs against a fresh
//! machine and asserts the output streams are byte-identical.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use flower_proto::io::{machine_rng, Env, Input, InputOf, Machine, Output, OutputOf};
use rand::rngs::StdRng;
use simnet::{Ctx, Node, NodeId, Time};

/// One recorded `handle` exchange (tap attached).
pub struct TapEntry<M: Machine> {
    pub now: Time,
    pub input: InputOf<M>,
    pub outputs: Vec<OutputOf<M>>,
}

/// Shared recording buffer for one tapped host.
pub type TapLog<M> = Rc<RefCell<Vec<TapEntry<M>>>>;

/// The buffer machines write their outputs to: one per world, owned by the
/// engine and lent to every host it spawns. A host fills and drains it
/// within one `handle` exchange and the world runs one callback at a time,
/// so it is always empty between exchanges and its capacity — the largest
/// burst any machine ever emitted — exists once, not once per peer (a
/// buffer per host held 9 MiB over 8 000 peers, each at its own largest
/// burst for the peer's whole life).
pub type OutputBuf<M> = Rc<RefCell<Vec<OutputOf<M>>>>;

/// A [`Machine`] plus the host-side state the simulator owns for it: its
/// deterministic RNG (seeded via [`machine_rng`]), the world's output
/// buffer and an optional tap.
pub struct SimHost<M: Machine> {
    machine: M,
    rng: StdRng,
    tap: Option<TapLog<M>>,
    out: OutputBuf<M>,
}

impl<M: Machine> SimHost<M> {
    /// Host `machine` under `run_seed`; the RNG is derived per-node so a
    /// machine's draws depend only on the run seed, its id and its own
    /// input sequence. `out` is the world's output buffer. With a `tap`,
    /// every exchange is recorded into it.
    pub fn new(
        run_seed: u64,
        me: NodeId,
        machine: M,
        out: OutputBuf<M>,
        tap: Option<TapLog<M>>,
    ) -> SimHost<M> {
        SimHost {
            machine,
            rng: machine_rng(run_seed, me),
            tap,
            out,
        }
    }

    /// The hosted machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    fn drive(&mut self, ctx: &mut Ctx<Self>, input: InputOf<M>) {
        let recorded = self.tap.is_some().then(|| input.clone());
        let env = Env {
            now: ctx.now(),
            me: ctx.me(),
            locality: ctx.locality(),
            rng: &mut self.rng,
            tracing: ctx.tracing(),
        };
        // Nothing below calls back into a host, so the borrow is unique.
        let mut outputs = self.out.borrow_mut();
        self.machine.handle(env, input, &mut outputs);
        if let (Some(tap), Some(input)) = (&self.tap, recorded) {
            tap.borrow_mut().push(TapEntry {
                now: ctx.now(),
                input,
                outputs: outputs.clone(),
            });
        }
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg } => ctx.send(to, msg),
                Output::SetTimer { delay_ms, timer } => ctx.set_timer(delay_ms, timer),
                Output::Report(r) => ctx.report(r),
                Output::Trace { name, fields } => ctx.trace(name, || fields),
                // The simulator has no API clients; responses are inert.
                Output::Respond { .. } => {}
                Output::Stop => ctx.stop(),
            }
        }
    }
}

/// Engine introspection (`host.is_directory()`, gauges, ring probes) reads
/// the machine directly through the host.
impl<M: Machine> Deref for SimHost<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.machine
    }
}

impl<M: Machine> DerefMut for SimHost<M> {
    fn deref_mut(&mut self) -> &mut M {
        &mut self.machine
    }
}

impl<M: Machine> Node for SimHost<M> {
    type Msg = M::Msg;
    type Timer = M::Timer;
    type Report = M::Report;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        self.drive(ctx, Input::Start);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: NodeId, msg: M::Msg) {
        self.drive(ctx, Input::Deliver { from, msg });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self>, timer: M::Timer) {
        self.drive(ctx, Input::Timer(timer));
    }

    fn on_leave(&mut self, ctx: &mut Ctx<Self>) {
        self.drive(ctx, Input::Leave);
    }

    fn msg_class(msg: &M::Msg) -> &'static str {
        M::msg_class(msg)
    }

    fn timer_class(timer: &M::Timer) -> &'static str {
        M::timer_class(timer)
    }

    fn msg_wire_bytes(msg: &M::Msg) -> usize {
        M::msg_wire_bytes(msg)
    }
}

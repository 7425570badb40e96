//! The simulation host for sans-io protocol machines.
//!
//! [`SimHost`] wraps a [`Machine`] together with its host-owned RNG and
//! implements the simulator's [`Node`] trait by building an [`Env`] from
//! the callback [`Ctx`], running [`Machine::handle`], and draining the
//! returned [`Output`] commands back into the `Ctx` buffers. The world
//! therefore applies effects in exactly the order the protocol emitted
//! them, and the machine itself never touches simulator types.
//!
//! An optional **tap** records every `(input, outputs)` exchange — the
//! deterministic-replay test replays the recorded inputs against a fresh
//! machine and asserts the output streams are byte-identical.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use flower_proto::io::{machine_rng, Env, Input, Machine, Output};
use rand::rngs::StdRng;
use simnet::{Ctx, Node, NodeId, Time};

/// One recorded `handle` exchange (tap attached).
pub struct TapEntry<M: Machine> {
    pub now: Time,
    pub input: Input<M>,
    pub outputs: Vec<Output<M>>,
}

/// Shared recording buffer for one tapped host.
pub type TapLog<M> = Rc<RefCell<Vec<TapEntry<M>>>>;

/// A [`Machine`] plus the host-side state the simulator owns for it: its
/// deterministic RNG (seeded via [`machine_rng`]) and an optional tap.
pub struct SimHost<M: Machine> {
    machine: M,
    rng: StdRng,
    tap: Option<TapLog<M>>,
    /// The buffer the machine writes its outputs to, drained after every
    /// `handle` call, so steady-state dispatch reuses one allocation per
    /// node.
    scratch: Vec<Output<M>>,
}

impl<M: Machine> SimHost<M> {
    /// Host `machine` under `run_seed`; the RNG is derived per-node so a
    /// machine's draws depend only on the run seed, its id and its own
    /// input sequence. With a `tap`, every exchange is recorded into it.
    pub fn new(run_seed: u64, me: NodeId, machine: M, tap: Option<TapLog<M>>) -> SimHost<M> {
        SimHost {
            machine,
            rng: machine_rng(run_seed, me),
            tap,
            scratch: Vec::new(),
        }
    }

    /// The hosted machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    fn drive(&mut self, ctx: &mut Ctx<Self>, input: Input<M>) {
        let recorded = self.tap.is_some().then(|| input.clone());
        let env = Env {
            now: ctx.now(),
            me: ctx.me(),
            locality: ctx.locality(),
            rng: &mut self.rng,
            tracing: ctx.tracing(),
        };
        self.machine.handle(env, input, &mut self.scratch);
        if let (Some(tap), Some(input)) = (&self.tap, recorded) {
            tap.borrow_mut().push(TapEntry {
                now: ctx.now(),
                input,
                outputs: self.scratch.clone(),
            });
        }
        for out in self.scratch.drain(..) {
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

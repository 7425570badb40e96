//! The simulation host for sans-io protocol machines.
//!
//! [`SimHost`] wraps a [`Machine`] together with its host-owned RNG and
//! implements the simulator's [`Node`] trait by lending the machine an
//! [`Fx`] built from the callback [`Ctx`] (its time, id, locality and
//! tracing flag, the host's RNG, the world's [`Lent`]), running
//! [`Machine::handle`], and draining the recorded [`Output`] commands back
//! into the `Ctx` buffers, one buffer per kind. The world applies them
//! kind by kind — trace events, then sends, then timers, then reports —
//! each kind in the order the protocol emitted it (`World::with_node`;
//! every pin in the repository rests on that order), and the machine
//! itself never touches simulator types. Only the world removes a node
//! (`World::fail`, `World::leave`); a machine cannot retire itself.
//!
//! The buffer the machine writes into, the rendezvous registry and the
//! origin dial are the world's, not the host's ([`WorldLent`]).
//!
//! An optional **tap** records every `(input, outputs)` exchange — the
//! deterministic-replay test replays the recorded inputs against a fresh
//! machine and asserts the output streams are byte-identical.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use flower_proto::io::{machine_rng, Fx, Input, InputOf, Lent, Machine, Output, OutputOf};
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

/// What machines are lent: one [`Lent`] per world, owned by the engine and
/// handed to every host it spawns. Its output buffer is filled and drained
/// within one `handle` exchange and the world runs one callback at a time,
/// so it is always empty between exchanges and its capacity — the largest
/// burst any machine ever emitted — exists once, not once per peer (a
/// buffer per host held 9 MiB over 8 000 peers, each at its own largest
/// burst for the peer's whole life). The engine and the chaos dispatch
/// prune its registry and turn its dial between exchanges.
pub type WorldLent<M> = Rc<RefCell<Lent<M>>>;

/// A [`Machine`] plus the host-side state the simulator owns for it: its
/// deterministic RNG (seeded via [`machine_rng`]), the world's [`Lent`]
/// and an optional tap.
pub struct SimHost<M: Machine> {
    machine: M,
    rng: StdRng,
    tap: Option<TapLog<M>>,
    lent: WorldLent<M>,
}

impl<M: Machine> SimHost<M> {
    /// Host `machine` under `run_seed`; the RNG is derived per-node so a
    /// machine's draws depend only on the run seed, its id and its own
    /// input sequence. `lent` is the world's. With a `tap`, every exchange
    /// is recorded into it.
    pub fn new(
        run_seed: u64,
        me: NodeId,
        machine: M,
        lent: WorldLent<M>,
        tap: Option<TapLog<M>>,
    ) -> SimHost<M> {
        SimHost {
            machine,
            rng: machine_rng(run_seed, me),
            tap,
            lent,
        }
    }

    fn drive(&mut self, ctx: &mut Ctx<Self>, input: InputOf<M>) {
        let recorded = self.tap.is_some().then(|| input.clone());
        // Nothing below calls back into a host, so the borrow is unique.
        let mut lent = self.lent.borrow_mut();
        let fx = Fx::new(
            ctx.now(),
            ctx.me(),
            ctx.locality(),
            &mut self.rng,
            ctx.tracing(),
            &mut lent,
        );
        self.machine.handle(fx, input);
        if let (Some(tap), Some(input)) = (&self.tap, recorded) {
            tap.borrow_mut().push(TapEntry {
                now: ctx.now(),
                input,
                outputs: lent.out.clone(),
            });
        }
        for out in lent.out.drain(..) {
            match out {
                Output::Send { to, msg } => ctx.send(to, msg),
                Output::SetTimer { delay_ms, timer } => ctx.set_timer(delay_ms, timer),
                Output::Report(r) => ctx.report(r),
                Output::Trace { name, fields } => ctx.trace(name, || fields),
                // The simulator has no API clients; responses are inert.
                Output::Respond { .. } => {}
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

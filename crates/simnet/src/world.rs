//! The discrete-event simulation world.
//!
//! A [`World`] owns a set of protocol nodes (anything implementing [`Node`]),
//! a [`Topology`] that prices each link in milliseconds, and a time-ordered
//! event queue. It is strictly single-threaded and fully deterministic: the
//! same seed and the same schedule of control events produce bit-identical
//! runs (ties in the queue are broken by sequence number: the order of
//! scheduling, or of reservation for an event scheduled under a reserved
//! seq). The world draws no randomness of its own; the seed only drives the
//! [`LinkConditioner`], and a node that needs random numbers carries its own
//! generator.
//!
//! The queue is a two-level timer [`Wheel`]: event
//! payloads live in a flat slab and schedule/pop/cancel are O(1) on the hot
//! path, with no allocation once the slab's free list and the per-callback
//! scratch buffers have warmed up (`tests/zero_alloc.rs` asserts this with
//! the counting allocator).
//!
//! A queued event is a handle, not a message: a delivery names a slot of
//! the world's own slab of in-flight message bodies, so every slot of the
//! wheel is sized for a timer tag or a control event, not for the largest
//! message. Most of a churning run's queue is armed timers and scheduled
//! departures; only a few hundred messages are ever in flight.
//!
//! Nodes are *sans-io*: they only interact with the world through the
//! [`Ctx`] handed to their callbacks, which records sends, timers and report
//! emissions to be applied after the callback returns.
//!
//! Memory follows the *live* population. Every id ever spawned keeps one
//! slot in the node table, but the node itself is boxed and dropped the
//! moment it fails or leaves, so a dead peer costs a pointer (plus
//! its topology coordinates); and reports are handed out by
//! [`World::drain_reports`] from a buffer the world keeps, so an engine can
//! fold them as often as it likes.

use std::collections::BTreeMap;
use std::fmt;

use profile::Profiler;

use crate::conditioner::{LinkConditioner, LinkVerdict};
use crate::topology::{LocalityId, Point, Topology};
use crate::trace::{DropReason, Fields, TraceEvent, TraceSink};
use crate::wheel::Wheel;
use crate::Time;

/// Dense identifier of a node in a [`World`]. Ids are never reused: a peer
/// that fails and later "re-joins" (churn) is a brand-new node with a fresh
/// id, matching the paper's model where a re-joining peer starts cold. An
/// id outlives its node: it still indexes the node table (an empty slot),
/// the topology and the wheel's owner lists after the node's state is
/// freed.
///
/// Ids are 32-bit — they index struct-of-arrays state (topology coordinates,
/// localities, the wheel's cancel lists) and ride inside every queued event,
/// so halving them pays for itself at 10⁵–10⁶ peers. [`NodeId::raw`] still
/// widens to `u64` so seed derivation (`machine_seed`) and the wire codec
/// are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    pub fn from_index(i: usize) -> NodeId {
        assert!(i < u32::MAX as usize, "node index {i} exceeds NodeId range");
        NodeId(i as u32)
    }
    pub fn index(self) -> usize {
        self.0 as usize
    }
    pub fn raw(self) -> u64 {
        u64::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol participant. Implementations hold all per-peer protocol state;
/// the associated types define the node's wire messages, timer tags and the
/// measurement records it emits.
pub trait Node {
    /// Wire message type exchanged between nodes of this world.
    type Msg: Clone;
    /// Timer tag type delivered back by [`Ctx::set_timer`].
    type Timer: Clone;
    /// Measurement record type collected by the experiment engine.
    type Report;

    /// Called once when the node is spawned.
    fn on_start(&mut self, ctx: &mut Ctx<Self>);

    /// Called when a message from `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<Self>, timer: Self::Timer);

    /// Called when the node leaves *gracefully* (it may send farewell
    /// messages). Silent failures — the paper's worst case — skip this.
    fn on_leave(&mut self, _ctx: &mut Ctx<Self>) {}

    /// Stable protocol class of a message, used to label `MsgSend` /
    /// `MsgDeliver` trace events, the world's per-class message counts and
    /// the profiler's per-class dispatch phases. Only called when a trace
    /// sink is attached, the profiler is enabled or message counting is on.
    fn msg_class(_msg: &Self::Msg) -> &'static str {
        "msg"
    }

    /// Stable protocol class of a timer, used to label `TimerSet` /
    /// `TimerFire` trace events and profiler phases. Only called when a
    /// trace sink is attached or the profiler is enabled.
    fn timer_class(_timer: &Self::Timer) -> &'static str {
        "timer"
    }

    /// Serialized size of `msg` on the wire, in bytes, for the per-class
    /// byte counts of a profiled run. The default — the message's
    /// in-memory size — is a stand-in for nodes without a codec; the
    /// protocols override it with the length their codec measures. Only
    /// called when the profiler is enabled.
    fn msg_wire_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// Execution context passed to node callbacks. Collects the node's outputs
/// (sends, timers, reports) and exposes the node's identity, the current
/// time and its locality.
///
/// The output `Vec`s are on loan from the world's scratch pool: they keep
/// their capacity across callbacks, so steady-state dispatch allocates
/// nothing.
pub struct Ctx<N: Node + ?Sized> {
    now: Time,
    me: NodeId,
    locality: LocalityId,
    sends: Vec<(NodeId, N::Msg)>,
    timers: Vec<(u64, N::Timer)>,
    reports: Vec<N::Report>,
    tracing: bool,
    customs: Vec<(&'static str, Fields)>,
}

impl<N: Node + ?Sized> Ctx<N> {
    /// The current virtual time.
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

    /// Send `msg` to `to`. Delivery is delayed by the topology's one-way
    /// link latency; messages to nodes that are dead *at delivery time* are
    /// silently dropped (the sender learns of failures only via timeouts,
    /// as in a real network).
    pub fn send(&mut self, to: NodeId, msg: N::Msg) {
        self.sends.push((to, msg));
    }

    /// Arrange for `timer` to be delivered to this node after `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: u64, timer: N::Timer) {
        self.timers.push((delay_ms, timer));
    }

    /// Emit a measurement record for the experiment engine.
    pub fn report(&mut self, r: N::Report) {
        self.reports.push(r);
    }

    /// Whether a trace sink is attached to the world. Protocol code can
    /// consult this to skip expensive trace-only bookkeeping.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Emit a protocol-defined [`TraceEvent::Custom`] attributed to this
    /// node. `fields` is a closure so field construction costs nothing when
    /// no sink is attached.
    pub fn trace(&mut self, name: &'static str, fields: impl FnOnce() -> Fields) {
        if self.tracing {
            self.customs.push((name, fields()));
        }
    }
}

/// A queued event: a message delivery, a timer fire, or a control event
/// for the experiment engine. Lives in the wheel's slab; the wheel hands it
/// back by value at dispatch time. A delivery carries its message's slot in
/// [`InFlight`], not the message.
enum Queued<T, C> {
    Deliver { to: NodeId, from: NodeId, slot: u32 },
    Timer { node: NodeId, timer: T },
    Control(C),
}

/// The bodies of the messages in flight, one slot per queued delivery. A
/// slot is taken back when its delivery is popped, whether the message is
/// delivered or dropped at a dead node, and reused through the free list,
/// so once warm the slab stays at its high-water mark and allocates
/// nothing.
struct InFlight<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> InFlight<M> {
    fn new() -> InFlight<M> {
        InFlight {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `msg` until its delivery is popped; returns its slot.
    fn put(&mut self, msg: M) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(msg);
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("in-flight slab exhausted");
        self.slots.push(Some(msg));
        // As the wheel's free list: grown with the slab, so a release
        // never allocates.
        if self.free.capacity() < self.slots.len() {
            self.free.reserve(self.slots.len());
        }
        slot
    }

    /// Hand back the message parked in `slot` and free the slot.
    fn take(&mut self, slot: u32) -> M {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a queued delivery owns its slot")
    }
}

/// Statistics about a finished (or in-progress) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped because the destination was dead at delivery time.
    /// Link-conditioner losses are counted separately in `dropped_link`.
    pub dropped: u64,
    /// Messages dropped by the [`LinkConditioner`] (random loss or a
    /// partition cut) before they ever reached the queue.
    pub dropped_link: u64,
    /// Extra copies injected by link-conditioner duplication.
    pub duplicated: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Pending timers cancelled (slab slot reclaimed, never fired) when
    /// their node failed or left.
    pub timers_cancelled: u64,
    /// Control events dispatched.
    pub controls: u64,
    /// Nodes spawned over the lifetime of the world.
    pub spawned: u64,
    /// Nodes removed (failed or left).
    pub removed: u64,
}

/// One row of the world's per-class message table
/// ([`World::msg_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCount {
    /// Sends the protocol made, counted before the link conditioner judges
    /// them: a link-dropped send counts, a conditioner duplicate does not.
    pub sent: u64,
    /// Encoded size of those sends; measured only while the profiler is
    /// enabled.
    pub bytes: u64,
    /// Copies that reached a live destination, duplicates included.
    pub delivered: u64,
}

impl WorldStats {
    /// Scheduler events processed so far: every queue pop the event loop
    /// dispatched (deliveries, dead-destination drops, timer fires,
    /// control events). The denominator of events/sec and allocs/event.
    pub fn events_processed(&self) -> u64 {
        self.delivered + self.dropped + self.timers + self.controls
    }
}

/// Scratch buffers loaned to [`Ctx`] for one callback and drained back into
/// the world afterwards; capacity is retained so dispatch stays
/// allocation-free in steady state.
struct Scratch<N: Node> {
    sends: Vec<(NodeId, N::Msg)>,
    timers: Vec<(u64, N::Timer)>,
    reports: Vec<N::Report>,
    customs: Vec<(&'static str, Fields)>,
}

impl<N: Node> Default for Scratch<N> {
    fn default() -> Scratch<N> {
        Scratch {
            sends: Vec::new(),
            timers: Vec::new(),
            reports: Vec::new(),
            customs: Vec::new(),
        }
    }
}

/// The simulation world. `N` is the node implementation and `C` the
/// engine-level control event type.
pub struct World<N: Node, C> {
    now: Time,
    seq: u64,
    wheel: Wheel<Queued<N::Timer, C>>,
    in_flight: InFlight<N::Msg>,
    /// One slot per id ever spawned; a dead peer's slot is `None`, so it
    /// costs a pointer, not the node's inline size.
    nodes: Vec<Option<Box<N>>>,
    live: usize,
    topology: Topology,
    reports: Vec<(Time, NodeId, N::Report)>,
    stats: WorldStats,
    sinks: Vec<Box<dyn TraceSink>>,
    conditioner: LinkConditioner,
    profiler: Profiler,
    /// Whether `msg_counts` is kept ([`World::count_messages`]).
    counting: bool,
    msg_counts: BTreeMap<&'static str, ClassCount>,
    scratch: Scratch<N>,
}

impl<N: Node, C> World<N, C> {
    /// Create an empty world over `topology`; `seed` seeds the link
    /// conditioner's loss, duplication and jitter draws.
    pub fn new(topology: Topology, seed: u64) -> World<N, C> {
        World {
            now: Time::ZERO,
            seq: 0,
            wheel: Wheel::new(),
            in_flight: InFlight::new(),
            nodes: Vec::new(),
            live: 0,
            topology,
            reports: Vec::new(),
            stats: WorldStats::default(),
            sinks: Vec::new(),
            conditioner: LinkConditioner::new(seed),
            profiler: Profiler::new(),
            counting: false,
            msg_counts: BTreeMap::new(),
            scratch: Scratch::default(),
        }
    }

    /// The world's profiler handle: the event loop opens a phase scope per
    /// dispatched event (`deliver/<class>`, `timer/<class>`, `control`).
    /// It starts disabled — until [`Profiler::enable`] is called the hot
    /// path pays one boolean load per event.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Keep the per-class message table from now on: every send, its wire
    /// bytes while the profiler is enabled, and every delivery. Until this
    /// is called the hot path pays one boolean load per send and delivery.
    pub fn count_messages(&mut self) {
        self.counting = true;
    }

    /// The per-class message table, class-sorted: everything sent and
    /// delivered since [`World::count_messages`]. A class enters at its
    /// first send or delivery.
    pub fn msg_counts(&self) -> &BTreeMap<&'static str, ClassCount> {
        &self.msg_counts
    }

    /// Bytes one queued event's payload occupies in the wheel's slab,
    /// whatever the event is: a delivery's message waits in a slab of its
    /// own, so this is sized by the largest timer tag or control event, not
    /// by the largest message.
    pub const fn queued_event_bytes() -> usize {
        std::mem::size_of::<Option<Queued<N::Timer, C>>>()
    }

    /// Live events pending in the queue right now. Cancelled timers are
    /// reclaimed eagerly and never counted, and so are events not yet
    /// scheduled under a [reserved](World::reserve_seqs) seq.
    pub fn queue_depth(&self) -> usize {
        self.wheel.live()
    }

    /// Stale keys left in the wheel's overflow heap by cancellations (the
    /// payload slots are already reclaimed; only the 24-byte heap keys
    /// linger until a pop reaches them). Live-vs-dead queue introspection
    /// for gauges and tests.
    pub fn queue_dead(&self) -> u64 {
        self.wheel.dead_keys()
    }

    /// The per-link fault model (loss/duplication/jitter/partitions). Inert
    /// until configured; see [`LinkConditioner`].
    pub fn conditioner(&self) -> &LinkConditioner {
        &self.conditioner
    }

    /// Mutable access to the link conditioner — fault-injection engines
    /// flip its knobs mid-run.
    pub fn conditioner_mut(&mut self) -> &mut LinkConditioner {
        &mut self.conditioner
    }

    /// Attach a [`TraceSink`]: from now on every scheduler step emits a
    /// [`TraceEvent`] to it (and to any other attached sink, in attachment
    /// order). Without sinks the event loop pays only an emptiness check.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Whether any trace sink is attached.
    pub fn tracing(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Flush every attached sink (writers push buffered output here).
    pub fn flush_trace_sinks(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }

    fn emit(&mut self, ev: TraceEvent) {
        let now = self.now;
        for s in &mut self.sinks {
            s.event(now, &ev);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The topology (latencies, localities, coordinates).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Run statistics so far.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// Number of currently-live nodes (a maintained counter, O(1)).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether `id` is currently live.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.is_some())
    }

    /// Immutable view of a live node's state (for assertions and metrics).
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.index()).and_then(|n| n.as_deref())
    }

    /// Mutable access to a live node's state. Engines use this for direct
    /// state inspection/mutation outside the message path (e.g. seeding).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes
            .get_mut(id.index())
            .and_then(|n| n.as_deref_mut())
    }

    /// Iterate over `(id, node)` for every live node.
    pub fn live_nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_deref().map(|n| (NodeId::from_index(i), n)))
    }

    /// The id the *next* spawned node will get. Engines may use this to
    /// construct a node that knows its own id.
    pub fn next_id(&self) -> NodeId {
        NodeId::from_index(self.nodes.len())
    }

    /// Spawn a node at coordinate `at`. Returns its id and locality; the
    /// node's `on_start` runs immediately (at the current virtual time).
    pub fn spawn(&mut self, at: Point, make: impl FnOnce(NodeId, LocalityId) -> N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        let loc = self.topology.register(id, at);
        self.nodes.push(Some(Box::new(make(id, loc))));
        self.live += 1;
        self.stats.spawned += 1;
        if !self.sinks.is_empty() {
            self.emit(TraceEvent::NodeSpawn {
                node: id,
                locality: loc,
            });
        }
        self.with_node(id, |node, ctx| node.on_start(ctx));
        id
    }

    /// Silently fail a node: it vanishes without notice, its state is
    /// dropped here and now, its pending timers are cancelled (their wheel
    /// slots reclaimed immediately), and in-flight messages to it are
    /// dropped at delivery time. This is the paper's churn model ("a peer
    /// always fails and never leaves normally").
    pub fn fail(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(id.index()) {
            if slot.take().is_some() {
                self.live -= 1;
                self.stats.removed += 1;
                self.stats.timers_cancelled += self.wheel.cancel_owned(id.index() as u32);
                if !self.sinks.is_empty() {
                    self.emit(TraceEvent::NodeFail { node: id });
                }
            }
        }
    }

    /// Gracefully remove a node: its `on_leave` runs first (it may send
    /// hand-over messages), then it is removed.
    pub fn leave(&mut self, id: NodeId) {
        if self.is_live(id) {
            if !self.sinks.is_empty() {
                self.emit(TraceEvent::NodeLeave { node: id });
            }
            self.with_node(id, |node, ctx| node.on_leave(ctx));
            self.fail(id);
        }
    }

    /// Schedule a control event for the engine callback at absolute time
    /// `at` (clamped to now if already past).
    pub fn schedule_control(&mut self, at: Time, c: C) {
        let seq = self.bump_seq();
        self.schedule_control_at_seq(at, seq, c);
    }

    /// Take the next `n` seqs off the counter and return the first: each
    /// is for one later [`World::schedule_control_at_seq`], whose event
    /// then falls among equal-time events exactly where it would have
    /// fallen had it been scheduled now.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// [`World::schedule_control`] under `seq`, a seq
    /// [reserved](World::reserve_seqs) earlier and not used yet.
    pub fn schedule_control_at_seq(&mut self, at: Time, seq: u64, c: C) {
        assert!(seq < self.seq, "seq {seq} was never reserved");
        let at = at.max(self.now);
        self.wheel
            .schedule(at.as_millis(), seq, None, Queued::Control(c));
    }

    /// Drain all reports emitted since the last call, in emission order.
    /// The buffer stays with the world, so a caller that drains often (the
    /// engine folds at every control event) allocates nothing for it.
    pub fn drain_reports(&mut self) -> std::vec::Drain<'_, (Time, NodeId, N::Report)> {
        self.reports.drain(..)
    }

    /// Run the event loop until the queue is empty or virtual time exceeds
    /// `until`. Control events are handed to `on_control` together with
    /// `&mut self` so the engine can spawn/fail nodes and inject workload.
    pub fn run(&mut self, until: Time, mut on_control: impl FnMut(&mut Self, C)) {
        while let Some((at, kind)) = self.wheel.pop_next(until.as_millis()) {
            self.now = Time::from_millis(at);
            match kind {
                Queued::Deliver { to, from, slot } => {
                    let msg = self.in_flight.take(slot);
                    if self.is_live(to) {
                        self.stats.delivered += 1;
                        if self.counting {
                            self.msg_counts
                                .entry(N::msg_class(&msg))
                                .or_default()
                                .delivered += 1;
                        }
                        if !self.sinks.is_empty() {
                            self.emit(TraceEvent::MsgDeliver {
                                src: from,
                                dst: to,
                                class: N::msg_class(&msg),
                            });
                        }
                        let _phase = self.profiler.scope("deliver");
                        let _class = self.profiler.scope_with(|| N::msg_class(&msg));
                        self.with_node(to, |node, ctx| node.on_message(ctx, from, msg));
                    } else {
                        self.stats.dropped += 1;
                        if !self.sinks.is_empty() {
                            self.emit(TraceEvent::MsgDrop {
                                src: from,
                                dst: to,
                                class: N::msg_class(&msg),
                                reason: DropReason::DeadDestination,
                            });
                        }
                    }
                }
                Queued::Timer { node, timer } => {
                    // Timers are cancelled eagerly at fail/leave, so a
                    // popped timer's node is always live; the guard stays
                    // as defence in depth.
                    if self.is_live(node) {
                        self.stats.timers += 1;
                        if !self.sinks.is_empty() {
                            self.emit(TraceEvent::TimerFire {
                                node,
                                class: N::timer_class(&timer),
                            });
                        }
                        let _phase = self.profiler.scope("timer");
                        let _class = self.profiler.scope_with(|| N::timer_class(&timer));
                        self.with_node(node, |n, ctx| n.on_timer(ctx, timer));
                    }
                }
                Queued::Control(c) => {
                    self.stats.controls += 1;
                    let _phase = self.profiler.scope("control");
                    on_control(self, c);
                }
            }
        }
        if self.now < until {
            self.now = until;
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Run `f` against node `id` with a `Ctx` over the pooled scratch
    /// buffers, then apply the collected actions (sends priced by topology
    /// latency, timers, reports).
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<N>)) {
        let locality = self.topology.locality(id);
        let Some(slot) = self.nodes.get_mut(id.index()) else {
            return;
        };
        let Some(node) = slot.as_deref_mut() else {
            return;
        };
        let tracing = !self.sinks.is_empty();
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            locality,
            sends: std::mem::take(&mut self.scratch.sends),
            timers: std::mem::take(&mut self.scratch.timers),
            reports: std::mem::take(&mut self.scratch.reports),
            tracing,
            customs: std::mem::take(&mut self.scratch.customs),
        };
        f(node, &mut ctx);
        let Ctx {
            mut sends,
            mut timers,
            mut reports,
            mut customs,
            ..
        } = ctx;
        for (name, fields) in customs.drain(..) {
            self.emit(TraceEvent::Custom {
                node: id,
                name,
                fields,
            });
        }
        for (to, msg) in sends.drain(..) {
            // One count per logical protocol send (conditioner duplicates
            // are artifacts of the fault model, not overhead the protocol
            // chose to pay).
            if self.counting {
                let row = self.msg_counts.entry(N::msg_class(&msg)).or_default();
                row.sent += 1;
                if self.profiler.is_enabled() {
                    row.bytes += N::msg_wire_bytes(&msg) as u64;
                }
            }
            // Verdict, then trace (a drop at its bare link latency), then drop.
            let mut delay = self.topology.latency(id, to).max(1);
            let mut copies = 1u32; // 0: the conditioner drops it
            if self.conditioner.is_active() {
                let src_loc = self.topology.locality(id);
                let dst_loc = self.topology.locality(to);
                match self.conditioner.judge(src_loc, dst_loc) {
                    LinkVerdict::Drop => copies = 0,
                    LinkVerdict::Deliver {
                        copies: c,
                        extra_delay_ms,
                    } => {
                        copies = c;
                        delay += extra_delay_ms;
                    }
                }
            }
            if tracing {
                self.emit(TraceEvent::MsgSend {
                    src: id,
                    dst: to,
                    class: N::msg_class(&msg),
                    latency_ms: delay,
                });
            }
            if copies == 0 {
                self.stats.dropped_link += 1;
                if tracing {
                    self.emit(TraceEvent::MsgDrop {
                        src: id,
                        dst: to,
                        class: N::msg_class(&msg),
                        reason: DropReason::Conditioner,
                    });
                }
                continue;
            }
            self.stats.duplicated += u64::from(copies - 1);
            let at = (self.now + delay).as_millis();
            for _ in 1..copies {
                let slot = self.in_flight.put(msg.clone());
                let seq = self.bump_seq();
                self.wheel
                    .schedule(at, seq, None, Queued::Deliver { to, from: id, slot });
            }
            let slot = self.in_flight.put(msg);
            let seq = self.bump_seq();
            self.wheel
                .schedule(at, seq, None, Queued::Deliver { to, from: id, slot });
        }
        for (delay, timer) in timers.drain(..) {
            if tracing {
                self.emit(TraceEvent::TimerSet {
                    node: id,
                    class: N::timer_class(&timer),
                    delay_ms: delay.max(1),
                });
            }
            let at = (self.now + delay.max(1)).as_millis();
            let seq = self.bump_seq();
            self.wheel.schedule(
                at,
                seq,
                Some(id.index() as u32),
                Queued::Timer { node: id, timer },
            );
        }
        for r in reports.drain(..) {
            self.reports.push((self.now, id, r));
        }
        self.scratch.sends = sends;
        self.scratch.timers = timers;
        self.scratch.reports = reports;
        self.scratch.customs = customs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyConfig;
    use rand::SeedableRng;

    /// Sends its peer a message every 10 ms.
    struct Shouter {
        peer: NodeId,
    }

    impl Node for Shouter {
        type Msg = [u64; 8];
        type Timer = ();
        type Report = ();
        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.set_timer(10, ());
        }
        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: NodeId, _msg: [u64; 8]) {}
        fn on_timer(&mut self, ctx: &mut Ctx<Self>, _timer: ()) {
            ctx.send(self.peer, [0; 8]);
            ctx.set_timer(10, ());
        }
    }

    /// A message's slot is freed when its delivery is popped, whether it
    /// reached a live node or was dropped at a dead one: a minute of
    /// shouting at a dead peer grows the slab by nothing, and every
    /// occupied slot is a queued delivery.
    #[test]
    fn in_flight_slots_are_freed_at_pop_delivered_or_dropped() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        let mut world: World<Shouter, ()> = World::new(topo, 5);
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        world.spawn(Point::new(0.0, 0.0), |_, _| Shouter { peer: b });
        world.spawn(Point::new(90.0, 90.0), |_, _| Shouter { peer: a });
        world.run(Time::from_secs(1), |_, ()| {});
        let high_water = world.in_flight.slots.len();
        assert!(high_water > 1, "messages were in flight");

        world.fail(b);
        world.run(Time::from_secs(61), |_, ()| {});
        assert!(world.stats().dropped > 5_000, "{:?}", world.stats());
        assert_eq!(world.in_flight.slots.len(), high_water, "the slab grew");
        let occupied = world.in_flight.slots.iter().flatten().count();
        assert_eq!(occupied, world.queue_depth() - 1, "a's timer aside");
        assert_eq!(occupied + world.in_flight.free.len(), high_water);
    }
}

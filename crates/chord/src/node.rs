//! The Chord node state machine.
//!
//! Implements the protocol of Stoica et al. (SIGCOMM 2001) with the
//! robustness refinements that matter under the paper's churn level:
//! successor **lists** (not a single successor), iterative lookups with
//! per-step timeouts and failure-aware retry, and the standard
//! `stabilize` / `notify` / `fix_fingers` / `check_predecessor` maintenance
//! loop.
//!
//! The struct is sans-io: every entry point returns the [`ChordAction`]s the
//! host must apply (sends, timers, completion notifications).

use simnet::NodeId;

use crate::id::{ChordId, NodeRef};
use crate::outstanding::{Outstanding, Request, FIRST_ATTEMPT};
use crate::proto::{ChordAction, ChordMsg, ChordTimer, StepResult};

/// Successor list length `r`. Chord survives `r-1` consecutive successor
/// failures between stabilizations.
const SUCCESSOR_LIST_LEN: usize = 8;
/// Give up a lookup after this many failed steps.
const MAX_LOOKUP_FAILURES: u32 = 8;
/// Attempts (through distinct first hops) before a recursive route fails.
const MAX_ROUTE_ATTEMPTS: u32 = 4;

/// Tuning knobs. Defaults suit a ring of a few hundred to a few thousand
/// nodes under minute-scale churn.
#[derive(Debug, Clone)]
pub struct ChordConfig {
    /// Stabilize period in ms — also how long a dead successor can go
    /// unnoticed, and until it is noticed every key it owned is answered
    /// with a corpse. It equals the fix-fingers period: the successor was
    /// once probed at that rate as the first hop of the finger lookups,
    /// which no longer pass through it.
    pub stabilize_period_ms: u64,
    /// Fix-fingers period in ms; each firing repairs `fingers_per_round`
    /// slots.
    pub fix_fingers_period_ms: u64,
    /// Predecessor liveness check period in ms.
    pub check_predecessor_period_ms: u64,
    /// Per-step RPC deadline in ms; should exceed one round trip on the
    /// slowest link (paper: 500 ms one-way).
    pub rpc_timeout_ms: u64,
    /// Whole-attempt deadline for recursive routes; should cover
    /// `O(log N)` one-way hops on slow links.
    pub recursive_deadline_ms: u64,
    /// Finger slots repaired per fix-fingers firing, so a full sweep takes
    /// `64 ÷ fingers_per_round × fix_fingers_period_ms` (one minute at the
    /// defaults). Under minute-scale churn the whole table must be swept in
    /// a small fraction of the mean uptime, or routes keep forwarding into
    /// dead fingers; a repair that finds its finger still in place costs one
    /// round trip per distinct finger, which is what pays for the rate.
    pub fingers_per_round: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            stabilize_period_ms: 15_000,
            fix_fingers_period_ms: 15_000,
            check_predecessor_period_ms: 30_000,
            rpc_timeout_ms: 1_500,
            recursive_deadline_ms: 3_500,
            fingers_per_round: 16,
        }
    }
}

/// Why a lookup was started; decides what happens on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Host-requested; completion is reported via `LookupDone`.
    External,
    /// Resolving our own id during join.
    Join,
    /// Repairing finger `i`.
    Finger(u32),
    /// Asking an incumbent finger whether it still owns the lookup's key.
    /// The mask holds the slots the question stands for: each has this
    /// incumbent and a start in `[key, incumbent]`, so "I own `key`"
    /// confirms them all. Any other outcome re-resolves every one of them.
    VerifyFingers(u64),
}

/// A request this node has in flight. The entry's `to` is the node asked:
/// for a lookup, the one currently asked for a step.
#[derive(Debug)]
enum Rpc {
    /// A lookup, from its first step to its last: its rid is the token
    /// every `FindNext`, `Route` and `LookupDone` of it carries.
    Lookup(Lookup),
    /// A stabilize round (`GetNeighbors`); its rid is the round's `gen`.
    Stabilize,
    /// A predecessor ping; its rid is the ping's `nonce`.
    Ping,
}

#[derive(Debug)]
struct Lookup {
    key: ChordId,
    purpose: Purpose,
    /// Never answer this lookup from our own tables (used for self-audits
    /// where our tables are exactly what is being verified).
    skip_local: bool,
    hops: u32,
    failures: u32,
    /// Nodes that timed out during this lookup; excluded from retries.
    dead: Vec<NodeId>,
}

fn is_lookup(rpc: &Rpc) -> bool {
    matches!(rpc, Rpc::Lookup(_))
}

impl Rpc {
    /// A lookup request's node asked and lookup state.
    fn lookup(req: &mut Request<Rpc>) -> Option<(&mut NodeRef, &mut Lookup)> {
        match req {
            Request {
                to,
                purpose: Rpc::Lookup(lk),
                ..
            } => Some((to, lk)),
            _ => None,
        }
    }
}

/// One neighbour in the route index (a flattened [`NodeRef`], 16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteEntry {
    id: ChordId,
    node: NodeId,
    /// Where the neighbour first appears in table order; decides which
    /// entry answers for a node that is known under two ring ids.
    rank: u32,
}

impl RouteEntry {
    fn node_ref(&self) -> NodeRef {
        NodeRef::new(self.node, self.id)
    }
}

/// A Chord protocol endpoint.
#[derive(Debug)]
pub struct Chord {
    me: NodeRef,
    cfg: ChordConfig,
    predecessor: Option<NodeRef>,
    /// `successors[0]` is the immediate successor; the list extends
    /// clockwise. Never contains `me`. Empty only before join completes
    /// (a single-node ring keeps exactly one entry equal to... itself is
    /// represented by an empty list; see [`Chord::successor`]).
    successors: Vec<NodeRef>,
    fingers: Vec<Option<NodeRef>>,
    /// The route index: every distinct neighbour in the three tables above,
    /// once, stably sorted by clockwise distance from `me`, so nodes sharing
    /// a ring id stay in table order (fingers low to high, successors,
    /// predecessor). Current only while `route_stale` is false.
    route: Vec<RouteEntry>,
    /// A finger, the successor list or the predecessor changed since
    /// `route` was built. Set by every write that changes one of them, and
    /// by no other: `converged`, `set_finger` (through which `note_alive`
    /// and `purge` write fingers), `set_predecessor`, `adopt_successor`,
    /// `on_notify`, `on_neighbors_reply`, `purge`.
    route_stale: bool,
    /// How many finger slots, from slot 0 up, are settled: filled, each at
    /// or past its start, their distances from `me` non-decreasing. `None`
    /// after a finger write, until `note_alive` needs it again.
    settled: Option<u32>,
    next_finger: u32,
    /// Lookups, the stabilize round and the predecessor ping in flight.
    reqs: Outstanding<Rpc>,
    joined: bool,
    /// Cheap deterministic jitter state (derived from our id), used to
    /// de-synchronize periodic timers across the ring.
    jitter_state: u64,
    /// Created as the deliberate first node of a fresh ring (`create`);
    /// such a node may legitimately have no successors.
    standalone: bool,
    /// `Isolated` already emitted for the current strand episode.
    reported_isolated: bool,
}

impl Chord {
    /// Create the **first** node of a fresh ring. It is immediately joined,
    /// being its own successor.
    pub fn create(me: NodeRef, cfg: ChordConfig) -> (Chord, Vec<ChordAction>) {
        let mut node = Chord::bare(me, cfg);
        node.joined = true;
        node.standalone = true;
        let actions = node.schedule_periodics();
        (node, actions)
    }

    /// Create a node that will join an existing ring through `seed`.
    /// The returned actions start the join lookup for `me.id`.
    pub fn join(me: NodeRef, seed: NodeRef, cfg: ChordConfig) -> (Chord, Vec<ChordAction>) {
        let mut node = Chord::bare(me, cfg);
        let mut actions = node.schedule_periodics();
        actions.extend(node.start_join(seed));
        (node, actions)
    }

    /// Join the ring again through `seed`, in place — the host's answer to
    /// [`ChordAction::Isolated`] or [`ChordAction::JoinFailed`]. The ring
    /// tables start over as a fresh joiner's, and every open request ends:
    /// an external lookup with `LookupFailed`, so the host's failure path
    /// ends or retries it. The rid counter carries over, so no deadline or
    /// reply from before finds a request opened after; so do the periodic
    /// timer chains and the jitter state, so one set of chains runs per
    /// node for life.
    pub fn rejoin(&mut self, seed: NodeRef) -> Vec<ChordAction> {
        let old = std::mem::replace(self, Chord::bare(self.me, self.cfg.clone()));
        (self.reqs, self.jitter_state) = (old.reqs, old.jitter_state);
        let mut actions = Vec::new();
        self.reqs.retain(|r| {
            if let Rpc::Lookup(Lookup {
                purpose: Purpose::External,
                key,
                ..
            }) = r.purpose
            {
                actions.push(ChordAction::LookupFailed { token: r.rid, key });
            }
            false
        });
        actions.extend(self.start_join(seed));
        actions
    }

    /// Open the lookup for our own id through `seed`: the one join start.
    fn start_join(&mut self, seed: NodeRef) -> Vec<ChordAction> {
        let token = self.open_lookup(self.me.id, Purpose::Join, seed, false);
        self.send_step(token)
    }

    /// Construct an **already-converged** member of a known ring — the
    /// simulation warm start. The paper's experiments begin with 600
    /// directory peers already forming the initial D-ring (§6.1); building
    /// that ring by 600 sequential joins would only measure bootstrap, not
    /// the protocol under churn. `ring` must be sorted by id and contain
    /// `me` at `me_idx`.
    pub fn converged(
        me_idx: usize,
        ring: &[NodeRef],
        cfg: ChordConfig,
    ) -> (Chord, Vec<ChordAction>) {
        assert!(!ring.is_empty());
        assert!(
            ring.windows(2).all(|w| w[0].id < w[1].id),
            "ring must be sorted by id with unique ids"
        );
        let me = ring[me_idx];
        let mut node = Chord::bare(me, cfg);
        node.joined = true;
        let n = ring.len();
        if n == 1 {
            // A one-member ring is a legitimate singleton, like `create`.
            node.standalone = true;
        }
        if n > 1 {
            for k in 1..=SUCCESSOR_LIST_LEN.min(n - 1) {
                node.successors.push(ring[(me_idx + k) % n]);
            }
            node.predecessor = Some(ring[(me_idx + n - 1) % n]);
            for i in 0..ChordId::BITS {
                let start = me.id.finger_start(i);
                // successor(start): first ring member at or after start.
                let pos = ring.partition_point(|r| r.id < start) % n;
                let f = ring[pos];
                if f.node != me.node {
                    node.set_finger(i as usize, Some(f));
                }
            }
            node.route_stale = true;
        }
        let actions = node.schedule_periodics();
        (node, actions)
    }

    fn bare(me: NodeRef, cfg: ChordConfig) -> Chord {
        Chord {
            me,
            cfg,
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; ChordId::BITS as usize],
            route: Vec::new(),
            route_stale: false,
            settled: None,
            next_finger: 0,
            reqs: Outstanding::default(),
            joined: false,
            jitter_state: me.id.0 ^ 0x9e37_79b9_7f4a_7c15,
            standalone: false,
            reported_isolated: false,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's ring reference.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// The immediate successor. A node alone on the ring is its own
    /// successor.
    pub fn successor(&self) -> NodeRef {
        self.successors.first().copied().unwrap_or(self.me)
    }

    /// The whole successor list (possibly empty for a singleton ring).
    pub fn successor_list(&self) -> &[NodeRef] {
        &self.successors
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeRef> {
        self.predecessor
    }

    /// Whether the join lookup has completed (always true for `create`).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// A joined node that lost its entire successor list is cut off from
    /// the ring: it can neither route nor answer until it re-joins.
    pub fn is_stranded(&self) -> bool {
        self.joined && self.successors.is_empty() && !self.standalone
    }

    /// Number of lookups in flight.
    pub fn pending_lookups(&self) -> usize {
        self.reqs.iter().filter(|r| is_lookup(&r.purpose)).count()
    }

    /// True when this node believes `key` belongs to it: `key ∈ (pred, me]`.
    /// With no predecessor (fresh or singleton ring) the node claims any
    /// key, which is correct for a singleton and conservatively inclusive
    /// otherwise.
    pub fn owns(&self, key: ChordId) -> bool {
        match self.predecessor {
            Some(p) => key.in_open_closed(p.id, self.me.id),
            None => true,
        }
    }

    /// Like [`Chord::owns`] but refuses to claim anything while the
    /// predecessor is unknown. Use for decisions that must not be made on a
    /// guess (e.g. arbitrating ownership of a vacant D-ring position).
    pub fn owns_strict(&self, key: ChordId) -> bool {
        self.predecessor
            .is_some_and(|p| key.in_open_closed(p.id, self.me.id))
    }

    /// A deliberate first node ([`Chord::create`] / one-member
    /// [`Chord::converged`]) that is still alone on its ring: nobody has
    /// joined yet, so it has neither predecessor nor successors — and it
    /// genuinely owns every key. [`Chord::owns_strict`] is necessarily
    /// false for such a node (no predecessor), so ownership arbitration
    /// must consult this too or a fresh ring could never grant anything.
    pub fn is_sole_member(&self) -> bool {
        self.standalone && self.predecessor.is_none() && self.successors.is_empty()
    }

    /// The owner of `key` when our own neighbourhood decides it: ourselves
    /// (with a *known* predecessor — claiming keys on a guess sprays state
    /// across wrong owners) or our immediate successor.
    fn local_owner(&self, key: ChordId) -> Option<NodeRef> {
        if !self.joined {
            return None;
        }
        if self.owns_strict(key) {
            return Some(self.me);
        }
        let succ = self.successor();
        key.in_open_closed(self.me.id, succ.id).then_some(succ)
    }

    // ------------------------------------------------------------------
    // Host entry points
    // ------------------------------------------------------------------

    /// Start an external **iterative** lookup for `successor(key)`. The
    /// returned token correlates with the eventual `LookupDone` /
    /// `LookupFailed` action.
    pub fn lookup(&mut self, key: ChordId) -> (u64, Vec<ChordAction>) {
        let token = self.start_lookup(key, Purpose::External);
        let actions = self.resolve_or_send(token, false);
        (token, actions)
    }

    /// Start an external **iterative** lookup that begins at `start` and
    /// never short-circuits through our own tables. Used for self-audits:
    /// "does the rest of the ring still resolve this key to me?".
    pub fn lookup_from(&mut self, key: ChordId, start: NodeRef) -> (u64, Vec<ChordAction>) {
        let token = self.open_lookup(key, Purpose::External, start, true);
        let actions = if start.node == self.me.node {
            self.finish_lookup(token, self.me)
        } else {
            self.send_step(token)
        };
        (token, actions)
    }

    /// Start an external **recursive** lookup: the query is forwarded hop
    /// by hop and the owner answers us directly. One one-way link per hop
    /// (vs. an RTT for iterative) but failures anywhere on the path cost a
    /// whole-attempt retry through a different first hop.
    pub fn lookup_recursive(&mut self, key: ChordId) -> (u64, Vec<ChordAction>) {
        let token = self.start_lookup(key, Purpose::External);
        let actions = self.resolve_or_send(token, true);
        (token, actions)
    }

    fn on_route(
        &mut self,
        key: ChordId,
        token: u64,
        origin: NodeRef,
        hops: u32,
    ) -> Vec<ChordAction> {
        let owner = match self.routing_step(key) {
            StepResult::Unknown => return Vec::new(), // stranded: drop; origin retries
            StepResult::Owner(owner) => owner,
            // Routing loop safety valve: answer with our best guess.
            StepResult::Forward(_) if hops >= 64 => self.successor(),
            StepResult::Forward(next) => {
                return vec![ChordAction::Send {
                    to: next,
                    msg: ChordMsg::Route {
                        key,
                        token,
                        origin,
                        hops: hops + 1,
                    },
                }]
            }
        };
        vec![ChordAction::Send {
            to: origin,
            msg: ChordMsg::RouteResult { token, owner, hops },
        }]
    }

    fn on_route_result(&mut self, token: u64, owner: NodeRef, hops: u32) -> Vec<ChordAction> {
        let Some((_, lk)) = self.reqs.answer(token, is_lookup).and_then(Rpc::lookup) else {
            return Vec::new(); // late result after deadline-retry success
        };
        lk.hops = hops;
        self.note_alive(owner);
        self.finish_lookup(token, owner)
    }

    /// Handle a received Chord message.
    pub fn handle_message(&mut self, from: NodeId, msg: ChordMsg) -> Vec<ChordAction> {
        match msg {
            ChordMsg::FindNext { key, token, from } => self.on_find_next(key, token, from),
            ChordMsg::FindNextReply { token, result } => self.on_step_reply(token, result),
            ChordMsg::GetNeighbors { gen, from } => self.on_get_neighbors(gen, from),
            ChordMsg::NeighborsReply {
                gen,
                sender,
                predecessor,
                successors,
            } => self.on_neighbors_reply(gen, sender, predecessor, successors),
            ChordMsg::Notify { candidate } => {
                self.on_notify(candidate);
                Vec::new()
            }
            ChordMsg::Ping { nonce } => {
                self.refresh_route();
                let to = self.ref_for(from);
                vec![ChordAction::Send {
                    to,
                    msg: ChordMsg::Pong { nonce },
                }]
            }
            ChordMsg::Pong { nonce } => {
                self.reqs.settle(nonce, |r| matches!(r, Rpc::Ping));
                Vec::new()
            }
            ChordMsg::Route {
                key,
                token,
                origin,
                hops,
            } => self.on_route(key, token, origin, hops),
            ChordMsg::RouteResult { token, owner, hops } => {
                self.on_route_result(token, owner, hops)
            }
        }
    }

    /// Handle one of our timers firing. Each deadline carries the rid of
    /// the request it guards (a lookup's `token`, a stabilize round's
    /// `gen`, a ping's `nonce`) and, for a lookup, the attempt it was
    /// armed for. A reply makes the armed deadline stale, and a new
    /// stabilize round or ping closes the one it supersedes, so on a
    /// healthy ring most deadlines fire stale: the one `expire` call below
    /// finds nothing and no actions are returned, which is all a host
    /// needs — it dispatches every timer it armed.
    pub fn handle_timer(&mut self, timer: ChordTimer) -> Vec<ChordAction> {
        let (rid, attempt) = match timer {
            ChordTimer::Stabilize => return self.on_stabilize_timer(true),
            ChordTimer::StabilizeOnce => return self.on_stabilize_timer(false),
            ChordTimer::FixFingers => return self.on_fix_fingers_timer(),
            ChordTimer::CheckPredecessor => return self.on_check_predecessor_timer(),
            ChordTimer::LookupStep { token, attempt }
            | ChordTimer::RouteDeadline { token, attempt } => (token, attempt),
            ChordTimer::StabilizeDeadline { gen } => (gen, FIRST_ATTEMPT),
            ChordTimer::PingDeadline { nonce } => (nonce, FIRST_ATTEMPT),
        };
        let Some(req) = self.reqs.expire(rid, attempt) else {
            return Vec::new();
        };
        match (timer, &req.purpose) {
            (ChordTimer::LookupStep { .. }, Rpc::Lookup(_)) => self.on_step_timeout(rid),
            // Retry through a different first hop; the previous one may be
            // the dead link (we can't know which hop on the path failed).
            (ChordTimer::RouteDeadline { .. }, Rpc::Lookup(_)) => self.retry(rid, true),
            (ChordTimer::StabilizeDeadline { .. }, Rpc::Stabilize) => self.on_stabilize_timeout(),
            (ChordTimer::PingDeadline { .. }, Rpc::Ping) => {
                // Predecessor is unresponsive: forget it so a live
                // candidate can take the slot via notify.
                self.reqs.close(rid);
                self.set_predecessor(None);
                Vec::new()
            }
            _ => Vec::new(), // a deadline of another kind under this rid
        }
    }

    /// Re-assert our ring position: notify our successor immediately (used
    /// by hosts whose self-audit suggests the neighbourhood forgot us).
    pub fn reassert(&self) -> Vec<ChordAction> {
        let succ = self.successor();
        if succ.node == self.me.node {
            return Vec::new();
        }
        vec![ChordAction::Send {
            to: succ,
            msg: ChordMsg::Notify { candidate: self.me },
        }]
    }

    /// The host learned out-of-band that `node` failed (e.g. an
    /// application-level RPC to it timed out). Purge it from our tables.
    pub fn node_failed(&mut self, node: NodeId) {
        self.purge(node);
    }

    // ------------------------------------------------------------------
    // Lookup engine (iterative)
    // ------------------------------------------------------------------

    /// Open a lookup that starts at our best local step toward `key`.
    fn start_lookup(&mut self, key: ChordId, purpose: Purpose) -> u64 {
        self.refresh_route();
        let start = self.best_local_step(key, &[]);
        self.open_lookup(key, purpose, start, false)
    }

    /// Register a lookup whose first step goes to `current`; returns its
    /// token.
    fn open_lookup(
        &mut self,
        key: ChordId,
        purpose: Purpose,
        current: NodeRef,
        skip_local: bool,
    ) -> u64 {
        let lookup = Lookup {
            key,
            purpose,
            skip_local,
            hops: 0,
            failures: 0,
            dead: Vec::new(),
        };
        self.reqs.open(current, Rpc::Lookup(lookup))
    }

    /// The lookup `token`, and the node it is asking.
    fn in_flight(&mut self, token: u64) -> Option<(&mut NodeRef, &mut Lookup)> {
        self.reqs.get_mut(token).and_then(Rpc::lookup)
    }

    /// The one lookup driver. If we can answer locally, finish; otherwise
    /// send `current` one step (iterative) or the whole route (recursive).
    fn resolve_or_send(&mut self, token: u64, recursive: bool) -> Vec<ChordAction> {
        let Some((&mut current, lk)) = self.in_flight(token) else {
            return Vec::new();
        };
        let (key, skip_local) = (lk.key, lk.skip_local);
        if self.is_stranded() {
            return self.fail_lookup_now(token);
        }
        if !skip_local {
            if let Some(owner) = self.local_owner(key) {
                return self.finish_lookup(token, owner);
            }
        }
        if current.node == self.me.node {
            // Our tables point nowhere but ourselves. Only a deliberate
            // singleton ring may claim the key; anyone else has simply run
            // out of contacts and must report failure (a join "completing"
            // here would mint a stranded zombie that still believes it is
            // part of a ring).
            if self.standalone {
                return self.finish_lookup(token, self.me);
            }
            return self.fail_lookup_now(token);
        }
        if recursive {
            self.send_route(token)
        } else {
            self.send_step(token)
        }
    }

    /// Start `token` again from our own tables, avoiding the nodes it found
    /// dead — or give up once its budget is spent: more than
    /// `MAX_LOOKUP_FAILURES` failed steps, or `MAX_ROUTE_ATTEMPTS` routes.
    fn retry(&mut self, token: u64, recursive: bool) -> Vec<ChordAction> {
        self.refresh_route();
        let Some(Request {
            attempt,
            purpose: Rpc::Lookup(lk),
            ..
        }) = self.reqs.get(token)
        else {
            return Vec::new();
        };
        let spent = match recursive {
            true => *attempt >= MAX_ROUTE_ATTEMPTS,
            false => lk.failures > MAX_LOOKUP_FAILURES,
        };
        if spent {
            return self.fail_lookup_now(token);
        }
        let start = self.best_local_step(lk.key, &lk.dead);
        self.reqs.get_mut(token).expect("open").to = start;
        self.resolve_or_send(token, recursive)
    }

    /// Forward the whole lookup to `current`, which becomes a dead end for
    /// any retry: it alone sees the route, so it may be the broken link.
    fn send_route(&mut self, token: u64) -> Vec<ChordAction> {
        let origin = self.me;
        let Some((&mut to, lk)) = self.in_flight(token) else {
            return Vec::new();
        };
        lk.dead.push(to.node);
        let msg = ChordMsg::Route {
            key: lk.key,
            token,
            origin,
            hops: 1,
        };
        self.send_armed(token, to, msg).into()
    }

    fn send_step(&mut self, token: u64) -> Vec<ChordAction> {
        let from = self.me;
        let Some((&mut to, lk)) = self.in_flight(token) else {
            return Vec::new();
        };
        let msg = ChordMsg::FindNext {
            key: lk.key,
            token,
            from,
        };
        self.send_armed(token, to, msg).into()
    }

    /// Send the open request `rid` its `msg` to `to` and arm its next
    /// deadline: the one site every request this node sends leaves through.
    fn send_armed(&mut self, rid: u64, to: NodeRef, msg: ChordMsg) -> [ChordAction; 2] {
        let attempt = self.reqs.arm(rid).expect("sending an open request");
        let mut delay_ms = self.cfg.rpc_timeout_ms;
        let timer = match msg {
            ChordMsg::Route { token, .. } => {
                delay_ms = self.cfg.recursive_deadline_ms;
                ChordTimer::RouteDeadline { token, attempt }
            }
            ChordMsg::FindNext { token, .. } => ChordTimer::LookupStep { token, attempt },
            ChordMsg::GetNeighbors { gen, .. } => ChordTimer::StabilizeDeadline { gen },
            ChordMsg::Ping { nonce } => ChordTimer::PingDeadline { nonce },
            _ => unreachable!("{msg:?} is no request"),
        };
        [
            ChordAction::Send { to, msg },
            ChordAction::SetTimer { delay_ms, timer },
        ]
    }

    fn on_find_next(&mut self, key: ChordId, token: u64, from: NodeRef) -> Vec<ChordAction> {
        // NOTE: we must *not* learn the asker into our tables here — a
        // joining node routes a lookup for its own id before it is part of
        // the ring, and adopting it as successor would make us answer
        // "you own your id" back to it, wedging its join. Membership is
        // learned only from notify/stabilize traffic.
        let result = self.routing_step(key);
        vec![ChordAction::Send {
            to: from,
            msg: ChordMsg::FindNextReply { token, result },
        }]
    }

    /// Compute the answer to "who should I ask next for `key`?".
    fn routing_step(&mut self, key: ChordId) -> StepResult {
        if self.is_stranded() || !self.joined {
            return StepResult::Unknown;
        }
        if let Some(owner) = self.local_owner(key) {
            return StepResult::Owner(owner);
        }
        self.refresh_route();
        let succ = self.successor();
        match self.closest_preceding(key) {
            next if next.node != self.me.node => StepResult::Forward(next),
            // We know nothing strictly closer. Claiming ownership here
            // would terminate routes at wrong nodes whenever tables are
            // sparse (fresh joins, post-churn) — instead degrade to the
            // guaranteed-progress linear walk along the successor.
            _ if succ.node != self.me.node => StepResult::Forward(succ),
            _ => StepResult::Owner(self.me), // singleton ring
        }
    }

    fn on_step_reply(&mut self, token: u64, result: StepResult) -> Vec<ChordAction> {
        let Some((current, lk)) = self.reqs.answer(token, is_lookup).and_then(Rpc::lookup) else {
            return Vec::new(); // late reply for a finished lookup
        };
        if let Purpose::VerifyFingers(slots) = lk.purpose {
            // Only "I own it" from the incumbent itself confirms. A forward
            // means somebody joined in front of it, and where it points is
            // its view of the ring, not an owner.
            if result != StepResult::Owner(*current) {
                return self.resolve_fingers(token, slots);
            }
        }
        lk.hops += 1;
        match result {
            StepResult::Unknown => {
                // The answerer is stranded: route around it.
                lk.dead.push(current.node);
                lk.failures += 1;
                self.retry(token, false)
            }
            StepResult::Owner(owner) => {
                self.note_alive(owner);
                self.finish_lookup(token, owner)
            }
            StepResult::Forward(next) => {
                if lk.dead.contains(&next.node) || next.node == self.me.node {
                    // The answerer pointed at a node we know is dead (or at
                    // us); treat as a failed step and re-route.
                    return self.retry(token, false);
                }
                *current = next;
                self.note_alive(next);
                self.send_step(token)
            }
        }
    }

    fn on_step_timeout(&mut self, token: u64) -> Vec<ChordAction> {
        let (&mut failed, lk) = self.in_flight(token).expect("expired lookup");
        let purpose = lk.purpose;
        lk.dead.push(failed.node);
        lk.failures += 1;
        self.purge(failed.node);
        let mut actions = self.isolation_check();
        actions.extend(match purpose {
            Purpose::VerifyFingers(slots) => self.resolve_fingers(token, slots),
            Purpose::External | Purpose::Join | Purpose::Finger(_) => self.retry(token, false),
        });
        actions
    }

    /// Abort a lookup (stranded node, or its retries are spent).
    fn fail_lookup_now(&mut self, token: u64) -> Vec<ChordAction> {
        let Some(Rpc::Lookup(lk)) = self.reqs.close(token).map(|r| r.purpose) else {
            return Vec::new();
        };
        match lk.purpose {
            Purpose::External => vec![ChordAction::LookupFailed { token, key: lk.key }],
            Purpose::Join => vec![ChordAction::JoinFailed],
            Purpose::Finger(_) | Purpose::VerifyFingers(_) => Vec::new(),
        }
    }

    fn finish_lookup(&mut self, token: u64, owner: NodeRef) -> Vec<ChordAction> {
        let Some(Rpc::Lookup(lk)) = self.reqs.close(token).map(|r| r.purpose) else {
            return Vec::new();
        };
        match lk.purpose {
            Purpose::External => vec![ChordAction::LookupDone {
                token,
                key: lk.key,
                owner,
                hops: lk.hops,
            }],
            Purpose::Join => {
                if owner.node != self.me.node && owner.id == self.me.id {
                    // The position we are joining at is already held by a
                    // live node: a second node with the same ring id would
                    // corrupt successor/predecessor maintenance. Abort.
                    return vec![ChordAction::JoinFailed];
                }
                self.joined = true;
                let mut actions = Vec::new();
                if owner.node != self.me.node {
                    self.adopt_successor(owner);
                    actions.push(ChordAction::Send {
                        to: owner,
                        msg: ChordMsg::Notify { candidate: self.me },
                    });
                    // Populate the successor list quickly: a fresh node
                    // with a single successor is one failure away from
                    // being stranded.
                    for delay_ms in [1_000, 5_000] {
                        actions.push(ChordAction::SetTimer {
                            delay_ms,
                            timer: ChordTimer::StabilizeOnce,
                        });
                    }
                }
                actions.push(ChordAction::JoinComplete { successor: owner });
                actions
            }
            Purpose::Finger(i) => {
                if owner.node != self.me.node {
                    self.set_finger(i as usize, Some(owner));
                }
                Vec::new()
            }
            // Confirmed: every slot asked about keeps its finger.
            Purpose::VerifyFingers(_) => Vec::new(),
        }
    }

    /// The routing candidates for `key`, nearest the key first: the index
    /// entries strictly between `me` and `key` on the ring, grouped by ring
    /// id, each group's holders in table order. `key == me.id` means the
    /// whole ring — except the id right after ours, whose distance to the
    /// key is `u64::MAX`: the table scan this index replaced started from
    /// that value as "nothing found yet" and so never took such a node,
    /// and routing must not change.
    fn candidates(&self, key: ChordId) -> impl Iterator<Item = &[RouteEntry]> {
        debug_assert!(!self.route_stale, "refresh_route() before routing");
        let me = self.me.id;
        let (nearest, end) = if key == me {
            (2, self.route.len())
        } else {
            let limit = me.distance_to(key);
            let end = self.route.partition_point(|e| me.distance_to(e.id) < limit);
            (1, end)
        };
        // Holders of our own ring id sort first and precede nothing.
        let start = self.route[..end]
            .iter()
            .take_while(|e| me.distance_to(e.id) < nearest)
            .count();
        self.route[start..end].chunk_by(|a, b| a.id == b.id).rev()
    }

    /// Best next hop toward `key` from local tables only: the closest
    /// preceding live candidate, else our successor, else ourselves.
    fn best_local_step(&self, key: ChordId, exclude: &[NodeId]) -> NodeRef {
        self.candidates(key)
            .find_map(|holders| {
                holders
                    .iter()
                    .find(|e| !exclude.contains(&e.node) && e.node != self.me.node)
            })
            .map(RouteEntry::node_ref)
            .or_else(|| {
                // Nothing precedes the key: any live contact will do,
                // prefer the successor.
                self.successors
                    .iter()
                    .find(|s| !exclude.contains(&s.node))
                    .copied()
            })
            .unwrap_or(self.me)
    }

    /// `closest_preceding_node(key)` over fingers and successor list.
    fn closest_preceding(&self, key: ChordId) -> NodeRef {
        self.candidates(key)
            .next()
            .map_or(self.me, |holders| holders[0].node_ref())
    }

    /// A node with exactly this ring id among our *actively verified*
    /// neighbours — the predecessor (liveness-pinged) and the immediate
    /// successor (probed every stabilization round). Deliberately ignores
    /// fingers and deep successor-list entries: those can retain corpses
    /// for a long time, and hosts use this to decide whether a ring
    /// position is genuinely held.
    pub fn known_node_with_id(&self, id: ChordId) -> Option<NodeRef> {
        self.predecessor
            .into_iter()
            .chain(self.successors.first().copied())
            .find(|n| n.id == id)
    }

    /// Every table entry in table order: fingers low to high, the
    /// successor list, the predecessor.
    fn known_nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.fingers
            .iter()
            .flatten()
            .copied()
            .chain(self.successors.iter().copied())
            .chain(self.predecessor)
    }

    /// Rebuild the route index if a table changed since it was built.
    fn refresh_route(&mut self) {
        if !self.route_stale {
            return;
        }
        self.route_stale = false;
        let mut route = std::mem::take(&mut self.route);
        route.clear();
        let mut last = None;
        for (rank, n) in self.known_nodes().enumerate() {
            // Fingers come in runs of one node; only a run's first can be new.
            if last.replace(n) == Some(n) {
                continue;
            }
            if !route.iter().any(|e| e.node == n.node && e.id == n.id) {
                route.push(RouteEntry {
                    id: n.id,
                    node: n.node,
                    rank: rank as u32,
                });
            }
        }
        let me = self.me.id;
        // Ranks are distinct, so ties in distance keep table order.
        route.sort_unstable_by_key(|e| (me.distance_to(e.id), e.rank));
        self.route = route;
    }

    /// The one finger write.
    fn set_finger(&mut self, i: usize, to: Option<NodeRef>) {
        if self.fingers[i] != to {
            self.fingers[i] = to;
            self.route_stale = true;
            self.settled = None;
        }
    }

    fn set_predecessor(&mut self, to: Option<NodeRef>) {
        if self.predecessor != to {
            self.predecessor = to;
            self.route_stale = true;
        }
    }

    // ------------------------------------------------------------------
    // Stabilization
    // ------------------------------------------------------------------

    fn schedule_periodics(&mut self) -> Vec<ChordAction> {
        let s = self.jittered(self.cfg.stabilize_period_ms);
        let f = self.jittered(self.cfg.fix_fingers_period_ms);
        let c = self.jittered(self.cfg.check_predecessor_period_ms);
        vec![
            ChordAction::SetTimer {
                delay_ms: s,
                timer: ChordTimer::Stabilize,
            },
            ChordAction::SetTimer {
                delay_ms: f,
                timer: ChordTimer::FixFingers,
            },
            ChordAction::SetTimer {
                delay_ms: c,
                timer: ChordTimer::CheckPredecessor,
            },
        ]
    }

    fn on_stabilize_timer(&mut self, reschedule: bool) -> Vec<ChordAction> {
        let mut actions = Vec::new();
        if reschedule {
            let delay_ms = self.jittered(self.cfg.stabilize_period_ms);
            actions.push(ChordAction::SetTimer {
                delay_ms,
                timer: ChordTimer::Stabilize,
            });
        }
        let succ = self.successor();
        if succ.node != self.me.node {
            actions.extend(self.ask_neighbors(succ));
        }
        actions
    }

    /// One stabilize round against `succ`, superseding the last.
    fn ask_neighbors(&mut self, succ: NodeRef) -> [ChordAction; 2] {
        let gen = self.reqs.supersede(succ, Rpc::Stabilize);
        self.send_armed(gen, succ, ChordMsg::GetNeighbors { gen, from: self.me })
    }

    fn on_get_neighbors(&mut self, gen: u64, from: NodeRef) -> Vec<ChordAction> {
        if self.is_stranded() {
            // Answering would hand out an empty successor list, which the
            // asker would copy — contracting *its* redundancy and spreading
            // the damage. Stay silent: the asker times us out and routes
            // around.
            return Vec::new();
        }
        self.note_alive(from);
        vec![ChordAction::Send {
            to: from,
            msg: ChordMsg::NeighborsReply {
                gen,
                sender: self.me,
                predecessor: self.predecessor,
                successors: self.successors.clone(),
            },
        }]
    }

    fn on_neighbors_reply(
        &mut self,
        gen: u64,
        sender: NodeRef,
        predecessor: Option<NodeRef>,
        successors: Vec<NodeRef>,
    ) -> Vec<ChordAction> {
        if self
            .reqs
            .settle(gen, |r| matches!(r, Rpc::Stabilize))
            .is_none()
        {
            return Vec::new(); // stale round, or a duplicate reply
        }
        // Rectify: if our successor's predecessor sits between us, adopt it.
        if let Some(p) = predecessor {
            if p.node != self.me.node && p.id.in_open(self.me.id, sender.id) {
                self.adopt_successor(p);
            }
        }
        // Refresh the successor list: successor + its list, PLUS our old
        // entries as backups (deduplicated, clockwise order). Copying the
        // sender's list verbatim would let one degraded neighbour contract
        // our redundancy to nothing.
        let succ = self.successor();
        if succ.node == sender.node {
            // Fresh data first: the sender and its own list (it maintains
            // them actively). Our old entries are appended only as a
            // last-resort tail — they may be long dead, and sorting them
            // in between fresh entries would make failure walks step
            // through corpses.
            let me = self.me;
            let mut merged = Vec::with_capacity(SUCCESSOR_LIST_LEN);
            merged.push(sender);
            for cand in successors.iter().chain(&self.successors) {
                if merged.len() == SUCCESSOR_LIST_LEN {
                    break;
                }
                if cand.node != me.node
                    && cand.id != me.id
                    && !merged.iter().any(|m: &NodeRef| m.node == cand.node)
                {
                    merged.push(*cand);
                }
            }
            if merged != self.successors {
                self.successors = merged;
                self.route_stale = true;
            }
        }
        let new_succ = self.successor();
        if new_succ.node != self.me.node {
            return vec![ChordAction::Send {
                to: new_succ,
                msg: ChordMsg::Notify { candidate: self.me },
            }];
        }
        Vec::new()
    }

    /// The round went unanswered. It stays open (a late reply is still
    /// taken) until the next round supersedes it.
    fn on_stabilize_timeout(&mut self) -> Vec<ChordAction> {
        // Successor is dead: drop it and immediately stabilize against the
        // next one in the list.
        let dead = self.successor();
        self.purge(dead.node);
        let succ = self.successor();
        if succ.node == self.me.node {
            return self.isolation_check();
        }
        self.ask_neighbors(succ).into()
    }

    fn on_notify(&mut self, candidate: NodeRef) {
        if candidate.node == self.me.node || candidate.id == self.me.id {
            // A same-id candidate is a duplicate holder of our position
            // (it will demote itself); adopting it would wedge the ring.
            return;
        }
        let adopt = match self.predecessor {
            None => true,
            Some(p) => candidate.id.in_open(p.id, self.me.id),
        };
        if adopt {
            self.set_predecessor(Some(candidate));
        }
        // A notifying node is also a fine successor candidate on a sparse
        // ring (fresh singleton that others join onto).
        if self.successors.is_empty() {
            self.successors.push(candidate);
            self.route_stale = true;
        }
    }

    fn on_fix_fingers_timer(&mut self) -> Vec<ChordAction> {
        let delay_ms = self.jittered(self.cfg.fix_fingers_period_ms);
        let mut actions = vec![ChordAction::SetTimer {
            delay_ms,
            timer: ChordTimer::FixFingers,
        }];
        if !self.joined || self.successor().node == self.me.node {
            return actions;
        }
        // Repair a batch of slots per firing, round-robin. A start our own
        // neighbourhood decides costs no message and an empty slot a full
        // lookup; a filled one asks its incumbent, since between two sweeps
        // most fingers have not changed and the incumbent says so in one
        // round trip.
        let first_token = self.reqs.next_rid();
        for _ in 0..self.cfg.fingers_per_round.max(1) {
            let i = self.next_finger;
            self.next_finger = (self.next_finger + 1) % ChordId::BITS;
            let start = self.me.id.finger_start(i);
            actions.extend(match self.fingers[i as usize] {
                Some(f) if self.local_owner(start).is_none() => {
                    self.verify_finger(i, start, f, first_token)
                }
                _ => self.resolve_finger(i),
            });
        }
        actions
    }

    /// Resolve `successor(finger_start(i))` from our own tables onward. A
    /// start our own neighbourhood decides is settled here, as the lookup
    /// would settle it at once; the rid the lookup would have taken is
    /// burned, so every later rid is the one the lookup path gives.
    fn resolve_finger(&mut self, i: u32) -> Vec<ChordAction> {
        let start = self.me.id.finger_start(i);
        if let Some(owner) = self.local_owner(start) {
            self.reqs.burn();
            if owner.node != self.me.node {
                self.set_finger(i as usize, Some(owner));
            }
            return Vec::new();
        }
        let token = self.start_lookup(start, Purpose::Finger(i));
        self.resolve_or_send(token, false)
    }

    /// Ask incumbent `f` of slot `i` whether it still owns `start` — unless
    /// a question opened in this firing (token at or after `first_token`)
    /// already asks `f` about a key at or before `start`: its answer covers
    /// this slot too, so the slot joins it and nothing is sent.
    fn verify_finger(
        &mut self,
        i: u32,
        start: ChordId,
        f: NodeRef,
        first_token: u64,
    ) -> Vec<ChordAction> {
        let slot = 1u64 << i;
        let asked = self
            .reqs
            .iter_mut()
            .rev()
            .take_while(|r| r.rid >= first_token)
            .find_map(|r| match &mut r.purpose {
                Rpc::Lookup(Lookup {
                    purpose: Purpose::VerifyFingers(slots),
                    key,
                    ..
                }) if r.to == f && start.distance_to(f.id) <= key.distance_to(f.id) => Some(slots),
                _ => None,
            });
        if let Some(slots) = asked {
            *slots |= slot;
            return Vec::new();
        }
        let token = self.open_lookup(start, Purpose::VerifyFingers(slot), f, true);
        self.send_step(token)
    }

    /// The incumbent did not confirm — it forwarded, answered for another
    /// node, is stranded, or timed out. Close the question and resolve every
    /// slot it stood for.
    fn resolve_fingers(&mut self, token: u64, slots: u64) -> Vec<ChordAction> {
        self.reqs.close(token);
        (0..ChordId::BITS)
            .filter(|i| slots >> i & 1 == 1)
            .flat_map(|i| self.resolve_finger(i))
            .collect()
    }

    fn on_check_predecessor_timer(&mut self) -> Vec<ChordAction> {
        let delay_ms = self.jittered(self.cfg.check_predecessor_period_ms);
        let mut actions = vec![ChordAction::SetTimer {
            delay_ms,
            timer: ChordTimer::CheckPredecessor,
        }];
        if let Some(p) = self.predecessor {
            let nonce = self.reqs.supersede(p, Rpc::Ping);
            actions.extend(self.send_armed(nonce, p, ChordMsg::Ping { nonce }));
        }
        actions
    }

    // ------------------------------------------------------------------
    // Table maintenance helpers
    // ------------------------------------------------------------------

    /// Insert a heard-of node into the finger table where it improves
    /// routing. Deliberately does NOT touch the successor list: much of
    /// what reaches this function is *reported* second-hand (lookup owners,
    /// forward targets) and may be stale or dead — successor pointers are
    /// the ring's correctness backbone and are maintained exclusively by
    /// the stabilize/notify protocol, as in the original Chord.
    fn note_alive(&mut self, n: NodeRef) {
        if n.node == self.me.node || n.id == self.me.id || self.settled_covers(n) {
            return;
        }
        // Opportunistic finger repair from every node heard: fill empty
        // slots, and replace entries with a candidate strictly closer to
        // the finger start (i.e. a better approximation of
        // successor(start)).
        for i in 0..ChordId::BITS {
            let idx = i as usize;
            let start = self.me.id.finger_start(i);
            if !start.in_open_closed(self.me.id, n.id) {
                continue; // n does not cover this finger interval
            }
            let better = match self.fingers[idx] {
                None => true,
                Some(cur) => start.distance_to(n.id) < start.distance_to(cur.id),
            };
            if better {
                self.set_finger(idx, Some(n));
            }
        }
    }

    /// `n` (not at our id) improves no finger, known in O(1): it covers
    /// slots `0..=top`, and over the settled prefix each of those holds a
    /// finger at or past its start and no farther from us than slot
    /// `top`'s — so when that one is no farther than `n`, `n` is closer to
    /// no start. In a converged table the prefix spans every filled slot,
    /// so every live ring member is answered here.
    fn settled_covers(&mut self, n: NodeRef) -> bool {
        let d = self.me.id.distance_to(n.id);
        let top = d.ilog2();
        let settled = *self
            .settled
            .get_or_insert_with(|| settled_len(self.me.id, &self.fingers));
        top < settled
            && self.fingers[top as usize].is_some_and(|f| self.me.id.distance_to(f.id) <= d)
    }

    fn adopt_successor(&mut self, n: NodeRef) {
        if n.node == self.me.node || n.id == self.me.id {
            return;
        }
        let mut list = self.successors.clone();
        list.retain(|s| s.node != n.node);
        // Insert keeping clockwise order from me.
        let pos = list
            .iter()
            .position(|s| self.me.id.distance_to(n.id) < self.me.id.distance_to(s.id))
            .unwrap_or(list.len());
        list.insert(pos, n);
        list.truncate(SUCCESSOR_LIST_LEN);
        if list != self.successors {
            self.successors = list;
            self.route_stale = true;
        }
    }

    /// Remove a failed node from every table. Callers that can emit
    /// actions should follow up with [`Chord::isolation_check`].
    fn purge(&mut self, node: NodeId) {
        let listed = self.successors.len();
        self.successors.retain(|s| s.node != node);
        self.route_stale |= self.successors.len() != listed;
        for i in 0..self.fingers.len() {
            if self.fingers[i].is_some_and(|n| n.node == node) {
                self.set_finger(i, None);
            }
        }
        if self.predecessor.is_some_and(|p| p.node == node) {
            self.set_predecessor(None);
        }
        // A ping to the failed node is answered by nobody.
        self.reqs
            .retain(|r| !(matches!(r.purpose, Rpc::Ping) && r.to.node == node));
    }

    /// Emit `Isolated` once per strand episode so the host can
    /// re-join or retire this ring role.
    fn isolation_check(&mut self) -> Vec<ChordAction> {
        if self.is_stranded() && !self.reported_isolated {
            self.reported_isolated = true;
            vec![ChordAction::Isolated]
        } else {
            if !self.is_stranded() {
                self.reported_isolated = false;
            }
            Vec::new()
        }
    }

    /// A period with ±25% deterministic jitter, preventing ring-wide
    /// lockstep maintenance rounds.
    fn jittered(&mut self, period_ms: u64) -> u64 {
        self.jitter_state = self
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let spread = period_ms / 2; // ±25%
        if spread == 0 {
            return period_ms.max(1);
        }
        period_ms - spread / 2 + (self.jitter_state >> 33) % spread
    }

    /// Best-effort `NodeRef` for a bare `NodeId` (used when answering pings,
    /// where only the address matters; the id field is reconstructed from
    /// our tables when known, else zero).
    fn ref_for(&self, node: NodeId) -> NodeRef {
        debug_assert!(!self.route_stale, "refresh_route() before routing");
        self.route
            .iter()
            .filter(|e| e.node == node)
            .min_by_key(|e| e.rank)
            .map_or(NodeRef::new(node, ChordId(0)), RouteEntry::node_ref)
    }
}

/// The length of `fingers`' settled prefix (see `Chord::settled`).
fn settled_len(me: ChordId, fingers: &[Option<NodeRef>]) -> u32 {
    let mut floor = 0;
    fingers
        .iter()
        .zip(0u32..)
        .take_while(|&(f, i)| {
            f.is_some_and(|f| {
                let d = me.distance_to(f.id);
                let settled = d >= 1u64 << i && d >= floor;
                floor = d;
                settled
            })
        })
        .count() as u32
}

#[cfg(test)]
mod route_tests;

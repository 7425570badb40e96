//! The **Squirrel** baseline (Iyer, Rowstron, Druschel — PODC 2002): a
//! decentralized P2P web cache in which *every* peer sits on one DHT and
//! the *home node* `hash(url)` coordinates each object.
//!
//! The paper compares Flower-CDN against Squirrel's **directory** scheme
//! ("Squirrel … shares some similarities with Flower-CDN wrt the directory
//! structure", §6.1): the home node keeps a small directory of recent
//! downloaders and redirects queries to one of them. Its weakness under
//! churn is exactly what Fig. 3 shows: "the information about previous
//! downloaders … is abruptly lost with the failure of the directory peer
//! in charge of it" (§6.2.1). The **home-store** scheme (home node caches
//! the object itself) is also implemented as an ablation.
//!
//! Both schemes route every query across the whole overlay with no
//! locality awareness — the paper's two criticisms of DHT-based P2P
//! caching (§2).
//!
//! This module is the *protocol* half only: [`SquirrelPeer`] is a pure
//! [`Machine`]; the simulation engine that drives it lives in the
//! `flower-cdn` crate. It is built from the same [`PeerCtx`] as a
//! Flower-CDN peer and reports in the same vocabulary, and what happens
//! once the home node has named a provider — fetch, retry deadline, origin
//! fallback, the record the paper's metrics are read from — is
//! [`crate::timeline`], shared with Flower-CDN. Only how a provider is
//! *found* (one DHT lookup to the home node, every time) is Squirrel's own.

use std::collections::BTreeMap;

use bloom::hash::hash_u64;
use cdn_metrics::{Provider, ResolvedVia};
use chord::{Chord, ChordAction, ChordId, ChordMsg, ChordTimer, NodeRef};
use rand::Rng;
use simnet::NodeId;
use workload::ObjectId;

use crate::io::{Fx, Input, InputOf, Machine};
use crate::peer::{PeerCtx, ProtocolEvent};
use crate::qid::QueryId;
use crate::store::ContentStore;
use crate::tags::Event;
use crate::timeline::{self, QueryMachine, Stage, Timeline};
use crate::wire::{self, Wire};

/// Which Squirrel scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquirrelMode {
    /// Home node keeps pointers to recent downloaders (the paper's
    /// comparison target).
    Directory,
    /// Home node caches the object itself.
    HomeStore,
}

/// Recent-downloader directory capacity at a home node (the original
/// Squirrel keeps "a small directory" — 4 is its published default).
const HOME_DIR_CAPACITY: usize = 4;

/// Squirrel wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum SqMsg {
    Chord(ChordMsg),
    /// Query forwarded to the object's home node. `exclude` lists
    /// downloaders the requester already found dead (the home prunes them).
    Query {
        qid: QueryId,
        object: ObjectId,
        exclude: Vec<NodeId>,
    },
    /// Home node's verdict on query `qid`: fetch from `provider`, or from
    /// the origin.
    Answer {
        qid: QueryId,
        provider: Option<NodeId>,
    },
    Fetch {
        qid: QueryId,
        object: ObjectId,
    },
    FetchOk {
        qid: QueryId,
    },
    FetchMiss {
        qid: QueryId,
    },
    /// Home-store mode: the requester hands the home node a copy after a
    /// miss, so the home can serve the next query itself.
    StoreCopy {
        object: ObjectId,
    },
}

// Squirrel's own rows; the shared messages (`Chord`, the three fetches) are
// laid out as Flower-CDN's, so a byte means the same thing in both systems.
crate::wire_enum!(SqMsg, "squirrel message" {
    0 => Chord(msg),
    1 => Query { qid, object, exclude },
    2 => Answer { qid, provider },
    3 => Fetch { qid, object },
    4 => FetchOk { qid },
    5 => FetchMiss { qid },
    6 => StoreCopy { object },
});

impl SqMsg {
    /// Bytes this message would occupy on Flower-CDN's wire, counted exactly
    /// as [`FlowerMsg::wire_bytes`](crate::msg::FlowerMsg::wire_bytes)
    /// counts — same frame overhead, same codec, same modelled object body.
    /// Squirrel runs under the simulator only, so it has no frame of its own.
    pub fn wire_bytes(&self) -> usize {
        let body = match self {
            SqMsg::FetchOk { .. } | SqMsg::StoreCopy { .. } => wire::MODELLED_OBJECT_BYTES,
            _ => 0,
        };
        wire::FRAME_OVERHEAD + wire::encoded_len(|e| self.put(e)) + body
    }

    pub fn class(&self) -> &'static str {
        match self {
            SqMsg::Chord(m) => m.class(),
            SqMsg::Query { .. } => "sq_query",
            SqMsg::Answer { .. } => "sq_answer",
            SqMsg::Fetch { .. } => "fetch",
            SqMsg::FetchOk { .. } => "fetch_ok",
            SqMsg::FetchMiss { .. } => "fetch_miss",
            SqMsg::StoreCopy { .. } => "sq_store_copy",
        }
    }
}

/// Squirrel timers.
#[derive(Debug, Clone)]
pub enum SqTimer {
    Chord(ChordTimer),
    Query,
    /// A deadline query `qid` armed in `stage`: the home's answer or a
    /// fetch was not answered, or the origin round trip completed. Due only
    /// while the query is still in `stage`.
    Deadline {
        qid: QueryId,
        stage: Stage,
    },
}

impl SqTimer {
    pub fn class(&self) -> &'static str {
        match self {
            SqTimer::Chord(t) => t.class(),
            SqTimer::Query => "query",
            SqTimer::Deadline { stage, .. } => stage.deadline_class("sq_answer_deadline"),
        }
    }
}

struct SqPending {
    /// The timed part every system shares; its stage says where the fetch
    /// stands.
    tl: Timeline,
    object: ObjectId,
    home: Home,
    lookup_attempts: u32,
}

/// How far a query got finding its object's home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Not known, and no lookup for it runs: the query has yet to look,
    /// or went to the origin without one.
    Unknown,
    /// The DHT lookup for it runs under this Chord token.
    Lookup(u64),
    /// The home node last asked.
    Asked(NodeId),
}

impl Home {
    fn asked(self) -> Option<NodeId> {
        match self {
            Home::Asked(home) => Some(home),
            Home::Unknown | Home::Lookup(_) => None,
        }
    }
}

/// The object's DHT key: hash of its identifier (the "URL").
pub fn object_key(o: ObjectId) -> ChordId {
    ChordId(hash_u64(o.as_u64(), 0x5041_5154))
}

/// A Squirrel peer's ring position: hash of its address.
pub fn peer_ring_id(me: NodeId) -> ChordId {
    ChordId(hash_u64(me.raw(), 0x5153_4952))
}

/// A Squirrel peer.
pub struct SquirrelPeer {
    pcx: PeerCtx,
    mode: SquirrelMode,
    me: NodeId,
    /// An active peer whose query clock is not armed yet. The clock is
    /// armed once per peer life: at start for a member of the t = 0 ring,
    /// at the first `JoinComplete` for an arrival — not at a re-join's.
    clock_unarmed: bool,
    store: ContentStore,
    chord: Chord,
    /// Directory mode: recent downloaders of objects homed at me.
    home_dir: BTreeMap<ObjectId, Vec<NodeId>>,
    pending: Option<SqPending>,
    next_qid: u32,
    /// Actions from the Chord constructor, applied at `on_start`.
    startup_chord_actions: Vec<ChordAction>,
}

impl SquirrelPeer {
    /// A peer arriving through churn; joins the overlay through a
    /// bootstrap contact.
    pub fn arriving(pcx: PeerCtx, mode: SquirrelMode, me: NodeId, seed: NodeRef) -> SquirrelPeer {
        let me_ref = NodeRef::new(me, peer_ring_id(me));
        let (chord, actions) = Chord::join(me_ref, seed, pcx.params.chord.clone());
        SquirrelPeer::initial(pcx, mode, me, chord, actions)
    }

    /// A member holding `chord` already: the pre-converged state of the t=0
    /// population, or a join under way.
    pub fn initial(
        pcx: PeerCtx,
        mode: SquirrelMode,
        me: NodeId,
        chord: Chord,
        startup_chord_actions: Vec<ChordAction>,
    ) -> SquirrelPeer {
        let clock_unarmed = pcx.catalog.is_active(pcx.website);
        let store = ContentStore::with_policy(pcx.params.store_policy);
        SquirrelPeer {
            pcx,
            mode,
            me,
            clock_unarmed,
            store,
            chord,
            home_dir: BTreeMap::new(),
            pending: None,
            next_qid: 0,
            startup_chord_actions,
        }
    }

    pub fn is_joined(&self) -> bool {
        self.chord.is_joined()
    }

    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Objects currently homed at this peer (directory mode).
    pub fn homed_objects(&self) -> usize {
        self.home_dir.len()
    }

    /// The peer's Chord state (read-only; ring diagnostics).
    pub fn chord(&self) -> &Chord {
        &self.chord
    }

    /// The context this peer was built with (replay harnesses rebuild the
    /// machine from a clone of it).
    pub fn peer_ctx(&self) -> &PeerCtx {
        &self.pcx
    }

    fn apply_chord_actions(&mut self, ctx: &mut Fx<Self>, actions: Vec<ChordAction>) {
        for a in actions {
            match a {
                ChordAction::Send { to, msg } => ctx.send(to.node, SqMsg::Chord(msg)),
                ChordAction::SetTimer { delay_ms, timer } => {
                    ctx.set_timer(delay_ms, SqTimer::Chord(timer))
                }
                ChordAction::LookupDone {
                    token, owner, hops, ..
                } => self.on_lookup_done(ctx, token, owner, hops),
                ChordAction::LookupFailed { token, .. } => self.on_lookup_failed(ctx, token),
                ChordAction::JoinComplete { .. } => {
                    ctx.registry.add(self.chord.me());
                    if std::mem::take(&mut self.clock_unarmed) {
                        timeline::first_arrival(ctx, false);
                    }
                }
                ChordAction::JoinFailed | ChordAction::Isolated => {
                    // Join failed or we lost every successor: re-join in
                    // place through a fresh seed, which fails the pending
                    // query's home lookup into its retry. Deregister first
                    // so nobody bootstraps through us while we are cut off.
                    ctx.registry.remove(self.me);
                    if let Some(seed) = ctx.registry.pick(ctx.rng, &[self.me]) {
                        let actions = self.chord.rejoin(seed);
                        self.apply_chord_actions(ctx, actions);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn on_query_timer(&mut self, ctx: &mut Fx<Self>) {
        let busy = self.pending.is_some() || !self.chord.is_joined();
        let Some(object) = timeline::next_arrival(ctx, &self.pcx, &self.store, busy) else {
            return;
        };
        self.next_qid += 1;
        let qid = QueryId::new(self.me, self.next_qid);
        self.pending = Some(SqPending {
            tl: Timeline::issue(ctx, qid, self.pcx.website, Some(object)),
            object,
            home: Home::Unknown,
            lookup_attempts: 1,
        });
        self.start_home_lookup(ctx);
    }

    /// Look the pending object's home up over the DHT.
    fn start_home_lookup(&mut self, ctx: &mut Fx<Self>) {
        let p = self.pending.as_mut().expect("pending query");
        let (qid, key) = (p.tl.qid, object_key(p.object));
        ctx.emit(Event::RouteRequest { qid, key });
        let (token, actions) = self.chord.lookup_recursive(key);
        p.home = Home::Lookup(token);
        self.apply_chord_actions(ctx, actions);
    }

    /// Chord's lookup `token` ended at `owner`: if it is the pending
    /// query's home lookup, ask that home.
    fn on_lookup_done(&mut self, ctx: &mut Fx<Self>, token: u64, owner: NodeRef, hops: u32) {
        let Some(p) = &mut self.pending else {
            return;
        };
        if p.home != Home::Lookup(token) {
            return;
        }
        p.tl.dht_hops = hops;
        self.ask_home(ctx, owner.node);
    }

    /// Ask `home` whom to fetch the pending object from, naming the
    /// downloaders we already found dead so it prunes them.
    fn ask_home(&mut self, ctx: &mut Fx<Self>, home: NodeId) {
        let p = self.pending.as_mut().expect("pending query");
        p.home = Home::Asked(home);
        let (qid, object, exclude) = (p.tl.qid, p.object, p.tl.excluded.clone());
        if home == self.me {
            // We are the home node ourselves: consult our own directory.
            let provider = self.home_answer(ctx, self.me, object, &exclude);
            self.on_answer(ctx, qid, provider);
            return;
        }
        ctx.send(
            home,
            SqMsg::Query {
                qid,
                object,
                exclude,
            },
        );
        p.tl.await_answer(ctx, &self.pcx, 2);
    }

    fn on_lookup_failed(&mut self, ctx: &mut Fx<Self>, token: u64) {
        if self
            .pending
            .as_ref()
            .is_none_or(|p| p.home != Home::Lookup(token))
        {
            return;
        }
        ctx.emit(Event::Count(ProtocolEvent::RouteFailure));
        self.retry_or_origin(ctx);
    }

    /// The pending query found no home to answer it: look the home up
    /// again, or — with the second lookup spent — go to the origin, with no
    /// home to hand a copy to.
    fn retry_or_origin(&mut self, ctx: &mut Fx<Self>) {
        let p = self.pending.as_mut().expect("pending query");
        if p.lookup_attempts < 2 {
            p.lookup_attempts += 1;
            self.start_home_lookup(ctx);
        } else {
            p.home = Home::Unknown;
            p.tl.origin_round_trip(ctx, &self.pcx);
        }
    }

    fn on_answer(&mut self, ctx: &mut Fx<Self>, qid: QueryId, provider: Option<NodeId>) {
        let Some(p) = &mut self.pending else {
            return;
        };
        if !p.tl.resolving(qid) || p.home.asked().is_none() {
            return;
        }
        match provider {
            Some(target) if !p.tl.excluded.contains(&target) => {
                p.tl.fetch_from(ctx, &self.pcx, target, p.object);
            }
            _ => {
                ctx.emit(Event::Count(ProtocolEvent::DirNoProvider));
                p.tl.origin_round_trip(ctx, &self.pcx);
            }
        }
    }

    fn on_fetch_ok(&mut self, ctx: &mut Fx<Self>, from: NodeId, qid: QueryId) {
        let Some(p) = &self.pending else {
            return;
        };
        if !p.tl.fetching(qid, from) {
            return;
        }
        ctx.emit(Event::FetchOk { qid });
        let kind = if p.home == Home::Asked(from) {
            Provider::DirectoryPeer // home-store service
        } else {
            Provider::ContentPeer
        };
        self.complete(ctx, kind);
    }

    /// The provider refused (a listed downloader without the object) or
    /// timed out: ask the home again, naming it dead.
    fn on_fetch_failed(
        &mut self,
        ctx: &mut Fx<Self>,
        qid: QueryId,
        provider: NodeId,
        timed_out: bool,
    ) {
        let Some(p) = &mut self.pending else {
            return;
        };
        if !p.tl.fetching(qid, provider) {
            return;
        }
        let Some(home) = p.home.asked() else {
            return;
        };
        if p.tl.fetch_failed(ctx, provider, timed_out) {
            p.tl.origin_round_trip(ctx, &self.pcx);
        } else {
            self.ask_home(ctx, home);
        }
    }

    /// A deadline query `qid` armed in `stage` fired; it is taken only
    /// while the query is still in that stage.
    fn on_deadline(&mut self, ctx: &mut Fx<Self>, qid: QueryId, stage: Stage) {
        let Some(p) = &self.pending else {
            return;
        };
        if !p.tl.due(qid, stage) {
            return;
        }
        match stage {
            // No home is asked while its lookup runs, which ends itself.
            Stage::Resolving if p.home.asked().is_none() => {}
            Stage::Resolving => self.on_answer_deadline(ctx),
            Stage::Fetching { provider, .. } => self.on_fetch_failed(ctx, qid, provider, true),
            Stage::Origin => self.on_origin_done(ctx),
        }
    }

    fn on_answer_deadline(&mut self, ctx: &mut Fx<Self>) {
        // Home node died between lookup and query: re-route; the DHT will
        // have promoted a successor (whose directory starts empty — the
        // Squirrel weakness the paper highlights).
        ctx.emit(Event::Count(ProtocolEvent::DirQueryTimeout));
        self.retry_or_origin(ctx);
    }

    fn on_origin_done(&mut self, ctx: &mut Fx<Self>) {
        let p = self.pending.as_ref().expect("pending query");
        if self.mode == SquirrelMode::HomeStore {
            if let Home::Asked(home) = p.home {
                if home != self.me {
                    let object = p.object;
                    ctx.send(home, SqMsg::StoreCopy { object });
                }
            }
        }
        self.complete(ctx, Provider::OriginServer);
    }

    fn complete(&mut self, ctx: &mut Fx<Self>, provider: Provider) {
        let p = self.pending.take().expect("pending");
        let _evicted = self.store.insert_with_eviction(p.object);
        // (Squirrel has no retraction channel: stale home-directory
        // pointers are pruned by the exclude-on-requery protocol.)
        p.tl.complete(ctx, &self.pcx, provider, ResolvedVia::DhtRoute);
    }

    // ------------------------------------------------------------------
    // Home-node side
    // ------------------------------------------------------------------

    /// Answer a query for an object homed at me; prunes `exclude` from the
    /// directory and registers the requester as a recent downloader.
    fn home_answer(
        &mut self,
        ctx: &mut Fx<Self>,
        requester: NodeId,
        object: ObjectId,
        exclude: &[NodeId],
    ) -> Option<NodeId> {
        match self.mode {
            SquirrelMode::HomeStore => {
                if self.store.contains(object) {
                    Some(self.me)
                } else {
                    None
                }
            }
            SquirrelMode::Directory => {
                let dir = self.home_dir.entry(object).or_default();
                dir.retain(|n| !exclude.contains(n));
                let provider = if dir.is_empty() {
                    None
                } else {
                    Some(dir[ctx.rng.gen_range(0..dir.len())])
                };
                // Record the requester (it is about to hold the object),
                // most-recent last, bounded capacity.
                dir.retain(|&n| n != requester);
                dir.push(requester);
                if dir.len() > HOME_DIR_CAPACITY {
                    dir.remove(0);
                }
                provider
            }
        }
    }

    // ------------------------------------------------------------------
    // Input dispatch
    // ------------------------------------------------------------------

    fn on_start(&mut self, ctx: &mut Fx<Self>) {
        let startup = std::mem::take(&mut self.startup_chord_actions);
        self.apply_chord_actions(ctx, startup);
        if self.chord.is_joined() {
            // Initial member: no JoinComplete will fire.
            ctx.registry.add(self.chord.me());
            if std::mem::take(&mut self.clock_unarmed) {
                timeline::first_arrival(ctx, true);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Fx<Self>, from: NodeId, msg: SqMsg) {
        match msg {
            SqMsg::Chord(m) => {
                let actions = self.chord.handle_message(from, m);
                self.apply_chord_actions(ctx, actions);
            }
            SqMsg::Query {
                qid,
                object,
                exclude,
            } => {
                if !self.chord.owns_strict(object_key(object)) {
                    ctx.emit(Event::Count(ProtocolEvent::AnsweredByNonOwner));
                }
                let provider = self.home_answer(ctx, from, object, &exclude);
                let hit = provider.is_some();
                ctx.emit(Event::HomeAnswer { qid, hit });
                ctx.send(from, SqMsg::Answer { qid, provider });
            }
            SqMsg::Answer { qid, provider } => self.on_answer(ctx, qid, provider),
            SqMsg::Fetch { qid, object } => {
                let reply = if self.store.serve(object) {
                    SqMsg::FetchOk { qid }
                } else {
                    SqMsg::FetchMiss { qid }
                };
                ctx.send(from, reply);
            }
            SqMsg::FetchOk { qid } => self.on_fetch_ok(ctx, from, qid),
            SqMsg::FetchMiss { qid } => self.on_fetch_failed(ctx, qid, from, false),
            SqMsg::StoreCopy { object } => {
                if self.mode == SquirrelMode::HomeStore {
                    // A home's copy obeys the store policy like a download.
                    let _evicted = self.store.insert_with_eviction(object);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Fx<Self>, timer: SqTimer) {
        match timer {
            SqTimer::Chord(t) => {
                let actions = self.chord.handle_timer(t);
                self.apply_chord_actions(ctx, actions);
            }
            SqTimer::Query => self.on_query_timer(ctx),
            SqTimer::Deadline { qid, stage } => self.on_deadline(ctx, qid, stage),
        }
    }
}

impl QueryMachine for SquirrelPeer {
    fn query_timer() -> SqTimer {
        SqTimer::Query
    }

    fn fetch_msg(qid: QueryId, object: ObjectId) -> SqMsg {
        SqMsg::Fetch { qid, object }
    }

    fn deadline(qid: QueryId, stage: Stage) -> SqTimer {
        SqTimer::Deadline { qid, stage }
    }
}

impl Machine for SquirrelPeer {
    type Msg = SqMsg;
    type Timer = SqTimer;
    /// Squirrel has no local control surface.
    type Api = ();
    type ApiResp = ();

    fn handle(&mut self, mut ctx: Fx<'_, Self>, input: InputOf<Self>) {
        match input {
            Input::Start => self.on_start(&mut ctx),
            Input::Deliver { from, msg } => self.on_message(&mut ctx, from, msg),
            Input::Timer(t) => self.on_timer(&mut ctx, t),
            Input::Api { .. } => {}
            Input::Leave => {}
        }
    }

    fn msg_class(msg: &SqMsg) -> &'static str {
        msg.class()
    }

    fn timer_class(timer: &SqTimer) -> &'static str {
        timer.class()
    }

    fn msg_wire_bytes(msg: &SqMsg) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{machine_rng, Lent, Output, OutputOf};
    use cdn_metrics::QueryRecord;
    use simnet::{LocalityId, Time};

    type Out = OutputOf<SquirrelPeer>;

    /// The downloader the home names.
    const PROVIDER: usize = 5;

    /// The deadline of query `qid`'s wait for its home's answer.
    fn answer_deadline(qid: QueryId) -> SqTimer {
        SqTimer::Deadline {
            qid,
            stage: Stage::Resolving,
        }
    }

    /// A started member of a converged three-node ring — we at id 1, our
    /// successor at 2, `far` at the top of the id space — so every object
    /// is homed at `far` and its lookup leaves us. The other two are in the
    /// bootstrap registry. Returns the peer, `far`, and a `step` that feeds
    /// it one input 100 ms after the last.
    fn ring_member(
        mode: SquirrelMode,
    ) -> (
        SquirrelPeer,
        NodeRef,
        impl FnMut(&mut SquirrelPeer, InputOf<SquirrelPeer>) -> Vec<Out>,
    ) {
        let at = |i: usize, id: u64| NodeRef::new(NodeId::from_index(i), ChordId(id));
        let (me, far) = (at(0, 1), at(2, u64::MAX));
        let pcx = PeerCtx::for_tests();
        let ring = [me, at(1, 2), far];
        let (chord, actions) = Chord::converged(0, &ring, pcx.params.chord.clone());
        let mut peer = SquirrelPeer::initial(pcx, mode, me.node, chord, actions);
        let mut step = stepper(me.node, &ring[1..]);
        step(&mut peer, Input::Start);
        (peer, far, step)
    }

    /// A `step` that feeds the peer at `me` one input 100 ms after the
    /// last, with `registry` in the bootstrap registry.
    fn stepper(
        me: NodeId,
        registry: &[NodeRef],
    ) -> impl FnMut(&mut SquirrelPeer, InputOf<SquirrelPeer>) -> Vec<Out> {
        let (mut rng, mut now_ms, mut lent) = (machine_rng(1, me), 0, Lent::default());
        registry.iter().for_each(|&r| lent.registry.add(r));
        move |peer: &mut SquirrelPeer, input| {
            now_ms += 100;
            let at = Time::from_millis(now_ms);
            let fx = Fx::new(at, me, LocalityId(0), &mut rng, false, &mut lent);
            peer.handle(fx, input);
            std::mem::take(&mut lent.out)
        }
    }

    fn rpc_ms() -> u64 {
        PeerCtx::for_tests().rpc_ms()
    }

    /// The token of the home lookup the step started, if it did.
    fn home_lookup(out: &[Out]) -> Option<u64> {
        out.iter().find_map(|o| match o {
            Output::Send {
                msg: SqMsg::Chord(ChordMsg::Route { token, .. }),
                ..
            } => Some(*token),
            _ => None,
        })
    }

    /// `far`'s answer to home lookup `token`: the home is `far`.
    fn home_found(far: NodeRef, token: u64) -> InputOf<SquirrelPeer> {
        let msg = ChordMsg::RouteResult {
            token,
            owner: far,
            hops: 2,
        };
        Input::Deliver {
            from: far.node,
            msg: SqMsg::Chord(msg),
        }
    }

    /// `msg` from node `from`.
    fn from(from: usize, msg: SqMsg) -> InputOf<SquirrelPeer> {
        Input::Deliver {
            from: NodeId::from_index(from),
            msg,
        }
    }

    /// Every message the step sent, with its addressee, Chord's aside.
    fn sends(out: &[Out]) -> Vec<(NodeId, SqMsg)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send {
                    msg: SqMsg::Chord(_),
                    ..
                } => None,
                Output::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    /// The one timer of class `class` the step armed, and its delay.
    fn armed_one(out: &[Out], class: &str) -> (u64, SqTimer) {
        let mut found = out.iter().filter_map(|o| match o {
            Output::SetTimer { delay_ms, timer } if timer.class() == class => {
                Some((*delay_ms, timer.clone()))
            }
            _ => None,
        });
        let one = found
            .next()
            .unwrap_or_else(|| panic!("no {class}: {out:?}"));
        assert!(found.next().is_none(), "two {class}: {out:?}");
        one
    }

    fn events(out: &[Out]) -> Vec<ProtocolEvent> {
        out.iter()
            .filter_map(|o| match o {
                Output::Event(e) => e.counted(),
                _ => None,
            })
            .collect()
    }

    fn completed(out: &[Out]) -> Option<QueryRecord> {
        out.iter().find_map(|o| match o {
            Output::Event(Event::QueryComplete { record, .. }) => Some(*record),
            _ => None,
        })
    }

    /// Issue a query and let its home lookup find `far`: its qid, object
    /// and the answer deadline the ask armed.
    fn asked_home(
        peer: &mut SquirrelPeer,
        far: NodeRef,
        step: &mut impl FnMut(&mut SquirrelPeer, InputOf<SquirrelPeer>) -> Vec<Out>,
    ) -> (QueryId, ObjectId, SqTimer) {
        let out = step(peer, Input::Timer(SqTimer::Query));
        let token = home_lookup(&out).expect("looks the home up");
        let out = step(peer, home_found(far, token));
        let [(to, SqMsg::Query { qid, object, .. })] = &sends(&out)[..] else {
            panic!("asks the home: {out:?}");
        };
        assert_eq!(*to, far.node);
        let (delay, answer) = armed_one(&out, "sq_answer_deadline");
        assert_eq!(delay, 2 * rpc_ms());
        (*qid, *object, answer)
    }

    /// While the home lookup runs there is no home to have timed out: an
    /// answer deadline does nothing, and the lookup's answer still asks
    /// the home.
    #[test]
    fn answer_deadline_is_a_no_op_while_the_home_lookup_runs() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let out = step(&mut peer, Input::Timer(SqTimer::Query));
        let token = home_lookup(&out).expect("looks the home up");
        let qid = peer.pending.as_ref().expect("pending").tl.qid;
        let out = step(&mut peer, Input::Timer(answer_deadline(qid)));
        assert!(out.is_empty(), "{out:?}");
        let out = step(&mut peer, home_found(far, token));
        assert!(
            matches!(&sends(&out)[..], [(to, SqMsg::Query { .. })] if *to == far.node),
            "{out:?}"
        );
    }

    /// The home went silent: the query looks its home up again; when the
    /// second home is silent too, it goes to the origin.
    #[test]
    fn answer_deadline_looks_the_home_up_again_then_goes_to_the_origin() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let (_, _, first) = asked_home(&mut peer, far, &mut step);
        let out = step(&mut peer, Input::Timer(first));
        assert_eq!(events(&out), [ProtocolEvent::DirQueryTimeout]);
        assert!(sends(&out).is_empty(), "{out:?}");
        let token = home_lookup(&out).expect("looks the home up again");

        let out = step(&mut peer, home_found(far, token));
        let (_, second) = armed_one(&out, "sq_answer_deadline");
        let out = step(&mut peer, Input::Timer(second));
        assert_eq!(events(&out), [ProtocolEvent::DirQueryTimeout]);
        assert!(home_lookup(&out).is_none(), "{out:?}");
        let (delay, origin) = armed_one(&out, "origin_done");
        assert_eq!(delay, 2 * peer.pcx.origin_latency_ms);
        let record = completed(&step(&mut peer, Input::Timer(origin))).expect("completes");
        assert_eq!(record.provider, Provider::OriginServer);
    }

    /// The named downloader stayed silent: the home is asked again, told
    /// the downloader is dead.
    #[test]
    fn fetch_deadline_asks_the_home_again_excluding_the_provider() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let (qid, object, _) = asked_home(&mut peer, far, &mut step);
        let provider = NodeId::from_index(PROVIDER);
        let answer = SqMsg::Answer {
            qid,
            provider: Some(provider),
        };
        let out = step(&mut peer, from(far.node.index(), answer));
        assert_eq!(sends(&out), [(provider, SqMsg::Fetch { qid, object })]);
        let (delay, deadline) = armed_one(&out, "fetch_deadline");
        assert_eq!(delay, rpc_ms());

        let out = step(&mut peer, Input::Timer(deadline));
        assert_eq!(events(&out), [ProtocolEvent::FetchTimeout]);
        let again = SqMsg::Query {
            qid,
            object,
            exclude: vec![peer.me, provider],
        };
        assert_eq!(sends(&out), [(far.node, again)]);
        armed_one(&out, "sq_answer_deadline");
    }

    /// In home-store mode the origin's copy is handed to the home, so the
    /// home can serve the next query itself.
    #[test]
    fn home_store_origin_completion_hands_the_home_a_copy() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::HomeStore);
        let (qid, object, _) = asked_home(&mut peer, far, &mut step);
        let answer = SqMsg::Answer {
            qid,
            provider: None,
        };
        let out = step(&mut peer, from(far.node.index(), answer));
        assert_eq!(events(&out), [ProtocolEvent::DirNoProvider]);
        let (_, origin) = armed_one(&out, "origin_done");
        let out = step(&mut peer, Input::Timer(origin));
        assert_eq!(sends(&out), [(far.node, SqMsg::StoreCopy { object })]);
        let record = completed(&out).expect("completes");
        assert_eq!(record.provider, Provider::OriginServer);
    }

    /// ROADMAP 2(e), pinned as it stands: an answer deadline is taken
    /// whenever the query is resolving, whichever ask armed it. The first
    /// ask's deadline fires while the second ask waits, and looks the home
    /// up again. The fix for 2(e) flips this case.
    #[test]
    fn roadmap_2e_an_earlier_asks_answer_deadline_is_taken_by_a_later_ask() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let (qid, _, first) = asked_home(&mut peer, far, &mut step);
        let provider = NodeId::from_index(PROVIDER);
        let answer = SqMsg::Answer {
            qid,
            provider: Some(provider),
        };
        step(&mut peer, from(far.node.index(), answer));
        let out = step(&mut peer, from(PROVIDER, SqMsg::FetchMiss { qid }));
        assert_eq!(events(&out), [ProtocolEvent::FetchMiss]);
        armed_one(&out, "sq_answer_deadline");

        let out = step(&mut peer, Input::Timer(first));
        assert_eq!(events(&out), [ProtocolEvent::DirQueryTimeout]);
        assert!(home_lookup(&out).is_some(), "{out:?}");
    }

    /// The pending query is the one record of what was asked: the home's
    /// answer sends the named downloader a `Fetch` of the pending object,
    /// and its `FetchOk` stores that object.
    #[test]
    fn the_homes_answer_fetches_the_pending_object() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let (qid, _, _) = asked_home(&mut peer, far, &mut step);
        let object = peer.pending.as_ref().expect("pending").object;
        let provider = NodeId::from_index(PROVIDER);
        let answer = SqMsg::Answer {
            qid,
            provider: Some(provider),
        };
        let out = step(&mut peer, from(far.node.index(), answer));
        assert_eq!(sends(&out), [(provider, SqMsg::Fetch { qid, object })]);

        let out = step(&mut peer, from(PROVIDER, SqMsg::FetchOk { qid }));
        let record = completed(&out).expect("completes");
        assert_eq!(record.provider, Provider::ContentPeer);
        assert!(peer.store.contains(object));
    }

    /// The one Chord timer of `kind` the step armed.
    fn chord_timer(out: &[Out], kind: fn(&ChordTimer) -> bool) -> InputOf<SquirrelPeer> {
        let mut found = out.iter().filter_map(|o| match o {
            Output::SetTimer {
                timer: SqTimer::Chord(t),
                ..
            } if kind(t) => Some(*t),
            _ => None,
        });
        let one = found
            .next()
            .unwrap_or_else(|| panic!("none armed: {out:?}"));
        assert!(found.next().is_none(), "two armed: {out:?}");
        Input::Timer(SqTimer::Chord(one))
    }

    /// Cut `peer` off the ring: each successor in turn leaves a stabilize
    /// round unanswered, until it has purged them all and reports
    /// `Isolated`. Returns what the isolating step put out.
    fn isolate(
        peer: &mut SquirrelPeer,
        step: &mut impl FnMut(&mut SquirrelPeer, InputOf<SquirrelPeer>) -> Vec<Out>,
    ) -> Vec<Out> {
        let is_deadline = |t: &ChordTimer| matches!(t, ChordTimer::StabilizeDeadline { .. });
        let mut out = step(peer, Input::Timer(SqTimer::Chord(ChordTimer::Stabilize)));
        while !peer.chord.successor_list().is_empty() {
            out = step(peer, chord_timer(&out, is_deadline));
        }
        out
    }

    /// The re-join's lookup for our own id: to whom, under which token.
    fn join_step(out: &[Out]) -> (NodeId, u64) {
        out.iter()
            .find_map(|o| match o {
                Output::Send {
                    to,
                    msg: SqMsg::Chord(ChordMsg::FindNext { token, .. }),
                } => Some((*to, *token)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no join step: {out:?}"))
    }

    /// A peer cut off while its home lookup runs re-joins in place: the
    /// lookup fails, its retry on the unjoined ring fails at once, and the
    /// query completes from the origin instead of waiting on a ring that
    /// is gone.
    #[test]
    fn an_isolated_peers_home_lookup_ends_its_query() {
        let (mut peer, _, mut step) = ring_member(SquirrelMode::Directory);
        let out = step(&mut peer, Input::Timer(SqTimer::Query));
        home_lookup(&out).expect("looks the home up");
        let out = isolate(&mut peer, &mut step);
        join_step(&out);
        assert_eq!(
            events(&out),
            [ProtocolEvent::RouteFailure, ProtocolEvent::RouteFailure]
        );
        let (_, origin) = armed_one(&out, "origin_done");
        let record = completed(&step(&mut peer, Input::Timer(origin))).expect("completes");
        assert_eq!(record.provider, Provider::OriginServer);
        assert!(peer.pending.is_none());
    }

    /// Answer the join lookup the step sent: `owner` holds our id. The
    /// clocks the `JoinComplete` armed.
    fn join_arms(
        peer: &mut SquirrelPeer,
        step: &mut impl FnMut(&mut SquirrelPeer, InputOf<SquirrelPeer>) -> Vec<Out>,
        out: &[Out],
        owner: NodeRef,
    ) -> usize {
        let (to, token) = join_step(out);
        let reply = ChordMsg::FindNextReply {
            token,
            result: chord::StepResult::Owner(owner),
        };
        let out = step(peer, from(to.index(), SqMsg::Chord(reply)));
        assert!(peer.is_joined(), "{out:?}");
        let query = |o: &&Out| {
            matches!(
                o,
                Output::SetTimer {
                    timer: SqTimer::Query,
                    ..
                }
            )
        };
        out.iter().filter(query).count()
    }

    /// The query clock is armed once per peer life: a re-join's
    /// `JoinComplete` re-registers the peer and arms no second clock.
    #[test]
    fn a_rejoins_join_complete_arms_no_query_clock() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        assert!(peer.pcx.catalog.is_active(peer.pcx.website));
        let out = isolate(&mut peer, &mut step);
        assert_eq!(join_arms(&mut peer, &mut step, &out, far), 0);
    }

    /// An arrival's clock is armed by its first `JoinComplete`, and by no
    /// later one.
    #[test]
    fn an_arrivals_query_clock_is_armed_by_its_first_join_only() {
        let at = |i| NodeRef::new(NodeId::from_index(i), peer_ring_id(NodeId::from_index(i)));
        let (me, seed, owner) = (NodeId::from_index(0), at(1), at(2));
        let pcx = PeerCtx::for_tests();
        let mut peer = SquirrelPeer::arriving(pcx, SquirrelMode::Directory, me, seed);
        let mut step = stepper(me, &[seed, owner]);
        let out = step(&mut peer, Input::Start);
        assert_eq!(join_arms(&mut peer, &mut step, &out, owner), 1);
        let out = isolate(&mut peer, &mut step);
        assert_eq!(join_arms(&mut peer, &mut step, &out, owner), 0);
    }

    /// Only the pending query's own home lookup names its home: a
    /// `LookupDone` under another token does nothing, and the query's
    /// lookup still asks the home it finds.
    #[test]
    fn a_lookup_done_of_another_token_is_a_no_op() {
        let (mut peer, far, mut step) = ring_member(SquirrelMode::Directory);
        let out = step(&mut peer, Input::Timer(SqTimer::Query));
        let token = home_lookup(&out).expect("looks the home up");
        let (mut rng, mut lent) = (machine_rng(2, peer.me), Lent::default());
        let stray = ChordAction::LookupDone {
            token: token + 1,
            key: ChordId(0),
            owner: far,
            hops: 1,
        };
        let at = Time::from_millis(10_000);
        let mut fx = Fx::new(at, peer.me, LocalityId(0), &mut rng, false, &mut lent);
        peer.apply_chord_actions(&mut fx, vec![stray]);
        assert!(lent.out.is_empty(), "{:?}", lent.out);

        let out = step(&mut peer, home_found(far, token));
        assert!(
            matches!(&sends(&out)[..], [(to, SqMsg::Query { .. })] if *to == far.node),
            "{out:?}"
        );
    }
}

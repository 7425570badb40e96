//! The Flower-CDN peer: one state machine covering all three roles a peer
//! moves through — fresh **client**, petal **content peer**, and D-ring
//! **directory peer** (§3, §4).
//!
//! The query path lives in [`crate::query`]; gossip, keepalive/push, claim
//! and promotion logic in [`crate::maintenance`]. This module owns the
//! struct, role bookkeeping, the sans-io [`Machine`] dispatch and the
//! D-ring (Chord) plumbing of directory peers.

use std::collections::BTreeMap;
use std::rc::Rc;

use cdn_metrics::ResolvedVia;
use chord::{Chord, ChordAction, ChordId, NodeRef, Outstanding};
use gossip::{Cyclon, ShuffleMode};
use rand::Rng;
use simnet::{LocalityId, NodeId, Time};

use workload::{Catalog, ObjectId, WebsiteId};

use crate::api::{ApiCall, ApiResp, ProviderKind, RoleKind};
use crate::config::{SimParams, SHUFFLE_LEN, VIEW_MAX_AGE};
use crate::directory::DirectoryIndex;
use crate::dirinfo::DirInfo;
use crate::dring::DirPosition;
use crate::io::{Fx, Input, InputOf, Machine};
use crate::msg::{FlowerMsg, FlowerTimer, RoutePayload, Summary};
use crate::qid::QueryId;
use crate::store::ContentStore;
use crate::tags::Event;
use crate::timeline::{self, QueryMachine, Stage, Timeline};

/// Immutable per-peer context handed in by the experiment engine, the same
/// for a Flower-CDN and a Squirrel peer. What changes under a peer — the
/// rendezvous registry, the origin dial, the profiler — is its host's,
/// lent through [`Fx`] for each exchange.
#[derive(Clone)]
pub struct PeerCtx {
    pub catalog: Rc<Catalog>,
    pub params: Rc<SimParams>,
    /// The website this peer is interested in, fixed for its lifetime.
    pub website: WebsiteId,
    /// One-way latency to this website's origin server, ms, while the
    /// origin is healthy.
    pub origin_latency_ms: u64,
}

/// Fine-grained protocol events for diagnosing where queries are lost,
/// counted per run. Squirrel peers count in the same vocabulary, so a run
/// of either system folds into one result the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolEvent {
    /// A provider answered `FetchMiss` (stale index / summary false
    /// positive; in Squirrel, a listed downloader without the object).
    FetchMiss,
    /// A fetch timed out (provider dead).
    FetchTimeout,
    /// A directory failed to answer a DirQuery in time (Squirrel: the home
    /// node died between lookup and query).
    DirQueryTimeout,
    /// D-ring routing failed or timed out for a client request (Squirrel:
    /// the DHT lookup for the home node failed outright).
    RouteFailure,
    /// A keepalive/push went unacknowledged (directory suspected dead).
    AckTimeout,
    /// A position claim was started.
    ClaimStarted,
    /// A DirQuery reached a live directory that had no provider (Squirrel:
    /// the home had no live downloader listed).
    DirNoProvider,
    /// A content-peer query fell to the origin because no directory was
    /// known at all.
    NoDirInfo,
    /// A directory demoted itself after failed position self-audits.
    Demoted,
    /// (Squirrel) a query was answered by a node that is not the strict
    /// ring owner of the object's key — routing-consistency diagnostic.
    AnsweredByNonOwner,
}

/// Directory-role state (D-ring membership).
pub struct DirectoryRole {
    pub position: DirPosition,
    pub chord: Chord,
    pub index: DirectoryIndex,
    /// Every D-ring lookup this directory awaits, by its Chord lookup
    /// token. Tokens restart with every new `Chord`, so this lives and
    /// dies with the role that issued them.
    pub(crate) route_jobs: BTreeMap<u64, RouteJob>,
    /// Claim arbitration state (§5.2.2): position id → (granted claimer,
    /// grant time). Grants expire so a claimer that dies mid-join does not
    /// wedge the position.
    pub grants: BTreeMap<ChordId, (NodeId, Time)>,
    /// PetalUp promotion in flight: (chosen peer, when).
    pub promotion_pending: Option<(NodeId, Time)>,
    /// Consecutive self-checks that did not resolve to us: the first
    /// re-asserts us to our successor, the third demotes us.
    pub self_check_misses: u8,
    /// Entered D-ring as a failure replacement (diagnostics).
    pub replacement: bool,
    /// Actions produced by the Chord constructor of a t=0 member, applied
    /// at `on_start`; empty for every role taken up later.
    pub(crate) startup_chord_actions: Vec<ChordAction>,
}

impl DirectoryRole {
    /// The role as it is taken up: nothing routed, granted or checked yet.
    pub(crate) fn new(
        position: DirPosition,
        chord: Chord,
        index: DirectoryIndex,
        replacement: bool,
    ) -> DirectoryRole {
        DirectoryRole {
            position,
            chord,
            index,
            route_jobs: BTreeMap::new(),
            grants: BTreeMap::new(),
            promotion_pending: None,
            self_check_misses: 0,
            replacement,
            startup_chord_actions: Vec::new(),
        }
    }
}

/// What a directory's D-ring lookup was started for.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RouteJob {
    /// Deliver `payload` to the key's ring owner, on behalf of another
    /// peer; it already spent `spent` hops being re-routed.
    Deliver { payload: RoutePayload, spent: u32 },
    /// The position self-check: does our position still resolve to us?
    PositionCheck,
}

/// Which hat the peer currently wears.
pub enum Role {
    /// Arrived, not yet attached to a petal.
    Client,
    /// Petal member: gossips, keepalives, queries locally.
    Content,
    /// D-ring member managing (part of) a petal.
    Directory(Box<DirectoryRole>),
}

/// Outstanding query state (at most one per peer; the 6-minute query period
/// dwarfs every latency involved). A peer holds it boxed, for the few
/// seconds of each query period it exists.
pub(crate) struct PendingQuery {
    /// The timed part every system shares.
    pub tl: Timeline,
    /// `None` = pure petal-join request (non-active websites).
    pub object: Option<ObjectId>,
    pub via: ResolvedVia,
    /// Bootstrap / routing attempts used.
    pub route_attempts: u32,
    /// The bootstrap the in-flight route attempt went through; excluded
    /// from the next attempt if this one times out (partition backoff).
    pub last_bootstrap: Option<NodeId>,
    /// Set when the query was issued by a local API `Get`: the token to
    /// answer with [`ApiResp::Got`] on completion.
    pub api_token: Option<u64>,
}

/// What a content peer awaits an answer to. Its rid is the `seq` the
/// request and its deadline carry.
pub(crate) enum Await {
    /// A keepalive or push to our directory, acknowledged by a `DirAck`
    /// (§5.1); at most one at a time.
    DirAck,
    /// The `attempts`-th claim in a row on our dead directory's
    /// `position`, answered by a grant or a denial (§5.2.2).
    Claim {
        position: DirPosition,
        attempts: u32,
    },
}

impl Await {
    pub(crate) fn is_ack(&self) -> bool {
        matches!(self, Await::DirAck)
    }
}

/// The Flower-CDN peer.
pub struct FlowerPeer {
    pub(crate) pcx: PeerCtx,
    pub(crate) me: NodeId,
    pub(crate) locality: LocalityId,
    /// Clients of active websites issue queries (§6.1).
    pub(crate) active: bool,
    pub(crate) store: ContentStore,
    pub(crate) gossip: Cyclon<Summary>,
    pub(crate) dir_info: Option<DirInfo>,
    pub(crate) role: Role,
    pub(crate) pending: Option<Box<PendingQuery>>,
    pub(crate) next_qid: u32,
    /// The dir-ack exchange and the position claim in flight.
    pub(crate) awaiting: Outstanding<Await>,
    /// Bootstraps that failed to route for us recently.
    pub(crate) boot_exclude: Vec<NodeId>,
}

impl FlowerPeer {
    /// A fresh client arriving through churn.
    pub fn new_client(pcx: PeerCtx, me: NodeId, locality: LocalityId) -> FlowerPeer {
        let active = pcx.catalog.is_active(pcx.website);
        let params = Rc::clone(&pcx.params);
        FlowerPeer {
            pcx,
            me,
            locality,
            active,
            store: ContentStore::with_policy(params.store_policy),
            gossip: Cyclon::new(me, ShuffleMode::Union, SHUFFLE_LEN, 0).with_max_age(VIEW_MAX_AGE),
            dir_info: None,
            role: Role::Client,
            pending: None,
            next_qid: 0,
            awaiting: Outstanding::default(),
            boot_exclude: Vec::new(),
        }
    }

    /// One of the initial directory peers forming the t=0 D-ring (§6.1),
    /// with a pre-converged Chord state built by the engine.
    pub fn new_initial_directory(
        pcx: PeerCtx,
        me: NodeId,
        locality: LocalityId,
        position: DirPosition,
        chord: Chord,
        startup_chord_actions: Vec<ChordAction>,
    ) -> FlowerPeer {
        let mut p = FlowerPeer::new_client(pcx, me, locality);
        let mut role = DirectoryRole::new(position, chord, DirectoryIndex::new(), false);
        role.startup_chord_actions = startup_chord_actions;
        p.role = Role::Directory(Box::new(role));
        p
    }

    // ------------------------------------------------------------------
    // Introspection (engine, tests)
    // ------------------------------------------------------------------

    pub fn website(&self) -> WebsiteId {
        self.pcx.website
    }

    pub fn locality(&self) -> LocalityId {
        self.locality
    }

    pub fn is_directory(&self) -> bool {
        matches!(self.role, Role::Directory(_))
    }

    pub fn is_content(&self) -> bool {
        matches!(self.role, Role::Content)
    }

    pub fn directory_position(&self) -> Option<DirPosition> {
        match &self.role {
            Role::Directory(d) => Some(d.position),
            _ => None,
        }
    }

    /// Content peers this directory manages (its PetalUp load).
    pub fn directory_load(&self) -> Option<usize> {
        match &self.role {
            Role::Directory(d) => Some(d.index.peer_count()),
            _ => None,
        }
    }

    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    pub fn dir_info(&self) -> Option<&DirInfo> {
        self.dir_info.as_ref()
    }

    /// The context this peer was built with (replay harnesses rebuild the
    /// machine from a clone of it).
    pub fn peer_ctx(&self) -> &PeerCtx {
        &self.pcx
    }

    // ------------------------------------------------------------------
    // Small shared helpers
    // ------------------------------------------------------------------

    pub(crate) fn alloc_qid(&mut self) -> QueryId {
        self.next_qid += 1;
        QueryId::new(self.me, self.next_qid)
    }

    /// DirInfo describing *me* as directory (for acks and redirects).
    pub(crate) fn self_dir_info(&self) -> Option<DirInfo> {
        match &self.role {
            Role::Directory(d) => Some(DirInfo::fresh(d.position, d.chord.me())),
            _ => None,
        }
    }

    /// Pick a bootstrap directory, avoiding recently failed ones (with a
    /// reset once everything is excluded).
    pub(crate) fn pick_bootstrap(&mut self, ctx: &mut Fx<Self>) -> Option<NodeRef> {
        ctx.registry.pick(ctx.rng, &self.boot_exclude).or_else(|| {
            self.boot_exclude.clear();
            ctx.registry.pick(ctx.rng, &[self.me])
        })
    }

    /// Apply Chord actions to the world; routes lookup completions to the
    /// D-ring forwarding logic.
    pub(crate) fn apply_chord_actions(&mut self, ctx: &mut Fx<Self>, actions: Vec<ChordAction>) {
        for a in actions {
            match a {
                ChordAction::Send { to, msg } => ctx.send(to.node, FlowerMsg::Chord(msg)),
                ChordAction::SetTimer { delay_ms, timer } => {
                    ctx.set_timer(delay_ms, FlowerTimer::Chord(timer))
                }
                ChordAction::LookupDone {
                    token,
                    key,
                    owner,
                    hops,
                } => self.on_route_lookup_done(ctx, token, key, owner, hops),
                ChordAction::LookupFailed { token, key: _ } => {
                    self.on_route_lookup_failed(ctx, token)
                }
                ChordAction::JoinComplete { .. } => self.entered_dring(ctx),
                ChordAction::JoinFailed => self.on_dring_join_failed(ctx),
                ChordAction::Isolated => {
                    // Cut off from D-ring: we cannot serve as a directory.
                    // Stand down; the position will be re-claimed.
                    self.demote_to_client(ctx);
                }
            }
        }
    }

    /// We are on D-ring: register with the rendezvous service, report the
    /// occupancy, and arm the first position self-check.
    pub(crate) fn entered_dring(&mut self, ctx: &mut Fx<Self>) {
        let Role::Directory(d) = &self.role else {
            return;
        };
        ctx.registry.add(d.chord.me());
        ctx.emit(Event::EnteredDRing {
            position: d.position,
            replacement: d.replacement,
        });
        Self::arm_position_check(ctx);
    }

    /// Our D-ring join could not complete (seed died): revert to content
    /// peer; the position stays vacant and a later claim will retry.
    /// `become_directory` already said we hold it, so say we stood down.
    fn on_dring_join_failed(&mut self, ctx: &mut Fx<Self>) {
        if let Role::Directory(d) = &self.role {
            if !d.chord.is_joined() {
                ctx.emit(Event::Demoted {
                    position: d.position,
                });
                self.role = Role::Content;
                self.close_claim();
            }
        }
    }

    /// A routing lookup completed: forward the payload to the ring owner
    /// (or handle it ourselves if we own the key).
    fn on_route_lookup_done(
        &mut self,
        ctx: &mut Fx<Self>,
        token: u64,
        key: ChordId,
        owner: NodeRef,
        hops: u32,
    ) {
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let (payload, hops) = match d.route_jobs.remove(&token) {
            Some(RouteJob::Deliver { payload, spent }) => (payload, hops + spent),
            Some(RouteJob::PositionCheck) => {
                return self.position_check_result(ctx, owner.node == self.me)
            }
            None => return, // internal chord lookup (join / fingers)
        };
        ctx.emit(Event::RouteDone {
            key,
            owner: owner.node,
            hops,
            qid: payload.client_qid(),
        });
        if owner.node == self.me {
            self.handle_routed(ctx, key, payload, hops);
        } else {
            ctx.send(owner.node, FlowerMsg::Routed { key, payload, hops });
        }
    }

    fn on_route_lookup_failed(&mut self, ctx: &mut Fx<Self>, token: u64) {
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let payload = match d.route_jobs.remove(&token) {
            Some(RouteJob::Deliver { payload, .. }) => payload,
            Some(RouteJob::PositionCheck) => return self.position_check_result(ctx, false),
            None => return,
        };
        match payload {
            RoutePayload::ClientRequest { client, qid, .. } => {
                ctx.emit(Event::RouteFailed {
                    qid: Some(qid),
                    position: None,
                    claimer: None,
                });
                ctx.send(client, FlowerMsg::RouteFailed { req_qid: qid });
            }
            // The claimer's ClaimDeadline will retry.
            RoutePayload::Claim { claimer, position } => ctx.emit(Event::RouteFailed {
                qid: None,
                position: Some(position),
                claimer: Some(claimer),
            }),
        }
    }

    /// Entry point for payloads arriving at their ring owner (me).
    pub(crate) fn handle_routed(
        &mut self,
        ctx: &mut Fx<Self>,
        key: ChordId,
        payload: RoutePayload,
        hops: u32,
    ) {
        if !self.is_directory() {
            // Stale routing (we died and were resurrected? impossible —
            // or routed during our own join). Drop; requester retries.
            return;
        }
        // Responsibility check: we must either be a directory of the key's
        // (website, locality) couple, or the *strict* ring owner of the key
        // (the arbiter for a vacant position). Anything else is a misroute
        // through a stale ring view — arbitrating on it would mint duplicate
        // position holders, so forward it another routing round instead.
        let responsible = match &self.role {
            Role::Directory(d) => {
                d.position.same_couple(key)
                    || d.position.chord_id() == key
                    || d.chord.owns_strict(key)
                    // A re-founded ring's sole member arbitrates every key
                    // until someone joins it (it has no predecessor, so
                    // `owns_strict` can never be true for it).
                    || d.chord.is_sole_member()
            }
            _ => false,
        };
        if !responsible {
            // Bounded re-route budget: a node with an incomplete ring view
            // (e.g. no predecessor) may resolve the key to itself over and
            // over — give up after a few rounds and let the requester's
            // deadline retry through a different bootstrap.
            if hops < 8 {
                self.on_dring_route_with_hops(ctx, key, payload, hops + 1);
            }
            return;
        }
        match payload {
            RoutePayload::ClientRequest {
                client,
                website,
                locality,
                object,
                qid,
            } => self
                .on_routed_client_request(ctx, key, client, website, locality, object, qid, hops),
            RoutePayload::Claim { claimer, position } => {
                self.on_routed_claim(ctx, claimer, position, hops)
            }
        }
    }

    /// A peer asked us (as its bootstrap) to route a payload over D-ring.
    fn on_dring_route(&mut self, ctx: &mut Fx<Self>, key: ChordId, payload: RoutePayload) {
        self.on_dring_route_with_hops(ctx, key, payload, 0);
    }

    /// Route (or re-route after a misroute) a payload toward `key`'s owner,
    /// preserving the hops it already `spent`.
    pub(crate) fn on_dring_route_with_hops(
        &mut self,
        ctx: &mut Fx<Self>,
        key: ChordId,
        payload: RoutePayload,
        spent: u32,
    ) {
        let Role::Directory(d) = &mut self.role else {
            // We are no directory (stale bootstrap entry): tell the client.
            if let RoutePayload::ClientRequest { client, qid, .. } = payload {
                ctx.send(client, FlowerMsg::RouteFailed { req_qid: qid });
            }
            return;
        };
        let (token, actions) = d.chord.lookup_recursive(key);
        d.route_jobs
            .insert(token, RouteJob::Deliver { payload, spent });
        self.apply_chord_actions(ctx, actions);
    }
}

impl FlowerPeer {
    pub(crate) fn on_start(&mut self, ctx: &mut Fx<Self>) {
        match &mut self.role {
            Role::Directory(d) => {
                let (me, position) = (d.chord.me(), d.position);
                let startup = std::mem::take(&mut d.startup_chord_actions);
                ctx.emit(Event::BecameDirectory {
                    position,
                    replacement: false,
                    snapshot: Some(false),
                    replayed: None,
                });
                self.apply_chord_actions(ctx, startup);
                Self::arm_dir_sweep(ctx, &self.pcx.params);
                if self.active {
                    timeline::first_arrival(ctx, true);
                }
                // Initial member: no JoinComplete will fire, so register
                // here (a founder is its own bootstrap, so local queries
                // route). Last, once the start-up outputs are queued:
                // registering before them raises small runs' peak RSS
                // (`grid_small`, ~5 %).
                ctx.registry.add(me);
            }
            _ => {
                if self.active {
                    // The first query doubles as the petal join.
                    timeline::first_arrival(ctx, false);
                } else {
                    // Non-active website: join the petal outright (§6.1).
                    self.start_petal_join(ctx);
                }
            }
        }
    }

    pub(crate) fn on_message(&mut self, ctx: &mut Fx<Self>, from: NodeId, msg: FlowerMsg) {
        match msg {
            FlowerMsg::Chord(m) => {
                if let Role::Directory(d) = &mut self.role {
                    let actions = d.chord.handle_message(from, m);
                    self.apply_chord_actions(ctx, actions);
                }
            }
            FlowerMsg::DRingRoute { key, payload } => self.on_dring_route(ctx, key, payload),
            FlowerMsg::Routed { key, payload, hops } => self.handle_routed(ctx, key, payload, hops),
            FlowerMsg::RouteFailed { req_qid } => self.on_route_failed(ctx, req_qid),
            FlowerMsg::Redirect(r) => self.on_redirect(ctx, r),
            FlowerMsg::DirQuery {
                qid,
                object,
                exclude,
            } => self.on_dir_query(ctx, from, qid, object, exclude),
            FlowerMsg::SiblingQuery(q) => self.on_sibling_query(ctx, q),
            FlowerMsg::DeadPeerReport { peer } => {
                if let Role::Directory(d) = &mut self.role {
                    d.index.remove_peer(peer);
                }
            }
            FlowerMsg::Retract { objects } => {
                if let Role::Directory(d) = &mut self.role {
                    d.index.retract_objects(from, objects);
                }
            }
            FlowerMsg::ClaimGranted { position, seed } => {
                self.on_claim_granted(ctx, position, seed)
            }
            FlowerMsg::ClaimDenied { position, holder } => {
                self.on_claim_denied(ctx, position, holder)
            }
            FlowerMsg::Fetch { qid, object } => {
                let reply = if self.store.serve(object) {
                    FlowerMsg::FetchOk { qid }
                } else {
                    FlowerMsg::FetchMiss { qid }
                };
                ctx.send(from, reply);
            }
            FlowerMsg::FetchOk { qid } => self.on_fetch_ok(ctx, from, qid),
            FlowerMsg::FetchMiss { qid } => self.on_fetch_failed(ctx, qid, from, false),
            FlowerMsg::Gossip { inner, dir_info } => self.on_gossip(ctx, from, inner, dir_info),
            FlowerMsg::Keepalive { seq } => self.on_dir_exchange(ctx, from, seq, None),
            FlowerMsg::Push { seq, objects } => self.on_dir_exchange(ctx, from, seq, Some(objects)),
            FlowerMsg::DirAck { seq, dir } => self.on_dir_ack(ctx, seq, dir),
            FlowerMsg::Promote {
                position,
                seed,
                snapshot,
            } => self.on_promote(ctx, position, seed, snapshot),
        }
    }

    pub(crate) fn on_timer(&mut self, ctx: &mut Fx<Self>, timer: FlowerTimer) {
        match timer {
            FlowerTimer::Chord(t) => {
                if let Role::Directory(d) = &mut self.role {
                    let _p = ctx.profiler.scope("dring_maint");
                    let actions = d.chord.handle_timer(t);
                    self.apply_chord_actions(ctx, actions);
                }
            }
            FlowerTimer::Query => self.on_query_timer(ctx),
            FlowerTimer::Gossip => self.on_gossip_timer(ctx),
            FlowerTimer::GossipDeadline { gen } => {
                self.gossip.shuffle_timed_out(gen);
            }
            FlowerTimer::Keepalive => self.on_keepalive_timer(ctx),
            FlowerTimer::DirAckDeadline { seq } => self.on_dir_ack_deadline(ctx, seq),
            FlowerTimer::Deadline { qid, stage } => self.on_deadline(ctx, qid, stage),
            FlowerTimer::DirSweep => self.on_dir_sweep(ctx),
            FlowerTimer::ClaimDeadline { claim_seq } => self.on_claim_deadline(ctx, claim_seq),
            FlowerTimer::PositionCheck => self.on_position_check(ctx),
        }
    }

    pub(crate) fn on_leave(&mut self, ctx: &mut Fx<Self>) {
        // Voluntary departure (§5.2.2): a leaving directory transfers its
        // view and directory-index to a content peer it manages. The
        // paper's headline churn never exercises this (peers always fail);
        // tests and the maintenance ablation do.
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let candidates: Vec<NodeId> = d.index.peer_ids().filter(|&p| p != self.me).collect();
        if candidates.is_empty() {
            return;
        }
        let heir = candidates[ctx.rng.gen_range(0..candidates.len())];
        let seed = if d.chord.successor().node != self.me {
            d.chord.successor()
        } else {
            d.chord.me()
        };
        let snapshot = d.index.snapshot();
        let position = d.position;
        d.index.remove_peer(heir);
        ctx.send(
            heir,
            FlowerMsg::Promote {
                position,
                seed,
                snapshot: Some(snapshot),
            },
        );
    }
}

impl FlowerPeer {
    /// Serve a local API call (the networked node's control surface).
    pub(crate) fn on_api(&mut self, ctx: &mut Fx<Self>, token: u64, call: ApiCall) {
        match call {
            ApiCall::Ping => {
                let role = match self.role {
                    Role::Client => RoleKind::Client,
                    Role::Content => RoleKind::Content,
                    Role::Directory(_) => RoleKind::Directory,
                };
                ctx.respond(
                    token,
                    ApiResp::Pong {
                        node: self.me,
                        role,
                        website: self.pcx.website,
                        locality: self.locality,
                        store_len: self.store.len() as u64,
                        view_len: self.gossip.view().len() as u64,
                    },
                );
            }
            ApiCall::FindDirectory => {
                let dir = self.self_dir_info().or(self.dir_info);
                ctx.respond(token, ApiResp::Directory { dir });
            }
            ApiCall::Put { object } => {
                self.store_object(ctx, object);
                if self.is_directory() {
                    self.store.take_push_delta();
                } else if let Some(di) = self.dir_info {
                    // Advertise immediately (no push-threshold batching):
                    // a `put` object must be findable right away.
                    // Nobody awaits this push's ack: its seq is no request's.
                    let seq = self.awaiting.burn();
                    let objects = self.store.take_push_delta();
                    ctx.send(di.holder.node, FlowerMsg::Push { seq, objects });
                }
                ctx.respond(token, ApiResp::PutOk { object });
            }
            ApiCall::Get { object } => {
                if self.store.serve(object) {
                    ctx.respond(
                        token,
                        ApiResp::Got {
                            object,
                            provider: ProviderKind::Local,
                            elapsed_ms: 0,
                        },
                    );
                    return;
                }
                if self.pending.is_some() {
                    // One query in flight per peer; the client retries.
                    ctx.respond(token, ApiResp::Busy);
                    return;
                }
                self.issue_query(ctx, object, Some(token));
            }
        }
    }
}

impl QueryMachine for FlowerPeer {
    fn query_timer() -> FlowerTimer {
        FlowerTimer::Query
    }

    fn fetch_msg(qid: QueryId, object: ObjectId) -> FlowerMsg {
        FlowerMsg::Fetch { qid, object }
    }

    fn deadline(qid: QueryId, stage: Stage) -> FlowerTimer {
        FlowerTimer::Deadline { qid, stage }
    }
}

impl Machine for FlowerPeer {
    type Msg = FlowerMsg;
    type Timer = FlowerTimer;
    type Api = ApiCall;
    type ApiResp = ApiResp;

    fn handle(&mut self, mut ctx: Fx<'_, Self>, input: InputOf<Self>) {
        match input {
            Input::Start => self.on_start(&mut ctx),
            Input::Deliver { from, msg } => self.on_message(&mut ctx, from, msg),
            Input::Timer(t) => self.on_timer(&mut ctx, t),
            Input::Api { token, call } => self.on_api(&mut ctx, token, call),
            Input::Leave => self.on_leave(&mut ctx),
        }
    }

    fn msg_class(msg: &FlowerMsg) -> &'static str {
        msg.class()
    }

    fn timer_class(timer: &FlowerTimer) -> &'static str {
        timer.class()
    }

    fn msg_wire_bytes(msg: &FlowerMsg) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
impl PeerCtx {
    /// Table-1 parameters, website 0.
    pub(crate) fn for_tests() -> PeerCtx {
        let params = Rc::new(SimParams::paper_defaults(10));
        PeerCtx {
            catalog: Rc::new(Catalog::new(params.catalog.clone())),
            params,
            website: WebsiteId(0),
            origin_latency_ms: 300,
        }
    }

    /// The RPC timeout every query deadline is a multiple of.
    pub(crate) fn rpc_ms(&self) -> u64 {
        self.params.rpc_timeout_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{machine_rng, Lent, Output, OutputOf};
    use crate::msg::{Redirect, SiblingQuery};
    use cdn_metrics::{Provider, QueryRecord};
    use chord::{ChordMsg, ChordTimer, StepResult};
    use rand::rngs::StdRng;

    type Out = OutputOf<FlowerPeer>;

    /// What the cases lend a peer: a clock 100 ms further on at every
    /// step, the peer's RNG, and a registry and dial of its own. Trace
    /// events are emitted only once `tracing` is set.
    struct Host {
        me: NodeId,
        now_ms: u64,
        rng: StdRng,
        tracing: bool,
        lent: Lent<FlowerPeer>,
    }

    impl Host {
        /// A host for node `me` with `registered` in its registry.
        fn new(me: NodeId, registered: &[NodeRef]) -> Host {
            let mut lent = Lent::default();
            for &r in registered {
                lent.registry.add(r);
            }
            Host {
                me,
                now_ms: 0,
                rng: machine_rng(1, me),
                tracing: false,
                lent,
            }
        }

        /// Feed `peer` one input and take what it emitted.
        fn step(&mut self, peer: &mut FlowerPeer, input: InputOf<FlowerPeer>) -> Vec<Out> {
            self.now_ms += 100;
            let at = Time::from_millis(self.now_ms);
            let (rng, lent) = (&mut self.rng, &mut self.lent);
            let fx = Fx::new(at, self.me, LocalityId(0), rng, self.tracing, lent);
            peer.handle(fx, input);
            std::mem::take(&mut self.lent.out)
        }

        fn registered(&self, node: NodeId) -> bool {
            self.lent.registry.members().iter().any(|m| m.node == node)
        }
    }

    /// A started directory at the base position of (website 0, locality 0)
    /// on a converged three-node ring — a near successor and a `far` member,
    /// so the high finger slots hold `far` and their starts are not ours or
    /// the successor's to decide. Returns the peer, `far`, and a `step` that
    /// feeds it one input 100 ms after the last.
    fn started_directory() -> (
        FlowerPeer,
        NodeRef,
        impl FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>,
    ) {
        // The successor (node 1) is website 0's directory of locality 1.
        let (peer, far, mut host) = directory_with_successor_at(1 << 20);
        (peer, far, move |peer: &mut FlowerPeer, input| {
            host.step(peer, input)
        })
    }

    /// [`started_directory`] with its successor `offset` ids past it, and
    /// the host it was started on.
    fn directory_with_successor_at(offset: u64) -> (FlowerPeer, NodeRef, Host) {
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let me = NodeRef::new(NodeId::from_index(0), position.chord_id());
        let at = |i: usize, offset: u64| {
            NodeRef::new(NodeId::from_index(i), ChordId(me.id.0.wrapping_add(offset)))
        };
        let far = at(2, 1 << 63);
        let mut ring = [me, at(1, offset), far];
        ring.sort_by_key(|r| r.id);
        let me_idx = ring
            .iter()
            .position(|r| r.node == me.node)
            .expect("in ring");
        let pcx = PeerCtx::for_tests();
        let (chord, actions) = Chord::converged(me_idx, &ring, pcx.params.chord.clone());
        let mut peer = FlowerPeer::new_initial_directory(
            pcx,
            me.node,
            LocalityId(0),
            position,
            chord,
            actions,
        );
        let mut host = Host::new(me.node, &[]);
        host.step(&mut peer, Input::Start);
        (peer, far, host)
    }

    /// Both embeddings dispatch every Chord timer they armed; what keeps a
    /// superseded deadline harmless is `Chord::handle_timer` alone.
    #[test]
    fn superseded_chord_deadline_is_a_no_op_at_a_directory() {
        let (mut peer, far, mut step) = started_directory();

        // The finger sweep reaches `far`'s slots, asks it whether it still
        // owns them and arms a step deadline…
        let (token, deadline) = (0..4)
            .flat_map(|_| {
                step(
                    &mut peer,
                    Input::Timer(FlowerTimer::Chord(ChordTimer::FixFingers)),
                )
            })
            .find_map(|o| match o {
                Output::SetTimer {
                    timer: FlowerTimer::Chord(t @ ChordTimer::LookupStep { token, .. }),
                    ..
                } => Some((token, t)),
                _ => None,
            })
            .expect("a step deadline");
        // …the incumbent confirms in time…
        step(
            &mut peer,
            Input::Deliver {
                from: far.node,
                msg: FlowerMsg::Chord(ChordMsg::FindNextReply {
                    token,
                    result: StepResult::Owner(far),
                }),
            },
        );
        let chord_of = |peer: &FlowerPeer| match &peer.role {
            Role::Directory(d) => format!("{:?}", d.chord),
            _ => panic!("still a directory"),
        };
        let before = chord_of(&peer);
        assert!(
            before.contains("reqs: Outstanding { reqs: []"),
            "question closed"
        );
        // …so the deadline fires superseded.
        let out = step(&mut peer, Input::Timer(FlowerTimer::Chord(deadline)));
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(chord_of(&peer), before);
    }

    /// The ghost-holder ladder: a directory whose position self-check
    /// resolves to someone else re-asserts itself to its successor on the
    /// first miss, waits out the second, and stands down on the third —
    /// traced, reported, and off the registry its host lent it. A check
    /// that resolves to it starts the count over.
    #[test]
    fn self_check_misses_climb_the_demotion_ladder() {
        let (mut peer, _far, mut host) = directory_with_successor_at(1 << 20);
        host.tracing = true;
        let me = NodeRef::new(peer.me, peer.directory_position().expect("dir").chord_id());
        let successor = match &peer.role {
            Role::Directory(d) => d.chord.successor(),
            _ => panic!("a directory"),
        };
        assert!(host.registered(me.node), "a founder registers at start");
        // One self-check whose lookup the successor answers with `owner`:
        // what the answer made the directory emit.
        let mut check = |peer: &mut FlowerPeer, owner: NodeRef| {
            let out = host.step(peer, Input::Timer(FlowerTimer::PositionCheck));
            let token = out
                .iter()
                .find_map(|o| match o {
                    Output::Send {
                        to,
                        msg: FlowerMsg::Chord(ChordMsg::FindNext { token, .. }),
                    } if *to == successor.node => Some(*token),
                    _ => None,
                })
                .expect("the check asks the successor");
            let result = StepResult::Owner(owner);
            let answer = FlowerMsg::Chord(ChordMsg::FindNextReply { token, result });
            (
                host.step(peer, from(successor.node.index(), answer)),
                host.registered(me.node),
            )
        };
        let reassert = |out: &[Out]| {
            matches!(out, [Output::Send { to, msg: FlowerMsg::Chord(ChordMsg::Notify { candidate }) }]
                if *to == successor.node && *candidate == me)
        };
        for _ in 0..2 {
            let (out, _) = check(&mut peer, successor);
            assert!(reassert(&out), "a first miss re-asserts: {out:?}");
            let (out, _) = check(&mut peer, successor);
            assert!(out.is_empty(), "a second miss waits: {out:?}");
            // Found after all: the next miss is a first one again.
            let (out, _) = check(&mut peer, me);
            assert!(out.is_empty(), "{out:?}");
        }
        let (out, _) = check(&mut peer, successor);
        assert!(reassert(&out), "{out:?}");
        check(&mut peer, successor);
        let (out, still_registered) = check(&mut peer, successor);
        assert!(!peer.is_directory(), "a third miss demotes");
        assert!(
            out.iter()
                .any(|o| matches!(o, Output::Event(Event::Demoted { .. }))),
            "{out:?}"
        );
        assert_eq!(events(&out), [ProtocolEvent::Demoted]);
        assert!(!still_registered, "a demoted directory leaves the registry");
    }

    /// A directory whose D-ring join fails stands down and says so: the
    /// position its `BecameDirectory` named is answered by a `Demoted`,
    /// so no trace consumer keeps it as a holder.
    #[test]
    fn a_failed_dring_join_is_traced_as_a_demotion() {
        let me = NodeId::from_index(0);
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let seed = NodeRef::new(NodeId::from_index(1), ChordId(7));
        let mut peer = FlowerPeer::new_client(PeerCtx::for_tests(), me, LocalityId(0));
        peer.role = Role::Content;
        let mut host = Host::new(me, &[]);
        host.tracing = true;
        let (rng, lent) = (&mut host.rng, &mut host.lent);
        let mut fx = Fx::new(Time::from_millis(0), me, LocalityId(0), rng, true, lent);
        peer.become_directory(&mut fx, position, seed, None, true);
        let out = std::mem::take(&mut host.lent.out);
        assert!(
            out.iter().any(|o| matches!(o,
                Output::Event(Event::BecameDirectory { position: p, .. }) if *p == position)),
            "{out:?}"
        );
        // The seed never answers the join's first step.
        let step = out
            .iter()
            .find_map(|o| match o {
                Output::SetTimer {
                    timer: FlowerTimer::Chord(t @ ChordTimer::LookupStep { .. }),
                    ..
                } => Some(*t),
                _ => None,
            })
            .expect("the join's step deadline");
        let out = host.step(&mut peer, Input::Timer(FlowerTimer::Chord(step)));
        assert!(!peer.is_directory(), "a failed join stands down");
        assert!(
            out.iter().any(|o| matches!(o,
                Output::Event(Event::Demoted { position: p }) if *p == position)),
            "{out:?}"
        );
    }

    /// The hops a re-routed payload already spent belong to its routing job:
    /// a failed lookup takes them with it, and a directory that stands down
    /// and is promoted again — a new `Chord`, its tokens back at the first —
    /// reports the hops of the lookup at hand and nothing older.
    #[test]
    fn spent_hops_die_with_their_routing_job() {
        let (mut peer, far, mut step) = started_directory();
        let me = NodeRef::new(peer.me, peer.directory_position().expect("dir").chord_id());
        let client = NodeId::from_index(9);
        let request = |seq| RoutePayload::ClientRequest {
            client,
            website: WebsiteId(0),
            locality: LocalityId(0),
            object: None,
            qid: QueryId::new(client, seq),
        };
        // A payload that already spent two hops reaches us for a key that is
        // `far`'s to own: we route it on, a third hop spent.
        let misrouted = FlowerMsg::Routed {
            key: ChordId(me.id.0.wrapping_add(1 << 62)),
            payload: request(1),
            hops: 2,
        };
        let mut out = step(
            &mut peer,
            Input::Deliver {
                from: far.node,
                msg: misrouted,
            },
        );
        let jobs = |peer: &FlowerPeer| match &peer.role {
            Role::Directory(d) => d.route_jobs.values().cloned().collect::<Vec<_>>(),
            _ => panic!("still a directory"),
        };
        let job = RouteJob::Deliver {
            payload: request(1),
            spent: 3,
        };
        assert_eq!(jobs(&peer), [job]);
        // Nobody answers: every route deadline fires until Chord gives up
        // and the client is told.
        let failed = |out: &[Out]| {
            out.iter().any(|o| {
                matches!(o, Output::Send { to, msg: FlowerMsg::RouteFailed { .. } } if *to == client)
            })
        };
        for _ in 0..8 {
            if failed(&out) {
                break;
            }
            let deadline = out
                .iter()
                .find_map(|o| match o {
                    Output::SetTimer {
                        timer: t @ FlowerTimer::Chord(ChordTimer::RouteDeadline { .. }),
                        ..
                    } => Some(t.clone()),
                    _ => None,
                })
                .expect("a route deadline while the lookup is open");
            out = step(&mut peer, Input::Timer(deadline));
        }
        assert!(failed(&out), "{out:?}");
        assert!(jobs(&peer).is_empty(), "the failed job left state behind");

        // Stand down, then get promoted onto a ring of our own: the first
        // lookup of the new `Chord` reuses the failed one's token.
        let mut rng = machine_rng(2, me.node);
        let at = Time::from_millis(10_000);
        peer.demote_to_client(&mut Fx::new(
            at,
            me.node,
            LocalityId(0),
            &mut rng,
            false,
            &mut Lent::default(),
        ));
        assert!(!peer.is_directory());
        let promote = FlowerMsg::Promote {
            position: DirPosition::base(WebsiteId(0), LocalityId(0)),
            seed: me,
            snapshot: None,
        };
        step(
            &mut peer,
            Input::Deliver {
                from: far.node,
                msg: promote,
            },
        );
        assert!(peer.is_directory());
        let out = step(
            &mut peer,
            Input::Deliver {
                from: client,
                msg: FlowerMsg::DRingRoute {
                    key: me.id,
                    payload: request(2),
                },
            },
        );
        let dht_hops = out.iter().find_map(|o| match o {
            Output::Send {
                msg: FlowerMsg::Redirect(Redirect { dht_hops, .. }),
                ..
            } => Some(*dht_hops),
            _ => None,
        });
        assert_eq!(dht_hops, Some(0), "{out:?}");
    }

    /// A content peer's dir-ack exchange and its claim are each settled
    /// only by their own kind of answer: the ack of an API `Put`'s push,
    /// whose seq no request holds, leaves the keepalive awaited, and a
    /// `DirAck` carrying the claim's seq leaves the claim to be retried.
    #[test]
    fn acks_settle_only_the_request_they_answer() {
        let me = NodeId::from_index(0);
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let holder = NodeRef::new(NodeId::from_index(1), position.chord_id());
        let boot = NodeRef::new(NodeId::from_index(2), ChordId(7));
        let mut peer = FlowerPeer::new_client(PeerCtx::for_tests(), me, LocalityId(0));
        peer.role = Role::Content;
        peer.dir_info = Some(DirInfo::fresh(position, holder));
        let mut host = Host::new(me, &[boot]);
        let mut step = |peer: &mut FlowerPeer, input| host.step(peer, input);
        let deadline = |out: &[Out]| {
            out.iter().find_map(|o| match o {
                Output::SetTimer {
                    timer: t @ (FlowerTimer::DirAckDeadline { .. } | FlowerTimer::ClaimDeadline { .. }),
                    ..
                } => Some(t.clone()),
                _ => None,
            })
        };
        let ack = |seq| Input::Deliver {
            from: holder.node,
            msg: FlowerMsg::DirAck {
                seq,
                dir: DirInfo::fresh(position, holder),
            },
        };

        let out = step(&mut peer, Input::Timer(FlowerTimer::Keepalive));
        let Some(FlowerTimer::DirAckDeadline { seq: keepalive }) = deadline(&out) else {
            panic!("a keepalive awaits its ack: {out:?}");
        };
        let call = ApiCall::Put {
            object: ObjectId {
                website: WebsiteId(0),
                rank: 3,
            },
        };
        let out = step(&mut peer, Input::Api { token: 1, call });
        let put = out.iter().find_map(|o| match o {
            Output::Send {
                msg: FlowerMsg::Push { seq, .. },
                ..
            } => Some(*seq),
            _ => None,
        });
        assert!(put.is_some_and(|put| put != keepalive), "{out:?}");
        assert!(step(&mut peer, ack(put.expect("pushed"))).is_empty());

        // The keepalive is still awaited: its deadline suspects the
        // directory and a claim goes out through the bootstrap.
        let out = step(
            &mut peer,
            Input::Timer(FlowerTimer::DirAckDeadline { seq: keepalive }),
        );
        let timed_out =
            |o: &Out| matches!(o, Output::Event(Event::Count(ProtocolEvent::AckTimeout)));
        assert!(out.iter().any(timed_out), "{out:?}");
        let Some(FlowerTimer::ClaimDeadline { claim_seq }) = deadline(&out) else {
            panic!("a claim awaits its verdict: {out:?}");
        };
        assert!(step(&mut peer, ack(claim_seq)).is_empty());

        // The claim is still in flight: its deadline claims again.
        let out = step(
            &mut peer,
            Input::Timer(FlowerTimer::ClaimDeadline { claim_seq }),
        );
        let routed = |o: &Out| matches!(o, Output::Send { to, msg: FlowerMsg::DRingRoute { .. } } if *to == boot.node);
        assert!(out.iter().any(routed), "{out:?}");
        assert!(
            matches!(deadline(&out), Some(FlowerTimer::ClaimDeadline { claim_seq: next }) if next != claim_seq),
            "{out:?}"
        );
    }

    // ------------------------------------------------------------------
    // The provider search (§3.2): answer from the petal or walk on.
    // ------------------------------------------------------------------

    fn sibling_query_msg(q: SiblingQuery) -> FlowerMsg {
        FlowerMsg::SiblingQuery(q)
    }

    fn as_sibling_query(msg: &FlowerMsg) -> Option<SiblingQuery> {
        match msg {
            FlowerMsg::SiblingQuery(q) => Some(q.clone()),
            _ => None,
        }
    }

    fn as_redirect(msg: &FlowerMsg) -> Option<Redirect> {
        match msg {
            FlowerMsg::Redirect(r) => Some(r.clone()),
            _ => None,
        }
    }

    /// Every message the step sent, with its addressee.
    fn sends(out: &[Out]) -> Vec<(NodeId, FlowerMsg)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn no_provider_reports(out: &[Out]) -> usize {
        out.iter()
            .filter(|o| matches!(o, Output::Event(Event::Count(ProtocolEvent::DirNoProvider))))
            .count()
    }

    /// The object the cases search, and the content peer that pushes it.
    const OBJECT: ObjectId = ObjectId {
        website: WebsiteId(0),
        rank: 3,
    };
    const HOLDER: usize = 5;
    const CLIENT: usize = 9;

    /// Index `OBJECT` under [`HOLDER`], as its push does.
    fn index_holder(
        peer: &mut FlowerPeer,
        step: &mut impl FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>,
    ) {
        let push = FlowerMsg::Push {
            seq: 1,
            objects: vec![OBJECT],
        };
        let out = step(
            peer,
            Input::Deliver {
                from: NodeId::from_index(HOLDER),
                msg: push,
            },
        );
        assert!(matches!(sends(&out)[..], [(_, FlowerMsg::DirAck { .. })]));
    }

    /// The join ticket of another directory of website 0 (locality 1),
    /// whose search reached us along the walk.
    fn first_directory() -> DirInfo {
        let position = DirPosition::base(WebsiteId(0), LocalityId(1));
        DirInfo::fresh(
            position,
            NodeRef::new(NodeId::from_index(7), position.chord_id()),
        )
    }

    fn walked_view() -> Vec<(NodeId, Summary)> {
        let summary = std::sync::Arc::new(crate::store::empty_summary(0));
        vec![(NodeId::from_index(11), summary)]
    }

    /// A content peer's `DirQuery` with no provider in our petal goes on to
    /// our same-website successor, once, with the walk's full budget less
    /// one hop; the client, the asker and we are excluded, and the join
    /// ticket is ours. Only this directory reports the miss.
    #[test]
    fn dir_query_without_provider_walks_to_the_next_sibling() {
        let (mut peer, _far, mut step) = started_directory();
        let me = peer.me;
        let asker = NodeId::from_index(CLIENT);
        let failed = NodeId::from_index(4);
        let qid = QueryId::new(asker, 1);
        let ticket = peer.self_dir_info().expect("directory");
        let msg = FlowerMsg::DirQuery {
            qid,
            object: OBJECT,
            exclude: vec![failed],
        };
        let out = step(&mut peer, Input::Deliver { from: asker, msg });
        assert_eq!(no_provider_reports(&out), 1, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(
            sent[0].0,
            NodeId::from_index(1),
            "the same-website successor"
        );
        assert_eq!(
            as_sibling_query(&sent[0].1),
            Some(SiblingQuery {
                client: asker,
                qid,
                object: OBJECT,
                dir: ticket,
                petal_view: Vec::new(),
                exclude: vec![failed, asker, me],
                ttl: 6,
            })
        );
    }

    /// A `DirQuery` our petal can answer is redirected on the spot.
    #[test]
    fn dir_query_with_a_provider_is_redirected_directly() {
        let (mut peer, _far, mut step) = started_directory();
        index_holder(&mut peer, &mut step);
        let asker = NodeId::from_index(CLIENT);
        let qid = QueryId::new(asker, 1);
        let ticket = peer.self_dir_info().expect("directory");
        let msg = FlowerMsg::DirQuery {
            qid,
            object: OBJECT,
            exclude: Vec::new(),
        };
        let out = step(&mut peer, Input::Deliver { from: asker, msg });
        assert_eq!(no_provider_reports(&out), 0, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(sent[0].0, asker);
        assert_eq!(
            as_redirect(&sent[0].1),
            Some(Redirect {
                qid,
                provider: Some(NodeId::from_index(HOLDER)),
                dir: ticket,
                petal_view: Vec::new(),
                dht_hops: 0,
            })
        );
    }

    /// A sibling that holds a provider sends the original client straight
    /// to it, with the first directory's join ticket and petal view.
    #[test]
    fn sibling_with_a_provider_redirects_the_client() {
        let (mut peer, _far, mut step) = started_directory();
        index_holder(&mut peer, &mut step);
        let client = NodeId::from_index(CLIENT);
        let qid = QueryId::new(client, 1);
        let walked = SiblingQuery {
            client,
            qid,
            object: OBJECT,
            dir: first_directory(),
            petal_view: walked_view(),
            exclude: vec![client, NodeId::from_index(7)],
            ttl: 6,
        };
        let out = step(
            &mut peer,
            Input::Deliver {
                from: NodeId::from_index(7),
                msg: sibling_query_msg(walked),
            },
        );
        assert_eq!(no_provider_reports(&out), 0, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(sent[0].0, client);
        assert_eq!(
            as_redirect(&sent[0].1),
            Some(Redirect {
                qid,
                provider: Some(NodeId::from_index(HOLDER)),
                dir: first_directory(),
                petal_view: walked_view(),
                dht_hops: 0,
            })
        );
    }

    /// A sibling without a provider passes the search on, one hop spent,
    /// adding itself to the exclusions.
    #[test]
    fn sibling_without_a_provider_walks_on() {
        let (mut peer, _far, mut step) = started_directory();
        let me = peer.me;
        let client = NodeId::from_index(CLIENT);
        let qid = QueryId::new(client, 1);
        let walked = SiblingQuery {
            client,
            qid,
            object: OBJECT,
            dir: first_directory(),
            petal_view: walked_view(),
            exclude: vec![client, NodeId::from_index(7)],
            ttl: 4,
        };
        let out = step(
            &mut peer,
            Input::Deliver {
                from: NodeId::from_index(7),
                msg: sibling_query_msg(walked.clone()),
            },
        );
        assert_eq!(no_provider_reports(&out), 0, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(sent[0].0, NodeId::from_index(1));
        assert_eq!(
            as_sibling_query(&sent[0].1),
            Some(SiblingQuery {
                exclude: vec![client, NodeId::from_index(7), me],
                ttl: 3,
                ..walked
            })
        );
    }

    /// The walk ends in a `Redirect` without a provider — the client goes
    /// to the origin — when its budget is spent, or when our successor is
    /// a directory of another website.
    #[test]
    fn walk_ends_at_its_budget_or_the_website_edge() {
        let client = NodeId::from_index(CLIENT);
        let qid = QueryId::new(client, 1);
        let walked = |ttl| SiblingQuery {
            client,
            qid,
            object: OBJECT,
            dir: first_directory(),
            petal_view: walked_view(),
            exclude: vec![client],
            ttl,
        };
        let miss = Redirect {
            qid,
            provider: None,
            dir: first_directory(),
            petal_view: walked_view(),
            dht_hops: 0,
        };
        let (mut peer, _far, mut step) = started_directory();
        // Website 1's block starts 2^30 ids on.
        let (mut edge, _far, mut edge_host) = directory_with_successor_at(1 << 30);
        let mut edge_step = |peer: &mut FlowerPeer, input| edge_host.step(peer, input);
        type Step<'a> = &'a mut dyn FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>;
        for (peer, step, ttl) in [
            (&mut peer, &mut step as Step, 0),
            (&mut edge, &mut edge_step as Step, 6),
        ] {
            let out = step(
                peer,
                Input::Deliver {
                    from: NodeId::from_index(7),
                    msg: sibling_query_msg(walked(ttl)),
                },
            );
            assert_eq!(no_provider_reports(&out), 0, "{out:?}");
            let sent = sends(&out);
            assert_eq!(sent.len(), 1, "ttl {ttl}: {out:?}");
            assert_eq!(sent[0].0, client);
            assert_eq!(as_redirect(&sent[0].1), Some(miss.clone()), "ttl {ttl}");
        }

        // At the website's edge, a `DirQuery` without a provider is
        // answered with the miss by the directory that got it.
        let asker = NodeId::from_index(CLIENT);
        let msg = FlowerMsg::DirQuery {
            qid,
            object: OBJECT,
            exclude: Vec::new(),
        };
        let out = edge_step(&mut edge, Input::Deliver { from: asker, msg });
        assert_eq!(no_provider_reports(&out), 1, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(
            as_redirect(&sent[0].1),
            Some(Redirect {
                dir: edge.self_dir_info().expect("directory"),
                petal_view: Vec::new(),
                ..miss
            })
        );
    }

    /// A routed first query our petal can serve is answered on the spot
    /// and reports the hops its route took; one it cannot goes along the
    /// walk with the join ticket and petal view the client will need, and
    /// no `DirNoProvider`.
    #[test]
    fn routed_client_request_answers_with_the_route_hops_or_walks() {
        let (mut peer, _far, mut step) = started_directory();
        let me = peer.me;
        let ticket = peer.self_dir_info().expect("directory");
        let client = NodeId::from_index(CLIENT);
        let routed = |object, seq| FlowerMsg::Routed {
            key: ticket.position.chord_id(),
            payload: RoutePayload::ClientRequest {
                client,
                website: WebsiteId(0),
                locality: LocalityId(0),
                object: Some(object),
                qid: QueryId::new(client, seq),
            },
            hops: 3,
        };
        index_holder(&mut peer, &mut step);
        let out = step(
            &mut peer,
            Input::Deliver {
                from: NodeId::from_index(1),
                msg: routed(OBJECT, 1),
            },
        );
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(sent[0].0, client);
        let hit = as_redirect(&sent[0].1).expect("a redirect");
        assert_eq!(
            (hit.qid, hit.provider, hit.dir, hit.dht_hops),
            (
                QueryId::new(client, 1),
                Some(NodeId::from_index(HOLDER)),
                ticket,
                3
            )
        );
        assert!(hit.petal_view.iter().any(|(n, _)| n.index() == HOLDER));

        let other = ObjectId {
            website: WebsiteId(0),
            rank: 4,
        };
        let out = step(
            &mut peer,
            Input::Deliver {
                from: NodeId::from_index(1),
                msg: routed(other, 2),
            },
        );
        assert_eq!(no_provider_reports(&out), 0, "{out:?}");
        let sent = sends(&out);
        assert_eq!(sent.len(), 1, "{out:?}");
        assert_eq!(sent[0].0, NodeId::from_index(1));
        let walk = as_sibling_query(&sent[0].1).expect("a sibling query");
        assert_eq!(
            (walk.client, walk.qid, walk.object, walk.dir, walk.ttl),
            (client, QueryId::new(client, 2), other, ticket, 6)
        );
        assert_eq!(walk.exclude, [client, me]);
        assert!(walk.petal_view.iter().any(|(n, _)| n.index() == HOLDER));
    }

    // ------------------------------------------------------------------
    // The query's deadlines: each is taken only while the query is still
    // in the stage that armed it.
    // ------------------------------------------------------------------

    /// The provider the directory names first, and the one it names next.
    const PROVIDER: usize = 5;
    const NEXT_PROVIDER: usize = 6;

    /// The RPC timeout the client's deadlines are multiples of.
    fn rpc_ms() -> u64 {
        PeerCtx::for_tests().rpc_ms()
    }

    /// The deadline of query `qid`'s origin round trip.
    fn origin_deadline(qid: QueryId) -> FlowerTimer {
        FlowerTimer::Deadline {
            qid,
            stage: Stage::Origin,
        }
    }

    /// A fresh client of website 0 with bootstraps 2 and 3 registered, and
    /// a `step` that feeds it one input 100 ms after the last.
    fn client_peer() -> (
        FlowerPeer,
        impl FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>,
    ) {
        let me = NodeId::from_index(0);
        let boots = [2, 3].map(|i| NodeRef::new(NodeId::from_index(i), ChordId(7 + i as u64)));
        let peer = FlowerPeer::new_client(PeerCtx::for_tests(), me, LocalityId(0));
        let mut host = Host::new(me, &boots);
        (peer, move |peer: &mut FlowerPeer, input| {
            host.step(peer, input)
        })
    }

    /// A content peer whose directory is node 1 and whose view holds
    /// [`PROVIDER`] under a summary that claims nothing.
    fn content_peer() -> (
        FlowerPeer,
        DirInfo,
        impl FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>,
    ) {
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let dir = DirInfo::fresh(
            position,
            NodeRef::new(NodeId::from_index(1), position.chord_id()),
        );
        let (mut peer, step) = client_peer();
        peer.role = Role::Content;
        peer.dir_info = Some(dir);
        let summary = std::sync::Arc::new(crate::store::empty_summary(0));
        let provider = NodeId::from_index(PROVIDER);
        peer.gossip.seed([gossip::Entry::new(provider, summary)]);
        (peer, dir, step)
    }

    /// A local `Get` of `object`.
    fn get(object: ObjectId) -> InputOf<FlowerPeer> {
        Input::Api {
            token: 1,
            call: ApiCall::Get { object },
        }
    }

    /// `msg` from `from`.
    fn from(from: usize, msg: FlowerMsg) -> InputOf<FlowerPeer> {
        Input::Deliver {
            from: NodeId::from_index(from),
            msg,
        }
    }

    /// The directory `dir` sends query `qid` for [`OBJECT`] to `provider`.
    fn redirect(qid: QueryId, dir: DirInfo, provider: usize) -> InputOf<FlowerPeer> {
        let r = Redirect {
            qid,
            provider: Some(NodeId::from_index(provider)),
            dir,
            petal_view: Vec::new(),
            dht_hops: 0,
        };
        from(dir.holder.node.index(), FlowerMsg::Redirect(r))
    }

    /// The qid and exclusion list of the `DirQuery` the step sent.
    fn dir_query(out: &[Out]) -> Option<(QueryId, Vec<NodeId>)> {
        out.iter().find_map(|o| match o {
            Output::Send {
                msg: FlowerMsg::DirQuery { qid, exclude, .. },
                ..
            } => Some((*qid, exclude.clone())),
            _ => None,
        })
    }

    /// The timers the step armed, as (class label, delay, timer).
    fn armed(out: &[Out]) -> Vec<(&'static str, u64, FlowerTimer)> {
        out.iter()
            .filter_map(|o| match o {
                Output::SetTimer { delay_ms, timer } => {
                    Some((FlowerPeer::timer_class(timer), *delay_ms, timer.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// The one timer of class `class` the step armed, and its delay.
    fn armed_one(out: &[Out], class: &str) -> (u64, FlowerTimer) {
        let mut found = armed(out).into_iter().filter(|(c, ..)| *c == class);
        let (_, delay, timer) = found
            .next()
            .unwrap_or_else(|| panic!("no {class}: {out:?}"));
        assert!(found.next().is_none(), "two {class}: {out:?}");
        (delay, timer)
    }

    fn events(out: &[Out]) -> Vec<ProtocolEvent> {
        out.iter()
            .filter_map(|o| match o {
                Output::Event(e) => e.counted(),
                _ => None,
            })
            .collect()
    }

    /// The record of the query the step completed.
    fn completed(out: &[Out]) -> Option<QueryRecord> {
        out.iter().find_map(|o| match o {
            Output::Event(Event::QueryComplete { record, .. }) => Some(*record),
            _ => None,
        })
    }

    /// A query that asked its directory, was sent to [`PROVIDER`] and is
    /// fetching from it: its qid, the answer deadline the `DirQuery` armed
    /// and the fetch deadline.
    fn fetching_from_provider(
        peer: &mut FlowerPeer,
        dir: DirInfo,
        step: &mut impl FnMut(&mut FlowerPeer, InputOf<FlowerPeer>) -> Vec<Out>,
    ) -> (QueryId, FlowerTimer, FlowerTimer) {
        let out = step(peer, get(OBJECT));
        let (qid, _) = dir_query(&out).expect("asks its directory");
        let (_, answer) = armed_one(&out, "route_deadline");
        let out = step(peer, redirect(qid, dir, PROVIDER));
        let fetch = FlowerMsg::Fetch {
            qid,
            object: OBJECT,
        };
        assert_eq!(sends(&out), [(NodeId::from_index(PROVIDER), fetch)]);
        let (_, deadline) = armed_one(&out, "fetch_deadline");
        (qid, answer, deadline)
    }

    /// A fetch deadline is about one attempt: once the directory has named
    /// another provider, the first attempt's deadline does nothing, and the
    /// second fetch is still the one an answer completes.
    #[test]
    fn fetch_deadline_of_an_earlier_attempt_is_a_no_op() {
        let (mut peer, dir, mut step) = content_peer();
        let (qid, _, first) = fetching_from_provider(&mut peer, dir, &mut step);
        let miss = FlowerMsg::FetchMiss { qid };
        let out = step(&mut peer, from(PROVIDER, miss));
        assert_eq!(events(&out), [ProtocolEvent::FetchMiss]);
        assert!(dir_query(&out).is_some(), "{out:?}");
        let out = step(&mut peer, redirect(qid, dir, NEXT_PROVIDER));
        armed_one(&out, "fetch_deadline");

        let out = step(&mut peer, Input::Timer(first));
        assert!(out.is_empty(), "{out:?}");
        let ok = FlowerMsg::FetchOk { qid };
        let record = completed(&step(&mut peer, from(NEXT_PROVIDER, ok))).expect("completes");
        assert_eq!(record.provider, Provider::ContentPeer);
    }

    /// The current attempt's deadline gives up on the provider: it is
    /// reported, excluded, dropped from the view and reported dead to the
    /// directory, which is asked again under a fresh answer deadline.
    #[test]
    fn fetch_deadline_of_the_current_attempt_fails_the_fetch_and_asks_again() {
        let (mut peer, dir, mut step) = content_peer();
        let provider = NodeId::from_index(PROVIDER);
        let (qid, _, deadline) = fetching_from_provider(&mut peer, dir, &mut step);
        assert!(peer.gossip.view().contains(provider));

        let out = step(&mut peer, Input::Timer(deadline));
        assert_eq!(events(&out), [ProtocolEvent::FetchTimeout]);
        assert!(!peer.gossip.view().contains(provider));
        let again = FlowerMsg::DirQuery {
            qid,
            object: OBJECT,
            exclude: vec![peer.me, provider],
        };
        assert_eq!(
            sends(&out),
            [
                (
                    dir.holder.node,
                    FlowerMsg::DeadPeerReport { peer: provider }
                ),
                (dir.holder.node, again),
            ]
        );
        assert_eq!(armed_one(&out, "route_deadline").0, 5 * rpc_ms());
    }

    /// The origin deadline is only the origin stage's: fired while the
    /// query resolves or fetches, it does nothing.
    #[test]
    fn origin_deadline_is_a_no_op_before_the_origin_stage() {
        let (mut peer, dir, mut step) = content_peer();
        let out = step(&mut peer, get(OBJECT));
        let (qid, _) = dir_query(&out).expect("asks its directory");
        let out = step(&mut peer, Input::Timer(origin_deadline(qid)));
        assert!(out.is_empty(), "{out:?}");

        let out = step(&mut peer, redirect(qid, dir, PROVIDER));
        armed_one(&out, "fetch_deadline");
        let out = step(&mut peer, Input::Timer(origin_deadline(qid)));
        assert!(out.is_empty(), "{out:?}");
        let ok = FlowerMsg::FetchOk { qid };
        let record = completed(&step(&mut peer, from(PROVIDER, ok))).expect("completes");
        assert_eq!(record.provider, Provider::ContentPeer);
    }

    /// The answer deadline a `DirQuery` armed does nothing once the
    /// directory's answer has the query fetching.
    #[test]
    fn answer_deadline_is_a_no_op_while_fetching() {
        let (mut peer, dir, mut step) = content_peer();
        let (_, answer, deadline) = fetching_from_provider(&mut peer, dir, &mut step);
        let out = step(&mut peer, Input::Timer(answer));
        assert!(out.is_empty(), "{out:?}");
        let out = step(&mut peer, Input::Timer(deadline));
        assert_eq!(events(&out), [ProtocolEvent::FetchTimeout]);
    }

    /// Our own directory stayed silent: the query goes to the origin and
    /// a claim on the directory's position starts (§5.2).
    #[test]
    fn directory_answer_deadline_goes_to_the_origin_and_claims() {
        let (mut peer, _dir, mut step) = content_peer();
        let out = step(&mut peer, get(OBJECT));
        let (delay, answer) = armed_one(&out, "route_deadline");
        assert_eq!(delay, 5 * rpc_ms());

        let out = step(&mut peer, Input::Timer(answer));
        use ProtocolEvent::{ClaimStarted, DirQueryTimeout};
        assert_eq!(events(&out), [DirQueryTimeout, ClaimStarted]);
        let classes: Vec<&str> = armed(&out).iter().map(|(c, ..)| *c).collect();
        assert_eq!(classes, ["origin_done", "claim_deadline"]);
        let (_, origin) = armed_one(&out, "origin_done");
        let record = completed(&step(&mut peer, Input::Timer(origin))).expect("completes");
        assert_eq!(
            (record.provider, record.via),
            (Provider::OriginServer, ResolvedVia::DirectOrigin)
        );
    }

    /// A fresh client's D-ring route went unanswered: the query is routed
    /// again through the other bootstrap under the next multiple of the
    /// route deadline, and after the third silence goes to the origin.
    #[test]
    fn route_answer_deadline_reroutes_with_the_next_multiple() {
        let (mut peer, mut step) = client_peer();
        let routed_to = |out: &[Out]| {
            let to = sends(out)
                .into_iter()
                .filter_map(|(to, msg)| matches!(msg, FlowerMsg::DRingRoute { .. }).then_some(to));
            to.collect::<Vec<_>>()
        };
        let mut out = step(&mut peer, get(OBJECT));
        let first = routed_to(&out);
        for multiple in [8, 16] {
            let (delay, deadline) = armed_one(&out, "route_deadline");
            assert_eq!(delay, multiple * rpc_ms());
            out = step(&mut peer, Input::Timer(deadline));
            assert!(events(&out).is_empty(), "{out:?}");
            if multiple == 8 {
                let second = routed_to(&out);
                assert_eq!((first.len(), second.len()), (1, 1), "{out:?}");
                assert_ne!(first, second, "the silent bootstrap is excluded");
            }
        }
        let (delay, deadline) = armed_one(&out, "route_deadline");
        assert_eq!(delay, 24 * rpc_ms());
        let out = step(&mut peer, Input::Timer(deadline));
        assert_eq!(events(&out), [ProtocolEvent::RouteFailure]);
        armed_one(&out, "origin_done");
    }

    /// A finished query's deadlines are not the next query's, even where
    /// the next one stands at the same stage, provider and attempt.
    #[test]
    fn a_finished_querys_deadlines_are_no_ops_for_the_next() {
        let (mut peer, dir, mut step) = content_peer();
        let (qid, answer, fetch) = fetching_from_provider(&mut peer, dir, &mut step);
        let ok = FlowerMsg::FetchOk { qid };
        assert!(completed(&step(&mut peer, from(PROVIDER, ok))).is_some());

        let other = ObjectId {
            website: WebsiteId(0),
            rank: 4,
        };
        let out = step(&mut peer, get(other));
        let (next, _) = dir_query(&out).expect("asks its directory");
        assert_ne!(next, qid);
        let out = step(&mut peer, Input::Timer(answer));
        assert!(out.is_empty(), "{out:?}");
        let r = Redirect {
            qid: next,
            provider: Some(NodeId::from_index(PROVIDER)),
            dir,
            petal_view: Vec::new(),
            dht_hops: 0,
        };
        let out = step(&mut peer, from(1, FlowerMsg::Redirect(r)));
        armed_one(&out, "fetch_deadline");
        let out = step(&mut peer, Input::Timer(fetch));
        assert!(out.is_empty(), "{out:?}");
    }

    /// ROADMAP 2(e), pinned as it stands: an answer deadline is taken
    /// whenever the query is resolving, whichever wait armed it. The first
    /// `DirQuery`'s deadline fires while the second `DirQuery` waits, and
    /// sends the query to the origin. The fix for 2(e) flips this case.
    #[test]
    fn roadmap_2e_an_earlier_waits_answer_deadline_is_taken_by_a_later_wait() {
        let (mut peer, dir, mut step) = content_peer();
        let (qid, first, _) = fetching_from_provider(&mut peer, dir, &mut step);
        let miss = FlowerMsg::FetchMiss { qid };
        let out = step(&mut peer, from(PROVIDER, miss));
        assert!(dir_query(&out).is_some(), "{out:?}");
        armed_one(&out, "route_deadline");

        let out = step(&mut peer, Input::Timer(first));
        use ProtocolEvent::{ClaimStarted, DirQueryTimeout};
        assert_eq!(events(&out), [DirQueryTimeout, ClaimStarted]);
        armed_one(&out, "origin_done");
    }

    /// The pending query is the one record of what was asked: a fresh
    /// client's API `Get` is routed over D-ring and redirected to a
    /// provider, the `Fetch` names the pending object, and its `FetchOk`
    /// leaves that object in the store, in the `Got` answer and in the
    /// next `Push`.
    #[test]
    fn a_fetch_completes_the_object_its_query_asked_for() {
        let (mut peer, mut step) = client_peer();
        let out = step(&mut peer, get(OBJECT));
        let qid = out
            .iter()
            .find_map(|o| match o {
                Output::Send {
                    msg:
                        FlowerMsg::DRingRoute {
                            payload: RoutePayload::ClientRequest { qid, object, .. },
                            ..
                        },
                    ..
                } => (*object == Some(OBJECT)).then_some(*qid),
                _ => None,
            })
            .expect("routes the query");
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let dir = DirInfo::fresh(
            position,
            NodeRef::new(NodeId::from_index(1), position.chord_id()),
        );
        let out = step(&mut peer, redirect(qid, dir, PROVIDER));
        let fetch = FlowerMsg::Fetch {
            qid,
            object: OBJECT,
        };
        assert_eq!(sends(&out), [(NodeId::from_index(PROVIDER), fetch)]);

        let ok = FlowerMsg::FetchOk { qid };
        let out = step(&mut peer, from(PROVIDER, ok));
        assert!(peer.store.contains(OBJECT), "{out:?}");
        let got = out.iter().find_map(|o| match o {
            Output::Respond {
                token: 1,
                resp: ApiResp::Got {
                    object, provider, ..
                },
            } => Some((*object, *provider)),
            _ => None,
        });
        assert_eq!(got, Some((OBJECT, ProviderKind::ContentPeer)));
        let pushed = |out: &[Out]| {
            out.iter().find_map(|o| match o {
                Output::Send {
                    msg: FlowerMsg::Push { objects, .. },
                    ..
                } => Some(objects.clone()),
                _ => None,
            })
        };
        let objects = pushed(&out)
            .or_else(|| pushed(&step(&mut peer, Input::Timer(FlowerTimer::Keepalive))))
            .expect("pushes");
        assert_eq!(objects, [OBJECT]);
    }

    /// The protocol's phase scopes open on the profiler the host lends —
    /// the world's, in a simulation — so enabling it once times them all.
    #[test]
    fn scopes_open_on_the_lent_profiler() {
        let (mut dir, _far, mut host) = directory_with_successor_at(1 << 20);
        host.lent.profiler.enable();
        host.step(
            &mut dir,
            Input::Timer(FlowerTimer::Chord(ChordTimer::FixFingers)),
        );
        let (mut peer, _, _) = content_peer();
        let mut host = Host {
            lent: host.lent,
            ..Host::new(peer.me, &[])
        };
        host.step(&mut peer, Input::Timer(FlowerTimer::Gossip));
        host.step(&mut peer, get(OBJECT));
        let phases: Vec<String> = host
            .lent
            .profiler
            .phase_rows()
            .into_iter()
            .map(|row| row.path)
            .collect();
        assert_eq!(phases, ["dring_maint", "bloom_summary", "bloom_match"]);
    }
}

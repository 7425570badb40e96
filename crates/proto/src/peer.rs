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

use cdn_metrics::{QueryRecord, ResolvedVia};
use chord::{Chord, ChordAction, ChordId, NodeRef, Outstanding};
use gossip::{Cyclon, ShuffleMode};
use rand::Rng;
use simnet::{LocalityId, NodeId, Time};

use workload::{Catalog, ObjectId, WebsiteId};

use crate::api::{ApiCall, ApiResp, ProviderKind, RoleKind};
use crate::bootstrap::SharedBootstrap;
use crate::config::{SimParams, SHUFFLE_LEN, VIEW_MAX_AGE};
use crate::directory::DirectoryIndex;
use crate::dirinfo::DirInfo;
use crate::dring::DirPosition;
use crate::io::{Fx, Input, InputOf, Machine};
use crate::msg::{FlowerMsg, FlowerTimer, RoutePayload, Summary};
use crate::qid::QueryId;
use crate::store::ContentStore;
use crate::tags;
use crate::timeline::{self, QueryMachine, Timeline};

/// Immutable per-peer context handed in by the experiment engine, the same
/// for a Flower-CDN and a Squirrel peer.
#[derive(Clone)]
pub struct PeerCtx {
    pub catalog: Rc<Catalog>,
    pub params: Rc<SimParams>,
    pub bootstrap: SharedBootstrap,
    /// The website this peer is interested in, fixed for its lifetime.
    pub website: WebsiteId,
    /// One-way latency to this website's origin server, ms.
    pub origin_latency_ms: u64,
    /// Shared origin health state: chaos brownouts add latency here.
    pub origin_dial: Rc<crate::origin::OriginDial>,
    /// The engine's profiler handle (shared with the world). Disabled
    /// unless the run enables profiling; protocol hot spots (gossip
    /// summary builds, PetalUp scans, Bloom matching) open scopes on it.
    pub profiler: simnet::Profiler,
}

/// Events the engine collects (via `simnet` reports). Squirrel peers
/// report in the same vocabulary — `Query` and `Event` only — so a run of
/// either system folds into one result the same way.
#[derive(Debug, Clone)]
pub enum FlowerReport {
    /// A query completed (the paper's three metrics derive from these).
    Query(QueryRecord),
    /// This peer entered D-ring at `position`; `replacement` marks §5.2
    /// repair (vs. initial/bootstrap/promotion occupancy).
    BecameDirectory {
        position: DirPosition,
        replacement: bool,
    },
    /// A directory split off a new PetalUp instance (§4).
    PetalSplit { from: DirPosition, to: DirPosition },
    /// Low-level protocol event (diagnostics; see [`ProtocolEvent`]).
    Event(ProtocolEvent),
}

/// Fine-grained protocol events for diagnosing where queries are lost.
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
    /// Outstanding D-ring routings performed on behalf of other peers:
    /// chord lookup token → (payload to deliver, hops it already spent
    /// being re-routed). Tokens restart with every new `Chord`, so this
    /// lives and dies with the role that issued them.
    pub route_jobs: BTreeMap<u64, (RoutePayload, u32)>,
    /// Claim arbitration state (§5.2.2): position id → (granted claimer,
    /// grant time). Grants expire so a claimer that dies mid-join does not
    /// wedge the position.
    pub grants: BTreeMap<ChordId, (NodeId, Time)>,
    /// PetalUp promotion in flight: (chosen peer, when).
    pub promotion_pending: Option<(NodeId, Time)>,
    /// Outstanding position self-check lookup token.
    pub self_check_token: Option<u64>,
    /// Consecutive self-checks that did not resolve to us.
    pub self_check_misses: u8,
    /// Entered D-ring as a failure replacement (diagnostics).
    pub replacement: bool,
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
            self_check_token: None,
            self_check_misses: 0,
            replacement,
        }
    }
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
/// dwarfs every latency involved).
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
    pub(crate) pending: Option<PendingQuery>,
    pub(crate) next_qid: u32,
    /// The dir-ack exchange and the position claim in flight.
    pub(crate) awaiting: Outstanding<Await>,
    /// Bootstraps that failed to route for us recently.
    pub(crate) boot_exclude: Vec<NodeId>,
    /// Actions produced by the Chord constructor, applied at `on_start`.
    pub(crate) startup_chord_actions: Vec<ChordAction>,
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
            startup_chord_actions: Vec::new(),
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
        p.role = Role::Directory(Box::new(DirectoryRole::new(
            position,
            chord,
            DirectoryIndex::new(),
            false,
        )));
        p.startup_chord_actions = startup_chord_actions;
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

    pub fn view_len(&self) -> usize {
        self.gossip.view().len()
    }

    pub fn dir_info(&self) -> Option<&DirInfo> {
        self.dir_info.as_ref()
    }

    /// The context this peer was built with (replay harnesses clone it,
    /// swapping in a reconstructed bootstrap registry).
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
        let reg = self.pcx.bootstrap.borrow();
        match reg.pick(ctx.rng, &self.boot_exclude) {
            Some(r) => Some(r),
            None => {
                drop(reg);
                self.boot_exclude.clear();
                self.pcx.bootstrap.borrow().pick(ctx.rng, &[self.me])
            }
        }
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
        self.pcx.bootstrap.borrow_mut().add(d.chord.me());
        ctx.report(FlowerReport::BecameDirectory {
            position: d.position,
            replacement: d.replacement,
        });
        Self::arm_position_check(ctx);
    }

    /// Our D-ring join could not complete (seed died): revert to content
    /// peer; the position stays vacant and a later claim will retry.
    fn on_dring_join_failed(&mut self, _ctx: &mut Fx<Self>) {
        if let Role::Directory(d) = &self.role {
            if !d.chord.is_joined() {
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
        if d.self_check_token == Some(token) {
            d.self_check_token = None;
            let me = self.me;
            self.position_check_result(ctx, owner.node == me);
            return;
        }
        let Some((payload, spent)) = d.route_jobs.remove(&token) else {
            return; // internal chord lookup (join / fingers)
        };
        let hops = hops + spent;
        ctx.trace(tags::ROUTE_DONE, || {
            let mut f = vec![
                ("key", key.0.into()),
                ("owner", owner.node.into()),
                ("hops", hops.into()),
            ];
            if let RoutePayload::ClientRequest { qid, .. } = &payload {
                f.push(("qid", qid.raw().into()));
            }
            f
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
        if d.self_check_token == Some(token) {
            d.self_check_token = None;
            self.position_check_result(ctx, false);
            return;
        }
        let Some((payload, _)) = d.route_jobs.remove(&token) else {
            return;
        };
        ctx.trace(tags::ROUTE_FAILED, || {
            let mut f = Vec::new();
            if let RoutePayload::ClientRequest { qid, .. } = &payload {
                f.push(("qid", qid.raw().into()));
            }
            f
        });
        if let RoutePayload::ClientRequest { client, qid, .. } = payload {
            ctx.send(client, FlowerMsg::RouteFailed { req_qid: qid });
        }
        // Claims: the claimer's ClaimDeadline will retry.
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
    /// preserving the hop count already spent.
    pub(crate) fn on_dring_route_with_hops(
        &mut self,
        ctx: &mut Fx<Self>,
        key: ChordId,
        payload: RoutePayload,
        hops: u32,
    ) {
        let Role::Directory(d) = &mut self.role else {
            // We are no directory (stale bootstrap entry): tell the client.
            if let RoutePayload::ClientRequest { client, qid, .. } = payload {
                ctx.send(client, FlowerMsg::RouteFailed { req_qid: qid });
            }
            return;
        };
        let (token, actions) = d.chord.lookup_recursive(key);
        d.route_jobs.insert(token, (payload, hops));
        self.apply_chord_actions(ctx, actions);
    }
}

impl FlowerPeer {
    pub(crate) fn on_start(&mut self, ctx: &mut Fx<Self>) {
        let startup = std::mem::take(&mut self.startup_chord_actions);
        match &self.role {
            Role::Directory(d) => {
                let (me, pos) = (d.chord.me(), d.position);
                ctx.trace(tags::BECAME_DIRECTORY, || {
                    let mut f = tags::pos_fields(pos);
                    f.push(("replacement", false.into()));
                    f.push(("snapshot", false.into()));
                    f
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
                self.pcx.bootstrap.borrow_mut().add(me);
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
            FlowerMsg::Redirect {
                qid,
                object,
                provider,
                dir,
                petal_view,
                dht_hops,
            } => self.on_redirect(ctx, qid, object, provider, dir, petal_view, dht_hops),
            FlowerMsg::DirQuery {
                qid,
                object,
                exclude,
            } => self.on_dir_query(ctx, from, qid, object, exclude),
            FlowerMsg::SiblingQuery {
                client,
                qid,
                object,
                dir,
                petal_view,
                exclude,
                ttl,
            } => self.on_sibling_query(ctx, client, qid, object, dir, petal_view, exclude, ttl),
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
                    FlowerMsg::FetchOk { qid, object }
                } else {
                    FlowerMsg::FetchMiss { qid, object }
                };
                ctx.send(from, reply);
            }
            FlowerMsg::FetchOk { qid, object } => self.on_fetch_ok(ctx, from, qid, object),
            FlowerMsg::FetchMiss { qid, .. } => self.on_fetch_failed(ctx, qid, from, false),
            FlowerMsg::Gossip { inner, dir_info } => self.on_gossip(ctx, from, inner, dir_info),
            FlowerMsg::Keepalive { seq } => self.on_keepalive(ctx, from, seq),
            FlowerMsg::Push { seq, objects, full } => self.on_push(ctx, from, seq, objects, full),
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
                    let _p = self.pcx.profiler.scope("dring_maint");
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
            FlowerTimer::FetchDeadline { qid, attempt } => {
                self.on_fetch_deadline(ctx, qid, attempt)
            }
            FlowerTimer::RouteDeadline { qid } => self.on_route_deadline(ctx, qid),
            FlowerTimer::OriginDone { qid } => self.on_origin_done(ctx, qid),
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
                let evicted = self.store.insert_with_eviction(object);
                let now_ms = ctx.now().as_millis();
                let me = self.me;
                if let Role::Directory(d) = &mut self.role {
                    d.index.record_objects(me, [object], now_ms);
                    if !evicted.is_empty() {
                        d.index.retract_objects(me, evicted.iter().copied());
                    }
                    self.store.take_push_delta();
                } else if let Some(di) = self.dir_info {
                    // Advertise immediately (no push-threshold batching):
                    // a `put` object must be findable right away.
                    if !evicted.is_empty() {
                        ctx.send(di.holder.node, FlowerMsg::Retract { objects: evicted });
                    }
                    // Nobody awaits this push's ack: its seq is no request's.
                    let seq = self.awaiting.burn();
                    let objects = self.store.take_push_delta();
                    ctx.send(
                        di.holder.node,
                        FlowerMsg::Push {
                            seq,
                            objects,
                            full: false,
                        },
                    );
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

    fn fetch_deadline(qid: QueryId, attempt: u32) -> FlowerTimer {
        FlowerTimer::FetchDeadline { qid, attempt }
    }

    fn origin_done(qid: QueryId) -> FlowerTimer {
        FlowerTimer::OriginDone { qid }
    }
}

impl Machine for FlowerPeer {
    type Msg = FlowerMsg;
    type Timer = FlowerTimer;
    type Report = FlowerReport;
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
    /// Table-1 parameters, an empty registry, website 0.
    pub(crate) fn for_tests() -> PeerCtx {
        let params = Rc::new(SimParams::paper_defaults(10));
        PeerCtx {
            catalog: Rc::new(Catalog::new(params.catalog.clone())),
            params,
            bootstrap: crate::bootstrap::Bootstrap::shared(),
            website: WebsiteId(0),
            origin_latency_ms: 300,
            origin_dial: crate::origin::OriginDial::shared(),
            profiler: simnet::Profiler::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{machine_rng, Output, OutputOf};
    use chord::{ChordMsg, ChordTimer, StepResult};

    type Out = OutputOf<FlowerPeer>;

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
        let position = DirPosition::base(WebsiteId(0), LocalityId(0));
        let me = NodeRef::new(NodeId::from_index(0), position.chord_id());
        let at = |i: usize, offset: u64| {
            NodeRef::new(NodeId::from_index(i), ChordId(me.id.0.wrapping_add(offset)))
        };
        let far = at(2, 1 << 63);
        let mut ring = [me, at(1, 1 << 20), far];
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
        let mut rng = machine_rng(1, me.node);
        let mut now_ms = 0;
        let mut step = move |peer: &mut FlowerPeer, input| {
            now_ms += 100;
            let mut out = Vec::new();
            let at = Time::from_millis(now_ms);
            peer.handle(
                Fx::new(at, me.node, LocalityId(0), &mut rng, false, &mut out),
                input,
            );
            out
        };
        step(&mut peer, Input::Start);
        (peer, far, step)
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
        assert_eq!(jobs(&peer), [(request(1), 3)]);
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
        let mut demoted = Vec::new();
        let at = Time::from_millis(10_000);
        peer.demote_to_client(&mut Fx::new(
            at,
            me.node,
            LocalityId(0),
            &mut rng,
            false,
            &mut demoted,
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
                msg: FlowerMsg::Redirect { dht_hops, .. },
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
        let pcx = PeerCtx::for_tests();
        let boot = NodeRef::new(NodeId::from_index(2), ChordId(7));
        pcx.bootstrap.borrow_mut().add(boot);
        let mut peer = FlowerPeer::new_client(pcx, me, LocalityId(0));
        peer.role = Role::Content;
        peer.dir_info = Some(DirInfo::fresh(position, holder));
        let (mut rng, mut now_ms) = (machine_rng(1, me), 0);
        let mut step = |peer: &mut FlowerPeer, input| {
            now_ms += 100;
            let mut out = Vec::new();
            let at = Time::from_millis(now_ms);
            peer.handle(
                Fx::new(at, me, LocalityId(0), &mut rng, false, &mut out),
                input,
            );
            out
        };
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
        let timed_out = |o: &Out| {
            matches!(
                o,
                Output::Report(FlowerReport::Event(ProtocolEvent::AckTimeout))
            )
        };
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
}

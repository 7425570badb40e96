//! Maintenance protocols (§5): petal gossip with dir-info dissemination,
//! keepalive/push traffic to directories, directory failure detection and
//! replacement via position claims, PetalUp promotion, and directory
//! housekeeping.

use chord::{Chord, ChordId, NodeRef, FIRST_ATTEMPT};
use rand::Rng;
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::config::SimParams;
use crate::directory::{DirectoryIndex, DirectorySnapshot};
use crate::dirinfo::DirInfo;
use crate::dring::DirPosition;
use crate::io::Fx;
use crate::msg::{FlowerMsg, FlowerTimer, Redirect, Summary};
use crate::peer::{Await, DirectoryRole, FlowerPeer, ProtocolEvent, Role, RouteJob};
use crate::qid::QueryId;
use crate::tags::Event;

/// Grants and promotions older than this are considered abandoned.
const GRANT_TTL_MS: u64 = 60_000;

/// Uniform jitter in roughly [0.9·period, 1.1·period). Clamped so the
/// degenerate periods of quick-test configs (where `period * 9 / 10 ==
/// period * 11 / 10` after integer division) never produce an empty range,
/// which `gen_range` panics on.
pub(crate) fn jittered_period(rng: &mut impl Rng, period: u64) -> u64 {
    let lo = (period * 9 / 10).max(1);
    let hi = (period * 11 / 10).max(lo + 1);
    rng.gen_range(lo..hi)
}

/// The arbiter's "taken": `position` is (or is about to be) `holder`'s.
fn deny(ctx: &mut Fx<FlowerPeer>, claimer: NodeId, position: DirPosition, holder: NodeRef) {
    ctx.emit(Event::ClaimDenied { position, holder });
    ctx.send(claimer, FlowerMsg::ClaimDenied { position, holder });
}

/// The arbiter's "yours": note the grant under the position's ring id `key`
/// and seed the claimer's D-ring join with ourselves.
fn grant(
    ctx: &mut Fx<FlowerPeer>,
    d: &mut DirectoryRole,
    key: ChordId,
    claimer: NodeId,
    position: DirPosition,
) {
    d.grants.insert(key, (claimer, ctx.now()));
    let seed = d.chord.me();
    ctx.emit(Event::ClaimGranted { position, claimer });
    ctx.send(claimer, FlowerMsg::ClaimGranted { position, seed });
}

impl FlowerPeer {
    // ==================================================================
    // Petal gossip (§3.1, §5.1)
    // ==================================================================

    pub(crate) fn on_gossip_timer(&mut self, ctx: &mut Fx<Self>) {
        if !matches!(self.role, Role::Content) {
            return; // directories stop shuffling; clients haven't started
        }
        let period = self.pcx.params.gossip_period_ms;
        let jitter = jittered_period(ctx.rng, period);
        ctx.set_timer(jitter, FlowerTimer::Gossip);
        let summary = {
            let _p = ctx.profiler.scope("bloom_summary");
            self.store.summary()
        };
        if let Some((partner, msg, gen)) = self.gossip.start_shuffle(summary, ctx.rng) {
            ctx.emit(Event::GossipShuffle { partner, gen });
            ctx.send(
                partner,
                FlowerMsg::Gossip {
                    inner: msg,
                    dir_info: self.dir_info,
                },
            );
            ctx.set_timer(
                self.pcx.params.rpc_timeout_ms * 2,
                FlowerTimer::GossipDeadline { gen },
            );
        }
    }

    pub(crate) fn on_gossip(
        &mut self,
        ctx: &mut Fx<Self>,
        from: NodeId,
        inner: gossip::GossipMsg<Summary>,
        dir_info: Option<DirInfo>,
    ) {
        if self.is_directory() {
            // Directory peers no longer take part in shuffles; the sender's
            // deadline will purge us from its view.
            return;
        }
        self.merge_dir_info(dir_info);
        match inner {
            gossip::GossipMsg::ShuffleReq { entries } => {
                let summary = {
                    let _p = ctx.profiler.scope("bloom_summary");
                    self.store.summary()
                };
                let reply = self.gossip.handle_request(from, entries, summary, ctx.rng);
                ctx.send(
                    from,
                    FlowerMsg::Gossip {
                        inner: reply,
                        dir_info: self.dir_info,
                    },
                );
            }
            gossip::GossipMsg::ShuffleReply { entries } => {
                self.gossip.handle_reply(from, entries);
            }
        }
    }

    /// §5.1 dir-info exchange: same directory position → smaller age wins;
    /// a petal-mate with fresher knowledge re-points us after replacement.
    fn merge_dir_info(&mut self, incoming: Option<DirInfo>) {
        let Some(incoming) = incoming else {
            return;
        };
        match &mut self.dir_info {
            Some(mine) => mine.merge(&incoming),
            None => {
                // Adopt only if it is a directory for our own petal.
                if incoming.position.website == self.pcx.website
                    && incoming.position.locality == self.locality
                {
                    self.dir_info = Some(incoming);
                }
            }
        }
    }

    // ==================================================================
    // Keepalive / push (§5.1)
    // ==================================================================

    pub(crate) fn on_keepalive_timer(&mut self, ctx: &mut Fx<Self>) {
        if !matches!(self.role, Role::Content) {
            return;
        }
        let period = self.pcx.params.gossip_period_ms;
        let jitter = jittered_period(ctx.rng, period);
        ctx.set_timer(jitter, FlowerTimer::Keepalive);
        if let Some(di) = &mut self.dir_info {
            di.bump();
            let holder = di.holder;
            let push = self.store.should_push(self.pcx.params.push_threshold);
            self.start_dir_exchange(ctx, holder, push);
        } else {
            // Detached content peer (lost its directory and every claim so
            // far failed): try to re-enter the petal through D-ring.
            self.start_petal_join(ctx);
        }
    }

    /// Push outside the keepalive schedule, right after the threshold is
    /// crossed (§5.1: "whenever the percentage of changes reaches a
    /// threshold").
    pub(crate) fn maybe_push(&mut self, ctx: &mut Fx<Self>) {
        if !matches!(self.role, Role::Content) {
            return;
        }
        if !self.store.should_push(self.pcx.params.push_threshold) {
            return;
        }
        if self.awaiting.iter().any(|r| r.purpose.is_ack()) {
            return; // one outstanding exchange at a time
        }
        let Some(di) = self.dir_info else {
            return;
        };
        self.start_dir_exchange(ctx, di.holder, true);
    }

    /// One exchange with our directory `holder`, acknowledged by a
    /// `DirAck` or else suspected dead at the deadline: with `push`, a
    /// `Push` of everything the store has not announced yet, else a bare
    /// `Keepalive`. It supersedes the exchange in flight.
    fn start_dir_exchange(&mut self, ctx: &mut Fx<Self>, holder: NodeRef, push: bool) {
        let seq = self.awaiting.supersede(holder, Await::DirAck);
        self.awaiting.arm(seq);
        let msg = if push {
            let objects = self.store.take_push_delta();
            ctx.emit(Event::Push {
                seq,
                objects: objects.len(),
            });
            FlowerMsg::Push { seq, objects }
        } else {
            ctx.emit(Event::Keepalive { seq });
            FlowerMsg::Keepalive { seq }
        };
        ctx.send(holder.node, msg);
        ctx.set_timer(
            self.pcx.params.rpc_timeout_ms * 2,
            FlowerTimer::DirAckDeadline { seq },
        );
    }

    /// Directory side of the dir-ack exchange: note the sender — a push's
    /// `objects` go into the directory-index (a re-registration after
    /// replacement registers the sender as any push does), a keepalive
    /// only refreshes its liveness — then ack with my dir-info.
    pub(crate) fn on_dir_exchange(
        &mut self,
        ctx: &mut Fx<Self>,
        from: NodeId,
        seq: u64,
        objects: Option<Vec<ObjectId>>,
    ) {
        let Some(dir) = self.self_dir_info() else {
            return; // stale dir-info at sender → its ack deadline fires
        };
        if let Role::Directory(d) = &mut self.role {
            let now = ctx.now().as_millis();
            match objects {
                Some(objects) => d.index.record_objects(from, objects, now),
                None => d.index.heard_from(from, now),
            }
            ctx.send(from, FlowerMsg::DirAck { seq, dir });
        }
    }

    pub(crate) fn on_dir_ack(&mut self, _ctx: &mut Fx<Self>, seq: u64, dir: DirInfo) {
        if self.awaiting.settle(seq, Await::is_ack).is_some() {
            // The ack names the current holder — adopt it fresh.
            self.dir_info = Some(DirInfo::fresh(dir.position, dir.holder));
        }
    }

    pub(crate) fn on_dir_ack_deadline(&mut self, ctx: &mut Fx<Self>, seq: u64) {
        let expired = self.awaiting.expire(seq, FIRST_ATTEMPT);
        if !expired.is_some_and(|r| r.purpose.is_ack()) {
            return;
        }
        self.awaiting.close(seq);
        ctx.emit(Event::Count(ProtocolEvent::AckTimeout));
        self.suspect_directory(ctx);
    }

    // ==================================================================
    // Directory failure → position claim (§5.2)
    // ==================================================================

    /// Our directory looks dead. Start the replacement protocol: route a
    /// claim on its position; the first petal peer whose claim reaches the
    /// vacant position's ring owner takes over (§5.2.2).
    pub(crate) fn suspect_directory(&mut self, ctx: &mut Fx<Self>) {
        if self.claim().is_some() || self.is_directory() {
            return;
        }
        let Some(di) = self.dir_info else {
            return;
        };
        self.start_claim(ctx, di.position);
    }

    /// How many claims in a row the claim in flight is.
    fn claim(&self) -> Option<u32> {
        self.awaiting.iter().find_map(|r| match r.purpose {
            Await::Claim { attempts, .. } => Some(attempts),
            Await::DirAck => None,
        })
    }

    pub(crate) fn close_claim(&mut self) {
        self.awaiting
            .retain(|r| !matches!(r.purpose, Await::Claim { .. }));
    }

    /// Claim `position`, superseding the claim in flight: the next attempt
    /// of it, or the first.
    pub(crate) fn start_claim(&mut self, ctx: &mut Fx<Self>, position: DirPosition) {
        let attempts = self.claim().map_or(1, |attempts| attempts + 1);
        self.close_claim();
        if attempts > 3 {
            return; // give up; the next keepalive cycle may retry
        }
        let Some(b) = self.pick_bootstrap(ctx) else {
            // The rendezvous registry knows of no directory at all: the
            // D-ring has been wiped out, so there is nobody to route the
            // claim to and nobody to grant it. §5.2.2's claim degenerates
            // to the first-arrival rule of §3.1: re-found the couple's
            // directory ourselves on a fresh ring. We register with the
            // rendezvous synchronously (inside `become_directory`), so
            // every later claimer bootstraps through us and the D-ring
            // regrows from this seed instead of fragmenting.
            let me_ref = NodeRef::new(self.me, position.chord_id());
            self.become_directory(ctx, position, me_ref, None, true);
            return;
        };
        ctx.emit(Event::ClaimStarted {
            position,
            attempt: attempts,
        });
        let seq = self.awaiting.open(b, Await::Claim { position, attempts });
        self.awaiting.arm(seq);
        ctx.send(
            b.node,
            FlowerMsg::DRingRoute {
                key: position.chord_id(),
                payload: crate::msg::RoutePayload::Claim {
                    claimer: self.me,
                    position,
                },
            },
        );
        ctx.set_timer(
            self.pcx.params.rpc_timeout_ms * 10,
            FlowerTimer::ClaimDeadline { claim_seq: seq },
        );
    }

    pub(crate) fn on_claim_deadline(&mut self, ctx: &mut Fx<Self>, claim_seq: u64) {
        let Some(&mut chord::Request {
            purpose: Await::Claim { position, .. },
            ..
        }) = self.awaiting.expire(claim_seq, FIRST_ATTEMPT)
        else {
            return;
        };
        self.start_claim(ctx, position); // bumps attempts, repicks bootstrap
    }

    /// Ring-owner side of claims: either we *are* the claimed position
    /// (deny — it is taken), or we arbitrate the vacant position and grant
    /// exactly one claimer at a time.
    pub(crate) fn on_routed_claim(
        &mut self,
        ctx: &mut Fx<Self>,
        claimer: NodeId,
        position: DirPosition,
        hops: u32,
    ) {
        let now = ctx.now();
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let key = position.chord_id();
        if d.position.chord_id() == key {
            // The position is alive and it is us: the claimer is one of our
            // petal peers that lost track — welcome it back (§5.2.2).
            let holder = d.chord.me();
            d.index.register_peer(claimer, now.as_millis());
            deny(ctx, claimer, position, holder);
            return;
        }
        if let Some(holder) = d.chord.known_node_with_id(key) {
            // We can see a live-believed holder of the exact position:
            // deny with it instead of risking a duplicate grant.
            deny(ctx, claimer, position, holder);
            return;
        }
        if !d.chord.owns_strict(key) && !d.chord.is_sole_member() {
            // We are not the ring owner of the claimed position (the claim
            // was misrouted, e.g. to a same-couple neighbour instance).
            // Arbitrating here would mint a duplicate holder while the
            // real one lives — push the claim another routing round
            // (bounded; the claimer's deadline retries otherwise).
            if hops < 8 {
                self.on_dring_route_with_hops(
                    ctx,
                    key,
                    crate::msg::RoutePayload::Claim { claimer, position },
                    hops + 1,
                );
            }
            return;
        }
        match d.grants.get(&key) {
            Some(&(granted, at)) if granted != claimer && now.since(at) < GRANT_TTL_MS => {
                deny(ctx, claimer, position, NodeRef::new(granted, key));
            }
            _ => grant(ctx, d, key, claimer, position),
        }
    }

    /// Vacant-position arbitration when a plain *query* (not a claim)
    /// reaches us as ring owner: §5.2.2 case 2 — the querying client itself
    /// becomes the directory if no grant is outstanding.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn arbitrate_client_takeover(
        &mut self,
        ctx: &mut Fx<Self>,
        key: ChordId,
        client: NodeId,
        website: WebsiteId,
        locality: LocalityId,
        qid: QueryId,
        hops: u32,
    ) {
        let now = ctx.now();
        let position = DirPosition::new(website, locality, DirPosition::instance_of(key));
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        if let Some(holder) = d.chord.known_node_with_id(key) {
            // The position is actually held — route the query to its
            // holder rather than starting a takeover.
            ctx.send(
                holder.node,
                FlowerMsg::Routed {
                    key,
                    payload: crate::msg::RoutePayload::ClientRequest {
                        client,
                        website,
                        locality,
                        object: None,
                        qid,
                    },
                    hops: hops + 1,
                },
            );
            return;
        }
        match d.grants.get(&key) {
            Some(&(granted, at)) if granted != client && now.since(at) < GRANT_TTL_MS => {
                // Someone is mid-takeover: point the client at them with a
                // stale age so its keepalive verifies soon.
                let mut dir = DirInfo::fresh(position, NodeRef::new(granted, key));
                dir.age = 3;
                let r = Redirect {
                    qid,
                    provider: None, // forces origin fetch at the client
                    dir,
                    petal_view: Vec::new(),
                    dht_hops: hops,
                };
                ctx.send(client, FlowerMsg::Redirect(r));
            }
            _ => grant(ctx, d, key, client, position),
        }
    }

    /// We won a position: enter D-ring there (§5.2.2).
    pub(crate) fn on_claim_granted(
        &mut self,
        ctx: &mut Fx<Self>,
        position: DirPosition,
        seed: NodeRef,
    ) {
        self.close_claim();
        if self.is_directory() {
            return;
        }
        self.become_directory(ctx, position, seed, None, true);
        // If this grant resolved a pending first query (case 2), serve it
        // from the origin: we are the first participant of this petal.
        if self
            .pending
            .as_ref()
            .is_some_and(|p| p.tl.stage == crate::timeline::Stage::Resolving)
        {
            self.start_origin_fetch(ctx, cdn_metrics::ResolvedVia::DhtRoute);
        }
    }

    /// Someone else already holds (or won) the position: re-attach to them
    /// and re-register our content so the rebuilt index learns it (§5.2.2).
    pub(crate) fn on_claim_denied(
        &mut self,
        ctx: &mut Fx<Self>,
        position: DirPosition,
        holder: NodeRef,
    ) {
        self.close_claim();
        if self.is_directory() {
            return;
        }
        self.dir_info = Some(DirInfo::fresh(position, holder));
        if !self.store.is_empty() && matches!(self.role, Role::Content) {
            self.store.mark_all_unpushed();
            self.start_dir_exchange(ctx, holder, true);
        }
    }

    // ==================================================================
    // Becoming a directory: claims, promotions, hand-overs
    // ==================================================================

    /// PetalUp split (§4): choose a managed content peer and promote it to
    /// `position`, the next instance.
    pub(crate) fn split_petal(&mut self, ctx: &mut Fx<Self>, position: DirPosition) {
        let me = self.me;
        let now = ctx.now();
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        if let Some((_, at)) = d.promotion_pending {
            if now.since(at) < GRANT_TTL_MS {
                return; // a promotion is already under way
            }
        }
        let candidates: Vec<NodeId> = d.index.peer_ids().filter(|&p| p != me).collect();
        if candidates.is_empty() {
            return;
        }
        let member = candidates[ctx.rng.gen_range(0..candidates.len())];
        d.promotion_pending = Some((member, now));
        // "The replacing content peer is then removed from the
        // directory-index of d^i" (§4).
        d.index.remove_peer(member);
        let seed = d.chord.me();
        let from = d.position;
        ctx.emit(Event::PetalSplit {
            ws: from.website,
            loc: from.locality,
            from_inst: from.instance,
            to_inst: position.instance,
        });
        ctx.emit(Event::Promote { position, member });
        ctx.send(
            member,
            FlowerMsg::Promote {
                position,
                seed,
                snapshot: None,
            },
        );
    }

    /// A directory chose us: PetalUp promotion (no snapshot — we keep using
    /// our own gossip view and summaries, §4) or a leaving directory's
    /// hand-over (with its index snapshot, §5.2.2).
    pub(crate) fn on_promote(
        &mut self,
        ctx: &mut Fx<Self>,
        position: DirPosition,
        seed: NodeRef,
        snapshot: Option<DirectorySnapshot>,
    ) {
        if self.is_directory() {
            return;
        }
        self.become_directory(ctx, position, seed, snapshot, false);
    }

    /// Switch into the directory role and join D-ring at `position`.
    pub(crate) fn become_directory(
        &mut self,
        ctx: &mut Fx<Self>,
        position: DirPosition,
        seed: NodeRef,
        snapshot: Option<DirectorySnapshot>,
        replacement: bool,
    ) {
        let me_ref = NodeRef::new(self.me, position.chord_id());
        let mut index = match &snapshot {
            Some(s) => DirectoryIndex::from_snapshot(s),
            None => DirectoryIndex::new(),
        };
        // Our own store is petal content too.
        index.record_objects(self.me, self.store.iter(), ctx.now().as_millis());
        let standalone = seed.node == self.me;
        let (chord, actions) = if standalone {
            // Degenerate case: we were told to seed from ourselves (we are
            // the only ring member we know) — create a fresh ring position.
            Chord::create(me_ref, self.pcx.params.chord.clone())
        } else {
            Chord::join(me_ref, seed, self.pcx.params.chord.clone())
        };
        self.role = Role::Directory(Box::new(DirectoryRole::new(
            position,
            chord,
            index,
            replacement,
        )));
        self.dir_info = None;
        self.awaiting.retain(|_| false);
        ctx.emit(Event::BecameDirectory {
            position,
            replacement,
            snapshot: Some(snapshot.is_some()),
            replayed: None,
        });
        self.apply_chord_actions(ctx, actions);
        if standalone {
            // A fresh ring completes its "join" instantly, so the
            // JoinComplete bookkeeping never fires — do it here. The
            // synchronous rendezvous registration is what lets the next
            // claimer join *our* ring instead of founding another.
            self.entered_dring(ctx);
        }
        Self::arm_dir_sweep(ctx, &self.pcx.params);
    }

    // ==================================================================
    // Directory housekeeping
    // ==================================================================

    /// Arm the next directory sweep, twenty RPC timeouts away.
    pub(crate) fn arm_dir_sweep(ctx: &mut Fx<Self>, params: &SimParams) {
        ctx.set_timer(params.rpc_timeout_ms * 20, FlowerTimer::DirSweep);
    }

    pub(crate) fn on_dir_sweep(&mut self, ctx: &mut Fx<Self>) {
        let now = ctx.now();
        let ttl = self.pcx.params.gossip_period_ms * 2 + self.pcx.params.rpc_timeout_ms * 4;
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        Self::arm_dir_sweep(ctx, &self.pcx.params);
        d.index.expire(now.as_millis(), ttl);
        d.grants
            .retain(|_, &mut (_, at)| now.since(at) < GRANT_TTL_MS);
        if let Some((_, at)) = d.promotion_pending {
            if now.since(at) >= GRANT_TTL_MS {
                d.promotion_pending = None;
            }
        }
    }
}

impl FlowerPeer {
    // ==================================================================
    // Ghost-holder purge: position self-check & demotion
    // ==================================================================

    /// Arm the next position self-check, one to two minutes away.
    pub(crate) fn arm_position_check(ctx: &mut Fx<Self>) {
        let delay = 60_000 + ctx.rng.gen_range(0..60_000);
        ctx.set_timer(delay, FlowerTimer::PositionCheck);
    }

    /// Periodically verify that the overlay still resolves our position to
    /// us. A claim granted during a stale-predecessor window can mint a
    /// *duplicate* holder with our exact ring id; exactly one of us is
    /// reachable as the position's owner, and the other must stand down or
    /// the petal's knowledge fragments forever.
    pub(crate) fn on_position_check(&mut self, ctx: &mut Fx<Self>) {
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let checking = d.route_jobs.values().any(|j| *j == RouteJob::PositionCheck);
        if !d.chord.is_joined() || checking {
            Self::arm_position_check(ctx);
            return;
        }
        let key = d.position.chord_id();
        // Ask the ring, starting at our successor: our own tables would
        // vacuously resolve our position to ourselves.
        let start = d.chord.successor();
        let (token, actions) = d.chord.lookup_from(key, start);
        d.route_jobs.insert(token, RouteJob::PositionCheck);
        self.apply_chord_actions(ctx, actions);
        Self::arm_position_check(ctx);
    }

    /// Outcome of a position self-check. The first miss re-asserts us to
    /// our successor, the third in a row demotes us; a check that resolves
    /// to us starts the count over.
    pub(crate) fn position_check_result(&mut self, ctx: &mut Fx<Self>, reachable: bool) {
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        if reachable {
            d.self_check_misses = 0;
            return;
        }
        d.self_check_misses += 1;
        if d.self_check_misses == 1 {
            // First miss: the neighbourhood may simply have stale pointers
            // (our successor's predecessor slot, most often). Re-assert and
            // give stabilization a round before concluding we are a ghost.
            let actions = d.chord.reassert();
            self.apply_chord_actions(ctx, actions);
            return;
        }
        if d.self_check_misses >= 3 {
            ctx.emit(Event::Count(ProtocolEvent::Demoted));
            self.demote_to_client(ctx);
        }
    }

    /// Stand down from the directory role: leave D-ring bookkeeping behind,
    /// deregister from the rendezvous service, and re-enter the petal as a
    /// fresh client (our store is re-announced on arrival).
    pub(crate) fn demote_to_client(&mut self, ctx: &mut Fx<Self>) {
        if let Role::Directory(d) = &self.role {
            let position = d.position;
            ctx.emit(Event::Demoted { position });
        }
        ctx.registry.remove(self.me);
        self.role = Role::Client;
        self.dir_info = None;
        self.awaiting.retain(|_| false);
        self.store.mark_all_unpushed();
        if self.pending.is_none() {
            self.start_petal_join(ctx);
        }
    }
}

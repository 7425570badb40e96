//! The Flower-CDN query path (§3.2): how a peer *finds* a provider, and the
//! directory-side query processing, including the PetalUp instance scan
//! (§4). What happens once a provider is named — fetch, retry deadline,
//! origin fallback, the record the paper's metrics are read from — is
//! [`crate::timeline`], shared with Squirrel.
//!
//! Resolution order at a content peer: own store (excluded by construction
//! — a peer never re-requests what it holds, §6.1) → gossip-view content
//! summaries (petal-local, one hop) → its directory instance → origin
//! server. A fresh client instead routes its first query over D-ring and
//! joins the petal with the answer.

use bloom::Probe;
use cdn_metrics::{Provider, ResolvedVia};
use chord::ChordId;
use rand::Rng;
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::api::{ApiResp, ProviderKind as ApiProvider};
use crate::config::SHUFFLE_LEN;
use crate::dring::DirPosition;
use crate::io::Fx;
use crate::msg::{FlowerMsg, FlowerTimer, Redirect, RoutePayload, SiblingQuery, Summary};
use crate::peer::{FlowerPeer, PendingQuery, ProtocolEvent, Role};
use crate::qid::QueryId;
use crate::tags::Event;
use crate::timeline::{self, Stage, Timeline};

/// Directories a provider search may visit along the same-website ring
/// successors (§3.2), the one it starts at included.
const SIBLING_WALK_HOPS: u8 = 7;

impl FlowerPeer {
    // ==================================================================
    // Client side
    // ==================================================================

    /// Periodic query issuance (active peers); a query still in flight
    /// (rare) skips the turn.
    pub(crate) fn on_query_timer(&mut self, ctx: &mut Fx<Self>) {
        let busy = self.pending.is_some();
        if let Some(object) = timeline::next_arrival(ctx, &self.pcx, &self.store, busy) {
            self.issue_query(ctx, object, None);
        }
    }

    /// Open the pending state of a query — or, with no `object`, of a
    /// petal join.
    fn open_pending(
        &mut self,
        ctx: &mut Fx<Self>,
        object: Option<ObjectId>,
        api_token: Option<u64>,
    ) {
        let qid = self.alloc_qid();
        self.pending = Some(Box::new(PendingQuery {
            tl: Timeline::issue(ctx, qid, self.pcx.website, object),
            object,
            // Each resolution step names its own `via` before it sends.
            via: ResolvedVia::LocalView,
            route_attempts: 0,
            last_bootstrap: None,
            api_token,
        }));
    }

    /// Issue a query for `object` and start resolving it the way our
    /// current role does. `api_token` is set for a local API `Get`.
    pub(crate) fn issue_query(
        &mut self,
        ctx: &mut Fx<Self>,
        object: ObjectId,
        api_token: Option<u64>,
    ) {
        self.open_pending(ctx, Some(object), api_token);
        match &self.role {
            Role::Client => self.route_pending_over_dring(ctx),
            Role::Content => self.resolve_as_content(ctx),
            Role::Directory(_) => self.resolve_as_directory_self(ctx),
        }
    }

    /// Non-active peers join their petal without a query (§6.1).
    pub(crate) fn start_petal_join(&mut self, ctx: &mut Fx<Self>) {
        if self.pending.is_some() {
            return;
        }
        self.open_pending(ctx, None, None);
        self.route_pending_over_dring(ctx);
    }

    /// Send the pending request to a bootstrap for D-ring routing.
    pub(crate) fn route_pending_over_dring(&mut self, ctx: &mut Fx<Self>) {
        let Some(p) = &mut self.pending else {
            return;
        };
        p.via = ResolvedVia::DhtRoute;
        let (qid, object, attempt) = (p.tl.qid, p.object, p.route_attempts);
        let key = DirPosition::base(self.pcx.website, self.locality).chord_id();
        match self.pick_bootstrap(ctx) {
            Some(b) => {
                let p = self.pending.as_mut().expect("checked above");
                p.last_bootstrap = Some(b.node);
                let payload = RoutePayload::ClientRequest {
                    client: self.me,
                    website: self.pcx.website,
                    locality: self.locality,
                    object,
                    qid,
                };
                ctx.emit(Event::RouteRequest { qid, key });
                ctx.send(b.node, FlowerMsg::DRingRoute { key, payload });
                // Linear backoff per retry: a partitioned or overloaded
                // D-ring gets progressively more slack before the query
                // degrades to the origin, while the whole ladder
                // (8+16+24 timeouts) stays well under the liveness
                // checker's 120 s query deadline.
                p.tl.await_answer(ctx, &self.pcx, 8 * u64::from(attempt + 1));
            }
            None => {
                // No D-ring entry point: fall back to the origin server.
                self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin);
            }
        }
    }

    /// Content-peer resolution: gossip summaries first, then the directory.
    pub(crate) fn resolve_as_content(&mut self, ctx: &mut Fx<Self>) {
        if self.try_fetch_from_view(ctx) {
            return;
        }
        self.ask_directory_or_fallback(ctx);
    }

    /// Find a petal contact whose content summary claims the object and
    /// fetch from it. Returns false if no candidate remains.
    pub(crate) fn try_fetch_from_view(&mut self, ctx: &mut Fx<Self>) -> bool {
        let Some(p) = &mut self.pending else {
            return false;
        };
        let Some(object) = p.object else {
            return false;
        };
        let target = {
            let _p = ctx.profiler.scope("bloom_match");
            summary_match(&self.gossip, object, &p.tl.excluded, ctx.rng)
        };
        let Some(target) = target else {
            return false;
        };
        p.via = ResolvedVia::LocalView;
        self.fetch_from(ctx, target, object);
        true
    }

    /// Fetch the pending query's `object` from `target`.
    fn fetch_from(&mut self, ctx: &mut Fx<Self>, target: NodeId, object: ObjectId) {
        let p = self.pending.as_mut().expect("pending query");
        p.tl.fetch_from(ctx, &self.pcx, target, object);
    }

    /// Ask our directory instance; if we have none (or it is being
    /// replaced), go to the origin.
    pub(crate) fn ask_directory_or_fallback(&mut self, ctx: &mut Fx<Self>) {
        let Some(p) = &mut self.pending else {
            return;
        };
        let Some(object) = p.object else {
            return;
        };
        match self.dir_info {
            Some(di) => {
                p.via = ResolvedVia::Directory;
                let qid = p.tl.qid;
                let exclude = p.tl.excluded.clone();
                ctx.send(
                    di.holder.node,
                    FlowerMsg::DirQuery {
                        qid,
                        object,
                        exclude,
                    },
                );
                // Budget covers a full sibling-directory walk (§3.2).
                p.tl.await_answer(ctx, &self.pcx, 5);
            }
            None => {
                ctx.emit(Event::Count(ProtocolEvent::NoDirInfo));
                self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin)
            }
        }
    }

    /// Fall back to the origin server, recording how the query got there.
    pub(crate) fn start_origin_fetch(&mut self, ctx: &mut Fx<Self>, via: ResolvedVia) {
        let Some(p) = &mut self.pending else {
            return;
        };
        if p.object.is_none() {
            // A petal-join with nowhere to go: give up quietly; the next
            // keepalive cycle or query retries.
            self.pending = None;
            return;
        }
        p.via = via;
        p.tl.origin_round_trip(ctx, &self.pcx);
    }

    /// A directory answered our query (or petal join).
    pub(crate) fn on_redirect(&mut self, ctx: &mut Fx<Self>, r: Redirect) {
        if self.pending.as_ref().is_none_or(|p| p.tl.qid != r.qid) {
            return;
        }
        // Adopt the answering directory and, if fresh, join the petal.
        if !self.is_directory() {
            self.dir_info = Some(r.dir);
            if matches!(self.role, Role::Client) {
                self.become_content_peer(ctx);
            }
            let contacts = r.petal_view.into_iter();
            self.gossip
                .seed(contacts.map(|(node, summary)| gossip::Entry::new(node, summary)));
        }
        let p = self.pending.as_mut().expect("checked above");
        p.tl.dht_hops = p.tl.dht_hops.max(r.dht_hops);
        let Some(object) = p.object else {
            // Pure petal join completed.
            self.pending = None;
            return;
        };
        match r.provider {
            Some(target) if !p.tl.excluded.contains(&target) => {
                self.fetch_from(ctx, target, object)
            }
            _ => {
                let via = p.via;
                self.start_origin_fetch(ctx, via);
            }
        }
    }

    /// Join the petal: start the maintenance timers (§3.1, §5.1). The
    /// caller seeds the gossip view from the directory's answer.
    pub(crate) fn become_content_peer(&mut self, ctx: &mut Fx<Self>) {
        self.role = Role::Content;
        let period = self.pcx.params.gossip_period_ms;
        let g0 = ctx.rng.gen_range(period / 10..period);
        let k0 = ctx.rng.gen_range(period / 10..period);
        ctx.set_timer(g0, FlowerTimer::Gossip);
        ctx.set_timer(k0, FlowerTimer::Keepalive);
    }

    /// Whether query `qid` is ours and still waiting for a Redirect.
    fn is_resolving(&self, qid: QueryId) -> bool {
        self.pending.as_ref().is_some_and(|p| p.tl.resolving(qid))
    }

    /// The bootstrap could not route our request.
    pub(crate) fn on_route_failed(&mut self, ctx: &mut Fx<Self>, req_qid: QueryId) {
        if self.is_resolving(req_qid) {
            self.retry_route(ctx);
        }
    }

    /// A deadline query `qid` armed in `stage` fired; it is taken only
    /// while the query is still in that stage.
    pub(crate) fn on_deadline(&mut self, ctx: &mut Fx<Self>, qid: QueryId, stage: Stage) {
        if !self.pending.as_ref().is_some_and(|p| p.tl.due(qid, stage)) {
            return;
        }
        match stage {
            Stage::Resolving => self.on_answer_deadline(ctx),
            Stage::Fetching { provider, .. } => self.on_fetch_failed(ctx, qid, provider, true),
            Stage::Origin => self.on_origin_done(ctx),
        }
    }

    /// No Redirect arrived in time (bootstrap or directory unresponsive).
    fn on_answer_deadline(&mut self, ctx: &mut Fx<Self>) {
        if self
            .pending
            .as_ref()
            .is_some_and(|p| p.via == ResolvedVia::Directory)
        {
            // Our own directory went silent: fall back and trigger the
            // §5.2 replacement machinery.
            ctx.emit(Event::Count(ProtocolEvent::DirQueryTimeout));
            self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin);
            self.suspect_directory(ctx);
            return;
        }
        self.retry_route(ctx);
    }

    /// A D-ring route attempt failed: try again through a bootstrap that
    /// has not failed us yet (`boot_exclude` is cleared when the registry
    /// runs dry), and after three attempts go to the origin.
    fn retry_route(&mut self, ctx: &mut Fx<Self>) {
        let Some(p) = &mut self.pending else {
            return;
        };
        p.route_attempts += 1;
        let attempts = p.route_attempts;
        if let Some(stale) = p.last_bootstrap.take() {
            if !self.boot_exclude.contains(&stale) {
                self.boot_exclude.push(stale);
            }
        }
        if attempts < 3 {
            self.route_pending_over_dring(ctx);
        } else {
            ctx.emit(Event::Count(ProtocolEvent::RouteFailure));
            self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin);
        }
    }

    /// Provider delivered the object.
    pub(crate) fn on_fetch_ok(&mut self, ctx: &mut Fx<Self>, from: NodeId, qid: QueryId) {
        let Some(p) = &self.pending else {
            return;
        };
        if !p.tl.fetching(qid, from) {
            return;
        }
        ctx.emit(Event::FetchOk { qid });
        let provider = if self.dir_info.is_some_and(|d| d.holder.node == from) {
            Provider::DirectoryPeer
        } else {
            Provider::ContentPeer
        };
        self.complete_query(ctx, provider);
    }

    /// Provider refused (summary false positive / stale index) or timed out.
    pub(crate) fn on_fetch_failed(
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
        let spent = p.tl.fetch_failed(ctx, provider, timed_out);
        if timed_out {
            // Unreachable contact: purge from the view (§6.1), and tell
            // our directory so the stale index pointer dies with it.
            self.gossip.view_mut().remove(provider);
            if let Some(di) = self.dir_info {
                ctx.send(di.holder.node, FlowerMsg::DeadPeerReport { peer: provider });
            }
        }
        if spent {
            self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin);
            return;
        }
        if self.try_fetch_from_view(ctx) {
            return;
        }
        // Re-consult the directory with the updated exclusion list (it may
        // know another holder, or a sibling locality might).
        self.ask_directory_or_fallback(ctx);
    }

    /// Origin round trip finished: a P2P miss, but the client now holds the
    /// object and becomes a provider for the petal.
    fn on_origin_done(&mut self, ctx: &mut Fx<Self>) {
        self.complete_query(ctx, Provider::OriginServer);
    }

    /// Store `object`. A directory indexes its own store as petal content;
    /// a content peer has its directory retract what the store evicted (the
    /// object itself is the push's to announce).
    pub(crate) fn store_object(&mut self, ctx: &mut Fx<Self>, object: ObjectId) {
        let evicted = self.store.insert_with_eviction(object);
        if let Role::Directory(d) = &mut self.role {
            d.index
                .record_objects(self.me, [object], ctx.now().as_millis());
            d.index.retract_objects(self.me, evicted);
        } else if let Some(di) = self.dir_info {
            if !evicted.is_empty() {
                ctx.send(di.holder.node, FlowerMsg::Retract { objects: evicted });
            }
        }
    }

    /// Wrap up the pending query: store its object, emit the record, push
    /// to the directory if the threshold is crossed. A petal join has no
    /// object to complete and just ends.
    fn complete_query(&mut self, ctx: &mut Fx<Self>, provider: Provider) {
        let p = self.pending.take().expect("pending query");
        let Some(object) = p.object else {
            return;
        };
        self.store_object(ctx, object);
        let issued_at = p.tl.issued_at;
        p.tl.complete(ctx, &self.pcx, provider, p.via);
        if let Some(token) = p.api_token {
            let kind = match provider {
                Provider::ContentPeer => ApiProvider::ContentPeer,
                Provider::DirectoryPeer => ApiProvider::DirectoryPeer,
                Provider::OriginServer => ApiProvider::Origin,
            };
            ctx.respond(
                token,
                ApiResp::Got {
                    object,
                    provider: kind,
                    elapsed_ms: ctx.now() - issued_at,
                },
            );
        }
        self.maybe_push(ctx);
    }

    // ==================================================================
    // Directory side
    // ==================================================================

    /// A directory resolves its *own* query from its index or legacy
    /// summaries, else the origin.
    pub(crate) fn resolve_as_directory_self(&mut self, ctx: &mut Fx<Self>) {
        let Some(p) = &mut self.pending else {
            return;
        };
        let Some(object) = p.object else {
            self.pending = None;
            return;
        };
        let me = self.me;
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let provider = d
            .index
            .provider_for(object, &[me], ctx.rng)
            .or_else(|| summary_match(&self.gossip, object, &[me], ctx.rng));
        match provider {
            Some(target) => {
                p.via = ResolvedVia::Directory;
                self.fetch_from(ctx, target, object);
            }
            None => self.start_origin_fetch(ctx, ResolvedVia::DirectOrigin),
        }
    }

    /// As directory, name a provider of `object` for someone else's query:
    /// a recently heard-from indexed holder, else our own store, else a
    /// gossip contact whose summary claims it.
    fn petal_provider(
        &mut self,
        ctx: &mut Fx<Self>,
        object: ObjectId,
        exclude: &[NodeId],
    ) -> Option<NodeId> {
        let Role::Directory(d) = &mut self.role else {
            return None;
        };
        let now_ms = ctx.now().as_millis();
        let fresh_ms = self.pcx.params.gossip_period_ms / 2;
        d.index
            .provider_recent(object, exclude, now_ms, fresh_ms, ctx.rng)
            .or(self.store.contains(object).then_some(self.me))
            .or_else(|| summary_match(&self.gossip, object, exclude, ctx.rng))
    }

    /// Answer `client`'s query: fetch from `r.provider`, or — with none —
    /// from the origin.
    fn redirect(ctx: &mut Fx<Self>, client: NodeId, r: Redirect) {
        let (qid, hit) = (r.qid, r.provider.is_some());
        ctx.emit(Event::Redirect { qid, hit });
        ctx.send(client, FlowerMsg::Redirect(r));
    }

    /// One step of a provider search (§3.2): send the client to the
    /// `provider` this directory chose, reporting `dht_hops`, or — with
    /// none — pass the search on to the next sibling.
    fn search_step(
        &mut self,
        ctx: &mut Fx<Self>,
        q: SiblingQuery,
        provider: Option<NodeId>,
        dht_hops: u32,
    ) {
        match provider {
            Some(_) => Self::redirect(ctx, q.client, q.answer(provider, dht_hops)),
            None => self.walk_siblings(ctx, q),
        }
    }

    /// A content peer of our partition asks us to resolve a query (§5.1).
    pub(crate) fn on_dir_query(
        &mut self,
        ctx: &mut Fx<Self>,
        from: NodeId,
        qid: QueryId,
        object: ObjectId,
        mut exclude: Vec<NodeId>,
    ) {
        let Some(dir) = self.self_dir_info() else {
            return; // stale dir-info at the sender; it will time out
        };
        if let Role::Directory(d) = &mut self.role {
            d.index.heard_from(from, ctx.now().as_millis());
        }
        exclude.extend([from, self.me]);
        let provider = self.petal_provider(ctx, object, &exclude);
        if provider.is_none() {
            ctx.emit(Event::Count(ProtocolEvent::DirNoProvider));
        }
        let q = SiblingQuery {
            client: from,
            qid,
            object,
            dir,
            petal_view: Vec::new(),
            exclude,
            ttl: SIBLING_WALK_HOPS,
        };
        self.search_step(ctx, q, provider, 0);
    }

    /// Pass a provider search on to our ring successor if it is a directory
    /// of the same website (§3.2) and the walk has hops left; otherwise the
    /// chain ends here and the client is sent to the origin.
    fn walk_siblings(&mut self, ctx: &mut Fx<Self>, mut q: SiblingQuery) {
        let Role::Directory(d) = &self.role else {
            return; // chain broken: the client's deadline handles it
        };
        let succ = d.chord.successor();
        if q.ttl > 0 && d.position.same_website(succ.id) && succ.node != self.me {
            q.ttl -= 1;
            let (qid, ttl) = (q.qid, q.ttl.into());
            ctx.emit(Event::SiblingForward { qid, ttl });
            ctx.send(succ.node, FlowerMsg::SiblingQuery(q));
        } else {
            Self::redirect(ctx, q.client, q.answer(None, 0));
        }
    }

    /// A sibling directory's provider search reached us.
    pub(crate) fn on_sibling_query(&mut self, ctx: &mut Fx<Self>, mut q: SiblingQuery) {
        q.exclude.push(self.me);
        let provider = self.petal_provider(ctx, q.object, &q.exclude);
        self.search_step(ctx, q, provider, 0);
    }

    /// A routed new-client request reached us as ring owner of `key`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_routed_client_request(
        &mut self,
        ctx: &mut Fx<Self>,
        key: ChordId,
        client: NodeId,
        website: WebsiteId,
        locality: LocalityId,
        object: Option<ObjectId>,
        qid: QueryId,
        hops: u32,
    ) {
        let me = self.me;
        let capacity = self.pcx.params.directory_capacity;
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        let position = d.position;
        ctx.emit(Event::RoutedArrived { position, qid });
        if !d.position.same_couple(key) {
            // We are not a directory for this couple: the base position is
            // vacant (§5.2.2 case 2). Arbitrate the client straight in.
            self.arbitrate_client_takeover(ctx, key, client, website, locality, qid, hops);
            return;
        }
        // PetalUp scan (§4): overloaded instances pass the query along the
        // instance chain; the final overloaded instance splits.
        if d.index.peer_count() >= capacity && !d.index.contains_peer(client) {
            let _p = ctx.profiler.scope("petalup_scan");
            let next_pos = d.position.next_instance();
            if let Some(next_pos) = next_pos {
                let succ = d.chord.successor();
                if succ.id == next_pos.chord_id() {
                    ctx.emit(Event::InstanceForward {
                        qid,
                        from_inst: d.position.instance,
                        to_inst: next_pos.instance,
                    });
                    ctx.send(
                        succ.node,
                        FlowerMsg::Routed {
                            key: next_pos.chord_id(),
                            payload: RoutePayload::ClientRequest {
                                client,
                                website,
                                locality,
                                object,
                                qid,
                            },
                            hops: hops + 1,
                        },
                    );
                    return;
                }
                // No next instance yet: split the petal (§4), then process
                // this query ourselves.
                self.split_petal(ctx, next_pos);
            }
        }
        let now_ms = ctx.now().as_millis();
        let dir = self.self_dir_info().expect("directory role");
        if let Role::Directory(d) = &mut self.role {
            d.index.register_peer(client, now_ms);
        }
        let provider = object.and_then(|o| self.petal_provider(ctx, o, &[client, me]));
        let Role::Directory(d) = &mut self.role else {
            return;
        };
        if let Some(o) = object {
            // The client will hold the object once its fetch completes
            // (from a peer or the origin) — index it now (§3.2).
            d.index.record_objects(client, [o], now_ms);
        }
        let mut petal_view = d.index.sample_contacts(SHUFFLE_LEN + 3, client, ctx.rng);
        if petal_view.is_empty() {
            // Fresh (e.g. just-promoted) directory: hand out our own old
            // gossip view instead (§4).
            petal_view = self
                .gossip
                .view()
                .sample(ctx.rng, SHUFFLE_LEN, Some(client))
                .into_iter()
                .map(|e| (e.node, e.payload))
                .collect();
        }
        match object {
            // A first query: answered from our petal or, with no provider
            // here, walked along the website's sibling directories (§3.2).
            Some(object) => {
                let q = SiblingQuery {
                    client,
                    qid,
                    object,
                    dir,
                    petal_view,
                    exclude: vec![client, me],
                    ttl: SIBLING_WALK_HOPS,
                };
                self.search_step(ctx, q, provider, hops);
            }
            // A petal join: the join ticket alone.
            None => {
                let join = Redirect {
                    qid,
                    provider: None,
                    dir,
                    petal_view,
                    dht_hops: hops,
                };
                Self::redirect(ctx, client, join);
            }
        }
    }
}

impl SiblingQuery {
    /// The search's answer to its client: `provider`, or the origin.
    fn answer(self, provider: Option<NodeId>, dht_hops: u32) -> Redirect {
        Redirect {
            qid: self.qid,
            provider,
            dir: self.dir,
            petal_view: self.petal_view,
            dht_hops,
        }
    }
}

/// Find a gossip-view contact whose summary claims `object` — the "content
/// summaries previously received during gossip exchanges" a replacement
/// directory answers first queries from (§6.2.1).
pub(crate) fn summary_match(
    gossip: &gossip::Cyclon<Summary>,
    object: ObjectId,
    exclude: &[NodeId],
    rng: &mut impl Rng,
) -> Option<NodeId> {
    // One key against a whole-petal view of summaries: its probe positions
    // once per summary shape, and the pick by count → draw → n-th instead
    // of collecting.
    let mut probe = Probe::new(object.as_u64());
    let mut claims =
        |e: &&gossip::Entry<Summary>| !exclude.contains(&e.node) && probe.hits(&e.payload);
    let view = gossip.view().entries();
    let n = view.iter().filter(&mut claims).count();
    if n == 0 {
        return None;
    }
    // The draw every seeded run depends on: `gen_range`, and none when
    // nobody claims the object.
    let pick = rng.gen_range(0..n);
    view.iter().filter(&mut claims).nth(pick).map(|e| e.node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// `summary_match` as of 11a0052, verbatim: re-hash the key for every
    /// filter, collect the claimants, index the `Vec`.
    fn summary_match_collected(
        gossip: &gossip::Cyclon<Summary>,
        object: ObjectId,
        exclude: &[NodeId],
        rng: &mut impl Rng,
    ) -> Option<NodeId> {
        let key = object.as_u64();
        let candidates: Vec<NodeId> = gossip
            .view()
            .entries()
            .iter()
            .filter(|e| !exclude.contains(&e.node) && e.payload.contains(key))
            .map(|e| e.node)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }

    /// Same pick and the same RNG state afterwards as the original.
    #[test]
    fn summary_match_draws_like_the_collected_original() {
        let object = |rank| ObjectId {
            website: WebsiteId(2),
            rank,
        };
        let mut setup = StdRng::seed_from_u64(8);
        // A whole-petal view: contact i's summary holds the ranks that
        // divide by i + 1 (contact 0 everything, contact 29 next to nothing).
        let mut gossip =
            gossip::Cyclon::new(NodeId::from_index(0), gossip::ShuffleMode::Union, 5, 0);
        // Every fourth summary is sized past the standard shape, so the
        // probe positions are recomputed as the shapes alternate.
        gossip.seed((0..30usize).map(|i| {
            let sized_for = if i % 4 == 3 { 300 + i } else { 0 };
            let mut summary = crate::store::empty_summary(sized_for);
            for rank in (0..300u16).filter(|r| usize::from(*r) % (i + 1) == 0) {
                summary.insert(object(rank).as_u64());
            }
            gossip::Entry::new(NodeId::from_index(i + 1), std::sync::Arc::new(summary))
        }));
        let (mut rng, mut rng_old) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let (mut none, mut some) = (0, 0);
        for case in 0..5_000 {
            // Ranks past 300 are in no summary (bar false positives).
            let o = object(setup.gen_range(0..400));
            // Now and then exclude the one contact that holds everything.
            let exclude: Vec<NodeId> = (0..setup.gen_range(0..4))
                .map(|_| NodeId::from_index(setup.gen_range(1..8)))
                .collect();
            let got = summary_match(&gossip, o, &exclude, &mut rng);
            let want = summary_match_collected(&gossip, o, &exclude, &mut rng_old);
            assert_eq!(got, want, "pick @ {case}");
            assert_eq!(rng.next_u64(), rng_old.next_u64(), "RNG state @ {case}");
            if got.is_some() {
                some += 1;
            } else {
                none += 1;
            }
        }
        assert!(none > 100 && some > 1_000, "none {none} some {some}");
    }
}

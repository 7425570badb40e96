//! One query's timeline, and how it becomes the paper's three metrics.
//!
//! §6 compares Flower-CDN and Squirrel on hit ratio, lookup latency and
//! transfer distance "under identical workload". That holds only if both
//! systems are timed by the same code, so the part of a query's life the
//! metrics are read from exists once, here. Queries arrive through
//! `first_arrival` and then `next_arrival`; both peers embed a `Timeline` in their pending-query
//! state and move it through five steps:
//!
//! 1. `Timeline::issue` — the query exists from now on, `Resolving`;
//! 2. `Timeline::fetch_from` — ask a provider for the object, under a
//!    deadline (repeatable: each attempt restarts the transfer clock),
//!    `Fetching` from it;
//! 3. `Timeline::fetch_failed` — the provider refused or stayed silent:
//!    exclude it, say whether `MAX_FETCH_ATTEMPTS` is spent, and go back
//!    to `Resolving`;
//! 4. `Timeline::origin_round_trip` — give up on the overlay; the origin
//!    is a latency, not a peer, and always has the object: `Origin`;
//! 5. `Timeline::complete` — the object arrived: emit the
//!    [`QueryRecord`].
//!
//! The `Stage` those steps set is the one record of where a fetch stands,
//! and four predicates read it to tell whether a reply or a timer is about
//! the query outstanding now: `resolving`, `fetching`, `expired` and
//! `origin_due`.
//!
//! The metrics follow from the record: a query is a **hit** iff a peer
//! provided the object; **transfer distance** is the one-way latency to
//! the provider (half the fetch round trip, or the origin's latency);
//! **lookup latency** is everything before the successful fetch was sent,
//! plus that one way.
//!
//! How a provider is *found* — petal view, directory, D-ring, home node —
//! is what the two systems differ in; it stays in `query.rs` and
//! `squirrel.rs`.

use cdn_metrics::{Provider, QueryRecord, ResolvedVia};
use rand::Rng;
use simnet::{NodeId, Time};
use workload::{sample_exp, ObjectId, WebsiteId};

use crate::io::{Fx, Machine};
use crate::peer::{FlowerReport, PeerCtx, ProtocolEvent};
use crate::qid::QueryId;
use crate::store::ContentStore;
use crate::tags;

/// Fetches a query may spend on peers before it goes to the origin.
pub(crate) const MAX_FETCH_ATTEMPTS: u32 = 3;

/// The wire shapes the timeline sends and arms, in the vocabulary of the
/// machine embedding it.
pub(crate) trait QueryMachine: Machine<Report = FlowerReport> {
    fn query_timer() -> Self::Timer;
    fn fetch_msg(qid: QueryId, object: ObjectId) -> Self::Msg;
    fn fetch_deadline(qid: QueryId, attempt: u32) -> Self::Timer;
    fn origin_done(qid: QueryId) -> Self::Timer;
}

/// Where an outstanding query's fetch stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Looking for a provider: a route, a directory or a home node.
    Resolving,
    /// A fetch is outstanding against this provider.
    Fetching(NodeId),
    /// The origin round trip is under way.
    Origin,
}

/// The timed part of one outstanding query.
pub(crate) struct Timeline {
    pub qid: QueryId,
    pub stage: Stage,
    pub issued_at: Time,
    /// When the current fetch (or origin round trip) started.
    pub fetch_sent_at: Time,
    /// Fetch attempts used.
    pub fetch_attempts: u32,
    /// Providers that failed us, and ourselves.
    pub excluded: Vec<NodeId>,
    pub dht_hops: u32,
}

impl Timeline {
    /// Start the clock. `object` is `None` for a Flower-CDN petal join,
    /// which travels the query path but asks for nothing.
    pub fn issue<M: Machine>(
        ctx: &mut Fx<M>,
        qid: QueryId,
        website: WebsiteId,
        object: Option<ObjectId>,
    ) -> Timeline {
        if let Some(object) = object {
            ctx.trace(tags::QUERY_ISSUED, || {
                vec![
                    ("qid", qid.raw().into()),
                    ("ws", website.0.into()),
                    ("object", object.as_u64().into()),
                ]
            });
        }
        Timeline {
            qid,
            stage: Stage::Resolving,
            issued_at: ctx.now(),
            fetch_sent_at: ctx.now(),
            fetch_attempts: 0,
            excluded: vec![ctx.me()],
            dht_hops: 0,
        }
    }

    /// Ask `target` for `object`; a `FetchDeadline` carrying the attempt
    /// number bounds the wait.
    pub fn fetch_from<M: QueryMachine>(
        &mut self,
        ctx: &mut Fx<M>,
        pcx: &PeerCtx,
        target: NodeId,
        object: ObjectId,
    ) {
        self.stage = Stage::Fetching(target);
        self.fetch_sent_at = ctx.now();
        self.fetch_attempts += 1;
        let qid = self.qid;
        ctx.trace(tags::FETCH, || {
            vec![("qid", qid.raw().into()), ("provider", target.into())]
        });
        ctx.send(target, M::fetch_msg(qid, object));
        ctx.set_timer(
            pcx.params.rpc_timeout_ms,
            M::fetch_deadline(qid, self.fetch_attempts),
        );
    }

    /// Whether query `qid` is this one, still looking for a provider.
    pub fn resolving(&self, qid: QueryId) -> bool {
        self.qid == qid && self.stage == Stage::Resolving
    }

    /// Whether a reply from `from` answers this query's outstanding fetch.
    pub fn fetching(&self, qid: QueryId, from: NodeId) -> bool {
        self.qid == qid && self.stage == Stage::Fetching(from)
    }

    /// The provider a firing `FetchDeadline { qid, attempt }` gave up on,
    /// if it is about the fetch outstanding right now.
    pub fn expired(&self, qid: QueryId, attempt: u32) -> Option<NodeId> {
        match self.stage {
            Stage::Fetching(provider) if self.qid == qid && self.fetch_attempts == attempt => {
                Some(provider)
            }
            _ => None,
        }
    }

    /// Whether a firing `OriginDone { qid }` ends this query's origin round
    /// trip.
    pub fn origin_due(&self, qid: QueryId) -> bool {
        self.qid == qid && self.stage == Stage::Origin
    }

    /// The outstanding fetch from `provider` failed — a refusal, or with
    /// `timed_out` a deadline that fired — and the query is resolving again.
    /// Returns whether the fetch budget is spent, so the next stop is the
    /// origin.
    pub fn fetch_failed<M: QueryMachine>(
        &mut self,
        ctx: &mut Fx<M>,
        provider: NodeId,
        timed_out: bool,
    ) -> bool {
        self.stage = Stage::Resolving;
        self.excluded.push(provider);
        let (qid, attempt) = (self.qid, self.fetch_attempts);
        let (tag, event) = if timed_out {
            (tags::FETCH_TIMEOUT, ProtocolEvent::FetchTimeout)
        } else {
            (tags::FETCH_MISS, ProtocolEvent::FetchMiss)
        };
        ctx.trace(tag, || {
            vec![("qid", qid.raw().into()), ("attempt", attempt.into())]
        });
        ctx.report(FlowerReport::Event(event));
        self.fetch_attempts >= MAX_FETCH_ATTEMPTS
    }

    /// Fall back to the origin server: `OriginDone` fires after the round
    /// trip.
    pub fn origin_round_trip<M: QueryMachine>(&mut self, ctx: &mut Fx<M>, pcx: &PeerCtx) {
        self.stage = Stage::Origin;
        self.fetch_sent_at = ctx.now();
        let qid = self.qid;
        ctx.trace(tags::ORIGIN_FETCH, || vec![("qid", qid.raw().into())]);
        ctx.set_timer(2 * origin_one_way_ms(pcx).max(1), M::origin_done(qid));
    }

    /// The object arrived from `provider`: emit the record.
    pub fn complete<M: QueryMachine>(
        self,
        ctx: &mut Fx<M>,
        pcx: &PeerCtx,
        provider: Provider,
        via: ResolvedVia,
    ) {
        let one_way_ms = match provider {
            Provider::OriginServer => origin_one_way_ms(pcx),
            Provider::ContentPeer | Provider::DirectoryPeer => (ctx.now() - self.fetch_sent_at) / 2,
        };
        let record = QueryRecord {
            issued_at_ms: self.issued_at.as_millis(),
            lookup_ms: (self.fetch_sent_at - self.issued_at) + one_way_ms,
            transfer_ms: one_way_ms,
            dht_hops: self.dht_hops,
            provider,
            via,
        };
        ctx.trace(tags::QUERY_COMPLETE, || {
            vec![
                ("qid", self.qid.raw().into()),
                ("provider", provider.label().into()),
            ]
        });
        ctx.report(FlowerReport::Query(record));
    }
}

/// The first query of an active peer (§6.1): a member of the t = 0
/// population (a Squirrel ring member, a Flower-CDN directory) staggers it
/// over its first half minute; a peer that arrives later — "submits queries
/// on a regular basis, as soon as it arrives" — asks within seconds.
pub(crate) fn first_arrival<M: QueryMachine>(ctx: &mut Fx<M>, initial: bool) {
    let delay = if initial {
        ctx.rng.gen_range(1_000..30_000)
    } else {
        ctx.rng.gen_range(500..5_000)
    };
    ctx.set_timer(delay, M::query_timer());
}

/// The arrival process of an active peer (§6.1): arm the next `Query` timer
/// an exponential gap away (mean `query_period_ms`, at least a second), then
/// — unless the peer is `busy` with an earlier query or not yet able to ask —
/// draw an object of its website that `store` does not hold. `None` when
/// busy, or when the store covers the whole site.
pub(crate) fn next_arrival<M: QueryMachine>(
    ctx: &mut Fx<M>,
    pcx: &PeerCtx,
    store: &ContentStore,
    busy: bool,
) -> Option<ObjectId> {
    let gap = sample_exp(ctx.rng, pcx.params.query_period_ms as f64).ceil() as u64;
    ctx.set_timer(gap.max(1_000), M::query_timer());
    if busy {
        return None;
    }
    pcx.catalog
        .sample_new_object(pcx.website, ctx.rng, |o| store.contains(o))
}

/// One-way latency to the website's origin right now; a chaos brownout adds
/// to the topology's figure while it lasts.
fn origin_one_way_ms(pcx: &PeerCtx) -> u64 {
    pcx.origin_latency_ms + pcx.origin_dial.extra_ms(pcx.website)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{machine_rng, Output};
    use crate::squirrel::SquirrelPeer;
    use simnet::{FieldValue, Fields, LocalityId};

    /// A reply or a timer is about the query only at the stage the steps
    /// set, and only for its own qid, provider and attempt.
    #[test]
    fn replies_match_only_the_outstanding_stage() {
        let pcx = PeerCtx::for_tests();
        let me = NodeId::from_index(9);
        let mut rng = machine_rng(1, me);
        let mut out = Vec::new();
        let mut ctx =
            Fx::<SquirrelPeer>::new(Time::ZERO, me, LocalityId(0), &mut rng, true, &mut out);
        let (qid, other) = (QueryId::new(me, 1), QueryId::new(me, 2));
        let object = ObjectId::from_u64(7);
        let [a, b] = [1, 2].map(NodeId::from_index);
        let mut tl = Timeline::issue(&mut ctx, qid, pcx.website, Some(object));
        assert!(tl.resolving(qid) && !tl.resolving(other));
        assert!(!tl.fetching(qid, a) && tl.expired(qid, 0).is_none() && !tl.origin_due(qid));

        tl.fetch_from(&mut ctx, &pcx, a, object);
        assert!(tl.fetching(qid, a) && !tl.fetching(qid, b) && !tl.fetching(other, a));
        assert_eq!(tl.expired(qid, 1), Some(a));
        assert_eq!(tl.expired(qid, 0), None);
        assert_eq!(tl.expired(other, 1), None);
        assert!(!tl.resolving(qid));

        tl.fetch_failed(&mut ctx, a, true);
        assert!(tl.resolving(qid) && !tl.fetching(qid, a));
        assert_eq!(tl.expired(qid, 1), None);

        // The first attempt's deadline is stale once the second is out.
        tl.fetch_from(&mut ctx, &pcx, b, object);
        assert_eq!(tl.expired(qid, 1), None);
        assert_eq!(tl.expired(qid, 2), Some(b));

        tl.origin_round_trip(&mut ctx, &pcx);
        assert!(tl.origin_due(qid) && !tl.origin_due(other));
        assert!(!tl.resolving(qid) && !tl.fetching(qid, b));
        assert_eq!(tl.expired(qid, 2), None);
    }

    /// The failure half of a query: every failed provider is excluded,
    /// reported and traced under the query's `qid`, and the third failure
    /// spends the budget.
    #[test]
    fn three_failed_fetches_spend_the_budget() {
        let pcx = PeerCtx::for_tests();
        let me = NodeId::from_index(9);
        let mut rng = machine_rng(1, me);
        let mut out = Vec::new();
        let mut ctx =
            Fx::<SquirrelPeer>::new(Time::ZERO, me, LocalityId(0), &mut rng, true, &mut out);
        let qid = QueryId::new(me, 1);
        let object = ObjectId::from_u64(7);
        let mut tl = Timeline::issue(&mut ctx, qid, pcx.website, Some(object));
        let providers = [1, 2, 3].map(NodeId::from_index);
        let mut spent = Vec::new();
        for (i, &provider) in providers.iter().enumerate() {
            tl.fetch_from(&mut ctx, &pcx, provider, object);
            spent.push(tl.fetch_failed(&mut ctx, provider, i != 1));
        }
        assert_eq!(spent, [false, false, true]);
        assert_eq!(tl.excluded, [me, providers[0], providers[1], providers[2]]);

        let reports: Vec<ProtocolEvent> = out
            .iter()
            .filter_map(|o| match o {
                Output::Report(FlowerReport::Event(e)) => Some(*e),
                _ => None,
            })
            .collect();
        use ProtocolEvent::{FetchMiss, FetchTimeout};
        assert_eq!(reports, [FetchTimeout, FetchMiss, FetchTimeout]);
        let traces: Vec<(&str, &Fields)> = out
            .iter()
            .filter_map(|o| match o {
                Output::Trace { name, fields }
                    if [tags::FETCH_TIMEOUT, tags::FETCH_MISS].contains(name) =>
                {
                    Some((*name, fields))
                }
                _ => None,
            })
            .collect();
        let want = |attempt: u64| -> Fields {
            vec![
                ("qid", FieldValue::U64(qid.raw())),
                ("attempt", FieldValue::U64(attempt)),
            ]
        };
        assert_eq!(
            traces,
            [
                (tags::FETCH_TIMEOUT, &want(1)),
                (tags::FETCH_MISS, &want(2)),
                (tags::FETCH_TIMEOUT, &want(3)),
            ]
        );
    }
}

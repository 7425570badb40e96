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
//!    each wait for an answer naming a provider (a route, a directory, a
//!    home node) is bounded by `Timeline::await_answer`;
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
//! The [`Stage`] those steps set is the one record of where a fetch stands.
//! Every deadline a query arms is armed here and carries the stage its step
//! set; `due` takes it only while the query is still in that stage, and
//! `resolving` and `fetching` tell whether a reply is about the query
//! outstanding now.
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
    /// The deadline query `qid` arms in `stage`.
    fn deadline(qid: QueryId, stage: Stage) -> Self::Timer;
}

/// Where an outstanding query's fetch stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Looking for a provider: a route, a directory or a home node.
    Resolving,
    /// The `attempt`-th fetch of the query is outstanding against
    /// `provider`.
    Fetching { provider: NodeId, attempt: u32 },
    /// The origin round trip is under way.
    Origin,
}

impl Stage {
    /// The timer class label of a deadline armed in this stage; a
    /// `Resolving` one is the machine's own, `resolving`.
    pub(crate) fn deadline_class(self, resolving: &'static str) -> &'static str {
        match self {
            Stage::Resolving => resolving,
            Stage::Fetching { .. } => "fetch_deadline",
            Stage::Origin => "origin_done",
        }
    }
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

    /// Arm the deadline of the stage the query is in now, `delay_ms` away.
    fn arm<M: QueryMachine>(&self, ctx: &mut Fx<M>, delay_ms: u64) {
        ctx.set_timer(delay_ms, M::deadline(self.qid, self.stage));
    }

    /// Wait `rpc_timeouts` RPC timeouts for the answer to the question the
    /// resolving query just sent: a route, a directory or a home node
    /// naming a provider.
    pub fn await_answer<M: QueryMachine>(&self, ctx: &mut Fx<M>, pcx: &PeerCtx, rpc_timeouts: u64) {
        self.arm(ctx, pcx.params.rpc_timeout_ms * rpc_timeouts);
    }

    /// Ask `target` for `object`, under a deadline carrying the attempt.
    pub fn fetch_from<M: QueryMachine>(
        &mut self,
        ctx: &mut Fx<M>,
        pcx: &PeerCtx,
        target: NodeId,
        object: ObjectId,
    ) {
        self.fetch_attempts += 1;
        self.stage = Stage::Fetching {
            provider: target,
            attempt: self.fetch_attempts,
        };
        self.fetch_sent_at = ctx.now();
        let qid = self.qid;
        ctx.trace(tags::FETCH, || {
            vec![("qid", qid.raw().into()), ("provider", target.into())]
        });
        ctx.send(target, M::fetch_msg(qid, object));
        self.arm(ctx, pcx.params.rpc_timeout_ms);
    }

    /// Whether query `qid` is this one, still looking for a provider.
    pub fn resolving(&self, qid: QueryId) -> bool {
        self.qid == qid && self.stage == Stage::Resolving
    }

    /// Whether a reply from `from` answers this query's outstanding fetch.
    pub fn fetching(&self, qid: QueryId, from: NodeId) -> bool {
        self.qid == qid
            && matches!(self.stage, Stage::Fetching { provider, .. } if provider == from)
    }

    /// Whether a deadline query `qid` armed in `stage` is due: the query is
    /// this one, still in that stage.
    pub fn due(&self, qid: QueryId, stage: Stage) -> bool {
        self.qid == qid && self.stage == stage
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

    /// Fall back to the origin server: the `Origin` deadline fires after
    /// the round trip.
    pub fn origin_round_trip<M: QueryMachine>(&mut self, ctx: &mut Fx<M>, pcx: &PeerCtx) {
        self.stage = Stage::Origin;
        self.fetch_sent_at = ctx.now();
        let qid = self.qid;
        ctx.trace(tags::ORIGIN_FETCH, || vec![("qid", qid.raw().into())]);
        self.arm(ctx, 2 * origin_one_way_ms(ctx, pcx).max(1));
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
            Provider::OriginServer => origin_one_way_ms(ctx, pcx),
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

/// One-way latency to the website's origin right now; a chaos brownout on
/// the lent dial adds to the topology's figure while it lasts.
fn origin_one_way_ms<M: QueryMachine>(ctx: &Fx<M>, pcx: &PeerCtx) -> u64 {
    pcx.origin_latency_ms + ctx.dial.extra_ms(pcx.website)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{machine_rng, Lent, Output};
    use crate::squirrel::{SqTimer, SquirrelPeer};
    use simnet::{FieldValue, Fields, LocalityId};

    /// A reply or a deadline is about the query only at the stage the steps
    /// set, and only for its own qid, provider and attempt; each deadline
    /// the steps arm carries that stage.
    #[test]
    fn replies_match_only_the_outstanding_stage() {
        let pcx = PeerCtx::for_tests();
        let me = NodeId::from_index(9);
        let mut rng = machine_rng(1, me);
        let mut lent = Lent::default();
        let mut ctx =
            Fx::<SquirrelPeer>::new(Time::ZERO, me, LocalityId(0), &mut rng, true, &mut lent);
        let (qid, other) = (QueryId::new(me, 1), QueryId::new(me, 2));
        let object = ObjectId::from_u64(7);
        let [a, b] = [1, 2].map(NodeId::from_index);
        let fetching = |provider, attempt| Stage::Fetching { provider, attempt };
        let mut tl = Timeline::issue(&mut ctx, qid, pcx.website, Some(object));
        assert!(tl.resolving(qid) && !tl.resolving(other));
        assert!(tl.due(qid, Stage::Resolving) && !tl.due(other, Stage::Resolving));
        assert!(!tl.fetching(qid, a) && !tl.due(qid, fetching(a, 0)));
        assert!(!tl.due(qid, Stage::Origin));
        tl.await_answer(&mut ctx, &pcx, 2);

        tl.fetch_from(&mut ctx, &pcx, a, object);
        assert_eq!(tl.stage, fetching(a, 1));
        assert!(tl.fetching(qid, a) && !tl.fetching(qid, b) && !tl.fetching(other, a));
        assert!(tl.due(qid, fetching(a, 1)) && !tl.due(other, fetching(a, 1)));
        assert!(!tl.due(qid, fetching(a, 0)) && !tl.due(qid, fetching(b, 1)));
        assert!(!tl.resolving(qid) && !tl.due(qid, Stage::Resolving));

        tl.fetch_failed(&mut ctx, a, true);
        assert!(tl.resolving(qid) && !tl.fetching(qid, a));
        assert!(!tl.due(qid, fetching(a, 1)));

        // The first attempt's deadline is stale once the second is out.
        tl.fetch_from(&mut ctx, &pcx, b, object);
        assert!(!tl.due(qid, fetching(a, 1)) && tl.due(qid, fetching(b, 2)));

        tl.origin_round_trip(&mut ctx, &pcx);
        assert!(tl.due(qid, Stage::Origin) && !tl.due(other, Stage::Origin));
        assert!(!tl.resolving(qid) && !tl.fetching(qid, b));
        assert!(!tl.due(qid, fetching(b, 2)));

        // Each fetch is sent before its deadline is armed.
        let out = lent.out;
        let order: Vec<&str> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send { .. } => Some("send"),
                Output::SetTimer { .. } => Some("timer"),
                _ => None,
            })
            .collect();
        assert_eq!(order, ["timer", "send", "timer", "send", "timer", "timer"]);
        let armed: Vec<(u64, SqTimer)> = out
            .into_iter()
            .filter_map(|o| match o {
                Output::SetTimer { delay_ms, timer } => Some((delay_ms, timer)),
                _ => None,
            })
            .collect();
        let rpc = pcx.params.rpc_timeout_ms;
        let origin = 2 * pcx.origin_latency_ms;
        let deadline = |stage| SqTimer::Deadline { qid, stage };
        assert_eq!(
            format!("{armed:?}"),
            format!(
                "{:?}",
                [
                    (2 * rpc, deadline(Stage::Resolving)),
                    (rpc, deadline(fetching(a, 1))),
                    (rpc, deadline(fetching(b, 2))),
                    (origin, deadline(Stage::Origin)),
                ]
            )
        );
    }

    /// An origin round trip is timed by the dial its host lends: a
    /// brownout of the peer's website stretches the deadline and the
    /// recorded transfer, one of another website does not.
    #[test]
    fn origin_round_trip_reads_the_lent_dial() {
        let pcx = PeerCtx::for_tests();
        let me = NodeId::from_index(9);
        let mut rng = machine_rng(1, me);
        let round_trip = |lent: &mut Lent<SquirrelPeer>, rng: &mut _| {
            let mut ctx = Fx::new(Time::ZERO, me, LocalityId(0), rng, false, lent);
            let mut tl = Timeline::issue(&mut ctx, QueryId::new(me, 1), pcx.website, None);
            tl.origin_round_trip(&mut ctx, &pcx);
            tl.complete(
                &mut ctx,
                &pcx,
                Provider::OriginServer,
                ResolvedVia::DirectOrigin,
            );
            let armed = lent.out.iter().find_map(|o| match o {
                Output::SetTimer { delay_ms, .. } => Some(*delay_ms),
                _ => None,
            });
            let transfer = lent.out.iter().find_map(|o| match o {
                Output::Report(FlowerReport::Query(q)) => Some(q.transfer_ms),
                _ => None,
            });
            lent.out.clear();
            (armed, transfer)
        };
        let mut lent = Lent::default();
        let healthy = pcx.origin_latency_ms;
        assert_eq!(
            round_trip(&mut lent, &mut rng),
            (Some(2 * healthy), Some(healthy))
        );
        lent.dial.brownout(Some(pcx.website.0 + 1), 50);
        assert_eq!(
            round_trip(&mut lent, &mut rng),
            (Some(2 * healthy), Some(healthy))
        );
        lent.dial.brownout(Some(pcx.website.0), 50);
        let slow = healthy + 50;
        assert_eq!(
            round_trip(&mut lent, &mut rng),
            (Some(2 * slow), Some(slow))
        );
    }

    /// A deadline carries its stage whole, and the timers the simulator's
    /// wheel holds one of per armed event stay at 24 bytes.
    #[test]
    fn deadline_timers_stay_at_24_bytes() {
        assert!(std::mem::size_of::<crate::msg::FlowerTimer>() <= 24);
        assert!(std::mem::size_of::<SqTimer>() <= 24);
    }

    /// The failure half of a query: every failed provider is excluded,
    /// reported and traced under the query's `qid`, and the third failure
    /// spends the budget.
    #[test]
    fn three_failed_fetches_spend_the_budget() {
        let pcx = PeerCtx::for_tests();
        let me = NodeId::from_index(9);
        let mut rng = machine_rng(1, me);
        let mut lent = Lent::default();
        let mut ctx =
            Fx::<SquirrelPeer>::new(Time::ZERO, me, LocalityId(0), &mut rng, true, &mut lent);
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

        let out = lent.out;
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

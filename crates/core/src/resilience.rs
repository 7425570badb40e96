//! Resilience measurement: a [`TraceSink`] that turns the protocol trace
//! stream into recovery records and an availability timeline.
//!
//! The tracker watches four things:
//!
//! * directory ownership — who holds each position, read from the
//!   crate's one [`Ownership`] fold;
//! * faults — when the newest holder of a position dies, a [`Recovery`]
//!   opens for it, stamped with the death time. An older holder that was
//!   superseded, a demotion and a graceful leave open none;
//! * repair — the next `became_directory` at that position closes the
//!   "replaced" leg, and the first hit-`redirect` served *by the
//!   replacement node* closes the "served" leg. MTTR (the paper's
//!   recovery story, §5.2.2) is `served_at − died_at`: the window during
//!   which clients of that locality fell back to the origin;
//! * availability — every [`tags::QUERY_COMPLETE`] lands in a fixed-width
//!   time bucket as a hit (served from the overlay) or a miss (origin),
//!   yielding the degraded-mode hit-ratio timeline around each fault.
//!
//! Like the other sinks it is a cheap handle around shared state: keep a
//! clone, attach the other to the world, read [`summary`] after the run.
//! The summary is plain owned data (`Send`), so harnesses can compute it
//! inside a worker thread and move it out.
//!
//! [`summary`]: ResilienceTracker::summary

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cdn_metrics::{HitRatioSeries, Provider};
use simnet::{field_bool, field_str, Fields, NodeId, Time, TraceEvent, TraceSink};

use crate::ownership::Ownership;
use crate::tags::{self, Pos};

/// The repair timeline of one killed directory position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    pub website: u64,
    pub locality: u64,
    pub instance: u64,
    /// When the holder failed.
    pub died_at_ms: u64,
    /// When a replacement installed itself at the position (§5.2.2 claim
    /// protocol), if it ever did.
    pub replaced_at_ms: Option<u64>,
    /// When the replacement first answered a query with a hit — the end
    /// of the degraded window; `served − died` is this fault's TTR.
    pub served_at_ms: Option<u64>,
}

impl Recovery {
    /// Time-to-repair, if the replacement got as far as serving.
    pub fn ttr_ms(&self) -> Option<u64> {
        self.served_at_ms.map(|s| s - self.died_at_ms)
    }
}

/// Owned, thread-movable results of a run.
#[derive(Debug, Clone)]
pub struct ResilienceSummary {
    /// One record per directory position whose holder failed, in death
    /// order.
    pub recoveries: Vec<Recovery>,
    /// Hits (queries served from the overlay: content or directory peers)
    /// and totals per time bucket; a miss fell back to the origin.
    pub availability: HitRatioSeries,
}

impl ResilienceSummary {
    /// Positions where a replacement installed itself.
    pub fn replaced(&self) -> usize {
        self.recoveries
            .iter()
            .filter(|r| r.replaced_at_ms.is_some())
            .count()
    }

    /// Positions whose replacement went on to serve a query.
    pub fn served(&self) -> usize {
        self.recoveries
            .iter()
            .filter(|r| r.served_at_ms.is_some())
            .count()
    }

    /// Mean time from kill to first replacement-served query, over the
    /// recoveries that completed. `None` when none did (e.g. Squirrel,
    /// which has no directory replacement protocol).
    pub fn mean_ttr_ms(&self) -> Option<f64> {
        let ttrs: Vec<u64> = self
            .recoveries
            .iter()
            .filter_map(Recovery::ttr_ms)
            .collect();
        if ttrs.is_empty() {
            None
        } else {
            Some(ttrs.iter().sum::<u64>() as f64 / ttrs.len() as f64)
        }
    }

    /// Lowest bucket hit ratio at or after `from_ms` — the depth of the
    /// degraded window (ignores empty buckets).
    pub fn worst_hit_ratio_after(&self, from_ms: u64) -> Option<f64> {
        (self.availability.buckets())
            .filter(|&(start_ms, _, _)| start_ms >= from_ms)
            .map(|(_, hits, total)| hits as f64 / total as f64)
            .min_by(|a, b| a.total_cmp(b))
    }
}

#[derive(Debug)]
struct State {
    owners: Ownership,
    recoveries: Vec<Recovery>,
    /// Positions with an open (not yet replaced) recovery.
    open_by_pos: BTreeMap<Pos, usize>,
    /// Replacement node → recoveries awaiting its first served hit.
    watch_serve: BTreeMap<NodeId, Vec<usize>>,
    availability: HitRatioSeries,
}

/// The tracker: attach one clone to the world as a sink, keep the other.
#[derive(Debug, Clone)]
pub struct ResilienceTracker {
    state: Rc<RefCell<State>>,
}

impl ResilienceTracker {
    /// `bucket_ms` is the availability-timeline resolution.
    pub fn new(bucket_ms: u64) -> ResilienceTracker {
        ResilienceTracker {
            state: Rc::new(RefCell::new(State {
                owners: Ownership::default(),
                recoveries: Vec::new(),
                open_by_pos: BTreeMap::new(),
                watch_serve: BTreeMap::new(),
                availability: HitRatioSeries::new(bucket_ms),
            })),
        }
    }

    /// Snapshot the results (callable mid-run or after).
    pub fn summary(&self) -> ResilienceSummary {
        let st = self.state.borrow();
        ResilienceSummary {
            recoveries: st.recoveries.clone(),
            availability: st.availability.clone(),
        }
    }
}

impl State {
    fn on_custom(&mut self, at_ms: u64, node: NodeId, name: &str, fields: &Fields) {
        match name {
            tags::REDIRECT => {
                if field_bool(fields, "hit") != Some(true) {
                    return;
                }
                if let Some(idxs) = self.watch_serve.remove(&node) {
                    for idx in idxs {
                        let r = &mut self.recoveries[idx];
                        if r.served_at_ms.is_none() {
                            r.served_at_ms = Some(at_ms);
                        }
                    }
                }
            }
            tags::QUERY_COMPLETE => {
                let hit = field_str(fields, "provider")
                    .is_some_and(|p| p != Provider::OriginServer.label());
                self.availability.record_at(at_ms, hit);
            }
            _ => {}
        }
    }
}

impl TraceSink for ResilienceTracker {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        let mut st = self.state.borrow_mut();
        let at_ms = at.as_millis();
        let failed = matches!(ev, TraceEvent::NodeFail { .. });
        for c in st.owners.fold(at, ev) {
            if c.arrived {
                if let Some(idx) = st.open_by_pos.remove(&c.pos) {
                    st.recoveries[idx].replaced_at_ms = Some(at_ms);
                    st.watch_serve.entry(c.node).or_default().push(idx);
                }
            } else if failed && c.newest {
                let (website, locality, instance) = c.pos;
                let idx = st.recoveries.len();
                st.recoveries.push(Recovery {
                    website,
                    locality,
                    instance,
                    died_at_ms: at_ms,
                    replaced_at_ms: None,
                    served_at_ms: None,
                });
                st.open_by_pos.insert(c.pos, idx);
            }
        }
        match ev {
            // A replacement that dies before serving never closes its
            // served leg.
            TraceEvent::NodeFail { node } => {
                st.watch_serve.remove(node);
            }
            TraceEvent::Custom { node, name, fields } => {
                st.on_custom(at_ms, *node, name, fields);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::FieldValue;

    fn became(ws: u64, loc: u64, inst: u64) -> Fields {
        vec![
            ("ws", FieldValue::U64(ws)),
            ("loc", FieldValue::U64(loc)),
            ("inst", FieldValue::U64(inst)),
            ("replacement", FieldValue::Bool(true)),
        ]
    }

    fn ev(t: &mut ResilienceTracker, at_ms: u64, e: TraceEvent) {
        t.event(Time(at_ms), &e);
    }

    fn custom(node: usize, name: &'static str, fields: Fields) -> TraceEvent {
        TraceEvent::Custom {
            node: NodeId::from_index(node),
            name,
            fields,
        }
    }

    #[test]
    fn kill_replace_serve_yields_a_full_recovery() {
        let mut t = ResilienceTracker::new(60_000);
        ev(
            &mut t,
            0,
            custom(1, tags::BECAME_DIRECTORY, became(0, 2, 0)),
        );
        ev(
            &mut t,
            100_000,
            TraceEvent::NodeFail {
                node: NodeId::from_index(1),
            },
        );
        ev(
            &mut t,
            130_000,
            custom(5, tags::BECAME_DIRECTORY, became(0, 2, 0)),
        );
        // A hit served by an unrelated node does not close the window…
        ev(
            &mut t,
            135_000,
            custom(
                9,
                tags::REDIRECT,
                vec![("qid", FieldValue::U64(1)), ("hit", FieldValue::Bool(true))],
            ),
        );
        // …a miss from the replacement doesn't either…
        ev(
            &mut t,
            140_000,
            custom(
                5,
                tags::REDIRECT,
                vec![
                    ("qid", FieldValue::U64(2)),
                    ("hit", FieldValue::Bool(false)),
                ],
            ),
        );
        // …its first hit does.
        ev(
            &mut t,
            150_000,
            custom(
                5,
                tags::REDIRECT,
                vec![("qid", FieldValue::U64(3)), ("hit", FieldValue::Bool(true))],
            ),
        );
        let s = t.summary();
        assert_eq!(s.recoveries.len(), 1);
        let r = s.recoveries[0];
        assert_eq!((r.website, r.locality, r.instance), (0, 2, 0));
        assert_eq!(r.died_at_ms, 100_000);
        assert_eq!(r.replaced_at_ms, Some(130_000));
        assert_eq!(r.served_at_ms, Some(150_000));
        assert_eq!(r.ttr_ms(), Some(50_000));
        assert_eq!(s.mean_ttr_ms(), Some(50_000.0));
        assert_eq!((s.replaced(), s.served()), (1, 1));
    }

    #[test]
    fn unreplaced_kill_stays_open_and_demotion_opens_nothing() {
        let mut t = ResilienceTracker::new(60_000);
        ev(
            &mut t,
            0,
            custom(1, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        ev(
            &mut t,
            10,
            custom(2, tags::BECAME_DIRECTORY, became(1, 0, 0)),
        );
        // Voluntary demotion of node 2: no recovery.
        ev(
            &mut t,
            5_000,
            custom(
                2,
                tags::DEMOTED,
                vec![
                    ("ws", FieldValue::U64(1)),
                    ("loc", FieldValue::U64(0)),
                    ("inst", FieldValue::U64(0)),
                ],
            ),
        );
        ev(
            &mut t,
            6_000,
            TraceEvent::NodeFail {
                node: NodeId::from_index(2),
            },
        );
        // Kill node 1: recovery opens and never closes.
        ev(
            &mut t,
            9_000,
            TraceEvent::NodeFail {
                node: NodeId::from_index(1),
            },
        );
        let s = t.summary();
        assert_eq!(s.recoveries.len(), 1);
        assert_eq!(s.recoveries[0].replaced_at_ms, None);
        assert_eq!(s.mean_ttr_ms(), None);
        assert_eq!((s.replaced(), s.served()), (0, 0));
    }

    fn gone(t: &mut ResilienceTracker, at_ms: u64, node: usize, failed: bool) {
        let node = NodeId::from_index(node);
        let e = if failed {
            TraceEvent::NodeFail { node }
        } else {
            TraceEvent::NodeLeave { node }
        };
        ev(t, at_ms, e);
    }

    /// Holders [1, 2] of one position; 2 stands down, so 1 holds it alone
    /// and its death is a fault.
    #[test]
    fn the_last_holder_left_failing_opens_a_recovery() {
        let mut t = ResilienceTracker::new(60_000);
        ev(
            &mut t,
            0,
            custom(1, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        ev(
            &mut t,
            10,
            custom(2, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        ev(&mut t, 20, custom(2, tags::DEMOTED, became(0, 0, 0)));
        gone(&mut t, 30, 1, true);
        let s = t.summary();
        assert_eq!(s.recoveries.len(), 1, "{s:?}");
        assert_eq!(s.recoveries[0].died_at_ms, 30);
    }

    /// A graceful leave hands the position over: no fault.
    #[test]
    fn the_newest_holder_leaving_opens_no_recovery() {
        let mut t = ResilienceTracker::new(60_000);
        ev(
            &mut t,
            0,
            custom(1, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        ev(
            &mut t,
            10,
            custom(2, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        gone(&mut t, 20, 2, false);
        assert!(t.summary().recoveries.is_empty());
    }

    /// Holder 1 was superseded by 2, which still holds the position.
    #[test]
    fn a_superseded_holder_failing_opens_no_recovery() {
        let mut t = ResilienceTracker::new(60_000);
        ev(
            &mut t,
            0,
            custom(1, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        ev(
            &mut t,
            10,
            custom(2, tags::BECAME_DIRECTORY, became(0, 0, 0)),
        );
        gone(&mut t, 20, 1, true);
        assert!(t.summary().recoveries.is_empty());
    }

    #[test]
    fn availability_buckets_split_hits_from_origin_fallbacks() {
        let mut t = ResilienceTracker::new(1_000);
        let q = |p: &'static str| {
            vec![
                ("qid", FieldValue::U64(7)),
                ("provider", FieldValue::Str(p)),
            ]
        };
        ev(
            &mut t,
            100,
            custom(3, tags::QUERY_COMPLETE, q("content_peer")),
        );
        ev(
            &mut t,
            200,
            custom(3, tags::QUERY_COMPLETE, q("directory_peer")),
        );
        ev(&mut t, 900, custom(3, tags::QUERY_COMPLETE, q("origin")));
        ev(&mut t, 1_500, custom(3, tags::QUERY_COMPLETE, q("origin")));
        let s = t.summary();
        let buckets: Vec<_> = s.availability.buckets().collect();
        assert_eq!(buckets, [(0, 2, 3), (1_000, 0, 1)]);
        assert_eq!(s.worst_hit_ratio_after(0), Some(0.0));
        assert_eq!(s.worst_hit_ratio_after(2_000), None);
    }
}

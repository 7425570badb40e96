//! # gossip — Cyclon-style membership for Flower-CDN petals
//!
//! Flower-CDN clusters peers with the same website interest and locality
//! into *petals* maintained "via low-cost gossip techniques which are
//! inspired of P2P membership protocols proven to be highly robust in face
//! of churn" (§3, citing Cyclon). This crate provides that substrate:
//!
//! * [`view::View`] / [`view::Entry`] — aged, unbounded partial views with
//!   freshness-based merging (§6.1: "we do not limit the view size");
//! * [`cyclon::Cyclon`] — the sans-io shuffle engine, one freshness-union
//!   shuffle; the host owns timers and the network.
//!
//! Entries are generic over a payload `P`; Flower-CDN piggybacks each
//! contact's **content summary** (a Bloom filter) and its **dir-info**
//! record on the shuffles.

pub mod cyclon;
pub mod view;

pub use cyclon::{Cyclon, GossipMsg, ShuffleMode};
pub use view::{Entry, View};

#[cfg(test)]
mod convergence_tests {
    //! Statistical behaviour of the shuffle engine on a static peer set,
    //! driven entirely in memory (no simulator).

    use std::collections::{HashMap, HashSet, VecDeque};

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::NodeId;

    use crate::{Cyclon, Entry, GossipMsg, ShuffleMode};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn run_rounds(
        peers: &mut HashMap<NodeId, Cyclon<()>>,
        rounds: usize,
        rng: &mut StdRng,
        drop_replies_to: &HashSet<NodeId>,
    ) {
        for _ in 0..rounds {
            let mut ids: Vec<NodeId> = peers.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let mut me = match peers.remove(&id) {
                    Some(p) => p,
                    None => continue,
                };
                if let Some((target, GossipMsg::ShuffleReq { entries }, gen)) =
                    me.start_shuffle((), rng)
                {
                    match peers.get_mut(&target) {
                        Some(q) if !drop_replies_to.contains(&target) => {
                            let GossipMsg::ShuffleReply { entries: back } =
                                q.handle_request(me.me(), entries, (), rng)
                            else {
                                unreachable!()
                            };
                            me.handle_reply(target, back);
                        }
                        _ => {
                            // Target dead/unreachable: host's timeout fires.
                            me.shuffle_timed_out(gen);
                        }
                    }
                }
                peers.insert(id, me);
            }
        }
    }

    fn build(count: usize) -> HashMap<NodeId, Cyclon<()>> {
        (0..count)
            .map(|i| {
                let mut c = Cyclon::new(n(i), ShuffleMode::Union, 4, 0).with_max_age(8);
                c.seed([Entry::new(n((i + 1) % count), ())]);
                (n(i), c)
            })
            .collect()
    }

    /// The directed knows-graph must stay weakly connected: petal search and
    /// directory-failure dissemination both rely on it.
    fn weakly_connected(peers: &HashMap<NodeId, Cyclon<()>>) -> bool {
        let mut undirected: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (&id, c) in peers {
            for e in c.view().entries() {
                undirected.entry(id).or_default().push(e.node);
                undirected.entry(e.node).or_default().push(id);
            }
        }
        let Some(&start) = peers.keys().next() else {
            return true;
        };
        let mut seen = HashSet::from([start]);
        let mut q = VecDeque::from([start]);
        while let Some(x) = q.pop_front() {
            for &y in undirected.get(&x).into_iter().flatten() {
                if peers.contains_key(&y) && seen.insert(y) {
                    q.push_back(y);
                }
            }
        }
        seen.len() == peers.len()
    }

    #[test]
    fn union_mode_converges_to_full_petal_knowledge() {
        // Petals are small (≤30 peers, §6.1); with unbounded views gossip
        // should spread complete membership quickly.
        let mut rng = StdRng::seed_from_u64(11);
        let mut peers = build(20);
        run_rounds(&mut peers, 15, &mut rng, &HashSet::new());
        for (id, c) in &peers {
            assert!(
                c.view().len() >= 15,
                "{id} knows only {} of 19 others",
                c.view().len()
            );
        }
        assert!(weakly_connected(&peers));
    }

    #[test]
    fn failed_contacts_are_purged_from_all_views() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut peers = build(20);
        run_rounds(&mut peers, 10, &mut rng, &HashSet::new());
        // Kill five peers: their engines vanish, shuffles to them time out.
        let dead: HashSet<NodeId> = (0..5).map(n).collect();
        for d in &dead {
            peers.remove(d);
        }
        run_rounds(&mut peers, 40, &mut rng, &dead);
        for (id, c) in &peers {
            for d in &dead {
                assert!(!c.view().contains(*d), "{id} still lists dead contact {d}");
            }
        }
        assert!(weakly_connected(&peers), "survivors must remain connected");
    }
}

//! The directory peer's state: the `directory-index(ws, loc)` plus its view
//! of the petal's content peers (§3.2), with keepalive-based expiry (§5.1),
//! provider selection, and the hand-over snapshot used on voluntary leaves
//! and PetalUp promotions (§4, §5.2.2).

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;
use simnet::NodeId;
use workload::ObjectId;

use crate::msg::Summary;
use crate::store::{summarize, ObjectSet};

/// What the directory knows about one content peer it manages.
#[derive(Debug, Clone)]
struct PeerEntry {
    objects: ObjectSet,
    last_heard_ms: u64,
    /// The summary of `objects` handed to contacts, built the first time a
    /// sample needs it and dropped when `objects` changes: every Redirect
    /// and sibling query naming this peer until then shares it.
    summary: Option<Summary>,
}

impl PeerEntry {
    fn new(last_heard_ms: u64) -> PeerEntry {
        PeerEntry {
            objects: ObjectSet::default(),
            last_heard_ms,
            summary: None,
        }
    }
}

/// Uniform pick among `candidates` without collecting them: count, draw,
/// take the n-th. The draw is `SliceRandom::choose`'s — `next_u64() % n`,
/// and none at all when there is no candidate — because every seeded run
/// depends on the state it leaves the RNG in.
fn choose<'a>(
    candidates: impl Iterator<Item = &'a NodeId> + Clone,
    rng: &mut impl Rng,
) -> Option<NodeId> {
    let n = candidates.clone().count();
    if n == 0 {
        return None;
    }
    candidates.copied().nth(rng.next_u64() as usize % n)
}

/// Directory-index and view over the content peers of one petal partition.
#[derive(Debug, Clone, Default)]
pub struct DirectoryIndex {
    peers: BTreeMap<NodeId, PeerEntry>,
    /// Inverted index: object → holders.
    holders: BTreeMap<ObjectId, Vec<NodeId>>,
}

/// Serializable snapshot for hand-over messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectorySnapshot {
    /// `(peer, its objects, last-heard timestamp)`.
    pub entries: Vec<(NodeId, Vec<ObjectId>, u64)>,
}

impl DirectoryIndex {
    pub fn new() -> DirectoryIndex {
        DirectoryIndex::default()
    }

    /// Number of content peers in the view — the PetalUp load metric
    /// ("the load at a directory peer is evaluated in terms of the number
    /// of content peers in its view", §4).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    pub fn contains_peer(&self, node: NodeId) -> bool {
        self.peers.contains_key(&node)
    }

    /// All managed content peers.
    pub fn peer_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.keys().copied()
    }

    /// Number of distinct objects indexed.
    pub fn object_count(&self) -> usize {
        self.holders.len()
    }

    /// Register (or refresh) a content peer with no content yet.
    pub fn register_peer(&mut self, node: NodeId, now_ms: u64) {
        self.peers
            .entry(node)
            .or_insert_with(|| PeerEntry::new(0))
            .last_heard_ms = now_ms;
    }

    /// Record that `node` holds `objects` (a keepalive/push/redirect
    /// observation). Implicitly registers and refreshes the peer.
    pub fn record_objects(
        &mut self,
        node: NodeId,
        objects: impl IntoIterator<Item = ObjectId>,
        now_ms: u64,
    ) {
        let entry = self
            .peers
            .entry(node)
            .or_insert_with(|| PeerEntry::new(now_ms));
        entry.last_heard_ms = now_ms;
        for o in objects {
            if entry.objects.insert(o) {
                entry.summary = None;
                self.holders.entry(o).or_default().push(node);
            }
        }
    }

    /// Remove specific objects from a peer's entry (the peer evicted them
    /// under a bounded-cache policy and retracted the announcement).
    pub fn retract_objects(&mut self, node: NodeId, objects: impl IntoIterator<Item = ObjectId>) {
        let Some(entry) = self.peers.get_mut(&node) else {
            return;
        };
        for o in objects {
            if entry.objects.remove(o) {
                entry.summary = None;
                if let Some(hs) = self.holders.get_mut(&o) {
                    hs.retain(|&h| h != node);
                    if hs.is_empty() {
                        self.holders.remove(&o);
                    }
                }
            }
        }
    }

    /// Refresh a peer's liveness without content changes (plain keepalive).
    pub fn heard_from(&mut self, node: NodeId, now_ms: u64) {
        if let Some(e) = self.peers.get_mut(&node) {
            e.last_heard_ms = now_ms;
        }
    }

    /// Remove a content peer entirely (failure detected, or it was promoted
    /// to a directory — "the replacing content peer is then removed from
    /// the directory-index", §4).
    pub fn remove_peer(&mut self, node: NodeId) -> bool {
        let Some(entry) = self.peers.remove(&node) else {
            return false;
        };
        for o in entry.objects.iter() {
            if let Some(hs) = self.holders.get_mut(&o) {
                hs.retain(|&h| h != node);
                if hs.is_empty() {
                    self.holders.remove(&o);
                }
            }
        }
        true
    }

    /// Drop peers not heard from within `ttl_ms` ("discover and remove
    /// expired pointers from its view and directory-index", §5.1).
    pub fn expire(&mut self, now_ms: u64, ttl_ms: u64) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(_, e)| now_ms.saturating_sub(e.last_heard_ms) > ttl_ms)
            .map(|(&n, _)| n)
            .collect();
        for &n in &stale {
            self.remove_peer(n);
        }
        stale
    }

    /// Pick a content peer that holds `object`, excluding `exclude`
    /// (normally the querier itself). Uniform among holders: within a petal
    /// all holders are locality-close by construction.
    pub fn provider_for(
        &self,
        object: ObjectId,
        exclude: &[NodeId],
        rng: &mut impl Rng,
    ) -> Option<NodeId> {
        let hs = self.holders.get(&object)?;
        choose(hs.iter().filter(|n| !exclude.contains(n)), rng)
    }

    /// Like [`DirectoryIndex::provider_for`], but prefer holders heard from
    /// within `fresh_ms` — under minute-scale churn, a pointer that has
    /// been silent for a while is most likely a corpse, and every dead
    /// redirect costs the client a fetch timeout.
    pub fn provider_recent(
        &self,
        object: ObjectId,
        exclude: &[NodeId],
        now_ms: u64,
        fresh_ms: u64,
        rng: &mut impl Rng,
    ) -> Option<NodeId> {
        let hs = self.holders.get(&object)?;
        let live = hs.iter().filter(|n| !exclude.contains(n)).filter(|n| {
            self.peers
                .get(n)
                .is_some_and(|e| now_ms.saturating_sub(e.last_heard_ms) <= fresh_ms)
        });
        choose(live, rng).or_else(|| self.provider_for(object, exclude, rng))
    }

    /// Sample up to `n` content peers together with Bloom summaries of what
    /// we believe they hold — the view subset handed to joining clients
    /// ("provides them with a subset of its old view so that they
    /// initialize their view of petal(ws,loc)", §4). A contact's summary
    /// is built at most once per change of its entry.
    pub fn sample_contacts(
        &mut self,
        n: usize,
        exclude: NodeId,
        rng: &mut impl Rng,
    ) -> Vec<(NodeId, Summary)> {
        let mut ids: Vec<NodeId> = self
            .peers
            .keys()
            .filter(|&&p| p != exclude)
            .copied()
            .collect();
        ids.shuffle(rng);
        ids.truncate(n);
        ids.into_iter()
            .map(|id| {
                let e = self.peers.get_mut(&id).expect("sampled from the view");
                // Base size whatever the entry holds, unlike a store's own
                // summary: seeded runs depend on the Redirect's bytes.
                let summary = e.summary.get_or_insert_with(|| summarize(&e.objects, 0));
                (id, Summary::clone(summary))
            })
            .collect()
    }

    /// Full snapshot for hand-over to a successor directory.
    pub fn snapshot(&self) -> DirectorySnapshot {
        DirectorySnapshot {
            entries: self
                .peers
                .iter()
                .map(|(&n, e)| (n, e.objects.iter().collect(), e.last_heard_ms))
                .collect(),
        }
    }

    /// Rebuild from a hand-over snapshot.
    pub fn from_snapshot(snap: &DirectorySnapshot) -> DirectoryIndex {
        let mut idx = DirectoryIndex::new();
        for (node, objects, heard) in &snap.entries {
            idx.record_objects(*node, objects.iter().copied(), *heard);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::sync::Arc;
    use workload::WebsiteId;

    fn o(rank: u16) -> ObjectId {
        ObjectId {
            website: WebsiteId(0),
            rank,
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn record_and_find_provider() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), [o(5), o(6)], 100);
        idx.record_objects(n(2), [o(5)], 200);
        let mut rng = StdRng::seed_from_u64(1);
        let p = idx.provider_for(o(6), &[], &mut rng);
        assert_eq!(p, Some(n(1)));
        let p5 = idx.provider_for(o(5), &[n(1)], &mut rng);
        assert_eq!(p5, Some(n(2)), "exclusion respected");
        assert_eq!(idx.provider_for(o(9), &[], &mut rng), None);
        assert_eq!(idx.peer_count(), 2);
        assert_eq!(idx.object_count(), 2);
    }

    #[test]
    fn remove_peer_cleans_inverted_index() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), [o(5)], 0);
        idx.record_objects(n(2), [o(5)], 0);
        assert!(idx.remove_peer(n(1)));
        assert!(!idx.remove_peer(n(1)));
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(idx.provider_for(o(5), &[], &mut rng), Some(n(2)));
        idx.remove_peer(n(2));
        assert_eq!(idx.provider_for(o(5), &[], &mut rng), None);
        assert_eq!(idx.object_count(), 0);
    }

    #[test]
    fn expiry_drops_silent_peers() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), [o(1)], 0);
        idx.record_objects(n(2), [o(2)], 0);
        idx.heard_from(n(2), 5_000);
        let dropped = idx.expire(10_000, 7_000);
        assert_eq!(dropped, vec![n(1)]);
        assert!(!idx.contains_peer(n(1)));
        assert!(idx.contains_peer(n(2)));
    }

    #[test]
    fn duplicate_records_do_not_duplicate_holders() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), [o(5)], 0);
        idx.record_objects(n(1), [o(5)], 10);
        idx.remove_peer(n(1));
        assert_eq!(idx.object_count(), 0, "holder list stayed consistent");
    }

    #[test]
    fn snapshot_round_trips() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), [o(1), o(2)], 50);
        idx.record_objects(n(2), [o(2)], 60);
        let snap = idx.snapshot();
        let back = DirectoryIndex::from_snapshot(&snap);
        assert_eq!(back.peer_count(), 2);
        assert_eq!(back.object_count(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(back.provider_for(o(1), &[], &mut rng).is_some());
    }

    #[test]
    fn sampled_contacts_carry_faithful_summaries() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), (0..20).map(o), 0);
        idx.record_objects(n(2), (20..40).map(o), 0);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = idx.sample_contacts(5, n(99), &mut rng);
        assert_eq!(sample.len(), 2);
        for (id, summary) in sample {
            let range = if id == n(1) { 0..20 } else { 20..40 };
            // The bits these summaries had when the sizing was a literal here.
            let mut literal = bloom::BloomFilter::with_rate(256, 0.02);
            for r in range {
                assert!(summary.contains(o(r).as_u64()));
                literal.insert(o(r).as_u64());
            }
            assert_eq!(*summary, literal);
        }
    }

    #[test]
    fn a_contacts_summary_is_rebuilt_only_when_its_entry_changes() {
        let summary_of = |idx: &mut DirectoryIndex| {
            let mut rng = StdRng::seed_from_u64(6);
            idx.sample_contacts(5, n(99), &mut rng).remove(0).1
        };
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), (0..5).map(o), 0);
        let first = summary_of(&mut idx);
        // Neither a refresh nor a record of what it already holds changes
        // the entry: the one summary is handed out again.
        idx.heard_from(n(1), 1);
        idx.record_objects(n(1), [o(2)], 2);
        assert!(Arc::ptr_eq(&first, &summary_of(&mut idx)));

        idx.record_objects(n(1), [o(9)], 3);
        let grown = summary_of(&mut idx);
        assert!(!Arc::ptr_eq(&first, &grown));
        idx.retract_objects(n(1), [o(0)]);
        let shrunk = summary_of(&mut idx);
        assert!(!Arc::ptr_eq(&grown, &shrunk));
        assert!(grown.contains(o(0).as_u64()));

        let mut fresh = DirectoryIndex::new();
        fresh.record_objects(n(1), (1..5).chain([9]).map(o), 0);
        assert_eq!(
            *shrunk,
            *summary_of(&mut fresh),
            "bits, m, k and item count"
        );
    }

    #[test]
    fn contacts_without_objects_carry_the_shared_empty_summary() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(1), std::iter::empty(), 0);
        idx.record_objects(n(2), std::iter::empty(), 0);
        idx.record_objects(n(3), [o(7)], 0);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = idx.sample_contacts(5, n(99), &mut rng);
        assert_eq!(sample.len(), 3);
        let fresh = crate::store::empty_summary(0);
        let shared = crate::store::ContentStore::new().summary();
        for (id, summary) in &sample {
            if *id == n(3) {
                assert!(summary.contains(o(7).as_u64()));
                assert!(!Arc::ptr_eq(summary, &shared));
            } else {
                assert_eq!(**summary, fresh, "bits, m, k and item count");
                assert!(Arc::ptr_eq(summary, &shared));
            }
        }
    }

    /// `provider_for` as of 11a0052, verbatim: collect, then `choose`.
    fn provider_for_collected(
        idx: &DirectoryIndex,
        object: ObjectId,
        exclude: &[NodeId],
        rng: &mut impl Rng,
    ) -> Option<NodeId> {
        let hs = idx.holders.get(&object)?;
        let candidates: Vec<NodeId> = hs
            .iter()
            .filter(|n| !exclude.contains(n))
            .copied()
            .collect();
        candidates.choose(rng).copied()
    }

    /// `provider_recent` as of 11a0052, verbatim.
    fn provider_recent_collected(
        idx: &DirectoryIndex,
        object: ObjectId,
        exclude: &[NodeId],
        now_ms: u64,
        fresh_ms: u64,
        rng: &mut impl Rng,
    ) -> Option<NodeId> {
        let hs = idx.holders.get(&object)?;
        let live: Vec<NodeId> = hs
            .iter()
            .filter(|n| !exclude.contains(n))
            .filter(|n| {
                idx.peers
                    .get(n)
                    .is_some_and(|e| now_ms.saturating_sub(e.last_heard_ms) <= fresh_ms)
            })
            .copied()
            .collect();
        if let Some(&p) = live.as_slice().choose(rng) {
            return Some(p);
        }
        provider_for_collected(idx, object, exclude, rng)
    }

    /// Same pick and the same RNG state afterwards as the collected-`Vec`
    /// originals: every later draw of a seeded run depends on it.
    #[test]
    fn provider_choice_draws_like_the_collected_original() {
        let mut setup = StdRng::seed_from_u64(6);
        let mut idx = DirectoryIndex::new();
        // 40 peers heard from at 0..40 s; object r is held by every peer
        // whose number divides by r + 1, so holder lists run from all 40
        // peers down to one, and objects 40.. have no holder at all.
        for p in 0..40 {
            let held = (0..40u16).filter(|&r| p % (usize::from(r) + 1) == 0).map(o);
            idx.record_objects(n(p), held, p as u64 * 1_000);
        }
        let (mut rng, mut rng_old) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (mut none, mut stale_fallthrough, mut fresh) = (0, 0, 0);
        for case in 0..5_000 {
            let object = o(setup.gen_range(0..44));
            let exclude: Vec<NodeId> = (0..setup.gen_range(0..4))
                .map(|_| n(setup.gen_range(0..40)))
                .collect();
            // From "everyone is fresh" to "nobody is" (now far in the future).
            let now_ms: u64 = setup.gen_range(0..120_000);
            let fresh_ms: u64 = setup.gen_range(0..30_000);
            let (got, want) = if case % 2 == 0 {
                (
                    idx.provider_for(object, &exclude, &mut rng),
                    provider_for_collected(&idx, object, &exclude, &mut rng_old),
                )
            } else {
                let any_fresh = idx.holders.get(&object).is_some_and(|hs| {
                    hs.iter().any(|h| {
                        !exclude.contains(h)
                            && now_ms.saturating_sub(idx.peers[h].last_heard_ms) <= fresh_ms
                    })
                });
                let got = idx.provider_recent(object, &exclude, now_ms, fresh_ms, &mut rng);
                match (any_fresh, got) {
                    (true, _) => fresh += 1,
                    (false, Some(_)) => stale_fallthrough += 1,
                    (false, None) => {}
                }
                let want = provider_recent_collected(
                    &idx,
                    object,
                    &exclude,
                    now_ms,
                    fresh_ms,
                    &mut rng_old,
                );
                (got, want)
            };
            assert_eq!(got, want, "pick @ {case}");
            none += usize::from(got.is_none());
            assert_eq!(rng.next_u64(), rng_old.next_u64(), "RNG state @ {case}");
        }
        assert!(none > 100 && stale_fallthrough > 100 && fresh > 100);
    }

    #[test]
    fn sample_excludes_requested_peer() {
        let mut idx = DirectoryIndex::new();
        idx.record_objects(n(7), [o(1)], 0);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(idx.sample_contacts(3, n(7), &mut rng).is_empty());
    }
}

//! A peer's local content store with push-threshold change tracking.
//!
//! "A peer only stores content it has requested" (§6.1) and "sends updates
//! about its stored content to its d(ws,loc) using push messages whenever
//! the percentage of its changes reaches a threshold" (§5.1, Table 1:
//! threshold 0.5). The paper assumes enough storage to never evict during a
//! run; [`ContentStore`] still supports removal so eviction policies can be
//! layered on.

use std::collections::{BTreeMap, BTreeSet};

use bloom::BloomFilter;
use workload::ObjectId;

/// Cache replacement policy. The paper's evaluation assumes unlimited
/// storage ("a content peer has enough storage potential to avoid
/// replacing its content", §6.1) and footnotes replacement policies as out
/// of scope; [`StorePolicy::Lru`] implements the natural extension so the
/// assumption can be relaxed and measured (see the `ablation_cache`
/// bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePolicy {
    /// The paper's model: nothing is ever evicted.
    Unlimited,
    /// Keep at most `capacity` objects, evicting the least recently used
    /// (use = insertion or a served fetch).
    Lru { capacity: usize },
}

/// Expected object count used to size summaries. A peer issuing one query
/// per 6 minutes for a mean uptime of 60 minutes stores ~10 objects; long
/// lived peers collect a few hundred. 256 at 2% keeps summaries ≈ 260 bytes.
const SUMMARY_EXPECTED_ITEMS: usize = 256;
const SUMMARY_FP_RATE: f64 = 0.02;

/// The objects a peer holds, plus bookkeeping for the push protocol.
#[derive(Debug, Clone)]
pub struct ContentStore {
    objects: BTreeSet<ObjectId>,
    /// Objects added since the last push to the directory.
    unpushed: Vec<ObjectId>,
    /// Store size at the moment of the last push.
    size_at_last_push: usize,
    policy: StorePolicy,
    /// LRU bookkeeping: object → last-use stamp (monotone counter).
    last_use: BTreeMap<ObjectId, u64>,
    use_clock: u64,
}

impl Default for ContentStore {
    fn default() -> Self {
        ContentStore::new()
    }
}

impl ContentStore {
    pub fn new() -> ContentStore {
        ContentStore::with_policy(StorePolicy::Unlimited)
    }

    pub fn with_policy(policy: StorePolicy) -> ContentStore {
        if let StorePolicy::Lru { capacity } = policy {
            assert!(capacity > 0, "LRU capacity must be positive");
        }
        ContentStore {
            objects: BTreeSet::new(),
            unpushed: Vec::new(),
            size_at_last_push: 0,
            policy,
            last_use: BTreeMap::new(),
            use_clock: 0,
        }
    }

    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Serve a fetch of `o`: whether we hold it. A served object counts as
    /// used, which refreshes its LRU position.
    pub fn serve(&mut self, o: ObjectId) -> bool {
        let held = self.objects.contains(&o);
        if held {
            self.use_clock += 1;
            self.last_use.insert(o, self.use_clock);
        }
        held
    }

    /// Insert under the configured policy, returning any evicted objects
    /// (so the peer can retract them from its directory's index).
    pub fn insert_with_eviction(&mut self, o: ObjectId) -> Vec<ObjectId> {
        if !self.insert(o) {
            return Vec::new();
        }
        self.use_clock += 1;
        self.last_use.insert(o, self.use_clock);
        let mut evicted = Vec::new();
        if let StorePolicy::Lru { capacity } = self.policy {
            while self.objects.len() > capacity {
                let victim = self
                    .last_use
                    .iter()
                    .filter(|(k, _)| self.objects.contains(*k))
                    .min_by_key(|(_, &stamp)| stamp)
                    .map(|(&k, _)| k)
                    .expect("non-empty store over capacity");
                self.remove(victim);
                self.last_use.remove(&victim);
                evicted.push(victim);
            }
        }
        evicted
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn contains(&self, o: ObjectId) -> bool {
        self.objects.contains(&o)
    }

    /// Store a fetched object. Returns `false` if it was already present.
    pub fn insert(&mut self, o: ObjectId) -> bool {
        if self.objects.insert(o) {
            self.unpushed.push(o);
            true
        } else {
            false
        }
    }

    /// Drop an object (for eviction policies; unused by the paper's runs).
    pub fn remove(&mut self, o: ObjectId) -> bool {
        self.unpushed.retain(|&x| x != o);
        self.objects.remove(&o)
    }

    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter().copied()
    }

    /// §5.1: push when `new changes / size at last push` reaches the
    /// threshold. A store that has never pushed anything pushes at the
    /// first change.
    pub fn should_push(&self, threshold: f64) -> bool {
        if self.unpushed.is_empty() {
            return false;
        }
        if self.size_at_last_push == 0 {
            return true;
        }
        self.unpushed.len() as f64 / self.size_at_last_push as f64 >= threshold
    }

    /// Take the delta for a push message and reset change tracking.
    pub fn take_push_delta(&mut self) -> Vec<ObjectId> {
        self.size_at_last_push = self.objects.len();
        std::mem::take(&mut self.unpushed)
    }

    /// Forget push bookkeeping so the *entire* store is re-announced on the
    /// next push — used when a content peer registers with a replacement
    /// directory that must rebuild its index (§5.2.2).
    pub fn mark_all_unpushed(&mut self) {
        self.unpushed = self.objects.iter().copied().collect();
        self.size_at_last_push = 0;
    }

    /// Bloom summary of the full store (gossip payload).
    pub fn summary(&self) -> BloomFilter {
        let mut b = BloomFilter::with_rate(
            SUMMARY_EXPECTED_ITEMS.max(self.objects.len()),
            SUMMARY_FP_RATE,
        );
        for o in &self.objects {
            b.insert(o.as_u64());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::WebsiteId;

    fn o(rank: u16) -> ObjectId {
        ObjectId {
            website: WebsiteId(1),
            rank,
        }
    }

    #[test]
    fn insert_and_contains() {
        let mut s = ContentStore::new();
        assert!(s.insert(o(1)));
        assert!(!s.insert(o(1)), "duplicate insert is a no-op");
        assert!(s.contains(o(1)));
        assert!(!s.contains(o(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn first_object_triggers_push() {
        let mut s = ContentStore::new();
        assert!(!s.should_push(0.5), "empty store has nothing to push");
        s.insert(o(1));
        assert!(s.should_push(0.5));
    }

    #[test]
    fn push_threshold_of_one_half() {
        let mut s = ContentStore::new();
        for r in 0..4 {
            s.insert(o(r));
        }
        let delta = s.take_push_delta();
        assert_eq!(delta.len(), 4);
        assert!(!s.should_push(0.5));
        // 1 new / 4 pushed = 25% < 50%.
        s.insert(o(10));
        assert!(!s.should_push(0.5));
        // 2 new / 4 pushed = 50% ≥ 50%.
        s.insert(o(11));
        assert!(s.should_push(0.5));
        let delta = s.take_push_delta();
        assert_eq!(delta, vec![o(10), o(11)]);
        assert!(!s.should_push(0.5));
    }

    #[test]
    fn mark_all_unpushed_reannounces_everything() {
        let mut s = ContentStore::new();
        for r in 0..5 {
            s.insert(o(r));
        }
        let _ = s.take_push_delta();
        assert!(!s.should_push(0.5));
        s.mark_all_unpushed();
        assert!(s.should_push(0.5));
        assert_eq!(s.take_push_delta().len(), 5);
    }

    #[test]
    fn summary_covers_store_without_false_negatives() {
        let mut s = ContentStore::new();
        for r in 0..300 {
            s.insert(o(r));
        }
        let b = s.summary();
        for r in 0..300 {
            assert!(b.contains(o(r).as_u64()));
        }
        // Summary fp rate stays reasonable even above the sizing target.
        assert!(b.estimated_fpp() < 0.1, "fpp {}", b.estimated_fpp());
    }

    #[test]
    fn remove_updates_tracking() {
        let mut s = ContentStore::new();
        s.insert(o(1));
        s.insert(o(2));
        assert!(s.remove(o(1)));
        assert!(!s.remove(o(1)));
        let delta = s.take_push_delta();
        assert_eq!(delta, vec![o(2)], "removed object is not announced");
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;
    use workload::WebsiteId;

    fn o(rank: u16) -> ObjectId {
        ObjectId {
            website: WebsiteId(2),
            rank,
        }
    }

    #[test]
    fn unlimited_policy_never_evicts() {
        let mut s = ContentStore::new();
        for r in 0..1_000 {
            assert!(s.insert_with_eviction(o(r)).is_empty());
        }
        assert_eq!(s.len(), 1_000);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ContentStore::with_policy(StorePolicy::Lru { capacity: 3 });
        assert!(s.insert_with_eviction(o(1)).is_empty());
        assert!(s.insert_with_eviction(o(2)).is_empty());
        assert!(s.insert_with_eviction(o(3)).is_empty());
        // Refresh 1: the LRU victim becomes 2.
        s.serve(o(1));
        let evicted = s.insert_with_eviction(o(4));
        assert_eq!(evicted, vec![o(2)]);
        assert!(s.contains(o(1)) && s.contains(o(3)) && s.contains(o(4)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn serving_fetches_protects_hot_objects() {
        let mut s = ContentStore::with_policy(StorePolicy::Lru { capacity: 2 });
        s.insert_with_eviction(o(1));
        s.insert_with_eviction(o(2));
        for _ in 0..5 {
            s.serve(o(1)); // o(1) is popular with petal-mates
        }
        let evicted = s.insert_with_eviction(o(3));
        assert_eq!(evicted, vec![o(2)], "the served object survives");
    }

    #[test]
    fn evicted_objects_leave_push_tracking() {
        let mut s = ContentStore::with_policy(StorePolicy::Lru { capacity: 1 });
        s.insert_with_eviction(o(1));
        let evicted = s.insert_with_eviction(o(2));
        assert_eq!(evicted, vec![o(1)]);
        // The pending-push delta must not announce the evicted object.
        assert_eq!(s.take_push_delta(), vec![o(2)]);
    }

    #[test]
    fn duplicate_insert_does_not_evict() {
        let mut s = ContentStore::with_policy(StorePolicy::Lru { capacity: 2 });
        s.insert_with_eviction(o(1));
        s.insert_with_eviction(o(2));
        assert!(s.insert_with_eviction(o(1)).is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ContentStore::with_policy(StorePolicy::Lru { capacity: 0 });
    }
}

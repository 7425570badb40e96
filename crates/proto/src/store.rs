//! A peer's local content store with push-threshold change tracking.
//!
//! "A peer only stores content it has requested" (§6.1) and "sends updates
//! about its stored content to its d(ws,loc) using push messages whenever
//! the percentage of its changes reaches a threshold" (§5.1, Table 1:
//! threshold 0.5). The paper assumes enough storage to never evict during a
//! run; [`ContentStore`] still supports removal so eviction policies can be
//! layered on.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use bloom::BloomFilter;
use workload::{ObjectId, WebsiteId};

use crate::msg::Summary;

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
/// lived peers collect a few hundred. 256 at 2% gives 2 085-bit summaries
/// (264 bytes as words); a store of ten objects sets some 60 bits, kept
/// as 120 bytes of positions behind a 16-byte mask
/// (`bloom::BloomFilter`'s sparse form).
const SUMMARY_EXPECTED_ITEMS: usize = 256;
const SUMMARY_FP_RATE: f64 = 0.02;

/// The shape `(m, k)` of a summary of `objects` entries — the one place
/// the sizing is said. Up to [`SUMMARY_EXPECTED_ITEMS`] every summary has
/// the same `m` and `k`, worked out once; above it `m` grows with every
/// object.
fn summary_shape(objects: usize) -> (usize, u32) {
    static STANDARD: OnceLock<(usize, u32)> = OnceLock::new();
    let shape = |objects| bloom::optimal_shape(objects, SUMMARY_FP_RATE);
    if objects <= SUMMARY_EXPECTED_ITEMS {
        *STANDARD.get_or_init(|| shape(SUMMARY_EXPECTED_ITEMS))
    } else {
        shape(objects)
    }
}

/// An empty content summary sized for `objects` entries.
pub(crate) fn empty_summary(objects: usize) -> BloomFilter {
    let (m, k) = summary_shape(objects);
    BloomFilter::with_params(m, k)
}

thread_local! {
    /// `empty_summary(0)`, once: most peers of a churning run never store
    /// an object, and their summaries sit in every view and Redirect that
    /// names them. Per thread rather than process-wide, so `sweep --jobs N`
    /// workers, each simulating on its own thread, do not pass one
    /// reference count from core to core.
    static EMPTY_SUMMARY: Summary = Arc::new(empty_summary(0));
}

/// The summary of `objects` in a filter sized for `sized_for` entries,
/// built in one pass (`BloomFilter::from_keys`).
/// Every empty set gets a clone of the thread's one empty summary, which
/// equals a freshly built one in `m`, `k`, item count and bits, so no
/// byte on any wire depends on the sharing.
pub(crate) fn summarize(objects: &ObjectSet, sized_for: usize) -> Summary {
    if objects.is_empty() {
        return EMPTY_SUMMARY.with(Arc::clone);
    }
    let (m, k) = summary_shape(sized_for);
    Arc::new(BloomFilter::from_keys(
        m,
        k,
        objects.iter().map(ObjectId::as_u64),
    ))
}

/// A set of objects, one rank bitset per website with the websites
/// ascending, so [`ObjectSet::iter`] yields `(website, rank)` ascending —
/// `ObjectId`'s `Ord`, the order an ordered set iterates in. Re-announced
/// stores, hand-over snapshots and a directory's holder lists are built by
/// iterating, so that order reaches messages (DESIGN.md §11). A peer's
/// store holds one website and ranks below `objects_per_site`, i.e. one
/// bitset of a few words, so membership is a word test; several websites
/// and ranks up to `u16::MAX` go through the same code.
///
/// A set's first website takes room for one site, not `Vec`'s minimum of
/// four, and a bitset grows to the word its highest rank needs, not to the
/// next power of two: most sets are a peer's store or a directory's entry
/// for one, a few ranks of one website.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectSet {
    /// `(website, rank bits)` ascending by website: rank `r` is bit
    /// `r % 64` of word `r / 64`. Words are added on demand.
    sites: Vec<(WebsiteId, Vec<u64>)>,
    len: usize,
}

/// Word index and mask of `rank` in a site's bitset.
fn word_and_bit(rank: u16) -> (usize, u64) {
    (usize::from(rank / 64), 1 << (rank % 64))
}

impl ObjectSet {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn site_index(&self, website: WebsiteId) -> Result<usize, usize> {
        self.sites.binary_search_by_key(&website, |site| site.0)
    }

    pub(crate) fn contains(&self, o: ObjectId) -> bool {
        let (word, bit) = word_and_bit(o.rank);
        self.site_index(o.website)
            .ok()
            .and_then(|i| self.sites[i].1.get(word))
            .is_some_and(|w| w & bit != 0)
    }

    /// Returns `false` if `o` was already present.
    pub(crate) fn insert(&mut self, o: ObjectId) -> bool {
        let i = self.site_index(o.website).unwrap_or_else(|i| {
            if self.sites.is_empty() {
                self.sites.reserve_exact(1);
            }
            self.sites.insert(i, (o.website, Vec::new()));
            i
        });
        let words = &mut self.sites[i].1;
        let (word, bit) = word_and_bit(o.rank);
        if words.len() <= word {
            words.reserve_exact(word + 1 - words.len());
            words.resize(word + 1, 0);
        }
        let fresh = words[word] & bit == 0;
        words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Returns `false` if `o` was not present.
    pub(crate) fn remove(&mut self, o: ObjectId) -> bool {
        let (word, bit) = word_and_bit(o.rank);
        let Some(w) = self
            .site_index(o.website)
            .ok()
            .and_then(|i| self.sites[i].1.get_mut(word))
        else {
            return false;
        };
        let held = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(held);
        held
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.sites.iter().flat_map(|(website, words)| {
            words.iter().enumerate().flat_map(move |(word, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        ObjectId {
                            website: *website,
                            rank: (word * 64 + bit) as u16,
                        }
                    })
                })
            })
        })
    }
}

/// The objects a peer holds, plus bookkeeping for the push protocol.
#[derive(Debug, Clone)]
pub struct ContentStore {
    objects: ObjectSet,
    /// Objects added since the last push to the directory.
    unpushed: Vec<ObjectId>,
    /// Store size at the moment of the last push.
    size_at_last_push: usize,
    /// `Some` exactly under [`StorePolicy::Lru`]; boxed, so the paper's
    /// unlimited stores pay a pointer for it.
    lru: Option<Box<Lru>>,
}

/// A bounded store's eviction state.
#[derive(Debug, Clone)]
struct Lru {
    capacity: usize,
    /// Stored object → last-use stamp (monotone counter). Written only by
    /// [`ContentStore::stamp`].
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
        let lru = match policy {
            StorePolicy::Unlimited => None,
            StorePolicy::Lru { capacity } => {
                assert!(capacity > 0, "LRU capacity must be positive");
                Some(Box::new(Lru {
                    capacity,
                    last_use: BTreeMap::new(),
                    use_clock: 0,
                }))
            }
        };
        ContentStore {
            objects: ObjectSet::default(),
            unpushed: Vec::new(),
            size_at_last_push: 0,
            lru,
        }
    }

    /// The one place LRU stamps change: `used` gives `o` the newest stamp,
    /// otherwise its stamp is dropped with the object. `Unlimited` never
    /// reads a stamp, so it keeps none.
    fn stamp(&mut self, o: ObjectId, used: bool) {
        let Some(lru) = self.lru.as_mut() else {
            return;
        };
        if used {
            lru.use_clock += 1;
            lru.last_use.insert(o, lru.use_clock);
        } else {
            lru.last_use.remove(&o);
        }
    }

    /// Serve a fetch of `o`: whether we hold it. A served object counts as
    /// used, which refreshes its LRU position.
    pub fn serve(&mut self, o: ObjectId) -> bool {
        let held = self.objects.contains(o);
        if held {
            self.stamp(o, true);
        }
        held
    }

    /// Insert under the configured policy, returning any evicted objects
    /// (so the peer can retract them from its directory's index).
    pub fn insert_with_eviction(&mut self, o: ObjectId) -> Vec<ObjectId> {
        if !self.insert(o) {
            return Vec::new();
        }
        self.stamp(o, true);
        let mut evicted = Vec::new();
        while let Some(victim) = self.lru_victim() {
            self.remove(victim);
            evicted.push(victim);
        }
        evicted
    }

    /// The least recently used object, while a bounded store holds more
    /// than its capacity.
    fn lru_victim(&self) -> Option<ObjectId> {
        let lru = self.lru.as_ref()?;
        if self.objects.len() <= lru.capacity {
            return None;
        }
        let (&victim, _) = (lru.last_use.iter())
            .min_by_key(|(_, &stamp)| stamp)
            .expect("non-empty store over capacity");
        Some(victim)
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn contains(&self, o: ObjectId) -> bool {
        self.objects.contains(o)
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
        self.stamp(o, false);
        self.objects.remove(o)
    }

    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter()
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
        self.unpushed = self.objects.iter().collect();
        self.size_at_last_push = 0;
    }

    /// Bloom summary of the full store (gossip payload).
    pub fn summary(&self) -> Summary {
        summarize(&self.objects, self.objects.len())
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
    fn empty_stores_share_one_empty_summary() {
        let shared = ContentStore::new().summary();
        // `==` is derived: bits, `m`, `k` and item count, field for field.
        assert_eq!(*shared, empty_summary(0));
        let other = ContentStore::with_policy(StorePolicy::Lru { capacity: 3 }).summary();
        assert!(Arc::ptr_eq(&shared, &other), "one allocation per thread");

        // A store that holds something has a summary of its own, and goes
        // back to the shared one when it is empty again.
        let mut s = ContentStore::new();
        s.insert(o(1));
        assert!(!Arc::ptr_eq(&shared, &s.summary()));
        s.remove(o(1));
        assert!(Arc::ptr_eq(&shared, &s.summary()));

        // Another thread (a `sweep --jobs N` worker) has its own, equal one.
        let theirs = std::thread::spawn(|| ContentStore::new().summary())
            .join()
            .expect("worker ran");
        assert!(!Arc::ptr_eq(&shared, &theirs));
        assert_eq!(shared, theirs);
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

#[cfg(test)]
mod differential {
    //! Differential tests against the representation this file had before
    //! `ObjectSet` (11a0052): `BTreeSet<ObjectId>` for the set, and the
    //! store kept verbatim below for LRU order, push deltas and summaries.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// `ContentStore` as of 11a0052, verbatim apart from the name.
    #[derive(Debug, Clone)]
    struct OldStore {
        objects: BTreeSet<ObjectId>,
        unpushed: Vec<ObjectId>,
        size_at_last_push: usize,
        policy: StorePolicy,
        last_use: BTreeMap<ObjectId, u64>,
        use_clock: u64,
    }

    impl OldStore {
        fn with_policy(policy: StorePolicy) -> OldStore {
            OldStore {
                objects: BTreeSet::new(),
                unpushed: Vec::new(),
                size_at_last_push: 0,
                policy,
                last_use: BTreeMap::new(),
                use_clock: 0,
            }
        }

        fn serve(&mut self, o: ObjectId) -> bool {
            let held = self.objects.contains(&o);
            if held {
                self.use_clock += 1;
                self.last_use.insert(o, self.use_clock);
            }
            held
        }

        fn insert_with_eviction(&mut self, o: ObjectId) -> Vec<ObjectId> {
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

        fn insert(&mut self, o: ObjectId) -> bool {
            if self.objects.insert(o) {
                self.unpushed.push(o);
                true
            } else {
                false
            }
        }

        fn remove(&mut self, o: ObjectId) -> bool {
            self.unpushed.retain(|&x| x != o);
            self.objects.remove(&o)
        }

        fn should_push(&self, threshold: f64) -> bool {
            if self.unpushed.is_empty() {
                return false;
            }
            if self.size_at_last_push == 0 {
                return true;
            }
            self.unpushed.len() as f64 / self.size_at_last_push as f64 >= threshold
        }

        fn take_push_delta(&mut self) -> Vec<ObjectId> {
            self.size_at_last_push = self.objects.len();
            std::mem::take(&mut self.unpushed)
        }

        fn mark_all_unpushed(&mut self) {
            self.unpushed = self.objects.iter().copied().collect();
            self.size_at_last_push = 0;
        }

        fn summary(&self) -> BloomFilter {
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

    /// Websites far apart and ranks at every word edge, plus the bulk of
    /// real traffic (one website, ranks below `objects_per_site`).
    fn any_object(rng: &mut StdRng) -> ObjectId {
        const SITES: [u16; 5] = [0, 1, 7, 300, u16::MAX];
        const EDGES: [u16; 10] = [0, 1, 63, 64, 65, 127, 128, 4_095, 4_096, u16::MAX];
        let website = WebsiteId(SITES[rng.gen_range(0..SITES.len())]);
        let rank = match rng.gen_range(0..4) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(0..=u16::MAX),
            _ => rng.gen_range(0..300),
        };
        ObjectId { website, rank }
    }

    #[test]
    fn object_set_matches_btreeset() {
        let mut rng = StdRng::seed_from_u64(0x0b5e7);
        let mut set = ObjectSet::default();
        let mut old: BTreeSet<ObjectId> = BTreeSet::new();
        for step in 0..20_000 {
            let o = any_object(&mut rng);
            match rng.gen_range(0..10) {
                0..=3 => assert_eq!(set.insert(o), old.insert(o), "insert {o:?} @ {step}"),
                4..=5 => assert_eq!(set.remove(o), old.remove(&o), "remove {o:?} @ {step}"),
                6..=8 => {
                    assert_eq!(set.contains(o), old.contains(&o), "contains {o:?} @ {step}");
                    // A neighbour across the word edge must not alias.
                    let next = ObjectId {
                        rank: o.rank.wrapping_add(1),
                        ..o
                    };
                    assert_eq!(set.contains(next), old.contains(&next), "{next:?} @ {step}");
                }
                _ => {
                    let got: Vec<ObjectId> = set.iter().collect();
                    let want: Vec<ObjectId> = old.iter().copied().collect();
                    assert_eq!(got, want, "iteration order @ {step}");
                }
            }
            assert_eq!(set.len(), old.len());
            assert_eq!(set.is_empty(), old.is_empty());
        }
        assert!(old.len() > 100, "the walk should leave a populated set");
    }

    /// Drive both stores through the same random protocol-shaped history
    /// and compare everything observable after every step.
    fn same_history(policy: StorePolicy, seed: u64, removes: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut new = ContentStore::with_policy(policy);
        let mut old = OldStore::with_policy(policy);
        let mut evictions = 0;
        for step in 0..4_000 {
            // One website as in a real store, two now and then.
            let o = ObjectId {
                website: WebsiteId(if rng.gen_range(0..20) == 0 { 9 } else { 4 }),
                rank: rng.gen_range(0..400),
            };
            match rng.gen_range(0..12) {
                0..=4 => {
                    let evicted = new.insert_with_eviction(o);
                    assert_eq!(evicted, old.insert_with_eviction(o), "evicted @ {step}");
                    evictions += evicted.len();
                }
                5..=7 => assert_eq!(new.serve(o), old.serve(o), "serve @ {step}"),
                8 => assert_eq!(
                    new.take_push_delta(),
                    old.take_push_delta(),
                    "delta @ {step}"
                ),
                9 if removes => assert_eq!(new.remove(o), old.remove(o), "remove @ {step}"),
                10 if step % 7 == 0 => {
                    new.mark_all_unpushed();
                    old.mark_all_unpushed();
                }
                _ => assert_eq!(new.contains(o), old.objects.contains(&o)),
            }
            assert_eq!(new.len(), old.objects.len());
            assert_eq!(
                new.should_push(0.5),
                old.should_push(0.5),
                "should_push @ {step}"
            );
            assert_eq!(new.unpushed, old.unpushed, "pending delta @ {step}");
            assert_eq!(
                *new.summary(),
                old.summary(),
                "summary (bits, m, k, inserted) @ {step}"
            );
        }
        assert!(new.iter().eq(old.objects.iter().copied()));
        if let StorePolicy::Lru { capacity } = policy {
            assert!(
                evictions > 500,
                "capacity {capacity}: {evictions} evictions"
            );
            let lru = new.lru.as_ref().expect("an LRU store keeps stamps");
            assert!(
                lru.last_use.keys().all(|&o| new.contains(o)),
                "a stamp outlived its object"
            );
        } else {
            assert!(new.lru.is_none(), "an unlimited store keeps no stamps");
        }
    }

    #[test]
    fn lru_store_matches_old_store() {
        for (seed, capacity) in [(1, 1), (2, 3), (3, 8), (4, 40)] {
            same_history(StorePolicy::Lru { capacity }, seed, false);
        }
    }

    /// `remove` used to leave the stamp behind; a later
    /// `insert_with_eviction` overwrote it, so histories that re-insert
    /// this way read the same before and after the stamp is cleared.
    #[test]
    fn lru_store_with_removes_matches_old_store() {
        same_history(StorePolicy::Lru { capacity: 5 }, 5, true);
    }

    /// Grows past 256 objects (where the summary's `m` moves with every
    /// insert) and, with removes, shrinks back across it.
    #[test]
    fn unlimited_store_matches_old_store() {
        same_history(StorePolicy::Unlimited, 6, false);
        same_history(StorePolicy::Unlimited, 7, true);
    }

    #[test]
    fn summary_follows_the_store_across_the_sizing_boundary() {
        let o = |rank| ObjectId {
            website: WebsiteId(3),
            rank,
        };
        let mut store = ContentStore::new();
        let mut old = OldStore::with_policy(StorePolicy::Unlimited);
        let base_bits = store.summary().bit_len();
        let check = |store: &ContentStore, old: &OldStore, what: &str| {
            let (got, want) = (store.summary(), old.summary());
            assert_eq!(got.inserted(), want.inserted(), "inserted() {what}");
            assert_eq!(*got, want, "summary {what}");
            got.bit_len()
        };
        // Up across the boundary …
        for rank in 0..300 {
            store.insert(o(rank));
            old.insert(o(rank));
            let bits = check(&store, &old, "growing");
            assert_eq!(bits > base_bits, rank >= SUMMARY_EXPECTED_ITEMS as u16);
        }
        // … a duplicate changes nothing …
        store.insert(o(7));
        old.insert(o(7));
        check(&store, &old, "after a duplicate insert");
        // … down across it …
        for rank in (200..300).rev() {
            store.remove(o(rank));
            old.remove(o(rank));
            let bits = check(&store, &old, "shrinking");
            assert_eq!(bits > base_bits, rank > SUMMARY_EXPECTED_ITEMS as u16);
        }
        // … and up again.
        for rank in 250..290 {
            store.insert(o(rank));
            old.insert(o(rank));
            check(&store, &old, "regrowing");
        }
    }
}

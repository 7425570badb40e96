//! Partial membership views.
//!
//! A [`View`] is the set of contacts a peer knows in its petal, exactly as in
//! Cyclon (Voulgaris et al. 2005): each entry carries the contact's address,
//! an **age** counting gossip periods since the entry was created at its
//! subject, and an application payload (Flower-CDN piggybacks the contact's
//! content summary).
//!
//! The view is not bounded: "we do not limit the view size of a content
//! peer and allow it to grow with the size of its petal" (§6.1), relying on
//! failure-detection removals and age expiry to keep it tight.

use rand::seq::SliceRandom;
use rand::Rng;
use simnet::NodeId;

/// One contact in a view.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<P> {
    /// The contact's node id (its network address in the simulator).
    pub node: NodeId,
    /// Gossip periods since this descriptor was minted by `node` itself.
    /// Smaller is fresher.
    pub age: u32,
    /// Application payload (e.g. a content summary).
    pub payload: P,
}

impl<P> Entry<P> {
    pub fn new(node: NodeId, payload: P) -> Entry<P> {
        Entry {
            node,
            age: 0,
            payload,
        }
    }
}

/// A peer's partial view of its petal.
#[derive(Debug, Clone)]
pub struct View<P> {
    entries: Vec<Entry<P>>,
}

impl<P: Clone> View<P> {
    /// An empty view.
    pub fn unbounded() -> View<P> {
        View {
            entries: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    pub fn get(&self, node: NodeId) -> Option<&Entry<P>> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[Entry<P>] {
        &self.entries
    }

    /// All contact ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    /// Insert or refresh a contact. If the node is already present, the
    /// entry with the **smaller age wins** (both age and payload are taken
    /// from the fresher descriptor) — this is the freshness rule Flower-CDN
    /// also applies to dir-info records (§5.1). Returns `true` if the view
    /// changed.
    pub fn upsert(&mut self, entry: Entry<P>) -> bool {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.node == entry.node) {
            if entry.age < existing.age {
                *existing = entry;
                return true;
            }
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Remove a contact (e.g. one found unreachable). Returns the removed
    /// entry if present.
    pub fn remove(&mut self, node: NodeId) -> Option<Entry<P>> {
        self.entries
            .iter()
            .position(|e| e.node == node)
            .map(|pos| self.entries.remove(pos))
    }

    /// Age every entry by one gossip period.
    pub fn increment_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Drop every entry older than `max_age`, returning the evicted contact
    /// ids. Descriptors are only minted fresh (age 0) by their subject, so
    /// an entry that nobody refreshed for `max_age` periods belongs to a
    /// peer that is gone — or so stale it should be relearned anyway.
    pub fn evict_older_than(&mut self, max_age: u32) -> Vec<NodeId> {
        let mut evicted = Vec::new();
        self.entries.retain(|e| {
            if e.age > max_age {
                evicted.push(e.node);
                false
            } else {
                true
            }
        });
        evicted
    }

    /// The entry with the highest age (the shuffle target).
    pub fn oldest(&self) -> Option<&Entry<P>> {
        self.entries.iter().max_by_key(|e| e.age)
    }

    /// A uniformly random entry.
    pub fn random(&self, rng: &mut impl Rng) -> Option<&Entry<P>> {
        self.entries.as_slice().choose(rng)
    }

    /// Up to `n` distinct random entries, excluding node `exclude`.
    pub fn sample(&self, rng: &mut impl Rng, n: usize, exclude: Option<NodeId>) -> Vec<Entry<P>> {
        let mut pool: Vec<&Entry<P>> = self
            .entries
            .iter()
            .filter(|e| Some(e.node) != exclude)
            .collect();
        pool.shuffle(rng);
        pool.into_iter().take(n).cloned().collect()
    }

    /// Reset the age of `node`'s entry to zero (fresh direct contact).
    pub fn touch(&mut self, node: NodeId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == node) {
            e.age = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn upsert_prefers_fresher() {
        let mut v: View<u32> = View::unbounded();
        assert!(v.upsert(Entry {
            node: n(1),
            age: 5,
            payload: 10
        }));
        // Older duplicate: rejected.
        assert!(!v.upsert(Entry {
            node: n(1),
            age: 7,
            payload: 99
        }));
        assert_eq!(v.get(n(1)).unwrap().payload, 10);
        // Fresher duplicate: accepted, payload follows.
        assert!(v.upsert(Entry {
            node: n(1),
            age: 2,
            payload: 42
        }));
        assert_eq!(v.get(n(1)).unwrap().age, 2);
        assert_eq!(v.get(n(1)).unwrap().payload, 42);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn aging_and_oldest() {
        let mut v: View<()> = View::unbounded();
        v.upsert(Entry::new(n(1), ()));
        v.increment_ages();
        v.upsert(Entry::new(n(2), ()));
        v.increment_ages();
        assert_eq!(v.get(n(1)).unwrap().age, 2);
        assert_eq!(v.get(n(2)).unwrap().age, 1);
        assert_eq!(v.oldest().unwrap().node, n(1));
        v.touch(n(1));
        assert_eq!(v.oldest().unwrap().node, n(2));
    }

    #[test]
    fn remove_and_sample() {
        let mut v: View<()> = View::unbounded();
        for i in 0..10 {
            v.upsert(Entry::new(n(i), ()));
        }
        assert!(v.remove(n(3)).is_some());
        assert!(v.remove(n(3)).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        let s = v.sample(&mut rng, 4, Some(n(0)));
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|e| e.node != n(0) && e.node != n(3)));
        let all = v.sample(&mut rng, 100, None);
        assert_eq!(all.len(), 9, "sample caps at view size");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_entry() -> impl Strategy<Value = Entry<u8>> {
        (0usize..32, 0u32..16, any::<u8>()).prop_map(|(n, age, payload)| Entry {
            node: NodeId::from_index(n),
            age,
            payload,
        })
    }

    proptest! {
        /// No duplicate nodes ever appear in a view, and the resident entry
        /// for a node is always at least as fresh as every rejected one.
        #[test]
        fn prop_upsert_keeps_freshest_unique(entries in proptest::collection::vec(arb_entry(), 0..64)) {
            let mut v: View<u8> = View::unbounded();
            let mut freshest: std::collections::BTreeMap<usize, u32> = Default::default();
            for e in entries {
                let idx = e.node.index();
                let age = e.age;
                v.upsert(e);
                freshest
                    .entry(idx)
                    .and_modify(|a| *a = (*a).min(age))
                    .or_insert(age);
            }
            let mut seen = std::collections::BTreeSet::new();
            for e in v.entries() {
                prop_assert!(seen.insert(e.node), "duplicate {:?}", e.node);
                prop_assert_eq!(e.age, freshest[&e.node.index()]);
            }
        }

        /// Aging then evicting leaves only entries within the age bound,
        /// and sampling never fabricates entries.
        #[test]
        fn prop_eviction_and_sampling(
            entries in proptest::collection::vec(arb_entry(), 0..40),
            rounds in 0u32..10,
            max_age in 1u32..8,
            seed: u64,
        ) {
            let mut v: View<u8> = View::unbounded();
            for e in entries {
                v.upsert(e);
            }
            for _ in 0..rounds {
                v.increment_ages();
            }
            v.evict_older_than(max_age);
            for e in v.entries() {
                prop_assert!(e.age <= max_age);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = v.sample(&mut rng, 5, None);
            prop_assert!(sample.len() <= v.len().min(5));
            for s in &sample {
                prop_assert!(v.contains(s.node));
            }
        }
    }
}

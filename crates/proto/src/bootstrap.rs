//! The bootstrap service.
//!
//! Every P2P deployment needs an out-of-band way for fresh peers to find a
//! first live contact; the paper assumes clients can "submit a query to
//! D-ring" without describing the entry point. We model the natural choice:
//! the supported websites run a tiny rendezvous service listing some live
//! overlay members (for Flower-CDN: directory peers; for Squirrel: any
//! peers). Members register themselves — an initial member when it
//! starts, a later one when its ring join completes. The simulation
//! engine only removes entries, on failure, modelling the rendezvous
//! service's own liveness checking (the TCP host, which is configured
//! with one remote seed directory, likewise removes a node whose dial is
//! refused). Peers still tolerate stale entries — picks are retried
//! through alternatives on timeout.
//!
//! The host owns the registry (in its [`Lent`](crate::io::Lent)) and a
//! machine reaches it only through the [`Fx`](crate::io::Fx) it is lent.
//! It deliberately sits outside the simulated network: rendezvous traffic
//! is not part of any metric the paper measures.

use chord::NodeRef;
use rand::Rng;
use simnet::NodeId;

/// Registry of live overlay entry points.
#[derive(Debug, Default)]
pub struct Bootstrap {
    /// In registration order: `pick` indexes it and replay harnesses
    /// snapshot it, so removal keeps the order of the rest.
    members: Vec<NodeRef>,
    /// Bit `node.index()` is set while `node` is in `members`.
    listed: Vec<u64>,
}

impl Bootstrap {
    pub fn new() -> Bootstrap {
        Bootstrap::default()
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Word index and mask of `node`'s bit in `listed`.
    fn bit(node: NodeId) -> (usize, u64) {
        (node.index() / 64, 1 << (node.index() % 64))
    }

    fn is_listed(&self, node: NodeId) -> bool {
        let (word, mask) = Self::bit(node);
        self.listed.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Register a member (idempotent).
    pub fn add(&mut self, r: NodeRef) {
        if self.is_listed(r.node) {
            return;
        }
        let (word, mask) = Self::bit(r.node);
        if self.listed.len() <= word {
            self.listed.resize(word + 1, 0);
        }
        self.listed[word] |= mask;
        self.members.push(r);
    }

    /// Deregister a member by address.
    pub fn remove(&mut self, node: NodeId) {
        if !self.is_listed(node) {
            return;
        }
        let (word, mask) = Self::bit(node);
        self.listed[word] &= !mask;
        let at = self.members.iter().position(|m| m.node == node);
        self.members
            .remove(at.expect("listed members are in the list"));
    }

    /// Current members in registration order (replay harnesses snapshot
    /// this to reconstruct the registry a recorded run saw).
    pub fn members(&self) -> &[NodeRef] {
        &self.members
    }

    /// A uniformly random member not in `exclude` (peers exclude entries
    /// they already found unresponsive).
    pub fn pick(&self, rng: &mut impl Rng, exclude: &[NodeId]) -> Option<NodeRef> {
        if exclude.is_empty() {
            let len = self.members.len();
            return (len > 0).then(|| self.members[rng.gen_range(0..len)]);
        }
        let mut candidates = self.members.iter().filter(|m| !exclude.contains(&m.node));
        let count = candidates.clone().count();
        if count == 0 {
            None
        } else {
            candidates.nth(rng.gen_range(0..count)).copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::ChordId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(i: usize) -> NodeRef {
        NodeRef::new(NodeId::from_index(i), ChordId(i as u64 * 1000))
    }

    #[test]
    fn add_is_idempotent_and_remove_works() {
        let mut b = Bootstrap::new();
        b.add(r(1));
        b.add(r(1));
        b.add(r(2));
        assert_eq!(b.len(), 2);
        b.remove(NodeId::from_index(1));
        assert_eq!(b.len(), 1);
        b.remove(NodeId::from_index(1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn pick_respects_exclusions() {
        let mut b = Bootstrap::new();
        b.add(r(1));
        b.add(r(2));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let p = b.pick(&mut rng, &[NodeId::from_index(1)]).unwrap();
            assert_eq!(p.node, NodeId::from_index(2));
        }
        assert!(b
            .pick(&mut rng, &[NodeId::from_index(1), NodeId::from_index(2)])
            .is_none());
        assert!(Bootstrap::new().pick(&mut rng, &[]).is_none());
    }

    /// The registry as it was before the membership bitset and the
    /// allocation-free `pick`: the reference the new one must reproduce,
    /// pick for pick and RNG draw for RNG draw.
    #[derive(Default)]
    struct Reference {
        members: Vec<NodeRef>,
    }

    impl Reference {
        fn add(&mut self, r: NodeRef) {
            if !self.members.iter().any(|m| m.node == r.node) {
                self.members.push(r);
            }
        }

        fn remove(&mut self, node: NodeId) {
            self.members.retain(|m| m.node != node);
        }

        fn pick(&self, rng: &mut impl Rng, exclude: &[NodeId]) -> Option<NodeRef> {
            let candidates: Vec<&NodeRef> = self
                .members
                .iter()
                .filter(|m| !exclude.contains(&m.node))
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(*candidates[rng.gen_range(0..candidates.len())])
            }
        }
    }

    #[test]
    fn random_scripts_match_the_reference_registry() {
        let mut script = StdRng::seed_from_u64(7);
        let (mut new, mut old) = (Bootstrap::new(), Reference::default());
        let (mut rng_new, mut rng_old) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        for _ in 0..20_000 {
            // Few enough nodes that re-adds, removals of strangers and
            // exclusion lists covering everybody all happen.
            let node = script.gen_range(0..200);
            match script.gen_range(0..4) {
                0 | 1 => {
                    // A re-add under another ring id must stay ignored.
                    let r = NodeRef::new(NodeId::from_index(node), ChordId(script.gen()));
                    new.add(r);
                    old.add(r);
                }
                2 => {
                    new.remove(NodeId::from_index(node));
                    old.remove(NodeId::from_index(node));
                }
                _ => {
                    let exclude: Vec<NodeId> = match script.gen_range(0..3) {
                        0 => Vec::new(),
                        1 => (0..script.gen_range(1..4))
                            .map(|_| NodeId::from_index(script.gen_range(0..200)))
                            .collect(),
                        _ => old.members.iter().map(|m| m.node).collect(),
                    };
                    assert_eq!(
                        new.pick(&mut rng_new, &exclude),
                        old.pick(&mut rng_old, &exclude)
                    );
                }
            }
            assert_eq!(new.members(), &old.members[..]);
        }
        assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "same draws");
    }

    #[test]
    fn picks_cover_all_members() {
        let mut b = Bootstrap::new();
        for i in 0..5 {
            b.add(r(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(b.pick(&mut rng, &[]).unwrap().node);
        }
        assert_eq!(seen.len(), 5);
    }
}

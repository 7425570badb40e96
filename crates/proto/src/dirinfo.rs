//! The `dir-info` record of §5.1.
//!
//! Every content peer remembers which directory instance it belongs to:
//! "cws,loc maintains dir-info which holds information about d(ws,loc): the
//! address and peer ID of d(ws,loc) as well as an age field. The age is
//! incremented periodically and reset to zero upon each contact. Whenever
//! two content peers gossip, they also exchange their dir-info. If the
//! exchanged dir-info share the same peer ID, they both keep the dir-info
//! with the smaller age." This is how knowledge of a replaced directory
//! spreads epidemically through a petal.

use chord::NodeRef;

use crate::dring::DirPosition;

/// A content peer's knowledge of its directory instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirInfo {
    /// The D-ring *position* (ws, loc, instance) — stable across holder
    /// replacement; this is the "peer ID" the paper compares.
    pub position: DirPosition,
    /// The node currently holding the position.
    pub holder: NodeRef,
    /// Gossip periods since we (or the peer we merged from) last heard from
    /// the holder.
    pub age: u32,
}

impl DirInfo {
    /// Fresh record after direct contact with `holder`.
    pub fn fresh(position: DirPosition, holder: NodeRef) -> DirInfo {
        DirInfo {
            position,
            holder,
            age: 0,
        }
    }

    /// Periodic aging (each keepalive/gossip period).
    pub fn bump(&mut self) {
        self.age = self.age.saturating_add(1);
    }

    /// §5.1 merge rule: records for the same position resolve by freshness.
    /// Records for *different* positions are unrelated (the peers belong to
    /// different directory instances) and `self` is kept.
    pub fn merge(&mut self, other: &DirInfo) {
        if self.position.chord_id() == other.position.chord_id() && other.age < self.age {
            self.holder = other.holder;
            self.age = other.age;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::ChordId;
    use simnet::{LocalityId, NodeId};
    use workload::WebsiteId;

    fn pos(inst: u32) -> DirPosition {
        DirPosition::new(WebsiteId(1), LocalityId(0), inst)
    }

    fn holder(i: usize) -> NodeRef {
        NodeRef::new(NodeId::from_index(i), ChordId(i as u64))
    }

    #[test]
    fn merge_prefers_smaller_age_same_position() {
        let mut a = DirInfo {
            position: pos(0),
            holder: holder(1),
            age: 5,
        };
        let b = DirInfo {
            position: pos(0),
            holder: holder(2),
            age: 2,
        };
        a.merge(&b);
        assert_eq!(a.holder, holder(2));
        assert_eq!(a.age, 2);
        // Merging an older record changes nothing.
        let c = DirInfo {
            position: pos(0),
            holder: holder(3),
            age: 9,
        };
        a.merge(&c);
        assert_eq!(a.holder, holder(2));
        assert_eq!(a.age, 2);
    }

    #[test]
    fn merge_ignores_other_instances() {
        let mut a = DirInfo {
            position: pos(0),
            holder: holder(1),
            age: 9,
        };
        let b = DirInfo {
            position: pos(1),
            holder: holder(2),
            age: 0,
        };
        a.merge(&b);
        assert_eq!(a.holder, holder(1), "different instances never merge");
        assert_eq!(a.age, 9);
    }

    #[test]
    fn bump_ages_a_fresh_record() {
        let mut a = DirInfo::fresh(pos(0), holder(1));
        assert_eq!(a.age, 0);
        a.bump();
        a.bump();
        assert_eq!(a.age, 2);
        assert_eq!(a.holder, holder(1));
    }
}

//! The finger table: 64 slots over the handful of distinct nodes they
//! name. A converged table holds some ten distinct fingers, the successor
//! repeated over every low slot, so each slot is one byte naming an entry
//! of a small list of `NodeRef`s, and the table costs 64 bytes inline plus
//! its distinct fingers on the heap instead of 64 × 24 bytes.

use std::fmt;

use crate::id::{ChordId, NodeRef};

const SLOTS: usize = ChordId::BITS as usize;

/// The byte of an empty slot: no entry has this index (there are at most
/// 64 entries), so looking it up finds nothing.
const EMPTY: u8 = u8::MAX;

pub(crate) struct Fingers {
    /// Per slot, the index in `nodes` of its finger, or `EMPTY`.
    slots: [u8; SLOTS],
    /// The distinct fingers, each named by at least one slot.
    nodes: Vec<NodeRef>,
}

impl Default for Fingers {
    fn default() -> Self {
        Fingers {
            slots: [EMPTY; SLOTS],
            nodes: Vec::new(),
        }
    }
}

impl Fingers {
    /// The finger in slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<NodeRef> {
        self.nodes.get(usize::from(self.slots[i])).copied()
    }

    /// Point every slot in the mask `slots` (bit `i` for slot `i`) at
    /// `to`; returns whether a slot changed. One call per run of slots
    /// given one finger, as `note_alive` gives them, finds or adds the
    /// entry once.
    #[inline]
    pub(crate) fn set(&mut self, slots: u64, to: Option<NodeRef>) -> bool {
        // Most writes re-point one slot at the finger it holds.
        if slots & slots.wrapping_sub(1) == 0
            && (slots == 0 || self.get(slots.trailing_zeros() as usize) == to)
        {
            return false;
        }
        self.write(slots, to)
    }

    fn write(&mut self, slots: u64, to: Option<NodeRef>) -> bool {
        let first = slots.trailing_zeros() as usize;
        let new = match to {
            None => EMPTY,
            // A run whose first slot already names `to`: no search.
            Some(_) if self.get(first) == to => self.slots[first],
            // From the back: the finger last added is the one most often
            // given more slots.
            Some(n) => match self.nodes.iter().rposition(|&e| e == n) {
                Some(k) => k as u8,
                None => {
                    self.nodes.push(n);
                    (self.nodes.len() - 1) as u8
                }
            },
        };
        let (mut changed, mut left) = (false, 0u128);
        let mut bits = slots;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let old = std::mem::replace(&mut self.slots[i], new);
            if old != new {
                changed = true;
                if old != EMPTY {
                    left |= 1 << old;
                }
            }
        }
        // Entries a slot left and no slot names go, highest first: the
        // entry `remove` moves down is then one that stays.
        while left != 0 {
            let k = 127 - left.leading_zeros() as u8;
            left &= !(1 << k);
            if !self.slots.contains(&k) {
                self.remove(k);
            }
        }
        changed
    }

    /// Every slot's finger, in slot order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<NodeRef>> + '_ {
        self.slots
            .iter()
            .map(|&k| self.nodes.get(usize::from(k)).copied())
    }

    /// The table as maximal runs of slots holding one finger (or none),
    /// in slot order: `(first slot, slot count, finger)`. A converged
    /// table is a dozen runs, so a pass over them reads each distinct
    /// finger once per run instead of once per slot.
    #[inline]
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u32, u32, Option<NodeRef>)> + '_ {
        let mut first = 0;
        std::iter::from_fn(move || {
            let k = *self.slots.get(first)?;
            let len = self.slots[first..].iter().take_while(|&&s| s == k).count();
            let run = (
                first as u32,
                len as u32,
                self.nodes.get(usize::from(k)).copied(),
            );
            first += len;
            Some(run)
        })
    }

    /// Drop entry `k`, which no slot names any more: the last entry takes
    /// its index, and the slots naming the last are renamed.
    fn remove(&mut self, k: u8) {
        let last = (self.nodes.len() - 1) as u8;
        self.nodes.swap_remove(usize::from(k));
        if k != last {
            self.slots
                .iter_mut()
                .filter(|s| **s == last)
                .for_each(|s| *s = k);
        }
    }

    /// Heap bytes held.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeRef>()
    }
}

/// Two tables are equal when every slot holds the same finger, whatever
/// order their entries were added in.
#[cfg(test)]
impl PartialEq for Fingers {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The 64 slots as a list, as the `Vec<Option<NodeRef>>` this replaced
/// printed: a `Chord`'s `Debug` text does not depend on the layout.
impl fmt::Debug for Fingers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simnet::NodeId;

    use super::*;

    /// The table as it was: one `Option<NodeRef>` per slot.
    type Model = Vec<Option<NodeRef>>;

    /// `Chord::purge`'s finger loop, on both: every slot naming `node`,
    /// under any ring id, emptied. Returns whether a slot changed.
    fn purge(t: &mut Fingers, model: &mut Model, node: NodeId) -> (bool, bool) {
        let mut theirs = false;
        let mut named = 0;
        for (i, f) in model.iter_mut().enumerate() {
            if t.get(i).is_some_and(|n| n.node == node) {
                named |= 1 << i;
            }
            if f.is_some_and(|n| n.node == node) {
                *f = None;
                theirs = true;
            }
        }
        (t.set(named, None), theirs)
    }

    /// The model's write: every slot in `slots` to `to`.
    fn model_set(model: &mut Model, slots: u64, to: Option<NodeRef>) -> bool {
        let mut changed = false;
        for (i, f) in model.iter_mut().enumerate() {
            if slots >> i & 1 == 1 {
                changed |= std::mem::replace(f, to) != to;
            }
        }
        changed
    }

    /// One slot, a run of slots or any slots at all.
    fn random_slots(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4) {
            0 => rng.gen(),
            1 => {
                let (a, b) = (rng.gen_range(0..SLOTS), rng.gen_range(0..SLOTS));
                let (lo, hi) = (a.min(b), a.max(b));
                (u64::MAX >> (63 - (hi - lo))) << lo
            }
            _ => 1 << rng.gen_range(0..SLOTS),
        }
    }

    /// The invariants behind `get`: every slot names an entry or none,
    /// every entry is named and distinct.
    fn assert_compact(t: &Fingers, after: &str) {
        for (i, &s) in t.slots.iter().enumerate() {
            assert!(
                s == EMPTY || usize::from(s) < t.nodes.len(),
                "slot {i} dangles after {after}"
            );
        }
        for (k, n) in t.nodes.iter().enumerate() {
            assert!(
                t.slots.contains(&(k as u8)),
                "entry {k} ({n:?}) unnamed after {after}"
            );
            assert!(
                !t.nodes[..k].contains(n),
                "entry {k} ({n:?}) repeated after {after}"
            );
        }
    }

    fn assert_same(t: &Fingers, model: &Model, after: &str) {
        for (i, want) in model.iter().enumerate() {
            assert_eq!(t.get(i), *want, "slot {i} after {after}");
        }
        assert!(
            t.iter().eq(model.iter().copied()),
            "iteration after {after}"
        );
        assert_eq!(
            format!("{t:?}"),
            format!("{model:?}"),
            "Debug after {after}"
        );
        assert_eq!(
            format!("{t:#?}"),
            format!("{model:#?}"),
            "{{:#?}} after {after}"
        );
        assert_compact(t, after);
    }

    /// Few nodes under few ring ids, so one node shows up under two ids
    /// and two nodes under one; or, half the time, 64 of each, so most
    /// slots can hold a finger of their own.
    fn pool(rng: &mut StdRng) -> Vec<NodeRef> {
        let (nodes, ids) = if rng.gen_bool(0.5) { (64, 64) } else { (6, 4) };
        (0..rng.gen_range(1..=2 * nodes))
            .map(|_| {
                let node = NodeId::from_index(rng.gen_range(0..nodes));
                NodeRef::new(node, ChordId(rng.gen_range(0..ids) << 58))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// `Fingers` against the 64-slot vector under random writes,
        /// empties and purges: the same finger in every slot, the same
        /// slot-order iteration, the same `Debug` text, the same "changed"
        /// answers.
        #[test]
        fn fingers_behave_like_the_slot_vector(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = pool(&mut rng);
            let mut t = Fingers::default();
            let mut model: Model = vec![None; SLOTS];
            assert_same(&t, &model, "construction");
            for _ in 0..rng.gen_range(0..400) {
                let r = pool[rng.gen_range(0..pool.len())];
                let slots = random_slots(&mut rng);
                let op = match rng.gen_range(0..10) {
                    0 => {
                        let (ours, theirs) = purge(&mut t, &mut model, r.node);
                        prop_assert_eq!(ours, theirs, "purge({:?})", r.node);
                        "purge"
                    }
                    1 | 2 => {
                        let changed = t.set(slots, None);
                        prop_assert_eq!(changed, model_set(&mut model, slots, None), "set({:#x}, None)", slots);
                        "set(None)"
                    }
                    _ => {
                        let changed = t.set(slots, Some(r));
                        prop_assert_eq!(changed, model_set(&mut model, slots, Some(r)), "set({:#x}, {:?})", slots, r);
                        "set(Some)"
                    }
                };
                assert_same(&t, &model, op);
                prop_assert!(t == Fingers::rebuilt(&model), "== after {}", op);
            }
        }
    }

    impl Fingers {
        /// The same slots, written from slot 0 up: its entries in another
        /// order than a table with a history.
        fn rebuilt(model: &Model) -> Fingers {
            let mut t = Fingers::default();
            for (i, &f) in model.iter().enumerate() {
                t.set(1 << i, f);
            }
            t
        }
    }

    #[test]
    fn every_slot_distinct_then_two_ids_of_one_node() {
        let mut t = Fingers::default();
        let mut model: Model = vec![None; SLOTS];
        for (i, f) in model.iter_mut().enumerate() {
            let n = NodeRef::new(NodeId::from_index(i), ChordId(i as u64));
            assert!(t.set(1 << i, Some(n)));
            *f = Some(n);
        }
        assert_same(&t, &model, "64 distinct fingers");
        assert_eq!(t.nodes.len(), SLOTS);
        // Overwriting a full table: the new finger is a 65th entry until
        // the old one goes.
        let fresh = NodeRef::new(NodeId::from_index(SLOTS), ChordId(7));
        assert!(t.set(1 << 40, Some(fresh)));
        model[40] = Some(fresh);
        assert_same(&t, &model, "a 65th finger");
        // One node under two ring ids is two fingers.
        let twin = NodeRef::new(NodeId::from_index(3), ChordId(99));
        for i in (0..SLOTS).rev() {
            let to = if i % 2 == 0 { model[3] } else { Some(twin) };
            t.set(1 << i, to);
            model[i] = to;
            assert_same(&t, &model, "overwriting from the top");
        }
        assert_eq!(t.nodes.len(), 2);
        // A run of slots over both, then none: nothing changes, nothing
        // is added.
        let (low, none) = (
            u64::MAX >> 32,
            NodeRef::new(NodeId::from_index(5), ChordId(5)),
        );
        assert!(t.set(low, Some(twin)));
        model_set(&mut model, low, Some(twin));
        assert_same(&t, &model, "a run of slots");
        assert!(!t.set(0, Some(none)));
        assert!(!t.set(low, Some(twin)));
        assert_same(&t, &model, "writes that change nothing");
        assert_eq!(
            purge(&mut t, &mut model, NodeId::from_index(3)),
            (true, true)
        );
        assert_same(&t, &vec![None; SLOTS], "purge");
        assert_eq!(t.nodes.len(), 0);
    }
}

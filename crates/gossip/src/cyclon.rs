//! The Cyclon shuffle state machine (sans-io).
//!
//! Flower-CDN maintains petals "via low-cost gossip techniques which are
//! inspired of P2P membership protocols [Cyclon] proven to be highly robust
//! in face of churn" (§3). This module implements the one shuffle the
//! petals run: views are unbounded and merge by descriptor freshness, both
//! sides of a completed shuffle reset their partner's age, and a contact
//! found unreachable at shuffle time is removed from the view, "which
//! naturally bounds the view size" (§6.1).
//!
//! The host owns timers and the network: it calls [`Cyclon::start_shuffle`]
//! every gossip period, delivers [`GossipMsg`]s to [`Cyclon::handle_request`]
//! / [`Cyclon::handle_reply`], and reports timeouts via
//! [`Cyclon::shuffle_timed_out`].

use rand::Rng;
use simnet::NodeId;

use crate::view::{Entry, View};

/// Wire messages of the shuffle protocol. `P` is the application payload
/// piggybacked on every view entry (Flower-CDN: the content summary).
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg<P> {
    /// Shuffle initiation carrying a subset of the initiator's view
    /// (always including a fresh descriptor of the initiator itself).
    ShuffleReq { entries: Vec<Entry<P>> },
    /// The passive side's answering subset.
    ShuffleReply { entries: Vec<Entry<P>> },
}

/// View-merge discipline: the freshness union over an unbounded view.
/// [`Cyclon::new`] takes the mode and ignores it, because the benchmark
/// binds that signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// Flower-CDN freshness-union over an unbounded view.
    Union,
}

#[derive(Debug, Clone)]
struct Pending {
    target: NodeId,
    generation: u64,
}

/// Per-peer gossip engine.
///
/// ```
/// use gossip::{Cyclon, Entry, GossipMsg, ShuffleMode};
/// use simnet::NodeId;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut a = Cyclon::new(NodeId::from_index(0), ShuffleMode::Union, 3, 0);
/// let mut b = Cyclon::new(NodeId::from_index(1), ShuffleMode::Union, 3, 0);
/// a.seed([Entry::new(NodeId::from_index(1), "summary-of-b")]);
///
/// // One full shuffle: a → b → a.
/// let (target, msg, _gen) = a.start_shuffle("summary-of-a", &mut rng).unwrap();
/// assert_eq!(target, NodeId::from_index(1));
/// let GossipMsg::ShuffleReq { entries } = msg else { unreachable!() };
/// let reply = b.handle_request(a.me(), entries, "summary-of-b", &mut rng);
/// let GossipMsg::ShuffleReply { entries } = reply else { unreachable!() };
/// a.handle_reply(target, entries);
///
/// // b learned a's fresh descriptor through the shuffle.
/// assert!(b.view().contains(NodeId::from_index(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Cyclon<P> {
    me: NodeId,
    shuffle_len: usize,
    view: View<P>,
    pending: Option<Pending>,
    generation: u64,
    /// Entries older than this many gossip periods are evicted and refused
    /// on merge, so descriptors of failed peers age out of the petal even
    /// though nothing announces the failure. `None` disables expiry.
    max_age: Option<u32>,
}

impl<P: Clone> Cyclon<P> {
    /// Create an engine that sends `shuffle_len` descriptors per shuffle.
    /// `mode` and `view_capacity` are ignored: the view is always unbounded.
    pub fn new(me: NodeId, _mode: ShuffleMode, shuffle_len: usize, _view_capacity: usize) -> Self {
        assert!(shuffle_len >= 1);
        Cyclon {
            me,
            shuffle_len,
            view: View::unbounded(),
            pending: None,
            generation: 0,
            max_age: None,
        }
    }

    /// Enable descriptor expiry at `max_age` gossip periods (see the
    /// `max_age` field). Flower-CDN petals use this so that failed content
    /// peers disappear from every view within a bounded number of periods.
    pub fn with_max_age(mut self, max_age: u32) -> Self {
        self.max_age = Some(max_age);
        self
    }

    /// This peer's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current view (read-only).
    pub fn view(&self) -> &View<P> {
        &self.view
    }

    /// Mutable view access for the host protocol (Flower-CDN updates
    /// payloads when content peers push fresh summaries).
    pub fn view_mut(&mut self) -> &mut View<P> {
        &mut self.view
    }

    /// Seed the view with initial contacts (e.g. the subset of its old view
    /// a new directory peer hands to first-arriving clients, §4).
    pub fn seed(&mut self, entries: impl IntoIterator<Item = Entry<P>>) {
        for e in entries {
            if e.node != self.me {
                self.view.upsert(e);
            }
        }
    }

    /// Begin a shuffle: age the view, pick the oldest contact as target and
    /// assemble the subset to send (a fresh self-descriptor plus up to
    /// `shuffle_len - 1` random others). Returns the target, the message and
    /// the **generation** the host must echo into
    /// [`Cyclon::shuffle_timed_out`] for timeout correlation; `None` if the
    /// view is empty.
    pub fn start_shuffle(
        &mut self,
        my_payload: P,
        rng: &mut impl Rng,
    ) -> Option<(NodeId, GossipMsg<P>, u64)> {
        self.view.increment_ages();
        if let Some(max) = self.max_age {
            self.view.evict_older_than(max);
        }
        let target = self.view.oldest()?.node;
        let mut entries = self.view.sample(rng, self.shuffle_len - 1, Some(target));
        entries.push(Entry::new(self.me, my_payload));
        self.generation += 1;
        self.pending = Some(Pending {
            target,
            generation: self.generation,
        });
        Some((target, GossipMsg::ShuffleReq { entries }, self.generation))
    }

    /// Handle an incoming shuffle request; returns the reply to send back.
    pub fn handle_request(
        &mut self,
        from: NodeId,
        entries: Vec<Entry<P>>,
        my_payload: P,
        rng: &mut impl Rng,
    ) -> GossipMsg<P> {
        // Build the answering subset from the pre-merge view.
        let mut reply = self.view.sample(rng, self.shuffle_len - 1, Some(from));
        reply.push(Entry::new(self.me, my_payload));
        self.incorporate(entries);
        self.view.touch(from);
        GossipMsg::ShuffleReply { entries: reply }
    }

    /// Handle the reply to our outstanding shuffle.
    pub fn handle_reply(&mut self, from: NodeId, entries: Vec<Entry<P>>) {
        // A late reply (after its timeout) is still useful membership info.
        self.incorporate(entries);
        if self.pending.as_ref().is_some_and(|p| p.target == from) {
            self.pending = None;
            self.view.touch(from);
        }
    }

    /// The host's shuffle timeout fired for generation `generation`. If that
    /// shuffle is still outstanding, the target is presumed failed and is
    /// removed from the view (§6.1); the removed contact is returned so the
    /// host can propagate the failure hint (e.g. Flower-CDN dir-info logic).
    pub fn shuffle_timed_out(&mut self, generation: u64) -> Option<NodeId> {
        match &self.pending {
            Some(p) if p.generation == generation => {
                let target = p.target;
                self.pending = None;
                self.view.remove(target);
                Some(target)
            }
            _ => None,
        }
    }

    /// Merge `entries` into the view: self-descriptors and expired ones are
    /// skipped, duplicates resolve by freshness.
    fn incorporate(&mut self, entries: Vec<Entry<P>>) {
        for e in entries {
            if e.node == self.me {
                continue;
            }
            if self.max_age.is_some_and(|max| e.age > max) {
                continue;
            }
            self.view.upsert(e);
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
    fn union_mode_grows_and_touches() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        let mut b = Cyclon::new(n(1), ShuffleMode::Union, 3, 0);
        a.seed([Entry::new(n(1), 0u32)]);
        b.seed([Entry::new(n(2), 0u32), Entry::new(n(3), 0u32)]);
        let (t, GossipMsg::ShuffleReq { entries }, _) = a.start_shuffle(0, &mut rng).unwrap()
        else {
            panic!()
        };
        assert!(a.view().contains(n(1)), "union keeps the target");
        let GossipMsg::ShuffleReply { entries: back } =
            b.handle_request(n(0), entries, 0, &mut rng)
        else {
            panic!()
        };
        a.handle_reply(t, back);
        // a now knows b plus some of b's contacts; view grew beyond 1.
        assert!(a.view().len() >= 2, "view len {}", a.view().len());
        assert_eq!(a.view().get(n(1)).unwrap().age, 0, "contact touched");
    }

    #[test]
    fn both_sides_touch_their_partner_without_its_descriptor() {
        // A real shuffle carries the partner's fresh self-descriptor, which
        // resets its age on merge anyway; empty subsets isolate the touch.
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        a.seed([Entry::new(n(1), 0u32), Entry::new(n(2), 0u32)]);
        let (t, _m, _g) = a.start_shuffle(0, &mut rng).unwrap();
        let other = if t == n(1) { n(2) } else { n(1) };
        // A reply from a peer we did not shuffle with touches nothing.
        a.handle_reply(other, Vec::new());
        assert_eq!(a.view().get(other).unwrap().age, 1);
        a.handle_reply(t, Vec::new());
        assert_eq!(a.view().get(t).unwrap().age, 0, "reply path touches");
        assert_eq!(
            a.shuffle_timed_out(1),
            None,
            "the reply settled the shuffle"
        );

        let mut b = Cyclon::new(n(1), ShuffleMode::Union, 3, 0);
        b.seed([Entry {
            node: n(0),
            age: 4,
            payload: 0u32,
        }]);
        b.handle_request(n(0), Vec::new(), 0, &mut rng);
        assert_eq!(b.view().get(n(0)).unwrap().age, 0, "request path touches");
    }

    #[test]
    fn timeout_removes_target_only_for_matching_generation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        a.seed([Entry::new(n(1), 0u32), Entry::new(n(2), 0u32)]);
        let (t1, _m, g1) = a.start_shuffle(0, &mut rng).unwrap();
        // A stale generation does nothing.
        assert_eq!(a.shuffle_timed_out(g1 + 99), None);
        assert!(a.view().contains(t1));
        // The matching generation removes the unresponsive target.
        assert_eq!(a.shuffle_timed_out(g1), Some(t1));
        assert!(!a.view().contains(t1));
        // Duplicate timeout is a no-op.
        assert_eq!(a.shuffle_timed_out(g1), None);
    }

    #[test]
    fn late_reply_after_timeout_still_merges() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        a.seed([Entry::new(n(1), 0u32)]);
        let (t, _m, g) = a.start_shuffle(0, &mut rng).unwrap();
        assert_eq!(a.shuffle_timed_out(g), Some(t));
        a.handle_reply(t, vec![Entry::new(n(5), 0u32)]);
        assert!(a.view().contains(n(5)), "late knowledge is not wasted");
    }

    #[test]
    fn empty_view_cannot_shuffle() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut a: Cyclon<u32> = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        assert!(a.start_shuffle(0, &mut rng).is_none());
    }

    #[test]
    fn seed_skips_self() {
        let mut a: Cyclon<u32> = Cyclon::new(n(0), ShuffleMode::Union, 3, 0);
        a.seed([Entry::new(n(0), 1u32), Entry::new(n(2), 2u32)]);
        assert!(!a.view().contains(n(0)));
        assert!(a.view().contains(n(2)));
    }
}

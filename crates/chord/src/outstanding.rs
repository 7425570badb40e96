//! One table of outstanding requests: a request that expects an answer is
//! opened here, and its reply and its deadlines are matched against it at
//! one site. Each request takes a rid from the table's one counter; the rid
//! travels in the request and its reply, and each deadline timer carries it
//! with the attempt it was armed for. Rids are never reused, so a reply or
//! deadline for a closed request finds nothing.

use crate::id::NodeRef;

/// The attempt of a request's first deadline. A request armed only once
/// (a stabilize round, a ping, a dir-ack, a claim) has its deadline timer
/// carry the rid alone and is expired at this attempt.
pub const FIRST_ATTEMPT: u32 = 1;

/// The room a drained table keeps: what its second request grows it to.
/// A Chord node's table fills to a few requests and drains every
/// maintenance round, and freeing that room each time costs more wall
/// clock than it saves; the eight or sixteen of a finger sweep are given
/// back.
const KEPT: usize = 4;

/// One request in flight.
#[derive(Debug)]
pub struct Request<P> {
    pub rid: u64,
    /// The node it waits on.
    pub to: NodeRef,
    /// Its deadline generation, bumped by `arm` and by `answer`: only a
    /// deadline carrying the current value expires the request.
    pub attempt: u32,
    pub purpose: P,
}

/// The requests in flight, in rid order: a new one goes at the end, and a
/// machine holds a handful at a time. A burst (a finger sweep opens up to
/// 16 lookups at once) grows the list, and draining gives its room back:
/// between bursts a table holds room for at most four requests.
#[derive(Debug)]
pub struct Outstanding<P> {
    reqs: Vec<Request<P>>,
    next_rid: u64,
}

impl<P> Default for Outstanding<P> {
    fn default() -> Self {
        Outstanding {
            reqs: Vec::new(),
            next_rid: 0,
        }
    }
}

impl<P> Outstanding<P> {
    /// Register a request to `to`, no deadline armed; returns its rid.
    pub fn open(&mut self, to: NodeRef, purpose: P) -> u64 {
        if self.reqs.capacity() == 0 {
            // A content peer's table mostly holds one request: room for
            // one, not the four a first push would reserve.
            self.reqs.reserve_exact(1);
        }
        let rid = self.burn();
        self.reqs.push(Request {
            rid,
            to,
            attempt: 0,
            purpose,
        });
        rid
    }

    /// Open a request that supersedes the one of its kind (its enum
    /// variant) in flight: that one is closed, so its reply and its
    /// deadline find nothing from here on.
    pub fn supersede(&mut self, to: NodeRef, purpose: P) -> u64 {
        let kind = std::mem::discriminant(&purpose);
        self.reqs
            .retain(|r| std::mem::discriminant(&r.purpose) != kind);
        self.open(to, purpose)
    }

    /// A rid no request will hold: for a message that awaits no answer, or
    /// a request settled without being sent.
    pub fn burn(&mut self) -> u64 {
        self.next_rid += 1;
        self.next_rid - 1
    }

    /// Every request opened from now on has a rid at or above this one.
    pub fn next_rid(&self) -> u64 {
        self.next_rid
    }

    /// Start a new deadline generation; returns the attempt the deadline
    /// timer must carry.
    pub fn arm(&mut self, rid: u64) -> Option<u32> {
        let req = self.get_mut(rid)?;
        req.attempt += 1;
        Some(req.attempt)
    }

    /// A reply for `rid` arrived: the request, if it is open and `is` says
    /// it is of the kind the reply answers. Its armed deadline is stale
    /// from here on; the request stays open until closed.
    pub fn answer(&mut self, rid: u64, is: impl FnOnce(&P) -> bool) -> Option<&mut Request<P>> {
        let req = self.get_mut(rid).filter(|r| is(&r.purpose))?;
        req.attempt += 1;
        Some(req)
    }

    /// A reply settles `rid`: like `answer`, but the request is closed, so a
    /// duplicate of the reply finds nothing.
    pub fn settle(&mut self, rid: u64, is: impl FnOnce(&P) -> bool) -> Option<Request<P>> {
        self.answer(rid, is)?;
        self.close(rid)
    }

    /// The deadline `attempt` of `rid` fired: the request, if it is open
    /// and no reply or later deadline made this one stale.
    pub fn expire(&mut self, rid: u64, attempt: u32) -> Option<&mut Request<P>> {
        self.get_mut(rid).filter(|r| r.attempt == attempt)
    }

    pub fn close(&mut self, rid: u64) -> Option<Request<P>> {
        let req = self.position(rid).map(|at| self.reqs.remove(at));
        self.release();
        req
    }

    pub fn retain(&mut self, keep: impl FnMut(&Request<P>) -> bool) {
        self.reqs.retain(keep);
        self.release();
    }

    pub fn get(&self, rid: u64) -> Option<&Request<P>> {
        self.position(rid).map(|at| &self.reqs[at])
    }

    pub fn get_mut(&mut self, rid: u64) -> Option<&mut Request<P>> {
        self.position(rid).map(|at| &mut self.reqs[at])
    }

    /// Every open request, in rid order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request<P>> {
        self.reqs.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Request<P>> {
        self.reqs.iter_mut()
    }

    /// Room for this many requests before the table grows.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.reqs.capacity()
    }

    fn position(&self, rid: u64) -> Option<usize> {
        self.reqs.binary_search_by_key(&rid, |r| r.rid).ok()
    }

    /// A drained table gives back the room a burst grew past `KEPT`
    /// requests, but keeps its rid counter.
    fn release(&mut self) {
        if self.reqs.is_empty() && self.reqs.capacity() > KEPT {
            self.reqs = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::NodeId;

    use super::*;

    #[derive(Debug)]
    enum Kind {
        Burst,
        Round,
    }

    fn to() -> NodeRef {
        NodeRef::new(NodeId::from_index(1), crate::id::ChordId(1))
    }

    /// A burst drained holds no heap, by `close` or by `retain`, and rids
    /// stay monotone across the release; a table that never grew past
    /// `KEPT` requests keeps its room.
    #[test]
    fn a_drained_table_holds_no_heap_and_keeps_its_rids() {
        let mut t = Outstanding::default();
        let mut last = None;
        for round in 0..3 {
            let rids: Vec<u64> = (0..16).map(|_| t.open(to(), Kind::Burst)).collect();
            assert!(t.capacity() >= 16);
            assert!(rids.windows(2).all(|w| w[0] < w[1]));
            assert!(last < rids.first().copied(), "round {round} reuses a rid");
            last = rids.last().copied();
            if round % 2 == 0 {
                for rid in rids {
                    t.close(rid);
                }
            } else {
                t.retain(|_| false);
            }
            assert_eq!(t.iter().count(), 0);
            assert_eq!(t.capacity(), 0, "slots kept");
            assert_eq!(Some(t.next_rid()), last.map(|r| r + 1));
        }
        // A table with room for one keeps it.
        let rid = t.open(to(), Kind::Round);
        assert_eq!(t.capacity(), 1);
        t.close(rid);
        assert_eq!(t.capacity(), 1);
        // A superseded request's room is reused, not given back.
        t.open(to(), Kind::Round);
        t.supersede(to(), Kind::Round);
        assert_eq!(t.iter().map(|r| r.rid).collect::<Vec<_>>(), [rid + 2]);
        assert_eq!(t.capacity(), 1);
        // So is the room of a table that held `KEPT` requests at most.
        let rids: Vec<u64> = (1..KEPT).map(|_| t.open(to(), Kind::Burst)).collect();
        assert_eq!(t.capacity(), KEPT);
        t.retain(|r| rids.contains(&r.rid));
        for rid in rids {
            t.close(rid);
        }
        assert_eq!((t.iter().count(), t.capacity()), (0, KEPT));
    }
}

//! Two-level bucketed timer wheel (calendar queue) with an overflow heap.
//!
//! The event queue that [`World`](crate::World) runs on. Events live in a
//! struct-of-arrays **slab**; the wheel's buckets and the per-owner cancel
//! lists are intrusive doubly-linked lists threaded through the slab with
//! `u32` indices, so scheduling, popping and cancelling never move a
//! payload and — once the slab and the retained bucket/heap capacity have
//! warmed up — never allocate.
//!
//! Layout:
//!
//! * **Level 0**: 4096 slots × 1 ms — the current ~4.1 s *block* of virtual
//!   time, indexed by `at % 4096`. Schedule, pop and cancel are O(1).
//! * **Level 1**: 4096 slots × 4096 ms — the next ~4.66 h of blocks,
//!   indexed by `(at / 4096) % 4096`. When the event loop crosses into a
//!   new block, that block's level-1 slot is *cascaded* into level 0 in
//!   list order.
//! * **Overflow**: a `BinaryHeap` of `(at, seq, idx, gen)` keys for events
//!   beyond the level-1 horizon. Keys migrate into level 1 as the horizon
//!   advances. Far-future events are rare (multi-hour session ends), so
//!   the heap stays small and its log-cost is paid on tiny 24-byte keys,
//!   not on fat payloads.
//!
//! # Ordering contract
//!
//! The wheel delivers events in exactly the `(at, seq)` order a reference
//! `BinaryHeap<Reverse<(at, seq)>>` would (the property test in
//! `tests/timer_wheel.rs` asserts this against random schedules, seqs
//! from an earlier reserved block among them). `seq` breaks `at` ties; each
//! must be unique, but need not grow with every schedule call:
//!
//! * every entry keeps its `seq`, and every bucket is kept in ascending
//!   `seq` order. An insert appends when its `seq` is the bucket's largest
//!   — every schedule under a fresh, growing counter — and otherwise walks
//!   from the head to its place (an entry scheduled under a seq reserved
//!   earlier, [`World::reserve_seqs`](crate::World::reserve_seqs));
//! * a cascade or migration inserts the same way, so a bucket is in `seq`
//!   order whichever way its entries arrived;
//! * the overflow heap is popped in `(at, seq)` order.
//!
//! # Cancellation
//!
//! [`Wheel::schedule`] takes an optional `owner` (a dense node index);
//! owned entries are threaded onto that owner's intrusive cancel list.
//! [`Wheel::cancel_owned`] unlinks every owned entry from its bucket and
//! reclaims the slab slot immediately — no tombstones sit in the buckets.
//! Only overflow-resident entries leave a stale heap key behind (a heap
//! cannot remove an interior element in O(1)); the key is generation-
//! checked and discarded on pop, and counted in [`Wheel::dead_keys`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slots per level; level 0 covers `SLOTS` ms, level 1 `SLOTS²` ms.
pub const SLOTS: usize = 4096;
/// Width of one level-1 slot (= span of all of level 0), in ms.
const L1_TICK: u64 = SLOTS as u64;
/// Null link / "no owner" sentinel.
const NIL: u32 = u32::MAX;

/// Occupancy bitmap over `SLOTS` slots with a one-word summary level, so
/// "next occupied slot ≥ i" is two trailing-zeros scans.
struct Bitmap {
    words: [u64; SLOTS / 64],
    summary: u64,
}

impl Bitmap {
    fn new() -> Bitmap {
        Bitmap {
            words: [0; SLOTS / 64],
            summary: 0,
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
        self.summary |= 1u64 << (i >> 6);
    }

    fn clear(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] &= !(1u64 << (i & 63));
        if self.words[w] == 0 {
            self.summary &= !(1u64 << w);
        }
    }

    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// First occupied slot in `[from, SLOTS)`, if any.
    fn next_from(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let w = from >> 6;
        let bits = self.words[w] & (!0u64 << (from & 63));
        if bits != 0 {
            return Some((w << 6) + bits.trailing_zeros() as usize);
        }
        let rest = if w + 1 >= SLOTS / 64 {
            0
        } else {
            self.summary & (!0u64 << (w + 1))
        };
        if rest == 0 {
            return None;
        }
        let w2 = rest.trailing_zeros() as usize;
        Some((w2 << 6) + self.words[w2].trailing_zeros() as usize)
    }

    /// First occupied slot strictly after `c` in circular order, returned
    /// as `(slot, distance)` with distance in `1..=SLOTS` (`c` itself is
    /// reachable at distance `SLOTS`).
    fn next_circular_after(&self, c: usize) -> Option<(usize, u64)> {
        let found = self.next_from(c + 1).or_else(|| self.next_from(0))?;
        let dist = (found + SLOTS - c - 1) % SLOTS + 1;
        Some((found, dist as u64))
    }
}

/// One level of `SLOTS` buckets: each an intrusive list (head and tail
/// indices into the slab), plus which buckets are non-empty.
struct Level {
    head: Vec<u32>,
    tail: Vec<u32>,
    bits: Bitmap,
}

impl Level {
    fn new() -> Level {
        Level {
            head: vec![NIL; SLOTS],
            tail: vec![NIL; SLOTS],
            bits: Bitmap::new(),
        }
    }
}

/// The timer wheel over payloads `P`. See the module docs for layout and
/// the ordering contract.
pub struct Wheel<P> {
    // --- event slab (struct-of-arrays, u32-indexed) ---
    payload: Vec<Option<P>>,
    at: Vec<u64>,
    /// The tie-breaker each entry was scheduled under; buckets are kept in
    /// its order.
    seq: Vec<u64>,
    gen: Vec<u32>,
    /// Bucket-list links (level 0 / level 1); NIL while in overflow.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Owner cancel-list links; NIL for unowned entries.
    onext: Vec<u32>,
    oprev: Vec<u32>,
    owner: Vec<u32>,
    free: Vec<u32>,
    /// Head of each owner's cancel list, indexed by owner.
    owner_head: Vec<u32>,

    /// Level 0 (1 ms slots) and level 1 (4096 ms slots).
    levels: [Level; 2],
    /// The absolute block (`at / 4096`) level 0 currently covers.
    cur_block: u64,
    /// Scan position within level 0 (slots before it are drained).
    cursor0: usize,
    overflow: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,

    live: usize,
    dead_keys: u64,
}

impl<P> Default for Wheel<P> {
    fn default() -> Wheel<P> {
        Wheel::new()
    }
}

impl<P> Wheel<P> {
    pub fn new() -> Wheel<P> {
        Wheel {
            payload: Vec::new(),
            at: Vec::new(),
            seq: Vec::new(),
            gen: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            onext: Vec::new(),
            oprev: Vec::new(),
            owner: Vec::new(),
            free: Vec::new(),
            owner_head: Vec::new(),
            levels: [Level::new(), Level::new()],
            cur_block: 0,
            cursor0: 0,
            overflow: BinaryHeap::new(),
            live: 0,
            dead_keys: 0,
        }
    }

    /// Live (schedulable) entries across all levels. Cancelled entries are
    /// reclaimed eagerly and do not count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Stale `(at, seq, idx, gen)` keys still sitting in the overflow heap
    /// for entries already cancelled — the only lazy deletion the wheel
    /// performs. They are discarded (and this count drops) as pops reach
    /// them.
    pub fn dead_keys(&self) -> u64 {
        self.dead_keys
    }

    /// Where an event due at `at` lives right now: `(level, slot)`, or
    /// `None` in overflow. Valid at all times because entries move between
    /// levels exactly when `cur_block` advances.
    fn place(&self, at: u64) -> Option<(usize, usize)> {
        let block = at / L1_TICK;
        if block <= self.cur_block {
            Some((0, (at % L1_TICK) as usize))
        } else if block <= self.cur_block + SLOTS as u64 {
            Some((1, (block % SLOTS as u64) as usize))
        } else {
            None
        }
    }

    fn alloc(&mut self, at: u64, seq: u64, payload: P) -> u32 {
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.payload[i] = Some(payload);
            self.at[i] = at;
            self.seq[i] = seq;
            self.next[i] = NIL;
            self.prev[i] = NIL;
            self.onext[i] = NIL;
            self.oprev[i] = NIL;
            self.owner[i] = NIL;
            idx
        } else {
            let idx = self.payload.len() as u32;
            assert!(idx != NIL, "event slab exhausted");
            self.payload.push(Some(payload));
            self.at.push(at);
            self.seq.push(seq);
            self.gen.push(0);
            self.next.push(NIL);
            self.prev.push(NIL);
            self.onext.push(NIL);
            self.oprev.push(NIL);
            self.owner.push(NIL);
            // The free list can hold at most one entry per slab slot; grow
            // its capacity here (the slab only grows when the free list is
            // empty) so releases on the pop path never allocate.
            if self.free.capacity() < self.payload.len() {
                self.free.reserve(self.payload.len());
            }
            idx
        }
    }

    /// Insert `idx` into bucket `s` of `level` in `seq` order: after the
    /// tail when its seq is the largest (the common case), otherwise
    /// before the first entry with a larger one.
    fn push(&mut self, level: usize, s: usize, idx: u32) {
        let i = idx as usize;
        let tail = self.levels[level].tail[s];
        if tail != NIL && self.seq[tail as usize] > self.seq[i] {
            let mut after = self.levels[level].head[s];
            while self.seq[after as usize] < self.seq[i] {
                after = self.next[after as usize];
            }
            let before = self.prev[after as usize];
            self.prev[i] = before;
            self.next[i] = after;
            self.prev[after as usize] = idx;
            if before == NIL {
                self.levels[level].head[s] = idx;
            } else {
                self.next[before as usize] = idx;
            }
            return;
        }
        let l = &mut self.levels[level];
        self.prev[i] = tail;
        self.next[i] = NIL;
        if tail == NIL {
            l.head[s] = idx;
            l.bits.set(s);
        } else {
            self.next[tail as usize] = idx;
        }
        l.tail[s] = idx;
    }

    /// Take `idx` out of bucket `s` of `level`.
    fn unlink(&mut self, level: usize, s: usize, idx: u32) {
        let l = &mut self.levels[level];
        let i = idx as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NIL {
            l.head[s] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            l.tail[s] = p;
        } else {
            self.prev[n as usize] = p;
        }
        if l.head[s] == NIL {
            l.bits.clear(s);
        }
    }

    fn link_owner(&mut self, o: u32, idx: u32) {
        let ou = o as usize;
        if ou >= self.owner_head.len() {
            self.owner_head.resize(ou + 1, NIL);
        }
        let i = idx as usize;
        self.owner[i] = o;
        self.oprev[i] = NIL;
        self.onext[i] = self.owner_head[ou];
        if self.owner_head[ou] != NIL {
            self.oprev[self.owner_head[ou] as usize] = idx;
        }
        self.owner_head[ou] = idx;
    }

    fn unlink_owner(&mut self, idx: u32) {
        let i = idx as usize;
        let o = self.owner[i];
        if o == NIL {
            return;
        }
        let (p, n) = (self.oprev[i], self.onext[i]);
        if p == NIL {
            self.owner_head[o as usize] = n;
        } else {
            self.onext[p as usize] = n;
        }
        if n != NIL {
            self.oprev[n as usize] = p;
        }
        self.owner[i] = NIL;
    }

    /// Reclaim a slot whose entry is leaving the wheel, returning its
    /// payload. The generation bump invalidates any overflow key. Its owner
    /// links are left as they are: `alloc` resets them, and the caller has
    /// taken the entry off its owner's list (or is dropping the whole list).
    fn release(&mut self, idx: u32) -> P {
        let i = idx as usize;
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.payload[i].take().expect("live entry has a payload")
    }

    /// Peek the overflow minimum, lazily discarding stale keys.
    fn overflow_peek_live(&mut self) -> Option<(u64, u32)> {
        while let Some(&Reverse((at, _seq, idx, gen))) = self.overflow.peek() {
            if self.gen[idx as usize] == gen {
                return Some((at, idx));
            }
            self.overflow.pop();
            self.dead_keys -= 1;
        }
        None
    }

    /// Schedule `payload` for `at`, after every entry due at `at` with a
    /// smaller `seq` and before every one with a larger. `seq` must be
    /// unique among the entries scheduled; it need not exceed the last
    /// one's (module docs, "Ordering contract"). `at` must be ≥ the last
    /// popped deadline. `owner` threads the entry onto that owner's cancel
    /// list.
    pub fn schedule(&mut self, at: u64, seq: u64, owner: Option<u32>, payload: P) {
        let idx = self.alloc(at, seq, payload);
        match self.place(at) {
            Some((level, s)) => self.push(level, s, idx),
            None => self
                .overflow
                .push(Reverse((at, seq, idx, self.gen[idx as usize]))),
        }
        if let Some(o) = owner {
            self.link_owner(o, idx);
        }
        self.live += 1;
    }

    /// Pop the earliest event if its deadline is ≤ `until`; advance the
    /// wheel's block/horizon as far as needed (but never past `until`).
    pub fn pop_next(&mut self, until: u64) -> Option<(u64, P)> {
        loop {
            if let Some(s) = self.levels[0].bits.next_from(self.cursor0) {
                let idx = self.levels[0].head[s];
                let at = self.at[idx as usize];
                if at > until {
                    return None;
                }
                self.cursor0 = s;
                self.unlink(0, s, idx);
                self.unlink_owner(idx);
                return Some((at, self.release(idx)));
            }
            self.advance(until)?;
        }
    }

    /// Level 0 is drained: move to the next occupied block, cascading its
    /// level-1 slot and pulling newly-in-horizon overflow keys into level 1.
    /// Returns `None` (without committing anything) if that block starts
    /// after `until`.
    fn advance(&mut self, until: u64) -> Option<()> {
        let cursor1 = (self.cur_block % SLOTS as u64) as usize;
        let l1_next = self.levels[1]
            .bits
            .next_circular_after(cursor1)
            .map(|(_, dist)| self.cur_block + dist);
        let of_next = self.overflow_peek_live().map(|(at, _)| at / L1_TICK);
        let block = match (l1_next, of_next) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        if block * L1_TICK > until {
            return None;
        }
        self.cur_block = block;
        self.cursor0 = 0;
        // Overflow entries for this block, then the block's level-1 slot:
        // `push` puts each in its bucket's seq order.
        while let Some((at, idx)) = self.overflow_peek_live() {
            if at / L1_TICK != block {
                break;
            }
            self.overflow.pop();
            self.push(0, (at % L1_TICK) as usize, idx);
        }
        let s1 = (block % SLOTS as u64) as usize;
        let l1 = &mut self.levels[1];
        if l1.bits.get(s1) {
            let mut idx = std::mem::replace(&mut l1.head[s1], NIL);
            l1.tail[s1] = NIL;
            l1.bits.clear(s1);
            while idx != NIL {
                let nx = self.next[idx as usize];
                self.push(0, (self.at[idx as usize] % L1_TICK) as usize, idx);
                idx = nx;
            }
        }
        // The horizon moved: migrate newly-covered overflow keys into
        // level 1.
        let horizon = block + SLOTS as u64;
        while let Some((at, idx)) = self.overflow_peek_live() {
            if at / L1_TICK > horizon {
                break;
            }
            self.overflow.pop();
            self.push(1, ((at / L1_TICK) % SLOTS as u64) as usize, idx);
        }
        Some(())
    }

    /// Cancel every entry owned by `owner`, unlinking it from its bucket
    /// and reclaiming its slab slot immediately. Overflow-resident entries
    /// leave a stale heap key behind (see [`Wheel::dead_keys`]). Returns
    /// the number of entries cancelled.
    pub fn cancel_owned(&mut self, owner: u32) -> u64 {
        // Detach the whole list; its entries are released one by one.
        let Some(head) = self.owner_head.get_mut(owner as usize) else {
            return 0;
        };
        let mut idx = std::mem::replace(head, NIL);
        let mut n = 0;
        while idx != NIL {
            let nx = self.onext[idx as usize];
            match self.place(self.at[idx as usize]) {
                Some((level, s)) => self.unlink(level, s, idx),
                None => self.dead_keys += 1,
            }
            self.release(idx);
            n += 1;
            idx = nx;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_scan_and_clear() {
        let mut b = Bitmap::new();
        assert_eq!(b.next_from(0), None);
        b.set(5);
        b.set(70);
        b.set(4095);
        assert_eq!(b.next_from(0), Some(5));
        assert_eq!(b.next_from(6), Some(70));
        assert_eq!(b.next_from(71), Some(4095));
        b.clear(4095);
        assert_eq!(b.next_from(71), None);
        assert_eq!(b.next_circular_after(100), Some((5, 4001)));
        assert_eq!(b.next_circular_after(4), Some((5, 1)));
        b.clear(5);
        b.clear(70);
        assert_eq!(b.next_circular_after(0), None);
    }

    #[test]
    fn pops_in_time_then_seq_order_across_levels() {
        let mut w: Wheel<u32> = Wheel::new();
        // Same deadline scheduled far apart in seq, across all levels.
        w.schedule(50_000_000, 0, None, 0); // overflow
        w.schedule(10_000, 1, None, 1); // level 1
        w.schedule(10, 2, None, 2); // level 0
        w.schedule(10, 3, None, 3); // tie with seq 2
        w.schedule(10_000, 4, None, 4); // tie with seq 1
        let mut got = Vec::new();
        while let Some((at, p)) = w.pop_next(u64::MAX) {
            got.push((at, p));
        }
        assert_eq!(
            got,
            vec![(10, 2), (10, 3), (10_000, 1), (10_000, 4), (50_000_000, 0)]
        );
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn a_smaller_seq_scheduled_later_pops_first_at_every_level() {
        let mut w: Wheel<u32> = Wheel::new();
        for at in [10, 10_000, 50_000_000] {
            w.schedule(at, 100, None, 100);
            w.schedule(at, 101, None, 101);
            // Seqs 1 and 2 were reserved before 100 and 101 were taken.
            w.schedule(at, 2, None, 2);
            w.schedule(at, 1, None, 1);
        }
        let mut got = Vec::new();
        while let Some((at, p)) = w.pop_next(u64::MAX) {
            got.push((at, p));
        }
        let want: Vec<(u64, u32)> = [10, 10_000, 50_000_000]
            .into_iter()
            .flat_map(|at| [1, 2, 100, 101].map(|p| (at, p)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn until_bound_is_respected_and_resumable() {
        let mut w: Wheel<&str> = Wheel::new();
        w.schedule(100, 0, None, "a");
        w.schedule(200_000, 1, None, "b");
        assert_eq!(w.pop_next(50), None);
        assert_eq!(w.pop_next(100), Some((100, "a")));
        assert_eq!(w.pop_next(100_000), None);
        assert_eq!(w.pop_next(300_000), Some((200_000, "b")));
        assert_eq!(w.pop_next(u64::MAX), None);
    }

    #[test]
    fn cancel_reclaims_slots_eagerly() {
        let mut w: Wheel<u32> = Wheel::new();
        w.schedule(10, 0, Some(1), 0);
        w.schedule(20_000, 1, Some(1), 1);
        w.schedule(90_000_000, 2, Some(1), 2); // overflow
        w.schedule(15, 3, Some(2), 3);
        assert_eq!(w.live(), 4);
        assert_eq!(w.cancel_owned(1), 3);
        assert_eq!(w.live(), 1);
        assert_eq!(w.dead_keys(), 1, "overflow key goes stale, not the slot");
        assert_eq!(w.pop_next(u64::MAX), Some((15, 3)));
        assert_eq!(w.pop_next(u64::MAX), None);
        assert_eq!(w.dead_keys(), 0, "stale key discarded on pop");
        assert_eq!(w.cancel_owned(7), 0, "unknown owner is a no-op");
    }

    #[test]
    fn same_tick_insert_during_drain_is_seen() {
        let mut w: Wheel<u32> = Wheel::new();
        w.schedule(10, 0, None, 0);
        assert_eq!(w.pop_next(u64::MAX), Some((10, 0)));
        // An insert at the tick just popped (a control scheduled "now")
        // must come out before anything later.
        w.schedule(10, 1, None, 1);
        w.schedule(11, 2, None, 2);
        assert_eq!(w.pop_next(u64::MAX), Some((10, 1)));
        assert_eq!(w.pop_next(u64::MAX), Some((11, 2)));
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut w: Wheel<u64> = Wheel::new();
        for round in 0..100u64 {
            for k in 0..16u64 {
                w.schedule(round * 1000 + 10 + k, round * 16 + k, None, k);
            }
            while w.pop_next((round + 1) * 1000).is_some() {}
        }
        assert_eq!(w.payload.len(), 16, "slab stays at high-water mark");
    }
}

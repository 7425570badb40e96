//! The directory peer's state: the `directory-index(ws, loc)` plus its view
//! of the petal's content peers (§3.2), with keepalive-based expiry (§5.1),
//! provider selection, and the hand-over snapshot used on voluntary leaves
//! and PetalUp promotions (§4, §5.2.2).
//!
//! Whatever a directory indexes, its state sits in a few flat allocations
//! (DESIGN.md §11 "Content state"): the content peers' ids in one sorted
//! `Vec` beside their entries (each with the set that peer holds), and the
//! inverted index as one table of objects, ascending, whose holder lists
//! share one arena (`Holders`).

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

    fn silent_for(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_heard_ms)
    }
}

/// Uniform pick among `candidates` (holders' raw ids) without collecting
/// them: count, draw, take the n-th. The draw is `SliceRandom::choose`'s —
/// `next_u64() % n`, and none at all when there is no candidate — because
/// every seeded run depends on the state it leaves the RNG in.
fn choose(mut candidates: impl Iterator<Item = u32> + Clone, rng: &mut impl Rng) -> Option<NodeId> {
    let n = candidates.clone().count();
    if n == 0 {
        return None;
    }
    candidates.nth(rng.next_u64() as usize % n).map(holder)
}

// Inline: provider choice runs it on every holder, and its callers are
// generic, so they are compiled in the caller's crate.
#[inline]
fn excluded(exclude: &[NodeId], raw: u32) -> bool {
    exclude.iter().any(|n| n.index() == raw as usize)
}

/// Ends a free list of [`Holders::arena`] blocks.
const NONE: u32 = u32::MAX;

/// One object of the inverted index and where its holders are.
#[derive(Debug, Clone, Copy)]
struct Row {
    object: ObjectId,
    /// Number of holders, at least one.
    len: u32,
    /// The first slot of the list's block in [`Holders::arena`].
    at: u32,
}

/// A list of `len` holders sits in a block of `2^class(len)` slots.
fn class(len: u32) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

#[inline]
fn holder(raw: u32) -> NodeId {
    NodeId::from_index(raw as usize)
}

/// Make room for `extra` more elements by an eighth of the length, not by
/// doubling: a directory's tables are most of what it holds, and a doubled
/// `Vec` leaves a quarter of its room unused on average.
fn reserve<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8));
    }
}

/// The inverted index, object → holders: one row per object with at least
/// one holder, ascending by object, and one arena for their holder lists.
/// A list sits in a block of the next power of two of slots, so the
/// block's size follows from the list's length. A list that outgrows
/// its block moves to one twice the size, and one that shrinks to a power
/// of two gives back its block's upper half, so adding or removing a
/// holder costs a search and at most the object's own list; no other list
/// moves (an object's first holder adds its row, shifting the 12-byte rows
/// after it; its last one removes the row). Freed blocks are chained per
/// size through their first slot and taken before the arena grows; a
/// block freed at the arena's end shortens it. Lists that grow leave
/// blocks of the sizes they outgrew, which only lists of those sizes take
/// again, so [`Holders::tidy`] packs the lists into a new arena once freed
/// blocks are a quarter of it; the directory's periodic sweep calls it.
///
/// Each list keeps its holders in the order they were recorded: provider
/// choice draws an index into it.
#[derive(Debug, Clone, Default)]
struct Holders {
    rows: Vec<Row>,
    arena: Vec<u32>,
    /// `free[c]`: the first free block of `2^c` slots, or [`NONE`].
    free: Vec<u32>,
    /// Slots in free blocks.
    idle: usize,
}

impl Holders {
    fn find(&self, object: ObjectId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&object, |row| row.object)
    }

    fn list(&self, row: &Row) -> &[u32] {
        &self.arena[row.at as usize..][..row.len as usize]
    }

    /// `object`'s holders, as raw ids in record order.
    fn of(&self, object: ObjectId) -> Option<&[u32]> {
        let i = self.find(object).ok()?;
        Some(self.list(&self.rows[i]))
    }

    /// Add `node` after `object`'s other holders.
    fn push(&mut self, object: ObjectId, node: NodeId) {
        let raw = node.index() as u32;
        let i = match self.find(object) {
            Ok(i) => i,
            Err(i) => {
                let at = self.take(0);
                self.arena[at] = raw;
                let row = Row {
                    object,
                    len: 1,
                    at: at as u32,
                };
                reserve(&mut self.rows, 1);
                self.rows.insert(i, row);
                return;
            }
        };
        let Row { len, at, .. } = self.rows[i];
        let at = if len.is_power_of_two() {
            let block = self.take(class(len) + 1);
            let old = at as usize;
            self.arena.copy_within(old..old + len as usize, block);
            self.give_back(old, class(len));
            block
        } else {
            at as usize
        };
        self.arena[at + len as usize] = raw;
        self.rows[i].len = len + 1;
        self.rows[i].at = at as u32;
    }

    /// Drop `node` from `object`'s holders, keeping the others' order.
    fn remove(&mut self, object: ObjectId, node: NodeId) {
        let Ok(i) = self.find(object) else {
            return;
        };
        let row = self.rows[i];
        let raw = node.index() as u32;
        let Some(k) = self.list(&row).iter().position(|&h| h == raw) else {
            return;
        };
        let at = row.at as usize;
        match row.len {
            1 => {
                self.rows.remove(i);
                self.give_back(at, 0);
                if self.rows.is_empty() {
                    // Nothing is listed, so every block is free.
                    self.arena.clear();
                    self.free.clear();
                    self.idle = 0;
                }
            }
            len => {
                let len = len as usize - 1;
                self.arena.copy_within(at + k + 1..=at + len, at + k);
                if len.is_power_of_two() {
                    self.give_back(at + len, class(len as u32));
                }
                self.rows[i].len = len as u32;
            }
        }
    }

    /// A block of `2^class` slots: a freed one, or new room at the end.
    fn take(&mut self, class: usize) -> usize {
        match self.free.get(class) {
            Some(&block) if block != NONE => {
                self.free[class] = self.arena[block as usize];
                self.idle -= 1 << class;
                block as usize
            }
            _ => {
                let block = self.arena.len();
                let end = block + (1 << class);
                assert!(end < NONE as usize, "directory arena past u32 slots");
                reserve(&mut self.arena, 1 << class);
                self.arena.resize(end, NONE);
                block
            }
        }
    }

    fn give_back(&mut self, block: usize, class: usize) {
        if block + (1 << class) == self.arena.len() {
            self.arena.truncate(block);
            return;
        }
        if self.free.len() <= class {
            self.free.resize(class + 1, NONE);
        }
        self.arena[block] = self.free[class];
        self.free[class] = block as u32;
        self.idle += 1 << class;
    }

    /// Pack the lists into a new arena, in row order, once free blocks
    /// hold a quarter of the slots: the one step that moves every list,
    /// taken at most once per sweep, after a quarter of the arena has been
    /// freed since the last.
    fn tidy(&mut self) {
        if self.idle * 4 <= self.arena.len() {
            return;
        }
        let mut arena = Vec::with_capacity(self.arena.len() - self.idle);
        for row in &mut self.rows {
            let block = &self.arena[row.at as usize..][..1 << class(row.len)];
            row.at = arena.len() as u32;
            arena.extend_from_slice(block);
        }
        self.arena = arena;
        self.free.clear();
        self.idle = 0;
    }
}

/// Directory-index and view over the content peers of one petal partition.
#[derive(Debug, Clone, Default)]
pub struct DirectoryIndex {
    /// The content peers, ascending; `entries[i]` is `ids[i]`'s. The ids
    /// sit apart so that a search reads a few cache lines of them, not a
    /// 48-byte entry per step.
    ids: Vec<NodeId>,
    entries: Vec<PeerEntry>,
    holders: Holders,
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

    fn find(&self, node: NodeId) -> Result<usize, usize> {
        self.ids.binary_search(&node)
    }

    fn entry(&self, node: NodeId) -> Option<&PeerEntry> {
        self.find(node).ok().map(|i| &self.entries[i])
    }

    /// Where `node`'s entry is, made with `last_heard_ms` if it has none.
    fn find_or_insert(&mut self, node: NodeId, last_heard_ms: u64) -> usize {
        self.find(node).unwrap_or_else(|i| {
            reserve(&mut self.ids, 1);
            reserve(&mut self.entries, 1);
            self.ids.insert(i, node);
            self.entries.insert(i, PeerEntry::new(last_heard_ms));
            i
        })
    }

    /// Number of content peers in the view — the PetalUp load metric
    /// ("the load at a directory peer is evaluated in terms of the number
    /// of content peers in its view", §4).
    pub fn peer_count(&self) -> usize {
        self.ids.len()
    }

    pub fn contains_peer(&self, node: NodeId) -> bool {
        self.find(node).is_ok()
    }

    /// All managed content peers.
    pub fn peer_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// Number of distinct objects indexed.
    pub fn object_count(&self) -> usize {
        self.holders.rows.len()
    }

    /// Register (or refresh) a content peer with no content yet.
    pub fn register_peer(&mut self, node: NodeId, now_ms: u64) {
        let i = self.find_or_insert(node, 0);
        self.entries[i].last_heard_ms = now_ms;
    }

    /// Record that `node` holds `objects` (a keepalive/push/redirect
    /// observation). Implicitly registers and refreshes the peer.
    pub fn record_objects(
        &mut self,
        node: NodeId,
        objects: impl IntoIterator<Item = ObjectId>,
        now_ms: u64,
    ) {
        let i = self.find_or_insert(node, now_ms);
        let entry = &mut self.entries[i];
        entry.last_heard_ms = now_ms;
        for o in objects {
            if entry.objects.insert(o) {
                entry.summary = None;
                self.holders.push(o, node);
            }
        }
    }

    /// Remove specific objects from a peer's entry (the peer evicted them
    /// under a bounded-cache policy and retracted the announcement).
    pub fn retract_objects(&mut self, node: NodeId, objects: impl IntoIterator<Item = ObjectId>) {
        let Ok(i) = self.find(node) else {
            return;
        };
        let entry = &mut self.entries[i];
        for o in objects {
            if entry.objects.remove(o) {
                entry.summary = None;
                self.holders.remove(o, node);
            }
        }
    }

    /// Refresh a peer's liveness without content changes (plain keepalive).
    pub fn heard_from(&mut self, node: NodeId, now_ms: u64) {
        if let Ok(i) = self.find(node) {
            self.entries[i].last_heard_ms = now_ms;
        }
    }

    /// Remove a content peer entirely (failure detected, or it was promoted
    /// to a directory — "the replacing content peer is then removed from
    /// the directory-index", §4).
    pub fn remove_peer(&mut self, node: NodeId) -> bool {
        let Ok(i) = self.find(node) else {
            return false;
        };
        self.ids.remove(i);
        let entry = self.entries.remove(i);
        for o in entry.objects.iter() {
            self.holders.remove(o, node);
        }
        true
    }

    /// Drop peers not heard from within `ttl_ms` ("discover and remove
    /// expired pointers from its view and directory-index", §5.1), then
    /// give back the room holder lists left behind (`Holders::tidy`).
    pub fn expire(&mut self, now_ms: u64, ttl_ms: u64) -> Vec<NodeId> {
        let mut stale = Vec::new();
        let (ids, holders) = (&self.ids, &mut self.holders);
        let mut i = 0;
        self.entries.retain(|e| {
            let id = ids[i];
            i += 1;
            if e.silent_for(now_ms) <= ttl_ms {
                return true;
            }
            for o in e.objects.iter() {
                holders.remove(o, id);
            }
            stale.push(id);
            false
        });
        // `stale` ascends, as the ids do.
        self.ids.retain(|id| stale.binary_search(id).is_err());
        holders.tidy();
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
        let hs = self.holders.of(object)?;
        choose(hs.iter().copied().filter(|&h| !excluded(exclude, h)), rng)
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
        let hs = self.holders.of(object)?;
        let live = hs.iter().copied().filter(|&h| {
            !excluded(exclude, h)
                && self
                    .entry(holder(h))
                    .is_some_and(|e| e.silent_for(now_ms) <= fresh_ms)
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
        let mut ids: Vec<NodeId> = self.peer_ids().filter(|&p| p != exclude).collect();
        ids.shuffle(rng);
        ids.truncate(n);
        ids.into_iter()
            .map(|id| {
                let i = self.find(id).expect("sampled from the view");
                let e = &mut self.entries[i];
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
            entries: (self.ids.iter().zip(&self.entries))
                .map(|(&id, e)| (id, e.objects.iter().collect(), e.last_heard_ms))
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use workload::WebsiteId;

    /// The index as of 5e15555, verbatim but for the visibility of the
    /// fields the tests read: two `BTreeMap`s and a `Vec` of holders per
    /// object. The differential tests hold the flat layout to it.
    mod reference {
        use std::collections::BTreeMap;

        use rand::seq::SliceRandom;
        use rand::Rng;
        use simnet::NodeId;
        use workload::ObjectId;

        use super::super::DirectorySnapshot;
        use crate::msg::Summary;
        use crate::store::{summarize, ObjectSet};

        /// What the directory knows about one content peer it manages.
        #[derive(Debug, Clone)]
        pub(super) struct PeerEntry {
            objects: ObjectSet,
            pub(super) last_heard_ms: u64,
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
            pub(super) peers: BTreeMap<NodeId, PeerEntry>,
            /// Inverted index: object → holders.
            pub(super) holders: BTreeMap<ObjectId, Vec<NodeId>>,
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
            pub fn retract_objects(
                &mut self,
                node: NodeId,
                objects: impl IntoIterator<Item = ObjectId>,
            ) {
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
    }

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

    /// `provider_for` as of 11a0052, verbatim: collect, then `choose`,
    /// over the reference index's lists.
    fn provider_for_collected(
        idx: &reference::DirectoryIndex,
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
        idx: &reference::DirectoryIndex,
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
        let mut old = reference::DirectoryIndex::new();
        // 40 peers heard from at 0..40 s; object r is held by every peer
        // whose number divides by r + 1, so holder lists run from all 40
        // peers down to one, and objects 40.. have no holder at all.
        for p in 0..40 {
            let held = (0..40u16).filter(|&r| p % (usize::from(r) + 1) == 0).map(o);
            idx.record_objects(n(p), held.clone(), p as u64 * 1_000);
            old.record_objects(n(p), held, p as u64 * 1_000);
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
                    provider_for_collected(&old, object, &exclude, &mut rng_old),
                )
            } else {
                let any_fresh = old.holders.get(&object).is_some_and(|hs| {
                    hs.iter().any(|h| {
                        !exclude.contains(h)
                            && now_ms.saturating_sub(old.peers[h].last_heard_ms) <= fresh_ms
                    })
                });
                let got = idx.provider_recent(object, &exclude, now_ms, fresh_ms, &mut rng);
                match (any_fresh, got) {
                    (true, _) => fresh += 1,
                    (false, Some(_)) => stale_fallthrough += 1,
                    (false, None) => {}
                }
                let want = provider_recent_collected(
                    &old,
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

    /// Every arena slot lies in exactly one block, a list's or a free one;
    /// the rows ascend and each has a holder; the peers ascend.
    fn check_layout(idx: &DirectoryIndex) {
        assert!(idx.ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.ids.len(), idx.entries.len());
        let h = &idx.holders;
        assert!(h.rows.windows(2).all(|w| w[0].object < w[1].object));
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        for row in &h.rows {
            assert!(row.len >= 1);
            blocks.push((row.at as usize, 1 << class(row.len)));
        }
        let mut idle = 0;
        for (c, &head) in h.free.iter().enumerate() {
            let mut block = head;
            while block != NONE {
                assert!(blocks.len() <= h.arena.len(), "a free list loops");
                blocks.push((block as usize, 1 << c));
                idle += 1 << c;
                block = h.arena[block as usize];
            }
        }
        assert_eq!(idle, h.idle, "slots in free blocks");
        blocks.sort_unstable();
        let mut end = 0;
        for (at, size) in blocks {
            assert_eq!(at, end, "a gap or an overlap at slot {at}");
            end = at + size;
        }
        assert_eq!(end, h.arena.len(), "slots past the last block");
    }

    fn holders_of(idx: &DirectoryIndex, object: ObjectId) -> Option<Vec<NodeId>> {
        Some(idx.holders.of(object)?.iter().map(|&h| holder(h)).collect())
    }

    #[test]
    fn a_holder_list_keeps_record_order_as_its_block_grows_and_shrinks() {
        let mut idx = DirectoryIndex::new();
        let mut want: Vec<NodeId> = Vec::new();
        // Two lists grow side by side, so their blocks leapfrog each other
        // and every size of block is freed and taken again.
        for p in 0..40 {
            idx.record_objects(n(p), [o(1), o(2)], 0);
            want.push(n(p));
            assert_eq!(holders_of(&idx, o(1)).as_ref(), Some(&want));
            check_layout(&idx);
        }
        // Out of the middle, the front and the back: every length from 40
        // down to one, across each power of two.
        for p in [
            20, 0, 39, 5, 33, 17, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        ]
        .into_iter()
        .chain(16..40)
        {
            idx.retract_objects(n(p), [o(1)]);
            want.retain(|&h| h != n(p));
            assert_eq!(
                holders_of(&idx, o(1)),
                (!want.is_empty()).then(|| want.clone())
            );
            assert_eq!(holders_of(&idx, o(2)).map(|hs| hs.len()), Some(40));
            check_layout(&idx);
        }
        assert_eq!(idx.object_count(), 1);
        for p in 0..40 {
            idx.remove_peer(n(p));
            check_layout(&idx);
        }
        assert_eq!(idx.object_count(), 0);
        assert!(idx.holders.arena.is_empty() && idx.holders.free.is_empty());
    }

    #[test]
    fn a_sweep_packs_the_lists_once_free_blocks_are_a_quarter_of_the_arena() {
        let mut idx = DirectoryIndex::new();
        // Eight objects' lists grow to nine holders side by side: each
        // leaves blocks of one, two, four and eight slots behind it.
        for p in 0..9 {
            idx.record_objects(n(p), (0..8).map(o), 1_000);
        }
        let before: Vec<_> = (0..8).map(|r| holders_of(&idx, o(r))).collect();
        let h = &idx.holders;
        assert_eq!(h.arena.len(), 8 * (1 + 2 + 4 + 8 + 16));
        assert_eq!(h.idle, 8 * (1 + 2 + 4 + 8));
        check_layout(&idx);
        // A sweep that expires nobody still packs the lists.
        assert!(idx.expire(1_000, 0).is_empty());
        let h = &idx.holders;
        assert_eq!((h.arena.len(), h.idle), (8 * 16, 0));
        assert_eq!(h.arena.capacity(), 8 * 16, "the packed arena is exact");
        check_layout(&idx);
        let after: Vec<_> = (0..8).map(|r| holders_of(&idx, o(r))).collect();
        assert_eq!(before, after);
        // Below a quarter it leaves the arena alone.
        idx.retract_objects(n(8), [o(0)]);
        assert_eq!(idx.holders.idle, 8);
        let arena = idx.holders.arena.as_ptr();
        idx.expire(1_000, 0);
        assert_eq!(idx.holders.arena.as_ptr(), arena);
        check_layout(&idx);
    }

    /// The index for the differential test: 3 websites × 16 ranks in steps
    /// of five, so sets span several bitset words and websites.
    fn object(x: u16) -> ObjectId {
        ObjectId {
            website: WebsiteId(x % 3),
            rank: (x / 3 % 16) * 5,
        }
    }

    /// The flat index and the reference, each with its own RNG, and the
    /// summary each last handed out per contact.
    struct Pair {
        flat: DirectoryIndex,
        old: reference::DirectoryIndex,
        rng: StdRng,
        rng_old: StdRng,
        handed: BTreeMap<NodeId, (Summary, Summary)>,
    }

    impl Pair {
        fn same_state(&self) -> Result<(), TestCaseError> {
            let (flat, old) = (&self.flat, &self.old);
            prop_assert_eq!(flat.snapshot(), old.snapshot());
            prop_assert_eq!(
                flat.peer_ids().collect::<Vec<_>>(),
                old.peer_ids().collect::<Vec<_>>()
            );
            prop_assert_eq!(flat.peer_count(), old.peer_count());
            prop_assert_eq!(flat.object_count(), old.object_count());
            for (&object, hs) in &old.holders {
                prop_assert_eq!(holders_of(flat, object), Some(hs.clone()), "{:?}", object);
            }
            prop_assert_eq!(&self.rng, &self.rng_old, "RNG state");
            check_layout(flat);
            Ok(())
        }

        fn sample(&mut self, k: usize, exclude: NodeId) -> Result<(), TestCaseError> {
            let got = self.flat.sample_contacts(k, exclude, &mut self.rng);
            let want = self.old.sample_contacts(k, exclude, &mut self.rng_old);
            prop_assert_eq!(
                got.iter().map(|c| c.0).collect::<Vec<_>>(),
                want.iter().map(|c| c.0).collect::<Vec<_>>()
            );
            for ((id, s), (_, r)) in got.into_iter().zip(want) {
                prop_assert_eq!(&*s, &*r, "summary of {}", id);
                if let Some((ps, pr)) = self.handed.get(&id) {
                    // Handed out again exactly when the reference does.
                    prop_assert_eq!(Arc::ptr_eq(ps, &s), Arc::ptr_eq(pr, &r), "{}", id);
                }
                self.handed.insert(id, (s, r));
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat layout against the `BTreeMap` index it replaced, one
        /// random operation at a time: every return value, the RNG state
        /// after every pick, the contacts and their summaries, and after
        /// every step the snapshot, the peer ids, the counts and each
        /// object's holders in order.
        #[test]
        fn prop_flat_index_answers_like_the_btreemap_original(
            peers in 1usize..40,
            objects in 1u16..48,
            seed: u64,
            ops in proptest::collection::vec(
                (
                    0u8..14,
                    any::<u16>(),
                    proptest::collection::vec(any::<u16>(), 0..6),
                    0u64..100_000,
                    0u64..40_000,
                ),
                1..200,
            ),
        ) {
            let mut pair = Pair {
                flat: DirectoryIndex::new(),
                old: reference::DirectoryIndex::new(),
                rng: StdRng::seed_from_u64(seed),
                rng_old: StdRng::seed_from_u64(seed),
                handed: BTreeMap::new(),
            };
            for (op, a, xs, t, span) in ops {
                let peer = n(usize::from(a) % peers);
                let objs: Vec<ObjectId> = xs.iter().map(|&x| object(x % objects)).collect();
                let exclude: Vec<NodeId> = xs.iter().skip(1).map(|&x| n(usize::from(x) % peers)).collect();
                let target = object(a % objects);
                let Pair { flat, old, rng, rng_old, .. } = &mut pair;
                match op {
                    0..=3 => {
                        flat.record_objects(peer, objs.iter().copied(), t);
                        old.record_objects(peer, objs, t);
                    }
                    4 => {
                        flat.register_peer(peer, t);
                        old.register_peer(peer, t);
                    }
                    5 => {
                        flat.retract_objects(peer, objs.iter().copied());
                        old.retract_objects(peer, objs);
                    }
                    6 => {
                        flat.heard_from(peer, t);
                        old.heard_from(peer, t);
                    }
                    7 => prop_assert_eq!(flat.remove_peer(peer), old.remove_peer(peer)),
                    8 => prop_assert_eq!(flat.expire(t, span), old.expire(t, span)),
                    9 => prop_assert_eq!(
                        flat.provider_for(target, &exclude, rng),
                        old.provider_for(target, &exclude, rng_old)
                    ),
                    10 => prop_assert_eq!(
                        flat.provider_recent(target, &exclude, t, span, rng),
                        old.provider_recent(target, &exclude, t, span, rng_old)
                    ),
                    11 => pair.sample(xs.len() * 2, peer)?,
                    12 => {
                        let snap = flat.snapshot();
                        prop_assert_eq!(&snap, &old.snapshot());
                        *flat = DirectoryIndex::from_snapshot(&snap);
                        *old = reference::DirectoryIndex::from_snapshot(&snap);
                    }
                    _ => {
                        // An entry with no objects, as a client's first push.
                        flat.record_objects(peer, std::iter::empty(), t);
                        old.record_objects(peer, std::iter::empty(), t);
                    }
                }
                prop_assert_eq!(pair.flat.contains_peer(peer), pair.old.contains_peer(peer));
                pair.same_state()?;
            }
        }
    }
}

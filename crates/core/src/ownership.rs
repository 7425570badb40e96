//! Who holds each D-ring position: the one fold of `became_directory`,
//! `demoted`, `NodeFail` and `NodeLeave` that both
//! [`InvariantChecker`](crate::InvariantChecker) and
//! [`ResilienceTracker`](crate::ResilienceTracker) read.
//!
//! A position can have several holders at once: §5.2.2's replacement
//! installs a new holder while the ghost one has not yet stood down. So
//! each position keeps every holder, oldest first, and a peer that stops
//! holding it (demotion, failure, leave) leaves the others in place.
//! `tests/failure_injection.rs` checks the fold against what the machines
//! themselves hold.

use std::collections::{BTreeMap, BTreeSet};

use simnet::{NodeId, Time, TraceEvent};

use crate::tags::{self, pos_of, Pos};

/// What one event did to one position's holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Change {
    pub node: NodeId,
    pub pos: Pos,
    /// `node` arrived as the newest holder; else it stopped holding `pos`.
    pub arrived: bool,
    /// `node` is, or was until it stopped, the newest holder of `pos`.
    pub newest: bool,
    /// Holders of `pos` after the change.
    pub holders: usize,
}

/// The holders of every D-ring position, as the trace stream tells them.
#[derive(Debug, Default)]
pub struct Ownership {
    /// Each position's holders, oldest first, with their arrival times.
    holders: BTreeMap<Pos, Vec<(NodeId, Time)>>,
    /// Every (holder, position) pair: what a failure or a leave drops.
    held: BTreeSet<(NodeId, Pos)>,
}

impl Ownership {
    /// Fold one trace event; what it changed, position by position.
    pub fn fold(&mut self, at: Time, ev: &TraceEvent) -> Vec<Change> {
        match ev {
            TraceEvent::NodeFail { node } | TraceEvent::NodeLeave { node } => {
                let all = (*node, (0, 0, 0))..=(*node, (u64::MAX, u64::MAX, u64::MAX));
                let gone: Vec<(NodeId, Pos)> = self.held.range(all).copied().collect();
                (gone.into_iter())
                    .filter_map(|(node, pos)| self.set(at, node, pos, false))
                    .collect()
            }
            TraceEvent::Custom { node, name, fields }
                if [tags::BECAME_DIRECTORY, tags::DEMOTED].contains(name) =>
            {
                let arrived = *name == tags::BECAME_DIRECTORY;
                (pos_of(fields).and_then(|pos| self.set(at, *node, pos, arrived)))
                    .into_iter()
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Every (holder, position) pair, ordered by holder.
    pub fn held(&self) -> impl Iterator<Item = (NodeId, Pos)> + '_ {
        self.held.iter().copied()
    }

    /// The holders of `pos`, oldest first, with the time each arrived.
    pub fn holders(&self, pos: Pos) -> &[(NodeId, Time)] {
        self.holders.get(&pos).map_or(&[], Vec::as_slice)
    }

    /// `node` arrives at `pos` as its newest holder, or stops holding it;
    /// stopping changes nothing if it did not hold `pos`.
    fn set(&mut self, at: Time, node: NodeId, pos: Pos, arrived: bool) -> Option<Change> {
        if !arrived && !self.held.remove(&(node, pos)) {
            return None;
        }
        let hs = self.holders.entry(pos).or_default();
        let newest = arrived || hs.last().is_some_and(|&(n, _)| n == node);
        hs.retain(|&(n, _)| n != node);
        if arrived {
            self.held.insert((node, pos));
            hs.push((node, at));
        }
        let holders = hs.len();
        Some(Change {
            node,
            pos,
            arrived,
            newest,
            holders,
        })
    }
}

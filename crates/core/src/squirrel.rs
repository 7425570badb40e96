//! Squirrel as a simulated system.
//!
//! The Squirrel *protocol* — [`SquirrelPeer`] and its message/timer types —
//! lives in `flower_proto::squirrel` as a sans-io state machine; this
//! module re-exports it, tells [`Engine`] what it needs to know about the
//! system ([`Squirrel`]), and adds the ring probes tests read off a
//! [`SquirrelSim`].

use std::collections::BTreeSet;

use chord::{Chord, ChordAction, ChordId, NodeRef};
use rand::rngs::StdRng;
use simnet::{LocalityId, NodeId};
use workload::{Catalog, ObjectId, WebsiteId};

use crate::config::SimParams;
use crate::engine::{Engine, SimSystem, SimWorld};
use crate::experiments::System;
use crate::host::SimHost;
use crate::peer::PeerCtx;

pub use flower_proto::squirrel::{
    object_key, peer_ring_id, SqMsg, SqTimer, SquirrelMode, SquirrelPeer,
};

/// Squirrel: every peer an ordinary member of one Chord ring, in the
/// directory or the home-store flavour.
pub struct Squirrel {
    mode: SquirrelMode,
}

/// The Squirrel simulation.
pub type SquirrelSim = Engine<Squirrel>;

/// The simulator node type hosting the Squirrel machine.
pub type SquirrelHost = SimHost<SquirrelPeer>;

impl SimSystem for Squirrel {
    type Machine = SquirrelPeer;

    const SYSTEM: System = System::Squirrel;

    fn initial_ring_id(me: NodeId, _website: WebsiteId, _locality: LocalityId) -> ChordId {
        peer_ring_id(me)
    }

    fn initial_machine(
        &self,
        pcx: PeerCtx,
        me: NodeId,
        _locality: LocalityId,
        chord: Chord,
        startup_actions: Vec<ChordAction>,
    ) -> SquirrelPeer {
        SquirrelPeer::initial(pcx, self.mode, me, chord, startup_actions)
    }

    /// Arrivals join the ring through a registry member drawn from the
    /// engine RNG; with the overlay empty the arrival is lost.
    fn arriving(
        &self,
        pcx: PeerCtx,
        rng: &mut StdRng,
    ) -> Option<impl FnOnce(NodeId, LocalityId) -> SquirrelPeer> {
        let seed: NodeRef = pcx.bootstrap.borrow().pick(rng, &[])?;
        let mode = self.mode;
        Some(move |me, _locality| SquirrelPeer::arriving(pcx, mode, me, seed))
    }

    /// Squirrel has no designated directory peers, so `kill-directories`
    /// translates to its closest analog: the **home nodes** (ring owners)
    /// of the website's hottest objects — killing them destroys the same
    /// "who-holds-what" knowledge a Flower directory kill destroys. The
    /// ring is scanned in popularity-rank order until `count` distinct live
    /// owners are found (default 8 per website).
    fn directory_victims(
        world: &SimWorld<Squirrel>,
        catalog: &Catalog,
        website: Option<u32>,
        count: Option<u32>,
        _rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let per_site = count.map_or(8, |c| c as usize);
        let websites = match website {
            Some(w) => w..w + 1,
            None => 0..u32::from(catalog.config().active_websites),
        };
        let mut victims: BTreeSet<NodeId> = BTreeSet::new();
        for ws in websites {
            let mut owners: BTreeSet<NodeId> = BTreeSet::new();
            for rank in 0..catalog.objects_per_site() {
                if owners.len() >= per_site {
                    break;
                }
                let object = ObjectId::from_u64((u64::from(ws) << 32) | u64::from(rank));
                if let Some(owner) = live_ring_owner(world, object_key(object)) {
                    owners.insert(owner);
                }
            }
            victims.extend(owners);
        }
        victims.into_iter().collect()
    }

    /// Joined-ring size and home-directory load.
    fn sample_gauges(world: &SimWorld<Squirrel>, record: &mut dyn FnMut(&'static str, f64)) {
        let mut joined = 0usize;
        let mut homed = 0usize;
        for (_, p) in world.live_nodes() {
            if p.is_joined() {
                joined += 1;
            }
            homed += p.homed_objects();
        }
        record("ring_size", joined as f64);
        record("homed_objects", homed as f64);
    }
}

/// The live joined node owning `key` per ring geometry: smallest clockwise
/// distance from the key.
fn live_ring_owner(world: &SimWorld<Squirrel>, key: ChordId) -> Option<NodeId> {
    world
        .live_nodes()
        .filter(|(_, n)| n.chord().is_joined())
        .map(|(id, n)| (id, key.distance_to(n.chord().me().id)))
        .min_by_key(|&(_, d)| d)
        .map(|(id, _)| id)
}

impl Engine<Squirrel> {
    /// Build the t=0 state. The initial population matches Flower-CDN's
    /// initial directory peers — same count, same per-locality placement,
    /// same (website, locality)-major interest assignment — here they are
    /// just ordinary Squirrel peers on one converged ring.
    pub fn new(params: SimParams, mode: SquirrelMode) -> SquirrelSim {
        Engine::build(params, Squirrel { mode })
    }

    /// The live node currently owning `key` per ring geometry (tests).
    pub fn ring_owner_of(&self, key: ChordId) -> Option<NodeId> {
        live_ring_owner(self.world(), key)
    }

    /// Ring-health probe for diagnostics: fraction of live joined nodes
    /// whose successor pointer is exactly the next live joined node, plus
    /// counts of stranded and predecessor-less nodes.
    pub fn ring_health(&self) -> (f64, usize, usize) {
        let mut members: Vec<(ChordId, NodeId, NodeRef, bool, bool)> = self
            .world()
            .live_nodes()
            .filter(|(_, n)| n.chord().is_joined())
            .map(|(id, n)| {
                (
                    n.chord().me().id,
                    id,
                    n.chord().successor(),
                    n.chord().is_stranded(),
                    n.chord().predecessor().is_none(),
                )
            })
            .collect();
        members.sort_by_key(|m| m.0 .0);
        let n = members.len();
        if n == 0 {
            return (1.0, 0, 0);
        }
        let mut ok = 0usize;
        for (i, m) in members.iter().enumerate() {
            let want = members[(i + 1) % n].1;
            if m.2.node == want {
                ok += 1;
            }
        }
        let stranded = members.iter().filter(|m| m.3).count();
        let predless = members.iter().filter(|m| m.4).count();
        (ok as f64 / n as f64, stranded, predless)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimDriver;
    use cdn_metrics::Provider;
    use simnet::Time;

    #[test]
    fn quick_squirrel_run_produces_queries_and_some_hits() {
        let mut params = SimParams::quick(150, 2 * 3_600_000);
        params.seed = 43;
        let mut sim = SquirrelSim::new(params, SquirrelMode::Directory);
        assert_eq!(sim.live_population(), 60);
        sim.run_until(Time::from_millis(2 * 3_600_000));
        let pop = sim.live_population();
        assert!((75..=260).contains(&pop), "population {pop}");
        let result = sim.finish();
        assert!(
            result.records.len() > 200,
            "{} records",
            result.records.len()
        );
        assert!(
            result.stats.hit_ratio() > 0.02,
            "hit ratio {}",
            result.stats.hit_ratio()
        );
        // Every query routes over the DHT — hops must be recorded.
        assert!(result.stats.mean_dht_hops() > 0.5);
    }

    #[test]
    fn squirrel_runs_are_deterministic() {
        let run = || {
            let mut params = SimParams::quick(80, 3_600_000);
            params.seed = 11;
            let r = SquirrelSim::new(params, SquirrelMode::Directory).run();
            (r.records.len(), r.stats.hits)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn home_store_mode_serves_from_home_nodes() {
        let mut params = SimParams::quick(150, 2 * 3_600_000);
        params.seed = 44;
        let r = SquirrelSim::new(params, SquirrelMode::HomeStore).run();
        let home_hits = r
            .records
            .iter()
            .filter(|q| q.provider == Provider::DirectoryPeer)
            .count();
        assert!(
            home_hits > 10,
            "home-store should serve from home nodes, got {home_hits}"
        );
    }

    #[test]
    #[should_panic(expected = "locality=6 is out of range: the topology has 6 localities")]
    fn out_of_range_scenario_targets_are_rejected_up_front() {
        let mut sim = SquirrelSim::new(SimParams::quick(60, 600_000), SquirrelMode::Directory);
        sim.apply_scenario(&"at 1m partition locality=6".parse().unwrap());
    }
}

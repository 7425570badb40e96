//! Flower-CDN as a simulated system: what [`Engine`] needs to know about
//! it ([`Flower`]), plus the directory and petal probes tests and examples
//! read off a [`FlowerSim`].

use chord::{Chord, ChordAction, ChordId};
use rand::rngs::StdRng;
use simnet::{LocalityId, NodeId, TraceEvent, TraceSink};
use workload::{Catalog, WebsiteId};

use crate::bootstrap::Bootstrap;
use crate::chaos_driver;
use crate::config::SimParams;
use crate::dring::DirPosition;
use crate::engine::{Engine, SimSystem, SimWorld};
use crate::experiments::System;
use crate::host::SimHost;
use crate::peer::{FlowerPeer, PeerCtx};

/// Flower-CDN: petals of content peers behind a D-ring of directory peers.
pub struct Flower;

/// The Flower-CDN simulation.
pub type FlowerSim = Engine<Flower>;

/// The simulator node type hosting the Flower-CDN machine.
pub type FlowerHost = SimHost<FlowerPeer>;

impl SimSystem for Flower {
    type Machine = FlowerPeer;

    const SYSTEM: System = System::FlowerCdn;

    fn initial_ring_id(_me: NodeId, website: WebsiteId, locality: LocalityId) -> ChordId {
        DirPosition::base(website, locality).chord_id()
    }

    /// The t=0 members are the initial D-ring: one directory peer per
    /// (website, locality) couple.
    fn initial_machine(
        &self,
        pcx: PeerCtx,
        me: NodeId,
        locality: LocalityId,
        chord: Chord,
        startup_actions: Vec<ChordAction>,
    ) -> FlowerPeer {
        let position = DirPosition::base(pcx.website, locality);
        FlowerPeer::new_initial_directory(pcx, me, locality, position, chord, startup_actions)
    }

    /// Arrivals start as clients and find their petal through D-ring.
    fn arriving(
        &self,
        pcx: PeerCtx,
        _registry: &Bootstrap,
        _rng: &mut StdRng,
    ) -> Option<impl FnOnce(NodeId, LocalityId) -> FlowerPeer + use<>> {
        Some(move |me, locality| FlowerPeer::new_client(pcx, me, locality))
    }

    fn directory_victims(
        world: &SimWorld<Flower>,
        _catalog: &Catalog,
        website: Option<u32>,
        count: Option<u32>,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        chaos_driver::sample_nodes(
            world,
            count.map_or(usize::MAX, |c| c as usize),
            None,
            rng,
            |_, p| {
                p.directory_position()
                    .is_some_and(|pos| website.is_none_or(|w| u32::from(pos.website.0) == w))
            },
        )
    }

    /// D-ring size and petal size statistics.
    fn sample_gauges(world: &SimWorld<Flower>, record: &mut dyn FnMut(&'static str, f64)) {
        let mut dirs = 0usize;
        let mut petal_total = 0usize;
        let mut petal_max = 0usize;
        let mut instance_max = 0u32;
        for (_, pos, load) in live_directories(world) {
            dirs += 1;
            petal_total += load;
            petal_max = petal_max.max(load);
            instance_max = instance_max.max(pos.instance);
        }
        record("dring_size", dirs as f64);
        record("petal_size_max", petal_max as f64);
        record("instance_depth_max", f64::from(instance_max));
        let mean = if dirs == 0 {
            0.0
        } else {
            petal_total as f64 / dirs as f64
        };
        record("petal_size_mean", mean);
    }

    /// One `became_directory` per held position, so a late-attached
    /// invariant checker knows the t=0 D-ring.
    fn replay_state(world: &SimWorld<Flower>, sink: &mut dyn TraceSink) {
        for (id, pos, _) in live_directories(world) {
            let mut fields = crate::tags::pos_fields(pos);
            fields.push(("replacement", false.into()));
            fields.push(("replayed", true.into()));
            sink.event(
                world.now(),
                &TraceEvent::Custom {
                    node: id,
                    name: crate::tags::BECAME_DIRECTORY,
                    fields,
                },
            );
        }
    }
}

/// Live directory peers with their positions and loads.
fn live_directories(
    world: &SimWorld<Flower>,
) -> impl Iterator<Item = (NodeId, DirPosition, usize)> + '_ {
    world.live_nodes().filter_map(|(id, p)| {
        p.directory_position()
            .map(|pos| (id, pos, p.directory_load().unwrap_or(0)))
    })
}

impl Engine<Flower> {
    /// Build the t=0 state: topology, origin servers, the initial D-ring of
    /// one directory peer per (website, locality), and the churn schedule.
    pub fn new(params: SimParams) -> FlowerSim {
        Engine::build(params, Flower)
    }

    /// Live directory peers right now.
    pub fn directory_count(&self) -> usize {
        live_directories(self.world()).count()
    }

    /// Petal size distribution: (position → content peers managed), over
    /// live directories.
    pub fn directory_loads(&self) -> Vec<(DirPosition, usize)> {
        live_directories(self.world())
            .map(|(_, pos, load)| (pos, load))
            .collect()
    }

    /// Live directory peers with their positions and loads.
    pub fn directories(&self) -> Vec<(NodeId, DirPosition, usize)> {
        live_directories(self.world()).collect()
    }

    /// Live content peers of a given petal (website, locality).
    pub fn petal_members(&self, position: DirPosition) -> Vec<NodeId> {
        self.world()
            .live_nodes()
            .filter(|(_, p)| {
                p.is_content()
                    && p.website() == position.website
                    && p.locality() == position.locality
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimDriver;
    use simnet::Time;

    #[test]
    fn quick_run_produces_hits_and_keeps_population() {
        let mut params = SimParams::quick(150, 2 * 3_600_000);
        params.seed = 42;
        let mut sim = FlowerSim::new(params);
        assert_eq!(sim.live_population(), 10 * 6, "initial D-ring size");
        sim.run_until(Time::from_millis(2 * 3_600_000));
        let pop = sim.live_population();
        assert!(
            (75..=260).contains(&pop),
            "population {pop} should hover near 150"
        );
        assert!(sim.directory_count() > 0, "directories survive churn");
        let result = sim.finish();
        assert!(
            result.records.len() > 200,
            "expected a meaningful query stream, got {}",
            result.records.len()
        );
        assert!(
            result.stats.hit_ratio() > 0.05,
            "hit ratio {} should be non-trivial",
            result.stats.hit_ratio()
        );
        assert!(result.stats.mean_lookup_ms() > 0.0);
    }

    #[test]
    fn gauges_sample_population_and_message_rates() {
        let mut params = SimParams::quick(60, 30 * 60_000);
        params.seed = 9;
        let mut sim = FlowerSim::new(params);
        let live = sim.enable_gauges(5 * 60_000);
        sim.run_until(Time::from_millis(30 * 60_000));
        // The live handle already carries the series mid-run.
        let mid_len = live.borrow().series("population").map_or(0, |s| s.len());
        assert!(
            mid_len >= 5,
            "expected ≥5 samples over 30 min, got {mid_len}"
        );
        let result = sim.finish();
        let pop = result
            .gauges
            .series("population")
            .expect("population series");
        assert_eq!(pop.len(), mid_len);
        assert!(pop.iter().all(|&(_, v)| v > 0.0));
        assert!(result.gauges.series("dring_size").is_some());
        assert!(result.gauges.series("petal_size_mean").is_some());
        assert!(
            result.gauges.names().iter().any(|n| n.starts_with("rate/")),
            "expected per-class message-rate series, got {:?}",
            result.gauges.names()
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| {
            let mut params = SimParams::quick(80, 3_600_000);
            params.seed = seed;
            let r = FlowerSim::new(params).run();
            (
                r.records.len(),
                r.stats.hits,
                r.stats.queries,
                r.replacements,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "website=500 is out of range: the catalog has 10 websites")]
    fn out_of_range_scenario_targets_are_rejected_up_front() {
        let mut sim = FlowerSim::new(SimParams::quick(60, 600_000));
        sim.apply_scenario(&"at 1m join-wave count=3 website=500".parse().unwrap());
    }
}

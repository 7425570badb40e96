//! # simnet — deterministic discrete-event network simulator
//!
//! A small, deterministic, single-threaded event-driven network simulator in
//! the spirit of PeerSim's event-driven engine, which the Flower-CDN paper
//! used for its evaluation. It models:
//!
//! * a virtual clock in milliseconds ([`Time`]),
//! * per-link one-way latencies derived from a synthetic 2-D topology with
//!   landmark-based locality binning ([`topology::Topology`]),
//! * message passing with delivery delay and silent loss to dead nodes,
//! * per-node timers,
//! * node lifecycle: spawn, silent fail (churn), graceful leave,
//! * measurement reports collected out-of-band.
//!
//! Like PeerSim as configured in the paper (§6.1), it deliberately does
//! **not** model bandwidth or CPU contention — only link latency.
//!
//! Protocol implementations are *sans-io*: they implement [`Node`] and speak
//! to the world only through the [`Ctx`] handed to their callbacks, which
//! makes every protocol unit-testable without a network.

pub mod conditioner;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;
pub mod world;

pub use conditioner::{LinkConditioner, LinkVerdict};
pub use time::Time;
pub use topology::{LatencyModel, LocalityId, Point, Topology, TopologyConfig};
pub use trace::{
    field_bool, field_str, field_u64, DropReason, FieldValue, Fields, LivenessChecker, TraceEvent,
    TraceSink, VecSink,
};
pub use world::{ClassCount, Ctx, Node, NodeId, World, WorldStats};

// The profiler handle worlds carry; re-exported so engine crates can name
// it without a direct `profile` dependency.
pub use profile::Profiler;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A node that pings a peer on a timer and counts replies; used to
    /// exercise delivery, latency, timers, failure-dropping and reports.
    struct Pinger {
        peer: Option<NodeId>,
        pongs: u32,
        sent_at: Option<Time>,
    }

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
    }

    #[derive(Clone)]
    enum Tmr {
        Fire,
    }

    /// Report: round-trip time of a ping.
    struct Rtt(u64);

    impl Node for Pinger {
        type Msg = Msg;
        type Timer = Tmr;
        type Report = Rtt;

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if self.peer.is_some() {
                ctx.set_timer(100, Tmr::Fire);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.pongs += 1;
                    if let Some(t) = self.sent_at.take() {
                        ctx.report(Rtt(ctx.now() - t));
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Self>, Tmr::Fire: Tmr) {
            if let Some(p) = self.peer {
                self.sent_at = Some(ctx.now());
                ctx.trace("ping_round", || vec![("peer", p.into())]);
                ctx.send(p, Msg::Ping);
                ctx.set_timer(1_000, Tmr::Fire);
            }
        }

        fn msg_class(msg: &Msg) -> &'static str {
            match msg {
                Msg::Ping => "ping",
                Msg::Pong => "pong",
            }
        }

        fn timer_class(_t: &Tmr) -> &'static str {
            "fire"
        }
    }

    fn new_world(seed: u64) -> World<Pinger, ()> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        World::new(topo, seed)
    }

    fn spawn_pair(world: &mut World<Pinger, ()>) -> (NodeId, NodeId) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let p = world.topology().sample_point(&mut rng);
        let b = world.spawn(p, |_, _| Pinger {
            peer: None,
            pongs: 0,
            sent_at: None,
        });
        let q = world.topology().sample_point(&mut rng);
        let a = world.spawn(q, |_, _| Pinger {
            peer: Some(b),
            pongs: 0,
            sent_at: None,
        });
        (a, b)
    }

    #[test]
    fn ping_pong_round_trips_match_topology_latency() {
        let mut world = new_world(1);
        let (a, b) = spawn_pair(&mut world);
        world.run(Time::from_secs(5), |_, ()| {});
        let pongs = world.node(a).unwrap().pongs;
        assert!(pongs >= 4, "expected ~5 pings, got {pongs}");
        let lat = world.topology().latency(a, b).max(1);
        for (_, id, Rtt(rtt)) in world.drain_reports() {
            assert_eq!(id, a);
            assert_eq!(rtt, 2 * lat, "RTT must equal twice the one-way latency");
        }
    }

    #[test]
    fn messages_to_failed_nodes_are_dropped() {
        let mut world = new_world(2);
        let (a, b) = spawn_pair(&mut world);
        world.run(Time::from_millis(50), |_, ()| {});
        world.fail(b);
        assert!(!world.is_live(b));
        world.run(Time::from_secs(5), |_, ()| {});
        assert_eq!(
            world.node(a).unwrap().pongs,
            0,
            "peer died before first ping"
        );
        assert!(world.stats().dropped > 0);
    }

    #[test]
    fn control_events_fire_in_order_and_can_mutate_world() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        let mut world: World<Pinger, u32> = World::new(topo, 3);
        let mut seen = Vec::new();
        world.schedule_control(Time::from_secs(2), 2u32);
        world.schedule_control(Time::from_secs(1), 1u32);
        world.schedule_control(Time::from_secs(3), 3u32);
        world.run(Time::from_secs(10), |w, c| {
            seen.push((w.now(), c));
            if c == 2 {
                let p = Point::new(500.0, 500.0);
                w.spawn(p, |_, _| Pinger {
                    peer: None,
                    pongs: 0,
                    sent_at: None,
                });
            }
        });
        assert_eq!(
            seen.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(world.live_count(), 1);
        assert_eq!(
            world.now(),
            Time::from_secs(10),
            "clock advances to horizon"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        // The seed's only randomness is the link conditioner's: jitter makes
        // the round trips depend on it.
        let run = |seed: u64| {
            let mut world = new_world(seed);
            world.conditioner_mut().set_faults(0.0, 0.0, 50);
            let (a, _b) = spawn_pair(&mut world);
            world.run(Time::from_secs(30), |_, ()| {});
            let rtts: Vec<u64> = world.drain_reports().map(|(_, _, Rtt(ms))| ms).collect();
            (world.node(a).unwrap().pongs, world.stats(), rtts)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).2, run(43).2);
    }

    #[test]
    fn graceful_leave_runs_on_leave_and_removes() {
        struct Leaver {
            notify: Option<NodeId>,
        }
        impl Node for Leaver {
            type Msg = u8;
            type Timer = ();
            type Report = ();
            fn on_start(&mut self, _ctx: &mut Ctx<Self>) {}
            fn on_message(&mut self, _ctx: &mut Ctx<Self>, _f: NodeId, _m: u8) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<Self>, _t: ()) {}
            fn on_leave(&mut self, ctx: &mut Ctx<Self>) {
                if let Some(n) = self.notify {
                    ctx.send(n, 7);
                }
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        let mut world: World<Leaver, ()> = World::new(topo, 5);
        let a = world.spawn(Point::new(100.0, 100.0), |_, _| Leaver { notify: None });
        let b = world.spawn(Point::new(110.0, 110.0), |_, _| Leaver { notify: Some(a) });
        world.leave(b);
        assert!(!world.is_live(b));
        world.run(Time::from_secs(1), |_, ()| {});
        assert!(
            world.stats().delivered >= 1,
            "farewell message was delivered"
        );
    }

    #[test]
    fn trace_sinks_observe_every_scheduler_step() {
        use crate::trace::{LivenessChecker, TraceEvent, VecSink};
        let mut world = new_world(11);
        let sink = VecSink::new();
        let checker = LivenessChecker::new();
        world.add_trace_sink(Box::new(sink.clone()));
        world.add_trace_sink(Box::new(checker.clone()));
        assert!(world.tracing());
        let (a, b) = spawn_pair(&mut world);
        world.run(Time::from_secs(3), |_, ()| {});
        world.fail(b);
        world.run(Time::from_secs(6), |_, ()| {});
        world.flush_trace_sinks();
        checker.assert_clean();

        let evs = sink.events();
        let lat = world.topology().latency(a, b).max(1);
        let spawns = evs
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::NodeSpawn { .. }))
            .count();
        assert_eq!(spawns, 2);
        assert!(evs.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::MsgSend { src, dst, class: "ping", latency_ms }
                if *src == a && *dst == b && *latency_ms == lat
        )));
        assert!(evs.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::MsgDeliver { class: "pong", dst, .. } if *dst == a
        )));
        assert!(
            evs.iter().any(|(_, e)| matches!(
                e,
                TraceEvent::MsgDrop { class: "ping", dst, .. } if *dst == b
            )),
            "pings after the failure must be dropped"
        );
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::TimerFire { class: "fire", .. })));
        assert!(evs.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Custom { name: "ping_round", node, .. } if *node == a
        )));
    }

    #[test]
    fn the_message_table_counts_sends_bytes_and_deliveries_per_class() {
        let run = |profiled: bool| {
            let mut world = new_world(11);
            world.count_messages();
            if profiled {
                world.profiler().enable();
            }
            let (_a, b) = spawn_pair(&mut world);
            world.run(Time::from_secs(3), |_, ()| {});
            world.fail(b);
            world.run(Time::from_secs(6), |_, ()| {});
            assert_eq!(
                world
                    .msg_counts()
                    .values()
                    .map(|c| c.delivered)
                    .sum::<u64>(),
                world.stats().delivered
            );
            (world.msg_counts()["ping"], world.msg_counts()["pong"])
        };
        let (ping, pong) = run(false);
        assert!(ping.sent >= 5 && pong.sent >= 2);
        assert!(
            ping.delivered < ping.sent,
            "pings to the dead are not deliveries"
        );
        assert_eq!(pong.delivered, pong.sent);
        assert_eq!(
            ping.bytes + pong.bytes,
            0,
            "bytes are measured only while profiling"
        );
        // A profiled run counts the same messages and their bytes
        // (`msg_wire_bytes` defaults to the one-byte in-memory size).
        let (pping, ppong) = run(true);
        assert_eq!((pping.sent, pping.delivered), (ping.sent, ping.delivered));
        assert_eq!((pping.bytes, ppong.bytes), (ping.sent, pong.sent));
    }

    #[test]
    fn tracing_off_is_inert_and_identical() {
        // Same seed with and without a sink: node-visible behaviour must be
        // bit-identical.
        let run = |traced: bool| {
            let mut world = new_world(12);
            if traced {
                world.add_trace_sink(Box::new(crate::trace::VecSink::new()));
            }
            let (a, _b) = spawn_pair(&mut world);
            world.run(Time::from_secs(30), |_, ()| {});
            let rtts: Vec<u64> = world.drain_reports().map(|(_, _, Rtt(ms))| ms).collect();
            (world.node(a).unwrap().pongs, world.stats(), rtts)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn node_ids_are_never_reused() {
        let mut world = new_world(6);
        let (a, b) = spawn_pair(&mut world);
        world.fail(a);
        world.fail(b);
        let c = world.spawn(Point::new(1.0, 1.0), |_, _| Pinger {
            peer: None,
            pongs: 0,
            sent_at: None,
        });
        assert!(c.index() > b.index().max(a.index()));
        assert_eq!(world.stats().spawned, 3);
        assert_eq!(world.stats().removed, 2);
    }

    /// `fail` and `leave` free the node's state at once — a dead peer keeps
    /// its id, not its memory.
    #[test]
    fn removed_nodes_release_their_state_immediately() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts its own drops and says `farewell` when it leaves.
        struct Mortal {
            drops: Rc<Cell<u32>>,
            farewell: Option<(NodeId, u8)>,
        }
        impl Drop for Mortal {
            fn drop(&mut self) {
                self.drops.set(self.drops.get() + 1);
            }
        }
        impl Node for Mortal {
            type Msg = u8;
            type Timer = ();
            type Report = ();
            fn on_start(&mut self, _ctx: &mut Ctx<Self>) {}
            fn on_message(&mut self, _ctx: &mut Ctx<Self>, _f: NodeId, _m: u8) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<Self>, _t: ()) {}
            fn on_leave(&mut self, ctx: &mut Ctx<Self>) {
                if let Some((to, m)) = self.farewell {
                    ctx.send(to, m);
                }
            }
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        let mut world: World<Mortal, ()> = World::new(topo, 10);
        let drops = Rc::new(Cell::new(0));
        let spawn = |world: &mut World<Mortal, ()>, farewell| {
            let drops = Rc::clone(&drops);
            world.spawn(Point::new(5.0, 5.0), |_, _| Mortal { drops, farewell })
        };
        let victim = spawn(&mut world, None);
        let survivor = spawn(&mut world, None);
        let herald = spawn(&mut world, Some((victim, 9)));
        let leaver = spawn(&mut world, Some((survivor, 0)));
        let gone = |world: &World<Mortal, ()>, id| !world.is_live(id) && world.node(id).is_none();

        world.leave(herald);
        assert_eq!(drops.get(), 1, "`leave` drops the state after `on_leave`");
        assert!(gone(&world, herald));

        // The herald's farewell is in flight to the victim.
        world.fail(victim);
        assert_eq!(drops.get(), 2, "`fail` drops the state at once");
        assert!(gone(&world, victim));

        world.leave(leaver);
        assert_eq!(drops.get(), 3);
        assert!(gone(&world, leaver));
        world.run(Time::from_secs(1), |_, ()| {});
        assert_eq!(world.stats().delivered, 1, "the leaver's farewell");
        assert_eq!(world.stats().dropped, 1, "the herald's, to a freed node");

        // Ids are not reused, and the living come out in id order.
        let late = spawn(&mut world, None);
        assert!(late.index() > leaver.index());
        let live: Vec<NodeId> = world.live_nodes().map(|(id, _)| id).collect();
        assert_eq!(live, vec![survivor, late]);
        assert_eq!(world.live_count(), 2);
        assert_eq!(drops.get(), 3, "the living keep their state");
        drop(world);
        assert_eq!(drops.get(), 5);
    }

    #[test]
    fn failing_a_node_reclaims_its_pending_timers() {
        struct Armer;
        impl Node for Armer {
            type Msg = ();
            type Timer = ();
            type Report = ();
            fn on_start(&mut self, ctx: &mut Ctx<Self>) {
                // Spread across the wheel's level-0 block, level 1 and the
                // overflow horizon so reclamation covers every residence.
                for i in 0..100u64 {
                    ctx.set_timer(10 + i * 1_000, ());
                }
                ctx.set_timer(20_000_000, ());
            }
            fn on_message(&mut self, _ctx: &mut Ctx<Self>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<Self>, _t: ()) {}
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let topo = Topology::new(TopologyConfig::default(), &mut rng);
        let mut world: World<Armer, ()> = World::new(topo, 9);
        let a = world.spawn(Point::new(0.0, 0.0), |_, _| Armer);
        world.run(Time::from_millis(5_000), |_, ()| {});
        let fired_before = world.stats().timers;
        let pending = world.queue_depth();
        assert!(pending > 50, "armed timers are pending");

        world.fail(a);
        assert_eq!(world.stats().timers_cancelled, pending as u64);
        // Wheel-resident entries are unlinked and reclaimed eagerly; only
        // the overflow-resident timer may leave a generation-checked key.
        assert_eq!(world.queue_depth(), 0, "no live entries remain");
        assert!(world.queue_dead() <= 1, "at most the overflow key is lazy");

        // The dead keys drain without delivering anything.
        world.run(Time::from_millis(30_000_000), |_, ()| {});
        assert_eq!(world.queue_dead(), 0);
        assert_eq!(
            world.stats().timers,
            fired_before,
            "no cancelled timer ever fired"
        );
    }
}

//! Bridges [`chaos`] scenarios into the experiment engine.
//!
//! [`Engine`](crate::engine::Engine) accepts a [`chaos::Scenario`] via
//! `apply_scenario`: every scheduled fault becomes an engine control
//! event, and the engine's control handler hands it to [`dispatch`], so
//! chaos shares the engine RNG stream and stays deterministic per (seed,
//! scenario).

use chaos::FaultAction;
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{LocalityId, Node, NodeId, World};
use workload::{sample_exp, WebsiteId};

use crate::engine::{Control, Controller, SimSystem, SimWorld};

/// Sample up to `count` distinct live nodes, optionally restricted to one
/// locality, keeping only nodes `keep` accepts. Selection is a partial
/// Fisher–Yates over the (deterministically ordered) live set, so the same
/// engine RNG state always picks the same victims.
pub(crate) fn sample_nodes<N: Node, C>(
    world: &World<N, C>,
    count: usize,
    locality: Option<LocalityId>,
    rng: &mut StdRng,
    keep: impl Fn(NodeId, &N) -> bool,
) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = world
        .live_nodes()
        .filter(|&(id, n)| {
            locality.is_none_or(|l| world.topology().locality(id) == l) && keep(id, n)
        })
        .map(|(id, _)| id)
        .collect();
    if count < ids.len() {
        for i in 0..count {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        ids.truncate(count);
    }
    ids
}

/// Execute one scheduled fault against the world of system `S`.
///
/// Peer-targeted faults pick their victims with the engine RNG (only
/// `kill-directories` is system-specific); environment faults act on the
/// world's link conditioner or the origin dial, and schedule their own
/// auto-heal / auto-revert tail when the fault carries one (`heal-after`,
/// `for`). Website and locality targets were bounds-checked by
/// `apply_scenario` ([`chaos::Scenario::check_bounds`]), so narrowing them
/// to `u16` loses nothing.
pub(crate) fn dispatch<S: SimSystem>(
    ctl: &mut Controller<S>,
    world: &mut SimWorld<S>,
    action: FaultAction,
) {
    use FaultAction as FA;
    let locality_id = |l: u32| LocalityId(l as u16);
    // Fire `action` again `after_ms` from now, if the fault asked for it.
    let follow_up = |world: &mut SimWorld<S>, after_ms: Option<u64>, action: FaultAction| {
        if let Some(after) = after_ms {
            world.schedule_control(world.now() + after, Control::Chaos(action));
        }
    };
    match action {
        FA::KillDirectories { website, count } => {
            let victims = S::directory_victims(world, &ctl.catalog, website, count, &mut ctl.rng);
            for id in victims {
                ctl.retire(world, id, false);
            }
        }
        FA::KillRandom { count, locality } => {
            let locality = locality.map(locality_id);
            let victims = sample_nodes(world, count as usize, locality, &mut ctl.rng, |_, _| true);
            for id in victims {
                ctl.retire(world, id, false);
            }
        }
        FA::LeaveWave { count } => {
            let leavers = sample_nodes(world, count as usize, None, &mut ctl.rng, |_, _| true);
            for id in leavers {
                ctl.retire(world, id, true);
            }
        }
        FA::JoinWave {
            count,
            website,
            lifetime_ms,
        } => {
            // A flash crowd: `count` fresh arrivals right now, drawn to one
            // website if set. Lifetimes follow the churn law unless pinned.
            for _ in 0..count {
                let website = match website {
                    Some(w) => WebsiteId(w as u16),
                    None => ctl.catalog.assign_interest(&mut ctl.rng),
                };
                let lifetime_ms = lifetime_ms.unwrap_or_else(|| {
                    sample_exp(&mut ctl.rng, ctl.params.mean_uptime_ms as f64).ceil() as u64
                });
                world.schedule_control(
                    world.now(),
                    Control::Spawn {
                        website,
                        lifetime_ms,
                        graceful: false,
                    },
                );
            }
        }
        FA::Partition {
            locality,
            heal_after_ms,
        } => {
            world.conditioner_mut().partition(locality_id(locality));
            let heal = FA::Heal {
                locality: Some(locality),
            };
            follow_up(world, heal_after_ms, heal);
        }
        FA::Heal { locality } => match locality {
            Some(l) => world.conditioner_mut().heal(locality_id(l)),
            None => world.conditioner_mut().heal_all(),
        },
        FA::LinkFault {
            loss,
            duplicate,
            jitter_ms,
            for_ms,
        } => {
            world
                .conditioner_mut()
                .set_faults(loss, duplicate, jitter_ms);
            follow_up(world, for_ms, FA::ClearLinkFault);
        }
        FA::ClearLinkFault => world.conditioner_mut().clear_faults(),
        FA::OriginBrownout {
            website,
            extra_ms,
            for_ms,
        } => {
            let website = website.map(|w| w as u16);
            ctl.lent.borrow_mut().dial.brownout(website, extra_ms);
            follow_up(world, for_ms, FA::OriginRestore);
        }
        FA::OriginRestore => ctl.lent.borrow_mut().dial.restore(),
    }
}

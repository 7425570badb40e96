//! Churn storm: stress the maintenance protocols of §5 with *scripted*
//! storm waves from the chaos scenario engine — each wave kills a slice of
//! the population outright and replaces it with fresh joiners — and watch
//! what happens to the hit ratio, the directory-repair rate and the lookup
//! latency as the storms intensify.
//!
//! The paper's claim: "our generic approach is extremely robust in a highly
//! dynamic environment" — the directory state is epidemically replicated
//! (push + gossip + dir-info), so a replacement directory rebuilds its
//! index instead of losing it, unlike Squirrel's single-point home nodes.
//!
//! ```sh
//! cargo run --release --example churn_storm
//! ```

use flower_cdn::{run_system_with, FaultAction, Scenario, SimParams, System};

/// Four storm waves in the second half of the run: each kills `frac` of
/// the mean population at random, then a join wave of the same size
/// arrives a minute later, keeping the population stationary — only the
/// *turnover* varies between rows.
fn storm(horizon: u64, population: usize, frac: f64) -> Scenario {
    let count = (population as f64 * frac) as u32;
    let mut sc = Scenario::new();
    for wave in 0..4u64 {
        let at = horizon / 4 + wave * horizon / 8;
        sc.push(
            at,
            FaultAction::KillRandom {
                count,
                locality: None,
            },
        );
        sc.push(
            at + 60_000,
            FaultAction::JoinWave {
                count,
                website: None,
                lifetime_ms: None,
            },
        );
    }
    sc
}

fn main() {
    let horizon = 2 * 3_600_000u64;
    let population = 240;
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>16} {:>9}",
        "storm size", "flower hit", "squirrel hit", "flower lookup", "squirrel lookup", "repairs"
    );
    for frac in [0.0, 0.1, 0.25, 0.5] {
        let mut params = SimParams::quick(population, horizon);
        params.seed = 11;
        // Hold the baseline churn and workload fixed across rows — only
        // the scripted storms vary.
        params.mean_uptime_ms = horizon / 2;
        params.query_period_ms = horizon / 48; // one query every 2.5 min
        params.gossip_period_ms = horizon / 8;
        params.catalog.websites = 6;
        params.catalog.active_websites = 3;
        params.catalog.objects_per_site = 200;
        let storm = (frac > 0.0).then(|| storm(horizon, population, frac));
        let run = |system| {
            run_system_with(system, params.clone(), |sim| {
                if let Some(sc) = &storm {
                    sim.apply_scenario(sc);
                }
            })
        };
        let (flower, squirrel) = (run(System::FlowerCdn), run(System::Squirrel));
        println!(
            "{:>9.0} % {:>12.3} {:>12.3} {:>11.0} ms {:>13.0} ms {:>9}",
            frac * 100.0,
            flower.stats.hit_ratio(),
            squirrel.stats.hit_ratio(),
            flower.stats.mean_lookup_ms(),
            squirrel.stats.mean_lookup_ms(),
            flower.replacements,
        );
    }
    println!();
    println!(
        "bigger storms → more directory deaths → more repairs. Both\n\
         systems lose hit ratio to the turnover, but Flower-CDN repairs\n\
         its directory layer (the repairs column), overtakes Squirrel\n\
         under the heaviest storm, and resolves queries faster at every\n\
         storm size — the §5 maintenance protocols at work."
    );
}

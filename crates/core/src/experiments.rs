//! Experiment drivers for §6: each paper artifact (Figure 3, Figure 4,
//! Figure 5, Table 2) is regenerated from comparison runs of Flower-CDN
//! and Squirrel under identical workload and churn laws.
//!
//! The drivers are scale-parametric: the bench harnesses call them with
//! [`SimParams::paper_defaults`] (24 h, P up to 5000); tests call them with
//! [`SimParams::quick`]. Runs for different systems/populations execute on
//! separate OS threads (each simulation is single-threaded and
//! self-contained).

use cdn_metrics::{fig4_lookup_edges, fig5_transfer_edges, Histogram, HitRatioSeries, QueryRecord};

use crate::config::SimParams;
use crate::driver::SimDriver;
use crate::engine::RunResult;
use crate::flower::FlowerSim;
use crate::squirrel::{SquirrelMode, SquirrelSim};

/// Which system a result row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum System {
    FlowerCdn,
    Squirrel,
}

impl System {
    pub fn label(self) -> &'static str {
        match self {
            System::FlowerCdn => "Flower-CDN",
            System::Squirrel => "Squirrel",
        }
    }
}

/// Build the simulation for `system`, let `customize` attach sinks /
/// gauges / scenarios through the [`SimDriver`] surface, run it to the
/// horizon and collect the results. This is the single entry point every
/// harness and the sweep orchestrator funnel through — no caller needs
/// the concrete sim types.
pub fn run_system_with(
    system: System,
    params: SimParams,
    customize: impl FnOnce(&mut dyn SimDriver),
) -> RunResult {
    match system {
        System::FlowerCdn => {
            let mut sim = FlowerSim::new(params);
            customize(&mut sim);
            sim.run()
        }
        System::Squirrel => {
            let mut sim = SquirrelSim::new(params, SquirrelMode::Directory);
            customize(&mut sim);
            sim.run()
        }
    }
}

/// [`run_system_with`] without customization.
pub fn run_system(system: System, params: SimParams) -> RunResult {
    run_system_with(system, params, |_| {})
}

/// Both systems run under the same parameters.
pub struct ComparisonRun {
    pub params: SimParams,
    pub flower: RunResult,
    pub squirrel: RunResult,
}

/// Run Flower-CDN and Squirrel side by side (two OS threads).
pub fn run_comparison(params: SimParams) -> ComparisonRun {
    let (flower, squirrel) = std::thread::scope(|s| {
        let squirrel = s.spawn(|| run_system(System::Squirrel, params.clone()));
        let flower = run_system(System::FlowerCdn, params.clone());
        (flower, squirrel.join().expect("squirrel run"))
    });
    ComparisonRun {
        params,
        flower,
        squirrel,
    }
}

/// Figure 3: cumulative hit ratio over time. Returns `(hours, ratio)`
/// points, one per bucket.
pub fn hit_ratio_series(records: &[QueryRecord], bucket_ms: u64) -> Vec<(f64, f64)> {
    let mut s = HitRatioSeries::new(bucket_ms);
    for r in records {
        s.record(r);
    }
    s.cumulative()
        .into_iter()
        .map(|(ms, ratio)| (ms as f64 / 3_600_000.0, ratio))
        .collect()
}

/// Figure 4: lookup latency distribution over the paper's bucket edges.
pub fn lookup_histogram(records: &[QueryRecord]) -> Histogram {
    let mut h = Histogram::new(fig4_lookup_edges());
    for r in records {
        h.record(r.lookup_ms);
    }
    h
}

/// Figure 5: transfer distance distribution over the paper's bucket edges.
pub fn transfer_histogram(records: &[QueryRecord]) -> Histogram {
    let mut h = Histogram::new(fig5_transfer_edges());
    for r in records {
        h.record(r.transfer_ms);
    }
    h
}

/// Maintenance-ablation variant knobs (experiment A2 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceVariant {
    /// The full §5 protocol suite.
    Full,
    /// Push messages suppressed: replacement directories can only rebuild
    /// from keepalives and redirects (no content re-registration).
    NoPush,
    /// Gossip suppressed: no dir-info dissemination, no summary spread —
    /// queries resolve only via the directory.
    NoGossip,
}

impl MaintenanceVariant {
    /// Rewrite `params` so the variant's mechanism can never fire. The
    /// bench binaries use this to express variants as plain sweep cells.
    pub fn apply(self, params: &mut SimParams) {
        match self {
            MaintenanceVariant::Full => {}
            MaintenanceVariant::NoPush => {
                // A threshold above 1.0 can never be crossed: pushes stop.
                params.push_threshold = f64::INFINITY;
            }
            MaintenanceVariant::NoGossip => {
                // Gossip periods beyond the horizon never fire.
                params.gossip_period_ms = params.horizon_ms * 10;
            }
        }
    }
}

/// Run Flower-CDN with parts of the maintenance machinery disabled, to
/// quantify what each contributes (the paper argues §5 is what keeps the
/// hit ratio climbing under churn; this measures it).
pub fn run_maintenance_variant(params: SimParams, variant: MaintenanceVariant) -> RunResult {
    let mut params = params;
    variant.apply(&mut params);
    run_system(System::FlowerCdn, params)
}

/// A reduced-scale configuration that preserves the *ratios* that drive the
/// paper's comparison: ~10 queries per session (query period = uptime/10),
/// petals of ~5+ concurrent members (P·active/(|W|·k)), several uptimes per
/// horizon, and an object space a petal can only partially cover.
pub fn shape_params(population: usize, seed: u64) -> SimParams {
    let mut p = SimParams::paper_defaults(population);
    p.seed = seed;
    p.horizon_ms = 4 * 3_600_000; // 4 h
    p.mean_uptime_ms = 40 * 60_000; // 40 min → 6 lifetimes per horizon
    p.query_period_ms = 4 * 60_000; // uptime/10, as in the paper
    p.gossip_period_ms = 40 * 60_000; // = uptime, as in the paper
    p.catalog.websites = 20;
    p.catalog.active_websites = 4;
    p.catalog.objects_per_site = 300;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(seed: u64) -> SimParams {
        let mut p = SimParams::quick(150, 2 * 3_600_000);
        p.seed = seed;
        p
    }

    /// A fast configuration that still preserves the regime where the
    /// paper's comparison lives: dense petals (~15 concurrent members) and
    /// heavy churn (uptime = horizon/6), so the locality-aware directory
    /// machinery has something to win with.
    fn shape_test_params(seed: u64) -> SimParams {
        let mut p = SimParams::quick(240, 2 * 3_600_000);
        p.seed = seed;
        p.mean_uptime_ms = p.horizon_ms / 6;
        p.query_period_ms = p.mean_uptime_ms / 12;
        p.gossip_period_ms = p.mean_uptime_ms;
        p.catalog.websites = 6;
        p.catalog.active_websites = 3;
        p.catalog.objects_per_site = 200;
        p
    }

    #[test]
    fn comparison_shape_matches_paper() {
        // The paper's headline (§6.2): under heavy churn Flower-CDN ends
        // with a higher hit ratio and much lower lookup latency than
        // Squirrel. Run at a reduced but regime-preserving scale.
        let run = run_comparison(shape_test_params(1234));
        let f = &run.flower.stats;
        let s = &run.squirrel.stats;
        assert!(
            f.hit_ratio() > s.hit_ratio(),
            "flower {:.3} should beat squirrel {:.3}",
            f.hit_ratio(),
            s.hit_ratio()
        );
        assert!(
            f.mean_lookup_ms() * 1.5 < s.mean_lookup_ms(),
            "flower lookup {:.0} ms should be well below squirrel {:.0} ms \
             (the factor widens with scale; see EXPERIMENTS.md)",
            f.mean_lookup_ms(),
            s.mean_lookup_ms()
        );
        assert!(
            f.mean_transfer_ms() < s.mean_transfer_ms(),
            "flower transfer {:.0} should undercut squirrel {:.0}",
            f.mean_transfer_ms(),
            s.mean_transfer_ms()
        );
    }

    #[test]
    fn histograms_cover_all_records() {
        let run = run_comparison(quick_params(99));
        let h = lookup_histogram(&run.flower.records);
        assert_eq!(h.total() as usize, run.flower.records.len());
        let t = transfer_histogram(&run.squirrel.records);
        assert_eq!(t.total() as usize, run.squirrel.records.len());
        let series = hit_ratio_series(&run.flower.records, 600_000);
        assert!(!series.is_empty());
        let last = series.last().unwrap().1;
        assert!((last - run.flower.stats.hit_ratio()).abs() < 1e-9);
    }
}

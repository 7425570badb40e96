//! Simulation parameters — Table 1 of the paper, plus the protocol knobs
//! the paper fixes in prose.

use chord::ChordConfig;
use simnet::TopologyConfig;
use workload::{CatalogConfig, ChurnConfig};

use crate::store::StorePolicy;

/// Gossip descriptors older than this many periods are evicted.
pub(crate) const VIEW_MAX_AGE: u32 = 6;
/// Entries sent per gossip shuffle.
pub(crate) const SHUFFLE_LEN: usize = 5;

/// All parameters of one simulation run. [`SimParams::paper_defaults`]
/// reproduces Table 1 exactly; experiments vary `population` (Table 2) and
/// tests shrink the time constants.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Mean live population `P` (Table 1: 2000–5000).
    pub population: usize,
    /// Experiment horizon (Table 1: 24 h).
    pub horizon_ms: u64,
    /// Mean peer uptime `m` (Table 1: 60 min).
    pub mean_uptime_ms: u64,
    /// Fraction of sessions ending in a graceful leave (handover) rather
    /// than a silent fail. The paper's model is fail-only (0.0).
    pub leave_probability: f64,
    /// Mean gap between queries at an active peer (Table 1: 6 min).
    pub query_period_ms: u64,
    /// Gossip and keepalive period (Table 1: 1 h).
    pub gossip_period_ms: u64,
    /// Push threshold: fraction of new content beyond which a content peer
    /// pushes an update to its directory (Table 1: 0.5).
    pub push_threshold: f64,
    /// Directory capacity limit for PetalUp-CDN splitting, in content peers
    /// per directory instance ("compared against a predefined limit", §4).
    /// The paper's petals never exceed 30 peers, so 30 keeps the headline
    /// runs split-free; the PetalUp ablation lowers it.
    pub directory_capacity: usize,
    /// Cache replacement policy for peer content stores. The paper assumes
    /// unlimited storage (§6.1 and its footnote); `Lru` relaxes that and is
    /// measured by the `ablation_cache` bench.
    pub store_policy: StorePolicy,
    /// RPC deadline for application messages (fetch, keepalive ack, …).
    pub rpc_timeout_ms: u64,
    /// Workload shape (|W| = 100 websites × 500 objects, 6 active, Zipf).
    pub catalog: CatalogConfig,
    /// Topology shape (k = 6 localities, 10–500 ms links).
    pub topology: TopologyConfig,
    /// Chord tuning for D-ring (Flower) / the whole overlay (Squirrel).
    pub chord: ChordConfig,
    /// RNG seed; same seed → identical run.
    pub seed: u64,
}

impl SimParams {
    /// Table 1 of the paper, for mean population `p`.
    pub fn paper_defaults(p: usize) -> SimParams {
        SimParams {
            population: p,
            horizon_ms: 24 * 3_600_000,
            mean_uptime_ms: 60 * 60_000,
            leave_probability: 0.0,
            query_period_ms: 6 * 60_000,
            gossip_period_ms: 3_600_000,
            push_threshold: 0.5,
            directory_capacity: 30,
            store_policy: StorePolicy::Unlimited,
            rpc_timeout_ms: 1_200,
            catalog: CatalogConfig::default(),
            topology: TopologyConfig::default(),
            chord: ChordConfig::default(),
            seed: 0xF10E,
        }
    }

    /// A scaled-down configuration for tests and quick examples: smaller
    /// population, shorter horizon, faster periods — same protocol.
    pub fn quick(population: usize, horizon_ms: u64) -> SimParams {
        let mut p = SimParams::paper_defaults(population);
        p.horizon_ms = horizon_ms;
        p.mean_uptime_ms = horizon_ms / 4;
        p.query_period_ms = horizon_ms / 240;
        p.gossip_period_ms = horizon_ms / 24;
        p.catalog.websites = 10;
        p.catalog.active_websites = 3;
        p.catalog.objects_per_site = 100;
        p.chord.stabilize_period_ms = 5_000;
        p.chord.fix_fingers_period_ms = 2_500;
        p.chord.check_predecessor_period_ms = 5_000;
        p
    }

    /// The churn model this parameter set implies.
    pub fn churn(&self) -> ChurnConfig {
        ChurnConfig {
            target_population: self.population,
            mean_uptime_ms: self.mean_uptime_ms,
            horizon_ms: self.horizon_ms,
            leave_probability: self.leave_probability,
        }
    }

    /// Initial D-ring size: one directory peer per (website, locality)
    /// couple — the paper's `k × |W| = 600`.
    pub fn initial_directories(&self) -> usize {
        self.catalog.websites as usize * self.topology.localities as usize
    }

    /// Render the Table 1 parameter block (used by every bench harness).
    pub fn table1(&self) -> String {
        let t = &self.topology.latency;
        format!(
            "Table 1: Simulation Parameters\n\
             Latency (ms)                 {}-{}\n\
             Nb of localities (k)         {}\n\
             Nb of websites (|W|)         {}\n\
             Active websites              {}\n\
             Mean population size (P)     {}\n\
             Mean uptime of a peer (m)    {} min\n\
             Nb of objects/website        {}\n\
             Query rate at a peer         1 query every {} min\n\
             Push threshold               {}\n\
             Gossip/keepalive period      {} min\n\
             Zipf exponent                {}\n",
            t.min_ms,
            t.max_ms,
            self.topology.localities,
            self.catalog.websites,
            self.catalog.active_websites,
            self.population,
            self.mean_uptime_ms / 60_000,
            self.catalog.objects_per_site,
            self.query_period_ms / 60_000,
            self.push_threshold,
            self.gossip_period_ms / 60_000,
            self.catalog.zipf_alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let p = SimParams::paper_defaults(3_000);
        assert_eq!(p.population, 3_000);
        assert_eq!(p.horizon_ms, 86_400_000);
        assert_eq!(p.mean_uptime_ms, 3_600_000);
        assert_eq!(p.query_period_ms, 360_000);
        assert_eq!(p.gossip_period_ms, 3_600_000);
        assert_eq!(p.push_threshold, 0.5);
        assert_eq!(p.catalog.websites, 100);
        assert_eq!(p.catalog.objects_per_site, 500);
        assert_eq!(p.catalog.active_websites, 6);
        assert_eq!(p.topology.localities, 6);
        assert_eq!(p.topology.latency.min_ms, 10);
        assert_eq!(p.topology.latency.max_ms, 500);
        assert_eq!(p.initial_directories(), 600);
    }

    #[test]
    fn churn_derivation() {
        let p = SimParams::paper_defaults(3_000);
        let c = p.churn();
        assert_eq!(c.target_population, 3_000);
        // Arrival rate P/m: 3000 peers / 60 min.
        let per_min = c.arrival_rate_per_ms() * 60_000.0;
        assert!((per_min - 50.0).abs() < 1e-9);
    }

    #[test]
    fn table1_renders_key_values() {
        let s = SimParams::paper_defaults(5_000).table1();
        assert!(s.contains("10-500"));
        assert!(s.contains("5000"));
        assert!(s.contains("60 min"));
        assert!(s.contains("every 6 min"));
    }

    #[test]
    fn quick_config_is_consistent() {
        let p = SimParams::quick(200, 7_200_000);
        assert_eq!(p.horizon_ms, 7_200_000);
        assert!(p.query_period_ms > 0 && p.gossip_period_ms > 0);
        assert!(p.catalog.active_websites <= p.catalog.websites);
    }
}

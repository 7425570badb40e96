//! # cdn-metrics — measurement pipeline for the Flower-CDN reproduction
//!
//! The paper evaluates with three metrics (§6): *hit ratio*, *lookup
//! latency* and *transfer distance*. This crate owns their definitions so
//! that the Flower-CDN engine, the Squirrel baseline and the bench
//! harnesses all measure the same thing:
//!
//! * [`query::QueryRecord`] / [`query::QueryStats`] — one record per
//!   completed query and streaming aggregates over them;
//! * [`histogram::Histogram`] — fixed-edge latency distributions
//!   (Figures 4 and 5);
//! * [`series::HitRatioSeries`] — time-bucketed hit-ratio evolution
//!   (Figure 3);
//! * [`report`] — CSV export plus ASCII line/bar/table renderings so every
//!   regenerated figure is readable in a terminal;
//! * [`gauges::GaugeRegistry`] — sampled time-series gauges (petal sizes,
//!   D-ring size, live population, per-class message rates);
//! * [`trace_jsonl`] — a [`simnet::TraceSink`] that streams structured
//!   trace events as JSON lines, plus a parser to read them back.
//!
//! ```
//! use cdn_metrics::{Histogram, fig4_lookup_edges};
//! let mut h = Histogram::new(fig4_lookup_edges());
//! h.record(120);   // a petal-local lookup
//! h.record(1900);  // a DHT-routed lookup
//! assert_eq!(h.fraction_within(150), 0.5);
//! assert_eq!(h.fraction_overflow(), 0.5);
//! ```

pub mod gauges;
pub mod histogram;
pub mod query;
pub mod report;
pub mod run_summary;
pub mod series;
pub mod trace_jsonl;

pub use gauges::GaugeRegistry;
pub use histogram::Histogram;
pub use query::{Provider, QueryRecord, QueryStats, ResolvedVia};
pub use report::{ascii_bars, ascii_lines, ascii_table, Csv};
pub use run_summary::RunSummary;
pub use series::HitRatioSeries;
pub use trace_jsonl::{json_escape, parse_trace_line, JsonlTraceWriter, TraceLine};

/// The bucket edges used to report Figure 4 (lookup latency distribution).
/// The paper's prose anchors 150 ms and 1200 ms; intermediate edges give
/// the bar chart its shape.
pub fn fig4_lookup_edges() -> Vec<u64> {
    vec![150, 300, 600, 900, 1200]
}

/// The bucket edges used to report Figure 5 (transfer distance
/// distribution). The paper's prose anchors 100 ms.
pub fn fig5_transfer_edges() -> Vec<u64> {
    vec![100, 200, 300, 400, 500]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_edges_include_paper_anchors() {
        assert!(fig4_lookup_edges().contains(&150));
        assert!(fig4_lookup_edges().contains(&1200));
        assert!(fig5_transfer_edges().contains(&100));
    }

    #[test]
    fn edges_are_valid_histogram_inputs() {
        let _ = Histogram::new(fig4_lookup_edges());
        let _ = Histogram::new(fig5_transfer_edges());
    }
}

//! The schema-stable scalar summary of one finished run.
//!
//! Every bench binary and the sweep orchestrator serialize run results
//! through this one type, so the CSV column set, the ordering and the
//! float precision are fixed in exactly one place. The
//! representation is deliberately flat (no nesting, no optional keys):
//! byte-identical output for identical runs is part of the repo's
//! determinism contract and is asserted in tests.

use std::fmt;

use crate::report::Csv;

/// Scalar metrics of one run, in the fixed schema order of
/// [`RunSummary::COLUMNS`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub queries: u64,
    pub hits: u64,
    pub hit_ratio: f64,
    pub mean_lookup_ms: f64,
    pub mean_transfer_ms: f64,
    pub mean_dht_hops: f64,
    pub messages_delivered: u64,
    pub messages_per_query: f64,
    pub replacements: u64,
    pub splits: u64,
    pub peak_population: u64,
}

/// One column's value and how it is written: counts exactly, reals with a
/// fixed number of decimals.
#[derive(Clone, Copy)]
enum Value {
    Count(u64),
    Real(f64, usize),
}
use Value::{Count, Real};

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Count(n) => write!(f, "{n}"),
            Real(v, decimals) => write!(f, "{v:.decimals$}"),
        }
    }
}

type Column = (&'static str, fn(&RunSummary) -> Value);

/// The schema: every column's name, where its value lives and its
/// precision (ratios 6 decimals, latencies/hops/rates 3), in serialization
/// order. CSV headers and cells and [`RunSummary::metrics`] are all read
/// off this one table.
const SCHEMA: [Column; 11] = [
    ("queries", |s| Count(s.queries)),
    ("hits", |s| Count(s.hits)),
    ("hit_ratio", |s| Real(s.hit_ratio, 6)),
    ("mean_lookup_ms", |s| Real(s.mean_lookup_ms, 3)),
    ("mean_transfer_ms", |s| Real(s.mean_transfer_ms, 3)),
    ("mean_dht_hops", |s| Real(s.mean_dht_hops, 3)),
    ("messages_delivered", |s| Count(s.messages_delivered)),
    ("messages_per_query", |s| Real(s.messages_per_query, 3)),
    ("replacements", |s| Count(s.replacements)),
    ("splits", |s| Count(s.splits)),
    ("peak_population", |s| Count(s.peak_population)),
];

impl RunSummary {
    /// Column names, in serialization order.
    pub const COLUMNS: [&'static str; 11] = {
        let mut names = [""; 11];
        let mut i = 0;
        while i < names.len() {
            names[i] = SCHEMA[i].0;
            i += 1;
        }
        names
    };

    /// Every metric as `(name, value)` in schema order — the aggregation
    /// substrate: mean/stddev/CI are computed over these per-name across
    /// seeds, so aggregate rows inherit the schema ordering.
    pub fn metrics(&self) -> [(&'static str, f64); 11] {
        SCHEMA.map(|(name, get)| match get(self) {
            Count(n) => (name, n as f64),
            Real(v, _) => (name, v),
        })
    }

    /// CSV cell per column, fixed precision.
    pub fn csv_fields(&self) -> Vec<String> {
        SCHEMA
            .iter()
            .map(|(_, get)| get(self).to_string())
            .collect()
    }

    /// A [`Csv`] whose header is `prefix ++ COLUMNS` — the one way every
    /// binary builds a per-run results file.
    pub fn csv_with_prefix(prefix: &[&str]) -> Csv {
        let mut header: Vec<&str> = prefix.to_vec();
        header.extend_from_slice(&Self::COLUMNS);
        Csv::new(&header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            queries: 1000,
            hits: 640,
            hit_ratio: 0.64,
            mean_lookup_ms: 151.25,
            mean_transfer_ms: 88.5,
            mean_dht_hops: 2.75,
            messages_delivered: 123456,
            messages_per_query: 123.456,
            replacements: 7,
            splits: 2,
            peak_population: 311,
        }
    }

    #[test]
    fn columns_fields_and_metrics_agree_in_order_and_width() {
        let s = sample();
        assert_eq!(s.csv_fields().len(), RunSummary::COLUMNS.len());
        let names: Vec<&str> = s.metrics().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, RunSummary::COLUMNS);
    }

    #[test]
    fn serialization_is_reproducible() {
        assert_eq!(sample().csv_fields(), sample().csv_fields());
    }

    #[test]
    fn prefixed_csv_has_full_header() {
        let c = RunSummary::csv_with_prefix(&["cell", "seed"]);
        let header = c.as_str().lines().next().unwrap();
        assert!(header.starts_with("cell,seed,queries,"));
        assert!(header.ends_with("peak_population"));
    }
}

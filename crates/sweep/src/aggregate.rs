//! Aggregation across seeds and the schema-stable sweep output files.
//!
//! Two artifacts per sweep, both deterministic (fixed row order, fixed
//! precision, no wall-clock content — timing goes to stderr only):
//!
//! * `runs.csv` — one row per (cell, seed): the full [`RunSummary`];
//! * `summary.csv` — long format, one row per (cell, metric):
//!   mean / sample stddev / 95% CI across the cell's seeds.

use cdn_metrics::{Csv, RunSummary};

use crate::exec::CellResult;

/// Mean, sample standard deviation and 95% confidence half-width of one
/// metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricAgg {
    pub n: usize,
    pub mean: f64,
    /// Sample stddev (n−1 denominator); 0 for fewer than two runs.
    pub stddev: f64,
    /// 95% normal-approximation half-width: `1.96·σ/√n`.
    pub ci95: f64,
}

/// Aggregate a metric's per-seed values. Summation follows the given
/// (seed) order, so the result is bit-stable for a fixed grid.
pub fn aggregate(values: &[f64]) -> MetricAgg {
    let n = values.len();
    if n == 0 {
        return MetricAgg {
            n: 0,
            mean: 0.0,
            stddev: 0.0,
            ci95: 0.0,
        };
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let stddev = if n < 2 {
        0.0
    } else {
        let ss = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>();
        (ss / (n - 1) as f64).sqrt()
    };
    let ci95 = if n < 2 {
        0.0
    } else {
        1.96 * stddev / (n as f64).sqrt()
    };
    MetricAgg {
        n,
        mean,
        stddev,
        ci95,
    }
}

/// `runs.csv`: one row per (cell, seed), cells in grid order, seeds in
/// seed-list order.
pub fn runs_csv(results: &[CellResult]) -> Csv {
    let mut csv = RunSummary::csv_with_prefix(&["cell", "system", "population", "seed"]);
    for cell in results {
        for (seed, summary) in &cell.runs {
            let mut fields = vec![
                cell.label.clone(),
                cell.system.label().to_string(),
                cell.population.to_string(),
                seed.to_string(),
            ];
            fields.extend(summary.csv_fields());
            csv.row(&fields);
        }
    }
    csv
}

/// `summary.csv`: long format, one row per (cell, metric) in schema
/// order, aggregated across the cell's seeds.
pub fn summary_csv(results: &[CellResult]) -> Csv {
    let mut csv = Csv::new(&[
        "cell",
        "system",
        "population",
        "runs",
        "metric",
        "mean",
        "stddev",
        "ci95",
    ]);
    for cell in results {
        for metric in RunSummary::COLUMNS {
            let agg = cell.agg(metric);
            csv.row(&[
                cell.label.clone(),
                cell.system.label().to_string(),
                cell.population.to_string(),
                agg.n.to_string(),
                metric.to_string(),
                format!("{:.6}", agg.mean),
                format!("{:.6}", agg.stddev),
                format!("{:.6}", agg.ci95),
            ]);
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_cdn::System;

    fn summary(hit_ratio: f64, queries: u64) -> RunSummary {
        RunSummary {
            queries,
            hits: (hit_ratio * queries as f64) as u64,
            hit_ratio,
            mean_lookup_ms: 100.0,
            mean_transfer_ms: 50.0,
            mean_dht_hops: 2.0,
            messages_delivered: 10 * queries,
            messages_per_query: 10.0,
            replacements: 1,
            splits: 0,
            peak_population: 100,
        }
    }

    fn cell() -> CellResult {
        CellResult {
            label: "c0".into(),
            system: System::FlowerCdn,
            population: 100,
            runs: vec![(1, summary(0.5, 1000)), (2, summary(0.7, 1000))],
            perf: Vec::new(),
        }
    }

    #[test]
    fn aggregate_mean_stddev_ci() {
        let a = aggregate(&[0.5, 0.7]);
        assert_eq!(a.n, 2);
        assert!((a.mean - 0.6).abs() < 1e-12);
        // sample stddev of {0.5, 0.7} is 0.1·√2 ≈ 0.141421
        assert!((a.stddev - 0.141_421_356).abs() < 1e-6);
        assert!((a.ci95 - 1.96 * a.stddev / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_run_has_zero_spread() {
        let a = aggregate(&[0.42]);
        assert_eq!(a.mean, 0.42);
        assert_eq!(a.stddev, 0.0);
        assert_eq!(a.ci95, 0.0);
    }

    #[test]
    fn runs_csv_one_row_per_seed() {
        let csv = runs_csv(&[cell()]);
        let lines: Vec<&str> = csv.as_str().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 seeds
        assert!(lines[1].starts_with("c0,Flower-CDN,100,1,1000,"));
        assert!(lines[2].starts_with("c0,Flower-CDN,100,2,1000,"));
    }

    #[test]
    fn summary_csv_one_row_per_metric() {
        let csv = summary_csv(&[cell()]);
        let lines: Vec<&str> = csv.as_str().lines().collect();
        assert_eq!(lines.len(), 1 + RunSummary::COLUMNS.len());
        let hit = lines
            .iter()
            .find(|l| l.contains(",hit_ratio,"))
            .expect("hit_ratio row");
        assert!(hit.contains(",0.600000,"), "{hit}");
    }
}

//! Time-bucketed series for "evolution of hit ratio with time" (Figure 3).

use crate::query::QueryRecord;

/// Accumulates (hits, total) per fixed-width time bucket and renders either
/// the per-bucket or the cumulative hit-ratio curve. The paper's Fig. 3
/// shows hit ratio *improving over 24 hours* and quotes the end-of-run
/// value, which corresponds to the cumulative reading.
#[derive(Debug, Clone)]
pub struct HitRatioSeries {
    bucket_ms: u64,
    hits: Vec<u64>,
    totals: Vec<u64>,
}

impl HitRatioSeries {
    pub fn new(bucket_ms: u64) -> HitRatioSeries {
        assert!(bucket_ms > 0);
        HitRatioSeries {
            bucket_ms,
            hits: Vec::new(),
            totals: Vec::new(),
        }
    }

    pub fn record(&mut self, q: &QueryRecord) {
        self.record_at(q.issued_at_ms, q.is_hit());
    }

    pub fn record_at(&mut self, at_ms: u64, hit: bool) {
        let idx = (at_ms / self.bucket_ms) as usize;
        if idx >= self.totals.len() {
            self.totals.resize(idx + 1, 0);
            self.hits.resize(idx + 1, 0);
        }
        self.totals[idx] += 1;
        if hit {
            self.hits[idx] += 1;
        }
    }

    /// Number of buckets touched.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// `(bucket_end_ms, cumulative_ratio)` per bucket.
    pub fn cumulative(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.totals.len());
        let mut h_acc = 0u64;
        let mut t_acc = 0u64;
        for (i, (&h, &t)) in self.hits.iter().zip(&self.totals).enumerate() {
            h_acc += h;
            t_acc += t;
            let r = if t_acc == 0 {
                0.0
            } else {
                h_acc as f64 / t_acc as f64
            };
            out.push(((i as u64 + 1) * self.bucket_ms, r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_by_time() {
        let mut s = HitRatioSeries::new(100);
        s.record_at(10, true);
        s.record_at(20, false);
        s.record_at(150, true);
        s.record_at(350, true);
        assert_eq!(s.len(), 4);
        let c = s.cumulative();
        assert_eq!(c[0], (100, 0.5));
        assert_eq!(c[1], (200, 2.0 / 3.0));
        // Empty bucket 2 carries the running ratio.
        assert_eq!(c[2], (300, 2.0 / 3.0));
        assert_eq!(c[3], (400, 0.75));
    }

    #[test]
    fn cumulative_is_running_ratio() {
        let mut s = HitRatioSeries::new(100);
        s.record_at(10, false);
        s.record_at(110, true);
        s.record_at(210, true);
        let c = s.cumulative();
        assert_eq!(c[0].1, 0.0);
        assert_eq!(c[1].1, 0.5);
        assert!((c[2].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let s = HitRatioSeries::new(1_000);
        assert!(s.is_empty());
        assert!(s.cumulative().is_empty());
    }
}

//! Fixed-edge histograms for latency distributions (Figures 4 and 5).

/// A histogram over explicit bucket upper edges, with a final overflow
/// bucket. Edges are in the measured unit (milliseconds for this repo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper (inclusive) edges of the finite buckets, strictly increasing.
    edges: Vec<u64>,
    /// `counts.len() == edges.len() + 1`; the last slot is the overflow.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with the given inclusive upper edges.
    ///
    /// # Panics
    /// If `edges` is empty or not strictly increasing.
    pub fn new(edges: Vec<u64>) -> Histogram {
        assert!(!edges.is_empty(), "need at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        let n = edges.len();
        Histogram {
            edges,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.edges.partition_point(|&e| e < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Bucket upper edges.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Raw bucket counts (`edges.len() + 1` entries, last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of values ≤ `edge` (`edge` must be one of the bucket
    /// edges). This is how the paper states Fig. 4/5 results, e.g. "66% of
    /// our queries are resolved within 150 ms".
    pub fn fraction_within(&self, edge: u64) -> f64 {
        assert!(
            self.edges.contains(&edge),
            "{edge} is not a bucket edge of this histogram"
        );
        if self.total == 0 {
            return 0.0;
        }
        let upto = self.edges.partition_point(|&e| e <= edge);
        let n: u64 = self.counts[..upto].iter().sum();
        n as f64 / self.total as f64
    }

    /// Fraction of values strictly greater than the last finite edge
    /// ("75% of Squirrel's queries take more than 1200 ms").
    pub fn fraction_overflow(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.last().expect("non-empty") as f64 / self.total as f64
    }

    /// Per-bucket fractions, one entry per count slot.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Human-readable bucket labels, e.g. `"0-150"`, `"150-300"`, `">1200"`.
    pub fn labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut lo = 0u64;
        for &e in &self.edges {
            out.push(format!("{lo}-{e}"));
            lo = e;
        }
        out.push(format!(">{lo}"));
        out
    }

    /// Merge another histogram with identical edges.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "histogram edges must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_land_in_right_buckets() {
        let mut h = Histogram::new(vec![150, 300, 600, 1200]);
        for v in [0, 150, 151, 600, 1200, 1201, 50_000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1, 2]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(50_000));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new(vec![150, 300]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.counts(), &[0, 0, 0]);
        assert_eq!(h.fraction_within(150), 0.0);
        assert_eq!(h.fraction_overflow(), 0.0);
        assert_eq!(h.fractions(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::new(vec![150, 300]);
        h.record(151);
        assert_eq!(h.total(), 1);
        assert_eq!(h.mean(), 151.0);
        assert_eq!(h.min(), Some(151));
        assert_eq!(h.max(), Some(151));
        assert_eq!(h.counts(), &[0, 1, 0]);
        assert_eq!(h.fraction_within(150), 0.0);
        assert_eq!(h.fraction_within(300), 1.0);
        assert_eq!(h.fraction_overflow(), 0.0);
    }

    #[test]
    fn all_samples_overflow() {
        let mut h = Histogram::new(vec![10]);
        h.record(11);
        h.record(u64::MAX / 2);
        assert_eq!(h.counts(), &[0, 2]);
        assert_eq!(h.fraction_within(10), 0.0);
        assert_eq!(h.fraction_overflow(), 1.0);
        // Overflow values still feed min/max.
        assert_eq!(h.min(), Some(11));
        assert_eq!(h.max(), Some(u64::MAX / 2));
    }

    #[test]
    fn boundary_values_stay_inclusive_of_upper_edge() {
        let mut h = Histogram::new(vec![100, 200]);
        h.record(100); // exactly the first edge → first bucket
        h.record(200); // exactly the last edge → second bucket, not overflow
        h.record(201); // one past the last edge → overflow
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.fraction_within(200), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket edge")]
    fn empty_edges_are_rejected() {
        let _ = Histogram::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_edges_are_rejected() {
        let _ = Histogram::new(vec![100, 100]);
    }

    #[test]
    fn merge_with_empty_preserves_min_max() {
        let mut a = Histogram::new(vec![10, 20, 30]);
        a.record(15);
        let b = Histogram::new(vec![10, 20, 30]);
        a.merge(&b); // empty rhs must not clobber min/max
        assert_eq!(a.min(), Some(15));
        assert_eq!(a.max(), Some(15));
        assert_eq!(a.total(), 1);
    }

    #[test]
    fn fraction_within_matches_paper_phrasing() {
        let mut h = Histogram::new(vec![150, 1200]);
        for _ in 0..66 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(500);
        }
        for _ in 0..25 {
            h.record(2_000);
        }
        assert!((h.fraction_within(150) - 0.66).abs() < 1e-12);
        assert!((h.fraction_overflow() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a bucket edge")]
    fn fraction_within_rejects_non_edges() {
        let h = Histogram::new(vec![100]);
        let _ = h.fraction_within(42);
    }

    #[test]
    fn labels_read_naturally() {
        let h = Histogram::new(vec![150, 300]);
        assert_eq!(h.labels(), vec!["0-150", "150-300", ">300"]);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Histogram::new(vec![10, 20, 30]);
        let mut b = Histogram::new(vec![10, 20, 30]);
        a.record(5);
        b.record(25);
        b.record(999);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts(), &[1, 0, 1, 1]);
        assert_eq!(a.max(), Some(999));
    }

    proptest! {
        /// Every recorded value is counted exactly once.
        #[test]
        fn prop_counts_conserved(values in proptest::collection::vec(0u64..10_000, 0..200)) {
            let mut h = Histogram::new((1..=9).map(|i| i * 137).collect());
            for &v in &values { h.record(v); }
            prop_assert_eq!(h.total(), values.len() as u64);
            prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
        }

        /// Mean matches a direct computation.
        #[test]
        fn prop_mean_exact(values in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let mut h = Histogram::new(vec![50, 100, 150, 200]);
            for &v in &values { h.record(v); }
            let want = values.iter().sum::<u64>() as f64 / values.len() as f64;
            prop_assert!((h.mean() - want).abs() < 1e-6);
        }

        /// fractions() sums to 1 for non-empty histograms.
        #[test]
        fn prop_fractions_sum_to_one(values in proptest::collection::vec(0u64..5_000, 1..100)) {
            let mut h = Histogram::new((1..=7).map(|i| i * 100).collect());
            for &v in &values { h.record(v); }
            let s: f64 = h.fractions().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }
}

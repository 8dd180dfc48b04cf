//! Log-bucketed latency histograms.
//!
//! Power-of-two buckets over nanoseconds: bucket 0 holds exactly 0 ns and
//! bucket `b` (1..=63) holds `[2^(b-1), 2^b)`. Quantiles are therefore
//! approximate — reported as the upper bound of the bucket containing the
//! quantile, clamped to the observed maximum — which is plenty for p50/p95/
//! p99 summaries while keeping `record` branch-free and allocation-free so
//! it can run unconditionally on the hot path without perturbing anything.

const BUCKETS: usize = 64;

/// A log2-bucketed histogram of nanosecond latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

fn bucket_bound(b: usize) -> u64 {
    if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, in ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean latency in ns (0 if empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (0 < q <= 1) in ns: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th sample, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bound(b).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median (approximate), in ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile (approximate), in ns.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile (approximate), in ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// One-line summary: `n=…  p50=…  p95=…  p99=…  max=…` with µs units.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        fn us(ns: u64) -> String {
            format!("{:.1}us", ns as f64 / 1000.0)
        }
        format!(
            "n={}  p50={}  p95={}  p99={}  max={}",
            self.count,
            us(self.p50_ns()),
            us(self.p95_ns()),
            us(self.p99_ns()),
            us(self.max_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 100_000);
        assert_eq!(h.mean_ns(), (100 + 200 + 300 + 400 + 100_000) / 5);
        // p50 lands in the bucket of the 3rd sample (300 → [256, 512)).
        let p50 = h.p50_ns();
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        // p99 lands in the max's bucket, clamped to the observed max.
        assert_eq!(h.p99_ns(), 100_000);
    }

    #[test]
    fn single_sample_quantiles_clamp_to_max() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        assert_eq!(h.p50_ns(), 777);
        assert_eq!(h.p99_ns(), 777);
    }

    #[test]
    fn empty_summary_and_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), "n=0");
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0);
        }
    }

    #[test]
    fn merge_of_disjoint_buckets() {
        // a occupies only low buckets, b only high ones: merging must keep
        // both populations and every quantile must land in the right one.
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..90 {
            a.record(8); // bucket [8, 16)
        }
        for _ in 0..10 {
            b.record(1 << 20); // bucket [2^20, 2^21)
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.max_ns(), 1 << 20);
        assert!(merged.p50_ns() < 16, "p50 = {}", merged.p50_ns());
        assert_eq!(merged.p95_ns(), 1 << 20);
        // Merging into empty is identity in both directions.
        let mut from_empty = LatencyHistogram::new();
        from_empty.merge(&merged);
        assert_eq!(from_empty, merged);
        let mut with_empty = merged.clone();
        with_empty.merge(&LatencyHistogram::new());
        assert_eq!(with_empty, merged);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [10u64, 20, 30] {
            a.record(ns);
        }
        for ns in [1_000u64, 2_000] {
            b.record(ns);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.max_ns(), 2_000);
        let mut all = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 1_000, 2_000] {
            all.record(ns);
        }
        assert_eq!(merged, all);
    }
}

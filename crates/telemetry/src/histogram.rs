//! Log-bucketed latency histograms and the quantile summaries built from them.
//!
//! The bucket layout is HdrHistogram-flavoured: values below [`SUB_BUCKETS`] get one
//! exact bucket each, and every power-of-two octave above that is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so recording is two shifts and an increment and
//! the relative quantile error is bounded by half a sub-bucket (≈ 3%). A histogram is
//! ~8 KiB and lives on the coordinator, so recording never contends with decode
//! workers.

/// Linear sub-buckets per power-of-two octave (and the exact-bucket cutoff).
const SUB_BUCKETS: u64 = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Total bucket count: 16 exact + 16 per octave for octaves 4..=63.
const BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// A log-bucketed histogram of `u64` samples (typically latency nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, rounded down (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the representative value (bucket midpoint)
    /// of the bucket holding the rank-`ceil(q * count)` sample; exact for values below
    /// 16 (`SUB_BUCKETS`), within half a sub-bucket (≈ 3% relative) above. Returns 0
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::representative(i);
            }
        }
        self.max
    }

    /// Bucket index of `value`: exact below [`SUB_BUCKETS`], `(octave, sub-bucket)`
    /// above.
    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // >= SUB_BITS here
        let sub = (value >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
        (SUB_BUCKETS as usize) * (octave - SUB_BITS + 1) as usize + sub as usize
    }

    /// Midpoint of bucket `i` (exact value for the exact buckets).
    fn representative(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let octave = i / SUB_BUCKETS - 1 + u64::from(SUB_BITS);
        let sub = i % SUB_BUCKETS;
        let lower = (SUB_BUCKETS + sub) << (octave - u64::from(SUB_BITS));
        let width = 1u64 << (octave - u64::from(SUB_BITS));
        lower + width / 2
    }
}

/// p50/p95/p99 (plus count, mean and max) extracted from one [`Histogram`], in
/// nanoseconds. Plain integers so reports stay `PartialEq` and JSON-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantileSummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Mean, nanoseconds (rounded down).
    pub mean_nanos: u64,
    /// Largest sample, nanoseconds.
    pub max_nanos: u64,
}

impl QuantileSummary {
    /// Summarizes a histogram.
    #[must_use]
    pub fn from_histogram(h: &Histogram) -> Self {
        QuantileSummary {
            count: h.count(),
            p50_nanos: h.quantile(0.50),
            p95_nanos: h.quantile(0.95),
            p99_nanos: h.quantile(0.99),
            mean_nanos: h.mean(),
            max_nanos: h.max(),
        }
    }
}

/// The per-request latency summary a serving run reports (all values nanoseconds).
///
/// * `ttft` — time to first token: first generated token's availability minus the
///   sequence's arrival at the scheduler, one sample per sequence that produced tokens.
/// * `tpot` — time per output token: the decode-step forward latency, one sample per
///   generated token that ran a forward pass.
/// * `pass_latency` — coordinator scheduler-pass wall time, one sample per pass.
/// * `queue_wait` — the wait an admission (page reservation granted) ends, one sample
///   per admission after a wait: arrival → first admission, and preemption → restore.
///   A re-admission after a worker panic adds none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Time-to-first-token quantiles.
    pub ttft: QuantileSummary,
    /// Time-per-output-token quantiles.
    pub tpot: QuantileSummary,
    /// Scheduler-pass wall-time quantiles.
    pub pass_latency: QuantileSummary,
    /// Admission queue-wait quantiles.
    pub queue_wait: QuantileSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Rank math: p50 of 16 samples is the 8th smallest = value 7.
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn constant_distribution_collapses_all_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7_000);
        }
        let s = QuantileSummary::from_histogram(&h);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_nanos, s.p95_nanos);
        assert_eq!(s.p95_nanos, s.p99_nanos);
        // 7000 lands in the octave starting at 4096 with 256-wide sub-buckets:
        // lower 6912, midpoint 7040 — within half a sub-bucket of the true value.
        assert_eq!(s.p50_nanos, 7_040);
        assert_eq!(s.mean_nanos, 7_000);
        assert_eq!(s.max_nanos, 7_000);
    }

    #[test]
    fn golden_quantiles_on_uniform_1_to_1000() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Golden values derived by hand from the bucket layout: the rank-500 sample is
        // 500 (bucket [496, 512) → midpoint 504), rank-950 is 950 (bucket [928, 960) →
        // 944), rank-990 is 990 (bucket [960, 992) → 976).
        assert_eq!(h.quantile(0.50), 504);
        assert_eq!(h.quantile(0.95), 944);
        assert_eq!(h.quantile(0.99), 976);
        assert_eq!(h.mean(), 500);
        assert_eq!(h.max(), 1000);
        // Every quantile is within the documented 1/16 relative error of the truth.
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - truth).abs() / truth < 1.0 / 16.0, "q={q}: {got} vs {truth}");
        }
    }

    #[test]
    fn bimodal_distribution_separates_p50_from_p99() {
        let mut h = Histogram::new();
        for _ in 0..95 {
            h.record(1_000); // fast path
        }
        for _ in 0..5 {
            h.record(1_000_000); // tail
        }
        let s = QuantileSummary::from_histogram(&h);
        assert!(s.p50_nanos < 1_100);
        assert!(s.p99_nanos > 900_000, "p99 must land in the tail mode: {}", s.p99_nanos);
        assert!(s.p95_nanos < 1_100, "rank 95 is still the fast mode");
    }

    #[test]
    fn huge_values_do_not_overflow_the_bucket_table() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) > u64::MAX / 2);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = QuantileSummary::from_histogram(&h);
        assert_eq!(s, QuantileSummary::default());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
    }
}

//! Quantiles, the percentile-support rule, and client-side latency derivation from
//! per-request timestamps.

/// Percentiles the summary may report, in per-mille, highest first.
const LADDER_PER_MILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Linearly interpolated quantile `q` (0..=1) of `sorted`, which must be sorted
/// ascending. `NaN` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Whether `n` samples leave at least ten beyond the percentile `per_mille`.
pub fn supports(n: usize, per_mille: u32) -> bool {
    n - (n * per_mille as usize).div_ceil(1000) >= 10
}

/// The highest percentile (in per-mille, from 99.9 down to the median) that leaves at
/// least ten of `n` samples beyond it; `None` when even the median does not.
pub fn supported_percentile(n: usize) -> Option<u32> {
    LADDER_PER_MILLE.into_iter().find(|&pm| supports(n, pm))
}

/// A percentile of a run cut into measurement windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub value: f64,
    /// Groups of consecutive windows the value is the median over; 1 means the whole run
    /// pooled.
    pub groups: usize,
    /// Samples in the run, and how many distinct values they hold.
    pub n: usize,
    pub distinct: usize,
    /// Whether each group leaves ten distinct values beyond the percentile. When not even
    /// the whole run does, the value is the median over every window's own percentile.
    pub supported: bool,
}

/// Distinct values among `values`. Tokens that one pass makes visible share a timestamp,
/// so their latencies and gaps tie; tied samples count once towards a percentile's
/// support.
fn distinct(values: impl Iterator<Item = f64>) -> usize {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v.dedup();
    v.len()
}

/// The percentile `per_mille` of samples cut into `windows`: the median over the most
/// groups of consecutive windows that each leave at least ten distinct values beyond it,
/// of each group's percentile. The median over groups keeps a slow phase of the host that
/// covers a minority of the run from moving the value. When not even the whole run leaves
/// ten values beyond it, the median over the windows' own percentiles, flagged as short
/// of support: every window replays the same round, so its percentile is the same
/// statistic of the same requests, and the median of those is steadier than the
/// percentile of the few largest values of the run pooled.
pub fn windowed_percentile(windows: &[Vec<f64>], per_mille: u32) -> Windowed {
    let n = windows.iter().map(Vec::len).sum();
    let count = windows.len();
    let group = |k: usize, j: usize| windows[j * count / k..(j + 1) * count / k].iter().flatten().copied();
    let q = f64::from(per_mille) / 1000.0;
    let distinct_all = distinct(group(1, 0));
    let median_over = |k: usize| {
        let values = (0..k).map(|j| Sample::new(group(k, j).collect()).q(q)).filter(|v| !v.is_nan()).collect();
        Sample::new(values).q(0.5)
    };
    for k in (1..=count).rev() {
        if (0..k).all(|j| supports(distinct(group(k, j)), per_mille)) {
            return Windowed { value: median_over(k), groups: k, n, distinct: distinct_all, supported: true };
        }
    }
    Windowed { value: median_over(count), groups: count, n, distinct: distinct_all, supported: false }
}

impl Windowed {
    /// `"p90 median over 3 groups of windows, n=… (… distinct)"` for the summary.
    pub fn describe(&self, per_mille: u32) -> String {
        let p = f64::from(per_mille) / 10.0;
        let n = format!("n={} ({} distinct)", self.n, self.distinct);
        match (self.groups, self.supported) {
            (1, true) => format!("p{p} of the run pooled, {n}"),
            (k, true) => format!("p{p} median over {k} groups of windows, {n}"),
            (k, false) => {
                format!("p{p} median over {k} windows, {n}: fewer than 10 distinct values beyond it even pooled")
            }
        }
    }
}

/// A sorted sample with its summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    /// `"n=…, p50=…, p<highest supported>=…"` for the human-readable summary; ties count
    /// once towards support, as in [`windowed_percentile`].
    pub fn describe(&self, scale: f64) -> String {
        let n = self.len();
        let mut out = format!("n={n} p50={:.3}", self.q(0.5) * scale);
        match supported_percentile(distinct(self.sorted.iter().copied())) {
            Some(pm) if pm > 500 => {
                out.push_str(&format!(" p{}={:.3}", pm as f64 / 10.0, self.q(pm as f64 / 1000.0) * scale));
            }
            Some(_) => {}
            None => out.push_str(" (fewer than 10 distinct values beyond the median)"),
        }
        out
    }
}

/// What a client saw of one request: when it was due, when it was admitted (start of
/// the pass that admitted it), when each token became visible, and when it finished.
/// All times are seconds since the run's origin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    pub due: f64,
    pub admitted: Option<f64>,
    pub tokens: Vec<f64>,
    pub finished: Option<f64>,
}

impl Timeline {
    /// Time to first token, from the due time.
    pub fn ttft(&self) -> Option<f64> {
        self.tokens.first().map(|t| t - self.due)
    }

    /// Due time to completion.
    pub fn e2e(&self) -> Option<f64> {
        self.finished.map(|t| t - self.due)
    }

    /// Due time to admission.
    pub fn queue_wait(&self) -> Option<f64> {
        self.admitted.map(|t| t - self.due)
    }

    /// Gaps between consecutive tokens.
    pub fn itls(&self) -> impl Iterator<Item = f64> + '_ {
        self.tokens.windows(2).map(|w| w[1] - w[0])
    }

    /// Mean inter-token gap (0 for a request with fewer than two tokens).
    pub fn mean_itl(&self) -> f64 {
        match self.tokens.len() {
            0 | 1 => 0.0,
            n => (self.tokens[n - 1] - self.tokens[0]) / (n - 1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(500));
        assert_eq!(supported_percentile(39), Some(500));
        assert_eq!(supported_percentile(40), Some(750));
        assert_eq!(supported_percentile(99), Some(750));
        assert_eq!(supported_percentile(100), Some(900));
        assert_eq!(supported_percentile(199), Some(900));
        assert_eq!(supported_percentile(200), Some(950));
        assert_eq!(supported_percentile(999), Some(950));
        assert_eq!(supported_percentile(1000), Some(990));
        assert_eq!(supported_percentile(10_000), Some(999));
    }

    #[test]
    fn windowed_percentile_pools_windows_until_supported() {
        // Four windows of 25 samples, window j holding 100·j + 0..25.
        let windows: Vec<Vec<f64>> = (0..4).map(|j| (0..25).map(|i| f64::from(100 * j + i)).collect()).collect();
        // The median is supported in every window: the median of 12, 112, 212, 312.
        let p50 = windowed_percentile(&windows, 500);
        assert_eq!((p50.value, p50.groups, p50.n, p50.supported), (162.0, 4, 100, true));
        // p90 needs 100 samples: neither one window nor two give it, the whole run does.
        let p90 = windowed_percentile(&windows, 900);
        assert_eq!((p90.groups, p90.supported), (1, true));
        let pooled: Vec<f64> = windows.iter().flatten().copied().collect();
        assert_eq!(p90.value, Sample::new(pooled).q(0.9));
        // p99 is not supported even pooled: the median of the windows' own p99s, flagged.
        let p99 = windowed_percentile(&windows, 990);
        assert_eq!((p99.groups, p99.supported), (4, false));
        let own: Vec<f64> = windows.iter().map(|w| Sample::new(w.clone()).q(0.99)).collect();
        assert_eq!(p99.value, Sample::new(own).q(0.5));
        assert!(p99.describe(990).contains("fewer than 10"));
        // An empty window joins its neighbour's group.
        let mut gapped = windows.clone();
        gapped[1].clear();
        gapped[3].extend((0..25).map(|i| f64::from(400 + i)));
        assert_eq!(windowed_percentile(&gapped, 500).groups, 2);
        // ...and is left out of the windows' median when nothing is supported.
        assert_eq!(windowed_percentile(&gapped, 990).value, Sample::new(gapped[2].clone()).q(0.99));
        // Ties count once: 25 equal samples per window are one value each.
        let tied: Vec<Vec<f64>> = (0..4).map(|j| vec![f64::from(j); 25]).collect();
        let p50 = windowed_percentile(&tied, 500);
        assert_eq!((p50.groups, p50.n, p50.distinct, p50.supported), (4, 100, 4, false));
        assert_eq!(p50.value, 1.5);
    }

    #[test]
    fn timeline_derives_client_latencies() {
        let t = Timeline { due: 1.0, admitted: Some(1.25), tokens: vec![1.5, 1.6, 1.8, 2.1], finished: Some(2.1) };
        assert_eq!(t.ttft(), Some(0.5));
        assert_eq!(t.queue_wait(), Some(0.25));
        assert!((t.e2e().unwrap() - 1.1).abs() < 1e-12);
        let gaps: Vec<f64> = t.itls().collect();
        assert_eq!(gaps.len(), 3);
        for (g, want) in gaps.iter().zip([0.1, 0.2, 0.3]) {
            assert!((g - want).abs() < 1e-12);
        }
        assert!((t.mean_itl() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn timeline_without_tokens_has_no_latencies() {
        let t = Timeline { due: 3.0, ..Timeline::default() };
        assert_eq!(t.ttft(), None);
        assert_eq!(t.e2e(), None);
        assert_eq!(t.itls().count(), 0);
        assert_eq!(t.mean_itl(), 0.0);
    }

    #[test]
    fn sample_describes_supported_percentile() {
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.describe(1.0), "n=100 p50=50.500 p90=90.100");
    }
}

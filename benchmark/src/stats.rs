//! Order statistics, the panel aggregates and the log-linear histogram.

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Index of the nearest-rank percentile `p` (0 < p < 1) among `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0 < p < 1) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    sorted(v)[rank(v.len(), p)]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `p`.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no values");
    assert!(v.iter().all(|&x| x > 0.0), "geomean needs positive values: {v:?}");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method) gives them — the
/// rule the driver applies to the ten-seed spread.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let n = s.len();
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs()
}

/// Sub-buckets per power of two of [`LogLinear`].
const SUB: u64 = 32;
const SUB_BITS: u32 = 5;
/// Values up to 2^42 ns (73 minutes) keep their own bucket.
const MAX_EXP: u32 = 42;

/// Log-linear histogram of nanosecond durations: exact below 32, then 32
/// linear sub-buckets per power of two, so a reported percentile is within
/// 1/32 of the true sample. (The repo's `LatencyHistogram` has one bucket per
/// power of two and reports 2ⁿ−1.)
#[derive(Clone)]
pub struct LogLinear {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for LogLinear {
    fn default() -> Self {
        LogLinear {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 1) as u64 * SUB + SUB) as usize],
            total: 0,
            sum: 0,
        }
    }
}

impl LogLinear {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = (63 - v.leading_zeros()).min(MAX_EXP);
        let sub = if exp == MAX_EXP && v >> MAX_EXP > 1 {
            SUB - 1
        } else {
            (v >> (exp - SUB_BITS)) & (SUB - 1)
        };
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Lowest value of bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let exp = b / SUB + SUB_BITS as u64 - 1;
        (1 << exp) + ((b % SUB) << (exp - SUB_BITS as u64))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum += ns as u128;
    }

    pub fn merge(&mut self, other: &LogLinear) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Nearest-rank percentile: the lowest value of the bucket holding the
    /// sample of that rank (0 for an empty histogram).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let want = rank(self.total as usize, p) as u64 + 1;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::floor(b);
            }
        }
        unreachable!("rank within total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 200 rounds: p90 is sample 180 of 200, twenty lie beyond it.
        assert_eq!(samples_beyond(200, 0.90), 20);
        assert!(supports_percentile(200, 0.90));
        // 100 rounds leave exactly ten beyond p90; 99 leave nine.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert!(supports_percentile(100, 0.90));
        assert!(!supports_percentile(99, 0.90));
        // p99 needs a thousand samples.
        assert!(!supports_percentile(200, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), 180.0);
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&[7.0], 0.90), 7.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        // Doubling one of 30 cells moves the panel by 2^(1/30).
        let mut cells = vec![10.0; 30];
        let base = geomean(&cells);
        cells[0] = 20.0;
        assert!((geomean(&cells) / base - 2f64.powf(1.0 / 30.0)).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn log_linear_relative_error_is_at_most_one_in_32() {
        let mut worst: f64 = 0.0;
        let mut v = 1u64;
        while v < 1 << 41 {
            for probe in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let floor = LogLinear::floor(LogLinear::bucket(probe));
                assert!(floor <= probe, "{floor} > {probe}");
                worst = worst.max((probe - floor) as f64 / probe as f64);
            }
            v *= 2;
        }
        assert!(worst <= 1.0 / 32.0, "worst relative error {worst}");
        // Buckets are monotone and never collide across a power of two.
        assert!(LogLinear::bucket(31) < LogLinear::bucket(32));
        assert!(LogLinear::bucket(1023) < LogLinear::bucket(1024));
        assert_eq!(LogLinear::floor(LogLinear::bucket(127)), 126);
    }

    #[test]
    fn log_linear_percentiles_and_merge() {
        let mut h = LogLinear::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p99 = h.percentile(0.99);
        assert!((960..=990).contains(&p99), "{p99}");
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 2000);
        assert_eq!(twice.percentile(0.99), p99);
        assert_eq!(LogLinear::default().percentile(0.5), 0);
        // Out-of-range values land in the last bucket instead of panicking.
        h.record(u64::MAX);
        assert!(h.percentile(0.9999) > 1 << 42);
    }
}

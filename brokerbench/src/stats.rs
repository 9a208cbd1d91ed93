//! Latency histograms and percentile selection.
//!
//! Latencies go into fixed-size log-linear histograms instead of
//! sample vectors, so the benchmark's own memory does not grow with
//! throughput and `peak_rss_mib` measures the program, not the
//! harness. Values below 1024 ns are exact; above that every octave
//! has 512 buckets (relative error under 0.2%).

/// Mantissa bits per octave: 2^SUB_BITS buckets per power of two.
const SUB_BITS: u32 = 9;
/// Values at or above this are clamped into the last bucket (~18 min).
const MAX_NS: u64 = (1 << 40) - 1;
const EXACT: u64 = 2 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (40 - SUB_BITS as usize - 1) * (1 << SUB_BITS);

/// The percentiles a timing may be reported at, ascending.
pub const QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: u64 = 10;

fn bucket_of(v: u64) -> usize {
    let v = v.min(MAX_NS);
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let k = msb - SUB_BITS;
    let m = v >> k;
    EXACT as usize + (k as usize - 1) * (1 << SUB_BITS) + (m as usize - (1 << SUB_BITS))
}

/// Representative value of a bucket: its midpoint (exact below 1024).
fn bucket_value(idx: usize) -> u64 {
    if (idx as u64) < EXACT {
        return idx as u64;
    }
    let rel = idx - EXACT as usize;
    let k = (rel >> SUB_BITS) as u32 + 1;
    let m = (rel & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
    (m << k) + (1u64 << k) / 2
}

/// A fixed-size latency histogram in nanoseconds.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], n: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `q` in ns, `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = nearest_rank(self.n, q);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Some(bucket_value(idx));
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }

    /// `quantile(q)` only when at least [`MIN_BEYOND`] samples lie
    /// beyond it, so a tail figure never rests on a handful of points.
    pub fn tail(&self, q: f64) -> Option<u64> {
        if beyond(self.n, q) >= MIN_BEYOND {
            self.quantile(q)
        } else {
            None
        }
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: u64, q: f64) -> u64 {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The highest of [`QUANTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when not even the median qualifies.
pub fn highest_reportable(n: u64) -> Option<f64> {
    QUANTILES.iter().rev().copied().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank percentile `q` of `values`; 0 for an empty slice.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[nearest_rank(v.len() as u64, q) as usize - 1]
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1), "rank is clamped to the first sample");
    }

    #[test]
    fn large_values_stay_within_bucket_precision() {
        for v in [1024u64, 1025, 48_000, 97_531, 3_000_000, 1 << 39] {
            let got = bucket_value(bucket_of(v));
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 512.0, "{v} -> {got} (err {err})");
        }
        assert_eq!(bucket_of(MAX_NS), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "huge values clamp");
    }

    #[test]
    fn buckets_are_monotonic() {
        let mut last = 0;
        for v in (0..5_000_000u64).step_by(997) {
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_reportable(1000), Some(0.99));
        // 999 samples: rank 990 leaves 9, so p99 is not reportable.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_reportable(999), Some(0.9));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert_eq!(highest_reportable(100_000), Some(0.9999));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(0.5));

        let mut h = Histogram::default();
        for v in 0..999 {
            h.record(v);
        }
        assert_eq!(h.tail(0.99), None);
        h.record(999);
        assert_eq!(h.tail(0.99), Some(989));
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for v in 0..50 {
            a.record(v);
            b.record(v + 50);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.quantile(0.5), Some(49));
    }

    #[test]
    fn quartiles_of_window_values() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quantile_of(&v, 0.25), 2.0);
        assert_eq!(quantile_of(&v, 0.75), 6.0);
        assert_eq!(quantile_of(&[5.0], 0.25), 5.0);
        assert_eq!(quantile_of(&[], 0.75), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

//! Order statistics for the benchmark's own samples.
//!
//! Latencies are kept in sparse log-linear buckets: exact below 256,
//! within 0.4% above.

use std::collections::BTreeMap;

/// The median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Per-window rates from `(elapsed_s, cumulative_count)` samples taken at
/// window edges: one rate per consecutive pair.
pub fn window_rates(edges: &[(f64, u64)]) -> Vec<f64> {
    edges
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect()
}

/// Percentiles the tail is chosen from, highest last, with their labels.
const TAIL_LADDER: [(f64, &str); 6] = [
    (0.75, "p75"),
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
    (0.99999, "p99.999"),
];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a distribution of `n` samples, or `None` when
/// fewer than forty samples leave no percentile worth calling a tail.
pub fn tail_percentile(n: u64) -> Option<(f64, &'static str)> {
    if n < 40 {
        return None;
    }
    TAIL_LADDER.iter().copied().rfind(|(p, _)| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Sub-buckets per power of two: values below `2^SUB_BITS` are exact,
/// larger ones fall in buckets no wider than `1/2^SUB_BITS` of their value.
const SUB_BITS: u32 = 8;

fn bucket(v: u64) -> usize {
    if v < 1 << SUB_BITS {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) as usize - (1 << SUB_BITS))
}

/// The midpoint of bucket `i`.
fn bucket_value(i: usize) -> u64 {
    if i < 1 << SUB_BITS {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    let m = (i & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
    (m << shift) + ((1u64 << shift) >> 1)
}

/// One latency distribution in log-linear buckets, kept sparse: its
/// memory grows with the number of distinct buckets (a few hundred), not
/// with the number of samples, so `heap_mib` measures the system
/// rather than the benchmark's own bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    counts: BTreeMap<usize, u64>,
    n: u64,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: u64) {
        *self.counts.entry(bucket(v)).or_default() += 1;
        self.n += 1;
    }

    /// Fold in another distribution.
    pub fn extend(&mut self, other: &Samples) {
        for (&i, &c) in &other.counts {
            *self.counts.entry(i).or_default() += c;
        }
        self.n += other.n;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Ceil nearest-rank percentile `p` (0.0–1.0), exact below
    /// `2^SUB_BITS` and within `1/2^SUB_BITS` above; 0 when empty.
    pub fn pct(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (&i, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return bucket_value(i);
            }
        }
        0
    }

    /// `"p50 <v>, <tail> <v> (n=<count>)"`: the median and the highest
    /// percentile with at least ten samples beyond it.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.len();
        let p50 = self.pct(0.5);
        match tail_percentile(n) {
            Some((p, label)) => format!("p50 {p50} {unit}, {label} {} {unit} (n={n})", self.pct(p)),
            None => format!("p50 {p50} {unit} (n={n}, too few for a tail)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ceil nearest-rank percentile `p` (0.0–1.0) of `sorted`, which must
    /// be sorted ascending. `None` for an empty slice.
    fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
        if sorted.is_empty() {
            return None;
        }
        let rank = (p * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        let edges = [(0.0, 0), (1.0, 100), (2.0, 210), (3.0, 215), (4.0, 320)];
        let rates = window_rates(&edges);
        assert_eq!(rates, vec![100.0, 110.0, 5.0, 105.0]);
        assert_eq!(median(&rates), Some(102.5));
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let label = |n| tail_percentile(n).map(|(_, l)| l);
        assert_eq!(label(39), None);
        assert_eq!(label(40), Some("p75"));
        assert_eq!(label(100), Some("p90"));
        assert_eq!(label(999), Some("p90"), "p99 would leave 9.99 samples beyond it");
        assert_eq!(label(1_000), Some("p99"));
        assert_eq!(label(10_000), Some("p99.9"));
        assert_eq!(label(1_000_000), Some("p99.999"));
    }

    #[test]
    fn buckets_match_exact_percentiles_within_their_width() {
        let mut s = Samples::default();
        let mut exact: Vec<u64> = (0..20_000u64).map(|i| (i * 7_919) % 3_000_000 + 1).collect();
        for &v in &exact {
            s.push(v);
        }
        exact.sort_unstable();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = percentile(&exact, p).unwrap() as f64;
            let got = s.pct(p) as f64;
            assert!((got - want).abs() <= want / 256.0 + 1.0, "p{p}: {got} vs {want}");
        }
        let mut small = Samples::default();
        for v in [3, 1, 2] {
            small.push(v);
        }
        assert_eq!((small.pct(0.5), small.pct(1.0), small.len()), (2, 3, 3));
        assert_eq!(Samples::default().pct(0.5), 0);
        for v in [0, 1, 255, 256, 257, 1 << 20, u64::MAX] {
            let i = bucket(v);
            assert!(i < (65 - SUB_BITS as usize) << SUB_BITS);
            let mid = bucket_value(i) as f64;
            assert!((mid - v as f64).abs() <= v as f64 / 256.0 + 1.0, "{v} -> {mid}");
        }
    }

    #[test]
    fn describe_names_the_tail_and_count() {
        let mut s = Samples::default();
        for v in 1..=250 {
            s.push(v);
        }
        // p99 would leave 2.5 samples beyond it; p90 leaves 25.
        assert_eq!(s.describe("us"), "p50 125 us, p90 225 us (n=250)");
        let mut other = Samples::default();
        other.push(5);
        assert_eq!(other.describe("us"), "p50 5 us (n=1, too few for a tail)");
        s.extend(&other);
        assert_eq!(s.len(), 251);
    }
}

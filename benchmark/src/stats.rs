//! The one percentile rule of the benchmark, plus the run-to-run
//! summaries (median, min/max).
//!
//! **Percentile rule.** Nearest-rank on the ascending-sorted sample: the
//! `p`-th percentile of `n` samples is the sample of rank `ceil(p * n)`
//! (1-based), with no interpolation. A tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond its rank; otherwise
//! the rule falls back to the highest percentile of [`TAIL_LADDER`] that
//! has them, and says which one it used.

/// Samples that must lie beyond a tail percentile's rank.
pub const MIN_BEYOND: u64 = 10;

/// Tail percentiles tried in order, as `(label, numerator, denominator)`.
pub const TAIL_LADDER: [(&str, u64, u64); 5] = [
    ("p99.9", 999, 1000),
    ("p99", 99, 100),
    ("p95", 95, 100),
    ("p90", 9, 10),
    ("p50", 1, 2),
];

/// 1-based nearest rank of the `num/den` quantile among `n` samples.
pub fn nearest_rank(n: u64, num: u64, den: u64) -> u64 {
    ((n as u128 * num as u128).div_ceil(den as u128) as u64).clamp(1, n.max(1))
}

/// The highest tail percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond its rank, as `(label, rank)`. With fewer
/// than `2 * MIN_BEYOND` samples even the median has too few beyond it;
/// the median is returned all the same, as the last rung.
pub fn tail_rank(n: u64) -> (&'static str, u64) {
    for (label, num, den) in TAIL_LADDER {
        let rank = nearest_rank(n, num, den);
        if n - rank.min(n) >= MIN_BEYOND {
            return (label, rank);
        }
    }
    ("p50", nearest_rank(n, 1, 2))
}

/// A latency sample set held as exact counts per value, so eight million
/// probe latencies cost one small map instead of a sorted vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    counts: std::collections::BTreeMap<u64, u64>,
    n: u64,
}

impl Counts {
    /// Add `count` samples of `value`.
    pub fn add(&mut self, value: u64, count: u64) {
        if count > 0 {
            *self.counts.entry(value).or_insert(0) += count;
            self.n += count;
        }
    }

    /// Number of samples.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.iter().map(|(v, n)| v as u128 * n as u128).sum()
    }

    /// `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &n)| (v, n))
    }

    /// The sample of 1-based rank `rank` (0 for an empty set).
    pub fn at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0;
        for (&value, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return value;
            }
        }
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Nearest-rank median.
    pub fn p50(&self) -> u64 {
        self.at_rank(nearest_rank(self.n, 1, 2))
    }

    /// The tail percentile the rule allows: `(label, value)`.
    pub fn tail(&self) -> (&'static str, u64) {
        let (label, rank) = tail_rank(self.n);
        (label, self.at_rank(rank))
    }
}

/// The hot-path recorder in front of [`Counts`]: values below
/// [`FLAT_SLOTS`] bump a flat array slot, the rare larger ones spill
/// into a vector. Recording allocates nothing while values stay small.
#[derive(Debug, Clone)]
pub struct FlatCounts {
    slots: Vec<u32>,
    spill: Vec<u64>,
}

/// Values below this are counted in the flat array (ns: 65 µs).
pub const FLAT_SLOTS: usize = 1 << 16;

impl Default for FlatCounts {
    fn default() -> Self {
        FlatCounts {
            slots: vec![0; FLAT_SLOTS],
            spill: Vec::new(),
        }
    }
}

impl FlatCounts {
    /// Record one sample.
    #[inline]
    pub fn add(&mut self, value: u64) {
        match self.slots.get_mut(value as usize) {
            Some(slot) => *slot += 1,
            None => self.spill.push(value),
        }
    }

    /// Add every sample to `counts`.
    pub fn fold_into(&self, counts: &mut Counts) {
        for (value, &n) in self.slots.iter().enumerate() {
            counts.add(value as u64, n as u64);
        }
        for &value in &self.spill {
            counts.add(value, 1);
        }
    }
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(min, max)` of a non-empty slice.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(samples: impl IntoIterator<Item = u64>) -> Counts {
        let mut c = Counts::default();
        for s in samples {
            c.add(s, 1);
        }
        c
    }

    #[test]
    fn nearest_rank_has_no_interpolation() {
        // Textbook: 5 samples, p50 -> rank 3, p100 -> rank 5, p0 -> rank 1.
        assert_eq!(nearest_rank(5, 1, 2), 3);
        assert_eq!(nearest_rank(5, 1, 1), 5);
        assert_eq!(nearest_rank(5, 0, 1), 1);
        // p99.9 of 38,400 samples: rank 38,362, leaving 38 beyond it.
        assert_eq!(nearest_rank(38_400, 999, 1000), 38_362);
        let c = counts([10, 20, 30, 40, 50]);
        assert_eq!(c.p50(), 30);
        assert_eq!(c.at_rank(5), 50);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        // 38,400 samples: p99.9 leaves 38 beyond -> kept.
        assert_eq!(tail_rank(38_400).0, "p99.9");
        // 10,000 samples: p99.9 is rank 9,990, exactly 10 beyond -> kept.
        assert_eq!(tail_rank(10_000), ("p99.9", 9_990));
        // 9,999 samples: rank 9,990 leaves only 9 -> falls back to p99.
        assert_eq!(tail_rank(9_999).0, "p99");
        // 768 samples (the --scale 0.02 smoke): p99 leaves 7 -> p95.
        assert_eq!(tail_rank(768).0, "p95");
        assert_eq!(tail_rank(150).0, "p90");
        assert_eq!(tail_rank(30).0, "p50");
        // Too few for any rung: still answers with the median.
        assert_eq!(tail_rank(3), ("p50", 2));
    }

    #[test]
    fn counts_agree_with_a_sorted_vector() {
        let samples: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1013).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let c = counts(samples);
        assert_eq!(c.n(), 5000);
        for rank in [1u64, 2, 2500, 4950, 5000] {
            assert_eq!(c.at_rank(rank), sorted[rank as usize - 1], "rank {rank}");
        }
        let (label, value) = c.tail();
        assert_eq!(label, "p99");
        assert_eq!(value, sorted[4950 - 1]);
    }

    #[test]
    fn flat_counts_spill_large_values() {
        let mut flat = FlatCounts::default();
        for v in [0, 7, 7, FLAT_SLOTS as u64 - 1, FLAT_SLOTS as u64, 1 << 40] {
            flat.add(v);
        }
        let mut c = Counts::default();
        flat.fold_into(&mut c);
        assert_eq!(c.n(), 6);
        assert_eq!(c.at_rank(3), 7);
        assert_eq!(c.at_rank(6), 1 << 40);
    }

    #[test]
    fn median_and_extremes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}

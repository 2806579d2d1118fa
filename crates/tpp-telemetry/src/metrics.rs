//! Named counters and log₂-bucket histograms, aggregated across switches.
//!
//! `tpp-asic` exports its registers into a [`MetricsRegistry`] under
//! stable dotted names (`switch.packets_processed`, `port.tx_bytes`,
//! `queue.depth_bytes` …); `tpp-netsim::Simulator` rebuilds one registry
//! over all switches on every stats tick, so the ad-hoc register structs
//! stay the (fast, faithful) backing store and the registry is the
//! uniform exported *view* — the shape a production system would scrape.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` (bucket 0 counts
/// zeros and ones). 65 buckets cover the whole `u64` range; sum, count
/// and max ride along so averages and tails survive aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize; // 0 for 0 and 1
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// HDR-style quantile: locate the bucket holding the `q`-th sample,
    /// then linearly interpolate within the bucket's `[2^(i-1), 2^i)`
    /// range, assuming samples spread uniformly inside it. Halves the
    /// worst case from "up to 2× high" (the bucket bound) to the
    /// sub-bucket resolution, and is exact for single-valued buckets
    /// because the estimate is clamped to the observed maximum.
    ///
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    2
                } else if i >= 64 {
                    u64::MAX
                } else {
                    1u64 << i
                };
                let rank = (target - seen) as f64; // 1..=n within the bucket
                let frac = rank / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile ([`Histogram::quantile`] at 0.99).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one (saturating, like the
    /// registry's counters).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A registry of named counters and histograms.
///
/// Names are dotted paths (`stage.metric`); aggregation across switches
/// is a plain merge (counters add, histograms merge), which is correct
/// because every exported value is a monotonic count or a sample stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    /// Counters saturate at `u64::MAX` instead of wrapping — an
    /// aggregated view must never report a small value because one
    /// input overflowed.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set a counter to an absolute value (for gauge-like registers).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merge a pre-aggregated histogram into the named entry (created
    /// empty first if needed) — the export path for subsystems that
    /// maintain their own `Histogram` instances.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Read a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge another registry into this one (counters add saturating,
    /// histograms merge). Keys present in only one registry survive the
    /// merge untouched.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            let v = self.counters.entry(name.clone()).or_insert(0);
            *v = v.saturating_add(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Reset everything to empty.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }

    /// Render as one JSON object: `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3}}}",
                h.count(),
                h.sum(),
                h.max(),
                h.mean()
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn quantile_empty_and_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reports 0");
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);

        // q = 0.0 must target the first sample, not fall through to
        // bucket 0's bound when bucket 0 is empty.
        let mut h = Histogram::default();
        h.observe(1000);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 256 distinct samples filling bucket [256, 512): the true
        // median is 383.5; the bucket bound alone would report 512
        // (~1.33× high, and up to 2× in the worst case).
        let mut h = Histogram::default();
        for v in 256..512 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5) as i64;
        assert!((p50 - 384).abs() <= 2, "interpolated p50 {p50} != ~384");
        let p99 = h.quantile(0.99) as i64;
        assert!((p99 - 509).abs() <= 4, "interpolated p99 {p99} != ~509");
        assert_eq!(h.quantile(1.0), 511, "p100 clamps to the true max");
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p99(), h.quantile(0.99));
    }

    #[test]
    fn quantile_single_valued_bucket_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(300);
        }
        // Interpolation alone would report up to 512; the max clamp
        // makes the degenerate single-value case exact.
        assert_eq!(h.p50(), 300);
        assert_eq!(h.p99(), 300);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut r = MetricsRegistry::new();
        r.add("c", u64::MAX - 1);
        r.add("c", 5);
        assert_eq!(r.counter("c"), u64::MAX, "add saturates");

        let mut a = MetricsRegistry::new();
        a.add("c", u64::MAX - 1);
        let mut b = MetricsRegistry::new();
        b.add("c", u64::MAX - 1);
        a.merge(&b);
        assert_eq!(a.counter("c"), u64::MAX, "merge saturates");
    }

    #[test]
    fn merge_preserves_disjoint_keys() {
        let mut a = MetricsRegistry::new();
        a.add("only.in.a", 1);
        a.observe("hist.only.a", 10);
        let mut b = MetricsRegistry::new();
        b.add("only.in.b", 2);
        b.observe("hist.only.b", 20);

        a.merge(&b);
        assert_eq!(a.counter("only.in.a"), 1);
        assert_eq!(a.counter("only.in.b"), 2);
        assert_eq!(a.histogram("hist.only.a").unwrap().count(), 1);
        assert_eq!(a.histogram("hist.only.b").unwrap().count(), 1);
        // And the source registry is untouched.
        assert_eq!(b.counter("only.in.a"), 0);
        assert_eq!(b.counter("only.in.b"), 2);
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.add("switch.packets_processed", 10);
        a.add("switch.packets_processed", 5);
        a.observe("queue.depth_bytes", 100);

        let mut b = MetricsRegistry::new();
        b.add("switch.packets_processed", 7);
        b.add("switch.tpps_executed", 3);
        b.observe("queue.depth_bytes", 300);

        a.merge(&b);
        assert_eq!(a.counter("switch.packets_processed"), 22);
        assert_eq!(a.counter("switch.tpps_executed"), 3);
        assert_eq!(a.counter("absent"), 0);
        let h = a.histogram("queue.depth_bytes").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400);
    }

    #[test]
    fn json_rendering() {
        let mut r = MetricsRegistry::new();
        r.add("a.b", 2);
        r.observe("h", 8);
        let j = r.to_json();
        assert!(j.contains("\"a.b\":2"));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"sum\":8"));
    }
}

//! Named counters and log₂-bucket histograms, aggregated across switches.
//!
//! `tpp-asic` exports its registers into a [`MetricsRegistry`] under
//! stable dotted names (`switch.packets_processed`, `port.tx_bytes`,
//! `queue.depth_bytes` …); `tpp-netsim::Simulator` rebuilds one registry
//! over all switches on every stats tick, so the ad-hoc register structs
//! stay the (fast, faithful) backing store and the registry is the
//! uniform exported *view* — the shape a production system would scrape.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

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
    ///
    /// Not a second quantile rule beside [`nearest_rank`]: a histogram
    /// holds no samples, only log₂ bucket counts, so this estimates
    /// within a bucket where `nearest_rank` picks an exact sample.
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

/// The one quantile rule over raw samples: nearest rank, no
/// interpolation. The `num/den` quantile of `n` ascending-sorted samples
/// is the sample of 1-based rank ⌈n·num/den⌉, computed in `u128` so no
/// product overflows and clamped to `[1, n]`; `None` when `sorted` is
/// empty. Integer-exact, so recomputing from the raw samples reproduces
/// a value bit for bit.
pub fn nearest_rank<T: Copy>(sorted: &[T], num: u64, den: u64) -> Option<T> {
    let n = sorted.len() as u128;
    let rank = (n * u128::from(num)).div_ceil(u128::from(den));
    sorted.get(rank.clamp(1, n.max(1)) as usize - 1).copied()
}

/// A registry of named counters and histograms.
///
/// Names are dotted paths (`stage.metric`); aggregation across switches
/// is a plain merge (counters add, histograms merge), which is correct
/// because every exported value is a monotonic count or a sample stream.
///
/// A registry rebuilt over and over (`clear`, then re-export) keeps its
/// keys: [`MetricsRegistry::clear`] marks every entry absent instead of
/// dropping it, and the next write to a known name finds its key, so a
/// steady-state rebuild allocates nothing. An absent entry is invisible
/// to every reader — [`counter`](Self::counter),
/// [`histogram`](Self::histogram), the iterators, [`to_json`](Self::to_json)
/// and `==` see exactly what the current rebuild exported.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    /// `None` marks a key the last [`MetricsRegistry::clear`] emptied.
    counters: BTreeMap<String, Option<u64>>,
    histograms: BTreeMap<String, Option<Histogram>>,
}

/// Apply `f` to the value of `name` in `map` (`V::default()` when absent
/// or cleared). One lookup for a known name; only a new name allocates
/// its key.
fn update<V: Default>(map: &mut BTreeMap<String, Option<V>>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(slot) => f(slot.get_or_insert_with(V::default)),
        None => {
            let mut value = V::default();
            f(&mut value);
            map.insert(name.to_string(), Some(value));
        }
    }
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
        update(&mut self.counters, name, |v| *v = v.saturating_add(delta));
    }

    /// Set a counter to an absolute value (for gauge-like registers).
    pub fn set(&mut self, name: &str, value: u64) {
        update(&mut self.counters, name, |v| *v = value);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().flatten().unwrap_or(0)
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        update(&mut self.histograms, name, |h| h.observe(value));
    }

    /// Merge a pre-aggregated histogram into the named entry (created
    /// empty first if needed) — the export path for subsystems that
    /// maintain their own `Histogram` instances.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        update(&mut self.histograms, name, |h| h.merge(hist));
    }

    /// Read a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name).and_then(Option::as_ref)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter_map(|(k, v)| v.map(|v| (k.as_str(), v)))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms
            .iter()
            .filter_map(|(k, v)| v.as_ref().map(|h| (k.as_str(), h)))
    }

    /// Merge another registry into this one (counters add saturating,
    /// histograms merge). Keys present in only one registry survive the
    /// merge untouched.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, hist) in other.histograms() {
            self.merge_histogram(name, hist);
        }
    }

    /// Reset everything to empty. Keys are kept, marked absent, so the
    /// next rebuild reuses them.
    pub fn clear(&mut self) {
        self.counters.values_mut().for_each(|v| *v = None);
        self.histograms.values_mut().for_each(|h| *h = None);
    }

    /// Render as one JSON line: `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters()
            .map(|(name, v)| (name.to_string(), Json::Num(v)));
        let histograms = self.histograms().map(|(name, h)| {
            let stats = [
                ("count", Json::Num(h.count())),
                ("sum", Json::Num(h.sum())),
                ("max", Json::Num(h.max())),
                ("mean", Json::Lit(format!("{:.3}", h.mean()))),
            ];
            let stats = stats.map(|(k, v)| (k.to_string(), v));
            (name.to_string(), Json::Obj(stats.into()))
        });
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters.collect())),
            ("histograms".to_string(), Json::Obj(histograms.collect())),
        ])
        .line()
    }
}

/// Equal when both registries export the same present entries; keys a
/// `clear` left absent do not count.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters()) && self.histograms().eq(other.histograms())
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters().collect::<Vec<_>>())
            .field("histograms", &self.histograms().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        assert_eq!(nearest_rank::<u64>(&[], 1, 2), None);
        assert_eq!(nearest_rank(&[7], 1, 2), Some(7));
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 1, 2), Some(2));
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 5], 1, 2), Some(3));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 99, 100), Some(99));
        assert_eq!(nearest_rank(&v, 1, 1), Some(100));
        // p0 clamps up to rank 1; works over any `Copy` sample.
        let f = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&f, 0, 1), Some(1.0));
        assert_eq!(nearest_rank(&f, 95, 100), Some(5.0));
        // No product overflows: rank ⌈n·num/den⌉ is taken in u128.
        assert_eq!(nearest_rank(&v, u64::MAX, u64::MAX), Some(100));
    }

    #[test]
    fn nearest_rank_clamps_past_the_end() {
        // num > den asks for rank ⌈2·3/2⌉ = 3 of 2 samples: the last.
        assert_eq!(nearest_rank(&[1, 2], 3, 2), Some(2));
    }

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
        let pinned =
            r#"{"counters":{"a.b":2},"histograms":{"h":{"count":1,"sum":8,"max":8,"mean":8.000}}}"#;
        assert_eq!(j, pinned);
        assert_eq!(Json::parse(&j).unwrap().line(), j);
    }

    #[test]
    fn cleared_entries_are_absent_until_re_exported() {
        // One rebuild exports a fault counter, a zero opcode and a
        // histogram; the next exports only `kept`. The reused registry
        // must read exactly like one built fresh from the second export.
        let mut reused = MetricsRegistry::new();
        reused.set("fault.reboots", 3);
        reused.add("profile.tcpu.opcode.NOP", 0);
        reused.observe("queue.depth_bytes", 64);
        reused.add("kept", 1);
        reused.clear();
        reused.add("kept", 2);

        let mut fresh = MetricsRegistry::new();
        fresh.add("kept", 2);

        assert_eq!(reused, fresh);
        assert_eq!(reused.to_json(), fresh.to_json());
        assert_eq!(reused.counters().collect::<Vec<_>>(), vec![("kept", 2)]);
        assert_eq!(reused.histograms().count(), 0);
        assert_eq!(reused.counter("fault.reboots"), 0);
        assert!(reused.histogram("queue.depth_bytes").is_none());
        assert_ne!(reused, {
            let mut other = fresh.clone();
            other.add("profile.tcpu.opcode.NOP", 0);
            other
        });

        // Re-exported, a cleared key starts from zero, not from its old value.
        reused.add("fault.reboots", 1);
        reused.observe("queue.depth_bytes", 8);
        assert_eq!(reused.counter("fault.reboots"), 1);
        assert_eq!(reused.histogram("queue.depth_bytes").unwrap().count(), 1);
    }
}

//! Ring-buffer time series: the observability plane's per-tick layer.
//!
//! [`crate::ObsHandle::series`] samples every switch on every
//! stats tick into fixed-capacity [`RingSeries`] — queue depth, link
//! utilization, drop and fault rates, cache hit rates. A full series
//! never reallocates: it *downsamples* (keeps every other point and
//! doubles its stride), so an arbitrarily long run always fits in the
//! same memory with uniformly-spaced points, recent and old alike. The
//! JSONL exporter in `tpp-obs` dumps a [`SeriesSet`] for offline
//! plotting.

use std::collections::BTreeMap;

/// A fixed-capacity `(t_ns, value)` series that downsamples on
/// overflow: when full, every other point is discarded and the
/// recording stride doubles, halving resolution instead of dropping
/// history.
#[derive(Debug, Clone)]
pub struct RingSeries {
    points: Vec<(u64, u64)>,
    cap: usize,
    stride: u64,
    offered: u64,
}

impl RingSeries {
    /// A series holding at most `cap` points (min 2).
    pub fn new(cap: usize) -> Self {
        RingSeries {
            points: Vec::new(),
            cap: cap.max(2),
            stride: 1,
            offered: 0,
        }
    }

    /// Offer one sample; recorded only when the offer index lands on
    /// the current stride.
    pub fn offer(&mut self, t_ns: u64, value: u64) {
        let take = self.offered.is_multiple_of(self.stride);
        self.offered += 1;
        if !take {
            return;
        }
        if self.points.len() == self.cap {
            // Keep even indices: those are the multiples of the doubled
            // stride, so spacing stays uniform across the whole series.
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
            if !(self.offered - 1).is_multiple_of(self.stride) {
                // The point that triggered the compaction falls on an
                // odd multiple of the new stride; drop it too.
                return;
            }
        }
        self.points.push((t_ns, value));
    }

    /// The recorded points, oldest first.
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Current recording stride (1 until the first overflow, then
    /// doubling).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Samples offered over the series' lifetime.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The most recent recorded point.
    pub fn last(&self) -> Option<(u64, u64)> {
        self.points.last().copied()
    }

    /// Largest recorded value.
    pub fn max_value(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }
}

/// The per-tick metrics sampled for every switch.
pub const SWITCH_SERIES_METRICS: &[&str] = &[
    "queue.total_bytes",
    "queue.max_bytes",
    "link.tx_util_permille",
    "drop.bytes_per_tick",
    "cache.decode_hit_permille",
];

/// The per-tick fleet-wide metrics (faults and losses are simulator
/// state, not per-switch registers).
pub const FLEET_SERIES_METRICS: &[&str] = &["fault.events_per_tick", "link.frames_lost_per_tick"];

/// One switch's series, keyed by metric name.
#[derive(Debug, Clone)]
pub struct SwitchSeries {
    /// The dataplane switch id the series describe.
    pub switch_id: u32,
    series: BTreeMap<&'static str, RingSeries>,
    /// Previous cumulative drop bytes (for the per-tick delta).
    pub(crate) prev_drop_bytes: u64,
}

impl SwitchSeries {
    fn new(switch_id: u32, cap: usize) -> Self {
        let series = SWITCH_SERIES_METRICS
            .iter()
            .map(|&m| (m, RingSeries::new(cap)))
            .collect();
        SwitchSeries {
            switch_id,
            series,
            prev_drop_bytes: 0,
        }
    }

    /// The series for a metric name from [`SWITCH_SERIES_METRICS`].
    pub fn get(&self, metric: &str) -> Option<&RingSeries> {
        self.series.get(metric)
    }

    /// Iterate `(metric, series)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &RingSeries)> {
        self.series.iter().map(|(k, v)| (*k, v))
    }

    pub(crate) fn offer(&mut self, metric: &'static str, t_ns: u64, value: u64) {
        if let Some(s) = self.series.get_mut(metric) {
            s.offer(t_ns, value);
        }
    }
}

/// All series of a run: one [`SwitchSeries`] per switch (indexed like
/// the simulator's switches) plus fleet-wide series.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Per-switch series, indexed by the simulator's switch index.
    pub switches: Vec<SwitchSeries>,
    fleet: BTreeMap<&'static str, RingSeries>,
    pub(crate) prev_faults: u64,
    pub(crate) prev_losses: u64,
    /// Stats ticks sampled.
    pub(crate) ticks: u64,
}

impl SeriesSet {
    /// Build for `switch_ids` (the simulator's switches in index
    /// order), each series holding at most `cap` points.
    pub fn new(switch_ids: &[u32], cap: usize) -> Self {
        SeriesSet {
            switches: switch_ids
                .iter()
                .map(|&id| SwitchSeries::new(id, cap))
                .collect(),
            fleet: FLEET_SERIES_METRICS
                .iter()
                .map(|&m| (m, RingSeries::new(cap)))
                .collect(),
            prev_faults: 0,
            prev_losses: 0,
            ticks: 0,
        }
    }

    /// A fleet-wide series from [`FLEET_SERIES_METRICS`].
    pub fn fleet(&self, metric: &str) -> Option<&RingSeries> {
        self.fleet.get(metric)
    }

    /// Iterate the fleet series in name order.
    pub fn fleet_iter(&self) -> impl Iterator<Item = (&'static str, &RingSeries)> {
        self.fleet.iter().map(|(k, v)| (*k, v))
    }

    /// Stats ticks sampled so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    pub(crate) fn offer_fleet(&mut self, metric: &'static str, t_ns: u64, value: u64) {
        if let Some(s) = self.fleet.get_mut(metric) {
            s.offer(t_ns, value);
        }
    }
}

/// Hit rate in permille; 0 when there were no lookups.
pub(crate) fn permille(hits: u64, misses: u64) -> u64 {
    (hits * 1000).checked_div(hits + misses).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_series_records_until_capacity() {
        let mut s = RingSeries::new(8);
        for i in 0..8u64 {
            s.offer(i * 10, i);
        }
        assert_eq!(s.points().len(), 8);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.last(), Some((70, 7)));
    }

    #[test]
    fn overflow_downsamples_and_doubles_stride() {
        let mut s = RingSeries::new(8);
        for i in 0..32u64 {
            s.offer(i, i);
        }
        assert_eq!(s.stride(), 4, "two compactions: 1 → 2 → 4");
        assert!(s.points().len() <= 8);
        // Uniform spacing: every recorded offer index is a multiple of
        // the final stride.
        for &(t, _) in s.points() {
            assert_eq!(t % s.stride(), 0, "point at {t} off the stride grid");
        }
        // History is preserved: first point is still the first sample.
        assert_eq!(s.points()[0], (0, 0));
        assert_eq!(s.offered(), 32);
    }

    #[test]
    fn long_runs_stay_bounded() {
        let mut s = RingSeries::new(16);
        for i in 0..100_000u64 {
            s.offer(i, i % 7);
        }
        assert!(s.points().len() <= 16);
        assert!(s.stride() >= 100_000 / 16);
    }

    #[test]
    fn series_set_lookup() {
        let set = SeriesSet::new(&[0x10, 0x20], 4);
        assert_eq!(set.switches.len(), 2);
        assert_eq!(set.switches[1].switch_id, 0x20);
        assert!(set.switches[0].get("queue.total_bytes").is_some());
        assert!(set.switches[0].get("bogus").is_none());
        assert!(set.fleet("fault.events_per_tick").is_some());
    }

    #[test]
    fn permille_rates() {
        assert_eq!(permille(0, 0), 0);
        assert_eq!(permille(3, 1), 750);
        assert_eq!(permille(5, 0), 1000);
    }
}

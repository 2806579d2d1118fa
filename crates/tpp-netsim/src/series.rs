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
//!
//! Each shard samples its own switches at the ticks it takes inside the
//! run loop; a fleet-wide series is the sum of one share per shard,
//! merged when a run returns.

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

    /// Overwrite with the pointwise sum of `parts`, which were offered
    /// samples at the same instants: they decimated alike, so their
    /// points line up one for one.
    fn set_sum<'a>(&mut self, mut parts: impl Iterator<Item = &'a RingSeries>) {
        let first = parts.next().expect("at least one part");
        // `Vec::clone_from` keeps this series' allocation.
        self.points.clone_from(&first.points);
        self.stride = first.stride;
        self.offered = first.offered;
        for part in parts {
            for (sum, &(t_ns, value)) in self.points.iter_mut().zip(&part.points) {
                debug_assert_eq!(sum.0, t_ns, "parts offered at different instants");
                sum.1 += value;
            }
        }
    }
}

fn rings(metrics: &[&'static str], cap: usize) -> BTreeMap<&'static str, RingSeries> {
    metrics.iter().map(|&m| (m, RingSeries::new(cap))).collect()
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
        SwitchSeries {
            switch_id,
            series: rings(SWITCH_SERIES_METRICS, cap),
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

/// One shard's share of the fleet series: the per-tick deltas of the
/// fault counters and link losses that shard owns. Every shard offers
/// its share at the same ticks, so the fleet series are the pointwise
/// sums of the shares ([`SeriesSet::merge_fleet`]).
#[derive(Debug, Clone)]
pub(crate) struct FleetShare {
    series: BTreeMap<&'static str, RingSeries>,
    prev_faults: u64,
    prev_losses: u64,
}

impl FleetShare {
    /// Offer one tick's deltas of the shard's running totals.
    pub(crate) fn offer(&mut self, t_ns: u64, faults: u64, losses: u64) {
        for (metric, total, prev) in [
            ("fault.events_per_tick", faults, &mut self.prev_faults),
            ("link.frames_lost_per_tick", losses, &mut self.prev_losses),
        ] {
            if let Some(s) = self.series.get_mut(metric) {
                s.offer(t_ns, total.saturating_sub(*prev));
            }
            *prev = total;
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
    /// One share of the fleet series per shard, indexed like the shards.
    pub(crate) shares: Vec<FleetShare>,
}

impl SeriesSet {
    /// Build for `switch_ids` (the simulator's switches in index
    /// order), each series holding at most `cap` points.
    pub fn new(switch_ids: &[u32], cap: usize) -> Self {
        SeriesSet::sharded(switch_ids, cap, 1)
    }

    /// [`SeriesSet::new`] for a simulator of `shards` shards.
    pub(crate) fn sharded(switch_ids: &[u32], cap: usize, shards: usize) -> Self {
        SeriesSet {
            switches: switch_ids
                .iter()
                .map(|&id| SwitchSeries::new(id, cap))
                .collect(),
            fleet: rings(FLEET_SERIES_METRICS, cap),
            shares: (0..shards)
                .map(|_| FleetShare {
                    series: rings(FLEET_SERIES_METRICS, cap),
                    prev_faults: 0,
                    prev_losses: 0,
                })
                .collect(),
        }
    }

    /// Rebuild the fleet series as the pointwise sums of the shards'
    /// shares.
    pub(crate) fn merge_fleet(&mut self) {
        for (metric, fleet) in &mut self.fleet {
            fleet.set_sum(self.shares.iter().map(|share| &share.series[metric]));
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

    /// Stats ticks sampled so far: every tick offers each fleet series
    /// one sample.
    pub fn ticks(&self) -> u64 {
        self.fleet.values().next().map_or(0, RingSeries::offered)
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

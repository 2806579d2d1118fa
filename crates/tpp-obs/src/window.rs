//! Windowed aggregation over raw time series.
//!
//! The dashboard never draws raw samples: it folds them into
//! fixed-width time windows first, so one glyph of a sparkline and one
//! row of a table describe a *window* — min/mean/max/p50/p99 over every
//! sample whose timestamp falls inside it. [`WindowedSeries`] is that
//! fold. It is built to be **downsample-correct by construction**: the
//! aggregate of a window is a pure function of the samples that landed
//! in it, computed by the workspace's one quantile rule
//! ([`nearest_rank`]) the brute-force recomputation tests mirror, so
//! feeding the same points incrementally, in one batch, or after a
//! [`RingSeries`] stride-doubling compaction produces identical windows
//! for identical points.
//!
//! Widths are plain nanosecond counts. The paper-scale presets
//! ([`WALL_WINDOWS`]: 1 s / 10 s / 1 min / 5 min) suit wall-clock
//! deployments; simulated scenarios run for milliseconds, so the
//! dashboard also ships sim-scale presets ([`SIM_WINDOWS`]).
//!
//! [`RingSeries`]: tpp_netsim::RingSeries

use std::fmt;
use std::ops::Range;

use tpp_netsim::time;
use tpp_telemetry::nearest_rank;

/// The wall-clock window presets the issue tracker of any real fleet
/// would ask for: 1 s, 10 s, 1 min, 5 min.
pub const WALL_WINDOWS: [u64; 4] = [
    time::secs(1),
    time::secs(10),
    time::secs(60),
    time::secs(300),
];

/// Window presets scaled to simulated scenarios (which finish in
/// milliseconds of virtual time): 20 µs, 100 µs, 500 µs, 2 ms.
pub const SIM_WINDOWS: [u64; 4] = [
    time::micros(20),
    time::micros(100),
    time::micros(500),
    time::millis(2),
];

/// Human label for a window width: `1s`, `10s`, `1m`, `5m`, `100us`...
pub(crate) struct WindowLabel(pub(crate) u64);

impl fmt::Display for WindowLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width_ns = self.0;
        for (unit_ns, unit) in [
            (time::secs(60), "m"),
            (time::secs(1), "s"),
            (time::millis(1), "ms"),
            (time::micros(1), "us"),
        ] {
            if width_ns >= unit_ns && width_ns.is_multiple_of(unit_ns) {
                return write!(f, "{}{unit}", width_ns / unit_ns);
            }
        }
        write!(f, "{width_ns}ns")
    }
}

/// The aggregate of one closed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAgg {
    /// Window start (inclusive), ns; the window covers
    /// `[start_ns, start_ns + width)`.
    pub start_ns: u64,
    /// Samples that landed in the window.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of all samples (for the exact mean).
    pub sum: u64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
}

impl WindowAgg {
    /// Arithmetic mean of the window's samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Folds `(t_ns, value)` samples into fixed-width windows aligned to
/// `t / width` (so two series fed the same width always share window
/// boundaries and can be compared column by column).
///
/// Samples must arrive in non-decreasing time order — which is how
/// every series in the repo records them (stats ticks, probe send
/// times). A window's aggregate is sealed when the first later-window
/// sample arrives (or at [`finish`]); empty windows are skipped, not
/// zero-filled, so sparse series stay sparse.
///
/// [`finish`]: WindowedSeries::finish
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    width_ns: u64,
    closed: Vec<WindowAgg>,
    /// Index of the open window, if any.
    open: Option<u64>,
    /// The open window's samples so far. One buffer for the life of the
    /// series: sealing a window empties it but keeps its capacity.
    samples: Vec<u64>,
}

impl WindowedSeries {
    /// An empty series folding into `width_ns`-wide windows (min 1 ns).
    pub fn new(width_ns: u64) -> Self {
        WindowedSeries {
            width_ns: width_ns.max(1),
            closed: Vec::new(),
            open: None,
            samples: Vec::new(),
        }
    }

    /// Fold a whole point slice (e.g. `RingSeries::points`) at once,
    /// into a window list sized once by [`max_windows`].
    #[cfg(test)]
    fn from_points(points: &[(u64, u64)], width_ns: u64) -> Self {
        let mut closed = Vec::with_capacity(max_windows(points, width_ns));
        fold_into(points, width_ns, &mut closed, &mut Vec::new());
        WindowedSeries {
            closed,
            ..WindowedSeries::new(width_ns)
        }
    }

    /// Fold a [`RingSeries`] — stride and overflow state do not matter,
    /// only the recorded points do.
    #[cfg(test)]
    fn from_ring(ring: &tpp_netsim::RingSeries, width_ns: u64) -> Self {
        WindowedSeries::from_points(ring.points(), width_ns)
    }

    /// Offer one sample. Samples must be offered in non-decreasing
    /// `t_ns` order; a sample older than the open window is folded into
    /// the open window (never a closed one), keeping the fold total.
    pub fn push(&mut self, t_ns: u64, value: u64) {
        let idx = t_ns / self.width_ns;
        if self.open.is_none_or(|open_idx| idx > open_idx) {
            self.seal();
            self.open = Some(idx);
        }
        self.samples.push(value);
    }

    /// Seal the open window (if any); call after the last sample.
    pub fn finish(&mut self) {
        self.seal();
    }

    fn seal(&mut self) {
        let Some(idx) = self.open.take() else {
            return;
        };
        let vals = &mut self.samples;
        vals.sort_unstable();
        self.closed.push(WindowAgg {
            start_ns: idx * self.width_ns,
            count: vals.len() as u64,
            min: vals[0],
            max: *vals.last().expect("non-empty window"),
            sum: vals.iter().sum(),
            p50: nearest_rank(vals, 1, 2).expect("non-empty window"),
            p99: nearest_rank(vals, 99, 100).expect("non-empty window"),
        });
        vals.clear();
    }

    /// The sealed windows, oldest first.
    pub fn windows(&self) -> &[WindowAgg] {
        &self.closed
    }

    /// The most recent sealed window.
    pub fn last(&self) -> Option<&WindowAgg> {
        self.closed.last()
    }
}

/// The most windows [`fold_into`] can seal from `points`: one per window
/// the first and last point span, and at most one per point.
pub(crate) fn max_windows(points: &[(u64, u64)], width_ns: u64) -> usize {
    let width_ns = width_ns.max(1);
    match (points.first(), points.last()) {
        (Some(&(first, _)), Some(&(last, _))) => {
            let span = (last / width_ns).saturating_sub(first / width_ns);
            span.saturating_add(1).min(points.len() as u64) as usize
        }
        _ => 0,
    }
}

/// Fold `points` into `width_ns` windows appended to `out`, holding each
/// open window's samples in `scratch` (whatever it held is discarded; it
/// is left empty): exactly [`WindowedSeries::push`] then
/// [`WindowedSeries::finish`], run on the caller's buffers so a caller
/// folding many series allocates nothing per series.
pub(crate) fn fold_into(
    points: &[(u64, u64)],
    width_ns: u64,
    out: &mut Vec<WindowAgg>,
    scratch: &mut Vec<u64>,
) {
    scratch.clear();
    let mut w = WindowedSeries {
        closed: std::mem::take(out),
        samples: std::mem::take(scratch),
        ..WindowedSeries::new(width_ns)
    };
    for &(t, v) in points {
        w.push(t, v);
    }
    w.finish();
    (*out, *scratch) = (w.closed, w.samples);
}

/// Largest window-max across `windows` (sparkline scale).
pub(crate) fn max_value(windows: &[WindowAgg]) -> u64 {
    windows.iter().map(|w| w.max).max().unwrap_or(0)
}

/// The newest `n` windows: what a sparkline of width `n` draws.
pub(crate) fn newest(windows: &[WindowAgg], n: usize) -> &[WindowAgg] {
    &windows[windows.len().saturating_sub(n)..]
}

/// Many folded series in two flat lists — every series' windows back to
/// back, and per series its metric name and span of that list — so a
/// whole fleet's worth of series costs two allocations, not two per
/// series.
#[derive(Debug, Clone, Default)]
pub struct WindowStore {
    series: Vec<(&'static str, Range<usize>)>,
    windows: Vec<WindowAgg>,
}

impl WindowStore {
    /// An empty store with room for `series` series of `windows` windows
    /// in total.
    pub(crate) fn with_capacity(series: usize, windows: usize) -> Self {
        WindowStore {
            series: Vec::with_capacity(series),
            windows: Vec::with_capacity(windows),
        }
    }

    /// Series folded so far: the next one's index.
    pub(crate) fn len(&self) -> usize {
        self.series.len()
    }

    /// Fold `points` into `width_ns` windows as series `metric`
    /// ([`fold_into`], with `scratch` for each window's samples).
    pub(crate) fn fold(
        &mut self,
        metric: &'static str,
        points: &[(u64, u64)],
        width_ns: u64,
        scratch: &mut Vec<u64>,
    ) {
        let start = self.windows.len();
        fold_into(points, width_ns, &mut self.windows, scratch);
        self.series.push((metric, start..self.windows.len()));
    }

    /// The series with indices in `group`, as `(metric, windows)` in
    /// fold order.
    pub fn group(
        &self,
        group: Range<usize>,
    ) -> impl Iterator<Item = (&'static str, &[WindowAgg])> + '_ {
        self.series[group]
            .iter()
            .map(|(metric, span)| (*metric, &self.windows[span.clone()]))
    }

    /// The windows of series `metric` within `group`, if it was folded.
    pub fn find(&self, group: Range<usize>, metric: &str) -> Option<&[WindowAgg]> {
        self.group(group)
            .find(|&(m, _)| m == metric)
            .map(|(_, windows)| windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_host::splitmix64;
    use tpp_netsim::RingSeries;

    /// The brute-force oracle: bucket raw points by `t / width` in one
    /// pass over the whole slice, recomputing every aggregate from
    /// scratch with independent (iterator-based) min/max/sum and the
    /// shared nearest-rank rule.
    fn brute_force(points: &[(u64, u64)], width_ns: u64) -> Vec<WindowAgg> {
        let mut buckets: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for &(t, v) in points {
            buckets.entry(t / width_ns).or_default().push(v);
        }
        buckets
            .into_iter()
            .map(|(idx, mut vals)| {
                vals.sort_unstable();
                WindowAgg {
                    start_ns: idx * width_ns,
                    count: vals.len() as u64,
                    min: vals.iter().copied().min().unwrap(),
                    max: vals.iter().copied().max().unwrap(),
                    sum: vals.iter().sum(),
                    p50: nearest_rank(&vals, 1, 2).unwrap(),
                    p99: nearest_rank(&vals, 99, 100).unwrap(),
                }
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_across_window_sizes() {
        // Irregularly spaced timestamps (monotone), noisy values.
        let mut t = 0u64;
        let points: Vec<(u64, u64)> = (0..500u64)
            .map(|i| {
                t += splitmix64(i) % 37;
                (t, splitmix64(i ^ 0xABCD) % 10_000)
            })
            .collect();
        for width in [1, 7, 50, 128, 1_000, 10_000] {
            let inc = WindowedSeries::from_points(&points, width);
            assert_eq!(
                inc.windows(),
                brute_force(&points, width).as_slice(),
                "width {width} diverged from brute force"
            );
            // The fold is total: no sample lost to window bookkeeping.
            let folded: u64 = inc.windows().iter().map(|w| w.count).sum();
            assert_eq!(folded, points.len() as u64);
        }
    }

    #[test]
    fn incremental_equals_batch() {
        let points: Vec<(u64, u64)> = (0..200u64).map(|i| (i * 13, splitmix64(i) % 500)).collect();
        let batch = WindowedSeries::from_points(&points, 100);
        let mut inc = WindowedSeries::new(100);
        for &(t, v) in &points {
            inc.push(t, v);
        }
        inc.finish();
        assert_eq!(batch.windows(), inc.windows());
    }

    #[test]
    fn ring_overflow_keeps_windows_consistent() {
        // Feed far more samples than the ring holds, forcing several
        // stride-doubling compactions, then check the windowed view of
        // the *recorded* points still matches brute force over those
        // same points — downsampling changes which samples survive,
        // never how surviving samples aggregate.
        let mut ring = RingSeries::new(32);
        for i in 0..4_096u64 {
            ring.offer(i * 10, splitmix64(i) % 1_000);
        }
        assert!(ring.stride() > 1, "test must exercise the overflow path");
        for width in [64, 500, 4_096] {
            let w = WindowedSeries::from_ring(&ring, width);
            assert_eq!(
                w.windows(),
                brute_force(ring.points(), width).as_slice(),
                "width {width} diverged after stride doubling"
            );
        }
    }

    #[test]
    fn one_sample_buffer_serves_every_window() {
        // Ten samples per window; by the third the buffer has its size.
        let mut w = WindowedSeries::new(10);
        for i in 0..25u64 {
            w.push(i, i);
        }
        let (buffer, capacity) = (w.samples.as_ptr(), w.samples.capacity());
        for i in 25..4_000u64 {
            w.push(i, splitmix64(i) % 1_000);
        }
        w.finish();
        assert_eq!(w.windows().len(), 400);
        assert_eq!(
            (w.samples.as_ptr(), w.samples.capacity()),
            (buffer, capacity),
            "sealing must not drop or regrow the sample buffer"
        );
    }

    #[test]
    fn nearest_rank_rule() {
        // Each window's p50/p99 is the nearest-rank sample of what
        // landed in it, whatever order the samples arrived in.
        let mut points = vec![(0, 7)];
        points.extend([4, 1, 3, 2].map(|v| (100, v)));
        points.extend([5, 3, 1, 4, 2].map(|v| (200, v)));
        points.extend((1..=100).rev().map(|v| (300, v)));
        let w = WindowedSeries::from_points(&points, 100);
        let p = w
            .windows()
            .iter()
            .map(|a| (a.p50, a.p99))
            .collect::<Vec<_>>();
        assert_eq!(p, [(7, 7), (2, 4), (3, 5), (50, 99)]);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 1, 1), Some(100));
    }

    #[test]
    fn empty_windows_are_skipped() {
        let w = WindowedSeries::from_points(&[(5, 1), (1_005, 3)], 10);
        assert_eq!(w.windows().len(), 2);
        assert_eq!(w.windows()[0].start_ns, 0);
        assert_eq!(w.windows()[1].start_ns, 1_000);
    }

    #[test]
    fn labels() {
        let label = |ns| WindowLabel(ns).to_string();
        assert_eq!(label(time::secs(1)), "1s");
        assert_eq!(label(time::secs(10)), "10s");
        assert_eq!(label(time::secs(60)), "1m");
        assert_eq!(label(time::secs(300)), "5m");
        assert_eq!(label(time::micros(100)), "100us");
        assert_eq!(label(time::millis(2)), "2ms");
        assert_eq!(label(1_500), "1500ns");
    }

    #[test]
    fn spark_values_take_newest_window_maxima() {
        let points: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 10, i)).collect();
        let w = WindowedSeries::from_points(&points, 100);
        let spark = newest(w.windows(), 3);
        assert_eq!(spark.len(), 3);
        assert_eq!(spark.last().unwrap().max, 49);
        assert_eq!(max_value(w.windows()), 49);
        assert_eq!(newest(&[], 3), []);
    }

    #[test]
    fn a_store_folds_each_series_like_its_own_windowed_series() {
        let mut t = 0u64;
        let points: Vec<(u64, u64)> = (0..300u64)
            .map(|i| {
                t += splitmix64(i) % 23;
                (t, splitmix64(!i) % 1_000)
            })
            .collect();
        let parts = [&points[..100], &points[100..], &[][..], &points[7..8]];
        let cap: usize = parts.iter().map(|p| max_windows(p, 64)).sum();
        let mut store = WindowStore::with_capacity(parts.len(), cap);
        // Left over from another use of the scratch: must not leak in.
        let mut scratch = vec![u64::MAX; 1_000];
        for (metric, part) in ["a", "b", "c", "d"].into_iter().zip(parts) {
            store.fold(metric, part, 64, &mut scratch);
        }
        assert_eq!(store.windows.capacity(), cap, "sized once, never grown");
        assert!(scratch.is_empty());
        for (i, (metric, windows)) in store.group(0..store.len()).enumerate() {
            assert_eq!(windows, WindowedSeries::from_points(parts[i], 64).windows());
            assert_eq!(store.find(0..store.len(), metric), Some(windows));
        }
        assert_eq!(store.find(2..4, "a"), None, "outside the group");
        assert_eq!(store.find(0..4, "c"), Some(&[][..]), "folded, empty");
    }
}

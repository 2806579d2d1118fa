//! Windowed aggregation over raw time series.
//!
//! The dashboard never draws raw samples: it folds them into
//! fixed-width time windows first, so one glyph of a sparkline and one
//! row of a table describe a *window* — min/mean/max/p50/p99 over every
//! sample whose timestamp falls inside it. [`WindowedSeries`] is that
//! fold. It is built to be **downsample-correct by construction**: the
//! aggregate of a window is a pure function of the samples that landed
//! in it, computed by the one quantile rule ([`nearest_rank`]) the
//! brute-force recomputation tests mirror, so feeding the same points
//! incrementally, in one batch, or after a [`RingSeries`]
//! stride-doubling compaction produces identical windows for identical
//! points.
//!
//! Widths are plain nanosecond counts. The paper-scale presets
//! ([`WALL_WINDOWS`]: 1 s / 10 s / 1 min / 5 min) suit wall-clock
//! deployments; simulated scenarios run for milliseconds, so the
//! dashboard also ships sim-scale presets ([`SIM_WINDOWS`]).
//!
//! [`RingSeries`]: tpp_netsim::RingSeries

use tpp_netsim::time;
use tpp_netsim::RingSeries;

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
pub(crate) fn window_label(width_ns: u64) -> String {
    if width_ns >= time::secs(60) && width_ns.is_multiple_of(time::secs(60)) {
        format!("{}m", width_ns / time::secs(60))
    } else if width_ns >= time::secs(1) && width_ns.is_multiple_of(time::secs(1)) {
        format!("{}s", width_ns / time::secs(1))
    } else if width_ns >= time::millis(1) && width_ns.is_multiple_of(time::millis(1)) {
        format!("{}ms", width_ns / time::millis(1))
    } else if width_ns >= time::micros(1) && width_ns.is_multiple_of(time::micros(1)) {
        format!("{}us", width_ns / time::micros(1))
    } else {
        format!("{width_ns}ns")
    }
}

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// element whose rank covers fraction `num/den` of the population.
/// Integer-exact (no interpolation), so independently recomputing a
/// window from its raw samples reproduces the aggregate bit-for-bit.
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).max(1);
    sorted[(rank - 1) as usize]
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

    /// Fold a whole point slice (e.g. [`RingSeries::points`]) at once.
    /// The window list is sized once, from the windows the first and
    /// last point span (at most one per point).
    pub(crate) fn from_points(points: &[(u64, u64)], width_ns: u64) -> Self {
        let mut w = WindowedSeries::new(width_ns);
        if let (Some(&(first, _)), Some(&(last, _))) = (points.first(), points.last()) {
            let span = (last / w.width_ns).saturating_sub(first / w.width_ns);
            let windows = span.saturating_add(1).min(points.len() as u64);
            w.closed.reserve_exact(windows as usize);
        }
        for &(t, v) in points {
            w.push(t, v);
        }
        w.finish();
        w
    }

    /// Fold a [`RingSeries`] — stride and overflow state do not matter,
    /// only the recorded points do.
    pub(crate) fn from_ring(ring: &RingSeries, width_ns: u64) -> Self {
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
            p50: nearest_rank(vals, 1, 2),
            p99: nearest_rank(vals, 99, 100),
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

    /// Largest window-max across the series (sparkline scale).
    pub(crate) fn max_value(&self) -> u64 {
        self.closed.iter().map(|w| w.max).max().unwrap_or(0)
    }

    /// Per-window values for a sparkline, newest `n` windows: the
    /// window maxima (peaks are what a dashboard must not smooth away).
    pub(crate) fn spark_values(&self, n: usize) -> Vec<u64> {
        let start = self.closed.len().saturating_sub(n);
        self.closed[start..].iter().map(|w| w.max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_host::splitmix64;

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
                    p50: nearest_rank(&vals, 1, 2),
                    p99: nearest_rank(&vals, 99, 100),
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
    fn empty_windows_are_skipped() {
        let w = WindowedSeries::from_points(&[(5, 1), (1_005, 3)], 10);
        assert_eq!(w.windows().len(), 2);
        assert_eq!(w.windows()[0].start_ns, 0);
        assert_eq!(w.windows()[1].start_ns, 1_000);
    }

    #[test]
    fn nearest_rank_rule() {
        assert_eq!(nearest_rank(&[], 1, 2), 0);
        assert_eq!(nearest_rank(&[7], 1, 2), 7);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 1, 2), 2);
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 5], 1, 2), 3);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 99, 100), 99);
        assert_eq!(nearest_rank(&v, 1, 1), 100);
    }

    #[test]
    fn labels() {
        assert_eq!(window_label(time::secs(1)), "1s");
        assert_eq!(window_label(time::secs(10)), "10s");
        assert_eq!(window_label(time::secs(60)), "1m");
        assert_eq!(window_label(time::secs(300)), "5m");
        assert_eq!(window_label(time::micros(100)), "100us");
        assert_eq!(window_label(time::millis(2)), "2ms");
        assert_eq!(window_label(1_500), "1500ns");
    }

    #[test]
    fn spark_values_take_newest_window_maxima() {
        let points: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 10, i)).collect();
        let w = WindowedSeries::from_points(&points, 100);
        let spark = w.spark_values(3);
        assert_eq!(spark.len(), 3);
        assert_eq!(*spark.last().unwrap(), 49);
        assert_eq!(w.max_value(), 49);
    }
}

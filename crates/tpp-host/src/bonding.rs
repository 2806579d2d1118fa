//! Probe-driven NIC bonding: an adaptive multi-path scheduler whose
//! *only* link-quality signal is TPP telemetry.
//!
//! A multi-homed host (§2 end-host stack) runs one [`crate::ProbeManager`]
//! per NIC, each periodically tracking a `bonding_collect()` probe down
//! its path. The echoes carry per-hop queue depth and TX utilization
//! read in-band by the switches; the scheduler folds them into per-path
//! EWMAs and drives three decisions:
//!
//! * **Weighting** — data frames spread over the paths by smooth
//!   weighted round-robin, weights derived from the queue EWMA (an
//!   emptier path gets proportionally more credit).
//! * **Hysteresis** — a path enters [`PathHealth::Degraded`] when its
//!   queue EWMA crosses `degrade_queue_bytes` and only returns to
//!   `Good` below *half* that threshold, so a path oscillating around
//!   the line doesn't flap the schedule.
//! * **Failover** — `down_after_misses` consecutive probe losses, or a
//!   switch boot-epoch change anywhere on the path, drop it to
//!   [`PathHealth::Down`] immediately: weight zero, and (optionally)
//!   frames that would have used it are duplicated onto the best
//!   healthy path. `up_after_hits` consecutive fresh echoes bring it
//!   back.
//!
//! All state is integer arithmetic fed only by probe events, so a
//! seeded simulation drives the scheduler bit-identically at any shard
//! count. Every health transition is logged as a [`HealthEvent`] and
//! each path keeps [`RingSeries`] of its queue/utilization samples for
//! the observability plane.

use tpp_netsim::RingSeries;

/// A path's current standing in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathHealth {
    /// Probes are fresh and the queue EWMA is below the degrade
    /// threshold: full weight.
    Good,
    /// Queue EWMA crossed the threshold: minimum weight, and traffic
    /// sent here may be duplicated onto a `Good` path.
    Degraded,
    /// Probes are timing out (or the path's switch rebooted): weight
    /// zero until `up_after_hits` fresh echoes arrive.
    Down,
}

impl PathHealth {
    /// Short display name for dashboards and logs. `Down` shouts so a
    /// dead path stands out in a monochrome fleet table.
    pub fn name(self) -> &'static str {
        match self {
            PathHealth::Good => "good",
            PathHealth::Degraded => "degraded",
            PathHealth::Down => "DOWN",
        }
    }
}

/// One health transition, for the failover timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// Simulation time of the transition.
    pub t_ns: u64,
    /// Which path changed.
    pub path: usize,
    /// Health before the transition.
    pub from: PathHealth,
    /// Health after the transition.
    pub to: PathHealth,
}

/// Tuning knobs for [`BondScheduler`].
#[derive(Debug, Clone)]
pub struct BondConfig {
    /// Number of bonded paths (NICs).
    pub paths: usize,
    /// Queue-EWMA threshold (bytes) above which a path is `Degraded`;
    /// recovery requires dropping below half of it.
    pub degrade_queue_bytes: u64,
    /// Consecutive probe losses before a path is `Down`.
    pub down_after_misses: u32,
    /// Consecutive fresh echoes before a `Down` path is `Good` again.
    pub up_after_hits: u32,
    /// EWMA shift: `ewma += (sample - ewma) >> shift`. Smaller reacts
    /// faster.
    pub ewma_shift: u32,
    /// Duplicate frames scheduled onto a `Degraded` path to the best
    /// healthy path (the receiver dedups).
    pub duplicate_on_degraded: bool,
    /// Capacity of each per-path telemetry [`RingSeries`].
    pub series_capacity: usize,
}

impl Default for BondConfig {
    fn default() -> Self {
        BondConfig {
            paths: 2,
            degrade_queue_bytes: 8 * 1024,
            down_after_misses: 3,
            up_after_hits: 2,
            ewma_shift: 2,
            duplicate_on_degraded: true,
            series_capacity: 128,
        }
    }
}

/// Per-path scheduler state.
#[derive(Debug)]
struct PathState {
    health: PathHealth,
    ewma_queue: u64,
    ewma_util: u64,
    miss_streak: u32,
    hit_streak: u32,
    /// Smooth-WRR credit.
    credit: i64,
    samples: u64,
    losses: u64,
    queue_series: RingSeries,
    util_series: RingSeries,
}

impl PathState {
    fn new(cap: usize) -> Self {
        PathState {
            health: PathHealth::Good,
            ewma_queue: 0,
            ewma_util: 0,
            miss_streak: 0,
            hit_streak: 0,
            credit: 0,
            samples: 0,
            losses: 0,
            queue_series: RingSeries::new(cap),
            util_series: RingSeries::new(cap),
        }
    }
}

/// The bonding scheduler: probe telemetry in, path choices out.
#[derive(Debug)]
pub struct BondScheduler {
    cfg: BondConfig,
    paths: Vec<PathState>,
    events: Vec<HealthEvent>,
    /// Fallback round-robin cursor for the all-Down case.
    rr_cursor: usize,
}

impl BondScheduler {
    /// A scheduler over `cfg.paths` paths, all initially `Good`.
    pub fn new(cfg: BondConfig) -> Self {
        assert!(cfg.paths >= 1, "a bond needs at least one path");
        assert!(cfg.down_after_misses >= 1 && cfg.up_after_hits >= 1);
        let paths = (0..cfg.paths)
            .map(|_| PathState::new(cfg.series_capacity))
            .collect();
        BondScheduler {
            cfg,
            paths,
            events: Vec::new(),
            rr_cursor: 0,
        }
    }

    /// Number of bonded paths.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// A path's current health.
    pub fn health(&self, path: usize) -> PathHealth {
        self.paths[path].health
    }

    /// The health-transition log, in event order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Fresh probe samples folded in for `path`.
    pub fn samples(&self, path: usize) -> u64 {
        self.paths[path].samples
    }

    /// Probe losses charged to `path`.
    pub fn losses(&self, path: usize) -> u64 {
        self.paths[path].losses
    }

    /// The recorded queue-depth series for `path`.
    pub fn queue_series(&self, path: usize) -> &RingSeries {
        &self.paths[path].queue_series
    }

    /// The recorded utilization series for `path`.
    pub fn util_series(&self, path: usize) -> &RingSeries {
        &self.paths[path].util_series
    }

    fn transition(&mut self, t_ns: u64, path: usize, to: PathHealth) {
        let from = self.paths[path].health;
        if from == to {
            return;
        }
        self.paths[path].health = to;
        self.events.push(HealthEvent {
            t_ns,
            path,
            from,
            to,
        });
    }

    /// Fold in one fresh probe echo from `path`: the worst (largest)
    /// queue depth and utilization seen along it.
    pub fn on_sample(&mut self, t_ns: u64, path: usize, queue_bytes: u64, util_permille: u64) {
        let shift = self.cfg.ewma_shift;
        let thr = self.cfg.degrade_queue_bytes;
        {
            let p = &mut self.paths[path];
            p.samples += 1;
            p.miss_streak = 0;
            // Signed EWMA step so the average can come back down.
            p.ewma_queue = (p.ewma_queue as i64
                + ((queue_bytes as i64 - p.ewma_queue as i64) >> shift))
                as u64;
            p.ewma_util = (p.ewma_util as i64
                + ((util_permille as i64 - p.ewma_util as i64) >> shift))
                as u64;
            p.queue_series.offer(t_ns, p.ewma_queue);
            p.util_series.offer(t_ns, p.ewma_util);
        }
        match self.paths[path].health {
            PathHealth::Down => {
                self.paths[path].hit_streak += 1;
                if self.paths[path].hit_streak >= self.cfg.up_after_hits {
                    self.paths[path].hit_streak = 0;
                    self.transition(t_ns, path, PathHealth::Good);
                }
            }
            PathHealth::Good => {
                if self.paths[path].ewma_queue > thr {
                    self.transition(t_ns, path, PathHealth::Degraded);
                }
            }
            PathHealth::Degraded => {
                // Hysteresis: recover only well below the threshold.
                if self.paths[path].ewma_queue < thr / 2 {
                    self.transition(t_ns, path, PathHealth::Good);
                }
            }
        }
    }

    /// Charge a probe timeout to `path`; enough in a row force `Down`.
    pub fn on_probe_loss(&mut self, t_ns: u64, path: usize) {
        let p = &mut self.paths[path];
        p.losses += 1;
        p.miss_streak += 1;
        p.hit_streak = 0;
        if p.miss_streak >= self.cfg.down_after_misses {
            self.transition(t_ns, path, PathHealth::Down);
        }
    }

    /// A switch on `path` rebooted (its boot epoch changed): its state
    /// — and any in-flight frames — are gone, so fail over at once.
    pub fn on_epoch_change(&mut self, t_ns: u64, path: usize) {
        self.paths[path].hit_streak = 0;
        self.transition(t_ns, path, PathHealth::Down);
    }

    /// Scheduling weight for a path: 0 when `Down`, minimum when
    /// `Degraded`, and up to 100 for an idle `Good` path (an emptier
    /// queue EWMA earns proportionally more).
    fn weight(&self, path: usize) -> i64 {
        let p = &self.paths[path];
        match p.health {
            PathHealth::Down => 0,
            PathHealth::Degraded => 1,
            PathHealth::Good => {
                let d = self.cfg.degrade_queue_bytes;
                // 100 at ewma 0, tapering toward ~50 at the threshold.
                1 + (99 * d / (d + p.ewma_queue)) as i64
            }
        }
    }

    /// Pick the path for the next data frame (smooth weighted
    /// round-robin). When every path is `Down`, falls back to plain
    /// round-robin — the frame is probably lost either way, but the
    /// retransmit layer above still gets a deterministic choice.
    pub fn pick(&mut self) -> usize {
        let total: i64 = (0..self.paths.len()).map(|i| self.weight(i)).sum();
        if total == 0 {
            let pick = self.rr_cursor % self.paths.len();
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
            return pick;
        }
        // A path's weight reads only its own health and queue, never a
        // credit, so adding as we go sees the weights summed above.
        for i in 0..self.paths.len() {
            self.paths[i].credit += self.weight(i);
        }
        // argmax over credits (first index wins ties → deterministic)
        let mut best = 0;
        for i in 1..self.paths.len() {
            if self.paths[i].credit > self.paths[best].credit {
                best = i;
            }
        }
        self.paths[best].credit -= total;
        best
    }

    /// Where to send a redundant copy of a frame scheduled on
    /// `primary`, if redundancy is warranted: the healthiest *other*
    /// path when `primary` is `Degraded` (or `Down` via the fallback
    /// picker) and duplication is enabled.
    pub fn duplicate_target(&self, primary: usize) -> Option<usize> {
        if !self.cfg.duplicate_on_degraded || self.paths[primary].health == PathHealth::Good {
            return None;
        }
        (0..self.paths.len())
            .filter(|&i| i != primary && self.paths[i].health == PathHealth::Good)
            .max_by_key(|&i| self.weight(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(paths: usize) -> BondScheduler {
        BondScheduler::new(BondConfig {
            paths,
            ..BondConfig::default()
        })
    }

    #[test]
    fn equal_paths_split_evenly() {
        let mut s = sched(2);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[s.pick()] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn loaded_path_gets_less_traffic() {
        let mut s = sched(2);
        // Path 1 carries a standing queue well below the degrade line.
        for t in 0..32 {
            s.on_sample(t, 0, 0, 0);
            s.on_sample(t, 1, 4096, 500);
        }
        assert_eq!(s.health(1), PathHealth::Good);
        let mut counts = [0usize; 2];
        for _ in 0..300 {
            counts[s.pick()] += 1;
        }
        assert!(
            counts[0] > counts[1] + 50,
            "idle path should dominate: {counts:?}"
        );
    }

    #[test]
    fn misses_drive_down_and_hits_recover() {
        let mut s = sched(2);
        s.on_probe_loss(10, 0);
        s.on_probe_loss(20, 0);
        assert_eq!(s.health(0), PathHealth::Good, "below miss threshold");
        s.on_probe_loss(30, 0);
        assert_eq!(s.health(0), PathHealth::Down);
        // All traffic now avoids path 0.
        for _ in 0..20 {
            assert_eq!(s.pick(), 1);
        }
        s.on_sample(40, 0, 0, 0);
        assert_eq!(s.health(0), PathHealth::Down, "one hit is not enough");
        s.on_sample(50, 0, 0, 0);
        assert_eq!(s.health(0), PathHealth::Good);
        let ev = s.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            (ev[0].t_ns, ev[0].path, ev[0].to),
            (30, 0, PathHealth::Down)
        );
        assert_eq!(
            (ev[1].t_ns, ev[1].path, ev[1].to),
            (50, 0, PathHealth::Good)
        );
    }

    #[test]
    fn queue_hysteresis_degrades_and_recovers() {
        let mut s = sched(2);
        let thr = BondConfig::default().degrade_queue_bytes;
        for t in 0..64 {
            s.on_sample(t, 0, thr * 4, 900);
        }
        assert_eq!(s.health(0), PathHealth::Degraded);
        // Hovering just under the threshold must NOT flip it back.
        for t in 64..80 {
            s.on_sample(t, 0, thr - 1, 900);
        }
        assert_eq!(s.health(0), PathHealth::Degraded, "hysteresis holds");
        for t in 80..160 {
            s.on_sample(t, 0, 0, 0);
        }
        assert_eq!(s.health(0), PathHealth::Good);
    }

    #[test]
    fn epoch_change_fails_over_immediately() {
        let mut s = sched(2);
        s.on_epoch_change(1000, 0);
        assert_eq!(s.health(0), PathHealth::Down);
        assert_eq!(s.events().len(), 1);
        assert_eq!(s.events()[0].from, PathHealth::Good);
    }

    #[test]
    fn degraded_path_duplicates_to_best_good_path() {
        let mut s = BondScheduler::new(BondConfig {
            paths: 3,
            ..BondConfig::default()
        });
        let thr = BondConfig::default().degrade_queue_bytes;
        for t in 0..64 {
            s.on_sample(t, 0, thr * 4, 900);
            s.on_sample(t, 1, 2048, 100);
            s.on_sample(t, 2, 0, 0);
        }
        assert_eq!(s.health(0), PathHealth::Degraded);
        assert_eq!(s.duplicate_target(0), Some(2), "emptiest good path");
        assert_eq!(s.duplicate_target(2), None, "good primary: no copy");
    }

    #[test]
    fn all_down_falls_back_to_round_robin() {
        let mut s = sched(2);
        for p in 0..2 {
            for _ in 0..3 {
                s.on_probe_loss(0, p);
            }
        }
        assert_eq!(s.health(0), PathHealth::Down);
        assert_eq!(s.health(1), PathHealth::Down);
        let picks: Vec<usize> = (0..4).map(|_| s.pick()).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn duplicate_disabled_by_config() {
        let mut s = BondScheduler::new(BondConfig {
            duplicate_on_degraded: false,
            ..BondConfig::default()
        });
        s.on_epoch_change(0, 0);
        assert_eq!(s.duplicate_target(0), None);
    }
}

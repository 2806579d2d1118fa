//! [`FleetSnapshot`] — one queryable view of everything the obs plane
//! knows at an instant.
//!
//! The dashboard renderer is a pure function, so everything it draws
//! must first be *captured* into plain data: per-switch dataplane
//! profile numbers and windowed ring-series, the collector's end-host
//! view (probe RTTs, divergence), fleet-wide transport counters, ECMP
//! per-uplink spread, and bonded-path health. [`FleetSnapshot::capture`]
//! reads the simulator and a [`Collector`] once; after that the
//! snapshot owns every number, and rendering (or diffing, or sorting)
//! never touches live state again. That split is what lets CI pin
//! frames byte-for-byte: same snapshot in, same bytes out.
//!
//! A capture allocates a handful of buffers, each sized once, however
//! many switches and series it reads: every series folds into one
//! [`WindowStore`], and the folds and the span-percentile sorts share one
//! scratch buffer (DESIGN.md, "Observability plane").

use std::ops::Range;

use tpp_host::bonding::PathHealth;
use tpp_host::TransportStats;
use tpp_netsim::{RingSeries, Simulator, SwitchId, SWITCH_SERIES_METRICS};

use crate::collector::Collector;
use crate::window::{max_windows, WindowAgg, WindowStore};

/// One switch's numbers: dataplane profile, hottest queue, and the
/// windowed fold of each of its ring series.
#[derive(Debug, Clone)]
pub struct SwitchRow {
    /// Dataplane `Switch:SwitchID`.
    pub switch_id: u32,
    /// Packets through the pipeline (0 when unprofiled).
    pub packets: u64,
    /// Packets the profiler sampled.
    pub sampled: u64,
    /// 300 ns cut-through budget violations.
    pub violations: u64,
    /// Span latency percentiles, cycles (p50, p99, max).
    pub span: (u64, u64, u64),
    /// Hottest egress queue `(port, queue, peak bytes)`.
    pub hot: (u16, u16, u64),
    /// Current total egress occupancy, bytes.
    pub occupancy_bytes: u64,
    /// This switch's folded ring series ([`SWITCH_SERIES_METRICS`]
    /// names): a group of [`FleetSnapshot::series`]; empty when series
    /// are off.
    pub series: Range<usize>,
}

/// One ECMP-spread uplink: tx frames and share of the spread total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UplinkRow {
    /// Owning switch's dataplane id.
    pub switch_id: u32,
    /// Egress port.
    pub port: u16,
    /// Frames transmitted over the run.
    pub tx_frames: u64,
    /// Share of the fleet-wide uplink tx total, permille.
    pub share_permille: u64,
}

/// One bonded path's health summary.
#[derive(Debug, Clone)]
pub struct BondPathRow {
    /// Path index at the sender.
    pub path: usize,
    /// Health at capture time.
    pub health: PathHealth,
    /// Probes sent / echoes received / losses charged.
    pub probes: (u64, u64, u64),
    /// Queue-depth EWMA distribution (p50, p99, max), bytes.
    pub queue: (u64, u64, u64),
    /// TX-utilization EWMA distribution (p50, p99, max), permille.
    pub util: (u64, u64, u64),
    /// Health transitions over the run.
    pub transitions: u64,
}

/// Fleet-wide transport aggregate plus the FCT distribution.
#[derive(Debug, Clone)]
pub struct TransportView {
    /// Merged counters of every ingested host.
    pub stats: TransportStats,
    /// Flow-completion-time percentiles (p50, p99, max), ns.
    pub fct: (u64, u64, u64),
    /// Completed FCT samples.
    pub fct_count: u64,
}

/// The collector's end-host summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectorSummary {
    /// Probes the monitored hosts sent.
    pub probes_sent: u64,
    /// Echoes received and decoded.
    pub echoes_received: u64,
    /// Queue samples ingested.
    pub samples: u64,
    /// Probe RTT percentiles (p50, p99, max), ns.
    pub rtt: (u64, u64, u64),
    /// Worst observed-vs-ground-truth divergence, bytes.
    pub divergence_max_bytes: u64,
}

/// Everything the dashboard can draw, captured at one instant.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Simulation time of the capture, ns.
    pub t_ns: u64,
    /// Hosts in the fleet.
    pub num_hosts: usize,
    /// Stats ticks the series recorded (0 when series are off).
    pub ticks: u64,
    /// Window width the series were folded into, ns.
    pub window_ns: u64,
    /// Per-switch rows, in simulator index order.
    pub switches: Vec<SwitchRow>,
    /// Every folded series, per-switch groups first, then the fleet's.
    pub series: WindowStore,
    /// The fleet-wide series (fault/loss rates), in name order: a group
    /// of [`Self::series`].
    pub fleet_series: Range<usize>,
    /// Fleet TCPU opcode mix `(mnemonic, executed)`, descending.
    pub opcodes: Vec<(&'static str, u64)>,
    /// Transport aggregate, when any host's stats were ingested.
    pub transport: Option<TransportView>,
    /// ECMP uplink spread, in `(switch, port)` order.
    pub uplinks: Vec<UplinkRow>,
    /// Bonded-path health rows, in path order.
    pub bond_paths: Vec<BondPathRow>,
    /// The collector's own summary.
    pub collector: CollectorSummary,
}

impl FleetSnapshot {
    /// Capture the fleet: read the simulator's switches and series plus
    /// the collector's aggregates, folding every series into
    /// `window_ns` windows. Pure read — capturing never perturbs the
    /// simulation or the collector.
    pub fn capture(sim: &Simulator, collector: &Collector, window_ns: u64) -> FleetSnapshot {
        let series = sim.series();
        let n = sim.num_switches();
        let switch_rings = |i: usize| {
            let sw = series.and_then(|set| set.switches.get(i));
            SWITCH_SERIES_METRICS
                .iter()
                .filter_map(move |&metric| Some((metric, sw?.get(metric)?)))
        };
        let fleet_rings = || series.into_iter().flat_map(|set| set.fleet_iter());

        // Size every buffer once: the series and windows the folds add,
        // the opcode rows, and the scratch the folds and the reservoir
        // sorts share.
        let (mut n_series, mut n_windows, mut scratch_len, mut n_opcodes) = (0, 0, 0, 0);
        let mut size = |ring: &RingSeries| {
            n_series += 1;
            n_windows += max_windows(ring.points(), window_ns);
            scratch_len = scratch_len.max(ring.points().len());
        };
        (0..n)
            .flat_map(switch_rings)
            .for_each(|(_, ring)| size(ring));
        fleet_rings().for_each(|(_, ring)| size(ring));
        for p in (0..n).filter_map(|i| sim.switch(SwitchId(i)).profile()) {
            scratch_len = scratch_len.max(p.total_stat().held());
            n_opcodes += p.opcode_breakdown().count();
        }
        let mut store = WindowStore::with_capacity(n_series, n_windows);
        let mut scratch = Vec::with_capacity(scratch_len);
        let mut opcodes: Vec<(&'static str, u64)> = Vec::with_capacity(n_opcodes);

        let mut switches = Vec::with_capacity(n);
        for i in 0..n {
            let asic = sim.switch(SwitchId(i));
            let (occ, _) = asic.queue_occupancy();
            let (hp, hq, hw) = asic.hottest_queue();
            let (packets, sampled, violations, span) = match asic.profile() {
                Some(p) => {
                    for (op, n) in p.opcode_breakdown() {
                        match opcodes.iter_mut().find(|(m, _)| *m == op.mnemonic()) {
                            Some(slot) => slot.1 += n,
                            None => opcodes.push((op.mnemonic(), n)),
                        }
                    }
                    let t = p.total_stat();
                    let (p50, p99) = t.p50_p99(&mut scratch);
                    let span = (p50, p99, t.max());
                    (p.packets(), p.sampled(), p.budget_violations(), span)
                }
                None => (0, 0, 0, (0, 0, 0)),
            };
            let first = store.len();
            for (metric, ring) in switch_rings(i) {
                store.fold(metric, ring.points(), window_ns, &mut scratch);
            }
            switches.push(SwitchRow {
                switch_id: asic.switch_id(),
                packets,
                sampled,
                violations,
                span,
                hot: (hp, hq.into(), hw),
                occupancy_bytes: occ,
                series: first..store.len(),
            });
        }
        opcodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

        let first = store.len();
        for (metric, ring) in fleet_rings() {
            store.fold(metric, ring.points(), window_ns, &mut scratch);
        }
        let fleet_series = first..store.len();

        let transport = (collector.transport() != &TransportStats::default()
            || collector.fct().count() > 0)
            .then(|| {
                let fct = collector.fct();
                TransportView {
                    stats: *collector.transport(),
                    fct: (fct.p50(), fct.p99(), fct.max()),
                    fct_count: fct.count(),
                }
            });

        let uplink_total: u64 = collector.uplinks().map(|(_, tx)| tx).sum();
        let uplinks = collector
            .uplinks()
            .map(|(&(switch_id, port), tx)| UplinkRow {
                switch_id,
                port,
                tx_frames: tx,
                share_permille: (tx * 1000).checked_div(uplink_total).unwrap_or(0),
            })
            .collect();

        let bond_paths = collector
            .paths()
            .map(|(path, v)| BondPathRow {
                path,
                health: v.final_health,
                probes: (v.probes_sent, v.echoes_received, v.probes_lost),
                queue: (v.queue_hist.p50(), v.queue_hist.p99(), v.queue_hist.max()),
                util: (v.util_hist.p50(), v.util_hist.p99(), v.util_hist.max()),
                transitions: v.transitions.len() as u64,
            })
            .collect();

        let divergence_max_bytes = collector
            .divergences(sim)
            .map(|d| d.abs_diff_bytes)
            .max()
            .unwrap_or(0);
        let rtt = collector.rtt();
        FleetSnapshot {
            t_ns: sim.now(),
            num_hosts: sim.num_hosts(),
            ticks: series.map_or(0, |s| s.ticks()),
            window_ns,
            switches,
            series: store,
            fleet_series,
            opcodes,
            transport,
            uplinks,
            bond_paths,
            collector: CollectorSummary {
                probes_sent: collector.probes_sent,
                echoes_received: collector.echoes_received,
                samples: collector.samples(),
                rtt: (rtt.p50(), rtt.p99(), rtt.max()),
                divergence_max_bytes,
            },
        }
    }

    /// The windows of `row`'s series `metric`, if it was recorded.
    pub fn switch_windows(&self, row: &SwitchRow, metric: &str) -> Option<&[WindowAgg]> {
        self.series.find(row.series.clone(), metric)
    }

    /// The fleet-wide series as `(metric, windows)`, in name order.
    pub fn fleet_windows(&self) -> impl Iterator<Item = (&'static str, &[WindowAgg])> + '_ {
        self.series.group(self.fleet_series.clone())
    }

    /// Indices of [`Self::switches`] ordered by `key` (descending for
    /// load metrics, ascending for ids) — the sortable fleet table.
    pub(crate) fn sorted_switches(&self, key: SortKey) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.switches.len()).collect();
        match key {
            SortKey::SwitchId => idx.sort_by_key(|&i| self.switches[i].switch_id),
            SortKey::Violations => {
                idx.sort_by_key(|&i| {
                    let r = &self.switches[i];
                    (std::cmp::Reverse(r.violations), r.switch_id)
                });
            }
            SortKey::HotBytes => {
                idx.sort_by_key(|&i| {
                    let r = &self.switches[i];
                    (std::cmp::Reverse(r.hot.2), r.switch_id)
                });
            }
            SortKey::Packets => {
                idx.sort_by_key(|&i| {
                    let r = &self.switches[i];
                    (std::cmp::Reverse(r.packets), r.switch_id)
                });
            }
        }
        idx
    }
}

/// Fleet-table sort orders (the dashboard's `s` key cycles these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKey {
    /// Ascending dataplane id (the stable default).
    SwitchId,
    /// Budget violations, descending.
    Violations,
    /// Hottest-queue bytes, descending.
    HotBytes,
    /// Pipeline packets, descending.
    Packets,
}

impl SortKey {
    /// All orders, in `s`-key cycle order.
    pub const ALL: [SortKey; 4] = [
        SortKey::SwitchId,
        SortKey::Violations,
        SortKey::HotBytes,
        SortKey::Packets,
    ];

    /// Column label shown in the header bar.
    pub fn label(self) -> &'static str {
        match self {
            SortKey::SwitchId => "switch",
            SortKey::Violations => "viol",
            SortKey::HotBytes => "hotq",
            SortKey::Packets => "pkts",
        }
    }

    /// The next order in the cycle.
    pub fn next(self) -> SortKey {
        let i = SortKey::ALL.iter().position(|&k| k == self).unwrap_or(0);
        SortKey::ALL[(i + 1) % SortKey::ALL.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_keys_cycle_through_all() {
        let mut k = SortKey::SwitchId;
        for _ in 0..SortKey::ALL.len() {
            k = k.next();
        }
        assert_eq!(k, SortKey::SwitchId);
    }

    #[test]
    fn sorted_switches_orders_by_key() {
        let row = |id: u32, viol: u64, hot: u64| SwitchRow {
            switch_id: id,
            packets: id as u64,
            sampled: 0,
            violations: viol,
            span: (0, 0, 0),
            hot: (0, 0, hot),
            occupancy_bytes: 0,
            series: 0..0,
        };
        let snap = FleetSnapshot {
            t_ns: 0,
            num_hosts: 0,
            ticks: 0,
            window_ns: 1,
            switches: vec![row(0x10, 5, 100), row(0x11, 9, 50), row(0x12, 5, 200)],
            series: WindowStore::default(),
            fleet_series: 0..0,
            opcodes: Vec::new(),
            transport: None,
            uplinks: Vec::new(),
            bond_paths: Vec::new(),
            collector: CollectorSummary::default(),
        };
        assert_eq!(snap.sorted_switches(SortKey::SwitchId), vec![0, 1, 2]);
        assert_eq!(snap.sorted_switches(SortKey::Violations), vec![1, 0, 2]);
        assert_eq!(snap.sorted_switches(SortKey::HotBytes), vec![2, 0, 1]);
        assert_eq!(snap.sorted_switches(SortKey::Packets), vec![2, 1, 0]);
    }
}

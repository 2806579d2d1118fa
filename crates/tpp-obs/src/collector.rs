//! The TPP measurement collector: what the *end-hosts* saw.
//!
//! §2.1's monitor decodes probe echoes into per-switch queue samples;
//! this module aggregates those observations per `(switch, queue)` with
//! HDR-style percentiles, tracks probe RTTs, and — the part that makes
//! it a conformance check and not just a dashboard — compares the
//! end-host view against simulator ground truth. A probe records
//! `Queue:QueueSize` the instant it traverses the switch, so once the
//! network drains, the last sample of a lossless run must equal the
//! (empty) ground-truth occupancy exactly: divergence 0.

use std::collections::BTreeMap;

use tpp_apps::bonding::BondSender;
use tpp_apps::microburst::MicroburstMonitor;
use tpp_host::bonding::PathHealth;
use tpp_host::TransportStats;
use tpp_netsim::{Simulator, SwitchId};
use tpp_telemetry::{Histogram, MetricsRegistry};

/// Aggregated end-host observations of one `(switch, queue)`.
#[derive(Debug, Clone, Default)]
pub struct QueueView {
    /// Distribution of observed `Queue:QueueSize` samples, bytes.
    pub hist: Histogram,
    /// The most recent observation, `(t_ns, queue_bytes)` by probe send
    /// time.
    pub last: Option<(u64, u64)>,
}

impl QueueView {
    fn observe(&mut self, t_ns: u64, queue_bytes: u64) {
        self.hist.observe(queue_bytes);
        if self.last.is_none_or(|(t, _)| t_ns >= t) {
            self.last = Some((t_ns, queue_bytes));
        }
    }
}

/// End-host observation of one switch vs simulator ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchDivergence {
    /// `Switch:SwitchID` of the switch.
    pub switch_id: u32,
    /// The last queue occupancy any probe observed at this switch, or
    /// `None` if no probe traversed it.
    pub observed_bytes: Option<u64>,
    /// The switch's total egress-queue occupancy right now (simulator
    /// ground truth).
    pub ground_truth_bytes: u64,
    /// `|observed - ground truth|`; 0 for unobserved switches.
    pub abs_diff_bytes: u64,
}

/// The collector's view vs ground truth, switch by switch.
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// One row per simulator switch, in simulator index order.
    pub per_switch: Vec<SwitchDivergence>,
    /// Worst per-switch divergence.
    pub max_abs_bytes: u64,
    /// Probes sent but never echoed back (lost, or still in flight).
    pub probes_lost: u64,
}

/// What a bonded sender saw on one of its paths, aggregated after a
/// run: probe accounting, the telemetry distributions its scheduler
/// weighed, and every health transition on the failover timeline.
#[derive(Debug, Clone)]
pub struct PathView {
    /// Probes sent down this path.
    pub probes_sent: u64,
    /// Echoes that made it back and decoded.
    pub echoes_received: u64,
    /// Probe timeouts charged to the path.
    pub probes_lost: u64,
    /// Distribution of the path's queue-depth EWMA samples, bytes.
    pub queue_hist: Histogram,
    /// Distribution of the path's TX-utilization EWMA samples, permille.
    pub util_hist: Histogram,
    /// Health transitions `(t_ns, from, to)`, in event order.
    pub transitions: Vec<(u64, PathHealth, PathHealth)>,
    /// Health at ingest time.
    pub final_health: PathHealth,
}

/// Aggregates TPP measurement results from probe-echo decoding.
///
/// Feed it a [`MicroburstMonitor`] or a [`BondSender`] after a run (or
/// individual samples as they arrive), then export percentiles to a
/// [`MetricsRegistry`] or cross-check with
/// [`Collector::divergence_vs_sim`].
#[derive(Debug, Clone, Default)]
pub struct Collector {
    queues: BTreeMap<(u32, u32), QueueView>,
    rtt: Histogram,
    paths: BTreeMap<usize, PathView>,
    transport: TransportStats,
    fct: Histogram,
    uplinks: BTreeMap<(u32, u16), u64>,
    /// Probes the monitored hosts sent.
    pub probes_sent: u64,
    /// Echoes received and decoded.
    pub echoes_received: u64,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Record one queue-size observation. §2.1 probes carry
    /// `(Switch:SwitchID, Queue:QueueSize)` per hop and don't name the
    /// queue, so callers ingesting monitor samples use `queue_id` 0.
    pub fn ingest_queue_sample(&mut self, switch_id: u32, queue_id: u32, t_ns: u64, bytes: u64) {
        self.queues
            .entry((switch_id, queue_id))
            .or_default()
            .observe(t_ns, bytes);
    }

    /// Record one probe round-trip time.
    pub fn ingest_rtt(&mut self, rtt_ns: u64) {
        self.rtt.observe(rtt_ns);
    }

    /// Ingest everything a [`MicroburstMonitor`] accumulated: queue
    /// samples (as queue 0 of each observed switch), RTTs, and the
    /// sent/received counters. Call once, after the run.
    pub fn ingest_monitor(&mut self, monitor: &MicroburstMonitor) {
        for s in &monitor.samples {
            self.ingest_queue_sample(s.switch_id, 0, s.t_ns, s.queue_bytes as u64);
        }
        for &(_t, rtt) in &monitor.rtts {
            self.ingest_rtt(rtt);
        }
        self.probes_sent += monitor.probes_sent;
        self.echoes_received += monitor.echoes_received;
    }

    /// Ingest everything a [`BondSender`] accumulated: per-path probe
    /// accounting, the scheduler's telemetry series, its health-event
    /// log, and ack latencies (as the RTT distribution). Call once,
    /// after the run.
    pub fn ingest_bond(&mut self, sender: &BondSender) {
        for path in 0..sender.bond.num_paths() {
            let mut view = PathView {
                probes_sent: sender.probes_sent[path],
                echoes_received: sender.echoes_received[path],
                probes_lost: sender.bond.losses(path),
                queue_hist: Histogram::default(),
                util_hist: Histogram::default(),
                transitions: Vec::new(),
                final_health: sender.bond.health(path),
            };
            for &(_t, v) in sender.bond.queue_series(path).points() {
                view.queue_hist.observe(v);
            }
            for &(_t, v) in sender.bond.util_series(path).points() {
                view.util_hist.observe(v);
            }
            for ev in sender.bond.events().iter().filter(|e| e.path == path) {
                view.transitions.push((ev.t_ns, ev.from, ev.to));
            }
            self.probes_sent += view.probes_sent;
            self.echoes_received += view.echoes_received;
            self.paths.insert(path, view);
        }
        for &(_sent, latency) in &sender.ack_latencies {
            self.ingest_rtt(latency);
        }
    }

    /// Fold one host's closed-loop transport counters into the fleet
    /// aggregate (use each app's `stats_snapshot()` so in-flight flows
    /// are included). Call once per host, after the run.
    pub fn ingest_transport(&mut self, stats: &TransportStats) {
        self.transport.merge(stats);
    }

    /// Record one closed-loop flow-completion time.
    pub fn ingest_fct(&mut self, fct_ns: u64) {
        self.fct.observe(fct_ns);
    }

    /// Record one ECMP uplink's cumulative tx-frame counter (read from
    /// `Simulator::link_tx_frames` after a run). Re-ingesting the same
    /// `(switch, port)` replaces the count — the counter is cumulative,
    /// not a delta — so periodic dashboard refreshes stay correct.
    pub fn ingest_uplink_tx(&mut self, switch_id: u32, port: u16, tx_frames: u64) {
        self.uplinks.insert((switch_id, port), tx_frames);
    }

    /// Iterate ingested ECMP uplink counters as `(&(switch_id, port),
    /// tx_frames)` in key order.
    pub fn uplinks(&self) -> impl Iterator<Item = (&(u32, u16), u64)> {
        self.uplinks.iter().map(|(k, &v)| (k, v))
    }

    /// The fleet-wide transport aggregate.
    pub fn transport(&self) -> &TransportStats {
        &self.transport
    }

    /// The closed-loop FCT distribution.
    pub fn fct(&self) -> &Histogram {
        &self.fct
    }

    /// The aggregated view of one bonded path.
    pub fn path(&self, path: usize) -> Option<&PathView> {
        self.paths.get(&path)
    }

    /// Iterate `(path, view)` in path order.
    pub fn paths(&self) -> impl Iterator<Item = (usize, &PathView)> {
        self.paths.iter().map(|(&p, v)| (p, v))
    }

    /// The aggregated view of one `(switch, queue)`.
    pub fn queue(&self, switch_id: u32, queue_id: u32) -> Option<&QueueView> {
        self.queues.get(&(switch_id, queue_id))
    }

    /// The probe RTT distribution.
    pub fn rtt(&self) -> &Histogram {
        &self.rtt
    }

    /// Total queue samples ingested.
    pub fn samples(&self) -> u64 {
        self.queues.values().map(|v| v.hist.count()).sum()
    }

    /// The last observation of a switch across all of its observed
    /// queues (latest probe send time wins).
    fn last_observed(&self, switch_id: u32) -> Option<u64> {
        self.queues
            .range((switch_id, 0)..=(switch_id, u32::MAX))
            .filter_map(|(_, v)| v.last)
            .max_by_key(|&(t, _)| t)
            .map(|(_, bytes)| bytes)
    }

    /// Compare the end-host view against the simulator's current
    /// ground-truth queue occupancy, switch by switch. Exact (max
    /// divergence 0) whenever the network has drained and no probe was
    /// lost mid-burst — the soundness check for the measurement plane.
    pub fn divergence_vs_sim(&self, sim: &Simulator) -> DivergenceReport {
        let mut report = DivergenceReport {
            probes_lost: self.probes_sent.saturating_sub(self.echoes_received),
            ..DivergenceReport::default()
        };
        for i in 0..sim.num_switches() {
            let asic = sim.switch(SwitchId(i));
            let switch_id = asic.switch_id();
            let (ground, _) = asic.queue_occupancy();
            let observed = self.last_observed(switch_id);
            let diff = observed.map_or(0, |o| o.abs_diff(ground));
            report.max_abs_bytes = report.max_abs_bytes.max(diff);
            report.per_switch.push(SwitchDivergence {
                switch_id,
                observed_bytes: observed,
                ground_truth_bytes: ground,
                abs_diff_bytes: diff,
            });
        }
        report
    }

    /// Export the collector's aggregates under `collector.*`.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set("collector.probes_sent", self.probes_sent);
        registry.set("collector.echoes_received", self.echoes_received);
        registry.set("collector.queue_samples", self.samples());
        registry.merge_histogram("collector.rtt_ns", &self.rtt);
        let mut all = Histogram::default();
        for view in self.queues.values() {
            all.merge(&view.hist);
        }
        registry.merge_histogram("collector.queue_bytes", &all);
        // The transport family only exports when something was ingested,
        // so runs without closed-loop traffic keep their metric set (and
        // goldens) unchanged.
        if self.transport != TransportStats::default() || self.fct.count() > 0 {
            let t = &self.transport;
            registry.set("transport.flows_started", t.flows_started);
            registry.set("transport.flows_completed", t.flows_completed);
            registry.set("transport.flows_given_up", t.flows_given_up);
            registry.set("transport.segments_sent", t.segments_sent);
            registry.set("transport.retransmits", t.retransmits);
            registry.set("transport.rto_fires", t.rto_fires);
            registry.set("transport.fast_retransmits", t.fast_retransmits);
            registry.set("transport.dup_segments_rx", t.dup_segments_rx);
            registry.set("transport.acks_sent", t.acks_sent);
            registry.set("transport.probes_sent", t.probes_sent);
            registry.set("transport.rate_updates", t.rate_updates);
            registry.set("transport.epoch_resets", t.epoch_resets);
            registry.set("transport.rate_limited_polls", t.rate_limited_polls);
            registry.set("transport.max_backoff", t.max_backoff);
            registry.merge_histogram("transport.fct_ns", &self.fct);
        }
        // Likewise ECMP spread: only runs that ingested uplink counters
        // grow an ecmp.* family.
        for (&(switch_id, port), &tx) in &self.uplinks {
            registry.set(
                &format!("ecmp.uplink.sw{switch_id}.port{port}.tx_frames"),
                tx,
            );
        }
        for (path, view) in &self.paths {
            registry.set(&format!("bond.path{path}.probes_sent"), view.probes_sent);
            registry.set(&format!("bond.path{path}.echoes"), view.echoes_received);
            registry.set(&format!("bond.path{path}.probes_lost"), view.probes_lost);
            registry.set(
                &format!("bond.path{path}.transitions"),
                view.transitions.len() as u64,
            );
            registry.merge_histogram(&format!("bond.path{path}.queue_bytes"), &view.queue_hist);
            registry.merge_histogram(&format!("bond.path{path}.util_permille"), &view.util_hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_switch_queue() {
        let mut c = Collector::new();
        c.ingest_queue_sample(0x10, 0, 100, 512);
        c.ingest_queue_sample(0x10, 0, 200, 1024);
        c.ingest_queue_sample(0x20, 0, 150, 64);
        assert_eq!(c.samples(), 3);
        let v = c.queue(0x10, 0).unwrap();
        assert_eq!(v.hist.count(), 2);
        assert_eq!(v.last, Some((200, 1024)));
        assert_eq!(c.last_observed(0x10), Some(1024));
        assert_eq!(c.last_observed(0x99), None);
    }

    #[test]
    fn last_keeps_latest_send_time_not_arrival_order() {
        let mut c = Collector::new();
        // A late echo of an *earlier* probe arrives after a fresher one:
        // the fresher send time must win.
        c.ingest_queue_sample(1, 0, 500, 2048);
        c.ingest_queue_sample(1, 0, 100, 9999);
        assert_eq!(c.queue(1, 0).unwrap().last, Some((500, 2048)));
    }

    #[test]
    fn rtt_percentiles() {
        let mut c = Collector::new();
        for rtt in [100u64, 200, 300, 400, 1000] {
            c.ingest_rtt(rtt);
        }
        assert!(c.rtt().p50() >= 100);
        assert!(c.rtt().max() == 1000);
    }

    #[test]
    fn ingest_bond_builds_path_views_and_metrics() {
        use tpp_apps::bonding::{BondReceiver, BondSender, BondSenderConfig};
        use tpp_host::BondConfig;
        use tpp_netsim::{bonded_diamond, time, BondedDiamondParams, RunLimit};
        use tpp_wire::EthernetAddress;

        let cfg = BondSenderConfig {
            dst: EthernetAddress::from_host_id(1),
            expected_hops: 4,
            probe_interval_ns: time::micros(50),
            probe_timeout_ns: time::micros(300),
            probe_stop_ns: time::millis(3),
            data_interval_ns: time::micros(40),
            data_start_ns: time::micros(500),
            data_stop_ns: time::millis(2),
            payload_bytes: 256,
            rto_ns: time::micros(400),
            bond: BondConfig::default(),
        };
        let (mut sim, d) = bonded_diamond(
            BondedDiamondParams::default(),
            Box::new(BondSender::new(cfg)),
            Box::new(BondReceiver::default()),
        );
        sim.run(RunLimit::Quiescent {
            limit_ns: time::millis(10),
        });
        let mut c = Collector::new();
        c.ingest_bond(sim.host_app::<BondSender>(d.sender));
        assert_eq!(c.paths().count(), 2);
        for (_, view) in c.paths() {
            assert!(view.probes_sent > 0);
            assert!(view.echoes_received > 0);
            assert_eq!(view.final_health, PathHealth::Good);
            assert!(view.queue_hist.count() > 0, "series fed the histogram");
        }
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert!(reg.counter("bond.path0.probes_sent") > 0);
        assert!(reg.counter("bond.path1.echoes") > 0);
        assert!(reg.histogram("bond.path0.queue_bytes").is_some());
    }

    #[test]
    fn transport_family_exports_only_when_ingested() {
        let mut c = Collector::new();
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert_eq!(reg.counter("transport.flows_started"), 0);
        assert!(
            reg.histogram("transport.fct_ns").is_none(),
            "no ingest, no family"
        );

        let stats = TransportStats {
            flows_started: 3,
            flows_completed: 2,
            retransmits: 5,
            ..Default::default()
        };
        c.ingest_transport(&stats);
        c.ingest_transport(&stats);
        c.ingest_fct(1_500_000);
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert_eq!(reg.counter("transport.flows_started"), 6);
        assert_eq!(reg.counter("transport.retransmits"), 10);
        assert!(reg.histogram("transport.fct_ns").is_some());
        assert_eq!(c.transport().flows_completed, 4);
        assert_eq!(c.fct().count(), 1);
    }

    #[test]
    fn uplink_counters_replace_not_accumulate() {
        let mut c = Collector::new();
        c.ingest_uplink_tx(0x20, 2, 100);
        c.ingest_uplink_tx(0x20, 3, 50);
        // Cumulative counter re-read on a later refresh: replaces.
        c.ingest_uplink_tx(0x20, 2, 140);
        let rows: Vec<_> = c.uplinks().collect();
        assert_eq!(rows, vec![(&(0x20, 2), 140), (&(0x20, 3), 50)]);
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert_eq!(reg.counter("ecmp.uplink.sw32.port2.tx_frames"), 140);
        assert_eq!(reg.counter("ecmp.uplink.sw32.port3.tx_frames"), 50);
    }

    #[test]
    fn export_names_are_collector_scoped() {
        let mut c = Collector::new();
        c.ingest_queue_sample(1, 0, 10, 128);
        c.ingest_rtt(4_000);
        c.probes_sent = 2;
        c.echoes_received = 1;
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert_eq!(reg.counter("collector.probes_sent"), 2);
        assert_eq!(reg.counter("collector.queue_samples"), 1);
        assert!(reg.histogram("collector.rtt_ns").is_some());
        assert!(reg.histogram("collector.queue_bytes").is_some());
    }
}

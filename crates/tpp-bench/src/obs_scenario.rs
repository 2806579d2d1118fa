//! The seeded microburst scenario behind `tpp-top` and the obs goldens.
//!
//! A 2-leaf × 2-spine fabric; host 0 runs the §2.1 [`MicroburstMonitor`]
//! probing the victim host across the fabric while two bursters incast
//! it, building a queue at the victim leaf's egress port. Every switch
//! runs the dataplane profiler (sample-every-packet) and the simulator
//! records ring series, so one run exercises the whole observability
//! plane: stage latencies, budget violations under queueing, series
//! peaks, and the collector's divergence check — which must come out
//! exact, because the run is lossless and fully drained.
//!
//! Everything is deterministic (seeded reservoirs, discrete-event time,
//! no wall clock), so [`run_obs_scenario`]'s rendered artifacts can be
//! pinned as golden files in CI.

use tpp_apps::{detect_bursts, MicroburstMonitor};
use tpp_asic::ProfileConfig;
use tpp_host::EchoReceiver;
use tpp_netsim::{
    leaf_spine_with, time, HostApp, HostCtx, HostId, LeafSpine, LeafSpineParams, RunLimit,
    SimConfig, Simulator,
};
use tpp_obs::{prometheus_snapshot, render_top, series_jsonl, Collector};
use tpp_telemetry::MetricsRegistry;
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::EthernetAddress;

/// Probe interval (one probe per ~RTT).
pub const PROBE_INTERVAL_NS: u64 = 10_000;
/// The burst window start.
pub const BURST_START_NS: u64 = 200_000;
/// The burst window end.
pub const BURST_END_NS: u64 = 600_000;
/// Monitor keeps probing well past the burst so the final samples see
/// drained queues (the ~50 KB backlog takes ~400 µs to drain at
/// 1 Gb/s, emptying around t=1.05 ms).
pub const PROBE_STOP_NS: u64 = 1_300_000;
/// Upper bound for the run (the scenario quiesces much earlier).
pub const SCENARIO_END_NS: u64 = 3_000_000;

/// A host incasting fixed-size data frames at a victim during
/// `[start_ns, stop_ns)`.
struct Burster {
    target: EthernetAddress,
    start_ns: u64,
    stop_ns: u64,
    period_ns: u64,
    payload_len: usize,
    sent: u64,
}

impl HostApp for Burster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.stop_ns {
            return;
        }
        let frame = build_frame(
            self.target,
            ctx.mac(),
            EtherType(0x0800),
            &vec![0u8; self.payload_len],
        );
        ctx.send(frame);
        self.sent += 1;
        ctx.set_timer(self.period_ns, 0);
    }
}

/// The built scenario: a simulator mid-flight plus the handles the
/// renderers need. Step it for a live view, or let
/// [`run_obs_scenario`] drive it to completion.
pub struct ObsScenario {
    /// The simulator (profiling and series enabled on every switch).
    pub sim: Simulator,
    /// Topology handles.
    pub fabric: LeafSpine,
    /// The host running the [`MicroburstMonitor`].
    pub monitor_host: HostId,
}

impl ObsScenario {
    /// Build the scenario at t=0: monitor on host 0 (leaf 0), echoing
    /// victim on host 2 (leaf 1), bursters on hosts 1 and 3.
    pub fn new() -> Self {
        let params = LeafSpineParams {
            n_leaves: 2,
            n_spines: 2,
            hosts_per_leaf: 2,
            host_link_kbps: 1_000_000, // 1 Gb/s: 8 ns of drain per queued byte
            fabric_link_kbps: 1_000_000,
            queue_limit_bytes: 256 * 1024, // lossless: the burst peaks far below
            delay_ns: time::micros(1),
            host_nic_kbps: 1_000_000,
        };
        let victim = EthernetAddress::from_host_id(2);
        let burster = |start_extra: u64| -> Box<dyn HostApp> {
            Box::new(Burster {
                target: victim,
                start_ns: BURST_START_NS + start_extra,
                stop_ns: BURST_END_NS,
                period_ns: 12_000, // ~1400 B / 12 µs ≈ line rate per burster
                payload_len: 1400,
                sent: 0,
            })
        };
        let apps: Vec<Box<dyn HostApp>> = vec![
            Box::new(MicroburstMonitor::new(
                victim,
                6, // leaf-spine-leaf out and back
                PROBE_INTERVAL_NS,
                50_000,
                PROBE_STOP_NS,
            )),
            burster(0),
            Box::new(EchoReceiver::default()),
            burster(3_000), // offset so the two bursts interleave
        ];
        // 20 µs ticks: fine-grained series without drowning the run.
        let config = SimConfig::new().tick_interval_ns(time::micros(20));
        let (mut sim, fabric) = leaf_spine_with(config, params, apps);
        for &s in fabric.leaves.iter().chain(fabric.spines.iter()) {
            sim.switch_mut(s).enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(128);
        let monitor_host = fabric.hosts[0][0];
        ObsScenario {
            sim,
            fabric,
            monitor_host,
        }
    }

    /// Advance simulation time.
    pub fn step_to(&mut self, t_ns: u64) {
        self.sim.run(RunLimit::Until(t_ns));
    }

    /// A fresh collector fed from the monitor's current state.
    pub fn collector(&self) -> Collector {
        let mut c = Collector::new();
        c.ingest_monitor(self.sim.host_app::<MicroburstMonitor>(self.monitor_host));
        c
    }

    /// Render the `tpp-top` table for the current instant.
    pub fn render(&self) -> String {
        render_top(&self.sim, Some(&self.collector()))
    }

    /// A metrics registry holding every switch's export (pipeline
    /// counters, profile spans) plus the collector's aggregates.
    pub fn registry(&self, collector: &Collector) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for &s in self.fabric.leaves.iter().chain(self.fabric.spines.iter()) {
            self.sim.switch(s).export_metrics(&mut reg);
        }
        collector.export_metrics(&mut reg);
        reg
    }
}

impl Default for ObsScenario {
    fn default() -> Self {
        ObsScenario::new()
    }
}

/// The finished scenario's artifacts, ready to print or pin as goldens.
pub struct ObsRun {
    /// The `tpp-top` table.
    pub top: String,
    /// Prometheus text-format snapshot of the fleet + collector.
    pub prom: String,
    /// JSONL dump of the ring series.
    pub series: String,
    /// Budget violations across all switches (must be > 0: the incast
    /// queues probes behind multiple 300 ns drains).
    pub budget_violations: u64,
    /// Worst collector-vs-ground-truth divergence (must be 0: the run
    /// is lossless and drained).
    pub divergence_max_bytes: u64,
    /// Probes the monitor sent / echoes it got back.
    pub probes_sent: u64,
    /// Echoes received.
    pub echoes_received: u64,
    /// High watermark of the victim leaf's queues, bytes.
    pub peak_queue_bytes: u64,
    /// Micro-bursts the §2.1 detector finds in the victim-leaf series.
    pub bursts_detected: usize,
}

/// Drive the scenario to quiescence and collect every artifact.
pub fn run_obs_scenario() -> ObsRun {
    let mut sc = ObsScenario::new();
    sc.sim.run(RunLimit::Quiescent {
        limit_ns: SCENARIO_END_NS,
    });
    let collector = sc.collector();
    let report = collector.divergence_vs_sim(&sc.sim);
    let top = render_top(&sc.sim, Some(&collector));
    let prom = prometheus_snapshot(&sc.registry(&collector));
    let series = series_jsonl(sc.sim.series().expect("series enabled"));

    let victim_leaf = sc.fabric.leaves[1];
    let victim_leaf_id = sc.sim.switch(victim_leaf).switch_id();
    let monitor = sc.sim.host_app::<MicroburstMonitor>(sc.monitor_host);
    let bursts = detect_bursts(
        &monitor.series_for(victim_leaf_id),
        5_000,
        5 * PROBE_INTERVAL_NS,
    );
    let budget_violations = sc
        .fabric
        .leaves
        .iter()
        .chain(sc.fabric.spines.iter())
        .map(|&s| {
            sc.sim
                .switch(s)
                .profile()
                .map_or(0, |p| p.budget_violations())
        })
        .sum();

    ObsRun {
        top,
        prom,
        series,
        budget_violations,
        divergence_max_bytes: report.max_abs_bytes,
        probes_sent: monitor.probes_sent,
        echoes_received: monitor.echoes_received,
        peak_queue_bytes: sc.sim.switch(victim_leaf).hottest_queue().2,
        bursts_detected: bursts.len(),
    }
}

//! Dashboard feeds: scenarios that pair a live [`Simulator`] with a
//! [`Collector`] so `tpp_top` can capture [`FleetSnapshot`]s from them.
//!
//! Three feeds cover the obs plane end to end:
//!
//! * **obs** — the seeded 2×2 microburst incast behind the obs goldens
//!   (probes, profiling, series, divergence check).
//! * **fct** — a k=4 ECMP fat-tree running the lossy closed-loop
//!   transport on every host: retransmits, RTO ladder, rate clamps,
//!   FCT distribution and per-uplink spread all light up.
//! * **bond** — the bonded-diamond failover drama (degradation, flap,
//!   reboot) feeding path-health rows.
//!
//! Every feed is seeded and wall-clock-free, so a feed built from the
//! same [`SimConfig`] renders byte-identical dashboard frames at any
//! shard count — which is exactly what `tests/dashboard_golden.rs`
//! pins.

use tpp_apps::bonding::BondSender;
use tpp_apps::microburst::MicroburstMonitor;
use tpp_asic::{PortId, ProfileConfig};
use tpp_host::EchoReceiver;
use tpp_netsim::{
    leaf_spine_with, time, Endpoint, FatTreeParams, HostApp, HostCtx, HostId, LeafSpineParams,
    RunLimit, SimConfig, Simulator, SwitchId,
};
use tpp_obs::{Collector, FleetSnapshot};
use tpp_telemetry::MetricsRegistry;

use crate::bonding_scenario;
use crate::traffic::{closed_loop_fat_tree, ClosedFlowGenApp, TrafficConfig};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::EthernetAddress;

/// Seeded per-frame loss on the fct feed's inter-switch links, permille.
pub const FCT_LOSS_PERMILLE: u16 = 5;

/// The obs feed's probe interval (one probe per ~RTT).
pub const OBS_PROBE_INTERVAL_NS: u64 = 10_000;
/// The obs feed's burst window, `[start, end)`.
const OBS_BURST_NS: (u64, u64) = (200_000, 600_000);
/// The obs monitor keeps probing well past the burst so its final
/// samples see drained queues (the ~50 KB backlog takes ~400 µs to drain
/// at 1 Gb/s, emptying around t=1.05 ms).
const OBS_PROBE_STOP_NS: u64 = 1_300_000;
/// Upper bound for the obs run (it quiesces much earlier).
const OBS_END_NS: u64 = 3_000_000;

/// A host incasting fixed-size data frames at a victim during
/// `[start_ns, stop_ns)`.
struct Burster {
    target: EthernetAddress,
    start_ns: u64,
    stop_ns: u64,
    period_ns: u64,
    payload_len: usize,
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
        ctx.set_timer(self.period_ns, 0);
    }
}

/// Which scenario a feed drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DashScenario {
    /// Microburst incast on the 2×2 leaf-spine (the golden scenario).
    Obs,
    /// Lossy closed-loop transport over the k=4 ECMP fat-tree.
    Fct,
    /// Bonded-diamond failover.
    Bond,
}

impl DashScenario {
    /// Parse a `--scenario` argument.
    pub fn parse(s: &str) -> Option<DashScenario> {
        match s {
            "obs" => Some(DashScenario::Obs),
            "fct" => Some(DashScenario::Fct),
            "bond" => Some(DashScenario::Bond),
            _ => None,
        }
    }
}

/// Feed-specific harvest handles.
enum Harvest {
    Obs {
        monitor: HostId,
    },
    Fct {
        hosts: usize,
        /// Edge switches and their ECMP uplink ports.
        uplinks: Vec<(SwitchId, PortId)>,
    },
    Bond {
        sender: HostId,
    },
}

/// A simulator mid-flight plus the recipe for harvesting its collector.
///
/// `collector()` rebuilds the collector from scratch on every call, so
/// stepping the simulation and re-capturing never double-counts merged
/// counters — the refresh loop is idempotent by construction.
pub struct DashFeed {
    sim: Simulator,
    harvest: Harvest,
    end_ns: u64,
}

impl DashFeed {
    /// The microburst obs feed on the caller's `config`. On a 2-leaf ×
    /// 2-spine fabric, host 0 (leaf 0) runs the §2.1 [`MicroburstMonitor`]
    /// against the echoing victim, host 2 (leaf 1), while hosts 1 and 3
    /// incast the victim and build a queue at leaf 1's egress port. Every
    /// switch is profiled (every packet); the run is lossless and drains,
    /// so the collector's divergence check must come out exact.
    pub fn obs(config: SimConfig) -> DashFeed {
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
                start_ns: OBS_BURST_NS.0 + start_extra,
                stop_ns: OBS_BURST_NS.1,
                period_ns: 12_000, // ~1400 B / 12 µs ≈ line rate per burster
                payload_len: 1400,
            })
        };
        let apps: Vec<Box<dyn HostApp>> = vec![
            Box::new(MicroburstMonitor::new(
                victim,
                6, // leaf-spine-leaf out and back
                OBS_PROBE_INTERVAL_NS,
                50_000,
                OBS_PROBE_STOP_NS,
            )),
            burster(0),
            Box::new(EchoReceiver::default()),
            burster(3_000), // offset so the two bursts interleave
        ];
        // 20 µs ticks: fine-grained series without drowning the run.
        let config = config.tick_interval_ns(time::micros(20));
        let (mut sim, fabric) = leaf_spine_with(config, params, apps);
        for &s in fabric.leaves.iter().chain(fabric.spines.iter()) {
            sim.switch_mut(s).enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(128);
        DashFeed {
            sim,
            harvest: Harvest::Obs {
                monitor: fabric.hosts[0][0],
            },
            end_ns: OBS_END_NS,
        }
    }

    /// The lossy closed-loop fct feed over a k=4 fat-tree (16 hosts,
    /// 20 switches), profiled and series-recorded, with ECMP enabled on
    /// top of the caller's `config`.
    pub fn fct(config: SimConfig) -> DashFeed {
        let params = FatTreeParams {
            k: 4,
            hosts_per_edge: 0, // textbook k/2 = 2
            link_kbps: 40_000_000,
            queue_limit_bytes: 4 * 1024 * 1024,
            delay_ns: time::micros(1),
            host_nic_kbps: 10_000_000,
        };
        let n_hosts = params.n_hosts();
        let traffic = TrafficConfig {
            flows_per_host: 20,
            mean_gap_ns: 100_000,
            ..Default::default()
        };
        let config = config
            .ecmp(true)
            .frame_pool_buffers(4 * 1024)
            .tick_interval_ns(time::micros(20));
        let (mut sim, tree, _, last_start) = closed_loop_fat_tree(config, params, &traffic);
        for i in 0..sim.num_switches() {
            sim.switch_mut(SwitchId(i))
                .enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(128);

        // Loss where ECMP spreads: edge uplinks and every agg port; the
        // core ports stay clean.
        for from in tree.fabric_ports() {
            if !matches!(from, Endpoint::SwitchPort(sw, _) if tree.cores.contains(&sw)) {
                sim.set_link_loss(from, FCT_LOSS_PERMILLE);
            }
        }
        let uplinks = tree
            .edge_uplinks()
            .into_iter()
            .filter_map(|from| match from {
                Endpoint::SwitchPort(sw, port) => Some((sw, port)),
                _ => None,
            });
        DashFeed {
            sim,
            harvest: Harvest::Fct {
                hosts: n_hosts,
                uplinks: uplinks.collect(),
            },
            end_ns: last_start + time::millis(8),
        }
    }

    /// The bonded-diamond failover feed, profiled and series-recorded.
    pub fn bond(config: SimConfig) -> DashFeed {
        let (mut sim, diamond) = bonding_scenario::build(config.tick_interval_ns(time::micros(20)));
        for i in 0..sim.num_switches() {
            sim.switch_mut(SwitchId(i))
                .enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(128);
        DashFeed {
            sim,
            harvest: Harvest::Bond {
                sender: diamond.sender,
            },
            end_ns: bonding_scenario::SCENARIO_END_NS,
        }
    }

    /// Build the feed named by `scenario` with its default config.
    pub fn build(scenario: DashScenario) -> DashFeed {
        match scenario {
            DashScenario::Obs => DashFeed::obs(SimConfig::new()),
            DashScenario::Fct => DashFeed::fct(SimConfig::new()),
            DashScenario::Bond => DashFeed::bond(SimConfig::new()),
        }
    }

    /// Nominal end of the scenario, ns (live mode steps until here).
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }

    /// The simulator (read-only: snapshots capture from it).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Advance simulation time.
    pub fn step_to(&mut self, t_ns: u64) {
        self.sim.run(RunLimit::Until(t_ns));
    }

    /// Run to quiescence (bounded by the scenario end).
    pub fn run_to_end(&mut self) {
        self.sim.run(RunLimit::Quiescent {
            limit_ns: self.end_ns,
        });
    }

    /// A fresh collector harvested from the simulation's current state.
    pub fn collector(&self) -> Collector {
        let mut c = Collector::new();
        match &self.harvest {
            Harvest::Obs { monitor } => {
                c.ingest_monitor(self.sim.host_app::<MicroburstMonitor>(*monitor));
            }
            Harvest::Fct { hosts, uplinks } => {
                for i in 0..*hosts {
                    let app = self.sim.host_app::<ClosedFlowGenApp>(HostId(i));
                    c.ingest_transport(&app.stats_snapshot());
                    for comp in &app.completions {
                        c.ingest_fct(comp.fct_ns);
                    }
                }
                for &(sw, port) in uplinks {
                    c.ingest_uplink_tx(
                        self.sim.switch(sw).switch_id(),
                        port,
                        self.sim.link_tx_frames(Endpoint::switch(sw, port)),
                    );
                }
            }
            Harvest::Bond { sender } => {
                c.ingest_bond(self.sim.host_app::<BondSender>(*sender));
            }
        }
        c
    }

    /// Capture a fleet snapshot at the current instant, folding series
    /// into `window_ns` windows.
    pub fn snapshot(&self, window_ns: u64) -> FleetSnapshot {
        FleetSnapshot::capture(&self.sim, &self.collector(), window_ns)
    }

    /// Prometheus snapshot of every switch's export plus the
    /// collector's aggregates, at the current instant.
    pub fn prom(&self) -> String {
        let mut reg = MetricsRegistry::new();
        for i in 0..self.sim.num_switches() {
            self.sim.switch(SwitchId(i)).export_metrics(&mut reg);
        }
        self.collector().export_metrics(&mut reg);
        tpp_obs::prometheus_snapshot(&reg)
    }

    /// JSONL dump of the recorded series (all three feeds record).
    pub fn series_dump(&self) -> String {
        self.sim
            .series()
            .map(tpp_obs::series_jsonl)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_parse() {
        assert_eq!(DashScenario::parse("obs"), Some(DashScenario::Obs));
        assert_eq!(DashScenario::parse("fct"), Some(DashScenario::Fct));
        assert_eq!(DashScenario::parse("bond"), Some(DashScenario::Bond));
        assert_eq!(DashScenario::parse("nope"), None);
    }

    #[test]
    fn fct_feed_lights_up_every_snapshot_section() {
        let mut feed = DashFeed::fct(SimConfig::new());
        feed.run_to_end();
        let snap = feed.snapshot(time::micros(100));
        assert_eq!(snap.switches.len(), 20, "k=4 fat tree");
        let t = snap.transport.as_ref().expect("transport ingested");
        assert!(t.stats.flows_started > 0);
        assert!(t.stats.retransmits > 0, "5 permille loss must retransmit");
        assert!(t.fct_count > 0, "completions ingested as FCTs");
        assert_eq!(snap.uplinks.len(), 16, "8 edges x 2 uplinks");
        assert!(snap.uplinks.iter().all(|u| u.tx_frames > 0));
        let share: u64 = snap.uplinks.iter().map(|u| u.share_permille).sum();
        assert!(
            (990..=1000).contains(&share),
            "shares sum to ~1000 permille"
        );
        assert!(
            snap.switches.iter().any(|s| !s.windows.is_empty()),
            "series recorded and folded"
        );
    }

    #[test]
    fn bond_feed_reports_path_drama() {
        let mut feed = DashFeed::bond(SimConfig::new());
        feed.run_to_end();
        let snap = feed.snapshot(time::micros(500));
        assert_eq!(snap.bond_paths.len(), 2);
        assert!(
            snap.bond_paths.iter().any(|p| p.transitions > 0),
            "degradation + flap + reboot must move path health"
        );
    }
}

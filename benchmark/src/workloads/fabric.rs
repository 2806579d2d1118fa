//! `fabric_openloop` — `fct_bench`'s `full_scenario()` verbatim: the k=8
//! fat-tree (80 switches, 1,024 hosts), 1,004 open-loop flow generators
//! with web-search / data-mining sizes, and 8 microburst, 8 RCP\* and 4
//! ndb pairs sharing the switches. One shard, sequential.
//!
//! `--scale` shortens the schedule (flows per host); the fabric, the
//! per-host rate and therefore the depth of the event heap stay as they
//! are, so a scaled pass is a shorter slice of the same run.

use tpp_apps::microburst::MicroburstMonitor;
use tpp_apps::ndb::{NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_bench::traffic::{FlowGenApp, TrafficConfig};
use tpp_host::EchoReceiver;
use tpp_netsim::{
    fat_tree_with, time, FatTreeParams, HostApp, HostId, RunLimit, SimConfig, SwitchId,
};
use tpp_wire::EthernetAddress;

use super::{
    edge_uplinks, fleet_counters, flow_schedules, gate, hop_frames, scaled, seconds, sim_seed,
    traffic_seed, Completions, Corpus, Layers, PassClock, PassOutput, PassParams, SimStats,
    DEFAULT_SEED,
};
use crate::trace::{SpanLog, Wrap};

const K: usize = 8;
const HOSTS_PER_EDGE: usize = 32;
const MON_PAIRS: usize = 8;
const RCP_PAIRS: usize = 8;
const NDB_PAIRS: usize = 4;
const FLOWS_PER_HOST: u64 = 1150;
const MEAN_GAP_NS: u64 = 110_000;
const DRAIN_NS: u64 = time::millis(40);

/// What `BENCH_fct.json` records for the full run at the tracked seed.
const TRACKED_FINGERPRINT: u64 = 0xcd15_0d64_f698_0aba;
const TRACKED_COMPLETED: u64 = 1_097_126;

/// One pass.
pub fn run<W: Wrap>(p: &PassParams) -> Result<(PassOutput, SpanLog, Corpus), String> {
    let mut clock = PassClock::start();
    let params = FatTreeParams {
        k: K,
        hosts_per_edge: HOSTS_PER_EDGE,
        link_kbps: 40_000_000,
        queue_limit_bytes: 16 * 1024 * 1024,
        delay_ns: time::micros(1),
        host_nic_kbps: 10_000_000,
    };
    let n_hosts = params.n_hosts();
    let n_special = MON_PAIRS + RCP_PAIRS + NDB_PAIRS;
    let mac = |host_index: usize| EthernetAddress::from_host_id(host_index as u32);

    // Flow-generating hosts sit between the special senders (head) and
    // their receivers (tail).
    let fg_range = n_special..n_hosts - n_special;
    let fg_macs: Vec<EthernetAddress> = fg_range.clone().map(mac).collect();
    let traffic = TrafficConfig {
        seed: traffic_seed(p.seed),
        flows_per_host: scaled(FLOWS_PER_HOST, p.scale, 1) as usize,
        mean_gap_ns: MEAN_GAP_NS,
        ..Default::default()
    };
    let (mut sim, tree, flows_total, run_ns, schedule_s, build_s) = clock.set_up(|| {
        let ((schedules, flows_total, last_start), schedule_s) =
            seconds(|| flow_schedules(&traffic, &fg_macs));
        let run_ns = last_start + DRAIN_NS;

        let ((sim, tree), build_s) = seconds(|| {
            let mut schedules = schedules.into_iter();
            let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
                .map(|i| -> Box<dyn HostApp> {
                    if i < MON_PAIRS {
                        // §2.1 monitor probing the far side of the fabric.
                        W::boxed(MicroburstMonitor::new(
                            mac(n_hosts - 1 - i),
                            6,
                            25_000,
                            0,
                            run_ns,
                        ))
                    } else if i < MON_PAIRS + RCP_PAIRS {
                        W::boxed(RcpStarSender::new(
                            mac(n_hosts - 1 - i),
                            RcpStarConfig {
                                period_ns: time::millis(2),
                                initial_rtt_ns: 100_000,
                                init_rate_bps: 50_000_000,
                                expected_hops: 6,
                                stop_after_bytes: Some(100_000),
                                ..Default::default()
                            },
                        ))
                    } else if i < n_special {
                        W::boxed(NdbProbeSender::new(
                            mac(n_hosts - 1 - i),
                            6,
                            200_000,
                            (run_ns / 200_000).min(500) as u32,
                        ))
                    } else if i < n_hosts - n_special {
                        W::boxed(FlowGenApp::new(schedules.next().expect("one per host")))
                    } else if n_hosts - 1 - i >= MON_PAIRS + RCP_PAIRS {
                        // Mirror of an ndb sender: collects the traces.
                        W::boxed(TraceCollector::default())
                    } else {
                        // Mirror of a monitor or an RCP* sender: echoes.
                        W::boxed(EchoReceiver::default())
                    }
                })
                .collect();
            let config = SimConfig::new()
                .shards(1)
                .sequential()
                .seed(sim_seed(p.seed))
                .tick_interval_ns(time::millis(1))
                .frame_pool_buffers(16 * 1024);
            let (mut sim, tree) = fat_tree_with(config, params.clone(), apps);
            for i in 0..sim.num_switches() {
                init_rate_registers(sim.switch_mut(SwitchId(i)));
            }
            (sim, tree)
        });
        (sim, tree, flows_total, run_ns, schedule_s, build_s)
    });
    gate(tree.all_hosts().eq((0..n_hosts).map(HostId)), || {
        "host ids are not dense in (pod, edge, index) order".into()
    })?;

    // Warm-up slice: the first 2 % of the horizon, untimed.
    sim.run(RunLimit::Until(run_ns / 50));
    let (events0, hops0) = (sim.events_processed(), hop_frames(&sim));
    let timed = clock.timed(|_| sim.run(RunLimit::Until(run_ns)));
    let events = sim.events_processed() - events0;
    let hops = hop_frames(&sim) - hops0;

    let mut log = clock.log;
    let mut corpus = Corpus::default();
    let ((done, flows_started, apps), harvest_s) = seconds(|| {
        let mut done = Completions::default();
        let mut flows_started = 0u64;
        for i in fg_range.clone() {
            let app = W::app::<FlowGenApp>(&sim, HostId(i));
            flows_started += app.flows_started;
            done.add(&app.completions);
            W::harvest::<FlowGenApp>(&sim, HostId(i), &mut log, &mut corpus);
        }
        let mut mb_probes = 0u64;
        let mut rcp_completed = 0u64;
        let mut ndb_traces = 0u64;
        for i in 0..n_special {
            let (h, peer) = (HostId(i), HostId(n_hosts - 1 - i));
            if i < MON_PAIRS {
                mb_probes += W::app::<MicroburstMonitor>(&sim, h).probes_sent;
                W::harvest::<MicroburstMonitor>(&sim, h, &mut log, &mut corpus);
                W::harvest::<EchoReceiver>(&sim, peer, &mut log, &mut corpus);
            } else if i < MON_PAIRS + RCP_PAIRS {
                let done = W::app::<RcpStarSender>(&sim, h).completed_at.is_some();
                rcp_completed += done as u64;
                W::harvest::<RcpStarSender>(&sim, h, &mut log, &mut corpus);
                W::harvest::<EchoReceiver>(&sim, peer, &mut log, &mut corpus);
            } else {
                ndb_traces += W::app::<TraceCollector>(&sim, peer).traces.len() as u64;
                W::harvest::<NdbProbeSender>(&sim, h, &mut log, &mut corpus);
                W::harvest::<TraceCollector>(&sim, peer, &mut log, &mut corpus);
            }
        }
        (done, flows_started, (mb_probes, rcp_completed, ndb_traces))
    });
    let Completions {
        lat,
        goodput_bytes,
        fingerprint,
    } = done;

    gate(flows_started == flows_total, || {
        format!("flows_started {flows_started} != flows_total {flows_total}")
    })?;
    gate(lat.n() <= flows_total, || {
        format!("{} completions of {flows_total} flows", lat.n())
    })?;
    if p.seed == DEFAULT_SEED && p.scale == 1.0 {
        gate(
            fingerprint == TRACKED_FINGERPRINT && lat.n() == TRACKED_COMPLETED,
            || {
                format!(
                    "tracked run gave fingerprint {fingerprint:#018x}, {} completed; \
                     BENCH_fct.json has {TRACKED_FINGERPRINT:#018x}, {TRACKED_COMPLETED}",
                    lat.n()
                )
            },
        )?;
    }

    let uplinks = edge_uplinks(&tree, HOSTS_PER_EDGE, K);
    let mut layers = Layers::default();
    fleet_counters(&mut sim, &uplinks, events, hops, timed.wall_s, &mut layers);
    layers.set("netsim.build_s", build_s);
    layers.set("bench.traffic.schedule_s", schedule_s);
    layers.set("bench.harvest_s", harvest_s);
    layers.set("apps.microburst.probes", apps.0 as f64);
    layers.set("apps.rcpstar.flows_completed", apps.1 as f64);
    layers.set("apps.ndb.traces", apps.2 as f64);
    if W::TRACED {
        layers.set_spans(&log);
    }

    // An open-loop flow cannot fail, only stay unfinished: a flow whose
    // last frame was tail-dropped, or was in flight at the horizon.
    let sim_stats = SimStats::new(&lat, flows_total, 0, goodput_bytes, run_ns, fingerprint);
    Ok((timed.output(events, hops, sim_stats, layers), log, corpus))
}

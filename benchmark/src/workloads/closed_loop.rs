//! `closed_loop_lossy` and `closed_loop_2shards` — `fct_bench`'s
//! `closed_scenario()`: the textbook k=8 fat-tree (128 hosts, 80
//! switches) with ECMP on and 5 ‰ seeded loss on every fabric link
//! direction; every host runs go-back-N senders whose windows are
//! clamped by the RCP\* rate their own TPP probes bring back.
//!
//! `closed_loop_lossy` raises `flows_per_host` from 60 to 1,500 and runs
//! on one shard. `closed_loop_2shards` runs the same generator at 300
//! flows per host on two threaded shards; its fingerprint must equal
//! that of its own 1-shard sequential reference run, which the parent
//! runs untimed beside it.

use tpp_apps::rcpstar::init_rate_registers;
use tpp_asic::PortId;
use tpp_bench::traffic::{splitmix64, ClosedFlowGenApp, ClosedLoopConfig, TrafficConfig};
use tpp_host::TransportStats;
use tpp_netsim::{
    fat_tree_with, time, Endpoint, FatTreeParams, HostApp, HostId, RunLimit, SimConfig, SwitchId,
};
use tpp_wire::EthernetAddress;

use super::{
    edge_uplinks, fleet_counters, flow_schedules, gate, hop_frames, scaled, seconds, sim_seed,
    traffic_seed, Completions, Corpus, Layers, PassClock, PassOutput, PassParams, SimStats,
};
use crate::trace::{SpanLog, Wrap};

const K: usize = 8;
const LOSS_PERMILLE: u16 = 5;
const MEAN_GAP_NS: u64 = 250_000;
const DRAIN_NS: u64 = time::millis(60);

/// How one closed-loop run is sized and driven.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    flows_per_host: u64,
    shards: usize,
    sequential: bool,
}

/// `closed_loop_lossy`.
pub const LOSSY: Variant = Variant {
    flows_per_host: 1500,
    shards: 1,
    sequential: true,
};
/// `closed_loop_2shards`: 2 threads.
pub const TWO_SHARDS: Variant = Variant {
    flows_per_host: 300,
    shards: 2,
    sequential: false,
};
/// The 1-shard sequential reference of [`TWO_SHARDS`].
pub const TWO_SHARDS_REF1: Variant = Variant {
    flows_per_host: 300,
    shards: 1,
    sequential: true,
};
/// [`TWO_SHARDS`]'s input on 4 shards stepped by one thread: what the
/// windowed scheduler costs without any threading.
pub const TWO_SHARDS_SEQ4: Variant = Variant {
    flows_per_host: 300,
    shards: 4,
    sequential: true,
};

/// One pass.
pub fn run<W: Wrap>(p: &PassParams, v: Variant) -> Result<(PassOutput, SpanLog, Corpus), String> {
    let mut clock = PassClock::start();
    let params = FatTreeParams {
        k: K,
        hosts_per_edge: 0, // textbook k/2 = 4 -> 128 hosts, 80 switches
        link_kbps: 40_000_000,
        queue_limit_bytes: 4 * 1024 * 1024,
        delay_ns: time::micros(1),
        host_nic_kbps: 10_000_000,
    };
    let n_hosts = params.n_hosts();
    let macs: Vec<EthernetAddress> = (0..n_hosts)
        .map(|i| EthernetAddress::from_host_id(i as u32))
        .collect();
    let traffic = TrafficConfig {
        seed: traffic_seed(p.seed),
        flows_per_host: scaled(v.flows_per_host, p.scale, 1) as usize,
        mean_gap_ns: MEAN_GAP_NS,
        ..Default::default()
    };

    let half = K / 2;
    let hpe = params.effective_hosts_per_edge();
    let (mut sim, tree, flows_total, run_ns, schedule_s, build_s) = clock.set_up(|| {
        let ((schedules, flows_total, last_start), schedule_s) =
            seconds(|| flow_schedules(&traffic, &macs));
        let run_ns = last_start + DRAIN_NS;

        let ((sim, tree), build_s) = seconds(|| {
            let apps: Vec<Box<dyn HostApp>> = schedules
                .into_iter()
                .map(|sched| W::boxed(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default())))
                .collect();
            let mut config = SimConfig::new()
                .shards(v.shards)
                .ecmp(true)
                .seed(sim_seed(p.seed))
                .tick_interval_ns(time::millis(1))
                .frame_pool_buffers(16 * 1024);
            if v.sequential {
                config = config.sequential();
            }
            let (mut sim, tree) = fat_tree_with(config, params.clone(), apps);
            for i in 0..sim.num_switches() {
                init_rate_registers(sim.switch_mut(SwitchId(i)));
            }
            // Seeded loss on every inter-switch link direction: edge uplinks,
            // all agg ports (down + up), all core ports. Host links stay
            // clean, so loss recovery is the transport's job, not the NIC's.
            for &edge in tree.edges.iter().flatten() {
                for a in 0..half {
                    sim.set_link_loss(Endpoint::switch(edge, (hpe + a) as PortId), LOSS_PERMILLE);
                }
            }
            for &sw in tree.aggs.iter().flatten().chain(tree.cores.iter()) {
                for port in 0..K {
                    sim.set_link_loss(Endpoint::switch(sw, port as PortId), LOSS_PERMILLE);
                }
            }
            (sim, tree)
        });
        (sim, tree, flows_total, run_ns, schedule_s, build_s)
    });
    gate(sim.num_shards() == v.shards, || {
        format!("asked for {} shards, got {}", v.shards, sim.num_shards())
    })?;

    // Warm-up slice: the first 2 % of the horizon, untimed.
    sim.run(RunLimit::Until(run_ns / 50));
    let (events0, hops0) = (sim.events_processed(), hop_frames(&sim));
    let timed = clock.timed(|_| sim.run(RunLimit::Until(run_ns)));
    let events = sim.events_processed() - events0;
    let hops = hop_frames(&sim) - hops0;

    let mut log = clock.log;
    let mut corpus = Corpus::default();
    let ((done, stats, unfinished), harvest_s) = seconds(|| {
        let mut done = Completions::default();
        let mut stats = TransportStats::default();
        let mut unfinished = 0u64;
        for i in 0..n_hosts {
            let app = W::app::<ClosedFlowGenApp>(&sim, HostId(i));
            done.add(&app.completions);
            stats.merge(&app.stats_snapshot());
            unfinished += app.unfinished() as u64;
            W::harvest::<ClosedFlowGenApp>(&sim, HostId(i), &mut log, &mut corpus);
        }
        (done, stats, unfinished)
    });
    // Per-flow FCTs *and* the recovery counters, as `fct_bench` folds
    // them: the shard comparison proves the whole closed loop equal.
    let fingerprint = done.fingerprint
        ^ splitmix64(
            stats
                .retransmits
                .wrapping_add(stats.rto_fires.rotate_left(17))
                .wrapping_add(stats.fast_retransmits.rotate_left(34))
                .wrapping_add(stats.flows_given_up.rotate_left(51)),
        );

    gate(stats.flows_started == flows_total, || {
        format!(
            "flows_started {} != flows_total {flows_total}",
            stats.flows_started
        )
    })?;
    gate(
        stats.flows_completed + unfinished + stats.flows_given_up == flows_total,
        || {
            format!(
                "completed {} + unfinished {unfinished} + given_up {} != total {flows_total}",
                stats.flows_completed, stats.flows_given_up
            )
        },
    )?;
    gate(stats.retransmits > 0, || {
        "a lossy run that never retransmits is not exercising recovery".into()
    })?;

    let uplinks = edge_uplinks(&tree, hpe, K);
    let mut layers = Layers::default();
    fleet_counters(&mut sim, &uplinks, events, hops, timed.wall_s, &mut layers);
    layers.set("netsim.build_s", build_s);
    layers.set("bench.traffic.schedule_s", schedule_s);
    layers.set("bench.harvest_s", harvest_s);
    for (name, value) in [
        ("host.transport.segments_sent", stats.segments_sent),
        ("host.transport.retransmits", stats.retransmits),
        ("host.transport.rto_fires", stats.rto_fires),
        ("host.transport.fast_retransmits", stats.fast_retransmits),
        ("host.transport.dup_segments_rx", stats.dup_segments_rx),
        ("host.transport.acks_sent", stats.acks_sent),
        (
            "host.transport.rate_limited_polls",
            stats.rate_limited_polls,
        ),
        ("host.transport.flows_given_up", stats.flows_given_up),
    ] {
        layers.set(name, value as f64);
    }
    layers.set(
        "host.transport.retransmit_ratio",
        stats.retransmits as f64 / stats.segments_sent.max(1) as f64,
    );
    if W::TRACED {
        layers.set_spans(&log);
    }

    let sim_stats = SimStats::new(
        &done.lat,
        flows_total,
        stats.flows_given_up,
        done.goodput_bytes,
        run_ns,
        fingerprint,
    );
    Ok((timed.output(events, hops, sim_stats, layers), log, corpus))
}

//! The §4 "datacenters" deployment at scale, one `BENCH_fct.json`
//! section per scenario. [`FULL`]: a k=8 fat-tree with an oversubscribed
//! edge (32 hosts per ToR → 1024 hosts over 80 switches) under a seeded
//! open-loop traffic matrix of web-search and data-mining flow sizes
//! (over a million flows), with the paper's three TPP applications
//! running *over the shared switches*: microburst monitors (§2.1), RCP\*
//! (§2.2), ndb path tracing (§2.3). [`SMOKE`]: the same at k=4.
//! [`closed_section`]: the loss-recovering transport over an ECMP-routed
//! lossy k=8 fabric, at 1/2/4 shards. Every value is simulated, so two
//! runs write the same bytes.

use std::ops::Range;
use std::time::Instant;

use tpp_apps::microburst::MicroburstMonitor;
use tpp_apps::ndb::{NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_asic::PortId;
use tpp_host::{EchoReceiver, TransportStats};
use tpp_netsim::{
    fat_tree_with, time, Endpoint, FatTreeParams, HostApp, HostId, RunLimit, SimConfig, Simulator,
};
use tpp_wire::EthernetAddress;

use crate::traffic::{
    completions_fingerprint, generate_schedule, percentile, splitmix64, ClosedFlowGenApp,
    ClosedLoopConfig, Completion, Flow, FlowGenApp, FlowSizeDist, TrafficConfig,
};

/// A fat-tree (40 Gb/s fabric links, 10 Gb/s NICs), its seeded traffic
/// matrix and the TPP applications sharing it.
pub struct Scenario {
    k: usize,
    /// 0 = the textbook k/2.
    hosts_per_edge: usize,
    flows_per_host: usize,
    mean_gap_ns: u64,
    /// Simulated time after the last scheduled flow start.
    drain_ms: u64,
    queue_limit_mib: u32,
    /// Microburst-monitor, RCP\* and ndb sender/receiver pairs. Senders
    /// take the first host indices and receivers mirror them from the
    /// last (pod 0 → last pod, so every TPP crosses the full 5-switch
    /// inter-pod path); flow-generating hosts sit in between.
    tpp_pairs: [usize; 3],
    /// Flow hosts run the loss-recovering transport ([`ClosedFlowGenApp`],
    /// not the open-loop [`FlowGenApp`]) over ECMP, with
    /// [`CLOSED_LOSS_PERMILLE`] on every switch-to-switch link direction.
    closed_loop: bool,
}

/// 1024 hosts, 80 switches, over a million flows.
pub const FULL: Scenario = Scenario {
    k: 8,
    hosts_per_edge: 32,
    flows_per_host: 1150,
    mean_gap_ns: 110_000,
    drain_ms: 40,
    queue_limit_mib: 16,
    tpp_pairs: [8, 8, 4],
    closed_loop: false,
};

/// 16 hosts, 20 switches.
pub const SMOKE: Scenario = Scenario {
    k: 4,
    hosts_per_edge: 0,
    flows_per_host: 1000,
    mean_gap_ns: 50_000,
    drain_ms: 10,
    queue_limit_mib: 4,
    tpp_pairs: [1, 1, 1],
    closed_loop: false,
};

/// 128 hosts, 80 switches.
const CLOSED: Scenario = Scenario {
    k: 8,
    hosts_per_edge: 0,
    flows_per_host: 60,
    mean_gap_ns: 250_000,
    drain_ms: 60,
    queue_limit_mib: 4,
    tpp_pairs: [0, 0, 0],
    closed_loop: true,
};

const CLOSED_LOSS_PERMILLE: u16 = 5;

/// Flow-size bucket edges, bytes (post scale/cap — see `TrafficConfig`).
const BUCKETS: &[(&str, u32, u32)] = &[
    ("small", 0, 4 * 1024),
    ("medium", 4 * 1024, 24 * 1024),
    ("large", 24 * 1024, u32::MAX),
];

/// `f` summed over the apps of type `A` on hosts `hosts`.
fn sum_apps<A: HostApp>(sim: &Simulator, hosts: Range<usize>, f: impl Fn(&A) -> u64) -> u64 {
    hosts.map(|i| f(sim.host_app::<A>(HostId(i)))).sum()
}

/// One scenario run: its section and what callers gate on.
pub struct Run {
    /// The scenario's section, cut after its `fingerprint` line, where
    /// the closed loop's `shard_matrix` goes.
    head: String,
    tail: String,
    /// Folds every flow's FCT and, closed loop, the recovery counters, so
    /// equal fingerprints mean the whole loop ran bit-identically.
    fingerprint: u64,
    /// Flows that completed.
    pub flows_completed: usize,
    /// Allocations `sim.run` made, by the counter given to [`run`].
    pub allocs: u64,
}

impl Run {
    /// The run's `BENCH_fct.json` section.
    pub fn section(&self) -> String {
        format!("{}{}", self.head, self.tail)
    }
}

/// Build `s`, run it to its end and harvest its section `name`;
/// `allocs` reads a process-wide allocation counter.
pub fn run(name: &str, s: &Scenario, shards: usize, sequential: bool, allocs: fn() -> u64) -> Run {
    let params = FatTreeParams {
        k: s.k,
        hosts_per_edge: s.hosts_per_edge,
        link_kbps: 40_000_000,
        queue_limit_bytes: s.queue_limit_mib * 1024 * 1024,
        delay_ns: time::micros(1),
        host_nic_kbps: 10_000_000,
    };
    let (k, hpe) = (s.k, params.effective_hosts_per_edge());
    let (n_switches, n_hosts) = (params.n_switches(), params.n_hosts());
    // Host indices of the microburst-monitor, RCP* and ndb senders.
    let mon = 0..s.tpp_pairs[0];
    let rcp = mon.end..mon.end + s.tpp_pairs[1];
    let ndb = rcp.end..rcp.end + s.tpp_pairs[2];
    let flow_hosts = ndb.end..n_hosts - ndb.end;
    assert!(flow_hosts.len() > 1, "topology too small for the app mix");
    let mac = |host_index: usize| EthernetAddress::from_host_id(host_index as u32);

    // Every schedule up front (even flow hosts web search, odd data
    // mining): the run ends `drain_ms` after the last scheduled start.
    let flow_macs: Vec<EthernetAddress> = flow_hosts.clone().map(mac).collect();
    let traffic = TrafficConfig {
        flows_per_host: s.flows_per_host,
        mean_gap_ns: s.mean_gap_ns,
        ..Default::default()
    };
    let schedules: Vec<Vec<Flow>> = (0..flow_macs.len())
        .map(|i| {
            let dist = [FlowSizeDist::WebSearch, FlowSizeDist::DataMining][i % 2];
            generate_schedule(&traffic, i as u32, &flow_macs, dist)
        })
        .collect();
    let flows = || schedules.iter().flatten();
    let run_ns = flows().map(|f| f.start_ns).max().unwrap_or(0) + time::millis(s.drain_ms);
    let (flows_total, offered_bytes) = (flows().count(), flows().map(|f| f.bytes as u64).sum());

    let mut schedules = schedules.into_iter();
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            let peer = n_hosts - 1 - i;
            if mon.contains(&i) {
                Box::new(MicroburstMonitor::new(mac(peer), 6, 25_000, 0, run_ns))
            } else if rcp.contains(&i) {
                let config = RcpStarConfig {
                    period_ns: time::millis(2),
                    initial_rtt_ns: 100_000,
                    init_rate_bps: 50_000_000,
                    expected_hops: 6,
                    stop_after_bytes: Some(100_000),
                    ..Default::default()
                };
                Box::new(RcpStarSender::new(mac(peer), config))
            } else if ndb.contains(&i) {
                let probes = (run_ns / 200_000).min(500) as u32;
                Box::new(NdbProbeSender::new(mac(peer), 6, 200_000, probes))
            } else if flow_hosts.contains(&i) {
                let schedule = schedules.next().expect("one schedule per flow host");
                if s.closed_loop {
                    Box::new(ClosedFlowGenApp::new(schedule, ClosedLoopConfig::default()))
                } else {
                    Box::new(FlowGenApp::new(schedule))
                }
            } else if ndb.contains(&peer) {
                Box::new(TraceCollector::default())
            } else {
                Box::new(EchoReceiver::default()) // a monitor's or RCP* sender's peer
            }
        })
        .collect();

    let config = SimConfig::new()
        .shards(shards)
        .parallel(!sequential)
        .ecmp(s.closed_loop)
        .frame_pool_buffers(16 * 1024);
    let (mut sim, tree) = fat_tree_with(config, params, apps);
    assert!(
        tree.all_hosts().eq((0..n_hosts).map(HostId)),
        "host ids must be dense in (pod, edge, index) order"
    );
    let lower = tree.edges.iter().chain(tree.aggs.iter()).flatten();
    for sw in lower.chain(tree.cores.iter()) {
        init_rate_registers(sim.switch_mut(*sw));
    }
    // Closed loop: seeded loss on every inter-switch link direction —
    // edge uplinks (the ports ECMP spreads over), every agg and core port.
    // Host links stay clean: recovery is the transport's job, not the NIC's.
    let uplinks: Vec<Endpoint> = (tree.edges.iter().flatten())
        .flat_map(|edge| (hpe..hpe + k / 2).map(|p| Endpoint::switch(*edge, p as PortId)))
        .collect();
    if s.closed_loop {
        let upper = tree.aggs.iter().flatten().chain(tree.cores.iter());
        let upper_ports = upper.flat_map(|sw| (0..k).map(|p| Endpoint::switch(*sw, p as PortId)));
        for from in uplinks.iter().copied().chain(upper_ports) {
            sim.set_link_loss(from, CLOSED_LOSS_PERMILLE);
        }
    }

    let allocs_before = allocs();
    let start = Instant::now();
    sim.run(RunLimit::Until(run_ns));
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = allocs() - allocs_before;

    let (sim_ms, events) = (run_ns as f64 / 1e6, sim.events_processed());
    let mut completions: Vec<Completion> = Vec::with_capacity(flows_total);
    let (recovery_fold, fields) = if s.closed_loop {
        let mut stats = TransportStats::default();
        for i in flow_hosts.clone() {
            let app = sim.host_app::<ClosedFlowGenApp>(HostId(i));
            completions.extend_from_slice(&app.completions);
            stats.merge(&app.stats_snapshot());
        }
        let unfinished = |a: &ClosedFlowGenApp| a.unfinished() as u64;
        let unfinished = sum_apps(&sim, flow_hosts, unfinished);
        let TransportStats {
            flows_given_up,
            segments_sent,
            retransmits,
            rto_fires,
            fast_retransmits,
            acks_sent,
            dup_segments_rx,
            probes_sent,
            rate_updates,
            ..
        } = stats;
        let completed = completions.len();
        assert!(
            completed * 100 >= flows_total * 99,
            "closed loop must complete >= 99% of flows under loss (got {completed}/{flows_total})"
        );
        assert!(
            retransmits > 0,
            "a lossy run that never retransmits exercises no recovery"
        );
        let recovery = retransmits
            .wrapping_add(rto_fires.rotate_left(17))
            .wrapping_add(fast_retransmits.rotate_left(34))
            .wrapping_add(flows_given_up.rotate_left(51));

        let tx: Vec<u64> = uplinks.iter().map(|u| sim.link_tx_frames(*u)).collect();
        let (n_uplinks, mean_tx) = (tx.len(), tx.iter().sum::<u64>() as f64 / tx.len() as f64);
        let min_tx = *tx.iter().min().expect("an edge has uplinks");
        let max_tx = *tx.iter().max().expect("an edge has uplinks");
        let max_over_mean = max_tx as f64 / mean_tx;
        let mbps = |bytes: u64| bytes as f64 * 8.0 / (run_ns as f64 / 1e9) / 1e6;
        let goodput_bytes = completions.iter().map(|c| c.bytes as u64).sum();
        let (offered_mbps, goodput_mbps) = (mbps(offered_bytes), mbps(goodput_bytes));
        let fields = format!(
            "    \"k\": {k}, \"switches\": {n_switches}, \"hosts\": {n_hosts}, \"loss_permille\": {CLOSED_LOSS_PERMILLE},\n\
             \x20   \"flows_total\": {flows_total}, \"flows_completed\": {completed}, \"flows_given_up\": {flows_given_up}, \"unfinished\": {unfinished},\n\
             \x20   \"segments_sent\": {segments_sent}, \"retransmits\": {retransmits}, \"rto_fires\": {rto_fires}, \"fast_retransmits\": {fast_retransmits},\n\
             \x20   \"acks_sent\": {acks_sent}, \"dup_segments_rx\": {dup_segments_rx}, \"probes_sent\": {probes_sent}, \"rate_updates\": {rate_updates},\n\
             \x20   \"offered_mbps\": {offered_mbps:.1}, \"goodput_mbps\": {goodput_mbps:.1},\n\
             \x20   \"sim_ms\": {sim_ms:.3}, \"events\": {events},\n\
             \x20   \"path_spread\": {{\"uplinks\": {n_uplinks}, \"min_tx\": {min_tx}, \"max_tx\": {max_tx}, \
             \"mean_tx\": {mean_tx:.1}, \"max_over_mean\": {max_over_mean:.3}}},\n"
        );
        (splitmix64(recovery), fields)
    } else {
        for i in flow_hosts.clone() {
            completions.extend_from_slice(&sim.host_app::<FlowGenApp>(HostId(i)).completions);
        }
        let flows_completed = completions.len();
        let flows_started = sum_apps(&sim, flow_hosts.clone(), |a: &FlowGenApp| a.flows_started);
        let frames_sent = sum_apps(&sim, flow_hosts, |a: &FlowGenApp| a.frames_sent);
        let collectors = n_hosts - ndb.end..n_hosts - ndb.start;
        let mb_probes = sum_apps(&sim, mon.clone(), |m: &MicroburstMonitor| m.probes_sent);
        let mb_samples = sum_apps(&sim, mon, |m: &MicroburstMonitor| m.samples.len() as u64);
        let rcp_done = |r: &RcpStarSender| r.completed_at.is_some() as u64;
        let rcp_completed = sum_apps(&sim, rcp, rcp_done);
        let ndb_sent = sum_apps(&sim, ndb, |n: &NdbProbeSender| n.sent_ids.len() as u64);
        let ndb_traces = sum_apps(&sim, collectors, |c: &TraceCollector| c.traces.len() as u64);
        let (size_scale_div, cap_bytes) = (traffic.size_scale_div, traffic.cap_bytes);
        let bytes_per_switch = sim.approx_bytes_per_switch();
        let programs = sim.program_interner().distinct_programs();
        let (shared, decoded) = sim.program_interner().stats();
        let fields = format!(
            "    \"k\": {k}, \"hosts_per_edge\": {hpe}, \"switches\": {n_switches}, \"hosts\": {n_hosts},\n\
             \x20   \"flows_total\": {flows_total}, \"flows_started\": {flows_started}, \"flows_completed\": {flows_completed},\n\
             \x20   \"frames_sent\": {frames_sent}, \"size_scale_div\": {size_scale_div}, \"cap_bytes\": {cap_bytes},\n\
             \x20   \"sim_ms\": {sim_ms:.3}, \"events\": {events}, \"bytes_per_switch\": {bytes_per_switch},\n\
             \x20   \"interner\": {{\"distinct_programs\": {programs}, \"shared_hits\": {shared}, \"decodes\": {decoded}}},\n\
             \x20   \"tpp_apps\": {{\"microburst_probes\": {mb_probes}, \"microburst_samples\": {mb_samples}, \
             \"rcp_flows_completed\": {rcp_completed}, \"ndb_probes\": {ndb_sent}, \"ndb_traces\": {ndb_traces}}},\n"
        );
        (0, fields)
    };
    let fingerprint = completions_fingerprint(completions.iter().copied()) ^ recovery_fold;

    // Every shard steps each conservative window; queue depth at a
    // window's entry and events mailed across a boundary are over all.
    let sync = sim.shard_sync_stats();
    let (flows_completed, windows) = (completions.len(), sync[0].windows);
    let driver = if sequential { "seq" } else { "threaded" };
    println!(
        "{name}[{shards} {driver}]: {flows_completed}/{flows_total} flows completed, fingerprint 0x{fingerprint:016x} | \
         sim {sim_ms:.1} ms in {wall_s:.2} s wall ({events} events, {:.0}/s) | {windows} windows of \
         {:.1} events (peak {} pending), {} mailed",
        events as f64 / wall_s,
        events as f64 / windows.max(1) as f64,
        sync.iter().map(|s| s.peak_pending).max().unwrap_or(0),
        sync.iter().map(|s| s.events_mailed).sum::<u64>(),
    );

    // FCT percentiles per (size distribution, flow-size bucket).
    let mut fct_rows = Vec::new();
    for (dist, mining) in [("web_search", false), ("data_mining", true)] {
        for (bucket, lo, hi) in BUCKETS {
            let mut v: Vec<f64> = completions
                .iter()
                .filter(|c| c.mining == mining && c.bytes > *lo && c.bytes <= *hi)
                .map(|c| c.fct_ns as f64 / 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            let [p50, p95, p99] = [0.5, 0.95, 0.99].map(|p| percentile(&v, p).unwrap_or(f64::NAN));
            fct_rows.push(format!(
                "      {{\"dist\": \"{dist}\", \"bucket\": \"{bucket}\", \"n\": {}, \
                 \"p50_ms\": {p50:.3}, \"p95_ms\": {p95:.3}, \"p99_ms\": {p99:.3}}}",
                v.len()
            ));
        }
    }
    Run {
        head: format!("  \"{name}\": {{\n{fields}    \"fingerprint\": \"0x{fingerprint:016x}\",\n"),
        tail: format!("    \"fct_ms\": [\n{}\n    ]\n  }}", fct_rows.join(",\n")),
        fingerprint,
        flows_completed,
        allocs,
    }
}

/// The shard-invariance matrix: the closed loop at 1/2/4 shards,
/// threaded and sequential, must produce bit-identical fingerprints.
const CLOSED_MATRIX: &[(&str, usize, bool)] = &[
    ("1_shard_seq", 1, true),
    ("2_shards_threaded", 2, false),
    ("4_shards_threaded", 4, false),
    ("4_shards_seq", 4, true),
];

/// Run the matrix; returns the `closed_loop` section (the 1-shard run's
/// numbers and every row's fingerprint).
///
/// # Panics
///
/// When a row's fingerprint differs from the 1-shard run's.
pub fn closed_section() -> String {
    let runs: Vec<Run> = CLOSED_MATRIX
        .iter()
        .map(|(_, shards, sequential)| run("closed_loop", &CLOSED, *shards, *sequential, || 0))
        .collect();
    let mut rows = Vec::new();
    for ((name, ..), Run { fingerprint, .. }) in CLOSED_MATRIX.iter().zip(&runs) {
        assert_eq!(
            *fingerprint, runs[0].fingerprint,
            "{name}: closed-loop run diverged from the 1-shard baseline"
        );
        rows.push(format!(
            "      {{\"run\": \"{name}\", \"fingerprint\": \"0x{fingerprint:016x}\"}}"
        ));
    }
    let shard_matrix = format!("    \"shard_matrix\": [\n{}\n    ],\n", rows.join(",\n"));
    format!("{}{shard_matrix}{}", runs[0].head, runs[0].tail)
}

/// The whole `BENCH_fct.json` document from its three sections.
pub fn document(full: &str, smoke: &str, closed_loop: &str) -> String {
    format!("{{\n  \"bench\": \"fct\",\n{full},\n{smoke},\n{closed_loop}\n}}\n")
}

//! Million-flow fat-tree FCT benchmark — the §4 "datacenters"
//! deployment at datacenter scale.
//!
//! Builds the k=8 fat-tree (oversubscribed edge: 32 hosts per ToR →
//! 1024 hosts over 80 switches), drives a seeded traffic matrix with
//! web-search and data-mining flow-size CDFs (over a million flows),
//! and runs the paper's three TPP applications *concurrently over the
//! shared switches*: microburst monitors (§2.1), RCP\* congestion
//! control (§2.2), and ndb path tracing (§2.3). Reports
//! flow-completion-time percentiles by flow-size bucket plus the
//! memory/throughput numbers this benchmark exists to track:
//! sim-time/wall-time ratio, allocations, peak RSS, resident
//! bytes-per-switch, and program-interner sharing.
//!
//! ```console
//! $ cargo run --release -p tpp-bench --bin fct_bench            # full k=8 + smoke, writes BENCH_fct.json
//! $ cargo run --release -p tpp-bench --bin fct_bench -- --smoke # scaled-down k=4 only, prints JSON
//! $ cargo run --release -p tpp-bench --bin fct_bench -- --smoke --check
//! #   ^ CI lane: byte-diffs the smoke fingerprint against the committed
//! #     BENCH_fct.json and enforces the allocation ceiling + perf gate
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tpp_apps::microburst::MicroburstMonitor;
use tpp_apps::ndb::{NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_asic::PortId;
use tpp_bench::traffic::{
    completions_fingerprint, generate_schedule, percentile, splitmix64, ClosedFlowGenApp,
    ClosedLoopConfig, Completion, FlowGenApp, FlowSizeDist, TrafficConfig,
};
use tpp_host::{EchoReceiver, TransportStats};
use tpp_netsim::{
    fat_tree_with, time, Endpoint, FatTreeParams, HostApp, HostId, RunLimit, SimConfig,
};
use tpp_wire::EthernetAddress;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One benchmark scenario (the full k=8 run or the k=4 CI smoke).
struct Scenario {
    k: usize,
    hosts_per_edge: usize,
    /// Microburst-monitor, RCP\*, and ndb sender/receiver pairs; they
    /// occupy the first and last host indices (pod 0 → last pod, so
    /// every TPP app crosses the full 5-switch inter-pod path).
    mon_pairs: usize,
    rcp_pairs: usize,
    ndb_pairs: usize,
    traffic: TrafficConfig,
    /// Extra simulated time after the last scheduled flow start, ns.
    drain_ns: u64,
    link_kbps: u32,
    host_nic_kbps: u32,
    queue_limit_bytes: u32,
}

/// Flow-size bucket edges, bytes (post scale/cap — see `TrafficConfig`).
const BUCKETS: &[(&str, u32, u32)] = &[
    ("small", 0, 4 * 1024),
    ("medium", 4 * 1024, 24 * 1024),
    ("large", 24 * 1024, u32::MAX),
];

struct BucketStats {
    dist: &'static str,
    bucket: &'static str,
    n: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

struct ScenarioOut {
    switches: usize,
    hosts: usize,
    flows_total: usize,
    flows_started: u64,
    flows_completed: usize,
    frames_sent: u64,
    sim_ns: u64,
    wall_s: f64,
    events: u64,
    /// Conservative windows stepped and the deepest event queue found at
    /// a window's entry (stdout only).
    windows: u64,
    peak_pending: u64,
    allocs: u64,
    peak_rss_kb: u64,
    fingerprint: u64,
    fct: Vec<BucketStats>,
    bytes_per_switch: usize,
    interner_distinct: usize,
    interner_shared: u64,
    interner_decoded: u64,
    mb_probes: u64,
    mb_samples: usize,
    rcp_completed: usize,
    ndb_sent: usize,
    ndb_traces: usize,
}

fn run_scenario(s: &Scenario) -> ScenarioOut {
    let params = FatTreeParams {
        k: s.k,
        hosts_per_edge: s.hosts_per_edge,
        link_kbps: s.link_kbps,
        queue_limit_bytes: s.queue_limit_bytes,
        delay_ns: time::micros(1),
        host_nic_kbps: s.host_nic_kbps,
    };
    let n_hosts = params.n_hosts();
    let n_special = s.mon_pairs + s.rcp_pairs + s.ndb_pairs;
    assert!(
        n_hosts > 2 * n_special + 1,
        "topology too small for the app mix"
    );
    let mac = |host_index: usize| EthernetAddress::from_host_id(host_index as u32);

    // Flow-generating hosts sit between the special senders (head) and
    // their receivers (tail).
    let fg_range = n_special..n_hosts - n_special;
    let fg_macs: Vec<EthernetAddress> = fg_range.clone().map(mac).collect();

    // Generate every schedule up front: the run length is the last
    // scheduled start plus the drain window.
    let mut schedules = Vec::with_capacity(fg_macs.len());
    let mut flows_total = 0usize;
    let mut last_start = 0u64;
    for fg_idx in 0..fg_macs.len() {
        let dist = if fg_idx % 2 == 0 {
            FlowSizeDist::WebSearch
        } else {
            FlowSizeDist::DataMining
        };
        let sched = generate_schedule(&s.traffic, fg_idx as u32, &fg_macs, dist);
        flows_total += sched.len();
        if let Some(f) = sched.last() {
            last_start = last_start.max(f.start_ns);
        }
        schedules.push(sched);
    }
    let run_ns = last_start + s.drain_ns;

    let mut schedules = schedules.into_iter();
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            if i < s.mon_pairs {
                // §2.1 monitor probing the far side of the fabric.
                Box::new(MicroburstMonitor::new(
                    mac(n_hosts - 1 - i),
                    6,
                    25_000,
                    0,
                    run_ns,
                ))
            } else if i < s.mon_pairs + s.rcp_pairs {
                Box::new(RcpStarSender::new(
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
                Box::new(NdbProbeSender::new(
                    mac(n_hosts - 1 - i),
                    6,
                    200_000,
                    (run_ns / 200_000).min(500) as u32,
                ))
            } else if i < n_hosts - n_special {
                Box::new(FlowGenApp::new(schedules.next().expect("one per host")))
            } else {
                // Mirror of the special sender at `n_hosts - 1 - i`:
                // ndb senders need a TraceCollector, monitors and RCP*
                // senders an echo peer.
                let peer = n_hosts - 1 - i;
                if peer >= s.mon_pairs + s.rcp_pairs {
                    Box::new(TraceCollector::default())
                } else {
                    Box::new(EchoReceiver::default())
                }
            }
        })
        .collect();

    let config = SimConfig::new()
        .shards(1)
        .sequential()
        .tick_interval_ns(time::millis(1))
        .frame_pool_buffers(16 * 1024);
    let (mut sim, tree) = fat_tree_with(config, params.clone(), apps);
    assert!(
        tree.all_hosts().eq((0..n_hosts).map(HostId)),
        "host ids must be dense in (pod, edge, index) order"
    );
    let switches: Vec<_> = tree
        .edges
        .iter()
        .chain(tree.aggs.iter())
        .flatten()
        .copied()
        .chain(tree.cores.iter().copied())
        .collect();
    for sw in &switches {
        init_rate_registers(sim.switch_mut(*sw));
    }

    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    sim.run(RunLimit::Until(run_ns));
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let peak_rss_kb = peak_rss_kb();

    // Harvest completions from every flow-generating host.
    let mut completions: Vec<Completion> = Vec::with_capacity(flows_total);
    let mut flows_started = 0u64;
    let mut frames_sent = 0u64;
    for i in fg_range {
        let app = sim.host_app::<FlowGenApp>(HostId(i));
        flows_started += app.flows_started;
        frames_sent += app.frames_sent;
        completions.extend_from_slice(&app.completions);
    }
    let fingerprint = completions_fingerprint(completions.iter().copied());

    let mut fct = Vec::new();
    for (dist_name, mining) in [("web_search", false), ("data_mining", true)] {
        for (bucket, lo, hi) in BUCKETS {
            let mut v: Vec<f64> = completions
                .iter()
                .filter(|c| c.mining == mining && c.bytes > *lo && c.bytes <= *hi)
                .map(|c| c.fct_ns as f64 / 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            fct.push(BucketStats {
                dist: dist_name,
                bucket,
                n: v.len(),
                p50_ms: percentile(&v, 0.5),
                p95_ms: percentile(&v, 0.95),
                p99_ms: percentile(&v, 0.99),
            });
        }
    }

    let (interner_shared, interner_decoded) = sim.program_interner().stats();
    let mut mb_probes = 0;
    let mut mb_samples = 0;
    for i in 0..s.mon_pairs {
        let m = sim.host_app::<MicroburstMonitor>(HostId(i));
        mb_probes += m.probes_sent;
        mb_samples += m.samples.len();
    }
    let rcp_completed = (s.mon_pairs..s.mon_pairs + s.rcp_pairs)
        .filter(|&i| {
            sim.host_app::<RcpStarSender>(HostId(i))
                .completed_at
                .is_some()
        })
        .count();
    let mut ndb_sent = 0;
    let mut ndb_traces = 0;
    for i in 0..s.ndb_pairs {
        let sender = s.mon_pairs + s.rcp_pairs + i;
        ndb_sent += sim
            .host_app::<NdbProbeSender>(HostId(sender))
            .sent_ids
            .len();
        ndb_traces += sim
            .host_app::<TraceCollector>(HostId(n_hosts - 1 - sender))
            .traces
            .len();
    }

    let sync = sim.shard_sync_stats();
    ScenarioOut {
        switches: switches.len(),
        hosts: n_hosts,
        flows_total,
        flows_started,
        flows_completed: completions.len(),
        frames_sent,
        sim_ns: run_ns,
        wall_s,
        events: sim.events_processed(),
        windows: sync[0].windows,
        peak_pending: sync.iter().map(|s| s.peak_pending).max().unwrap_or(0),
        allocs,
        peak_rss_kb,
        fingerprint,
        fct,
        bytes_per_switch: sim.approx_bytes_per_switch(),
        interner_distinct: sim.program_interner().distinct_programs(),
        interner_shared,
        interner_decoded,
        mb_probes,
        mb_samples,
        rcp_completed,
        ndb_sent,
        ndb_traces,
    }
}

fn full_scenario() -> Scenario {
    Scenario {
        k: 8,
        hosts_per_edge: 32,
        mon_pairs: 8,
        rcp_pairs: 8,
        ndb_pairs: 4,
        traffic: TrafficConfig {
            flows_per_host: 1150,
            mean_gap_ns: 110_000,
            ..Default::default()
        },
        drain_ns: time::millis(40),
        link_kbps: 40_000_000,
        host_nic_kbps: 10_000_000,
        queue_limit_bytes: 16 * 1024 * 1024,
    }
}

fn smoke_scenario() -> Scenario {
    Scenario {
        k: 4,
        hosts_per_edge: 0, // textbook k/2 = 2 → 16 hosts, 20 switches
        mon_pairs: 1,
        rcp_pairs: 1,
        ndb_pairs: 1,
        traffic: TrafficConfig {
            flows_per_host: 1000,
            mean_gap_ns: 50_000,
            ..Default::default()
        },
        drain_ns: time::millis(10),
        link_kbps: 40_000_000,
        host_nic_kbps: 10_000_000,
        queue_limit_bytes: 4 * 1024 * 1024,
    }
}

/// The lossy closed-loop scenario: every host runs the loss-recovering
/// transport ([`ClosedFlowGenApp`]) over the ECMP-routed fat-tree, with
/// seeded random loss on every switch-to-switch link direction.
struct ClosedScenario {
    k: usize,
    hosts_per_edge: usize,
    traffic: TrafficConfig,
    /// Per-frame loss on every inter-switch link direction, permille.
    loss_permille: u16,
    drain_ns: u64,
    link_kbps: u32,
    host_nic_kbps: u32,
    queue_limit_bytes: u32,
}

fn closed_scenario() -> ClosedScenario {
    ClosedScenario {
        k: 8,
        hosts_per_edge: 0, // textbook k/2 = 4 -> 128 hosts, 80 switches
        traffic: TrafficConfig {
            flows_per_host: 60,
            mean_gap_ns: 250_000,
            ..Default::default()
        },
        loss_permille: 5,
        drain_ns: time::millis(60),
        link_kbps: 40_000_000,
        host_nic_kbps: 10_000_000,
        queue_limit_bytes: 4 * 1024 * 1024,
    }
}

struct ClosedOut {
    switches: usize,
    hosts: usize,
    flows_total: usize,
    completed: usize,
    unfinished: usize,
    stats: TransportStats,
    fingerprint: u64,
    fct: Vec<BucketStats>,
    offered_mbps: f64,
    goodput_mbps: f64,
    /// Tx-frame counters of every edge-switch uplink (the ports ECMP
    /// spreads over): (min, max, mean, max/mean).
    spread: (u64, u64, f64, f64),
    sim_ns: u64,
    wall_s: f64,
    events: u64,
    /// Conservative windows stepped (every shard steps each of them),
    /// the deepest event queue any shard found at a window's entry, and
    /// events mailed across a shard boundary, over all shards.
    windows: u64,
    peak_pending: u64,
    events_mailed: u64,
}

/// One closed-loop run at a given shard count/driver. The returned
/// fingerprint folds per-flow FCTs *and* the recovery counters, so the
/// shard matrix proves the whole closed loop is bit-identical, not just
/// the completions.
fn run_closed(s: &ClosedScenario, shards: usize, sequential: bool) -> ClosedOut {
    let params = FatTreeParams {
        k: s.k,
        hosts_per_edge: s.hosts_per_edge,
        link_kbps: s.link_kbps,
        queue_limit_bytes: s.queue_limit_bytes,
        delay_ns: time::micros(1),
        host_nic_kbps: s.host_nic_kbps,
    };
    let n_hosts = params.n_hosts();
    let macs: Vec<EthernetAddress> = (0..n_hosts)
        .map(|i| EthernetAddress::from_host_id(i as u32))
        .collect();

    let mut flows_total = 0usize;
    let mut offered_bytes = 0u64;
    let mut last_start = 0u64;
    let mut schedules = Vec::with_capacity(n_hosts);
    for i in 0..n_hosts {
        let dist = if i % 2 == 0 {
            FlowSizeDist::WebSearch
        } else {
            FlowSizeDist::DataMining
        };
        let sched = generate_schedule(&s.traffic, i as u32, &macs, dist);
        flows_total += sched.len();
        offered_bytes += sched.iter().map(|f| f.bytes as u64).sum::<u64>();
        if let Some(f) = sched.last() {
            last_start = last_start.max(f.start_ns);
        }
        schedules.push(sched);
    }
    let run_ns = last_start + s.drain_ns;

    let apps: Vec<Box<dyn HostApp>> = schedules
        .into_iter()
        .map(|sched| -> Box<dyn HostApp> {
            Box::new(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default()))
        })
        .collect();
    let mut config = SimConfig::new()
        .shards(shards)
        .ecmp(true)
        .tick_interval_ns(time::millis(1))
        .frame_pool_buffers(16 * 1024);
    if sequential {
        config = config.sequential();
    }
    let (mut sim, tree) = fat_tree_with(config, params.clone(), apps);

    let half = s.k / 2;
    let hpe = params.effective_hosts_per_edge();
    let switches: Vec<_> = tree
        .edges
        .iter()
        .chain(tree.aggs.iter())
        .flatten()
        .copied()
        .chain(tree.cores.iter().copied())
        .collect();
    for sw in &switches {
        init_rate_registers(sim.switch_mut(*sw));
    }
    // Seeded loss on every inter-switch link direction: edge uplinks,
    // all agg ports (down + up), all core ports. Host links stay clean,
    // so loss recovery is the transport's job, not the NIC's.
    for pod in tree.edges.iter() {
        for edge in pod {
            for a in 0..half {
                sim.set_link_loss(
                    Endpoint::switch(*edge, (hpe + a) as PortId),
                    s.loss_permille,
                );
            }
        }
    }
    for pod in tree.aggs.iter() {
        for agg in pod {
            for p in 0..s.k {
                sim.set_link_loss(Endpoint::switch(*agg, p as PortId), s.loss_permille);
            }
        }
    }
    for core in &tree.cores {
        for p in 0..s.k {
            sim.set_link_loss(Endpoint::switch(*core, p as PortId), s.loss_permille);
        }
    }

    let start = Instant::now();
    sim.run(RunLimit::Until(run_ns));
    let wall_s = start.elapsed().as_secs_f64();

    let mut completions: Vec<Completion> = Vec::with_capacity(flows_total);
    let mut stats = TransportStats::default();
    let mut unfinished = 0usize;
    for i in 0..n_hosts {
        let app = sim.host_app::<ClosedFlowGenApp>(HostId(i));
        completions.extend_from_slice(&app.completions);
        stats.merge(&app.stats_snapshot());
        unfinished += app.unfinished();
    }
    let mut fingerprint = completions_fingerprint(completions.iter().copied());
    fingerprint ^= splitmix64(
        stats
            .retransmits
            .wrapping_add(stats.rto_fires.rotate_left(17))
            .wrapping_add(stats.fast_retransmits.rotate_left(34))
            .wrapping_add(stats.flows_given_up.rotate_left(51)),
    );

    let mut fct = Vec::new();
    for (dist_name, mining) in [("web_search", false), ("data_mining", true)] {
        for (bucket, lo, hi) in BUCKETS {
            let mut v: Vec<f64> = completions
                .iter()
                .filter(|c| c.mining == mining && c.bytes > *lo && c.bytes <= *hi)
                .map(|c| c.fct_ns as f64 / 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            fct.push(BucketStats {
                dist: dist_name,
                bucket,
                n: v.len(),
                p50_ms: percentile(&v, 0.5),
                p95_ms: percentile(&v, 0.95),
                p99_ms: percentile(&v, 0.99),
            });
        }
    }

    let uplinks: Vec<u64> = tree
        .edges
        .iter()
        .flatten()
        .flat_map(|edge| {
            (0..half).map(move |a| (edge, a)) // each edge's uplink ports
        })
        .map(|(edge, a)| sim.link_tx_frames(Endpoint::switch(*edge, (hpe + a) as PortId)))
        .collect();
    let spread_min = uplinks.iter().copied().min().unwrap_or(0);
    let spread_max = uplinks.iter().copied().max().unwrap_or(0);
    let spread_mean = uplinks.iter().sum::<u64>() as f64 / uplinks.len().max(1) as f64;
    let max_over_mean = if spread_mean > 0.0 {
        spread_max as f64 / spread_mean
    } else {
        0.0
    };

    let goodput_bytes: u64 = completions.iter().map(|c| c.bytes as u64).sum();
    let sync = sim.shard_sync_stats();
    ClosedOut {
        switches: switches.len(),
        hosts: n_hosts,
        flows_total,
        completed: completions.len(),
        unfinished,
        stats,
        fingerprint,
        fct,
        offered_mbps: offered_bytes as f64 * 8.0 / (run_ns as f64 / 1e9) / 1e6,
        goodput_mbps: goodput_bytes as f64 * 8.0 / (run_ns as f64 / 1e9) / 1e6,
        spread: (spread_min, spread_max, spread_mean, max_over_mean),
        sim_ns: run_ns,
        wall_s,
        events: sim.events_processed(),
        windows: sync[0].windows,
        peak_pending: sync.iter().map(|s| s.peak_pending).max().unwrap_or(0),
        events_mailed: sync.iter().map(|s| s.events_mailed).sum(),
    }
}

/// The shard-invariance matrix the acceptance gate runs: the same
/// closed-loop scenario at 1/2/4 shards, threaded and sequential, must
/// produce bit-identical fingerprints.
const CLOSED_MATRIX: &[(&str, usize, bool)] = &[
    ("1_shard_seq", 1, true),
    ("2_shards_threaded", 2, false),
    ("4_shards_threaded", 4, false),
    ("4_shards_seq", 4, true),
];

fn run_closed_matrix(s: &ClosedScenario) -> (ClosedOut, Vec<(&'static str, u64)>) {
    let mut outs = Vec::new();
    for (name, shards, sequential) in CLOSED_MATRIX {
        let out = run_closed(s, *shards, *sequential);
        println!(
            "closed[{name:<17}] {}/{} flows completed, {} retransmits \
             ({} RTO, {} fast), fingerprint 0x{:016x} in {:.2} s wall; \
             {} windows of {:.1} events (peak {} pending), {} mailed",
            out.completed,
            out.flows_total,
            out.stats.retransmits,
            out.stats.rto_fires,
            out.stats.fast_retransmits,
            out.fingerprint,
            out.wall_s,
            out.windows,
            out.events as f64 / out.windows.max(1) as f64,
            out.peak_pending,
            out.events_mailed,
        );
        outs.push((*name, out));
    }
    let base_fp = outs[0].1.fingerprint;
    for (name, out) in &outs {
        assert_eq!(
            out.fingerprint, base_fp,
            "{name}: closed-loop run diverged from the 1-shard baseline"
        );
    }
    let matrix = outs.iter().map(|(n, o)| (*n, o.fingerprint)).collect();
    let out = outs.swap_remove(0).1;
    assert!(
        out.completed * 100 >= out.flows_total * 99,
        "closed loop must complete >= 99% of flows under loss (got {}/{})",
        out.completed,
        out.flows_total
    );
    assert!(
        out.stats.retransmits > 0,
        "a lossy run that never retransmits is not exercising recovery"
    );
    (out, matrix)
}

fn closed_json(s: &ClosedScenario, out: &ClosedOut, matrix: &[(&'static str, u64)]) -> String {
    let rows: Vec<String> = matrix
        .iter()
        .map(|(name, fp)| {
            format!("      {{\"run\": \"{name}\", \"fingerprint\": \"0x{fp:016x}\"}}")
        })
        .collect();
    let (sp_min, sp_max, sp_mean, sp_ratio) = out.spread;
    format!(
        "  \"closed_loop\": {{\n\
         \x20   \"k\": {}, \"switches\": {}, \"hosts\": {}, \"loss_permille\": {},\n\
         \x20   \"flows_total\": {}, \"flows_completed\": {}, \"flows_given_up\": {}, \"unfinished\": {},\n\
         \x20   \"segments_sent\": {}, \"retransmits\": {}, \"rto_fires\": {}, \"fast_retransmits\": {},\n\
         \x20   \"acks_sent\": {}, \"dup_segments_rx\": {}, \"probes_sent\": {}, \"rate_updates\": {},\n\
         \x20   \"offered_mbps\": {:.1}, \"goodput_mbps\": {:.1},\n\
         \x20   \"sim_ms\": {:.3}, \"wall_s\": {:.3}, \"events\": {},\n\
         \x20   \"path_spread\": {{\"uplinks\": {}, \"min_tx\": {}, \"max_tx\": {}, \
         \"mean_tx\": {:.1}, \"max_over_mean\": {:.3}}},\n\
         \x20   \"fingerprint\": \"0x{:016x}\",\n\
         \x20   \"shard_matrix\": [\n{}\n    ],\n\
         \x20   \"fct_ms\": [\n{}\n    ]\n  }}",
        s.k,
        out.switches,
        out.hosts,
        s.loss_permille,
        out.flows_total,
        out.completed,
        out.stats.flows_given_up,
        out.unfinished,
        out.stats.segments_sent,
        out.stats.retransmits,
        out.stats.rto_fires,
        out.stats.fast_retransmits,
        out.stats.acks_sent,
        out.stats.dup_segments_rx,
        out.stats.probes_sent,
        out.stats.rate_updates,
        out.offered_mbps,
        out.goodput_mbps,
        out.sim_ns as f64 / 1e6,
        out.wall_s,
        out.events,
        s.k * (s.k / 2) * (s.k / 2), // edge switches x uplinks each
        sp_min,
        sp_max,
        sp_mean,
        sp_ratio,
        out.fingerprint,
        rows.join(",\n"),
        fct_json_closed(out)
    )
}

fn fct_json_closed(out: &ClosedOut) -> String {
    let rows: Vec<String> = out
        .fct
        .iter()
        .map(|b| {
            format!(
                "      {{\"dist\": \"{}\", \"bucket\": \"{}\", \"n\": {}, \
                 \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                b.dist, b.bucket, b.n, b.p50_ms, b.p95_ms, b.p99_ms
            )
        })
        .collect();
    rows.join(",\n")
}

fn check_closed_against_committed(out: &ClosedOut) -> i32 {
    let path = "BENCH_fct.json";
    let committed = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check: cannot read {path}: {e}");
            return 2;
        }
    };
    let got_fp = format!("0x{:016x}", out.fingerprint);
    match json_scalar(&committed, "closed_loop", "fingerprint") {
        Some(want) if want == got_fp => {
            println!("check: closed-loop fingerprint {got_fp} matches");
            0
        }
        Some(want) => {
            eprintln!("check: CLOSED-LOOP FINGERPRINT MISMATCH: committed {want}, got {got_fp}");
            1
        }
        None => {
            eprintln!("check: no closed_loop fingerprint in {path}");
            1
        }
    }
}

fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

fn fct_json(out: &ScenarioOut) -> String {
    let rows: Vec<String> = out
        .fct
        .iter()
        .map(|b| {
            format!(
                "      {{\"dist\": \"{}\", \"bucket\": \"{}\", \"n\": {}, \
                 \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                b.dist, b.bucket, b.n, b.p50_ms, b.p95_ms, b.p99_ms
            )
        })
        .collect();
    rows.join(",\n")
}

fn scenario_json(name: &str, s: &Scenario, out: &ScenarioOut) -> String {
    let hpe = s.hosts_per_edge.max(s.k / 2);
    format!(
        "  \"{name}\": {{\n\
         \x20   \"k\": {}, \"hosts_per_edge\": {}, \"switches\": {}, \"hosts\": {},\n\
         \x20   \"flows_total\": {}, \"flows_started\": {}, \"flows_completed\": {},\n\
         \x20   \"frames_sent\": {}, \"size_scale_div\": {}, \"cap_bytes\": {},\n\
         \x20   \"sim_ms\": {:.3}, \"wall_s\": {:.3}, \"sim_wall_ratio\": {:.4},\n\
         \x20   \"events\": {}, \"events_per_sec\": {:.0},\n\
         \x20   \"allocations\": {}, \"peak_rss_kb\": {}, \"bytes_per_switch\": {},\n\
         \x20   \"interner\": {{\"distinct_programs\": {}, \"shared_hits\": {}, \"decodes\": {}}},\n\
         \x20   \"tpp_apps\": {{\"microburst_probes\": {}, \"microburst_samples\": {}, \
         \"rcp_flows_completed\": {}, \"ndb_probes\": {}, \"ndb_traces\": {}}},\n\
         \x20   \"fingerprint\": \"0x{:016x}\",\n\
         \x20   \"fct_ms\": [\n{}\n    ]\n  }}",
        s.k,
        hpe,
        out.switches,
        out.hosts,
        out.flows_total,
        out.flows_started,
        out.flows_completed,
        out.frames_sent,
        s.traffic.size_scale_div,
        s.traffic.cap_bytes,
        out.sim_ns as f64 / 1e6,
        out.wall_s,
        out.sim_ns as f64 / 1e9 / out.wall_s,
        out.events,
        out.events as f64 / out.wall_s,
        out.allocs,
        out.peak_rss_kb,
        out.bytes_per_switch,
        out.interner_distinct,
        out.interner_shared,
        out.interner_decoded,
        out.mb_probes,
        out.mb_samples,
        out.rcp_completed,
        out.ndb_sent,
        out.ndb_traces,
        out.fingerprint,
        fct_json(out)
    )
}

fn summary(name: &str, out: &ScenarioOut) {
    println!(
        "{name}: {} switches, {} hosts | {} / {} flows completed ({} frames) | \
         sim {:.1} ms in {:.2} s wall ({} events, {:.0}/s; {} windows, peak {} pending) | \
         {} allocs | {} B/switch | interner {} programs, {} shared / {} decoded",
        out.switches,
        out.hosts,
        out.flows_completed,
        out.flows_total,
        out.frames_sent,
        out.sim_ns as f64 / 1e6,
        out.wall_s,
        out.events,
        out.events as f64 / out.wall_s,
        out.windows,
        out.peak_pending,
        out.allocs,
        out.bytes_per_switch,
        out.interner_distinct,
        out.interner_shared,
        out.interner_decoded
    );
}

/// Pull a `"field": value` scalar out of the committed JSON (no JSON
/// dependency in the workspace; the file is machine-written, so plain
/// string scanning within the named section is reliable).
fn json_scalar<'a>(doc: &'a str, section: &str, field: &str) -> Option<&'a str> {
    let sec = doc.find(&format!("\"{section}\""))?;
    let rest = &doc[sec..];
    let f = rest.find(&format!("\"{field}\""))?;
    let rest = &rest[f..];
    let colon = rest.find(':')?;
    let val = rest[colon + 1..].trim_start();
    let end = val.find([',', '\n', '}']).unwrap_or(val.len());
    Some(val[..end].trim().trim_matches('"'))
}

fn check_against_committed(out: &ScenarioOut) -> i32 {
    let path = "BENCH_fct.json";
    let committed = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check: cannot read {path}: {e}");
            return 2;
        }
    };
    let mut failures = 0;
    let got_fp = format!("0x{:016x}", out.fingerprint);
    match json_scalar(&committed, "smoke", "fingerprint") {
        Some(want) if want == got_fp => println!("check: fingerprint {got_fp} matches"),
        Some(want) => {
            eprintln!("check: FINGERPRINT MISMATCH: committed {want}, got {got_fp}");
            failures += 1;
        }
        None => {
            eprintln!("check: no smoke fingerprint in {path}");
            failures += 1;
        }
    }
    // Allocation ceiling: 1.25x the committed count, so a reintroduced
    // per-frame or per-window allocation fails the lane.
    if let Some(base) =
        json_scalar(&committed, "smoke", "allocations").and_then(|v| v.parse::<u64>().ok())
    {
        let ceiling = base + base / 4;
        if out.allocs <= ceiling {
            println!("check: allocations {} <= ceiling {ceiling}", out.allocs);
        } else {
            eprintln!(
                "check: ALLOCATION REGRESSION: {} > ceiling {ceiling} (committed {base})",
                out.allocs
            );
            failures += 1;
        }
    }
    // Perf gate: >= 0.9x the committed event rate (wall-clock; noisy
    // runners can widen it via TPP_FCT_PERF_MARGIN, e.g. "0.5").
    if let Some(base) =
        json_scalar(&committed, "smoke", "events_per_sec").and_then(|v| v.parse::<f64>().ok())
    {
        let margin: f64 = std::env::var("TPP_FCT_PERF_MARGIN")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.9);
        let got = out.events as f64 / out.wall_s;
        if got >= base * margin {
            println!("check: {got:.0} events/s >= {margin}x committed {base:.0}");
        } else {
            eprintln!("check: PERF REGRESSION: {got:.0} events/s < {margin}x committed {base:.0}");
            failures += 1;
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_only = args.iter().any(|a| a == "--smoke");
    let closed_only = args.iter().any(|a| a == "--closed-loop");
    let check = args.iter().any(|a| a == "--check");

    if closed_only {
        // The lossy closed-loop lane: run the full shard matrix (the
        // fingerprint equality + >= 99% completion gates live inside).
        let closed = closed_scenario();
        let (closed_out, matrix) = run_closed_matrix(&closed);
        if check {
            std::process::exit(check_closed_against_committed(&closed_out));
        }
        println!("{{\n{}\n}}", closed_json(&closed, &closed_out, &matrix));
        return;
    }

    let smoke = smoke_scenario();
    let smoke_out = run_scenario(&smoke);
    summary("smoke(k=4)", &smoke_out);

    if check {
        std::process::exit(check_against_committed(&smoke_out));
    }
    if smoke_only {
        println!("{{\n{}\n}}", scenario_json("smoke", &smoke, &smoke_out));
        return;
    }

    let full = full_scenario();
    let full_out = run_scenario(&full);
    summary("full(k=8)", &full_out);
    assert!(
        full_out.flows_completed >= 1_000_000,
        "datacenter run must complete at least a million flows (got {})",
        full_out.flows_completed
    );

    let closed = closed_scenario();
    let (closed_out, matrix) = run_closed_matrix(&closed);

    let doc = format!(
        "{{\n  \"bench\": \"fct\",\n{},\n{},\n{}\n}}\n",
        scenario_json("full", &full, &full_out),
        scenario_json("smoke", &smoke, &smoke_out),
        closed_json(&closed, &closed_out, &matrix)
    );
    std::fs::write("BENCH_fct.json", &doc).unwrap_or_else(|e| {
        eprintln!("cannot write BENCH_fct.json: {e}");
        std::process::exit(2);
    });
    println!("wrote BENCH_fct.json");
}

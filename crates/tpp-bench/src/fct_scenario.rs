//! The §4 "datacenters" deployment at scale, one `BENCH_fct.json`
//! section per scenario. [`FULL`]: a k=8 fat-tree with an oversubscribed
//! edge (32 hosts per ToR → 1024 hosts over 80 switches) under a seeded
//! open-loop traffic matrix of web-search and data-mining flow sizes
//! (over a million flows), with the paper's three TPP applications
//! running *over the shared switches*: microburst monitors (§2.1), RCP\*
//! (§2.2), ndb path tracing (§2.3). [`SMOKE`]: the same at k=4.
//! [`closed_section`]: the loss-recovering transport over an ECMP-routed
//! lossy k=8 fabric, on every row of the shard matrix. Every value is
//! simulated, so two runs write the same bytes.

use std::ops::Range;
use std::time::Instant;

use tpp_apps::microburst::MicroburstMonitor;
use tpp_apps::ndb::{NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_host::{EchoReceiver, TransportStats};
use tpp_netsim::{
    fat_tree_with, shard_matrix, time, FatTreeParams, HostApp, HostId, RunLimit, SimConfig,
    Simulator, SwitchId,
};
use tpp_telemetry::json::Json;
use tpp_telemetry::nearest_rank;
use tpp_wire::EthernetAddress;

use crate::traffic::{
    completions_fingerprint, flow_schedules, splitmix64, ClosedFlowGenApp, ClosedLoopConfig,
    Completion, FlowGenApp, TrafficConfig,
};
use crate::{decimal, fields, hex};

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
    /// The scenario's `BENCH_fct.json` section.
    pub section: Json,
    /// Folds every flow's FCT and, closed loop, the recovery counters, so
    /// equal fingerprints mean the whole loop ran bit-identically.
    fingerprint: u64,
    /// Flows that completed.
    pub flows_completed: usize,
    /// Allocations `sim.run` made, by the counter given to [`run`].
    pub allocs: u64,
}

/// Build `s` on `config`, run it to its end and harvest its section;
/// `name` labels the printed summary line, `allocs` reads a
/// process-wide allocation counter.
pub fn run(name: &str, s: &Scenario, config: SimConfig, allocs: fn() -> u64) -> Run {
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
    let (schedules, flows_total, last_start) = flow_schedules(&traffic, &flow_macs);
    let run_ns = last_start + time::millis(s.drain_ms);
    let offered_bytes = schedules.iter().flatten().map(|f| f.bytes as u64).sum();

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

    let (shards, parallel) = (config.shards, config.parallel);
    let config = config.ecmp(s.closed_loop).frame_pool_buffers(16 * 1024);
    let (mut sim, tree) = fat_tree_with(config, params, apps);
    assert!(
        tree.all_hosts().eq((0..n_hosts).map(HostId)),
        "host ids must be dense in (pod, edge, index) order"
    );
    for i in 0..sim.num_switches() {
        init_rate_registers(sim.switch_mut(SwitchId(i)));
    }
    // Closed loop: seeded loss on every inter-switch link direction.
    // Host links stay clean: recovery is the transport's job, not the NIC's.
    if s.closed_loop {
        for from in tree.fabric_ports() {
            sim.set_link_loss(from, CLOSED_LOSS_PERMILLE);
        }
    }

    let allocs_before = allocs();
    let start = Instant::now();
    sim.run(RunLimit::Until(run_ns));
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = allocs() - allocs_before;

    let (sim_ms, events) = (run_ns as f64 / 1e6, sim.events_processed());
    let mut completions: Vec<Completion> = Vec::with_capacity(flows_total as usize);
    let (recovery_fold, mut fields) = if s.closed_loop {
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
            completed as u64 * 100 >= flows_total * 99,
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

        let uplinks = tree.edge_uplinks();
        let tx: Vec<u64> = uplinks.iter().map(|u| sim.link_tx_frames(*u)).collect();
        let (n_uplinks, mean_tx) = (tx.len(), tx.iter().sum::<u64>() as f64 / tx.len() as f64);
        let min_tx = *tx.iter().min().expect("an edge has uplinks");
        let max_tx = *tx.iter().max().expect("an edge has uplinks");
        let max_over_mean = max_tx as f64 / mean_tx;
        let mbps = |bytes: u64| bytes as f64 * 8.0 / (run_ns as f64 / 1e9) / 1e6;
        let goodput_bytes = completions.iter().map(|c| c.bytes as u64).sum();
        let (offered_mbps, goodput_mbps) = (mbps(offered_bytes), mbps(goodput_bytes));
        let fields = fields! {
            k: k, switches: n_switches, hosts: n_hosts, loss_permille: CLOSED_LOSS_PERMILLE,
            flows_total: flows_total, flows_completed: completed,
            flows_given_up: flows_given_up, unfinished: unfinished,
            segments_sent: segments_sent, retransmits: retransmits, rto_fires: rto_fires,
            fast_retransmits: fast_retransmits, acks_sent: acks_sent,
            dup_segments_rx: dup_segments_rx, probes_sent: probes_sent, rate_updates: rate_updates,
            offered_mbps: decimal(offered_mbps, 1), goodput_mbps: decimal(goodput_mbps, 1),
            sim_ms: decimal(sim_ms, 3), events: events,
            path_spread: Json::Obj(fields! {
                uplinks: n_uplinks, min_tx: min_tx, max_tx: max_tx,
                mean_tx: decimal(mean_tx, 1), max_over_mean: decimal(max_over_mean, 3),
            }),
        };
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
        let fields = fields! {
            k: k, hosts_per_edge: hpe, switches: n_switches, hosts: n_hosts,
            flows_total: flows_total, flows_started: flows_started,
            flows_completed: flows_completed, frames_sent: frames_sent,
            size_scale_div: size_scale_div, cap_bytes: cap_bytes,
            sim_ms: decimal(sim_ms, 3), events: events, bytes_per_switch: bytes_per_switch,
            interner: Json::Obj(fields! {
                distinct_programs: programs, shared_hits: shared, decodes: decoded,
            }),
            tpp_apps: Json::Obj(fields! {
                microburst_probes: mb_probes, microburst_samples: mb_samples,
                rcp_flows_completed: rcp_completed, ndb_probes: ndb_sent, ndb_traces: ndb_traces,
            }),
        };
        (0, fields)
    };
    let fingerprint = completions_fingerprint(completions.iter().copied()) ^ recovery_fold;

    // Every shard steps each conservative window; queue depth at a
    // window's entry and events mailed across a boundary are over all.
    let sync = sim.shard_sync_stats();
    let (flows_completed, windows) = (completions.len(), sync[0].windows);
    let driver = if parallel { "threaded" } else { "seq" };
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
            fct_rows.push(fct_row(dist, bucket, &v));
        }
    }
    fields.extend(fields! { fingerprint: hex(fingerprint), fct_ms: fct_rows });
    Run {
        section: Json::Obj(fields),
        fingerprint,
        flows_completed,
        allocs,
    }
}

/// One `fct_ms` row: the flows' FCT percentiles (`sorted`, ms), `null`
/// for an empty bucket.
fn fct_row(dist: &str, bucket: &str, sorted: &[f64]) -> Json {
    let [p50, p95, p99] = [(1, 2), (95, 100), (99, 100)]
        .map(|(q, of)| nearest_rank(sorted, q, of).map(|p| decimal(p, 3)));
    Json::Obj(fields! {
        dist: dist, bucket: bucket, n: sorted.len(), p50_ms: p50, p95_ms: p95, p99_ms: p99,
    })
}

/// Run the closed loop on every row of [`shard_matrix`]; returns the
/// `closed_loop` section (the 1-shard run's numbers and every row's
/// fingerprint).
///
/// # Panics
///
/// When a row's fingerprint differs from the 1-shard run's.
pub fn closed_section() -> Json {
    let mut runs: Vec<(&str, Run)> = shard_matrix()
        .into_iter()
        .map(|(row, config)| (row, run("closed_loop", &CLOSED, config, || 0)))
        .collect();
    let reference = runs[0].1.fingerprint;
    let mut rows = Vec::new();
    for (row, Run { fingerprint, .. }) in &runs {
        assert_eq!(
            *fingerprint, reference,
            "{row}: closed-loop run diverged from the 1-shard baseline"
        );
        rows.push(Json::Obj(
            fields! { run: *row, fingerprint: hex(*fingerprint) },
        ));
    }
    let Json::Obj(mut fields) = runs.swap_remove(0).1.section else {
        unreachable!("a section is an object")
    };
    let at = 1 + fields
        .iter()
        .position(|(k, _)| k == "fingerprint")
        .expect("a fingerprint");
    fields.insert(at, ("shard_matrix".to_string(), Json::Arr(rows)));
    Json::Obj(fields)
}

/// The whole `BENCH_fct.json` document from its three sections.
pub fn document(full: Json, smoke: Json, closed_loop: Json) -> Json {
    Json::Obj(fields! { bench: "fct", full: full, smoke: smoke, closed_loop: closed_loop })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_bucket_writes_null_and_reads_back() {
        let empty = fct_row("web_search", "large", &[]);
        let null = Json::Lit("null".to_string());
        for key in ["p50_ms", "p95_ms", "p99_ms"] {
            assert_eq!(empty.get(key), Some(&null));
        }
        assert_eq!(empty.get("n"), Some(&Json::Num(0)));
        assert_eq!(Json::parse(&empty.pretty()), Ok(empty));
        let row = fct_row("data_mining", "small", &[0.0071, 1.0, 2.5]);
        assert_eq!(row.get("p50_ms"), Some(&Json::Lit("1.000".to_string())));
        assert_eq!(Json::parse(&row.pretty()), Ok(row));
    }
}

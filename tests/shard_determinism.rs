//! Shard-count invariance: the tentpole guarantee of the sharded
//! scheduler.
//!
//! A seeded simulation must produce *bit-identical* results at any shard
//! count, threaded or sequential — the canonical event-key order and the
//! per-link RNG streams make the partition unobservable. These tests
//! take whole-run fingerprints (trace CSV rows, fault counters, the
//! metrics registry's JSON dump, ring-series points, events processed,
//! host-app state) and compare them across `N ∈ {1, 2, 4}` shards, with
//! the 4-shard configuration run both threaded and sequential.
//!
//! The property-based half drives a chaotic leaf-spine under randomized
//! seeds, loss rates and fault windows; the fixed half checks RCP\*
//! convergence records (the fig2 ingredient) survive sharding exactly.

use proptest::prelude::*;
use tpp::apps::bonding::{BondReceiver, BondSender, BondSenderConfig};
use tpp::apps::microburst::MicroburstMonitor;
use tpp::apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp::host::{BondConfig, EchoReceiver};
use tpp::netsim::{
    bonded_diamond_with, dumbbell_with, fat_tree_with, leaf_spine_with, time, BondedDiamondParams,
    DumbbellParams, Endpoint, FatTreeParams, FaultPlan, HostApp, HostCtx, HostId, LeafSpineParams,
    LinkProfile, LinkState, RunLimit, ShardSyncStats, SimConfig, Simulator,
};
use tpp::wire::ethernet::{build_frame, EtherType};
use tpp::wire::EthernetAddress;
use tpp_bench::dash_scenario::DashFeed;
use tpp_bench::traffic::{
    completions_fingerprint, generate_schedule, splitmix64, FlowGenApp, FlowSizeDist, TrafficConfig,
};

/// One switch's ring series, flattened: `(switch, metric, points)`.
type SeriesPoints = (u32, &'static str, Vec<(u64, u64)>);

/// Everything observable about a finished run. Two runs are "the same"
/// iff their fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    now_ns: u64,
    events_processed: u64,
    trace_rows: Vec<String>,
    fault_counters: String,
    metrics_json: String,
    series_points: Vec<SeriesPoints>,
    host_state: Vec<(usize, u64)>,
    /// Per-path counters of multi-homed scenarios (wire frames, probe
    /// accounting, scheduler events…); empty for single-NIC scenarios.
    path_counters: Vec<u64>,
}

/// A host that sprays fixed-size data frames at a target on a timer.
struct Sprayer {
    target: EthernetAddress,
    period_ns: u64,
    stop_ns: u64,
    payload_len: usize,
    sent: u64,
}

impl HostApp for Sprayer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.period_ns, 0);
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

/// A host that counts what it receives.
#[derive(Default)]
struct CountingSink {
    got: u64,
}

impl HostApp for CountingSink {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.got += 1;
        ctx.recycle_frame(frame);
    }
}

fn fingerprint(
    mut sim: Simulator,
    sink: &tpp::telemetry::SharedSink,
    host_state: Vec<(usize, u64)>,
    path_counters: Vec<u64>,
) -> Fingerprint {
    let mut series_points = Vec::new();
    if let Some(set) = sim.series() {
        for sw in &set.switches {
            for (metric, series) in sw.iter() {
                series_points.push((sw.switch_id, metric, series.points().to_vec()));
            }
        }
        // The fleet series are sums of per-shard shares; no switch id.
        for (metric, series) in set.fleet_iter() {
            series_points.push((u32::MAX, metric, series.points().to_vec()));
        }
    }
    Fingerprint {
        now_ns: sim.now(),
        events_processed: sim.events_processed(),
        trace_rows: sink.events().iter().map(|e| e.to_csv_row()).collect(),
        fault_counters: format!("{:?}", sim.fault_counters()),
        metrics_json: sim.metrics().to_json(),
        series_points,
        host_state,
        path_counters,
    }
}

/// One chaotic leaf-spine run under `cfg`: two sprayers incast a victim
/// across the fabric while a seeded plan flaps a fabric link, reboots a
/// spine, and opens duplicate/reorder/corrupt windows; one access link
/// also carries persistent random loss.
fn chaotic_leaf_spine(cfg: SimConfig, plan_seed: u64, loss_permille: u16) -> Fingerprint {
    let params = LeafSpineParams {
        n_leaves: 4,
        n_spines: 2,
        hosts_per_leaf: 2,
        // A generous propagation delay keeps the conservative lookahead
        // (and so the windows) large enough that the threaded driver is
        // exercised across many windows without crawling on small hosts.
        delay_ns: time::micros(20),
        ..LeafSpineParams::default()
    };
    let victim_mac = EthernetAddress::from_host_id(2);
    let mk_sprayer = |offset: u64| -> Box<dyn HostApp> {
        Box::new(Sprayer {
            target: victim_mac,
            period_ns: 9_000 + offset,
            stop_ns: time::millis(15),
            payload_len: 900,
            sent: 0,
        })
    };
    let apps: Vec<Box<dyn HostApp>> = vec![
        mk_sprayer(0),                     // host 0, leaf 0
        Box::new(CountingSink::default()), // host 1
        Box::new(CountingSink::default()), // host 2 (victim), leaf 1
        mk_sprayer(1_700),                 // host 3
        mk_sprayer(3_400),                 // host 4, leaf 2
        Box::new(CountingSink::default()), // host 5
        Box::new(CountingSink::default()), // host 6, leaf 3
        Box::new(CountingSink::default()), // host 7
    ];
    let (mut sim, fabric) = leaf_spine_with(cfg, params, apps);
    let sink = sim.observe().series(64).trace_all(1 << 18);

    let h0 = Endpoint::host(fabric.hosts[0][0]);
    sim.set_link_loss(h0, loss_permille);
    let fabric_up = Endpoint::switch(fabric.leaves[0], 2); // leaf0 -> spine0
    let mut plan = FaultPlan::new(plan_seed);
    plan.duplicate_window(time::millis(1), time::millis(10), h0, 250)
        .reorder_window(
            time::millis(2),
            time::millis(12),
            fabric_up,
            250,
            time::micros(400),
        )
        .corrupt_window(time::millis(3), time::millis(9), fabric_up, 200)
        .link_flap(time::millis(5), time::millis(6), fabric_up)
        .switch_reboot(time::millis(8), fabric.spines[1]);
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::millis(20)));

    let mut host_state = Vec::new();
    for (i, host) in fabric.all_hosts().enumerate() {
        let value = match i {
            0 | 3 | 4 => sim.host_app::<Sprayer>(host).sent,
            _ => sim.host_app::<CountingSink>(host).got,
        };
        host_state.push((i, value));
    }
    fingerprint(sim, &sink, host_state, Vec::new())
}

/// A bonded-diamond run where a seeded [`LinkProfile`] (time-varying
/// loss, latency and rate on the path-0 NIC link) composes with a
/// [`FaultPlan`] fabric flap, while the probe-driven bond scheduler
/// reacts. The fingerprint carries per-path counters: wire frames per
/// NIC in both directions, probe accounting, and the folded
/// health-event log.
fn bonded_profile_flap(
    cfg: SimConfig,
    plan_seed: u64,
    worst_loss: u16,
    extra_delay_us: u64,
) -> Fingerprint {
    let sender_cfg = BondSenderConfig {
        dst: EthernetAddress::from_host_id(1),
        expected_hops: 4,
        probe_interval_ns: time::micros(50),
        probe_timeout_ns: time::micros(300),
        probe_stop_ns: time::millis(12),
        data_interval_ns: time::micros(20),
        data_start_ns: time::micros(500),
        data_stop_ns: time::millis(10),
        payload_bytes: 600,
        rto_ns: time::micros(800),
        bond: BondConfig::default(),
    };
    let (mut sim, diamond) = bonded_diamond_with(
        cfg,
        BondedDiamondParams::default(),
        Box::new(BondSender::new(sender_cfg)),
        Box::new(BondReceiver::default()),
    );
    let sink = sim.observe().series(64).trace_all(1 << 18);
    sim.set_link_profile(
        diamond.sender_nic(0),
        Some(LinkProfile::cellular_degradation(
            time::millis(2),
            time::millis(1),
            time::millis(2),
            LinkState {
                loss_permille: worst_loss,
                extra_delay_ns: time::micros(extra_delay_us),
                rate_permille: 500,
            },
        )),
    );
    let mut plan = FaultPlan::new(plan_seed);
    plan.link_flap(
        time::millis(6),
        time::millis(7),
        Endpoint::switch(diamond.paths[0][0], 1),
    );
    sim.install_faults(&plan);
    sim.run(RunLimit::Quiescent {
        limit_ns: time::millis(20),
    });

    let mut path_counters = Vec::new();
    for p in 0..2 {
        path_counters.push(sim.link_tx_frames(diamond.sender_nic(p)));
        path_counters.push(sim.link_tx_frames(diamond.receiver_nic(p)));
    }
    let tx = sim.host_app::<BondSender>(diamond.sender);
    for p in 0..2 {
        path_counters.extend([
            tx.probes_sent[p],
            tx.echoes_received[p],
            tx.bond.losses(p),
            tx.data_sent[p],
        ]);
    }
    for ev in tx.bond.events() {
        path_counters.extend([ev.t_ns, ev.path as u64]);
    }
    path_counters.extend([tx.sequences_sent(), tx.retransmits, tx.duplicates_sent]);
    let rx = sim.host_app::<BondReceiver>(diamond.receiver);
    let host_state = vec![
        (0, rx.delivered.len() as u64),
        (1, rx.duplicates_suppressed),
        (2, rx.acks_sent),
    ];
    // Fold the exact delivery order in too: same frames, same order.
    let mut order_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &seq in &rx.delivered {
        order_hash = (order_hash ^ seq).wrapping_mul(0x100_0000_01b3);
    }
    path_counters.push(order_hash);
    fingerprint(sim, &sink, host_state, path_counters)
}

/// The `fct_bench` scenario in miniature: a textbook k=4 fat tree (20
/// switches, 16 hosts) where fourteen hosts run seeded open-loop
/// [`FlowGenApp`] traffic (web-search / data-mining CDF sizes) while a
/// microburst monitor probes the fabric with TPPs — so the TCPU, the
/// program interner and the frame pool are all on the hot path. The
/// fingerprint folds in every host's flow/frame/completion counters and
/// the order-independent completions fingerprint.
fn fat_tree_traffic(cfg: SimConfig, traffic_seed: u64) -> Fingerprint {
    let params = FatTreeParams {
        k: 4,
        // As in the leaf-spine scenario: a generous propagation delay
        // keeps the conservative lookahead windows large enough for the
        // threaded driver to be exercised meaningfully.
        delay_ns: time::micros(20),
        ..FatTreeParams::default()
    };
    let n_hosts = params.n_hosts();
    let mac = |i: usize| EthernetAddress::from_host_id(i as u32);

    // Hosts 1..n-1 generate flows among themselves; host 0 is the
    // microburst monitor probing its mirror, the echo peer at n-1.
    let fg_range = 1..n_hosts - 1;
    let fg_macs: Vec<EthernetAddress> = fg_range.clone().map(mac).collect();
    let traffic = TrafficConfig {
        seed: traffic_seed,
        flows_per_host: 120,
        mean_gap_ns: 40_000,
        ..TrafficConfig::default()
    };
    let mut schedules = Vec::with_capacity(fg_macs.len());
    let mut last_start = 0u64;
    for fg_idx in 0..fg_macs.len() {
        let dist = if fg_idx % 2 == 0 {
            FlowSizeDist::WebSearch
        } else {
            FlowSizeDist::DataMining
        };
        let sched = generate_schedule(&traffic, fg_idx as u32, &fg_macs, dist);
        if let Some(f) = sched.last() {
            last_start = last_start.max(f.start_ns);
        }
        schedules.push(sched);
    }
    let run_ns = last_start + time::millis(2);

    let mut schedules = schedules.into_iter();
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            if i == 0 {
                Box::new(MicroburstMonitor::new(
                    mac(n_hosts - 1),
                    6,
                    25_000,
                    0,
                    run_ns,
                ))
            } else if i < n_hosts - 1 {
                Box::new(FlowGenApp::new(schedules.next().expect("one per host")))
            } else {
                Box::new(EchoReceiver::default())
            }
        })
        .collect();

    let (mut sim, _tree) = fat_tree_with(cfg, params, apps);
    let sink = sim.observe().series(64).trace_all(1 << 18);
    sim.run(RunLimit::Until(run_ns));

    let mut host_state = Vec::new();
    let mut completions = Vec::new();
    for i in fg_range {
        let app = sim.host_app::<FlowGenApp>(HostId(i));
        host_state.push((i, app.flows_started));
        host_state.push((i + n_hosts, app.frames_sent));
        host_state.push((i + 2 * n_hosts, app.completions.len() as u64));
        completions.extend_from_slice(&app.completions);
    }
    let monitor = sim.host_app::<MicroburstMonitor>(HostId(0));
    // Beyond the commutative completions sum: fold every individual
    // (key, FCT) pair in key order, so a single flow finishing one
    // nanosecond differently on some shard layout breaks the
    // fingerprint even if the sum happens to collide.
    completions.sort_unstable_by_key(|c| c.key);
    let mut per_flow_fcts = 0u64;
    for c in &completions {
        per_flow_fcts = splitmix64(per_flow_fcts ^ c.key ^ c.fct_ns.rotate_left(31));
    }
    let path_counters = vec![
        completions_fingerprint(completions.iter().copied()),
        per_flow_fcts,
        monitor.probes_sent,
        monitor.echoes_received,
        monitor.samples.len() as u64,
    ];
    fingerprint(sim, &sink, host_state, path_counters)
}

/// The shard configurations every scenario must agree across: one shard
/// (the classic loop), two and four threaded, four sequential (same
/// windows as threaded four, no worker threads).
fn shard_configs(seed: u64) -> Vec<(&'static str, SimConfig)> {
    vec![
        ("1 shard", SimConfig::new().seed(seed).shards(1)),
        ("2 shards", SimConfig::new().seed(seed).shards(2)),
        ("4 shards", SimConfig::new().seed(seed).shards(4)),
        (
            "4 shards sequential",
            SimConfig::new().seed(seed).shards(4).sequential(),
        ),
    ]
}

proptest! {
    // Each case runs the scenario four times (once per shard config).
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Chaotic leaf-spine runs fingerprint identically at every shard
    /// count, for arbitrary plan seeds, loss rates and sim seeds.
    #[test]
    fn chaotic_leaf_spine_is_shard_count_invariant(
        sim_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        loss_permille in 0u16..150,
    ) {
        let mut runs = shard_configs(sim_seed)
            .into_iter()
            .map(|(label, cfg)| (label, chaotic_leaf_spine(cfg, plan_seed, loss_permille)));
        let (_, reference) = runs.next().expect("at least one config");
        prop_assert!(!reference.trace_rows.is_empty(), "chaos must leave a trace");
        for (label, fp) in runs {
            prop_assert_eq!(&fp, &reference, "{} diverged from 1 shard", label);
        }
    }

    /// A seeded link profile (time-varying loss/latency/rate) composed
    /// with a [`FaultPlan`] flap drives the bonding scheduler — and the
    /// whole thing, down to per-path wire counters and the exact
    /// delivery order, fingerprints identically at every shard count.
    #[test]
    fn bonded_profile_and_flap_are_shard_count_invariant(
        sim_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        worst_loss in 0u16..400,
        extra_delay_us in 0u64..250,
    ) {
        let mut runs = shard_configs(sim_seed)
            .into_iter()
            .map(|(label, cfg)| {
                (label, bonded_profile_flap(cfg, plan_seed, worst_loss, extra_delay_us))
            });
        let (_, reference) = runs.next().expect("at least one config");
        prop_assert!(
            reference.host_state[0].1 > 0,
            "the bonded flow must deliver something"
        );
        prop_assert!(!reference.path_counters.is_empty());
        for (label, fp) in runs {
            prop_assert_eq!(&fp, &reference, "{} diverged from 1 shard", label);
        }
    }

    /// The fat-tree FCT workload — seeded CDF traffic plus a TPP
    /// microburst monitor, the `fct_bench` ingredients — fingerprints
    /// identically at every shard count, down to the completions
    /// fingerprint `BENCH_fct.json` commits.
    #[test]
    fn fat_tree_traffic_is_shard_count_invariant(
        sim_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
    ) {
        let mut runs = shard_configs(sim_seed)
            .into_iter()
            .map(|(label, cfg)| (label, fat_tree_traffic(cfg, traffic_seed)));
        let (_, reference) = runs.next().expect("at least one config");
        prop_assert!(
            reference.path_counters[0] != 0,
            "flows must complete for the fingerprint to mean anything"
        );
        prop_assert!(
            reference.path_counters[1] != 0,
            "per-flow FCT fingerprint must cover completions"
        );
        prop_assert!(
            reference.path_counters[4] > 0,
            "the monitor must collect TPP samples"
        );
        for (label, fp) in runs {
            prop_assert_eq!(&fp, &reference, "{} diverged from 1 shard", label);
        }
    }
}

/// RCP\* convergence records — the ingredient of the fig2 golden — are
/// bit-identical across shard counts: every `(t_ns, rate)` sample of
/// every sender, plus the whole-run fingerprint.
#[test]
fn rcp_convergence_records_are_shard_count_invariant() {
    let run = |cfg: SimConfig| -> (Vec<Vec<(u64, u64)>>, Fingerprint) {
        let n = 3;
        let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..n)
            .map(|i| {
                let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
                (
                    Box::new(RcpStarSender::new(dst, RcpStarConfig::default())) as Box<dyn HostApp>,
                    Box::new(EchoReceiver::default()) as Box<dyn HostApp>,
                )
            })
            .collect();
        let (mut sim, bell) = dumbbell_with(
            cfg,
            DumbbellParams {
                n_pairs: n,
                ..DumbbellParams::default()
            },
            apps,
        );
        for sw in [bell.left, bell.right] {
            init_rate_registers(sim.switch_mut(sw));
        }
        let sink = sim.observe().trace_all(1 << 16);
        sim.run(RunLimit::Until(time::secs(2)));
        let traces: Vec<Vec<(u64, u64)>> = bell
            .senders
            .iter()
            .map(|&s| sim.host_app::<RcpStarSender>(s).rate_trace.clone())
            .collect();
        let fp = fingerprint(sim, &sink, Vec::new(), Vec::new());
        (traces, fp)
    };

    let mut runs = shard_configs(0x7199_7199)
        .into_iter()
        .map(|(label, cfg)| (label, run(cfg)));
    let (_, (ref_traces, ref_fp)) = runs.next().expect("at least one config");
    assert!(
        ref_traces.iter().all(|t| t.len() > 10),
        "senders recorded convergence samples"
    );
    for (label, (traces, fp)) in runs {
        assert_eq!(traces, ref_traces, "{label}: rate traces diverged");
        assert_eq!(fp, ref_fp, "{label}: run fingerprint diverged");
    }
}

/// A 2×2 leaf-spine where two sprayers cross the fabric towards the
/// other rack, one of them over a lossy access link, run for 5 ms in
/// one call. Returns the per-shard window counters.
fn leaf_spine_2x2_schedule(cfg: SimConfig) -> Vec<ShardSyncStats> {
    let (mut sim, fabric) = leaf_spine_2x2(cfg);
    sim.run(RunLimit::Until(time::millis(5)));
    assert!(sim.host_app::<CountingSink>(fabric.hosts[1][1]).got > 0);
    sim.shard_sync_stats()
}

fn leaf_spine_2x2(cfg: SimConfig) -> (Simulator, tpp::netsim::LeafSpine) {
    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 2,
        hosts_per_leaf: 2,
        delay_ns: time::micros(5),
        ..LeafSpineParams::default()
    };
    let sprayer = |target: u32, period_ns: u64| -> Box<dyn HostApp> {
        Box::new(Sprayer {
            target: EthernetAddress::from_host_id(target),
            period_ns,
            stop_ns: time::millis(4),
            payload_len: 600,
            sent: 0,
        })
    };
    let apps: Vec<Box<dyn HostApp>> = vec![
        sprayer(3, 7_000),                 // host 0, leaf 0
        Box::new(CountingSink::default()), // host 1
        sprayer(1, 11_000),                // host 2, leaf 1
        Box::new(CountingSink::default()), // host 3
    ];
    let (mut sim, fabric) = leaf_spine_with(cfg, params, apps);
    sim.set_link_loss(Endpoint::host(fabric.hosts[0][0]), 50);
    (sim, fabric)
}

/// The k=4 lossy closed-loop feed of the dashboard goldens: series
/// sampled at a tick every 20 µs, each run call one driver call (the
/// threaded workers live across every tick of it).
fn closed_loop_k4_schedule(cfg: SimConfig) -> Vec<ShardSyncStats> {
    let mut feed = DashFeed::fct(cfg);
    feed.run_to_end();
    feed.sim().shard_sync_stats()
}

/// Stats ticks land at the same instants however the run is driven: in
/// one run call or across several that end between ticks, with series
/// sampled at every tick, or heading for quiescence first. The
/// utilisation EWMAs in the port statistics move at every tick, so they
/// tell. Observing does not move the window schedule either.
#[test]
fn ticks_land_alike_however_the_run_is_driven() {
    type Drive = fn(&mut Simulator);
    const END: u64 = 3_900_000; // the sprayers are still sending
    let drives: [(&str, Drive); 4] = [
        ("one call", |sim| sim.run(RunLimit::Until(END))),
        ("uneven calls", |sim| {
            for t in (0..END).step_by(730_001).chain([END]) {
                sim.run(RunLimit::Until(t));
            }
        }),
        ("series on", |sim| {
            sim.observe().series(8);
            sim.run(RunLimit::Until(END));
        }),
        ("quiescent, then until", |sim| {
            sim.run(RunLimit::Quiescent { limit_ns: END });
            sim.run(RunLimit::Until(END));
        }),
    ];
    for cfg in [
        SimConfig::new().shards(1),
        SimConfig::new().shards(2),
        SimConfig::new().shards(2).sequential(),
    ] {
        let outcomes: Vec<_> = drives
            .iter()
            .map(|(label, drive)| {
                let (mut sim, fabric) = leaf_spine_2x2(cfg.clone().tick_interval_ns(100_000));
                drive(&mut sim);
                let ports: Vec<_> = fabric
                    .leaves
                    .iter()
                    .chain(&fabric.spines)
                    .map(|&sw| sim.switch(sw))
                    .flat_map(|sw| (0..sw.num_ports()).map(|p| sw.port_stats(p as u16).clone()))
                    .collect();
                assert!(ports.iter().any(|p| p.tx_utilization_permille > 0));
                let outcome = (sim.now(), sim.events_processed(), ports);
                (label, outcome, sim.shard_sync_stats())
            })
            .collect();
        let (_, reference, one_call_windows) = &outcomes[0];
        for (label, outcome, _) in &outcomes[1..] {
            assert_eq!(outcome, reference, "{label} under {cfg:?}");
        }
        let (_, _, series_windows) = &outcomes[2];
        assert_eq!(
            series_windows, one_call_windows,
            "series on moved the window schedule under {cfg:?}"
        );
    }
}

/// The window schedule itself — not only what it computes — is the same
/// for the sequential and the threaded driver and from run to run: every
/// shard steps the same number of windows and mails the same number of
/// events, whichever thread got there first.
#[test]
fn window_schedule_is_driver_invariant_and_repeatable() {
    type Scenario = fn(SimConfig) -> Vec<ShardSyncStats>;
    let scenarios: [(&str, Scenario); 2] = [
        ("leaf-spine 2x2", leaf_spine_2x2_schedule),
        ("closed loop k=4", closed_loop_k4_schedule),
    ];
    for (name, scenario) in scenarios {
        for shards in [2, 4] {
            let cfg = || SimConfig::new().seed(0x5eed).shards(shards);
            let threaded = scenario(cfg());
            assert_eq!(threaded.len(), shards, "{name}");
            assert!(
                threaded
                    .iter()
                    .all(|s| s.windows == threaded[0].windows && s.windows > 0),
                "{name}: every shard steps every window: {threaded:?}"
            );
            assert!(
                threaded.iter().any(|s| s.events_mailed > 0),
                "{name}: traffic must cross a shard boundary: {threaded:?}"
            );
            assert_eq!(scenario(cfg()), threaded, "{name}: repeated threaded run");
            assert_eq!(
                scenario(cfg().sequential()),
                threaded,
                "{name}: sequential driver"
            );
        }
        let one = scenario(SimConfig::new().seed(0x5eed).shards(1));
        assert_eq!(one.len(), 1, "{name}");
        assert_eq!(one[0].events_mailed, 0, "{name}: one shard has no peer");
    }
}

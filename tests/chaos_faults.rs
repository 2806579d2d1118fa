//! Chaos suite: seeded fault injection against the end-host reliability
//! layer.
//!
//! The paper's architecture deliberately gives TPPs *no* network-level
//! reliability — "TPPs are forwarded just like other packets" — and
//! pushes loss, duplication, reordering, and switch failure onto the
//! end-host task. These tests schedule exactly that misbehavior with a
//! [`FaultPlan`] and assert the tasks survive:
//!
//! 1. RCP\* re-converges to the fair rate after the bottleneck link
//!    flaps (probes black-holed, then restored).
//! 2. The CSTORE shared counter stays exactly-once under combined loss,
//!    reordering, and duplication windows.
//! 3. A switch reboot mid-run wipes SRAM and bumps `Switch:BootEpoch`;
//!    hosts notice the epoch change and re-seed the rate register.
//! 4. The same plan (same seed, same schedule) replays to a
//!    byte-identical trace event sequence; a plan-free run injects
//!    nothing.
//!
//! Every test holds on every row of the shard matrix.

use tpp::apps::cstore::{CounterTask, CounterWriteMode};
use tpp::apps::rcpstar::{RcpStarConfig, RcpStarSender, RCP_RATE_REGISTER};
use tpp::host::EchoReceiver;
use tpp::netsim::RunLimit;
use tpp::netsim::{
    dumbbell_with, for_each_shard_row, time, ChannelProfile, DumbbellParams, Endpoint,
    FatTreeParams, FaultCounters, FaultPlan, HostApp, HostId, SimConfig,
};
use tpp::telemetry::TraceEventKind;
use tpp::wire::EthernetAddress;
use tpp_bench::repro::rcp_dumbbell;
use tpp_bench::traffic::{closed_loop_fat_tree, ClosedFlowGenApp, TrafficConfig};

const C_BPS: f64 = 10e6; // dumbbell default bottleneck

fn mean_rate_in_window(trace: &[(u64, u64)], lo_ns: u64, hi_ns: u64) -> f64 {
    let w: Vec<u64> = trace
        .iter()
        .filter(|(t, _)| *t >= lo_ns && *t < hi_ns)
        .map(|(_, r)| *r)
        .collect();
    assert!(!w.is_empty(), "no rate samples in window");
    w.iter().sum::<u64>() as f64 / w.len() as f64
}

/// Scenario 1: the bottleneck link flaps for 300 ms (taking probes,
/// echoes, and data with it) and a corruption window garbles TPP bits.
/// The flow must lose probes, keep running, and re-converge to within
/// 10% of the fair rate.
#[test]
fn rcp_reconverges_after_bottleneck_flap() {
    for_each_shard_row(check_reconvergence_after_flap);
}

fn check_reconvergence_after_flap(config: SimConfig) {
    let (mut sim, bell) = rcp_dumbbell(&config, Default::default(), &[RcpStarConfig::default()]);
    let bottleneck = Endpoint::switch(bell.left, bell.bottleneck_port);
    let mut plan = FaultPlan::new(0xc4a0_5001);
    plan.corrupt_window(time::secs(1), time::millis(1500), bottleneck, 300)
        .link_flap(time::secs(2), time::millis(2300), bottleneck);
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::secs(6)));

    let counters = sim.fault_counters();
    // A flap takes both directions of the full-duplex link down.
    assert_eq!(counters.link_downs, 2);
    assert!(counters.link_down_drops > 0, "the flap black-holed frames");
    assert!(counters.corrupted > 0, "the corruption window fired");

    let sender = sim.host_app::<RcpStarSender>(bell.senders[0]);
    assert!(
        sender.probe_stats().timeouts > 0,
        "probes died during the flap and were detected"
    );
    let late = mean_rate_in_window(&sender.rate_trace, time::millis(4500), time::secs(6));
    let r_over_c = late / C_BPS;
    assert!(
        (r_over_c - 1.0).abs() < 0.1,
        "flow should re-converge to the fair rate, got R/C = {r_over_c}"
    );
}

/// Scenario 2: three linearizable writers increment a shared counter
/// while their access links lose, reorder, and duplicate frames in both
/// directions. Every increment must apply exactly once.
#[test]
fn cstore_counter_exact_under_loss_reorder_duplication() {
    for_each_shard_row(check_cstore_counter);
}

fn check_cstore_counter(config: SimConfig) {
    const GOAL: u32 = 15;
    const WORD: usize = 4;
    let n = 3;
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..n)
        .map(|i| {
            let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
            (
                Box::new(CounterTask::new(
                    dst,
                    1, // dumbbell left switch
                    WORD,
                    GOAL,
                    CounterWriteMode::Linearizable,
                )) as Box<dyn HostApp>,
                Box::new(EchoReceiver::default()) as Box<dyn HostApp>,
            )
        })
        .collect();
    let (mut sim, bell) = dumbbell_with(
        config,
        DumbbellParams {
            bottleneck_kbps: 100_000,
            ..Default::default()
        },
        apps,
    );

    // Persistent 8% loss on every host access link: probes die on the
    // way out, echoes die on the way back.
    let mut plan = FaultPlan::new(0xc4a0_5002);
    for h in bell.senders.iter().chain(&bell.receivers) {
        let ep = Endpoint::host(*h);
        assert_eq!(sim.set_link_loss(ep, 80), 80);
        // One combined window per endpoint: a later SetChannel replaces
        // the profile, so duplication + reordering must ride together.
        plan.channel_window(
            time::micros(1),
            time::secs(10),
            ep,
            ChannelProfile {
                duplicate_permille: 200,
                reorder_permille: 300,
                reorder_spread_ns: time::millis(2),
                ..ChannelProfile::default()
            },
        );
    }
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::secs(30)));

    let counters = sim.fault_counters();
    assert!(counters.duplicated > 0, "duplication window fired");
    assert!(counters.reordered > 0, "reorder window fired");

    let mut retries = 0;
    let mut dedup = 0;
    for s in &bell.senders {
        let task = sim.host_app::<CounterTask>(*s);
        assert!(task.done(), "writer did not finish under chaos");
        assert_eq!(task.completed, GOAL);
        retries += task.probe_stats().retries;
        dedup += task.probe_stats().duplicates;
    }
    assert!(retries > 0, "loss forced retries");
    assert!(dedup > 0, "duplicated echoes were suppressed");

    let value = sim.switch(bell.left).global_sram().word(WORD).unwrap();
    assert_eq!(
        value,
        n as u32 * GOAL,
        "increments must be exactly-once under loss+reorder+duplication"
    );
}

/// Scenario 3: the bottleneck switch reboots mid-run. SRAM (including
/// the RCP rate register) is wiped and `Switch:BootEpoch` bumps; the
/// host detects the epoch change, re-seeds its cached view, and the
/// flow re-converges. Nothing panics.
#[test]
fn switch_reboot_detected_and_reseeded() {
    for_each_shard_row(check_reboot_reseed);
}

fn check_reboot_reseed(config: SimConfig) {
    let (mut sim, bell) = rcp_dumbbell(&config, Default::default(), &[RcpStarConfig::default()]);
    let sink = sim.observe().trace_all(1 << 20);
    let mut plan = FaultPlan::new(0xc4a0_5003);
    plan.switch_reboot(time::secs(2), bell.left);
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::secs(6)));

    assert_eq!(sim.fault_counters().reboots, 1);
    assert_eq!(sim.boot_epoch(bell.left), 1, "epoch bumped by the reboot");
    assert_eq!(
        sim.boot_epoch(bell.right),
        0,
        "only the left switch rebooted"
    );

    let reboots: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SwitchReboot { epoch: 1 }))
        .collect();
    assert_eq!(reboots.len(), 1, "reboot traced exactly once");

    let sender = sim.host_app::<RcpStarSender>(bell.senders[0]);
    assert!(
        sender.probe_stats().epoch_mismatches >= 1,
        "host observed the epoch change"
    );
    // The wiped rate register was re-seeded by the host's control loop.
    let reg = sim
        .switch(bell.left)
        .link_sram(bell.bottleneck_port)
        .and_then(|s| s.word(RCP_RATE_REGISTER.word_index()))
        .unwrap();
    assert!(reg > 0, "rate register re-seeded after the wipe");
    let late = mean_rate_in_window(&sender.rate_trace, time::millis(4500), time::secs(6));
    let r_over_c = late / C_BPS;
    assert!(
        (r_over_c - 1.0).abs() < 0.1,
        "flow should re-converge after the reboot, got R/C = {r_over_c}"
    );
}

fn chaotic_run(config: &SimConfig, seed: u64) -> (Vec<String>, FaultCounters) {
    let (mut sim, bell) = rcp_dumbbell(config, Default::default(), &[RcpStarConfig::default(); 2]);
    let sink = sim.observe().trace_all(1 << 20);
    let host0 = Endpoint::host(bell.senders[0]);
    let bottleneck = Endpoint::switch(bell.left, bell.bottleneck_port);
    let mut plan = FaultPlan::new(seed);
    plan.duplicate_window(time::millis(200), time::secs(2), host0, 300)
        .reorder_window(
            time::millis(200),
            time::secs(2),
            bottleneck,
            300,
            time::millis(1),
        )
        .corrupt_window(time::secs(1), time::secs(2), bottleneck, 200)
        .link_flap(time::millis(2500), time::millis(2700), host0)
        .switch_reboot(time::secs(3), bell.right);
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::secs(4)));
    let rows = sink.events().iter().map(|e| e.to_json()).collect();
    (rows, sim.fault_counters())
}

/// Scenario 4a: identical plans replay identically — same seed, same
/// schedule, byte-identical trace event sequence.
#[test]
fn identical_fault_plans_replay_byte_identically() {
    for_each_shard_row(check_fault_plan_replay);
}

fn check_fault_plan_replay(config: SimConfig) {
    let (rows_a, counters_a) = chaotic_run(&config, 0xdead_beef);
    let (rows_b, counters_b) = chaotic_run(&config, 0xdead_beef);
    assert!(!rows_a.is_empty());
    assert_eq!(counters_a, counters_b);
    assert_eq!(rows_a, rows_b, "same seed must replay identically");

    // A different seed rolls different per-frame dice.
    let (_, counters_c) = chaotic_run(&config, 0x0bad_cafe);
    assert_ne!(
        (
            counters_a.duplicated,
            counters_a.corrupted,
            counters_a.reordered
        ),
        (
            counters_c.duplicated,
            counters_c.corrupted,
            counters_c.reordered
        ),
        "different seed, different chaos"
    );
}

/// One closed-loop fat-tree run under combined chaos: persistent loss on
/// the edge uplinks, an uplink flap while flows are in flight, and an
/// aggregation-switch reboot. Returns every flow's (key, FCT), the
/// recovery counters, and the fault counters.
fn closed_loop_chaos_run(
    config: &SimConfig,
    seed: u64,
) -> (Vec<(u64, u64)>, [u64; 5], FaultCounters) {
    let params = FatTreeParams::default(); // k=4: 16 hosts, 20 switches
    let n_hosts = params.n_hosts();
    let traffic = TrafficConfig {
        seed,
        flows_per_host: 12,
        mean_gap_ns: 400_000,
        ..Default::default()
    };
    let config = config.clone().ecmp(true).tick_interval_ns(time::millis(1));
    let (mut sim, tree, flows_total, last_start) = closed_loop_fat_tree(config, params, &traffic);
    let uplinks = tree.edge_uplinks();
    for &from in &uplinks {
        sim.set_link_loss(from, 10);
    }

    // An uplink flaps while flows are in flight (ECMP routes around it)
    // and an aggregation switch reboots, wiping its SRAM and bumping
    // its boot epoch mid-conversation.
    let mut plan = FaultPlan::new(seed ^ 0xc4a0_5005);
    plan.link_flap(time::millis(1), time::millis(3), uplinks[0])
        .switch_reboot(time::millis(2), tree.aggs[0][0]);
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(last_start + time::millis(50)));

    let mut fcts = Vec::with_capacity(flows_total as usize);
    let mut counters = [0u64; 5];
    for i in 0..n_hosts {
        let app = sim.host_app::<ClosedFlowGenApp>(HostId(i));
        fcts.extend(app.completions.iter().map(|c| (c.key, c.fct_ns)));
        let stats = app.stats_snapshot();
        counters[0] += stats.flows_completed;
        counters[1] += stats.retransmits;
        counters[2] += stats.flows_given_up;
        counters[3] += app.unfinished() as u64;
        counters[4] += stats.epoch_resets;
    }
    fcts.sort_unstable();
    assert_eq!(counters[0], flows_total, "every flow completes under chaos");
    assert_eq!(counters[2], 0, "no flow exhausts its retry budget");
    assert_eq!(counters[3], 0, "no flow left dangling at drain");
    (fcts, counters, sim.fault_counters())
}

/// Scenario 5: closed-loop transport flows all complete across an
/// uplink flap plus an aggregation-switch reboot under persistent edge
/// loss — recovery is retransmit-driven and epoch-aware — and the whole
/// run replays byte-identically from the same seed.
#[test]
fn closed_loop_flows_survive_flap_and_reboot_and_replay_identically() {
    for_each_shard_row(check_closed_loop_chaos);
}

fn check_closed_loop_chaos(config: SimConfig) {
    let (fcts_a, counters_a, faults_a) = closed_loop_chaos_run(&config, 0xc4a0_5006);
    assert!(counters_a[1] > 0, "edge loss forced retransmits");
    assert!(counters_a[4] > 0, "the reboot's epoch bump reached senders");
    assert_eq!(faults_a.link_downs, 2, "one full-duplex flap");
    assert_eq!(faults_a.reboots, 1);

    let (fcts_b, counters_b, faults_b) = closed_loop_chaos_run(&config, 0xc4a0_5006);
    assert_eq!(fcts_a, fcts_b, "per-flow FCTs replay byte-identically");
    assert_eq!(counters_a, counters_b);
    assert_eq!(faults_a, faults_b);
}

/// Scenario 4b: without an installed plan nothing is injected — the
/// fault layer is invisible to fault-free runs.
#[test]
fn plan_free_runs_inject_nothing() {
    for_each_shard_row(check_plan_free_run);
}

fn check_plan_free_run(config: SimConfig) {
    let (mut sim, _bell) = rcp_dumbbell(&config, Default::default(), &[RcpStarConfig::default()]);
    let sink = sim.observe().trace_all(1 << 20);
    sim.run(RunLimit::Until(time::secs(1)));
    assert_eq!(sim.fault_counters(), FaultCounters::default());
    assert!(
        sink.events().iter().all(|e| !matches!(
            e.kind,
            TraceEventKind::LinkDown { .. }
                | TraceEventKind::LinkUp { .. }
                | TraceEventKind::SwitchReboot { .. }
                | TraceEventKind::CorruptionInjected { .. }
        )),
        "no fault events without a plan"
    );
}

//! Integration tests: frames and TPPs traversing real multi-hop
//! topologies, timing, and determinism, on every row of the shard
//! matrix.
#![allow(clippy::field_reassign_with_default)]

use tpp_asic::PortId;
use tpp_isa::assemble;
use tpp_netsim::RunLimit;
use tpp_netsim::{
    dumbbell_with, for_each_shard_row, leaf_spine_with, linear_chain_with, time, DumbbellParams,
    HostApp, HostCtx, LeafSpineParams, LinearChainParams, SimConfig,
};
use tpp_wire::ethernet::{build_frame, EtherType, Frame};
use tpp_wire::tpp::{AddressingMode, TppBuilder, TppPacket};
use tpp_wire::EthernetAddress;

/// Sends one TPP to a destination MAC at t = start_ns.
struct TppSender {
    dst: EthernetAddress,
    program: String,
    mem_words: usize,
    start_ns: u64,
}

impl HostApp for TppSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, 0);
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        let program = assemble(&self.program).unwrap();
        let payload = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(self.mem_words)
            .build();
        ctx.send(build_frame(self.dst, ctx.mac(), EtherType::TPP, &payload));
    }
}

/// Records every TPP it receives: (arrival time, stack words, hop count).
#[derive(Default)]
struct TppCollector {
    received: Vec<(u64, Vec<u32>, u8)>,
}

impl HostApp for TppCollector {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        if !parsed.is_tpp() {
            return;
        }
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        self.received
            .push((ctx.now(), tpp.stack_words(), tpp.hop()));
    }
}

/// No-op app for hosts that only exist as traffic sinks.
struct Idle;
impl HostApp for Idle {}

#[test]
fn figure1_queue_walk_across_chain() {
    for_each_shard_row(check_figure1_queue_walk_across_chain);
}

fn check_figure1_queue_walk_across_chain(config: SimConfig) {
    // Figure 1: a PUSH [Queue:QueueSize] TPP walks a 3-switch path and
    // returns one queue sample per hop; on an idle network all three
    // samples are zero and the hop count is 3.
    let dst = EthernetAddress::from_host_id(1); // right host is id 1
    let (mut sim, chain) = linear_chain_with(
        config,
        LinearChainParams::default(),
        Box::new(TppSender {
            dst,
            program: "PUSH [Queue:QueueSize]".into(),
            mem_words: 3,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    sim.run(RunLimit::Until(time::millis(1)));
    let collector = sim.host_app::<TppCollector>(chain.right);
    assert_eq!(collector.received.len(), 1);
    let (_, words, hop) = &collector.received[0];
    assert_eq!(*hop, 3, "executed once per switch");
    assert_eq!(words, &vec![0, 0, 0], "idle network, empty queues");
}

#[test]
fn switch_ids_recorded_in_path_order() {
    for_each_shard_row(check_switch_ids_recorded_in_path_order);
}

fn check_switch_ids_recorded_in_path_order(config: SimConfig) {
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain_with(
        config,
        LinearChainParams {
            n_switches: 5,
            ..Default::default()
        },
        Box::new(TppSender {
            dst,
            program: "PUSH [Switch:SwitchID]".into(),
            mem_words: 5,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    sim.run(RunLimit::Until(time::millis(1)));
    let collector = sim.host_app::<TppCollector>(chain.right);
    assert_eq!(collector.received[0].1, vec![1, 2, 3, 4, 5]);
}

#[test]
fn arrival_time_accounts_for_serialization_and_propagation() {
    for_each_shard_row(check_arrival_time_accounts_for_serialization_and_propagation);
}

fn check_arrival_time_accounts_for_serialization_and_propagation(config: SimConfig) {
    // One 10 Mb/s chain of 1 switch: frame of known size, so arrival time
    // is exactly 2 serializations (host NIC + switch egress) + 2
    // propagation delays (no queueing).
    let params = LinearChainParams {
        n_switches: 1,
        link_kbps: 10_000,
        host_nic_kbps: 10_000,
        delay_ns: time::micros(10),
        ..Default::default()
    };
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain_with(
        config,
        params,
        Box::new(TppSender {
            dst,
            program: "PUSH [Queue:QueueSize]".into(),
            mem_words: 1,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    sim.run(RunLimit::Until(time::millis(10)));
    let collector = sim.host_app::<TppCollector>(chain.right);
    let (arrival, _, _) = collector.received[0];
    // Frame: 14 (eth) + 16 (tpp hdr) + 4 (1 insn) + 4 (1 word) = 38 bytes.
    let ser = time::tx_time_ns(38, 10_000);
    assert_eq!(arrival, 2 * ser + 2 * time::micros(10));
}

#[test]
fn queue_builds_at_dumbbell_bottleneck_and_tpp_sees_it() {
    for_each_shard_row(check_queue_builds_at_dumbbell_bottleneck_and_tpp_sees_it);
}

fn check_queue_builds_at_dumbbell_bottleneck_and_tpp_sees_it(config: SimConfig) {
    // Fill the bottleneck with bulk traffic from pair 0, then probe with
    // a TPP from pair 1: the probe's queue sample must be nonzero.
    struct Bulk {
        dst: EthernetAddress,
    }
    impl HostApp for Bulk {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            // 20 frames of 1 KB arrive at the edge much faster than the
            // 10 Mb/s bottleneck drains them.
            for _ in 0..20 {
                ctx.send(build_frame(
                    self.dst,
                    ctx.mac(),
                    EtherType(0x0800),
                    &[0u8; 1000],
                ));
            }
        }
    }

    // Receiver MACs: hosts are added sender,receiver per pair, so
    // receiver of pair i has host id 2i + 1.
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (
            Box::new(Bulk {
                dst: EthernetAddress::from_host_id(1),
            }),
            Box::new(Idle),
        ),
        (
            Box::new(TppSender {
                dst: EthernetAddress::from_host_id(3),
                program: "PUSH [Queue:QueueSize]".into(),
                mem_words: 2,
                start_ns: time::millis(2),
            }),
            Box::new(TppCollector::default()),
        ),
    ];
    let (mut sim, bell) = dumbbell_with(config, DumbbellParams::default(), apps);
    sim.run(RunLimit::Until(time::millis(4)));
    // Ground truth: the bottleneck queue really is backlogged.
    assert!(
        sim.switch(bell.left)
            .queue_len_bytes(bell.bottleneck_port, 0)
            > 0
            || sim
                .switch(bell.left)
                .queue_stats(bell.bottleneck_port, 0)
                .bytes_enqueued
                > 0
    );
    sim.run(RunLimit::Until(time::millis(50)));
    let collector = sim.host_app::<TppCollector>(bell.receivers[1]);
    assert_eq!(collector.received.len(), 1);
    let (_, words, _) = &collector.received[0];
    // Hop 1 = left switch (bottleneck egress): nonzero queue sample.
    assert!(
        words[0] > 0,
        "TPP should have seen bottleneck backlog, got {words:?}"
    );
}

#[test]
fn leaf_spine_cross_rack_path_is_three_switches() {
    for_each_shard_row(check_leaf_spine_cross_rack_path_is_three_switches);
}

fn check_leaf_spine_cross_rack_path_is_three_switches(config: SimConfig) {
    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 2,
        hosts_per_leaf: 2,
        ..Default::default()
    };
    // Hosts: leaf0 gets ids 0,1; leaf1 gets ids 2,3. Send 0 -> 3.
    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(TppSender {
            dst: EthernetAddress::from_host_id(3),
            program: "PUSH [Switch:SwitchID]".into(),
            mem_words: 4,
            start_ns: 0,
        }),
        Box::new(Idle),
        Box::new(Idle),
        Box::new(TppCollector::default()),
    ];
    let (mut sim, fabric) = leaf_spine_with(config, params, apps);
    sim.run(RunLimit::Until(time::millis(1)));
    let collector = sim.host_app::<TppCollector>(fabric.hosts[1][1]);
    assert_eq!(collector.received.len(), 1);
    let (_, words, hop) = &collector.received[0];
    assert_eq!(*hop, 3, "leaf -> spine -> leaf");
    assert_eq!(words[0], 0x10, "source leaf");
    assert!(words[1] == 0x20 || words[1] == 0x21, "a spine");
    assert_eq!(words[2], 0x11, "destination leaf");
}

#[test]
fn intra_rack_path_stays_on_one_switch() {
    for_each_shard_row(check_intra_rack_path_stays_on_one_switch);
}

fn check_intra_rack_path_stays_on_one_switch(config: SimConfig) {
    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 1,
        hosts_per_leaf: 2,
        ..Default::default()
    };
    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(TppSender {
            dst: EthernetAddress::from_host_id(1),
            program: "PUSH [Switch:SwitchID]".into(),
            mem_words: 4,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
        Box::new(Idle),
        Box::new(Idle),
    ];
    let (mut sim, fabric) = leaf_spine_with(config, params, apps);
    sim.run(RunLimit::Until(time::millis(1)));
    let collector = sim.host_app::<TppCollector>(fabric.hosts[0][1]);
    assert_eq!(collector.received[0].1, vec![0x10]);
}

#[test]
fn simulation_is_deterministic() {
    for_each_shard_row(check_simulation_is_deterministic);
}

fn check_simulation_is_deterministic(config: SimConfig) {
    // Two identical runs produce identical telemetry, byte counters and
    // event timings.
    type RunResult = (Vec<(u64, Vec<u32>, u8)>, u64, u64);
    fn run(config: SimConfig) -> RunResult {
        let dst = EthernetAddress::from_host_id(1);
        let (mut sim, chain) = linear_chain_with(
            config,
            LinearChainParams {
                n_switches: 4,
                ..Default::default()
            },
            Box::new(TppSender {
                dst,
                program: "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]".into(),
                mem_words: 8,
                start_ns: 123,
            }),
            Box::new(TppCollector::default()),
        );
        sim.run(RunLimit::Until(time::millis(5)));
        let received = sim.host_app::<TppCollector>(chain.right).received.clone();
        let tx = sim.switch(chain.switches[0]).port_stats(1).tx_bytes;
        let processed = sim.switch(chain.switches[3]).regs().packets_processed;
        (received, tx, processed)
    }
    assert_eq!(run(config.clone()), run(config));
}

#[test]
fn timers_fire_in_order_and_at_the_right_time() {
    for_each_shard_row(check_timers_fire_in_order_and_at_the_right_time);
}

fn check_timers_fire_in_order_and_at_the_right_time(config: SimConfig) {
    #[derive(Default)]
    struct TimerApp {
        fired: Vec<(u64, u64)>,
    }
    impl HostApp for TimerApp {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(300, 3);
            ctx.set_timer(100, 1);
            ctx.set_timer(200, 2);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
            self.fired.push((ctx.now(), token));
        }
    }
    let (mut sim, chain) = linear_chain_with(
        config,
        LinearChainParams::default(),
        Box::new(TimerApp::default()),
        Box::new(Idle),
    );
    sim.run(RunLimit::Until(time::millis(1)));
    let app = sim.host_app::<TimerApp>(chain.left);
    assert_eq!(app.fired, vec![(100, 1), (200, 2), (300, 3)]);
}

/// A panic on one threaded shard fails the run: its peer, waiting for
/// it in the window reduction, must give up instead of waiting forever.
#[test]
#[should_panic(expected = "a scoped thread panicked")]
fn a_panic_on_one_threaded_shard_fails_the_run() {
    struct Bomb;
    impl HostApp for Bomb {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(time::micros(50), 0);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut HostCtx<'_>) {
            panic!("boom");
        }
    }
    let (mut sim, _) = linear_chain_with(
        SimConfig::new().shards(2),
        LinearChainParams::default(),
        Box::new(Bomb),
        Box::new(Idle),
    );
    assert_eq!(sim.num_shards(), 2);
    sim.run(RunLimit::Until(time::millis(1)));
}

#[test]
fn utilization_register_reflects_offered_load() {
    for_each_shard_row(check_utilization_register_reflects_offered_load);
}

fn check_utilization_register_reflects_offered_load(config: SimConfig) {
    // Saturate the bottleneck for 200 ms, then read RX-Utilization from
    // ground truth: it should be near 1000 per-mille.
    struct Flood {
        dst: EthernetAddress,
    }
    impl HostApp for Flood {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(0, 0);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            ctx.send(build_frame(
                self.dst,
                ctx.mac(),
                EtherType(0x0800),
                &[0u8; 1000],
            ));
            ctx.set_timer(time::micros(100), 0); // ~80 Mb/s offered
        }
    }
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![(
        Box::new(Flood {
            dst: EthernetAddress::from_host_id(1),
        }),
        Box::new(Idle),
    )];
    let (mut sim, bell) = dumbbell_with(config, DumbbellParams::default(), apps);
    sim.run(RunLimit::Until(time::millis(200)));
    let util = sim
        .switch(bell.left)
        .port_stats(bell.bottleneck_port)
        .rx_utilization_permille;
    // Offered load far exceeds capacity; the register saturates >= 1000.
    assert!(util >= 900, "expected near-saturation, got {util}");
}

#[test]
fn tpp_frames_share_fate_with_congestion() {
    for_each_shard_row(check_tpp_frames_share_fate_with_congestion);
}

fn check_tpp_frames_share_fate_with_congestion(config: SimConfig) {
    // TPPs "are forwarded just like other packets; TPPs are therefore
    // subject to congestion" (§3.3): with a tiny bottleneck queue and a
    // flood, some probes must be dropped.
    struct FloodAndProbe {
        dst: EthernetAddress,
        sent_probes: u32,
    }
    impl HostApp for FloodAndProbe {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(0, 0);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            ctx.send(build_frame(
                self.dst,
                ctx.mac(),
                EtherType(0x0800),
                &[0u8; 1200],
            ));
            let program = assemble("PUSH [Queue:QueueSize]").unwrap();
            let payload = TppBuilder::new(AddressingMode::Stack)
                .instructions(&program.encode_words().unwrap())
                .memory_words(2)
                .build();
            ctx.send(build_frame(self.dst, ctx.mac(), EtherType::TPP, &payload));
            self.sent_probes += 1;
            ctx.set_timer(time::micros(200), 0);
        }
    }
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![(
        Box::new(FloodAndProbe {
            dst: EthernetAddress::from_host_id(1),
            sent_probes: 0,
        }),
        Box::new(TppCollector::default()),
    )];
    let (mut sim, bell) = dumbbell_with(
        config,
        DumbbellParams {
            queue_limit_bytes: 4_000,
            ..Default::default()
        },
        apps,
    );
    sim.run(RunLimit::Until(time::millis(300)));
    let sent = sim.host_app::<FloodAndProbe>(bell.senders[0]).sent_probes;
    let got = sim
        .host_app::<TppCollector>(bell.receivers[0])
        .received
        .len() as u32;
    assert!(got < sent, "congestion must cost some TPPs ({got}/{sent})");
    assert!(got > 0, "but not all of them");
    let drops = sim
        .switch(bell.left)
        .queue_stats(bell.bottleneck_port, 0)
        .packets_dropped;
    assert!(drops > 0);
}

/// PortId sanity: topology helpers hand out ports that exist.
#[test]
fn dumbbell_bottleneck_port_is_last() {
    for_each_shard_row(check_dumbbell_bottleneck_port_is_last);
}

fn check_dumbbell_bottleneck_port_is_last(config: SimConfig) {
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (Box::new(Idle), Box::new(Idle)),
        (Box::new(Idle), Box::new(Idle)),
    ];
    let (sim, bell) = dumbbell_with(config, DumbbellParams::default(), apps);
    assert_eq!(bell.bottleneck_port, 2 as PortId);
    assert_eq!(sim.switch(bell.left).num_ports(), 3);
    assert_eq!(
        sim.switch(bell.left)
            .port_capacity_kbps(bell.bottleneck_port),
        10_000
    );
}

#[test]
fn taps_capture_both_directions_with_hop_counts() {
    for_each_shard_row(check_taps_capture_both_directions_with_hop_counts);
}

fn check_taps_capture_both_directions_with_hop_counts(config: SimConfig) {
    use tpp_netsim::{Endpoint, TapDir};
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain_with(
        config.clone(),
        LinearChainParams {
            n_switches: 2,
            ..Default::default()
        },
        Box::new(TppSender {
            dst,
            program: "PUSH [Switch:SwitchID]".into(),
            mem_words: 2,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    // Tap the inter-switch link on switch 0's side.
    sim.observe().tap(Endpoint::switch(chain.switches[0], 1));
    sim.run(RunLimit::Until(time::millis(1)));
    let records = sim.tap_records(Endpoint::switch(chain.switches[0], 1));
    // One TPP transits the tap exactly once (Tx from switch 0).
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!(r.dir, TapDir::Tx);
    assert_eq!(r.ethertype, tpp_wire::tpp::ETHERTYPE_TPP);
    assert_eq!(r.tpp_hop, Some(1), "already executed on switch 1");
    assert_eq!(r.dst, dst);
    // Untapped endpoints return nothing.
    assert!(sim
        .tap_records(Endpoint::switch(chain.switches[1], 1))
        .is_empty());

    // Host-side tap sees Rx at the collector.
    let (mut sim2, chain2) = linear_chain_with(
        config,
        LinearChainParams {
            n_switches: 2,
            ..Default::default()
        },
        Box::new(TppSender {
            dst,
            program: "PUSH [Switch:SwitchID]".into(),
            mem_words: 2,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    sim2.observe().tap(Endpoint::host(chain2.right));
    sim2.run(RunLimit::Until(time::millis(1)));
    let records = sim2.tap_records(Endpoint::host(chain2.right));
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].dir, TapDir::Rx);
    assert_eq!(records[0].tpp_hop, Some(2), "fully executed at delivery");
}

/// A quiescent run stops at the first stats tick (1 ms apart by
/// default) that finds nothing pending anywhere, and the clock reads
/// that tick, at one shard and at two threaded ones.
#[test]
fn quiescent_run_stops_when_traffic_drains() {
    // (probe send time, or none at all; probes delivered; stop instant)
    let inputs = [
        (Some(0), 1, time::millis(1)),
        (Some(time::micros(2_500)), 1, time::millis(3)),
        (None, 0, time::millis(1)),
    ];
    for shards in [1, 2] {
        for (start_ns, delivered, stop_ns) in inputs {
            let left: Box<dyn HostApp> = match start_ns {
                Some(start_ns) => Box::new(TppSender {
                    dst: EthernetAddress::from_host_id(1),
                    program: "PUSH [Queue:QueueSize]".into(),
                    mem_words: 3,
                    start_ns,
                }),
                None => Box::new(Idle),
            };
            let (mut sim, chain) = linear_chain_with(
                SimConfig::new().shards(shards),
                LinearChainParams::default(),
                left,
                Box::new(TppCollector::default()),
            );
            assert_eq!(sim.num_shards(), shards);
            sim.run(RunLimit::Quiescent {
                limit_ns: time::secs(10),
            });
            let received = &sim.host_app::<TppCollector>(chain.right).received;
            assert_eq!(received.len(), delivered, "{shards} shards");
            assert_eq!(sim.now(), stop_ns, "{shards} shards");
        }
    }
}

#[test]
fn broadcast_and_unknown_destinations_blackhole() {
    for_each_shard_row(check_broadcast_and_unknown_destinations_blackhole);
}

fn check_broadcast_and_unknown_destinations_blackhole(config: SimConfig) {
    let (mut sim, chain) = linear_chain_with(
        config,
        LinearChainParams::default(),
        Box::new(TppSender {
            dst: EthernetAddress::BROADCAST,
            program: "PUSH [Queue:QueueSize]".into(),
            mem_words: 3,
            start_ns: 0,
        }),
        Box::new(TppCollector::default()),
    );
    sim.run(RunLimit::Until(time::millis(5)));
    // No flooding in this L2 model: broadcast has no table entry.
    assert!(sim
        .host_app::<TppCollector>(chain.right)
        .received
        .is_empty());
    // The frame reached switch 0 and died there, visibly.
    assert_eq!(sim.switch(chain.switches[0]).regs().packets_processed, 1);
}

#[test]
fn fat_tree_paths_have_textbook_lengths() {
    for_each_shard_row(check_fat_tree_paths_have_textbook_lengths);
}

fn check_fat_tree_paths_have_textbook_lengths(config: SimConfig) {
    use tpp_netsim::{fat_tree_with, FatTreeParams};
    // k = 4: 16 hosts, 4 pods x (2 edge + 2 agg) + 4 cores.
    let k = 4;
    let n_hosts = k * k * k / 4;
    // Host ids are assigned in (pod, edge, index) order; host 0 probes
    // three destinations at increasing distance.
    // Host ids are pod-major: pod p, edge e, index h -> p*4 + e*2 + h
    // (k = 4). Three sender/collector pairs at increasing distance:
    //   0 -> 1  same edge;  4 -> 6  same pod, other edge;  8 -> 15
    //   across pods.
    let mut apps: Vec<Box<dyn HostApp>> = Vec::new();
    for i in 0..n_hosts {
        let sender = |dst: u32| -> Box<dyn HostApp> {
            Box::new(TppSender {
                dst: EthernetAddress::from_host_id(dst),
                program: "PUSH [Switch:SwitchID]".into(),
                mem_words: 8,
                start_ns: 0,
            })
        };
        let app: Box<dyn HostApp> = match i {
            0 => sender(1),
            4 => sender(6),
            8 => sender(15),
            1 | 6 | 15 => Box::new(TppCollector::default()),
            _ => Box::new(Idle),
        };
        apps.push(app);
    }
    let (mut sim, tree) = fat_tree_with(
        config,
        FatTreeParams {
            k,
            ..Default::default()
        },
        apps,
    );
    assert_eq!(tree.cores.len(), 4);
    sim.run(RunLimit::Until(time::millis(1)));

    // Same edge: 1 switch.
    let same_edge = &sim.host_app::<TppCollector>(tree.hosts[0][0][1]).received;
    assert_eq!(same_edge[0].2, 1, "intra-edge path");
    // Same pod, different edge: edge -> agg -> edge = 3 switches.
    let same_pod = &sim.host_app::<TppCollector>(tree.hosts[1][1][0]).received;
    assert_eq!(same_pod[0].2, 3, "intra-pod path");
    let ids = &same_pod[0].1;
    assert!(ids[0] >= 0x100 && ids[0] < 0x200, "starts at an edge");
    assert!(ids[1] >= 0x200 && ids[1] < 0x300, "through an agg");
    assert!(ids[2] >= 0x100 && ids[2] < 0x200, "ends at an edge");
    // Different pod: edge -> agg -> core -> agg -> edge = 5 switches.
    let cross_pod = &sim.host_app::<TppCollector>(tree.hosts[3][1][1]).received;
    assert_eq!(cross_pod[0].2, 5, "inter-pod path");
    assert!(
        cross_pod[0].1[2] >= 0x300,
        "the middle hop is a core: {:x?}",
        cross_pod[0].1
    );
}

/// Sends one plain frame to `dst` out of NIC `port` at start.
struct SendOnce {
    dst: EthernetAddress,
    port: PortId,
}

impl HostApp for SendOnce {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let frame = build_frame(self.dst, ctx.mac(), EtherType(0x0800), &[7; 46]);
        ctx.send_on(self.port, frame);
    }
}

/// Counts delivered frames.
#[derive(Default)]
struct Counter {
    got: u64,
}

impl HostApp for Counter {
    fn on_frame(&mut self, _frame: Vec<u8>, _ctx: &mut HostCtx<'_>) {
        self.got += 1;
    }
}

/// A sender and a receiver on switch ports 0 and 1 of a 3-port switch
/// whose port 2 is unwired; the sender has `sender_nics` NICs, NIC 0
/// wired.
fn unwired_port_net(
    config: SimConfig,
    sender: SendOnce,
    sender_nics: u16,
) -> (
    tpp_netsim::Simulator,
    tpp_netsim::SwitchId,
    tpp_netsim::HostId,
) {
    use tpp_asic::AsicConfig;
    use tpp_netsim::{Endpoint, NetworkBuilder};
    let mut net = NetworkBuilder::with_config(config);
    let s = net.add_switch(AsicConfig::with_ports(0x10, 3));
    let tx = net.add_host_multi(Box::new(sender), 1_000_000, sender_nics);
    let rx = net.add_host(Box::new(Counter::default()), 1_000_000);
    net.connect(Endpoint::host(tx), Endpoint::switch(s, 0), 1_000);
    net.connect(Endpoint::host(rx), Endpoint::switch(s, 1), 1_000);
    let mut sim = net.build();
    sim.populate_l2();
    (sim, s, rx)
}

#[test]
fn frames_on_an_unwired_nic_are_recycled_without_link_free() {
    for_each_shard_row(check_frames_on_an_unwired_nic_are_recycled_without_link_free);
}

fn check_frames_on_an_unwired_nic_are_recycled_without_link_free(config: SimConfig) {
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, _, rx) = unwired_port_net(config, SendOnce { dst, port: 1 }, 2);
    sim.run(RunLimit::Until(time::millis(1)));
    assert_eq!(sim.frame_pool_stats().2, 1, "the frame is recycled");
    assert_eq!(sim.host_app::<Counter>(rx).got, 0);
    assert_eq!(sim.events_processed(), 0, "no LinkFree, no arrival");
}

#[test]
fn a_frame_refused_at_a_full_queue_is_recycled() {
    for_each_shard_row(check_a_frame_refused_at_a_full_queue_is_recycled);
}

fn check_a_frame_refused_at_a_full_queue_is_recycled(config: SimConfig) {
    use tpp_asic::AsicConfig;
    use tpp_netsim::{Endpoint, NetworkBuilder};
    let dst = EthernetAddress::from_host_id(1);
    let mut net = NetworkBuilder::with_config(config);
    // A queue smaller than the one 60-byte frame: the MMU refuses it.
    let mut switch = AsicConfig::with_ports(0x10, 2);
    switch.ports[1].queue_limit_bytes = 32;
    let s = net.add_switch(switch);
    let tx = net.add_host(Box::new(SendOnce { dst, port: 0 }), 1_000_000);
    let rx = net.add_host(Box::new(Counter::default()), 1_000_000);
    net.connect(Endpoint::host(tx), Endpoint::switch(s, 0), 1_000);
    net.connect(Endpoint::host(rx), Endpoint::switch(s, 1), 1_000);
    let mut sim = net.build();
    sim.populate_l2();
    sim.run(RunLimit::Until(time::millis(1)));
    assert_eq!(sim.switch(s).queue_stats(1, 0).packets_dropped, 1);
    assert_eq!(sim.host_app::<Counter>(rx).got, 0);
    assert_eq!(sim.frame_pool_stats().2, 1, "the dropped frame is recycled");
}

#[test]
fn frames_routed_to_an_unwired_switch_port_are_recycled_without_link_free() {
    for_each_shard_row(
        check_frames_routed_to_an_unwired_switch_port_are_recycled_without_link_free,
    );
}

fn check_frames_routed_to_an_unwired_switch_port_are_recycled_without_link_free(config: SimConfig) {
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, s, rx) = unwired_port_net(config, SendOnce { dst, port: 0 }, 1);
    sim.switch_mut(s).l2_mut().insert(dst, 2);
    sim.run(RunLimit::Until(time::millis(1)));
    assert_eq!(sim.frame_pool_stats().2, 1, "the frame is recycled");
    assert_eq!(sim.host_app::<Counter>(rx).got, 0);
    assert_eq!(
        sim.switch(s).port_stats(2).tx_packets,
        1,
        "dequeued at port 2"
    );
    // The sender NIC's LinkFree and the switch arrival; none for port 2.
    assert_eq!(sim.events_processed(), 2);
}

/// Frames each sender puts on its NIC at start, the bytes of each on the
/// wire, and the bytes of each that are written (Ethernet plus a 24-byte
/// header, as the open-loop flow generator writes).
const TWIN_FRAMES: usize = 40;
const TWIN_LEN: usize = 1_500;
const TWIN_HEAD: usize = 38;

/// Sends [`TWIN_FRAMES`] numbered frames back to back at start: as a
/// head and a tail, or built whole.
struct TwinSender {
    dst: EthernetAddress,
    tailed: bool,
}

impl HostApp for TwinSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for i in 0..TWIN_FRAMES as u64 {
            let mut frame = ctx.alloc_frame(if self.tailed { TWIN_HEAD } else { TWIN_LEN });
            frame.resize(TWIN_HEAD, 0);
            let mut eth = Frame::new_unchecked(&mut frame[..]);
            eth.set_dst_addr(self.dst);
            eth.set_src_addr(ctx.mac());
            eth.set_ethertype(EtherType(0x0802));
            eth.payload_mut()[16..24].copy_from_slice(&i.to_be_bytes());
            if self.tailed {
                ctx.send_with_tail(0, frame, (TWIN_LEN - TWIN_HEAD) as u32);
            } else {
                frame.resize(TWIN_LEN, 0);
                ctx.send(frame);
            }
        }
    }
}

/// Records `(arrival time, frame number, bytes delivered)` per frame.
#[derive(Default)]
struct TwinReceiver {
    got: Vec<(u64, u64, usize)>,
}

impl HostApp for TwinReceiver {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let number = u64::from_be_bytes(frame[30..38].try_into().unwrap());
        self.got.push((ctx.now(), number, frame.len()));
        ctx.recycle_frame(frame);
    }
}

/// What one twin run shows from outside: arrivals, tap records, frames
/// per link direction, every port's and queue's registers, the fault
/// counters, and the left switch's queue bytes and held heap bytes at
/// the moment its bottleneck queue is full.
#[derive(Debug, PartialEq)]
struct TwinOutcome {
    arrivals: Vec<Vec<(u64, u64)>>,
    taps: Vec<Vec<tpp_netsim::TapRecord>>,
    tx_frames: Vec<u64>,
    registers: Vec<(tpp_asic::PortStats, tpp_asic::QueueStats)>,
    duplicated: u64,
    full_queue_bytes: u64,
}

/// Two senders into the 10 Mb/s dumbbell bottleneck (a 30 KB queue),
/// the bottleneck duplicating every other frame. Returns the outcome and
/// the bytes the left switch holds for its queued frames when the queue
/// is full: its heap then, less its heap once every queue has drained
/// (the queue rings keep their capacity, so the difference is the
/// queued frames' buffers).
fn twin_run(config: SimConfig, tailed: bool) -> (TwinOutcome, usize) {
    use tpp_netsim::{Endpoint, FaultPlan};
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..2u32)
        .map(|i| {
            let sender = TwinSender {
                dst: EthernetAddress::from_host_id(2 * i + 1),
                tailed,
            };
            let receiver = TwinReceiver::default();
            (
                Box::new(sender) as Box<dyn HostApp>,
                Box::new(receiver) as _,
            )
        })
        .collect();
    let params = DumbbellParams {
        queue_limit_bytes: 20 * TWIN_LEN as u32,
        ..Default::default()
    };
    let (mut sim, bell) = dumbbell_with(config, params, apps);
    let bottleneck = Endpoint::switch(bell.left, bell.bottleneck_port);
    let mut plan = FaultPlan::new(7);
    plan.duplicate_window(0, time::millis(100), bottleneck, 500);
    sim.install_faults(&plan);
    let tapped = [bottleneck, Endpoint::host(bell.receivers[0])];
    for at in tapped {
        sim.observe().tap(at);
    }
    sim.run(RunLimit::Until(time::millis(3)));
    let left = sim.switch(bell.left);
    let full_queue_bytes = left.queue_len_bytes(bell.bottleneck_port, 0);
    assert!(
        full_queue_bytes > (19 * TWIN_LEN) as u64,
        "{full_queue_bytes}"
    );
    assert!(left.queue_stats(bell.bottleneck_port, 0).packets_dropped > 0);
    let heap_full = left.approx_bytes();
    sim.run(RunLimit::Until(time::millis(200)));
    let held = heap_full - sim.switch(bell.left).approx_bytes();
    let switches = [bell.left, bell.right];
    let outcome = TwinOutcome {
        arrivals: bell
            .receivers
            .iter()
            .map(|&r| {
                let got = &sim.host_app::<TwinReceiver>(r).got;
                let head = if tailed { TWIN_HEAD } else { TWIN_LEN };
                assert!(got.iter().all(|&(.., len)| len == head));
                got.iter().map(|&(t, n, _)| (t, n)).collect()
            })
            .collect(),
        taps: tapped.map(|at| sim.tap_records(at).to_vec()).into(),
        tx_frames: (0..2)
            .flat_map(|i| {
                [
                    Endpoint::host(bell.senders[i]),
                    Endpoint::switch(bell.right, i as PortId),
                ]
            })
            .chain([bottleneck])
            .map(|at| sim.link_tx_frames(at))
            .collect(),
        registers: switches
            .iter()
            .flat_map(|&s| {
                let asic = sim.switch(s);
                (0..asic.num_ports() as PortId)
                    .map(move |p| (asic.port_stats(p).clone(), asic.queue_stats(p, 0).clone()))
            })
            .collect(),
        duplicated: sim.fault_counters().duplicated,
        full_queue_bytes,
    };
    (outcome, held)
}

#[test]
fn tailed_frames_travel_like_their_materialized_twins() {
    for_each_shard_row(check_tailed_frames_travel_like_their_materialized_twins);
}

fn check_tailed_frames_travel_like_their_materialized_twins(config: SimConfig) {
    let (tailed, held_tailed) = twin_run(config.clone(), true);
    let (whole, held_whole) = twin_run(config, false);
    assert!(tailed.duplicated > 0, "the fault duplicated frames");
    assert!(tailed.taps[0].iter().all(|r| r.len == TWIN_LEN));
    assert_eq!(tailed, whole);
    // The held-bytes guard: a tail is a count, not a buffer, so a full
    // queue of tailed frames holds a fraction of its wire bytes; built
    // whole, it holds at least all of them.
    let queued = tailed.full_queue_bytes as usize;
    assert!(
        held_tailed * 4 <= queued,
        "{held_tailed} held for {queued} queued"
    );
    assert!(
        held_whole >= queued,
        "{held_whole} held for {queued} queued"
    );
}

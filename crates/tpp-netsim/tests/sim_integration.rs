//! Integration tests: frames and TPPs traversing real multi-hop
//! topologies, timing, and determinism.
#![allow(clippy::field_reassign_with_default)]

use tpp_asic::PortId;
use tpp_isa::assemble;
use tpp_netsim::RunLimit;
use tpp_netsim::{
    dumbbell, leaf_spine, linear_chain, linear_chain_with, time, DumbbellParams, HostApp, HostCtx,
    LeafSpineParams, LinearChainParams, SimConfig,
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
    // Figure 1: a PUSH [Queue:QueueSize] TPP walks a 3-switch path and
    // returns one queue sample per hop; on an idle network all three
    // samples are zero and the hop count is 3.
    let dst = EthernetAddress::from_host_id(1); // right host is id 1
    let (mut sim, chain) = linear_chain(
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
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain(
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
    let (mut sim, chain) = linear_chain(
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
    let (mut sim, bell) = dumbbell(
        DumbbellParams {
            n_pairs: 2,
            ..Default::default()
        },
        apps,
    );
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
    let (mut sim, fabric) = leaf_spine(params, apps);
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
    let (mut sim, fabric) = leaf_spine(params, apps);
    sim.run(RunLimit::Until(time::millis(1)));
    let collector = sim.host_app::<TppCollector>(fabric.hosts[0][1]);
    assert_eq!(collector.received[0].1, vec![0x10]);
}

#[test]
fn simulation_is_deterministic() {
    // Two identical runs produce identical telemetry, byte counters and
    // event timings.
    type RunResult = (Vec<(u64, Vec<u32>, u8)>, u64, u64);
    fn run() -> RunResult {
        let dst = EthernetAddress::from_host_id(1);
        let (mut sim, chain) = linear_chain(
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
    assert_eq!(run(), run());
}

#[test]
fn timers_fire_in_order_and_at_the_right_time() {
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
    let (mut sim, chain) = linear_chain(
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
    let (mut sim, bell) = dumbbell(
        DumbbellParams {
            n_pairs: 1,
            ..Default::default()
        },
        apps,
    );
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
    let (mut sim, bell) = dumbbell(
        DumbbellParams {
            n_pairs: 1,
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
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (Box::new(Idle), Box::new(Idle)),
        (Box::new(Idle), Box::new(Idle)),
    ];
    let (sim, bell) = dumbbell(
        DumbbellParams {
            n_pairs: 2,
            ..Default::default()
        },
        apps,
    );
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
    use tpp_netsim::{Endpoint, TapDir};
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain(
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
    let (mut sim2, chain2) = linear_chain(
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
    let (mut sim, chain) = linear_chain(
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
    use tpp_netsim::{fat_tree, FatTreeParams};
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
    let (mut sim, tree) = fat_tree(
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

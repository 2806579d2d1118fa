//! Multi-homed hosts and time-varying link profiles at the netsim
//! layer: NIC routing, per-NIC queue independence, and the composition
//! of static loss with profile-sampled loss, latency and rate, on every
//! row of the shard matrix.

use tpp::asic::AsicConfig;
use tpp::netsim::{
    for_each_shard_row, time, Endpoint, HostApp, HostCtx, Interp, LinkProfile, LinkState,
    NetworkBuilder, RunLimit, SimConfig,
};
use tpp::wire::ethernet::{build_frame, EtherType};
use tpp::wire::EthernetAddress;

/// Sends one tagged frame out of each NIC at start.
struct FanOut {
    dst: EthernetAddress,
    payload_len: usize,
}

impl HostApp for FanOut {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for port in 0..ctx.ports() {
            let frame = build_frame(
                self.dst,
                ctx.mac(),
                EtherType(0x0800),
                &vec![port as u8; self.payload_len],
            );
            ctx.send_on(port, frame);
        }
    }
}

/// Records `(arrival_port, first_payload_byte, t_ns)` per frame.
#[derive(Default)]
struct PortRecorder {
    got: Vec<(u16, u8, u64)>,
}

impl HostApp for PortRecorder {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let tag = frame.get(14).copied().unwrap_or(0xff);
        self.got.push((ctx.rx_port(), tag, ctx.now()));
    }
}

/// Two hosts on `config`, two disjoint one-switch paths: NIC p of each
/// host wires to switch p.
fn two_path_pair(
    config: SimConfig,
    sender: Box<dyn HostApp>,
    receiver: Box<dyn HostApp>,
) -> (
    tpp::netsim::Simulator,
    tpp::netsim::HostId,
    tpp::netsim::HostId,
) {
    let mut net = NetworkBuilder::with_config(config);
    let s0 = net.add_switch(AsicConfig::with_ports(0x10, 2));
    let s1 = net.add_switch(AsicConfig::with_ports(0x20, 2));
    let h0 = net.add_host_multi(sender, 1_000_000, 2);
    let h1 = net.add_host_multi(receiver, 1_000_000, 2);
    for (p, s) in [s0, s1].into_iter().enumerate() {
        net.connect(
            Endpoint::host_port(h0, p as u16),
            Endpoint::switch(s, 0),
            time::micros(5),
        );
        net.connect(
            Endpoint::host_port(h1, p as u16),
            Endpoint::switch(s, 1),
            time::micros(5),
        );
    }
    let mut sim = net.build();
    sim.populate_l2();
    (sim, h0, h1)
}

#[test]
fn send_on_routes_by_nic_and_rx_port_reports_arrival() {
    for_each_shard_row(check_send_on_routes_by_nic);
}

fn check_send_on_routes_by_nic(config: SimConfig) {
    let (mut sim, _h0, h1) = two_path_pair(
        config,
        Box::new(FanOut {
            dst: EthernetAddress::from_host_id(1),
            payload_len: 100,
        }),
        Box::new(PortRecorder::default()),
    );
    sim.run(RunLimit::Quiescent {
        limit_ns: time::millis(5),
    });
    let rx = sim.host_app::<PortRecorder>(h1);
    assert_eq!(rx.got.len(), 2, "one frame per path");
    // The frame tagged for NIC p left NIC p and arrived on NIC p — the
    // two paths are disjoint, so tag and arrival port must agree.
    for &(port, tag, _) in &rx.got {
        assert_eq!(port as u8, tag, "frame crossed paths");
    }
    let ports: Vec<u16> = rx.got.iter().map(|&(p, _, _)| p).collect();
    assert!(ports.contains(&0) && ports.contains(&1));
}

/// A slow NIC 0 must not delay traffic leaving NIC 1: per-NIC queues
/// serialize independently.
#[test]
fn nic_queues_are_independent() {
    for_each_shard_row(check_nic_queues_independent);
}

fn check_nic_queues_independent(config: SimConfig) {
    struct TwoBursts;
    impl HostApp for TwoBursts {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let dst = EthernetAddress::from_host_id(1);
            // Five jumbo frames down NIC 0 (a deep serialization queue),
            // then one small frame down NIC 1.
            for _ in 0..5 {
                ctx.send_on(
                    0,
                    build_frame(dst, ctx.mac(), EtherType(0x0800), &[0u8; 1400]),
                );
            }
            ctx.send_on(
                1,
                build_frame(dst, ctx.mac(), EtherType(0x0800), &[1u8; 60]),
            );
        }
    }
    let (mut sim, _h0, h1) = two_path_pair(
        config,
        Box::new(TwoBursts),
        Box::new(PortRecorder::default()),
    );
    sim.run(RunLimit::Quiescent {
        limit_ns: time::millis(5),
    });
    let rx = sim.host_app::<PortRecorder>(h1);
    assert_eq!(rx.got.len(), 6);
    let small_arrival = rx
        .got
        .iter()
        .find(|&&(p, _, _)| p == 1)
        .expect("NIC 1 frame arrived")
        .2;
    let first_jumbo = rx
        .got
        .iter()
        .filter(|&&(p, _, _)| p == 0)
        .map(|&(_, _, t)| t)
        .min()
        .expect("NIC 0 frames arrived");
    assert!(
        small_arrival < first_jumbo,
        "the small frame on the idle NIC must beat the queued jumbos \
         ({small_arrival} ns vs {first_jumbo} ns)"
    );
}

#[test]
fn set_link_loss_reports_profile_composed_effective_loss() {
    for_each_shard_row(check_effective_loss);
}

fn check_effective_loss(config: SimConfig) {
    let (mut sim, h0, _h1) = two_path_pair(
        config,
        Box::new(PortRecorder::default()),
        Box::new(PortRecorder::default()),
    );
    let nic0 = Endpoint::host_port(h0, 0);
    // Static loss alone: clamped echo of what was set.
    assert_eq!(sim.set_link_loss(nic0, 100), 100);
    // A profile active *now* (step at t=0) adds its sample.
    sim.set_link_profile(
        nic0,
        Some(LinkProfile::step().at(
            0,
            LinkState {
                loss_permille: 300,
                ..LinkState::nominal()
            },
        )),
    );
    assert_eq!(
        sim.set_link_loss(nic0, 100),
        400,
        "effective loss = static + active profile sample"
    );
    // Composition clamps at 1000 (never more than always-lose).
    assert_eq!(sim.set_link_loss(nic0, 900), 1000);
}

/// A profile's extra delay and rate scaling shift arrival times; the
/// nominal profile is a no-op.
#[test]
fn profile_delay_and_rate_shape_arrivals() {
    for_each_shard_row(check_profile_shapes_arrivals);
}

fn check_profile_shapes_arrivals(config: SimConfig) {
    let arrival_with = |profile: Option<LinkProfile>| -> u64 {
        let (mut sim, h0, h1) = two_path_pair(
            config.clone(),
            Box::new(FanOut {
                dst: EthernetAddress::from_host_id(1),
                payload_len: 1000,
            }),
            Box::new(PortRecorder::default()),
        );
        sim.set_link_profile(Endpoint::host_port(h0, 0), profile);
        sim.run(RunLimit::Quiescent {
            limit_ns: time::millis(50),
        });
        sim.host_app::<PortRecorder>(h1)
            .got
            .iter()
            .find(|&&(p, _, _)| p == 0)
            .expect("path-0 frame delivered")
            .2
    };
    let nominal = arrival_with(None);
    assert_eq!(
        arrival_with(Some(LinkProfile::step().at(0, LinkState::nominal()))),
        nominal,
        "a nominal profile must not perturb timing"
    );
    let slow = LinkState {
        extra_delay_ns: time::micros(100),
        rate_permille: 100, // 10× serialization time
        ..LinkState::nominal()
    };
    let slowed = arrival_with(Some(LinkProfile::step().at(0, slow)));
    assert!(
        slowed >= nominal + time::micros(100),
        "extra delay + rate scaling must push arrival out: {slowed} vs {nominal}"
    );
    // Linear profiles sample mid-ramp: a ramp that is nominal at the
    // send instant behaves nominally.
    let late_ramp = LinkProfile::linear()
        .at(time::millis(40), LinkState::nominal())
        .at(
            time::millis(41),
            LinkState {
                extra_delay_ns: time::millis(1),
                ..LinkState::nominal()
            },
        );
    assert_eq!(
        arrival_with(Some(late_ramp)),
        nominal,
        "a ramp entirely in the future is nominal now"
    );
}

/// Deterministic profile loss: the same seed drops the same frames, and
/// an always-lose profile window blocks everything sent inside it.
#[test]
fn profile_loss_is_seeded_and_total_loss_blocks() {
    for_each_shard_row(check_profile_loss);
}

fn check_profile_loss(config: SimConfig) {
    struct Pulser {
        dst: EthernetAddress,
        sent: u32,
    }
    impl HostApp for Pulser {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(time::micros(10), 0);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            if self.sent >= 200 {
                return;
            }
            self.sent += 1;
            let frame = build_frame(self.dst, ctx.mac(), EtherType(0x0800), &[0u8; 200]);
            ctx.send_on(0, frame);
            ctx.set_timer(time::micros(10), 0);
        }
    }
    let run = |loss: u16| -> usize {
        let (mut sim, h0, h1) = two_path_pair(
            config.clone(),
            Box::new(Pulser {
                dst: EthernetAddress::from_host_id(1),
                sent: 0,
            }),
            Box::new(PortRecorder::default()),
        );
        sim.set_link_profile(
            Endpoint::host_port(h0, 0),
            Some(LinkProfile::new(Interp::Step).at(
                0,
                LinkState {
                    loss_permille: loss,
                    ..LinkState::nominal()
                },
            )),
        );
        sim.run(RunLimit::Quiescent {
            limit_ns: time::millis(10),
        });
        sim.host_app::<PortRecorder>(h1).got.len()
    };
    assert_eq!(run(1000), 0, "always-lose profile drops everything");
    assert_eq!(run(0), 200, "zero-loss profile drops nothing");
    let partial = run(500);
    assert!(
        partial > 0 && partial < 200,
        "50% profile loss thins the stream: {partial}/200"
    );
    assert_eq!(partial, run(500), "same seed, same drops");
}

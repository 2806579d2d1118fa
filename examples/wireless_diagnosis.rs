//! §2.3 "Other possibilities" — diagnosing a wireless link with TPPs.
//!
//! A station hangs off an access point whose downlink is a radio:
//!
//! ```text
//! sender ── AP(switch 1) ──~ ~ radio ~ ~── station
//!               ▲
//!        cross-traffic host
//! ```
//!
//! Packets get lost in two ways that look identical to the endpoints:
//! the channel fades (SNR drops, frames die in the air) or the AP's
//! queue overflows (congestion). The AP annotates probe packets with
//! `Link:SnrDeciBel` *and* `Queue:QueueSize` — "low-latency access to
//! such rapidly changing state is useful for network diagnosis and fault
//! localization" — and the sender attributes every loss.
//!
//! Three phases: healthy (0–2 s), fading channel (2–4 s), congestion
//! with a clean channel (4–6 s). The example reports attribution
//! accuracy against ground truth.
//!
//! Run with: `cargo run --release --example wireless_diagnosis`

use std::collections::BTreeMap;

use tpp::apps::wireless::{classify_loss, DiagnosisConfig, LinkHealthMonitor, LossCause};
use tpp::prelude::*;

const RUN_NS: u64 = time::secs(6);
const PHASE_NS: u64 = time::secs(2);

/// Paces sequenced data to the station and runs the health monitor.
struct Sender {
    station: EthernetAddress,
    monitor: LinkHealthMonitor,
    sent: BTreeMap<u32, u64>, // seq -> send time
    next_seq: u32,
}

impl HostApp for Sender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.monitor.on_start(ctx);
        ctx.set_timer(1, 100);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        if token != 100 {
            self.monitor.on_timer(token, ctx);
            return;
        }
        if ctx.now() >= RUN_NS {
            return;
        }
        // Same frame size as the cross traffic so both compete equally
        // for drop-tail space; the 1.7 ms period is deliberately not a
        // multiple of the cross traffic's 1 ms so arrivals sweep through
        // every queue phase instead of deterministically aliasing.
        let mut payload = vec![0u8; 1200];
        payload[0..4].copy_from_slice(&self.next_seq.to_be_bytes());
        self.sent.insert(self.next_seq, ctx.now());
        self.next_seq += 1;
        ctx.send(build_frame(
            self.station,
            ctx.mac(),
            DATA_ETHERTYPE,
            &payload,
        ));
        ctx.set_timer(time::micros(1_700), 100); // ~5.7 Mb/s of data
    }
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.monitor.on_frame(frame, ctx);
    }
}

/// The station: records data sequence numbers, echoes TPP probes.
#[derive(Default)]
struct Station {
    received: Vec<u32>,
}

impl HostApp for Station {
    fn on_frame(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if tpp::host::echo_in_place(&mut frame, ctx.mac()) {
            ctx.send(frame);
            return;
        }
        if let Ok(parsed) = Frame::new_checked(&frame[..]) {
            if parsed.ethertype() == DATA_ETHERTYPE && parsed.payload().len() >= 4 {
                let seq = u32::from_be_bytes(parsed.payload()[0..4].try_into().unwrap());
                self.received.push(seq);
            }
        }
        ctx.recycle_frame(frame);
    }
}

/// Cross-traffic source: floods during phase 3 only.
struct CrossTraffic {
    station: EthernetAddress,
}

impl HostApp for CrossTraffic {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(2 * PHASE_NS, 0);
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= RUN_NS {
            return;
        }
        // 3x the downlink capacity: guaranteed overflow.
        for _ in 0..3 {
            ctx.send(build_frame(
                self.station,
                ctx.mac(),
                DATA_ETHERTYPE,
                &[0u8; 1200],
            ));
        }
        ctx.set_timer(time::millis(1), 0);
    }
}

/// Deterministic "radio": SNR over time, deci-dB.
fn snr_at(t_ns: u64) -> u32 {
    if !(PHASE_NS..2 * PHASE_NS).contains(&t_ns) {
        return 300; // 30 dB, healthy
    }
    // Phase 2: slow fade, 30 dB down to 5 dB and back, 500 ms period.
    let phase = (t_ns - PHASE_NS) as f64 / 5e8 * std::f64::consts::TAU;
    let snr_db = 17.5 + 12.5 * phase.cos();
    (snr_db * 10.0) as u32
}

/// Channel loss as a function of SNR: below 15 dB the link gets lossy.
fn loss_for_snr(snr_decidb: u32) -> u16 {
    if snr_decidb < 150 {
        ((150 - snr_decidb) * 4).min(600) as u16
    } else {
        0
    }
}

fn main() {
    let station_mac = EthernetAddress::from_host_id(1);
    let mut net = NetworkBuilder::new();
    // AP: port 0 = sender, port 1 = wireless downlink (20 Mb/s), port 2
    // = cross-traffic host.
    let mut ap_cfg = AsicConfig::with_ports(1, 3)
        .capacity_kbps(100_000)
        .queue_limit_bytes(30_000);
    ap_cfg.ports[1].capacity_kbps = 20_000;
    let ap = net.add_switch(ap_cfg);
    let sender = net.add_host(
        Box::new(Sender {
            station: station_mac,
            monitor: LinkHealthMonitor::new(station_mac, 2, time::millis(1), RUN_NS),
            sent: BTreeMap::new(),
            next_seq: 0,
        }),
        100_000,
    );
    let station = net.add_host(Box::new(Station::default()), 100_000);
    let cross = net.add_host(
        Box::new(CrossTraffic {
            station: station_mac,
        }),
        100_000,
    );
    net.connect(
        Endpoint::host(sender),
        Endpoint::switch(ap, 0),
        time::micros(5),
    );
    net.connect(
        Endpoint::host(station),
        Endpoint::switch(ap, 1),
        time::micros(5),
    );
    net.connect(
        Endpoint::host(cross),
        Endpoint::switch(ap, 2),
        time::micros(5),
    );
    let mut sim = net.build();
    sim.populate_l2();

    // The harness plays the radio: every 10 ms update the AP's SNR
    // register and the downlink's loss probability to match.
    let mut t = 0;
    while t < RUN_NS {
        t += time::millis(10);
        let snr = snr_at(t);
        sim.switch_mut(ap).set_port_snr(1, snr);
        sim.set_link_loss(Endpoint::switch(ap, 1), loss_for_snr(snr));
        sim.run(RunLimit::Until(t));
    }
    sim.run(RunLimit::Until(RUN_NS + time::millis(100))); // drain

    // --- Diagnosis ---
    let station_app_received: Vec<u32> = sim.host_app::<Station>(station).received.clone();
    let sender_app = sim.host_app::<Sender>(sender);
    let received: std::collections::HashSet<u32> = station_app_received.iter().copied().collect();
    let samples = sender_app.monitor.series_for(1);
    let config = DiagnosisConfig {
        fade_snr_decidb: 150,
        congestion_queue_bytes: 25_000,
        max_sample_distance_ns: time::millis(5),
    };

    let mut per_phase: BTreeMap<(&str, LossCause), u32> = BTreeMap::new();
    let mut losses = 0;
    for (seq, sent_t) in &sender_app.sent {
        if received.contains(seq) {
            continue;
        }
        losses += 1;
        let cause = classify_loss(&samples, *sent_t, &config);
        let phase = match *sent_t {
            t if t < PHASE_NS => "healthy (0-2s)",
            t if t < 2 * PHASE_NS => "fading (2-4s)",
            _ => "congested (4-6s)",
        };
        *per_phase.entry((phase, cause)).or_insert(0) += 1;
    }

    println!(
        "data packets: {} sent, {} received, {} lost",
        sender_app.sent.len(),
        received.len(),
        losses
    );
    println!(
        "health probes: {} sent, {} echoed ({} samples of AP state)\n",
        sender_app.monitor.probes_sent,
        sender_app.monitor.echoes_received,
        samples.len()
    );
    println!("loss attribution (rows: true phase; cols: TPP diagnosis):");
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "phase", "ChannelFade", "Congestion", "Unknown"
    );
    for phase in ["healthy (0-2s)", "fading (2-4s)", "congested (4-6s)"] {
        let g = |c: LossCause| per_phase.get(&(phase, c)).copied().unwrap_or(0);
        println!(
            "{:<18} {:>12} {:>12} {:>9}",
            phase,
            g(LossCause::ChannelFade),
            g(LossCause::Congestion),
            g(LossCause::Unknown)
        );
    }
    let correct: u32 = per_phase
        .iter()
        .filter(|((phase, cause), _)| {
            (phase.starts_with("fading") && *cause == LossCause::ChannelFade)
                || (phase.starts_with("congested") && *cause == LossCause::Congestion)
        })
        .map(|(_, n)| *n)
        .sum();
    println!(
        "\nattribution accuracy: {correct}/{losses} ({:.0}%)",
        100.0 * correct as f64 / losses.max(1) as f64
    );
    let q = sim.switch(ap).queue_stats(1, 0);
    println!(
        "ground truth: {} frames dropped at the AP queue, {} lost on the radio",
        q.packets_dropped,
        sim.link_losses(Endpoint::switch(ap, 1))
    );
}

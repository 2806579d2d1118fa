//! A DCTCP-flavoured rate controller driven by fixed-function ECN marks.
//!
//! §4 positions TPPs against the fixed-function lineage: "One example is
//! Explicit Congestion Notification (ECN) in which a router stamps a bit
//! in the IP header whenever the egress queue occupancy exceeds a
//! configurable threshold." This module implements that design point —
//! the switch exports exactly **one bit** per packet — so the
//! fixed-function-signals experiment (`repro e11`) can compare it
//! head-to-head with RCP\*'s TPP-read rates on the same substrate.
//!
//! Mechanism (rate-based DCTCP):
//! * data packets are header-only TPPs (no instructions), so the ASIC's
//!   ECN logic can stamp `FLAG_ECN` when the egress queue exceeds the
//!   marking threshold;
//! * the receiver acknowledges each packet with a tiny echo carrying the
//!   mark bit back;
//! * per RTT window the sender computes the marked fraction `F`, updates
//!   `alpha <- (1-g)*alpha + g*F`, and applies `rate *= 1 - alpha/2` on
//!   any marks (additive increase otherwise).

use std::collections::BTreeMap;

use tpp_host::{PacedSender, RttEstimator};
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::ethernet::{build_frame, EtherType, Frame};
use tpp_wire::tpp::{AddressingMode, TppBuilder, TppPacket, FLAG_ECHOED, FLAG_ECN};
use tpp_wire::EthernetAddress;

const TIMER_PACE: u64 = 1;
const TIMER_WINDOW: u64 = 2;

/// Configuration of a [`DctcpSender`].
#[derive(Debug, Clone, Copy)]
pub struct DctcpConfig {
    /// Initial rate, bits/s.
    pub init_rate_bps: u64,
    /// Rate floor, bits/s.
    pub min_rate_bps: u64,
    /// Rate ceiling, bits/s.
    pub max_rate_bps: u64,
    /// Additive increase per unmarked RTT, bits/s.
    pub increase_bps: u64,
    /// EWMA gain g for the marked fraction (DCTCP paper: 1/16).
    pub g: f64,
    /// Data payload length, bytes.
    pub payload_len: usize,
    /// Fallback RTT before any sample, ns.
    pub initial_rtt_ns: u64,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            init_rate_bps: 500_000,
            min_rate_bps: 100_000,
            max_rate_bps: 100_000_000,
            increase_bps: 200_000,
            g: 1.0 / 16.0,
            payload_len: 1000,
            initial_rtt_ns: 10_000_000,
        }
    }
}

/// A sender whose only congestion signal is the ECN bit.
#[derive(Debug)]
pub struct DctcpSender {
    config: DctcpConfig,
    dst: EthernetAddress,
    pacer: PacedSender,
    rtt: RttEstimator,
    outstanding: BTreeMap<u32, u64>,
    alpha: f64,
    window_acks: u64,
    window_marked: u64,
    /// `(time ns, rate bps)` after every window decision.
    pub rate_trace: Vec<(u64, u64)>,
    /// Total acks received.
    pub acks: u64,
    /// Total marked acks received.
    pub marked_acks: u64,
    start_ns: u64,
}

impl DctcpSender {
    /// A sender to `dst` starting at `start_ns`.
    pub fn new(dst: EthernetAddress, config: DctcpConfig, start_ns: u64) -> Self {
        DctcpSender {
            pacer: PacedSender::new(dst, config.payload_len, config.init_rate_bps, start_ns),
            rtt: RttEstimator::new(),
            outstanding: BTreeMap::new(),
            alpha: 0.0,
            window_acks: 0,
            window_marked: 0,
            rate_trace: Vec::new(),
            acks: 0,
            marked_acks: 0,
            config,
            dst,
            start_ns,
        }
    }

    /// Current sending rate, bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.pacer.rate_bps()
    }

    /// The current marked-fraction EWMA.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Wrap the pacer's datagram into a header-only TPP so switches can
    /// ECN-mark it.
    fn markable_frame(&mut self, now: u64, mac: EthernetAddress) -> Option<(u32, Vec<u8>)> {
        let inner = self.pacer.poll(now, mac, Vec::with_capacity)?;
        let parsed = Frame::new_checked(&inner[..]).expect("own frame");
        let seq = u32::from_be_bytes(parsed.payload()[0..4].try_into().expect("4 bytes"));
        let tpp = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[])
            .memory_words(0)
            .payload(parsed.payload())
            .inner_ethertype(tpp_host::DATA_ETHERTYPE.0)
            .build();
        Some((seq, build_frame(self.dst, mac, EtherType::TPP, &tpp)))
    }

    fn pace(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        while let Some((seq, frame)) = self.markable_frame(now, ctx.mac()) {
            self.outstanding.insert(seq, now);
            ctx.send(frame);
        }
        let next = self.pacer.next_tx_ns().saturating_sub(now).max(1);
        ctx.set_timer(next, TIMER_PACE);
    }

    fn window(&mut self, ctx: &mut HostCtx<'_>) {
        let rtt = self.rtt.srtt_or(self.config.initial_rtt_ns);
        if self.window_acks > 0 {
            let f = self.window_marked as f64 / self.window_acks as f64;
            self.alpha = (1.0 - self.config.g) * self.alpha + self.config.g * f;
            let rate = self.pacer.rate_bps();
            let new_rate = if self.window_marked > 0 {
                (rate as f64 * (1.0 - self.alpha / 2.0)) as u64
            } else {
                rate + self.config.increase_bps
            }
            .clamp(self.config.min_rate_bps, self.config.max_rate_bps);
            self.pacer.set_rate_bps(new_rate, ctx.now());
            self.rate_trace.push((ctx.now(), new_rate));
        }
        self.window_acks = 0;
        self.window_marked = 0;
        ctx.set_timer(rtt.max(1_000_000), TIMER_WINDOW);
    }
}

impl HostApp for DctcpSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, TIMER_PACE);
        ctx.set_timer(self.start_ns + self.config.initial_rtt_ns, TIMER_WINDOW);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        match token {
            TIMER_PACE => self.pace(ctx),
            TIMER_WINDOW => self.window(ctx),
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        // ACKs are tiny echoed TPPs whose payload is the seq and whose
        // flags carry the mark.
        let Ok(parsed) = Frame::new_checked(&frame[..]) else {
            return;
        };
        if !parsed.is_tpp() {
            return;
        }
        let Ok(tpp) = TppPacket::new_checked(parsed.payload()) else {
            return;
        };
        if tpp.flags() & FLAG_ECHOED == 0 || tpp.inner_payload().len() < 4 {
            return;
        }
        let seq = u32::from_be_bytes(tpp.inner_payload()[0..4].try_into().expect("4 bytes"));
        if let Some(sent) = self.outstanding.remove(&seq) {
            self.rtt.on_sample(ctx.now().saturating_sub(sent));
            self.acks += 1;
            self.window_acks += 1;
            if tpp.flags() & FLAG_ECN != 0 {
                self.marked_acks += 1;
                self.window_marked += 1;
            }
        }
    }
}

/// The DCTCP receiver: counts goodput and acknowledges every data packet
/// with a small echo that reflects the ECN mark.
#[derive(Debug, Default)]
pub struct DctcpReceiver {
    /// Data payload bytes received.
    pub bytes: u64,
    /// Packets received.
    pub packets: u64,
    /// Packets that arrived ECN-marked.
    pub marked: u64,
}

impl HostApp for DctcpReceiver {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let Ok(parsed) = Frame::new_checked(&frame[..]) else {
            return;
        };
        if !parsed.is_tpp() || parsed.dst_addr() != ctx.mac() {
            return;
        }
        let Ok(tpp) = TppPacket::new_checked(parsed.payload()) else {
            return;
        };
        if tpp.flags() & FLAG_ECHOED != 0 || tpp.inner_payload().len() < 4 {
            return;
        }
        self.packets += 1;
        self.bytes += tpp.inner_payload().len() as u64;
        let marked = tpp.flags() & FLAG_ECN != 0;
        if marked {
            self.marked += 1;
        }
        // ACK: header-only TPP, 4-byte seq payload, mark + echoed flags.
        let ack_tpp = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[])
            .memory_words(0)
            .payload(&tpp.inner_payload()[0..4])
            .inner_ethertype(tpp_host::DATA_ETHERTYPE.0)
            .build();
        let mut ack = build_frame(parsed.src_addr(), ctx.mac(), EtherType::TPP, &ack_tpp);
        {
            let mut out = Frame::new_unchecked(&mut ack[..]);
            let mut t = TppPacket::new_unchecked(out.payload_mut());
            t.set_flags(FLAG_ECHOED | if marked { FLAG_ECN } else { 0 });
        }
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::RunLimit;
    use tpp_netsim::{dumbbell_with, time, DumbbellParams, SimConfig, Simulator};

    fn run(n: usize, ms: u64, ecn_threshold: u32) -> (Simulator, tpp_netsim::Dumbbell) {
        let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..n)
            .map(|i| {
                let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
                (
                    Box::new(DctcpSender::new(dst, DctcpConfig::default(), 0)) as Box<dyn HostApp>,
                    Box::new(DctcpReceiver::default()) as Box<dyn HostApp>,
                )
            })
            .collect();
        let (mut sim, bell) = dumbbell_with(
            SimConfig::new(),
            DumbbellParams {
                queue_limit_bytes: 60_000,
                ..Default::default()
            },
            apps,
        );
        let port = bell.bottleneck_port;
        sim.switch_mut(bell.left)
            .set_ecn_threshold(port, Some(ecn_threshold));
        sim.run(RunLimit::Until(time::millis(ms)));
        (sim, bell)
    }

    #[test]
    fn marks_flow_back_and_throttle() {
        let (sim, bell) = run(1, 4_000, 15_000);
        let sender = sim.host_app::<DctcpSender>(bell.senders[0]);
        assert!(sender.acks > 500, "acks {}", sender.acks);
        assert!(sender.marked_acks > 0, "no marks ever seen");
        assert!(sender.alpha() > 0.0);
        // Goodput reaches a decent share of the 10 Mb/s bottleneck.
        let recv = sim.host_app::<DctcpReceiver>(bell.receivers[0]);
        let goodput = recv.bytes as f64 * 8.0 / 4.0;
        assert!(goodput > 0.6 * 10e6, "goodput {goodput:.0}");
    }

    #[test]
    fn queue_rides_around_the_marking_threshold() {
        let (sim, bell) = run(1, 4_000, 15_000);
        let hwm = sim
            .switch(bell.left)
            .queue_stats(bell.bottleneck_port, 0)
            .high_watermark_bytes;
        // DCTCP holds the queue near K — far below the 60 KB limit an
        // AIMD flow would fill, but necessarily above zero (unlike RCP).
        assert!(hwm >= 15_000, "queue never reached K: {hwm}");
        assert!(hwm < 60_000, "queue hit the buffer limit: {hwm}");
    }

    #[test]
    fn two_flows_share() {
        let (sim, bell) = run(2, 6_000, 15_000);
        let a = sim.host_app::<DctcpReceiver>(bell.receivers[0]).bytes as f64;
        let b = sim.host_app::<DctcpReceiver>(bell.receivers[1]).bytes as f64;
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 2.0, "unfair: {a} vs {b}");
    }
}

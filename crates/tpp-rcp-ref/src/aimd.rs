//! A TCP-Reno-flavoured AIMD baseline, rate-based for comparability with
//! RCP\*: additive increase every RTT without loss, multiplicative
//! decrease on loss. This is the "what you get without explicit network
//! feedback" contrast used by the extension experiments (DESIGN.md E11):
//! AIMD must *fill the queue* to find capacity, RCP converges with
//! near-empty queues.

use std::collections::BTreeMap;

use tpp_host::{PacedSender, RttEstimator};
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::ethernet::{build_frame, EtherType, Frame};
use tpp_wire::EthernetAddress;

/// EtherType of AIMD acknowledgement frames.
pub const ACK_ETHERTYPE: EtherType = EtherType(0x0803);

const TIMER_PACE: u64 = 1;
const TIMER_EPOCH: u64 = 2;

/// Configuration of an [`AimdSender`].
#[derive(Debug, Clone, Copy)]
pub struct AimdConfig {
    /// Initial sending rate, bits/s.
    pub init_rate_bps: u64,
    /// Floor rate, bits/s.
    pub min_rate_bps: u64,
    /// Ceiling rate (the NIC), bits/s.
    pub max_rate_bps: u64,
    /// Additive increase per loss-free RTT, bits/s.
    pub increase_bps: u64,
    /// Data payload length, bytes.
    pub payload_len: usize,
    /// Fallback RTT before any sample, ns.
    pub initial_rtt_ns: u64,
    /// Finite flow size: stop after this many payload bytes (`None` =
    /// long-lived).
    pub stop_after_bytes: Option<u64>,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            init_rate_bps: 500_000,
            min_rate_bps: 100_000,
            max_rate_bps: 100_000_000,
            increase_bps: 200_000,
            payload_len: 1000,
            initial_rtt_ns: 10_000_000,
            stop_after_bytes: None,
        }
    }
}

/// A rate-based AIMD sender.
#[derive(Debug)]
pub struct AimdSender {
    config: AimdConfig,
    sender: PacedSender,
    outstanding: BTreeMap<u32, u64>,
    rtt: RttEstimator,
    /// Rate trace: `(time ns, rate bps)` after every epoch decision.
    pub rate_trace: Vec<(u64, u64)>,
    /// Loss events observed.
    pub losses: u64,
    /// Acks received.
    pub acks: u64,
    /// When the flow finished sending its target bytes (ns).
    pub completed_at: Option<u64>,
    start_ns: u64,
}

impl AimdSender {
    /// A sender to `dst` starting at `start_ns`.
    pub fn new(dst: EthernetAddress, config: AimdConfig, start_ns: u64) -> Self {
        let sender = PacedSender::new(dst, config.payload_len, config.init_rate_bps, start_ns);
        AimdSender {
            config,
            sender,
            outstanding: BTreeMap::new(),
            rtt: RttEstimator::new(),
            rate_trace: Vec::new(),
            losses: 0,
            acks: 0,
            completed_at: None,
            start_ns,
        }
    }

    /// True once the flow has sent its full size (finite flows only).
    pub fn finished(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Current sending rate, bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.sender.rate_bps()
    }

    /// Total payload bytes released so far.
    pub fn bytes_sent(&self) -> u64 {
        self.sender.bytes_sent
    }

    fn pace(&mut self, ctx: &mut HostCtx<'_>) {
        if self.finished() {
            return;
        }
        let now = ctx.now();
        while let Some(frame) = self.sender.poll(now, ctx.mac(), |n| ctx.alloc_frame(n)) {
            // PacedSender wrote the sequence number in payload[0..4].
            let seq = u32::from_be_bytes([frame[14], frame[15], frame[16], frame[17]]);
            self.outstanding.insert(seq, now);
            ctx.send(frame);
            if let Some(target) = self.config.stop_after_bytes {
                if self.sender.bytes_sent >= target {
                    self.completed_at = Some(now);
                    return;
                }
            }
        }
        let next = self.sender.next_tx_ns().saturating_sub(now).max(1);
        ctx.set_timer(next, TIMER_PACE);
    }

    fn epoch(&mut self, ctx: &mut HostCtx<'_>) {
        if self.finished() {
            return;
        }
        let now = ctx.now();
        let rtt = self.rtt.srtt_or(self.config.initial_rtt_ns);
        // Anything unacked for over 2 RTTs is lost.
        let timeout = now.saturating_sub(2 * rtt);
        let lost: Vec<u32> = self
            .outstanding
            .iter()
            .filter(|(_, sent)| **sent < timeout)
            .map(|(seq, _)| *seq)
            .collect();
        let rate = self.sender.rate_bps();
        let new_rate = if lost.is_empty() {
            rate + self.config.increase_bps
        } else {
            self.losses += 1;
            for seq in lost {
                self.outstanding.remove(&seq);
            }
            rate / 2
        }
        .clamp(self.config.min_rate_bps, self.config.max_rate_bps);
        self.sender.set_rate_bps(new_rate, now);
        self.rate_trace.push((now, new_rate));
        ctx.set_timer(rtt.max(1_000_000), TIMER_EPOCH);
    }
}

impl HostApp for AimdSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, TIMER_PACE);
        ctx.set_timer(self.start_ns + self.config.initial_rtt_ns, TIMER_EPOCH);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        match token {
            TIMER_PACE => self.pace(ctx),
            TIMER_EPOCH => self.epoch(ctx),
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let Ok(parsed) = Frame::new_checked(&frame[..]) else {
            return;
        };
        if parsed.ethertype() != ACK_ETHERTYPE || parsed.payload().len() < 4 {
            return;
        }
        let p = parsed.payload();
        let seq = u32::from_be_bytes([p[0], p[1], p[2], p[3]]);
        if let Some(sent_ns) = self.outstanding.remove(&seq) {
            self.acks += 1;
            self.rtt.on_sample(ctx.now().saturating_sub(sent_ns));
        }
    }
}

/// The receiver: acknowledges every data frame by echoing its sequence
/// number to the sender.
#[derive(Debug, Default)]
pub struct AimdAcker {
    /// Data frames received.
    pub received: u64,
    /// Data bytes received.
    pub bytes: u64,
}

impl HostApp for AimdAcker {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let Ok(parsed) = Frame::new_checked(&frame[..]) else {
            return;
        };
        if parsed.ethertype() != tpp_host::DATA_ETHERTYPE || parsed.payload().len() < 4 {
            return;
        }
        self.received += 1;
        self.bytes += parsed.payload().len() as u64;
        let seq = &parsed.payload()[0..4];
        let ack = build_frame(parsed.src_addr(), ctx.mac(), ACK_ETHERTYPE, seq);
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::RunLimit;
    use tpp_netsim::{dumbbell_with, time, DumbbellParams, SimConfig};

    fn run_flows(n: usize, duration_ms: u64) -> (tpp_netsim::Simulator, tpp_netsim::Dumbbell) {
        let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..n)
            .map(|i| {
                let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
                (
                    Box::new(AimdSender::new(dst, AimdConfig::default(), 0)) as Box<dyn HostApp>,
                    Box::new(AimdAcker::default()) as Box<dyn HostApp>,
                )
            })
            .collect();
        let (mut sim, bell) = dumbbell_with(
            SimConfig::new(),
            DumbbellParams {
                queue_limit_bytes: 30_000,
                ..Default::default()
            },
            apps,
        );
        sim.run(RunLimit::Until(time::millis(duration_ms)));
        (sim, bell)
    }

    #[test]
    fn single_flow_fills_the_bottleneck() {
        let (sim, bell) = run_flows(1, 4_000);
        let acker = sim.host_app::<AimdAcker>(bell.receivers[0]);
        // 10 Mb/s for 4 s = 5 MB max; AIMD should achieve > 60% of it
        // (it spends time probing and backing off).
        let goodput_bps = acker.bytes as f64 * 8.0 / 4.0;
        assert!(
            goodput_bps > 0.6 * 10e6,
            "goodput only {goodput_bps:.0} bps"
        );
        let sender = sim.host_app::<AimdSender>(bell.senders[0]);
        assert!(sender.losses > 0, "AIMD needs losses to find capacity");
        assert!(sender.acks > 0);
    }

    #[test]
    fn aimd_builds_standing_queues() {
        // The contrast with RCP: loss-driven control must repeatedly fill
        // the bottleneck buffer.
        let (sim, bell) = run_flows(1, 4_000);
        let hwm = sim
            .switch(bell.left)
            .queue_stats(bell.bottleneck_port, 0)
            .high_watermark_bytes;
        assert!(
            hwm >= 28_000,
            "queue high-watermark {hwm} never approached the 30 KB limit"
        );
    }

    #[test]
    fn two_flows_share_within_reason() {
        let (sim, bell) = run_flows(2, 6_000);
        let a = sim.host_app::<AimdAcker>(bell.receivers[0]).bytes as f64;
        let b = sim.host_app::<AimdAcker>(bell.receivers[1]).bytes as f64;
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 3.0, "grossly unfair split: {a} vs {b}");
        // Combined they still use most of the link.
        let total_bps = (a + b) * 8.0 / 6.0;
        assert!(total_bps > 0.6 * 10e6, "total {total_bps:.0}");
    }

    #[test]
    fn rate_trace_shows_sawtooth() {
        let (sim, bell) = run_flows(1, 4_000);
        let sender = sim.host_app::<AimdSender>(bell.senders[0]);
        let rates: Vec<u64> = sender.rate_trace.iter().map(|(_, r)| *r).collect();
        let ups = rates.windows(2).filter(|w| w[1] > w[0]).count();
        let downs = rates.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(ups > 10, "additive increases: {ups}");
        assert!(downs > 0, "multiplicative decreases: {downs}");
    }
}

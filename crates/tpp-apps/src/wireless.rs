//! §2.3 "Other possibilities" — wireless link diagnosis.
//!
//! "TPPs are not just limited to wired networks; they can also be used
//! in wireless networks where access points can annotate end-host
//! packets with channel SNR which changes very quickly. Low-latency
//! access to such rapidly changing state is useful for network diagnosis
//! and fault localization."
//!
//! The classic diagnosis problem: packets are being lost — is the
//! *channel* fading, or is the AP's queue overflowing under congestion?
//! Loss alone cannot tell; per-packet reads of `Link:SnrDeciBel` *and*
//! `Queue:QueueSize` can. [`LinkHealthMonitor`] probes both per packet;
//! [`classify_loss`] attributes each loss epoch.

use tpp_host::{parse_echo, split_hops, ProbeBuilder};
use tpp_isa::programs;
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::EthernetAddress;

/// One probe's view of one hop: channel and queue state together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSample {
    /// Probe send time, ns.
    pub t_ns: u64,
    /// `Switch:SwitchID`.
    pub switch_id: u32,
    /// `Link:SnrDeciBel` — channel quality in tenths of a dB.
    pub snr_decidb: u32,
    /// `Queue:QueueSize` — congestion state in bytes.
    pub queue_bytes: u32,
}

/// Probes a path, recording SNR + queue per hop per probe.
#[derive(Debug)]
pub struct LinkHealthMonitor {
    dst: EthernetAddress,
    probe: ProbeBuilder,
    interval_ns: u64,
    stop_ns: u64,
    /// All samples in send order.
    pub samples: Vec<HealthSample>,
    /// Probes sent.
    pub probes_sent: u64,
    /// Echoes decoded.
    pub echoes_received: u64,
}

const WORDS_PER_HOP: usize = programs::WIRELESS_WORDS_PER_HOP;
const TIMER_PROBE: u64 = 1;

impl LinkHealthMonitor {
    /// Probe the path to `dst` every `interval_ns` until `stop_ns`.
    pub fn new(dst: EthernetAddress, expected_hops: usize, interval_ns: u64, stop_ns: u64) -> Self {
        let program = programs::wireless_health();
        LinkHealthMonitor {
            dst,
            probe: ProbeBuilder::stack(&program, expected_hops),
            interval_ns,
            stop_ns,
            samples: Vec::new(),
            probes_sent: 0,
            echoes_received: 0,
        }
    }

    /// Samples for one switch, in time order.
    pub fn series_for(&self, switch_id: u32) -> Vec<HealthSample> {
        self.samples
            .iter()
            .copied()
            .filter(|s| s.switch_id == switch_id)
            .collect()
    }
}

impl HostApp for LinkHealthMonitor {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(1, TIMER_PROBE);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.stop_ns {
            return;
        }
        let stamp = ctx.now().to_be_bytes();
        let mut frame = ctx.alloc_frame(self.probe.frame_len(stamp.len()));
        self.probe.write_frame(
            self.dst,
            ctx.mac(),
            &stamp,
            tpp_host::DATA_ETHERTYPE.0,
            &mut frame,
        );
        ctx.send(frame);
        self.probes_sent += 1;
        ctx.set_timer(self.interval_ns, TIMER_PROBE);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.on_echo(&frame, ctx.mac(), ctx.now());
        ctx.recycle_frame(frame);
    }
}

impl LinkHealthMonitor {
    fn on_echo(&mut self, frame: &[u8], my_mac: EthernetAddress, now: u64) {
        let Some(tpp) = parse_echo(frame, my_mac) else {
            return;
        };
        let Some(sample) = split_hops(&tpp, WORDS_PER_HOP) else {
            return;
        };
        let inner = tpp.inner_payload();
        let t_ns = if inner.len() >= 8 {
            u64::from_be_bytes(inner[0..8].try_into().expect("8 bytes"))
        } else {
            now
        };
        self.echoes_received += 1;
        self.samples.extend(sample.hops().map(|hop| HealthSample {
            t_ns,
            switch_id: hop.word(0),
            snr_decidb: hop.word(1),
            queue_bytes: hop.word(2),
        }));
    }
}

/// A diagnosed cause of packet loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LossCause {
    /// The channel SNR was below the fade threshold around the loss.
    ChannelFade,
    /// The egress queue was near its limit around the loss.
    Congestion,
    /// Neither signal explains it (or no sample close enough in time).
    Unknown,
}

/// Diagnosis thresholds.
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisConfig {
    /// SNR at/below which the channel counts as fading, deci-dB.
    pub fade_snr_decidb: u32,
    /// Queue occupancy at/above which congestion is implicated, bytes.
    pub congestion_queue_bytes: u32,
    /// How far (ns) a health sample may be from the loss time and still
    /// count as evidence.
    pub max_sample_distance_ns: u64,
}

/// Attribute one loss (at `loss_t_ns`) using the health samples of the
/// suspect hop.
///
/// Congestion wins ties: a full queue drops deterministically, so it is
/// the stronger explanation even in a fade.
pub fn classify_loss(
    samples: &[HealthSample],
    loss_t_ns: u64,
    config: &DiagnosisConfig,
) -> LossCause {
    let nearest = samples.iter().min_by_key(|s| s.t_ns.abs_diff(loss_t_ns));
    let Some(s) = nearest else {
        return LossCause::Unknown;
    };
    if s.t_ns.abs_diff(loss_t_ns) > config.max_sample_distance_ns {
        return LossCause::Unknown;
    }
    if s.queue_bytes >= config.congestion_queue_bytes {
        return LossCause::Congestion;
    }
    if s.snr_decidb <= config.fade_snr_decidb {
        return LossCause::ChannelFade;
    }
    LossCause::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiagnosisConfig {
        DiagnosisConfig {
            fade_snr_decidb: 150, // 15 dB
            congestion_queue_bytes: 50_000,
            max_sample_distance_ns: 1_000_000,
        }
    }

    fn sample(t_ns: u64, snr: u32, q: u32) -> HealthSample {
        HealthSample {
            t_ns,
            switch_id: 1,
            snr_decidb: snr,
            queue_bytes: q,
        }
    }

    #[test]
    fn fade_attributed_to_channel() {
        let samples = vec![
            sample(0, 300, 0),
            sample(1_000, 80, 0),
            sample(2_000, 310, 0),
        ];
        assert_eq!(
            classify_loss(&samples, 1_100, &cfg()),
            LossCause::ChannelFade
        );
    }

    #[test]
    fn full_queue_attributed_to_congestion() {
        let samples = vec![sample(0, 300, 60_000)];
        assert_eq!(classify_loss(&samples, 100, &cfg()), LossCause::Congestion);
    }

    #[test]
    fn congestion_wins_over_simultaneous_fade() {
        let samples = vec![sample(0, 80, 60_000)];
        assert_eq!(classify_loss(&samples, 0, &cfg()), LossCause::Congestion);
    }

    #[test]
    fn healthy_signals_give_unknown() {
        let samples = vec![sample(0, 300, 100)];
        assert_eq!(classify_loss(&samples, 0, &cfg()), LossCause::Unknown);
    }

    #[test]
    fn stale_samples_give_unknown() {
        let samples = vec![sample(0, 80, 0)];
        assert_eq!(
            classify_loss(&samples, 10_000_000, &cfg()),
            LossCause::Unknown
        );
        assert_eq!(classify_loss(&[], 0, &cfg()), LossCause::Unknown);
    }
}

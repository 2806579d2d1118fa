//! §2.1 — micro-burst detection.
//!
//! "TPPs can provide fine-grained per-RTT, or even per-packet visibility
//! into queue evolution inside the network. ... If packet memory is
//! addressed like a stack, then the instruction `PUSH [Queue:QueueSize]`
//! copies the queue register onto packet memory. As the packet traverses
//! each hop, the packet memory records snapshots of queue size statistics
//! at each hop. The queue sizes are useful in diagnosing micro-bursts, as
//! they are not an average statistic. They are recorded the instant the
//! packet traversed the switch."
//!
//! [`MicroburstMonitor`] is the end-host side: it emits a probe every
//! `interval_ns` (per-RTT or faster), decodes the echoes into per-switch
//! queue time series, and [`detect_bursts`] finds occupancy excursions.
//! The same detector applied to a slow poller's samples is the baseline
//! the paper contrasts against ("Today's monitoring mechanisms operate
//! only on timescales that are 10s of seconds at best").

use std::collections::BTreeMap;

use tpp_host::{parse_echo, split_hops, ProbeBuilder, ProbeDelivery, ProbeManager, RetryPolicy};
use tpp_isa::programs;
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::EthernetAddress;

/// One queue-size observation of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Probe send time, ns — carried in the probe's inner payload and
    /// echoed back, so the sample is stamped with when it was *taken*
    /// (within half an RTT), not when its echo finally got home. Echoes
    /// of probes that queued behind the very burst they measured would
    /// otherwise arrive in clumps and fragment the burst timeline.
    pub t_ns: u64,
    /// `Switch:SwitchID` of the observed hop.
    pub switch_id: u32,
    /// `Queue:QueueSize` in bytes, the instant the probe passed.
    pub queue_bytes: u32,
}

/// The §2.1 monitor: probes a path and accumulates per-switch queue
/// time series.
#[derive(Debug)]
pub struct MicroburstMonitor {
    dst: EthernetAddress,
    probe: ProbeBuilder,
    interval_ns: u64,
    start_ns: u64,
    stop_ns: u64,
    probes: ProbeManager,
    /// All samples, in arrival order.
    pub samples: Vec<QueueSample>,
    /// Probes sent.
    pub probes_sent: u64,
    /// Echoes received and decoded.
    pub echoes_received: u64,
    /// Per-probe `(send_t_ns, rtt_ns)`, in arrival order — the
    /// end-host-observed round-trip latency the observability collector
    /// aggregates alongside the queue samples.
    pub rtts: Vec<(u64, u64)>,
}

const WORDS_PER_HOP: usize = programs::MICROBURST_WORDS_PER_HOP;
const TIMER_PROBE: u64 = 1;

impl MicroburstMonitor {
    /// Monitor the path to `dst` with one probe every `interval_ns`,
    /// active in `[start_ns, stop_ns)`. `expected_hops` sizes packet
    /// memory (§2.1: "the end-host preallocates enough packet memory").
    pub fn new(
        dst: EthernetAddress,
        expected_hops: usize,
        interval_ns: u64,
        start_ns: u64,
        stop_ns: u64,
    ) -> Self {
        let program = programs::microburst_collect();
        MicroburstMonitor {
            dst,
            probe: ProbeBuilder::stack(&program, expected_hops),
            interval_ns,
            start_ns,
            stop_ns,
            // One probe per interval; the next one supersedes, so no
            // retries — the nonce layer only dedups duplicated echoes.
            probes: ProbeManager::new(RetryPolicy {
                timeout_ns: 2 * interval_ns,
                max_retries: 0,
                jitter_permille: 0,
            }),
            samples: Vec::new(),
            probes_sent: 0,
            echoes_received: 0,
            rtts: Vec::new(),
        }
    }

    /// The time series of one switch, `(t_ns, queue_bytes)`.
    pub fn series_for(&self, switch_id: u32) -> Vec<(u64, u64)> {
        self.samples
            .iter()
            .filter(|s| s.switch_id == switch_id)
            .map(|s| (s.t_ns, s.queue_bytes as u64))
            .collect()
    }

    /// All switch ids observed, in ascending order.
    pub fn switches_observed(&self) -> Vec<u32> {
        let set: BTreeMap<u32, ()> = self.samples.iter().map(|s| (s.switch_id, ())).collect();
        set.into_keys().collect()
    }
}

impl HostApp for MicroburstMonitor {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, TIMER_PROBE);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        if ProbeManager::is_timer(token) {
            // Lost probes just leave a gap in the series; the next
            // interval re-samples.
            let _ = self.probes.on_timer(ctx);
            return;
        }
        if ctx.now() >= self.stop_ns {
            return;
        }
        let stamp = ctx.now().to_be_bytes();
        self.probes.track_probe(
            &self.probe,
            self.dst,
            &stamp,
            tpp_host::DATA_ETHERTYPE.0,
            ctx,
        );
        self.probes_sent += 1;
        ctx.set_timer(self.interval_ns, TIMER_PROBE);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.on_echo(&frame, ctx);
        ctx.recycle_frame(frame);
    }
}

impl MicroburstMonitor {
    fn on_echo(&mut self, frame: &[u8], ctx: &mut HostCtx<'_>) {
        match self.probes.on_frame(frame, ctx) {
            // A late sample is still a sample — it carries its own
            // send-time stamp, so the series stays correctly ordered.
            ProbeDelivery::Fresh { .. } | ProbeDelivery::Late { .. } => {}
            // But one probe must contribute exactly one sample per hop.
            ProbeDelivery::Duplicate { .. } | ProbeDelivery::NotAProbe => return,
        }
        let Some(tpp) = parse_echo(frame, ctx.mac()) else {
            return;
        };
        let Some(sample) = split_hops(&tpp, WORDS_PER_HOP) else {
            return;
        };
        // Recover the send-time stamp we embedded in the inner payload.
        let inner = tpp.inner_payload();
        let t_ns = if inner.len() >= 8 {
            u64::from_be_bytes(inner[0..8].try_into().expect("8 bytes"))
        } else {
            ctx.now()
        };
        self.echoes_received += 1;
        self.rtts.push((t_ns, ctx.now().saturating_sub(t_ns)));
        self.samples.extend(sample.hops().map(|hop| QueueSample {
            t_ns,
            switch_id: hop.word(0),
            queue_bytes: hop.word(1),
        }));
    }
}

/// A detected micro-burst: queue occupancy above `threshold` from
/// `start_ns` to `end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// First sample at/above threshold.
    pub start_ns: u64,
    /// Last sample at/above threshold.
    pub end_ns: u64,
    /// Peak occupancy seen, bytes.
    pub peak_bytes: u64,
}

/// Find excursions of a queue series above `threshold_bytes`.
///
/// Consecutive above-threshold samples separated by gaps of at most
/// `merge_gap_ns` merge into one burst. Works identically on TPP series
/// and on poller series — the comparison the §2.1 experiment makes.
pub fn detect_bursts(series: &[(u64, u64)], threshold_bytes: u64, merge_gap_ns: u64) -> Vec<Burst> {
    let mut bursts: Vec<Burst> = Vec::new();
    for &(t, q) in series {
        if q < threshold_bytes {
            continue;
        }
        match bursts.last_mut() {
            Some(last) if t.saturating_sub(last.end_ns) <= merge_gap_ns => {
                last.end_ns = t;
                last.peak_bytes = last.peak_bytes.max(q);
            }
            _ => bursts.push(Burst {
                start_ns: t,
                end_ns: t,
                peak_bytes: q,
            }),
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_single_burst() {
        let series: Vec<(u64, u64)> = vec![
            (0, 0),
            (100, 10),
            (200, 5_000),
            (300, 9_000),
            (400, 4_000),
            (500, 0),
        ];
        let bursts = detect_bursts(&series, 3_000, 150);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].start_ns, 200);
        assert_eq!(bursts[0].end_ns, 400);
        assert_eq!(bursts[0].peak_bytes, 9_000);
        assert_eq!(bursts[0].end_ns - bursts[0].start_ns, 200);
    }

    #[test]
    fn separates_distant_bursts_merges_close_ones() {
        let series: Vec<(u64, u64)> = vec![
            (0, 5_000),
            (100, 5_000),
            (250, 5_000),   // gap 150 <= 200: same burst
            (1_000, 5_000), // gap 750 > 200: new burst
        ];
        let bursts = detect_bursts(&series, 1_000, 200);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].end_ns, 250);
        assert_eq!(bursts[1].start_ns, 1_000);
    }

    #[test]
    fn empty_and_quiet_series() {
        assert!(detect_bursts(&[], 100, 10).is_empty());
        let quiet: Vec<(u64, u64)> = (0..100).map(|i| (i * 10, 5)).collect();
        assert!(detect_bursts(&quiet, 100, 10).is_empty());
    }

    #[test]
    fn threshold_is_inclusive() {
        let bursts = detect_bursts(&[(10, 100)], 100, 0);
        assert_eq!(bursts.len(), 1);
    }
}

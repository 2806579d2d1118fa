//! The ASIC's statistics registers — the backing store of Table 2.
//!
//! "Today, the ASIC memory manager already keeps track of per-port,
//! per-queue occupancies in its registers" (§2.1). These structs are those
//! registers. Counters are `u64` internally and expose wrapping low-32-bit
//! views to TPPs (see `memmap`), like real ASIC/SNMP counters.

/// Per-switch (global) registers.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRegs {
    /// `Switch:SwitchID`.
    pub switch_id: u32,
    /// `Switch:FlowTableVersion` — bumped by the control plane on every
    /// rule update (ndb's version stamp, §2.3).
    pub flow_table_version: u32,
    /// `Switch:L2TableHits`.
    pub l2_hits: u64,
    /// `Switch:L3TableHits`.
    pub l3_hits: u64,
    /// `Switch:TcamHits`.
    pub tcam_hits: u64,
    /// `Switch:PacketsProcessed`.
    pub packets_processed: u64,
    /// `Switch:TppsExecuted`.
    pub tpps_executed: u64,
    /// `Switch:WallClock` — switch-local time in ns, updated as packets
    /// arrive (the model is event-driven, so the clock advances with
    /// traffic).
    pub wall_clock_ns: u64,
    /// `Switch:BootEpoch` — incremented by every [`reset`](crate::Asic::reset)
    /// (reboot). Survives the reset itself; everything else volatile is
    /// wiped. End-hosts compare it against a cached value to detect that
    /// SRAM state they seeded earlier is gone.
    pub boot_epoch: u32,
}

impl SwitchRegs {
    /// Fresh registers for a switch.
    pub fn new(switch_id: u32) -> Self {
        SwitchRegs {
            switch_id,
            flow_table_version: 0,
            l2_hits: 0,
            l3_hits: 0,
            tcam_hits: 0,
            packets_processed: 0,
            tpps_executed: 0,
            wall_clock_ns: 0,
            boot_epoch: 0,
        }
    }

    /// Export the registers into a [`tpp_telemetry::MetricsRegistry`]
    /// under stable `switch.*` names. Counters are exported with `add`,
    /// so exporting several switches into one registry sums them —
    /// which is the fleet-wide view the simulator publishes on every
    /// stats tick.
    pub fn export_metrics(&self, registry: &mut tpp_telemetry::MetricsRegistry) {
        registry.add("switch.packets_processed", self.packets_processed);
        registry.add("switch.tpps_executed", self.tpps_executed);
        registry.add("switch.l2_hits", self.l2_hits);
        registry.add("switch.l3_hits", self.l3_hits);
        registry.add("switch.tcam_hits", self.tcam_hits);
    }
}

/// Per-port (link) registers.
///
/// Naming follows the link's perspective, matching §2.2's
/// `[Link:RX-Utilization]` being RCP's y(t) (the *offered load* on the
/// link): `rx_*` counts bytes the link receives to carry (enqueued into
/// the egress port, including bytes later dropped by the queue), `tx_*`
/// counts bytes actually transmitted onto the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortStats {
    /// `Link:RX-Bytes` — bytes offered to this egress link.
    pub rx_bytes: u64,
    /// `Link:RX-Packets`.
    pub rx_packets: u64,
    /// `Link:TX-Bytes` — bytes transmitted.
    pub tx_bytes: u64,
    /// `Link:TX-Packets`.
    pub tx_packets: u64,
    /// `Link:BytesDropped` — bytes dropped at this port (queue overflow).
    pub bytes_dropped: u64,
    /// `Link:BytesEnqueued` — bytes accepted into the egress queues.
    pub bytes_enqueued: u64,
    /// `Link:EcnMarked` — packets ECN-marked at this egress port.
    pub ecn_marked: u64,
    /// `Link:SnrDeciBel` — signal-to-noise ratio of the attached link in
    /// deci-dB (tenths of a dB), for wireless egress ports. Updated by
    /// the radio (in the model: the experiment harness), read by TPPs —
    /// the §2.3 "access points can annotate end-host packets with
    /// channel SNR which changes very quickly" use case.
    pub snr_decidb: u32,
    /// `Link:RX-Utilization` in per-mille of capacity (EWMA). RCP's y(t).
    pub rx_utilization_permille: u32,
    /// `Link:TX-Utilization` in per-mille of capacity (EWMA).
    pub tx_utilization_permille: u32,
    /// Full-precision EWMA state behind the RX register.
    pub(crate) rx_utilization_ewma: f64,
    /// Full-precision EWMA state behind the TX register.
    pub(crate) tx_utilization_ewma: f64,
    /// Bytes offered since the last utilization tick (EWMA window input).
    pub(crate) rx_window_bytes: u64,
    /// Bytes transmitted since the last utilization tick.
    pub(crate) tx_window_bytes: u64,
    /// Timestamp of the last utilization tick, ns.
    pub(crate) last_tick_ns: u64,
}

impl PortStats {
    /// Export the port counters into a [`tpp_telemetry::MetricsRegistry`]
    /// under stable `port.*` names (summed across ports and switches;
    /// see [`SwitchRegs::export_metrics`]). Utilization EWMAs are
    /// observed as histogram samples so the aggregate view keeps the
    /// distribution, not just a meaningless sum.
    pub fn export_metrics(&self, registry: &mut tpp_telemetry::MetricsRegistry) {
        registry.add("port.rx_bytes", self.rx_bytes);
        registry.add("port.rx_packets", self.rx_packets);
        registry.add("port.tx_bytes", self.tx_bytes);
        registry.add("port.tx_packets", self.tx_packets);
        registry.add("port.bytes_dropped", self.bytes_dropped);
        registry.add("port.bytes_enqueued", self.bytes_enqueued);
        registry.add("port.ecn_marked", self.ecn_marked);
        registry.observe(
            "port.rx_utilization_permille",
            self.rx_utilization_permille as u64,
        );
        registry.observe(
            "port.tx_utilization_permille",
            self.tx_utilization_permille as u64,
        );
    }

    /// Fold the bytes seen since the last tick into the utilization EWMAs.
    ///
    /// Called periodically by the ASIC owner (the simulator); `alpha` is
    /// the EWMA weight of the newest sample and `capacity_kbps` the link
    /// rate. Idempotent for zero-length intervals.
    pub(crate) fn tick_utilization(&mut self, now_ns: u64, capacity_kbps: u32, alpha: f64) {
        let dt_ns = now_ns.saturating_sub(self.last_tick_ns);
        if dt_ns == 0 {
            return;
        }
        self.last_tick_ns = now_ns;
        let capacity_bits_per_ns = capacity_kbps as f64 * 1_000.0 / 1e9;
        let denom = capacity_bits_per_ns * dt_ns as f64;
        let rx_inst = (self.rx_window_bytes as f64 * 8.0 / denom) * 1000.0;
        let tx_inst = (self.tx_window_bytes as f64 * 8.0 / denom) * 1000.0;
        self.rx_window_bytes = 0;
        self.tx_window_bytes = 0;
        self.rx_utilization_ewma = ewma(self.rx_utilization_ewma, rx_inst, alpha);
        self.tx_utilization_ewma = ewma(self.tx_utilization_ewma, tx_inst, alpha);
        self.rx_utilization_permille = to_register(self.rx_utilization_ewma);
        self.tx_utilization_permille = to_register(self.tx_utilization_ewma);
    }
}

fn ewma(current: f64, sample: f64, alpha: f64) -> f64 {
    alpha * sample + (1.0 - alpha) * current
}

fn to_register(value: f64) -> u32 {
    // Truncate, so an EWMA decaying to zero reads zero rather than
    // sticking at 1 through round-half-up.
    value.clamp(0.0, u32::MAX as f64) as u32
}

/// Per-queue registers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueStats {
    /// `Queue:QueueSize` — instantaneous occupancy in bytes.
    pub queue_size_bytes: u64,
    /// `Queue:BytesEnqueued`.
    pub bytes_enqueued: u64,
    /// `Queue:BytesDropped`.
    pub bytes_dropped: u64,
    /// `Queue:PacketsEnqueued`.
    pub packets_enqueued: u64,
    /// `Queue:PacketsDropped`.
    pub packets_dropped: u64,
    /// `Queue:HighWatermark` — maximum occupancy ever observed, bytes.
    pub high_watermark_bytes: u64,
}

impl QueueStats {
    /// Export the queue counters into a [`tpp_telemetry::MetricsRegistry`]
    /// under stable `queue.*` names. Occupancy and high-watermark go in
    /// as histogram samples (one per queue per export), so the
    /// cross-switch aggregate exposes the *distribution* of queue state
    /// — the quantity the paper's microburst use case cares about.
    pub fn export_metrics(&self, registry: &mut tpp_telemetry::MetricsRegistry) {
        registry.add("queue.bytes_enqueued", self.bytes_enqueued);
        registry.add("queue.bytes_dropped", self.bytes_dropped);
        registry.add("queue.packets_enqueued", self.packets_enqueued);
        registry.add("queue.packets_dropped", self.packets_dropped);
        registry.observe("queue.depth_bytes", self.queue_size_bytes);
        registry.observe("queue.high_watermark_bytes", self.high_watermark_bytes);
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn utilization_tick_full_load() {
        // A 10 Mb/s port offered exactly 10 Mb/s for 1 ms reads ~1000 ‰
        // after enough ticks for the EWMA to converge.
        let mut stats = PortStats::default();
        let capacity_kbps = 10_000; // 10 Mb/s
        let mut now = 0u64;
        for _ in 0..32 {
            now += 1_000_000; // 1 ms
            stats.rx_window_bytes = 1250; // 10 Mb/s * 1 ms / 8
            stats.tick_utilization(now, capacity_kbps, 0.5);
        }
        assert!(
            (995..=1005).contains(&stats.rx_utilization_permille),
            "got {}",
            stats.rx_utilization_permille
        );
        assert_eq!(stats.tx_utilization_permille, 0);
    }

    #[test]
    fn utilization_half_load_and_decay() {
        let mut stats = PortStats::default();
        let mut now = 0u64;
        for _ in 0..32 {
            now += 1_000_000;
            stats.rx_window_bytes = 625; // half of 10 Mb/s
            stats.tick_utilization(now, 10_000, 0.5);
        }
        assert!((495..=505).contains(&stats.rx_utilization_permille));
        // Load vanishes: utilization must decay towards zero.
        for _ in 0..32 {
            now += 1_000_000;
            stats.tick_utilization(now, 10_000, 0.5);
        }
        assert_eq!(stats.rx_utilization_permille, 0);
    }

    #[test]
    fn zero_interval_tick_is_noop() {
        let mut stats = PortStats::default();
        stats.rx_window_bytes = 1000;
        stats.tick_utilization(0, 10_000, 0.5);
        assert_eq!(stats.rx_window_bytes, 1000, "window preserved");
        assert_eq!(stats.rx_utilization_permille, 0);
    }
}

//! §2.2 — RCP\*: "an end-host implementation of RCP".
//!
//! "The implementation consists of a rate limiter and a rate controller
//! at end-hosts for every flow. ... Each flow's rate controller
//! periodically queries and modifies network state in three phases."
//!
//! * **Phase 1 — Collect.** A TPP pushes, per hop: switch ID, queue size,
//!   the RX byte counter, link capacity, and the link's shared fair-share
//!   rate register. "The receiver simply echos a fully executed TPP back
//!   to the sender." Two deliberate deltas from the paper's 4-PUSH
//!   listing, both host-side choices the interface makes cheap: we push
//!   `Link:CapacityKbps` so heterogeneous links work without out-of-band
//!   knowledge (5 instructions — still exactly the §3.3 budget), and we
//!   read the *byte counter* rather than the `RX-Utilization` EWMA
//!   register, deriving y(t) from deltas between successive probes. The
//!   EWMA register quantizes too coarsely at per-ms granularity for a
//!   stable control loop (we measured ±40% sample noise); counting bytes
//!   over the control period is what hardware RCP itself does.
//! * **Phase 2 — Compute.** The sender runs the RCP control equation
//!   (shared, verbatim, with the in-router reference:
//!   [`tpp_rcp_ref::equation::rcp_update`]) for every link on the path.
//! * **Phase 3 — Update.** "Since the rate-controller clearly knows the
//!   bottleneck link from the values of R_link (the minimum), it sends a
//!   TPP that only executes on the bottleneck switch link": a `CEXEC` on
//!   the switch ID guarding a `STORE` to the rate register. "(Note that
//!   the end-host need not know the actual route to reach the bottleneck
//!   switch link.)"
//!
//! The flow's own pacing rate is min over links of R_link, applied to the
//! per-flow rate limiter ([`tpp_host::PacedSender`]).
//!
//! The fair-share registers live in per-link scratch SRAM
//! (`Link:Scratch[0]`, symbol `Link:RCP-RateRegister`, allocated by the
//! control-plane agent) and are initialized to link capacity: "we assume
//! a control plane program initializes each link's fair share rate to its
//! capacity" (§2.2, footnote 3). Units: kbit/s, so a u32 register covers
//! up to ~4 Tb/s.

use std::collections::BTreeMap;

use tpp_host::manager::NONCE_LEN;
use tpp_host::{
    parse_echo, split_hops, HopView, PacedSender, PathSample, ProbeBuilder, ProbeDelivery,
    ProbeManager, RetryPolicy, RttEstimator,
};
use tpp_isa::{Assembler, SymbolTable, VirtAddr};
use tpp_netsim::{HostApp, HostCtx};
use tpp_rcp_ref::equation::{rcp_update, RcpParams};
use tpp_wire::tpp::{TppPacket, WORD_SIZE};
use tpp_wire::{EthernetAddress, ETHERNET_HEADER_LEN};

/// The per-link SRAM word holding the RCP fair-share rate (allocated as
/// `Link:Scratch[0]` by the control plane).
pub const RCP_RATE_REGISTER: VirtAddr = VirtAddr(0x4000);

/// The per-link SRAM word holding the time (µs, wrapping u32) of the
/// most recent rate-register update by *any* flow (`Link:Scratch[1]`).
///
/// This second word is what makes many concurrent per-flow controllers
/// sum to one correctly-gained control loop: each flow scales its
/// multiplicative step by the time elapsed since the previous update,
/// whoever made it, so N flows updating N times as often each take steps
/// N times smaller. Without it the loop gain grows with the number of
/// flows and the shared register limit-cycles between its clamps.
pub const RCP_TS_REGISTER: VirtAddr = VirtAddr(0x4004);

/// Words pushed per hop by the collect TPP.
pub const COLLECT_WORDS_PER_HOP: usize = 7;

const TIMER_PACE: u64 = 1;
const TIMER_CONTROL: u64 = 2;

/// A symbol table with the control-plane RCP symbols registered.
pub fn rcp_symbols() -> SymbolTable {
    let mut table = SymbolTable::new();
    table.register("Link:RCP-RateRegister", RCP_RATE_REGISTER);
    table.register("Link:RCP-Timestamp", RCP_TS_REGISTER);
    table
}

/// Assembly source of the Phase-1 collect TPP ([`COLLECT_WORDS_PER_HOP`]
/// words per hop). `y_from_byte_counter` selects the offered-load
/// source (see [`RcpStarConfig::y_from_byte_counter`]).
fn collect_source(y_from_byte_counter: bool) -> String {
    let load_source = if y_from_byte_counter {
        "PUSH [Link:RX-Bytes]"
    } else {
        "PUSH [Link:RX-Utilization]"
    };
    format!(
        "PUSH [Switch:SwitchID]\n\
         PUSH [Link:QueueSize]\n\
         {load_source}\n\
         PUSH [Link:CapacityKbps]\n\
         PUSH [Link:RCP-RateRegister]\n\
         PUSH [Link:RCP-Timestamp]\n\
         PUSH [Switch:BootEpoch]"
    )
}

/// A ready-to-mint collect probe for the closed-loop transport: the
/// same 7-word program RCP\* Phase 1 uses, sized for `expected_hops`.
/// Send it with a [`rate_probe_payload`] so it rides its flow's ECMP
/// path, and decode the echo with [`decode_rate_echo`].
pub fn rate_collect_probe(expected_hops: usize) -> ProbeBuilder {
    let asm = Assembler::with_symbols(rcp_symbols());
    let collect = asm.assemble(&collect_source(true)).expect("static program");
    ProbeBuilder::stack(&collect, expected_hops)
}

/// Inner payload of a transport rate probe. Follows the flow-label
/// convention of `tpp-netsim::routing` (magic at bytes 0..2, flow key
/// at 16..24) so ECMP hashes the probe onto the same path as the
/// flow's data segments, and embeds the send timestamp at bytes 8..16
/// for RTT sampling from the echo. Byte 2 is zero, so the payload can
/// never be mistaken for a transport DATA/ACK segment.
pub fn rate_probe_payload(key: u64, now_ns: u64) -> [u8; 24] {
    let mut p = [0u8; 24];
    p[0] = 0xF1;
    p[1] = 0xC7;
    p[8..16].copy_from_slice(&now_ns.to_be_bytes());
    p[16..24].copy_from_slice(&key.to_be_bytes());
    p
}

/// Decoded feedback of one echoed transport rate probe. Borrows the
/// echo frame: the per-hop registers stay where the switches pushed
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateEcho<'a> {
    /// Path bottleneck rate, bits/s: the minimum over hops of the RCP
    /// fair-share register (capacity where the register reads wiped).
    pub rate_bps: u64,
    /// The flow key stamped into the probe payload.
    pub key: u64,
    /// The probe's send timestamp (RTT = receive time − this).
    pub sent_ns: u64,
    path: PathSample<'a>,
}

impl<'a> RateEcho<'a> {
    /// `(switch id, boot epoch)` per hop — reboot detection for the
    /// transport's path-epoch reset.
    pub fn epochs(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.path.hops().map(|h| (h.word(0), h.word(6)))
    }
}

/// The rate a collect record grants, bits/s: the hop's fair-share
/// register, or its capacity where the register reads 0 (wiped by a
/// reboot — falling back keeps the flow from stalling). `None` for a hop
/// that reports no capacity.
fn granted_bps(hop: &HopView<'_>) -> Option<u64> {
    let cap = hop.word(3) as u64 * 1_000;
    let reg = hop.word(4) as u64 * 1_000;
    (cap > 0).then_some(if reg == 0 { cap } else { reg })
}

/// Decode an echoed [`rate_collect_probe`] frame addressed to `my_mac`.
///
/// Returns `None` for anything that is not a fully-executed, echoed
/// collect probe carrying a [`rate_probe_payload`]. This is the
/// native-mode Phase-1 read (the paper's in-band mechanism): the rate
/// comes from the registers the TPP gathered, not from simulator
/// ground truth.
pub fn decode_rate_echo(frame: &[u8], my_mac: EthernetAddress) -> Option<RateEcho<'_>> {
    let tpp = parse_echo(frame, my_mac)?;
    let path = split_hops(&tpp, COLLECT_WORDS_PER_HOP)?;
    let inner = tpp.inner_payload();
    if inner.len() < 24 || inner[0..2] != [0xF1, 0xC7] {
        return None;
    }
    Some(RateEcho {
        rate_bps: path.hops().filter_map(|h| granted_bps(&h)).min()?,
        key: u64::from_be_bytes(inner[16..24].try_into().expect("length checked")),
        sent_ns: u64::from_be_bytes(inner[8..16].try_into().expect("length checked")),
        path,
    })
}

/// Configuration of one RCP\* flow.
#[derive(Debug, Clone, Copy)]
pub struct RcpStarConfig {
    /// RCP gain α (paper: 0.5).
    pub alpha: f64,
    /// RCP gain β (paper: 1.0).
    pub beta: f64,
    /// Control period: probe + update interval, ns.
    pub period_ns: u64,
    /// RTT assumed before the first measurement, ns.
    pub initial_rtt_ns: u64,
    /// Data payload size, bytes.
    pub payload_len: usize,
    /// Sending rate before the first feedback arrives, bits/s.
    pub init_rate_bps: u64,
    /// Packet-memory sizing: maximum hops on the path (§2.1
    /// preallocation rule).
    pub expected_hops: usize,
    /// When the flow starts, ns.
    pub start_ns: u64,
    /// When the flow stops (`u64::MAX` = never).
    pub stop_ns: u64,
    /// EWMA weight for per-link queue averaging across probes
    /// (Phase 2 "computes the average queue sizes").
    pub queue_ewma_alpha: f64,
    /// Derive y(t) from `Link:RX-Bytes` counter deltas (default) instead
    /// of the coarse `Link:RX-Utilization` EWMA register. Ablation knob.
    pub y_from_byte_counter: bool,
    /// Scale each update's gain by the time since *any* flow last wrote
    /// the register (the shared-timestamp scheme; default). When off,
    /// every flow applies a full control period of gain and the shared
    /// register limit-cycles as flow count grows. Ablation knob.
    pub gain_normalization: bool,
    /// Bound each multiplicative rate step to [1/2, 2] (default). When
    /// off, a transient queue spike can crash the rate to the floor.
    /// Ablation knob.
    pub step_clamp: bool,
    /// Finite flow size: stop after this many payload bytes (`None` =
    /// long-lived). Used by the flow-completion-time experiments.
    pub stop_after_bytes: Option<u64>,
    /// When true (default), the end-host runs Phases 2 and 3 — the full
    /// RCP\* refactoring. When false, the sender only *reads* the rate
    /// register and paces at the path minimum: the sender half of the
    /// "native RCP router" counterfactual, where the ASIC computes the
    /// law itself and TPPs merely distribute the result.
    pub compute_updates: bool,
}

impl Default for RcpStarConfig {
    fn default() -> Self {
        RcpStarConfig {
            alpha: 0.5,
            beta: 1.0,
            period_ns: 10_000_000, // 10 ms
            initial_rtt_ns: 5_000_000,
            payload_len: 1000,
            init_rate_bps: 500_000,
            expected_hops: 4,
            start_ns: 0,
            stop_ns: u64::MAX,
            queue_ewma_alpha: 0.5,
            y_from_byte_counter: true,
            gain_normalization: true,
            step_clamp: true,
            stop_after_bytes: None,
            compute_updates: true,
        }
    }
}

/// Per-link state a flow maintains from collect echoes.
#[derive(Debug, Clone, Copy)]
struct LinkView {
    switch_id: u32,
    capacity_bps: f64,
    q_ewma_bytes: f64,
    /// Last raw `Link:RX-Bytes` reading (wrapping u32) and its time.
    prev_counter: Option<(u32, u64)>,
    y_ewma_bps: Option<f64>,
    last_register_bps: f64,
    r_computed_bps: f64,
}

/// One RCP\* sender: rate limiter + rate controller for a single flow.
#[derive(Debug)]
pub struct RcpStarSender {
    config: RcpStarConfig,
    dst: EthernetAddress,
    sender: PacedSender,
    collect_probe: ProbeBuilder,
    /// The Phase-3 update TPP; words 1..4 of its packet memory (target
    /// switch, rate, timestamp) are patched into each minted frame.
    update_probe: ProbeBuilder,
    rtt: RttEstimator,
    probes: ProbeManager,
    /// Keyed by hop index (stable for a fixed path).
    links: BTreeMap<usize, LinkView>,
    /// `(time ns, rate bps)` at every control decision — the Figure 2
    /// series.
    pub rate_trace: Vec<(u64, u64)>,
    /// Collect echoes processed.
    pub feedback_count: u64,
    /// Update TPPs sent.
    pub updates_sent: u64,
    /// When the flow finished sending its `stop_after_bytes` (ns).
    pub completed_at: Option<u64>,
    running: bool,
}

impl RcpStarSender {
    /// A flow towards `dst`.
    pub fn new(dst: EthernetAddress, config: RcpStarConfig) -> Self {
        let asm = Assembler::with_symbols(rcp_symbols());
        let collect = asm
            .assemble(&collect_source(config.y_from_byte_counter))
            .expect("static program");
        let update = asm
            .assemble(
                "CEXEC [Switch:SwitchID], [Packet:0]\n\
                 STORE [Link:RCP-RateRegister], [Packet:2]\n\
                 STORE [Link:RCP-Timestamp], [Packet:3]",
            )
            .expect("static program");
        RcpStarSender {
            sender: PacedSender::new(
                dst,
                config.payload_len,
                config.init_rate_bps,
                config.start_ns,
            ),
            collect_probe: ProbeBuilder::stack(&collect, config.expected_hops),
            update_probe: ProbeBuilder::stack(&update, 1).init_memory(&[0xffff_ffff, 0, 0, 0]),
            rtt: RttEstimator::new(),
            // Periodic probes are never re-sent — the next control round
            // supersedes them — but the nonce layer still dedups echoes
            // duplicated in flight, and expiry counts lost probes.
            probes: ProbeManager::new(RetryPolicy {
                timeout_ns: 2 * config.period_ns,
                max_retries: 0,
                jitter_permille: 0,
            }),
            links: BTreeMap::new(),
            rate_trace: Vec::new(),
            feedback_count: 0,
            updates_sent: 0,
            completed_at: None,
            running: false,
            config,
            dst,
        }
    }

    /// Current pacing rate, bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.sender.rate_bps()
    }

    /// Total payload bytes released.
    pub fn bytes_sent(&self) -> u64 {
        self.sender.bytes_sent
    }

    /// The reliability layer's counters (lost probes, dedup hits,
    /// boot-epoch changes observed).
    pub fn probe_stats(&self) -> tpp_host::ProbeStats {
        self.probes.stats()
    }

    /// The flow's current view of its bottleneck: `(switch id, R bps)`.
    pub fn bottleneck(&self) -> Option<(u32, f64)> {
        self.links
            .values()
            .min_by(|a, b| a.r_computed_bps.total_cmp(&b.r_computed_bps))
            .map(|l| (l.switch_id, l.r_computed_bps))
    }

    /// True once the flow has sent its full size (finite flows only).
    pub fn finished(&self) -> bool {
        self.completed_at.is_some()
    }

    fn pace(&mut self, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.config.stop_ns || self.finished() {
            self.running = false;
            return;
        }
        let now = ctx.now();
        while let Some(frame) = self.sender.poll(now, ctx.mac(), |n| ctx.alloc_frame(n)) {
            ctx.send(frame);
            if let Some(target) = self.config.stop_after_bytes {
                if self.sender.bytes_sent >= target {
                    self.completed_at = Some(now);
                    self.running = false;
                    return;
                }
            }
        }
        let next = self.sender.next_tx_ns().saturating_sub(now).max(1);
        ctx.set_timer(next, TIMER_PACE);
    }

    /// Phase 1: send the collect probe (timestamped for RTT measurement).
    fn control(&mut self, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.config.stop_ns || self.finished() {
            self.running = false;
            return;
        }
        let stamp = ctx.now().to_be_bytes();
        self.probes.track_probe(
            &self.collect_probe,
            self.dst,
            &stamp,
            tpp_host::DATA_ETHERTYPE.0,
            ctx,
        );
        ctx.set_timer(self.config.period_ns, TIMER_CONTROL);
    }

    /// Phases 2 + 3, on a collect echo.
    fn on_feedback(&mut self, frame: &[u8], ctx: &mut HostCtx<'_>) {
        let Some(tpp) = parse_echo(frame, ctx.mac()) else {
            return;
        };
        let Some(sample) = split_hops(&tpp, COLLECT_WORDS_PER_HOP) else {
            return;
        };
        // RTT from the echoed timestamp we embedded in the inner payload.
        let inner = tpp.inner_payload();
        if inner.len() >= 8 {
            let sent = u64::from_be_bytes(inner[0..8].try_into().expect("8 bytes"));
            self.rtt.on_sample(ctx.now().saturating_sub(sent));
        }
        if sample.hop_count() == 0 {
            return;
        }
        self.feedback_count += 1;

        if !self.config.compute_updates {
            // Native-router mode: the register already holds the fair
            // share; just obey the path minimum.
            let r_min = sample.hops().filter_map(|h| granted_bps(&h)).min();
            if let Some(r) = r_min {
                self.sender.set_rate_bps(r.max(1_000), ctx.now());
                self.rate_trace.push((ctx.now(), r));
                if !self.running {
                    self.running = true;
                    ctx.set_timer(1, TIMER_PACE);
                }
            }
            return;
        }

        // --- Phase 2: Compute. ---
        let period_s = self.config.period_ns as f64 / 1e9;
        // RCP assumes at most one update per RTT (T <= d); when probes
        // run slower than the RTT, the effective d is the control period
        // or the loop gain T/d exceeds 1 and the rate limit-cycles.
        let rtt_s = (self.rtt.srtt_or(self.config.initial_rtt_ns) as f64 / 1e9).max(period_s);
        let now = ctx.now();
        for hop in sample.hops() {
            let Some([sid, q_bytes, rx_bytes, cap_kbps, reg_kbps, reg_ts_us, epoch]) = hop.array()
            else {
                continue;
            };
            let capacity_bps = cap_kbps as f64 * 1e3;
            if capacity_bps <= 0.0 {
                continue;
            }
            if self.probes.note_epoch(sid, epoch, ctx) {
                // The switch rebooted and lost its SRAM: the cached view
                // (byte-counter baseline, EWMAs) describes the previous
                // boot. Drop it and re-seed from this echo.
                self.links.remove(&hop.hop);
            }
            // A zero rate register is wiped state (the control plane
            // seeds it to capacity at boot, §2.2 footnote 3): re-seed
            // the control law from capacity, exactly like a fresh start.
            let reg_kbps = if reg_kbps == 0 { cap_kbps } else { reg_kbps };
            let view = self.links.entry(hop.hop).or_insert(LinkView {
                switch_id: sid,
                capacity_bps,
                q_ewma_bytes: q_bytes as f64,
                prev_counter: None,
                y_ewma_bps: None,
                last_register_bps: reg_kbps as f64 * 1e3,
                r_computed_bps: capacity_bps,
            });
            view.switch_id = sid;
            view.capacity_bps = capacity_bps;
            let a = self.config.queue_ewma_alpha;
            view.q_ewma_bytes = a * q_bytes as f64 + (1.0 - a) * view.q_ewma_bytes;
            view.last_register_bps = reg_kbps as f64 * 1e3;

            // Offered load y(t): either from the wrapping byte counter
            // delta between successive probes (precise; default), or
            // straight from the utilization EWMA register (ablation).
            let y_sample_bps = if self.config.y_from_byte_counter {
                let Some((prev_bytes, prev_t)) = view.prev_counter.replace((rx_bytes, now)) else {
                    continue; // first reading: no delta yet
                };
                let dt_s = now.saturating_sub(prev_t) as f64 / 1e9;
                if dt_s <= 0.0 {
                    continue;
                }
                rx_bytes.wrapping_sub(prev_bytes) as f64 * 8.0 / dt_s
            } else {
                // `rx_bytes` carries the RX-Utilization per-mille here.
                rx_bytes as f64 / 1000.0 * capacity_bps
            };
            let y_bps = match view.y_ewma_bps {
                Some(prev) => 0.5 * y_sample_bps + 0.5 * prev,
                None => y_sample_bps,
            };
            view.y_ewma_bps = Some(y_bps);

            // Effective control interval: time since *any* flow last
            // updated this link's register (measured in switch-visible
            // wrapping microseconds), capped at our own probe period.
            let t_eff_s = if self.config.gain_normalization {
                let now_us = (now / 1_000) as u32;
                (now_us.wrapping_sub(reg_ts_us) as f64 / 1e6)
                    .min(period_s)
                    .max(1e-6)
            } else {
                period_s
            };
            let params = RcpParams {
                alpha: self.config.alpha,
                beta: self.config.beta,
                period_s: t_eff_s,
                rtt_s: rtt_s.max(t_eff_s),
                capacity_bps,
                min_rate_bps: capacity_bps * 1e-3,
                step_bound: if self.config.step_clamp {
                    2.0
                } else {
                    f64::INFINITY
                },
            };
            view.r_computed_bps =
                rcp_update(view.last_register_bps, y_bps, view.q_ewma_bytes, &params);
        }

        // --- Phase 3: Update the bottleneck's register. ---
        let Some((bottleneck_sid, r_min_bps)) = self.bottleneck() else {
            return;
        };
        let r_kbps = (r_min_bps / 1e3).round().max(1.0) as u32;
        let now_us = (ctx.now() / 1_000) as u32;
        let mut update = ctx.alloc_frame(self.update_probe.frame_len(0) + NONCE_LEN);
        self.update_probe
            .write_frame(self.dst, ctx.mac(), &[], 0, &mut update);
        let mut memory = TppPacket::new_unchecked(&mut update[ETHERNET_HEADER_LEN..]);
        for (word, value) in [(1, bottleneck_sid), (2, r_kbps), (3, now_us)] {
            memory
                .write_word(word * WORD_SIZE, value)
                .expect("initialized above");
        }
        self.probes.track(update, ctx);
        self.updates_sent += 1;

        // The flow itself obeys the minimum along the path.
        self.sender.set_rate_bps(r_min_bps as u64, ctx.now());
        self.rate_trace.push((ctx.now(), r_min_bps as u64));
        if !self.running {
            // (Re)start pacing if feedback arrives while the pacer is
            // idle (e.g. the very first feedback).
            self.running = true;
            ctx.set_timer(1, TIMER_PACE);
        }
    }
}

impl HostApp for RcpStarSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.running = true;
        ctx.set_timer(self.config.start_ns, TIMER_PACE);
        ctx.set_timer(self.config.start_ns, TIMER_CONTROL);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        match token {
            TIMER_PACE => self.pace(ctx),
            TIMER_CONTROL => self.control(ctx),
            t if ProbeManager::is_timer(t) => {
                // Expired probes are only counted (stats.timeouts): the
                // periodic control loop re-probes on its own schedule.
                let _ = self.probes.on_timer(ctx);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        match self.probes.on_frame(&frame, ctx) {
            // A late echo (RTT spiked past the probe timeout) is still
            // this round's only copy of the feedback — exactly when the
            // controller most needs to see the queue and back off.
            ProbeDelivery::Fresh { .. } | ProbeDelivery::Late { .. } => {
                self.on_feedback(&frame, ctx)
            }
            // A duplicated or stale echo must not feed the control loop
            // twice (a double byte-counter delta would halve y(t)).
            ProbeDelivery::Duplicate { .. } | ProbeDelivery::NotAProbe => {}
        }
        ctx.recycle_frame(frame);
    }
}

/// Initialize the RCP rate registers of every port of a switch to that
/// port's capacity (the §2.2 footnote-3 control-plane step). Call once
/// per switch before the run.
pub fn init_rate_registers(asic: &mut tpp_asic::Asic) {
    for port in 0..asic.num_ports() as tpp_asic::PortId {
        let kbps = asic.port_capacity_kbps(port);
        asic.link_sram_mut(port)
            .and_then(|mut sram| sram.set_word(RCP_RATE_REGISTER.word_index(), kbps))
            .expect("RCP rate register out of the link SRAM region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_host::EchoReceiver;
    use tpp_netsim::RunLimit;
    use tpp_netsim::{dumbbell, time, DumbbellParams, Simulator};

    /// A 10 Mb/s dumbbell with `n` RCP* flows starting at the given
    /// times; returns the simulator and handles.
    fn rcp_net(starts_ns: &[u64]) -> (Simulator, tpp_netsim::Dumbbell) {
        let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = starts_ns
            .iter()
            .enumerate()
            .map(|(i, start)| {
                let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
                let cfg = RcpStarConfig {
                    start_ns: *start,
                    ..Default::default()
                };
                (
                    Box::new(RcpStarSender::new(dst, cfg)) as Box<dyn HostApp>,
                    Box::new(EchoReceiver::default()) as Box<dyn HostApp>,
                )
            })
            .collect();
        let (mut sim, bell) = dumbbell(
            DumbbellParams {
                n_pairs: starts_ns.len(),
                ..Default::default()
            },
            apps,
        );
        for sw in [bell.left, bell.right] {
            init_rate_registers(sim.switch_mut(sw));
        }
        (sim, bell)
    }

    fn mean_rate_in_window(trace: &[(u64, u64)], lo_ns: u64, hi_ns: u64) -> Option<f64> {
        let w: Vec<u64> = trace
            .iter()
            .filter(|(t, _)| *t >= lo_ns && *t < hi_ns)
            .map(|(_, r)| *r)
            .collect();
        if w.is_empty() {
            return None;
        }
        Some(w.iter().sum::<u64>() as f64 / w.len() as f64)
    }

    #[test]
    fn single_flow_converges_to_capacity() {
        let (mut sim, bell) = rcp_net(&[0]);
        sim.run(RunLimit::Until(time::secs(5)));
        let sender = sim.host_app::<RcpStarSender>(bell.senders[0]);
        assert!(sender.feedback_count > 100, "control loop ran");
        assert!(sender.updates_sent > 100, "phase 3 ran");
        let late =
            mean_rate_in_window(&sender.rate_trace, time::secs(3), time::secs(5)).expect("samples");
        let r_over_c = late / 10e6;
        assert!(
            (r_over_c - 1.0).abs() < 0.1,
            "single flow should get the whole link, got R/C = {r_over_c}"
        );
    }

    #[test]
    fn second_flow_halves_the_rate() {
        let (mut sim, bell) = rcp_net(&[0, time::secs(5)]);
        sim.run(RunLimit::Until(time::secs(10)));
        let s0 = sim.host_app::<RcpStarSender>(bell.senders[0]);
        let late0 =
            mean_rate_in_window(&s0.rate_trace, time::secs(8), time::secs(10)).expect("samples");
        let s1 = sim.host_app::<RcpStarSender>(bell.senders[1]);
        let late1 =
            mean_rate_in_window(&s1.rate_trace, time::secs(8), time::secs(10)).expect("samples");
        for (name, rate) in [("flow0", late0), ("flow1", late1)] {
            let r_over_c = rate / 10e6;
            assert!(
                (r_over_c - 0.5).abs() < 0.12,
                "{name}: expected ~C/2, got R/C = {r_over_c}"
            );
        }
    }

    #[test]
    fn bottleneck_identified_and_register_written() {
        let (mut sim, bell) = rcp_net(&[0]);
        sim.run(RunLimit::Until(time::secs(2)));
        let sender = sim.host_app::<RcpStarSender>(bell.senders[0]);
        let (sid, _) = sender.bottleneck().expect("bottleneck known");
        // The left switch (id 1) owns the 10 Mb/s egress on this path.
        assert_eq!(sid, 1, "bottleneck is the left switch's egress");
        // And its rate register was actually rewritten below capacity.
        let reg = sim
            .switch(bell.left)
            .link_sram(bell.bottleneck_port)
            .and_then(|s| s.word(RCP_RATE_REGISTER.word_index()))
            .unwrap();
        assert!(reg > 0 && reg <= 10_000, "register holds kbps: {reg}");
    }

    #[test]
    fn queues_stay_small_in_steady_state() {
        let (mut sim, bell) = rcp_net(&[0, 0, 0]);
        sim.run(RunLimit::Until(time::secs(6)));
        // After convergence the bottleneck queue should be nearly empty —
        // the RCP promise (vs AIMD's standing queues).
        let q = sim
            .switch(bell.left)
            .queue_len_bytes(bell.bottleneck_port, 0);
        assert!(q < 30_000, "standing queue of {q} bytes");
        // And the three flows got roughly C/3 each (goodput check).
        for r in &bell.receivers {
            let echo = sim.host_app::<EchoReceiver>(*r);
            let goodput = echo.data_bytes as f64 * 8.0 / 6.0;
            assert!(
                goodput > 0.2 * 10e6 && goodput < 0.45 * 10e6,
                "goodput {goodput:.0} not near C/3"
            );
        }
    }
}

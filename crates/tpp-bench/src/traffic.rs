//! Seeded traffic-matrix engine for the datacenter FCT benchmark.
//!
//! Flow sizes are drawn from the two empirical datacenter distributions
//! every congestion-control paper since has benchmarked against:
//!
//! * **web-search** — the production cluster of the DCTCP paper
//!   (Alizadeh et al., SIGCOMM'10): a mixed mice/elephant CDF whose
//!   byte count is dominated by a heavy >1 MB tail;
//! * **data-mining** — the VL2 paper (Greenberg et al., SIGCOMM'09):
//!   over 80 % of flows under ~4 KB, with a very long sparse tail.
//!
//! Both are encoded as inverse-CDF breakpoint tables and sampled by
//! linear interpolation, so a uniform `u ∈ [0,1)` maps to a flow size
//! in bytes. The [`FlowGenApp`] host app plays a pre-generated schedule
//! of such flows (open-loop, paced by the NIC) and records
//! flow-completion times at the receiving side; everything is seeded
//! through a splitmix64 stream, so a `(seed, host)` pair always yields
//! the same schedule regardless of shard count or threading.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use tpp_apps::rcpstar::init_rate_registers;
use tpp_apps::{decode_rate_echo, rate_collect_probe, rate_probe_payload, RateEcho};
use tpp_host::transport::{
    self, segments_for, AckOutcome, FlowReceiver, FlowSender, RtoOutcome, SegmentHdr,
    TransportConfig, TransportStats, TRANSPORT_ETHERTYPE,
};
use tpp_host::{echo_in_place, ProbeBuilder, DATA_ETHERTYPE};
use tpp_netsim::{
    fat_tree_with, FatTree, FatTreeParams, HostApp, HostCtx, SimConfig, Simulator, SwitchId,
};
use tpp_wire::ethernet::{EtherType, Frame, ETHERNET_HEADER_LEN};
use tpp_wire::EthernetAddress;

/// Ethertype of benchmark data frames (plain, non-TPP traffic).
pub const FCT_ETHERTYPE: EtherType = EtherType(0x0802);

/// Payload bytes per full-size frame (1500 B on the wire with the
/// Ethernet header and the flow metadata header).
pub const FRAME_PAYLOAD: usize = 1486 - META_LEN;

/// Bytes of flow metadata at the start of every benchmark frame.
pub const META_LEN: usize = 24;

/// Bytes a closed-loop segment's frame head holds: the Ethernet and
/// transport headers ([`SegmentHdr::write_frame`]); a data segment's
/// body follows as a tail.
const SEGMENT_HEAD: usize = ETHERNET_HEADER_LEN + transport::HDR_LEN;

const META_MAGIC: u16 = 0xF1C7;
const FLAG_LAST: u8 = 1 << 0;
const FLAG_MINING: u8 = 1 << 1;

/// The one seeded mixer every draw in the engine goes through.
pub use tpp_host::splitmix64;

/// A splitmix64-sequence RNG: `state` advances by the golden-ratio
/// increment, each output is one mix of it.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeded stream; distinct seeds give independent streams.
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: splitmix64(seed),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        // Multiply-shift; bias is negligible for benchmark-sized n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Which empirical flow-size CDF a flow draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSizeDist {
    /// DCTCP web-search workload.
    WebSearch,
    /// VL2 data-mining workload.
    DataMining,
}

/// `(cdf, bytes)` breakpoints; the widely used approximations of the
/// published curves (as shipped with public DCTCP/VL2 simulators).
const WEB_SEARCH_CDF: &[(f64, f64)] = &[
    (0.0, 1_000.0),
    (0.05, 2_000.0),
    (0.10, 3_000.0),
    (0.20, 5_000.0),
    (0.30, 7_000.0),
    (0.40, 10_000.0),
    (0.53, 20_000.0),
    (0.60, 30_000.0),
    (0.70, 50_000.0),
    (0.80, 80_000.0),
    (0.90, 200_000.0),
    (0.97, 1_000_000.0),
    (0.99, 2_000_000.0),
    (1.0, 10_000_000.0),
];

const DATA_MINING_CDF: &[(f64, f64)] = &[
    (0.0, 100.0),
    (0.10, 180.0),
    (0.20, 250.0),
    (0.40, 560.0),
    (0.50, 900.0),
    (0.60, 1_100.0),
    (0.70, 1_870.0),
    (0.80, 3_160.0),
    (0.90, 10_000.0),
    (0.95, 400_000.0),
    (0.98, 3_160_000.0),
    (1.0, 100_000_000.0),
];

impl FlowSizeDist {
    fn table(self) -> &'static [(f64, f64)] {
        match self {
            FlowSizeDist::WebSearch => WEB_SEARCH_CDF,
            FlowSizeDist::DataMining => DATA_MINING_CDF,
        }
    }

    /// Inverse-CDF sample: map uniform `u ∈ [0,1)` to bytes by linear
    /// interpolation between breakpoints.
    pub fn sample_bytes(self, u: f64) -> u64 {
        let t = self.table();
        let u = u.clamp(0.0, 1.0);
        for w in t.windows(2) {
            let (c0, b0) = w[0];
            let (c1, b1) = w[1];
            if u <= c1 {
                let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 0.0 };
                return (b0 + frac * (b1 - b0)) as u64;
            }
        }
        t.last().expect("non-empty table").1 as u64
    }
}

/// One scheduled flow of a [`FlowGenApp`].
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Absolute start time, ns.
    pub start_ns: u64,
    /// Destination host MAC.
    pub dst: EthernetAddress,
    /// Flow size, bytes (post scale/cap).
    pub bytes: u32,
    /// Fleet-unique flow key: `src_index << 32 | flow_ordinal`.
    pub key: u64,
    /// Drawn from the data-mining CDF (else web-search).
    pub mining: bool,
}

/// Knobs of the schedule generator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; each `(seed, src_index)` pair is an independent
    /// stream.
    pub seed: u64,
    /// Flows generated per source host.
    pub flows_per_host: usize,
    /// Mean inter-arrival gap per host, ns (exponential).
    pub mean_gap_ns: u64,
    /// Sampled sizes are divided by this (tractability knob for the
    /// simulated-byte volume; 1 = the published curves verbatim).
    pub size_scale_div: u64,
    /// Sizes are clamped to `[min_bytes, cap_bytes]` after scaling.
    pub cap_bytes: u64,
    /// Lower clamp, bytes.
    pub min_bytes: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0xFC7_BEEF,
            flows_per_host: 1000,
            mean_gap_ns: 90_000,
            size_scale_div: 16,
            cap_bytes: 64 * 1024,
            min_bytes: 512,
        }
    }
}

/// Generate the seeded flow schedule of one source host. `src_index`
/// indexes `dst_macs` (the flow-generating hosts, including the source
/// itself — self-flows are skipped by drawing from the other entries).
pub fn generate_schedule(
    cfg: &TrafficConfig,
    src_index: u32,
    dst_macs: &[EthernetAddress],
    dist: FlowSizeDist,
) -> Vec<Flow> {
    assert!(
        dst_macs.len() >= 2,
        "need at least one non-self destination"
    );
    let mut rng = Rng64::new(splitmix64(cfg.seed ^ ((src_index as u64) << 1 | 1)));
    let mut t = 0u64;
    let mut out = Vec::with_capacity(cfg.flows_per_host);
    for i in 0..cfg.flows_per_host {
        let gap = -(1.0 - rng.next_f64()).ln() * cfg.mean_gap_ns as f64;
        t += gap as u64;
        let mut j = rng.next_below(dst_macs.len() as u64 - 1) as usize;
        if j >= src_index as usize {
            j += 1;
        }
        let raw = dist.sample_bytes(rng.next_f64());
        let bytes = (raw / cfg.size_scale_div).clamp(cfg.min_bytes, cfg.cap_bytes) as u32;
        out.push(Flow {
            start_ns: t,
            dst: dst_macs[j],
            bytes,
            key: ((src_index as u64) << 32) | i as u64,
            mining: dist == FlowSizeDist::DataMining,
        });
    }
    out
}

/// The seeded schedules of the hosts `macs`, one per index (even indices
/// draw web-search sizes, odd ones data-mining):
/// `(schedules, flows_total, last_start_ns)`.
pub fn flow_schedules(
    traffic: &TrafficConfig,
    macs: &[EthernetAddress],
) -> (Vec<Vec<Flow>>, u64, u64) {
    let schedules: Vec<Vec<Flow>> = (0..macs.len())
        .map(|i| {
            let dist = [FlowSizeDist::WebSearch, FlowSizeDist::DataMining][i % 2];
            generate_schedule(traffic, i as u32, macs, dist)
        })
        .collect();
    let flows_total = schedules.iter().map(|s| s.len() as u64).sum();
    let last_start = schedules.iter().filter_map(|s| s.last());
    let last_start = last_start.map(|f| f.start_ns).max().unwrap_or(0);
    (schedules, flows_total, last_start)
}

/// A completed flow, recorded at the *receiving* host.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The flow key from the sender's schedule.
    pub key: u64,
    /// Flow size, bytes.
    pub bytes: u32,
    /// Drawn from the data-mining CDF.
    pub mining: bool,
    /// Flow-completion time: last-byte arrival minus scheduled start.
    pub fct_ns: u64,
}

/// Open-loop traffic source + FCT-recording sink, one per benchmark
/// host. Sending is paced by the host NIC (frames of a flow are
/// enqueued back-to-back and serialize at line rate, in order; the
/// single-path L2 fabric preserves ordering), so the final frame's
/// arrival *is* flow completion — the receiver needs no reassembly
/// state, every frame carries its flow metadata.
///
/// A frame is written as its 38-byte head, Ethernet plus the metadata,
/// and its body of zeros is sent as a tail
/// ([`HostCtx::send_with_tail`]): the wire, the switch queues and the
/// FCTs count 1,500-byte frames, but a queued frame holds one small
/// buffer. The receiver reads the metadata only, which is in the head.
#[derive(Debug, Default)]
pub struct FlowGenApp {
    schedule: Vec<Flow>,
    next: usize,
    /// Flows whose frames have been handed to the NIC.
    pub flows_started: u64,
    /// Data frames sent.
    pub frames_sent: u64,
    /// Flows that completed *at this host* (i.e. it was the receiver).
    pub completions: Vec<Completion>,
}

impl FlowGenApp {
    /// An app that plays `schedule` (must be sorted by start time).
    pub fn new(schedule: Vec<Flow>) -> Self {
        debug_assert!(schedule.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        FlowGenApp {
            schedule,
            ..Default::default()
        }
    }

    fn send_flow(&mut self, flow: Flow, ctx: &mut HostCtx<'_>) {
        let total = flow.bytes as usize;
        let n_frames = total.div_ceil(FRAME_PAYLOAD).max(1);
        let mut remaining = total;
        for i in 0..n_frames {
            let last = i + 1 == n_frames;
            let body = remaining.min(FRAME_PAYLOAD);
            remaining -= body;
            let head = ETHERNET_HEADER_LEN + META_LEN;
            let mut buf = ctx.alloc_frame(head);
            buf.resize(head, 0);
            let mut eth = Frame::new_unchecked(&mut buf[..]);
            eth.set_dst_addr(flow.dst);
            eth.set_src_addr(ctx.mac());
            eth.set_ethertype(FCT_ETHERTYPE);
            let p = eth.payload_mut();
            p[0..2].copy_from_slice(&META_MAGIC.to_be_bytes());
            p[2] = if last { FLAG_LAST } else { 0 } | if flow.mining { FLAG_MINING } else { 0 };
            p[3] = 0;
            p[4..8].copy_from_slice(&flow.bytes.to_be_bytes());
            p[8..16].copy_from_slice(&flow.start_ns.to_be_bytes());
            p[16..24].copy_from_slice(&flow.key.to_be_bytes());
            ctx.send_with_tail(0, buf, body as u32);
            self.frames_sent += 1;
        }
        self.flows_started += 1;
    }

    fn arm(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some(flow) = self.schedule.get(self.next) {
            let delay = flow.start_ns.saturating_sub(ctx.now()).max(1);
            ctx.set_timer(delay, 0);
        }
    }
}

impl HostApp for FlowGenApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        while self
            .schedule
            .get(self.next)
            .is_some_and(|f| f.start_ns <= ctx.now())
        {
            let flow = self.schedule[self.next];
            self.next += 1;
            self.send_flow(flow, ctx);
        }
        self.arm(ctx);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if frame.len() >= ETHERNET_HEADER_LEN + META_LEN {
            let eth = Frame::new_unchecked(&frame[..]);
            if eth.ethertype() == FCT_ETHERTYPE {
                let p = eth.payload();
                if u16::from_be_bytes([p[0], p[1]]) == META_MAGIC && p[2] & FLAG_LAST != 0 {
                    let bytes = u32::from_be_bytes([p[4], p[5], p[6], p[7]]);
                    let start_ns = u64::from_be_bytes(p[8..16].try_into().expect("8 bytes"));
                    let key = u64::from_be_bytes(p[16..24].try_into().expect("8 bytes"));
                    self.completions.push(Completion {
                        key,
                        bytes,
                        mining: p[2] & FLAG_MINING != 0,
                        fct_ns: ctx.now().saturating_sub(start_ns),
                    });
                }
            }
        }
        ctx.recycle_frame(frame);
    }
}

/// Knobs of the closed-loop traffic driver ([`ClosedFlowGenApp`]).
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Transport tuning shared by every flow (sender *and* receiver
    /// sides must agree on `mss`).
    pub transport: TransportConfig,
    /// Per-flow rate-probe period, ns. A collect probe is sent at flow
    /// start and then every period while the flow is outstanding.
    pub probe_period_ns: u64,
    /// Hop budget compiled into the collect probe (packet memory is
    /// sized for this many switches on the path).
    pub probe_hops: usize,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            transport: TransportConfig::default(),
            probe_period_ns: 200_000,
            probe_hops: 5,
        }
    }
}

/// Sender-side state of one outstanding closed-loop flow.
#[derive(Debug)]
struct FlowState {
    dst: EthernetAddress,
    sender: FlowSender,
    next_probe_ns: u64,
}

/// Closed-loop traffic source + sink: the same seeded [`Flow`] schedule
/// as [`FlowGenApp`], but every flow runs through the loss-recovering
/// `tpp-host` transport ([`FlowSender`]/[`FlowReceiver`]) instead of
/// being blasted open-loop. Each active flow also sends periodic TPP
/// collect probes ([`rate_collect_probe`]); the echoed registers clamp
/// the window to the path's RCP\* rate and carry switch boot epochs, so
/// a reboot observed in-band resets the window state
/// (`on_path_epoch_change`) — the paper's mechanism, no oracle.
///
/// Per-flow state is kept only while a flow is live. A sending flow
/// sits in `active`, an ordered map the service pass walks in key order;
/// a flow this host is receiving sits in `receivers` until its last
/// segment is delivered. Then it leaves only its key in `finished`, so
/// a late retransmission is re-ACKed whole from its header alone.
/// `receivers` and `finished` are hash maps that are looked up, never
/// iterated, so no result depends on their order. The single service
/// timer wakes at the earliest of (next scheduled start, earliest RTO,
/// earliest probe), so behavior is a pure function of the frame/timer
/// sequence the simulator delivers — bit-identical at any shard count.
/// A finished flow's buffers go on free lists and the next flow starts
/// on them ([`FlowSender::reusing`], [`FlowReceiver::reusing`]), so
/// starting or receiving a flow does not allocate once the buffers have
/// grown to the host's flow sizes and windows. A receiver whose sender
/// gave up stays in `receivers`: nothing tells this host the flow ended.
pub struct ClosedFlowGenApp {
    schedule: Vec<Flow>,
    next: usize,
    cfg: ClosedLoopConfig,
    probe: ProbeBuilder,
    active: BTreeMap<u64, FlowState>,
    /// Counter buffers of completed and abandoned flows.
    spare_tx: Vec<Vec<u16>>,
    /// Flows this host is still receiving.
    receivers: HashMap<u64, FlowReceiver, FlowKeyHash>,
    /// Out-of-order buffers of fully delivered flows.
    spare_ooo: Vec<Vec<u32>>,
    /// Keys of the flows fully delivered to this host.
    finished: HashSet<u64, FlowKeyHash>,
    switch_epochs: BTreeMap<u32, u32>,
    /// Earliest pending service-timer deadline (dedup so bursts of
    /// events do not arm redundant timers).
    armed_at: u64,
    /// Aggregate transport counters of flows this host *finished*
    /// (sender side); use [`ClosedFlowGenApp::stats_snapshot`] to also
    /// fold in still-active flows.
    pub stats: TransportStats,
    /// Flows that completed *at this host* (i.e. it was the receiver).
    pub completions: Vec<Completion>,
}

impl ClosedFlowGenApp {
    /// An app that plays `schedule` (sorted by start time) through the
    /// closed-loop transport.
    pub fn new(schedule: Vec<Flow>, cfg: ClosedLoopConfig) -> Self {
        debug_assert!(schedule.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let probe = rate_collect_probe(cfg.probe_hops);
        ClosedFlowGenApp {
            schedule,
            next: 0,
            cfg,
            probe,
            active: BTreeMap::new(),
            spare_tx: Vec::new(),
            receivers: HashMap::default(),
            spare_ooo: Vec::new(),
            finished: HashSet::default(),
            switch_epochs: BTreeMap::new(),
            armed_at: 0,
            stats: TransportStats::default(),
            completions: Vec::new(),
        }
    }

    /// [`Self::stats`] plus the counters of flows still in flight.
    pub fn stats_snapshot(&self) -> TransportStats {
        let mut s = self.stats;
        for st in self.active.values() {
            s.absorb_sender(&st.sender);
        }
        s
    }

    /// Flows not yet fully acknowledged (scheduled-but-unstarted plus
    /// in-flight).
    pub fn unfinished(&self) -> usize {
        (self.schedule.len() - self.next) + self.active.len()
    }

    /// Put every sendable segment of `st` on the wire.
    fn pump(st: &mut FlowState, stats: &mut TransportStats, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let mac = ctx.mac();
        while let Some(seg) = st.sender.poll_send(now) {
            let hdr = st.sender.data_hdr(seg, now);
            let mut frame = ctx.alloc_frame(SEGMENT_HEAD);
            let body = hdr.write_frame(st.dst, mac, &mut frame);
            ctx.send_with_tail(0, frame, body);
            stats.segments_sent += 1;
        }
    }

    /// Start due flows, fire due RTOs, send due probes, pump windows,
    /// re-arm the timer.
    fn service(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        while self
            .schedule
            .get(self.next)
            .is_some_and(|f| f.start_ns <= now)
        {
            let f = self.schedule[self.next];
            self.next += 1;
            let sender = FlowSender::reusing(
                self.spare_tx.pop().unwrap_or_default(),
                self.cfg.transport.clone(),
                f.key,
                f.bytes,
                f.mining,
                f.start_ns,
            );
            self.stats.flows_started += 1;
            self.active.insert(
                f.key,
                FlowState {
                    dst: f.dst,
                    sender,
                    next_probe_ns: now,
                },
            );
        }
        let mut dead: Vec<u64> = Vec::new();
        for (key, st) in self.active.iter_mut() {
            if st.sender.rto_deadline().is_some_and(|d| d <= now)
                && st.sender.on_rto(now) == RtoOutcome::GaveUp
            {
                dead.push(*key);
                continue;
            }
            if st.next_probe_ns <= now {
                let payload = rate_probe_payload(*key, now);
                let mut frame = ctx.alloc_frame(self.probe.frame_len(payload.len()));
                self.probe
                    .write_frame(st.dst, ctx.mac(), &payload, DATA_ETHERTYPE.0, &mut frame);
                ctx.send(frame);
                self.stats.probes_sent += 1;
                st.next_probe_ns = now + self.cfg.probe_period_ns.max(1);
            }
            Self::pump(st, &mut self.stats, ctx);
        }
        for key in dead {
            let st = self.active.remove(&key).expect("key collected above");
            self.stats.flows_given_up += 1;
            self.retire(st.sender);
        }
        self.arm(ctx);
    }

    /// Fold a finished sender's counters into the stats and keep its
    /// buffer for the next flow.
    fn retire(&mut self, sender: FlowSender) {
        self.stats.absorb_sender(&sender);
        self.spare_tx.push(sender.into_tx_buffer());
    }

    /// Arm the service timer at the earliest pending deadline, if that
    /// is earlier than whatever is already armed.
    fn arm(&mut self, ctx: &mut HostCtx<'_>) {
        let mut wake = u64::MAX;
        if let Some(f) = self.schedule.get(self.next) {
            wake = wake.min(f.start_ns);
        }
        for st in self.active.values() {
            if let Some(d) = st.sender.rto_deadline() {
                wake = wake.min(d);
            }
            wake = wake.min(st.next_probe_ns);
        }
        if wake == u64::MAX {
            return;
        }
        let now = ctx.now();
        if self.armed_at > now && self.armed_at <= wake {
            return; // an earlier-or-equal timer is already pending
        }
        self.armed_at = wake.max(now + 1);
        ctx.set_timer(wake.saturating_sub(now).max(1), 0);
    }

    /// A data segment arrived: deliver, ACK (a segment of a finished
    /// flow is re-ACKed whole), and record the FCT on completion.
    fn on_data(&mut self, hdr: &SegmentHdr, src: EthernetAddress, ctx: &mut HostCtx<'_>) {
        let total_segs = segments_for(hdr.total_bytes, self.cfg.transport.mss);
        let ack = match self.receivers.entry(hdr.key) {
            Entry::Vacant(_) if self.finished.contains(&hdr.key) => {
                // What a completed receiver answers to any segment.
                self.stats.dup_segments_rx += 1;
                hdr.ack_for(total_segs)
            }
            entry => {
                let rx = entry.or_insert_with(|| {
                    FlowReceiver::reusing(self.spare_ooo.pop().unwrap_or_default(), total_segs)
                });
                let out = rx.on_data(hdr.seq, ctx.now());
                if out.duplicate {
                    self.stats.dup_segments_rx += 1;
                }
                let ack = rx.ack_hdr(hdr);
                if out.complete {
                    let rx = self.receivers.remove(&hdr.key).expect("inserted above");
                    self.spare_ooo.push(rx.into_ooo_buffer());
                    self.finished.insert(hdr.key);
                    self.completions.push(Completion {
                        key: hdr.key,
                        bytes: hdr.total_bytes,
                        mining: hdr.flags & transport::FLAG_MINING != 0,
                        fct_ns: ctx.now().saturating_sub(hdr.start_ns),
                    });
                }
                ack
            }
        };
        let mut frame = ctx.alloc_frame(SEGMENT_HEAD);
        let body = ack.write_frame(src, ctx.mac(), &mut frame);
        ctx.send_with_tail(0, frame, body);
        self.stats.acks_sent += 1;
    }

    /// An ACK arrived for one of our flows.
    fn on_ack_frame(&mut self, hdr: &SegmentHdr, ctx: &mut HostCtx<'_>) {
        let outcome = match self.active.get_mut(&hdr.key) {
            Some(st) => st.sender.on_ack(hdr.ack, hdr.seq, hdr.ts, ctx.now()),
            None => return,
        };
        match outcome {
            AckOutcome::Completed => {
                let st = self.active.remove(&hdr.key).expect("looked up above");
                self.stats.flows_completed += 1;
                self.retire(st.sender);
            }
            AckOutcome::Advanced | AckOutcome::Duplicate => {
                let st = self.active.get_mut(&hdr.key).expect("looked up above");
                Self::pump(st, &mut self.stats, ctx);
            }
            AckOutcome::Ignored => {}
        }
        self.arm(ctx);
    }

    /// A rate-probe echo came back: clamp the flow's window to the
    /// in-band bottleneck rate and react to switch boot-epoch changes.
    fn on_rate_echo(&mut self, echo: RateEcho<'_>, ctx: &mut HostCtx<'_>) {
        let mut epoch_changed = false;
        for (sid, ep) in echo.epochs() {
            if let Some(prev) = self.switch_epochs.insert(sid, ep) {
                if prev != ep {
                    epoch_changed = true;
                }
            }
        }
        if epoch_changed {
            // A switch on some path rebooted: in-flight rate clamps may
            // describe a path that no longer exists, so reset every
            // active flow's window (shared fabric, coarse but safe).
            for st in self.active.values_mut() {
                st.sender.on_path_epoch_change();
            }
        }
        if let Some(st) = self.active.get_mut(&echo.key) {
            st.sender.set_rate_bps(echo.rate_bps);
            Self::pump(st, &mut self.stats, ctx);
        }
        self.arm(ctx);
    }
}

impl HostApp for ClosedFlowGenApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        self.armed_at = 0;
        self.service(ctx);
    }

    fn on_frame(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let Ok(eth) = Frame::new_checked(&frame[..]) else {
            ctx.recycle_frame(frame);
            return;
        };
        if eth.ethertype() == TRANSPORT_ETHERTYPE {
            if let Some(hdr) = SegmentHdr::decode(eth.payload()) {
                let src = eth.src_addr();
                match hdr.kind {
                    transport::KIND_DATA => self.on_data(&hdr, src, ctx),
                    transport::KIND_ACK => self.on_ack_frame(&hdr, ctx),
                    _ => {}
                }
            }
            ctx.recycle_frame(frame);
            return;
        }
        if let Some(echo) = decode_rate_echo(&frame, ctx.mac()) {
            self.on_rate_echo(echo, ctx);
        } else if echo_in_place(&mut frame, ctx.mac()) {
            // Receiver role: reflect executed probes back out of the
            // NIC they arrived on (§2.2 Phase 1) — the same buffer.
            ctx.send_on(ctx.rx_port(), frame);
            return;
        }
        ctx.recycle_frame(frame);
    }
}

/// Hash of a flow key for [`ClosedFlowGenApp`]'s receive-side maps: one
/// splitmix64 of the key. Keys are `(source index << 32) | flow index`,
/// so both halves must reach the low bits hashbrown picks a bucket from
/// and the top seven it tags with. Deterministic, which is sound because
/// the maps are never iterated and the keys come from the schedule.
type FlowKeyHash = BuildHasherDefault<FlowKeyHasher>;

#[derive(Debug, Default, Clone, Copy)]
struct FlowKeyHasher(u64);

impl Hasher for FlowKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("flow keys are u64s");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = splitmix64(key);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The lossy closed-loop fabric's recipe, loss aside: `params`' fat tree
/// on `config`, every host playing its [`flow_schedules`] entry through a
/// [`ClosedFlowGenApp`], RCP\* rate registers on every switch.
/// Returns `(sim, tree, flows_total, last_start_ns)`.
pub fn closed_loop_fat_tree(
    config: SimConfig,
    params: FatTreeParams,
    traffic: &TrafficConfig,
) -> (Simulator, FatTree, u64, u64) {
    let macs: Vec<_> = (0..params.n_hosts() as u32)
        .map(EthernetAddress::from_host_id)
        .collect();
    let (schedules, flows_total, last_start) = flow_schedules(traffic, &macs);
    let apps = (schedules.into_iter())
        .map(|sched| Box::new(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default())) as _)
        .collect();
    let (mut sim, tree) = fat_tree_with(config, params, apps);
    for i in 0..sim.num_switches() {
        init_rate_registers(sim.switch_mut(SwitchId(i)));
    }
    (sim, tree, flows_total, last_start)
}

/// Order-independent fingerprint of a set of completions: commutative
/// accumulation of a mix of each `(key, fct_ns)` pair, so the value is
/// identical for any shard count, thread interleaving, or host
/// iteration order that delivers the same flows at the same times.
pub fn completions_fingerprint(completions: impl Iterator<Item = Completion>) -> u64 {
    let mut acc = 0u64;
    for c in completions {
        acc = acc.wrapping_add(splitmix64(c.key ^ c.fct_ns.rotate_left(17)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        // FCT and ack-latency percentiles take the nearest-rank sample
        // of ⌈n·p⌉: no rounding of (n - 1)·p, no interpolation.
        use tpp_telemetry::nearest_rank;
        let ps = [(0, 1), (1, 2), (1, 1)];
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            ps.map(|(n, d)| nearest_rank(&v, n, d)),
            [1.0, 3.0, 5.0].map(Some)
        );
        // Rank ⌈4/2⌉ = 2, where round(1.5) = 2 would index 30.
        let v = [10u64, 20, 30, 40];
        assert_eq!(
            ps.map(|(n, d)| nearest_rank(&v, n, d)),
            [10, 20, 40].map(Some)
        );
        assert_eq!(nearest_rank::<u64>(&[], 1, 2), None);
    }

    #[test]
    fn cdf_tables_are_monotone() {
        for t in [WEB_SEARCH_CDF, DATA_MINING_CDF] {
            assert!(t.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
            assert_eq!(t[0].0, 0.0);
            assert_eq!(t.last().unwrap().0, 1.0);
        }
    }

    #[test]
    fn sampling_interpolates_and_is_bounded() {
        for dist in [FlowSizeDist::WebSearch, FlowSizeDist::DataMining] {
            let lo = dist.table()[0].1 as u64;
            let hi = dist.table().last().unwrap().1 as u64;
            let mut rng = Rng64::new(7);
            let mut prev = 0;
            for _ in 0..1000 {
                let b = dist.sample_bytes(rng.next_f64());
                assert!((lo..=hi).contains(&b), "{b} outside [{lo}, {hi}]");
                prev = prev.max(b);
            }
            assert!(prev > lo, "tail never sampled");
        }
        // Median of web-search sits in the 10–20 KB breakpoint span.
        let med = FlowSizeDist::WebSearch.sample_bytes(0.5);
        assert!((10_000..20_000).contains(&med), "median {med}");
    }

    #[test]
    fn schedules_are_seed_deterministic_and_skip_self() {
        let macs: Vec<EthernetAddress> = (0..8).map(EthernetAddress::from_host_id).collect();
        let cfg = TrafficConfig {
            flows_per_host: 200,
            ..Default::default()
        };
        let a = generate_schedule(&cfg, 3, &macs, FlowSizeDist::WebSearch);
        let b = generate_schedule(&cfg, 3, &macs, FlowSizeDist::WebSearch);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.start_ns, x.dst, x.bytes, x.key),
                (y.start_ns, y.dst, y.bytes, y.key)
            );
        }
        assert!(a.iter().all(|f| f.dst != macs[3]), "self-flow generated");
        assert!(a.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let c = generate_schedule(&cfg, 4, &macs, FlowSizeDist::WebSearch);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn flow_schedules_alternate_sizes_per_index() {
        let macs: Vec<EthernetAddress> = (0..5).map(EthernetAddress::from_host_id).collect();
        let cfg = TrafficConfig {
            flows_per_host: 30,
            ..Default::default()
        };
        let (schedules, flows_total, last_start) = flow_schedules(&cfg, &macs);
        assert_eq!(schedules.len(), macs.len());
        for (i, sched) in schedules.iter().enumerate() {
            let dist = [FlowSizeDist::WebSearch, FlowSizeDist::DataMining][i % 2];
            let want = generate_schedule(&cfg, i as u32, &macs, dist);
            let fields = |f: &Flow| (f.start_ns, f.dst, f.bytes, f.key, f.mining);
            assert!(sched.iter().map(fields).eq(want.iter().map(fields)));
        }
        let all = || schedules.iter().flatten();
        assert_eq!(flows_total, all().count() as u64);
        assert_eq!(Some(last_start), all().map(|f| f.start_ns).max());
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mk = |key, fct_ns| Completion {
            key,
            bytes: 1,
            mining: false,
            fct_ns,
        };
        let fwd = completions_fingerprint([mk(1, 10), mk(2, 20), mk(3, 30)].into_iter());
        let rev = completions_fingerprint([mk(3, 30), mk(1, 10), mk(2, 20)].into_iter());
        assert_eq!(fwd, rev);
        let other = completions_fingerprint([mk(3, 31), mk(1, 10), mk(2, 20)].into_iter());
        assert_ne!(fwd, other);
    }

    #[test]
    fn closed_loop_recovers_over_lossy_link() {
        use tpp_asic::AsicConfig;
        use tpp_netsim::{time, Endpoint, NetworkBuilder, RunLimit};

        let macs: Vec<EthernetAddress> = (0..2).map(EthernetAddress::from_host_id).collect();
        let mk = |src: u32| {
            let flows = vec![Flow {
                start_ns: time::micros(10),
                dst: macs[1 - src as usize],
                bytes: 40_000,
                key: (src as u64) << 32,
                mining: false,
            }];
            Box::new(ClosedFlowGenApp::new(flows, ClosedLoopConfig::default()))
        };
        let mut net = NetworkBuilder::new();
        let s = net.add_switch(AsicConfig::with_ports(1, 2));
        let h0 = net.add_host(mk(0), 1_000_000);
        let h1 = net.add_host(mk(1), 1_000_000);
        net.connect(Endpoint::host(h0), Endpoint::switch(s, 0), time::micros(1));
        net.connect(Endpoint::host(h1), Endpoint::switch(s, 1), time::micros(1));
        let mut sim = net.build();
        sim.populate_l2();
        // 5% loss in both directions switch->host: data AND acks drop.
        sim.set_link_loss(Endpoint::switch(s, 0), 50);
        sim.set_link_loss(Endpoint::switch(s, 1), 50);
        sim.run(RunLimit::Until(time::millis(800)));

        for h in [h0, h1] {
            let app = sim.host_app::<ClosedFlowGenApp>(h);
            assert_eq!(app.completions.len(), 1, "host {h:?} flow incomplete");
            assert_eq!(app.unfinished(), 0);
            let stats = app.stats_snapshot();
            assert_eq!(stats.flows_started, 1);
            assert_eq!(stats.flows_completed, 1);
            assert_eq!(stats.flows_given_up, 0);
            assert!(stats.retransmits > 0, "5% loss must force retransmits");
            assert!(stats.probes_sent > 0);
        }
        // Receiver-side exactly-once: delivered byte totals match.
        let c = &sim.host_app::<ClosedFlowGenApp>(h1).completions[0];
        assert_eq!(c.bytes, 40_000);
        assert!(c.fct_ns > 0);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        use tpp_asic::AsicConfig;
        use tpp_netsim::{time, Endpoint, NetworkBuilder, RunLimit};

        let run = || {
            let macs: Vec<EthernetAddress> = (0..2).map(EthernetAddress::from_host_id).collect();
            let cfg = TrafficConfig {
                flows_per_host: 20,
                mean_gap_ns: 30_000,
                ..Default::default()
            };
            let mut net = NetworkBuilder::new();
            let s = net.add_switch(AsicConfig::with_ports(1, 2));
            for src in 0..2u32 {
                let sched = generate_schedule(&cfg, src, &macs, FlowSizeDist::WebSearch);
                net.add_host(
                    Box::new(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default())),
                    1_000_000,
                );
            }
            net.connect(
                Endpoint::host(tpp_netsim::HostId(0)),
                Endpoint::switch(s, 0),
                time::micros(1),
            );
            net.connect(
                Endpoint::host(tpp_netsim::HostId(1)),
                Endpoint::switch(s, 1),
                time::micros(1),
            );
            let mut sim = net.build();
            sim.populate_l2();
            sim.set_link_loss(Endpoint::switch(s, 0), 20);
            sim.set_link_loss(Endpoint::switch(s, 1), 20);
            sim.run(RunLimit::Until(time::millis(400)));
            let mut fp = 0u64;
            for h in [tpp_netsim::HostId(0), tpp_netsim::HostId(1)] {
                let app = sim.host_app::<ClosedFlowGenApp>(h);
                fp = fp.wrapping_add(completions_fingerprint(app.completions.iter().copied()));
                fp ^= splitmix64(app.stats_snapshot().retransmits);
            }
            fp
        };
        assert_eq!(run(), run());
    }

    /// Sends one three-segment flow at start and its first segment
    /// again once the flow is long delivered; keeps every ACK.
    struct ReplaySender {
        dst: EthernetAddress,
        first: Option<SegmentHdr>,
        acks: Vec<SegmentHdr>,
    }

    impl ReplaySender {
        fn send(&self, hdr: SegmentHdr, ctx: &mut HostCtx<'_>) {
            let mut frame = ctx.alloc_frame(SEGMENT_HEAD);
            let body = hdr.write_frame(self.dst, ctx.mac(), &mut frame);
            ctx.send_with_tail(0, frame, body);
        }
    }

    impl HostApp for ReplaySender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let cfg = TransportConfig {
                init_cwnd: 3,
                ..TransportConfig::default()
            };
            let mut tx = FlowSender::new(cfg, 0xF1, 3 * 1_000, false, 0);
            while let Some(seg) = tx.poll_send(ctx.now()) {
                let hdr = tx.data_hdr(seg, ctx.now());
                self.first.get_or_insert(hdr);
                self.send(hdr, ctx);
            }
            ctx.set_timer(tpp_netsim::time::millis(1), 0);
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
            self.send(self.first.expect("sent at start"), ctx);
        }

        fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
            let eth = Frame::new_checked(&frame[..]).expect("a whole frame");
            self.acks.extend(SegmentHdr::decode(eth.payload()));
            ctx.recycle_frame(frame);
        }
    }

    #[test]
    fn finished_flow_is_reacked_whole_from_its_key() {
        use tpp_asic::AsicConfig;
        use tpp_netsim::{time, Endpoint, HostId, NetworkBuilder, RunLimit};

        let mut net = NetworkBuilder::new();
        let s = net.add_switch(AsicConfig::with_ports(1, 2));
        let sender = ReplaySender {
            dst: EthernetAddress::from_host_id(1),
            first: None,
            acks: Vec::new(),
        };
        let h0 = net.add_host(Box::new(sender), 1_000_000);
        let rx_app = ClosedFlowGenApp::new(Vec::new(), ClosedLoopConfig::default());
        let h1 = net.add_host(Box::new(rx_app), 1_000_000);
        net.connect(Endpoint::host(h0), Endpoint::switch(s, 0), time::micros(1));
        net.connect(Endpoint::host(h1), Endpoint::switch(s, 1), time::micros(1));
        let mut sim = net.build();
        sim.populate_l2();
        sim.run(RunLimit::Until(time::millis(5)));

        let sender = sim.host_app::<ReplaySender>(HostId(0));
        let first = sender.first.expect("sent at start");
        let total_segs = segments_for(first.total_bytes, TransportConfig::default().mss);
        assert_eq!(total_segs, 3);
        let acks: Vec<u32> = sender.acks.iter().map(|a| a.ack).collect();
        assert_eq!(acks, [1, 2, 3, total_segs], "the replay is ACKed whole");
        // Byte for byte what a completed receiver answers.
        let mut done = FlowReceiver::new(total_segs);
        for seq in 0..total_segs {
            done.on_data(seq, 0);
        }
        assert_eq!(sender.acks[3], done.ack_hdr(&first));

        let app = sim.host_app::<ClosedFlowGenApp>(HostId(1));
        assert_eq!(app.completions.len(), 1, "no second completion");
        assert_eq!(app.stats.dup_segments_rx, 1);
        assert_eq!(app.stats.acks_sent, 4);
        assert!(
            app.receivers.is_empty(),
            "the finished flow left its receiver"
        );
        assert!(app.finished.contains(&first.key));
        assert_eq!(app.spare_ooo.len(), 1, "its buffer waits for the next flow");
    }

    #[test]
    fn lossy_run_leaves_no_live_receiver() {
        tpp_netsim::for_each_shard_row(|config| {
            use tpp_netsim::{time, HostId, RunLimit};

            let params = FatTreeParams::default(); // k=4: 16 hosts
            let n_hosts = params.n_hosts();
            let traffic = TrafficConfig {
                flows_per_host: 20,
                mean_gap_ns: 200_000,
                ..Default::default()
            };
            let (mut sim, tree, flows_total, last_start) =
                closed_loop_fat_tree(config.ecmp(true), params, &traffic);
            for from in tree.fabric_ports() {
                sim.set_link_loss(from, 20);
            }
            sim.run(RunLimit::Until(last_start + time::millis(50)));

            let (mut completed, mut dups) = (0, 0);
            for h in 0..n_hosts {
                let app = sim.host_app::<ClosedFlowGenApp>(HostId(h));
                assert_eq!(app.unfinished(), 0, "host {h} has flows in flight");
                assert!(app.receivers.is_empty(), "host {h} holds a live receiver");
                assert_eq!(app.finished.len(), app.completions.len());
                let stats = app.stats_snapshot();
                assert_eq!(stats.flows_given_up, 0);
                completed += app.completions.len() as u64;
                dups += stats.dup_segments_rx;
            }
            assert_eq!(completed, flows_total, "every flow delivered once");
            assert!(dups > 0, "loss must force duplicate arrivals");
        });
    }
}

//! The assembled dataplane pipeline of Figure 3.
//!
//! [`Asic::handle_frame`] walks a frame through: header parser → edge TPP
//! filter (§4) → TCAM / L2 / L3 forwarding → per-packet metadata → TCPU
//! (TPPs only, §3.3 "just after the L2/L3/TCAM tables") → egress drop-tail
//! queue. The simulator's links later call [`Asic::dequeue`] to transmit,
//! which is the scheduler of Fig. 3.
//!
//! The ASIC is a passive object driven by its owner (a `tpp-netsim` switch
//! node or a unit test): it never knows about time except through the
//! `now_ns` it is handed, which keeps the whole system deterministic.

use crate::config::{AsicConfig, PortConfig, StripAction};
use crate::decode_cache::ProgramInterner;
use crate::memmap::Mmu;
pub use crate::memmap::PacketMeta;
use crate::profile::{Observer, PipelineProfile, ProfileConfig};
use crate::queue::DropTailQueue;
use crate::sram::{SramError, SramView, SramViewMut};
use crate::state::{AsicState, PortState, QueueState};
use crate::stats::{PortStats, QueueStats, SwitchRegs};
use crate::tables::{FlowAction, FlowEntry, FlowKey, L2Table, LpmTable, Tcam};
use crate::tcpu::{ExecReport, Tcpu};
use tpp_telemetry::{LookupKind, TraceSink};
use tpp_wire::ethernet::{EtherType, Frame, ETHERNET_HEADER_LEN};
use tpp_wire::tpp::TppPacket;

pub use crate::memmap::QueueId;
pub use crate::tables::PortId;

/// Why the pipeline dropped a frame.
///
/// Marked `#[non_exhaustive]`: future pipeline stages may add reasons, so
/// downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DropReason {
    /// No table produced an egress port.
    NoRoute,
    /// The egress queue was full (drop-tail).
    QueueFull {
        /// The congested egress port.
        port: PortId,
    },
    /// A TCAM entry's action was `Drop`.
    FlowDrop {
        /// The matching entry id.
        entry_id: u32,
    },
    /// The §4 edge security policy dropped a TPP from an untrusted port.
    EdgeFiltered,
    /// The frame failed to parse.
    ParseError,
}

/// The pipeline's verdict on one frame.
///
/// Marked `#[non_exhaustive]` (a future pipeline could, say, punt frames
/// to a slow path); prefer the accessors over exhaustive matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Outcome {
    /// Enqueued for transmission.
    Enqueued {
        /// Egress port.
        port: PortId,
        /// Egress queue on that port.
        queue: QueueId,
        /// TCPU execution report, when the frame carried a TPP and the
        /// TCPU ran it.
        exec: Option<ExecReport>,
    },
    /// Dropped.
    Dropped {
        /// Why.
        reason: DropReason,
    },
}

impl Outcome {
    /// True if the frame survived the pipeline.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, Outcome::Enqueued { .. })
    }

    /// The TCPU execution report, when the frame carried a TPP that ran.
    pub fn exec_report(&self) -> Option<&ExecReport> {
        match self {
            Outcome::Enqueued { exec, .. } => exec.as_ref(),
            _ => None,
        }
    }

    /// The egress `(port, queue)` the frame was admitted to, if any.
    pub fn egress(&self) -> Option<(PortId, QueueId)> {
        match self {
            Outcome::Enqueued { port, queue, .. } => Some((*port, *queue)),
            _ => None,
        }
    }
}

/// Largest SRAM region (in words) served lazily from the shared zero
/// slab. Regions configured larger than this are allocated eagerly so
/// read-only views never have to invent zeros beyond the slab.
const LAZY_SRAM_MAX_WORDS: usize = 16384;

/// One fleet-shared page of zeros backing read views of SRAM regions no
/// TPP has touched yet (64 KiB of immutable static, vs. 36 KiB of heap
/// per switch eagerly zero-filled before this existed).
static ZERO_SRAM: [u32; LAZY_SRAM_MAX_WORDS] = [0; LAZY_SRAM_MAX_WORDS];

/// The lazy initial state for a region of `words` words: empty (backed by
/// [`ZERO_SRAM`] for reads, materialized on first write) unless the
/// region is too large for the zero slab.
fn lazy_sram(words: usize) -> Vec<u32> {
    if words > LAZY_SRAM_MAX_WORDS {
        vec![0; words]
    } else {
        Vec::new()
    }
}

/// Materialize a lazy SRAM region before handing out mutable access.
fn ensure_sram(region: &mut Vec<u32>, words: usize) {
    if region.is_empty() && words > 0 {
        region.resize(words, 0);
    }
}

/// A read view of a possibly-unmaterialized region: zeros of the
/// configured length until the first write, the real words after.
fn sram_view(region: &[u32], words: usize) -> SramView<'_> {
    if region.is_empty() && words > 0 {
        SramView::new(&ZERO_SRAM[..words.min(LAZY_SRAM_MAX_WORDS)])
    } else {
        SramView::new(region)
    }
}

/// One physical port: configuration, statistics, queues, link SRAM.
#[derive(Debug)]
struct Port {
    config: PortConfig,
    stats: PortStats,
    queues: Vec<DropTailQueue>,
    /// Lazily materialized: empty until the first TCPU execution or
    /// control-plane write through this port, then `link_sram_words`
    /// long. A fat-tree core switch that never carries a TPP pays
    /// nothing for scratch SRAM it never reads.
    link_sram: Vec<u32>,
}

impl Port {
    fn new(config: PortConfig, link_sram_words: usize) -> Self {
        let queues = (0..config.num_queues.max(1))
            .map(|_| DropTailQueue::new(config.queue_limit_bytes))
            .collect();
        Port {
            stats: PortStats::default(),
            queues,
            link_sram: lazy_sram(link_sram_words),
            config,
        }
    }

    /// Approximate resident heap bytes of this port.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.link_sram.capacity() * 4
            + self
                .queues
                .iter()
                .map(DropTailQueue::approx_bytes)
                .sum::<usize>()
    }
}

/// What one TCAM→L3→L2 walk resolved for a frame it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) table: LookupKind,
    pub(crate) port: PortId,
    pub(crate) queue: QueueId,
    /// Matched TCAM entry (0 for L3/L2 routes).
    pub(crate) entry_id: u32,
    entry_version: u32,
    /// How many tables could forward the packet.
    alternates: u32,
}

/// A TPP-capable switch ASIC.
pub struct Asic {
    config: AsicConfig,
    regs: SwitchRegs,
    ports: Vec<Port>,
    l2: L2Table,
    l3: LpmTable,
    tcam: Tcam,
    global_sram: Vec<u32>,
    tcpu: Tcpu,
    /// The trace sink and the span profiler behind one seam; `None` (the
    /// default) whenever both are off, so an unobserved frame pays one
    /// branch per pipeline transition.
    observer: Option<Box<Observer>>,
    /// Fleet-wide program interner handle, kept so `reset` can re-install
    /// it into the rebuilt TCPU (a reboot wipes the decode cache, not the
    /// fleet's shared decodes).
    interner: Option<ProgramInterner>,
}

impl Asic {
    /// Build an ASIC from its configuration.
    pub fn new(config: AsicConfig) -> Self {
        let ports = config
            .ports
            .iter()
            .map(|p| Port::new(p.clone(), config.link_sram_words))
            .collect();
        Asic {
            regs: SwitchRegs::new(config.switch_id),
            ports,
            l2: L2Table::new(),
            l3: LpmTable::new(),
            tcam: Tcam::new(),
            global_sram: lazy_sram(config.global_sram_words),
            tcpu: Tcpu::new(config.tcpu_cycle_budget).with_decode_cache(config.decode_cache_slots),
            observer: None,
            interner: None,
            config,
        }
    }

    /// Share a fleet-wide program interner with this switch: decode-cache
    /// misses consult it before decoding, so one distinct TPP program is
    /// decoded (and resident) once per simulation instead of once per
    /// switch. Survives [`reset`](Asic::reset). No-op when the decode
    /// cache is disabled.
    pub fn set_program_interner(&mut self, interner: ProgramInterner) {
        self.tcpu.set_interner(interner.clone());
        self.interner = Some(interner);
    }

    /// Approximate resident heap bytes of this switch's state: SRAM
    /// slabs, tables, queues (including buffered frames), and the
    /// decode-cache slot array. Interned program bodies are fleet-shared
    /// and excluded (see [`ProgramInterner::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.global_sram.capacity() * 4
            + self.ports.iter().map(Port::approx_bytes).sum::<usize>()
            + self.l2.approx_bytes()
            + self.l3.approx_bytes()
            + self.tcam.approx_bytes()
            + self.tcpu.approx_bytes()
    }

    /// Attach (or with `None`, detach) a structured trace sink. While a
    /// sink is attached every pipeline stage emits one
    /// [`TraceEvent`](tpp_telemetry::TraceEvent) per transition;
    /// detached, tracing costs nothing beyond the observer branch.
    pub fn set_trace_sink(&mut self, sink: Option<Box<dyn TraceSink>>) {
        self.observer.get_or_insert_default().sink = sink;
        // Detaching the last instrument drops the observer altogether.
        self.observer
            .take_if(|o| o.sink.is_none() && o.profile.is_none());
    }

    /// Enable per-packet span profiling (observability plane layer 1):
    /// per-stage cycle attribution, reservoir-sampled stage-latency
    /// histograms, TCPU per-opcode breakdown, and cut-through
    /// budget-violation counters. Off by default; enabling replaces any
    /// previous profile.
    pub fn enable_profiling(&mut self, config: ProfileConfig) {
        let profile = PipelineProfile::new(config, self.config.switch_id as u64);
        self.observer.get_or_insert_default().profile = Some(profile);
    }

    /// The span profiler, when profiling is enabled.
    pub fn profile(&self) -> Option<&PipelineProfile> {
        self.observer.as_deref()?.profile.as_ref()
    }

    /// The switch's identifier.
    pub fn switch_id(&self) -> u32 {
        self.config.switch_id
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Global switch registers (read-only view).
    pub fn regs(&self) -> &SwitchRegs {
        &self.regs
    }

    /// Per-port statistics (read-only view).
    pub fn port_stats(&self, port: PortId) -> &PortStats {
        &self.ports[port as usize].stats
    }

    /// Per-queue statistics (read-only view).
    pub fn queue_stats(&self, port: PortId, queue: QueueId) -> &QueueStats {
        self.ports[port as usize].queues[queue as usize].stats()
    }

    /// Instantaneous egress queue occupancy in bytes.
    pub fn queue_len_bytes(&self, port: PortId, queue: QueueId) -> u64 {
        self.ports[port as usize].queues[queue as usize].len_bytes()
    }

    /// The L2 MAC table (control-plane access).
    pub fn l2_mut(&mut self) -> &mut L2Table {
        &mut self.l2
    }

    /// The L3 LPM table (control-plane access).
    pub fn l3_mut(&mut self) -> &mut LpmTable {
        &mut self.l3
    }

    /// The TCAM (control-plane read access).
    pub fn tcam(&self) -> &Tcam {
        &self.tcam
    }

    /// Install a TCAM flow entry, bumping `Switch:FlowTableVersion` — the
    /// dataplane version stamp ndb depends on (§2.3).
    pub fn install_flow(&mut self, entry: FlowEntry) {
        self.tcam.install(entry);
        self.regs.flow_table_version = self.regs.flow_table_version.wrapping_add(1);
    }

    /// Remove a TCAM flow entry (also bumps the table version).
    pub fn remove_flow(&mut self, id: u32) -> Option<FlowEntry> {
        let removed = self.tcam.remove(id);
        if removed.is_some() {
            self.regs.flow_table_version = self.regs.flow_table_version.wrapping_add(1);
        }
        removed
    }

    /// Always `(0, 0)`: the exact-match flow cache was deleted (it lost to
    /// the bare walk on every workload, EXPERIMENTS.md E28). The accessor
    /// stays because `benchmark/` calls it and is not edited by perf PRs.
    pub fn flow_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Decode-cache `(hits, misses)`; `(0, 0)` when the cache is off.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        self.tcpu.decode_cache_stats()
    }

    /// Reconfigure a port's ingress TPP filter (the §4 edge policy).
    pub fn set_ingress_tpp_filter(&mut self, port: PortId, filter: Option<StripAction>) {
        self.ports[port as usize].config.ingress_tpp_filter = filter;
    }

    /// Configure ECN marking on a port's egress queues (the §4
    /// fixed-function comparison; `None` disables).
    pub fn set_ecn_threshold(&mut self, port: PortId, threshold_bytes: Option<u32>) {
        self.ports[port as usize].config.ecn_threshold_bytes = threshold_bytes;
    }

    /// Update a wireless egress port's SNR register (deci-dB). In a real
    /// AP the radio writes this "very quickly" changing state (§2.3);
    /// in the model the experiment harness plays the radio.
    pub fn set_port_snr(&mut self, port: PortId, snr_decidb: u32) {
        self.ports[port as usize].stats.snr_decidb = snr_decidb;
    }

    /// Checked read-only view of the global SRAM (control-plane / test
    /// access).
    pub fn global_sram(&self) -> SramView<'_> {
        sram_view(&self.global_sram, self.config.global_sram_words)
    }

    /// Checked mutable view of the global SRAM (control-plane
    /// initialization, e.g. "a control plane program initializes each
    /// link's fair share rate", §2.2 footnote).
    pub fn global_sram_mut(&mut self) -> SramViewMut<'_> {
        ensure_sram(&mut self.global_sram, self.config.global_sram_words);
        SramViewMut::new(&mut self.global_sram)
    }

    /// Checked read-only view of a port's link SRAM.
    pub fn link_sram(&self, port: PortId) -> Result<SramView<'_>, SramError> {
        match self.ports.get(port as usize) {
            Some(p) => Ok(sram_view(&p.link_sram, self.config.link_sram_words)),
            None => Err(SramError::NoSuchPort {
                port,
                num_ports: self.ports.len(),
            }),
        }
    }

    /// Checked mutable view of a port's link SRAM.
    pub fn link_sram_mut(&mut self, port: PortId) -> Result<SramViewMut<'_>, SramError> {
        let num_ports = self.ports.len();
        let words = self.config.link_sram_words;
        match self.ports.get_mut(port as usize) {
            Some(p) => {
                ensure_sram(&mut p.link_sram, words);
                Ok(SramViewMut::new(&mut p.link_sram))
            }
            None => Err(SramError::NoSuchPort { port, num_ports }),
        }
    }

    /// Capture every piece of mutable, TPP-visible state — registers,
    /// port stats, queue stats and contents, and both scratch SRAMs —
    /// into a comparable, restorable [`AsicState`]. Forwarding tables,
    /// configuration, and the decode cache are deliberately excluded
    /// (see the [`state`](crate::state) module docs).
    pub fn snapshot(&self) -> AsicState {
        // Unmaterialized SRAM regions snapshot as their full-length zero
        // contents, so snapshots are invariant to when (or whether) the
        // lazy slabs were materialized.
        let full = |region: &Vec<u32>, words: usize| {
            if region.is_empty() && words > 0 {
                vec![0; words]
            } else {
                region.clone()
            }
        };
        AsicState {
            regs: self.regs.clone(),
            global_sram: full(&self.global_sram, self.config.global_sram_words),
            ports: self
                .ports
                .iter()
                .map(|port| PortState {
                    stats: port.stats.clone(),
                    link_sram: full(&port.link_sram, self.config.link_sram_words),
                    queues: port
                        .queues
                        .iter()
                        .map(|q| QueueState {
                            stats: q.stats().clone(),
                            frames: q.frames_snapshot(),
                            limit_bytes: q.limit_bytes(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Replay a [`snapshot`](Asic::snapshot) onto this ASIC, overwriting
    /// registers, stats, queue contents, and SRAMs. The snapshot's shape
    /// must match this ASIC's configuration (same port count, same queue
    /// counts per port); SRAM lengths are taken from the snapshot. The
    /// decode cache is left untouched — by construction it may never
    /// change observable behavior, so a differential harness can restore
    /// the same state onto a cached and an uncached ASIC and expect
    /// bit-identical runs.
    ///
    /// # Panics
    ///
    /// If the snapshot's port or queue counts disagree with this ASIC's.
    pub fn restore(&mut self, state: &AsicState) {
        assert_eq!(
            state.ports.len(),
            self.ports.len(),
            "snapshot port count must match the ASIC's"
        );
        self.regs = state.regs.clone();
        self.global_sram = state.global_sram.clone();
        for (port, saved) in self.ports.iter_mut().zip(&state.ports) {
            assert_eq!(
                saved.queues.len(),
                port.queues.len(),
                "snapshot queue count must match the port's"
            );
            port.stats = saved.stats.clone();
            port.link_sram = saved.link_sram.clone();
            port.queues = saved
                .queues
                .iter()
                .map(|q| {
                    DropTailQueue::from_state(q.limit_bytes, q.stats.clone(), q.frames.clone())
                })
                .collect();
        }
    }

    /// Reboot the switch: wipe every piece of volatile state — statistics
    /// registers, forwarding tables (L2/L3/TCAM), per-port statistics,
    /// queued frames, and both scratch SRAMs — then bump
    /// `Switch:BootEpoch`. The configuration survives (it models
    /// NVRAM/firmware), as do an attached trace sink and profiler
    /// (instruments watching the switch, not part of it). End-hosts that
    /// cached state derived from this switch detect the reboot by reading
    /// the epoch register through a TPP and comparing against their
    /// cached value.
    pub fn reset(&mut self, now_ns: u64) {
        let epoch = self.regs.boot_epoch.wrapping_add(1);
        self.regs = SwitchRegs::new(self.config.switch_id);
        self.regs.boot_epoch = epoch;
        self.regs.wall_clock_ns = now_ns;
        self.l2 = L2Table::new();
        self.l3 = LpmTable::new();
        self.tcam = Tcam::new();
        // The decode cache is volatile state too: it loses its warmed
        // programs along with its hit counters.
        self.tcpu = Tcpu::new(self.config.tcpu_cycle_budget)
            .with_decode_cache(self.config.decode_cache_slots);
        if let Some(interner) = &self.interner {
            self.tcpu.set_interner(interner.clone());
        }
        // Drop the SRAM slab back to lazy: a rebooted switch reads zeros
        // either way, and releasing the allocation is what "sized on
        // demand" means across a reboot.
        self.global_sram = lazy_sram(self.config.global_sram_words);
        let link_sram_words = self.config.link_sram_words;
        for port in &mut self.ports {
            // Port::new rebuilds stats, queues, and link SRAM from the
            // port's *current* config, so runtime reconfiguration (edge
            // filters, ECN thresholds) survives like the rest of config.
            *port = Port::new(port.config.clone(), link_sram_words);
            port.stats.last_tick_ns = now_ns;
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.rebooted(&self.regs);
        }
    }

    /// Export this switch's registers, port stats and queue stats into a
    /// metrics registry under stable `switch.*` / `port.*` / `queue.*`
    /// names. Exporting many switches into one registry aggregates them
    /// (counters sum, distributions merge) — the view the simulator
    /// publishes on every stats tick.
    pub fn export_metrics(&self, registry: &mut tpp_telemetry::MetricsRegistry) {
        self.regs.export_metrics(registry);
        for port in &self.ports {
            port.stats.export_metrics(registry);
            for queue in &port.queues {
                queue.stats().export_metrics(registry);
            }
        }
        let (dh, dm) = self.decode_cache_stats();
        registry.add("switch.decode_cache_hits", dh);
        registry.add("switch.decode_cache_misses", dm);
        if let Some(p) = self.profile() {
            p.export_metrics(registry);
        }
    }

    /// Fold per-port byte windows into the utilization EWMAs. The owner
    /// calls this periodically (the simulator does, every tick interval).
    pub fn tick(&mut self, now_ns: u64) {
        let alpha = self.config.utilization_ewma_alpha;
        for port in &mut self.ports {
            port.stats
                .tick_utilization(now_ns, port.config.capacity_kbps, alpha);
        }
    }

    /// Process one arriving frame through the full pipeline. A dropped
    /// frame's buffer is freed; [`Asic::handle_frame_routed`] hands it
    /// back instead.
    pub fn handle_frame(&mut self, frame: Vec<u8>, in_port: PortId, now_ns: u64) -> Outcome {
        self.handle_frame_routed(frame, in_port, now_ns, None).0
    }

    /// [`Asic::handle_frame`] with an optional ECMP egress substitution:
    /// when `hint` is `Some`, the frame's forwarding lookup resolves to
    /// that port *if the L2 stage wins the table walk* (TCAM and L3 keep
    /// their precedence, and an unknown destination still misses). The
    /// caller — the simulator's routing layer — picks the member port
    /// from the switch's equal-cost set by flow hash, so the choice lives
    /// outside the ASIC exactly like a real selector stage fed by a hash
    /// of header fields the `FlowKey` does not carry. The hint is an
    /// argument of this frame's walk and nothing else: a frame dropped
    /// before its lookup cannot leak it into the next one.
    ///
    /// The second value is the buffer of a frame the pipeline dropped
    /// (anywhere: parse, edge filter, lookup or a full egress queue), so
    /// the caller can recycle its capacity; `None` when it was enqueued.
    pub fn handle_frame_routed(
        &mut self,
        mut frame: Vec<u8>,
        in_port: PortId,
        now_ns: u64,
        hint: Option<PortId>,
    ) -> (Outcome, Option<Vec<u8>>) {
        assert!(
            (in_port as usize) < self.ports.len(),
            "in_port {in_port} out of range"
        );
        self.regs.wall_clock_ns = now_ns;
        self.regs.packets_processed += 1;

        // --- Header parser (Fig. 3) ---
        let parsed = Frame::new_checked(&frame[..]);
        let is_tpp = parsed.as_ref().is_ok_and(|f| f.is_tpp());
        if let Some(obs) = self.observer.as_deref_mut() {
            let len = frame.len() as u32;
            obs.parsed(&self.regs, in_port, len, is_tpp, parsed.is_ok());
        }
        let Ok(parsed) = parsed else {
            return self.drop_frame(DropReason::ParseError, frame);
        };

        // --- §4 edge security filter on ingress ---
        let filter = if is_tpp {
            self.ports[in_port as usize].config.ingress_tpp_filter
        } else {
            None
        };
        if let Some(action) = filter {
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.edge_filter(&self.regs, in_port, action);
            }
            return match action {
                StripAction::Drop => self.drop_frame(DropReason::EdgeFiltered, frame),
                StripAction::Unwrap => match strip_tpp(&mut frame) {
                    Some(inner_ethertype) => {
                        // The stripped frame is an ordinary packet now
                        // (unless the inner payload was itself a TPP).
                        let inner_is_tpp = EtherType(inner_ethertype) == EtherType::TPP;
                        // `strip_tpp` leaves a full Ethernet header.
                        let key = flow_key(&Frame::new_unchecked(&frame[..]), in_port);
                        self.forward_plain(frame, &key, hint, inner_is_tpp)
                    }
                    None => self.drop_frame(DropReason::EdgeFiltered, frame),
                },
            };
        }

        let key = flow_key(&parsed, in_port);
        if is_tpp {
            self.forward_tpp(frame, &key, hint, now_ns)
        } else {
            self.forward_plain(frame, &key, hint, false)
        }
    }

    /// Forwarding lookup shared by both paths: one table walk, with its
    /// TPP-readable hit registers bumped (a `Drop` entry counts as a TCAM
    /// hit) and its transition reported.
    fn lookup(&mut self, key: &FlowKey, hint: Option<PortId>) -> Result<Route, DropReason> {
        let resolved = self.walk(key, hint);
        match resolved {
            Ok(route) => match route.table {
                LookupKind::Tcam => self.regs.tcam_hits += 1,
                LookupKind::L3 => self.regs.l3_hits += 1,
                LookupKind::L2 => self.regs.l2_hits += 1,
            },
            Err(DropReason::FlowDrop { .. }) => self.regs.tcam_hits += 1,
            Err(_) => {}
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.looked_up(&self.regs, key, resolved);
        }
        resolved
    }

    /// The TCAM→L3→L2 walk, each table consulted once: the first hit in
    /// that precedence forwards (TCAM highest, SDN-style; L3 for IPv4
    /// only; then L2 exact match), and the number of tables that hit is
    /// `alternates` — the model's stand-in for "alternate routes for a
    /// packet" (Table 2; the paper cites per-packet route diversity work
    /// \[11\]). `hint` replaces the egress port only when L2 wins. No
    /// register or observer side effects; those are [`Asic::lookup`]'s.
    fn walk(&self, key: &FlowKey, hint: Option<PortId>) -> Result<Route, DropReason> {
        let tcam = match self.tcam.lookup(key) {
            Some(entry) => {
                let (port, queue) = match entry.action {
                    FlowAction::Forward(port) => (port, 0),
                    FlowAction::ForwardQueue(port, queue) => {
                        let n_queues = self.ports.get(port as usize).map_or(1, |p| p.queues.len());
                        // An action naming a queue the port does not have
                        // degrades to the lowest-priority queue.
                        let queue = (queue as usize).min(n_queues.saturating_sub(1));
                        (port, queue as QueueId)
                    }
                    FlowAction::Drop => return Err(DropReason::FlowDrop { entry_id: entry.id }),
                };
                Some((port, queue, entry.id, entry.version))
            }
            None => None,
        };
        let l3 = key.ipv4_dst.and_then(|ip| self.l3.lookup(ip));
        let l2 = self.l2.lookup(key.dst_mac);
        let (table, (port, queue, entry_id, entry_version)) = if let Some(hit) = tcam {
            (LookupKind::Tcam, hit)
        } else if let Some(port) = l3 {
            (LookupKind::L3, (port, 0, 0, 0))
        } else if let Some(port) = l2 {
            (LookupKind::L2, (hint.unwrap_or(port), 0, 0, 0))
        } else {
            return Err(DropReason::NoRoute);
        };
        Ok(Route {
            table,
            port,
            queue,
            entry_id,
            entry_version,
            alternates: tcam.is_some() as u32 + l3.is_some() as u32 + l2.is_some() as u32,
        })
    }

    fn forward_plain(
        &mut self,
        frame: Vec<u8>,
        key: &FlowKey,
        hint: Option<PortId>,
        is_tpp: bool,
    ) -> (Outcome, Option<Vec<u8>>) {
        match self.lookup(key, hint) {
            Ok(route) => self.enqueue(frame, route.port, route.queue, None, is_tpp),
            Err(reason) => self.drop_frame(reason, frame),
        }
    }

    /// Report a drop before MMU admission and build the outcome, handing
    /// the frame back.
    fn drop_frame(&mut self, reason: DropReason, frame: Vec<u8>) -> (Outcome, Option<Vec<u8>>) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.dropped(&self.regs, reason);
        }
        (Outcome::Dropped { reason }, Some(frame))
    }

    fn forward_tpp(
        &mut self,
        mut frame: Vec<u8>,
        key: &FlowKey,
        hint: Option<PortId>,
        now_ns: u64,
    ) -> (Outcome, Option<Vec<u8>>) {
        let route = match self.lookup(key, hint) {
            Ok(route) => route,
            Err(reason) => return self.drop_frame(reason, frame),
        };
        let (out_port, queue_id) = (route.port, route.queue);
        let meta = PacketMeta {
            input_port: key.in_port,
            output_port: out_port,
            matched_entry_id: route.entry_id,
            matched_entry_version: route.entry_version,
            queue_id,
            packet_length: frame.len() as u32,
            arrival_time_ns: now_ns,
            alternate_routes: route.alternates,
        };

        // --- TCPU (Fig. 3: placed just before packets enter memory) ---
        let exec = if self.config.tcpu_enabled {
            let frame_len = frame.len();
            let payload = &mut frame[ETHERNET_HEADER_LEN..];
            match TppPacket::new_checked(payload) {
                // A TPP the receiving end-host has already echoed is
                // inert: re-executing it on the reverse path would
                // corrupt the collected telemetry and re-apply writes
                // (a CSTORE would fire twice). The ECHOED header flag is
                // the end-host's "completed" mark and the TCPU honours
                // it, like the paper's receiver echoing a "fully
                // executed" TPP back through the network unchanged.
                Ok(tpp) if tpp.flags() & tpp_wire::tpp::FLAG_ECHOED != 0 => None,
                Ok(mut tpp) => {
                    debug_assert!(frame_len >= ETHERNET_HEADER_LEN);
                    let port = &mut self.ports[out_port as usize];
                    // First TPP through this switch/port materializes the
                    // lazy scratch slabs the MMU addresses (done before
                    // building the MMU — unconditionally, so state
                    // snapshots do not depend on what the program did).
                    ensure_sram(&mut self.global_sram, self.config.global_sram_words);
                    ensure_sram(&mut port.link_sram, self.config.link_sram_words);
                    let queue = &port.queues[queue_id as usize];
                    let mut mmu = Mmu {
                        switch: &self.regs,
                        port: &port.stats,
                        port_capacity_kbps: port.config.capacity_kbps,
                        queue: queue.stats(),
                        queue_limit_bytes: queue.limit_bytes(),
                        meta: &meta,
                        link_sram: &mut port.link_sram,
                        global_sram: &mut self.global_sram,
                    };
                    let report = self.tcpu.execute(&mut tpp, &mut mmu);
                    self.regs.tpps_executed += 1;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.executed(&self.regs, out_port, &report, tpp.hop(), &self.tcpu);
                    }
                    Some(report)
                }
                // A malformed TPP section is forwarded untouched: the
                // TCPU "ignores" what it cannot parse rather than
                // disrupting traffic.
                Err(_) => None,
            }
        } else {
            None
        };

        self.enqueue(frame, out_port, queue_id, exec, true)
    }

    /// Admit a frame to its egress queue. `is_tpp` is threaded from the
    /// parse stage (via the forward path) so the ECN check does not have
    /// to re-parse the Ethernet header. A refused frame is handed back.
    fn enqueue(
        &mut self,
        mut frame: Vec<u8>,
        out_port: PortId,
        queue_id: QueueId,
        exec: Option<ExecReport>,
        is_tpp: bool,
    ) -> (Outcome, Option<Vec<u8>>) {
        let len = frame.len() as u64;
        let port = &mut self.ports[out_port as usize];
        let capacity_kbps = port.config.capacity_kbps;
        // Occupancy *before* this frame — the value ECN compares against
        // and the value a TPP's `PUSH [Queue:QueueSize]` read this walk.
        let depth_before = port.queues[queue_id as usize].len_bytes();
        let mut ecn_marked = false;
        // ECN: "a router stamps a bit ... whenever the egress queue
        // occupancy exceeds a configurable threshold" (§4). Marking is
        // supported on TPP-format frames (the reproduction's marked
        // header); occupancy is measured at enqueue, DCTCP-style.
        if let Some(threshold) = port.config.ecn_threshold_bytes {
            if depth_before >= threshold as u64 && is_tpp {
                if let Ok(mut tpp) = TppPacket::new_checked(&mut frame[ETHERNET_HEADER_LEN..]) {
                    let flags = tpp.flags();
                    tpp.set_flags(flags | tpp_wire::tpp::FLAG_ECN);
                    port.stats.ecn_marked += 1;
                    ecn_marked = true;
                }
            }
        }
        // Offered load on the egress link (RCP's y(t) input).
        port.stats.rx_bytes += len;
        port.stats.rx_packets += 1;
        port.stats.rx_window_bytes += len;
        let refused = port.queues[queue_id as usize].enqueue(frame).err();
        let accepted = refused.is_none();
        if accepted {
            port.stats.bytes_enqueued += len;
        } else {
            port.stats.bytes_dropped += len;
        }
        let outcome = if accepted {
            Outcome::Enqueued {
                port: out_port,
                queue: queue_id,
                exec,
            }
        } else {
            Outcome::Dropped {
                reason: DropReason::QueueFull { port: out_port },
            }
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            let queue_ahead = (depth_before, capacity_kbps);
            obs.admitted(&self.regs, &outcome, len as u32, ecn_marked, queue_ahead);
        }
        (outcome, refused)
    }

    /// Transmit the next frame of a port (the scheduler): queues are
    /// served in strict priority order, queue 0 first.
    pub fn dequeue(&mut self, port_id: PortId) -> Option<Vec<u8>> {
        let port = &mut self.ports[port_id as usize];
        let mut served: Option<(QueueId, Vec<u8>, u64)> = None;
        for (queue_id, queue) in port.queues.iter_mut().enumerate() {
            if let Some(frame) = queue.dequeue() {
                let len = frame.len() as u64;
                port.stats.tx_bytes += len;
                port.stats.tx_packets += 1;
                port.stats.tx_window_bytes += len;
                served = Some((queue_id as QueueId, frame, queue.len_bytes()));
                break;
            }
        }
        let (queue, frame, depth_after) = served?;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.dequeued(&self.regs, port_id, queue, frame.len() as u32, depth_after);
        }
        Some(frame)
    }

    /// `(total, max)` occupancy in bytes across every egress queue —
    /// the time-series layer's per-tick queue-depth sample.
    pub fn queue_occupancy(&self) -> (u64, u64) {
        let mut total = 0;
        let mut max = 0;
        for port in &self.ports {
            for queue in &port.queues {
                let len = queue.len_bytes();
                total += len;
                max = max.max(len);
            }
        }
        (total, max)
    }

    /// The queue with the highest high-watermark occupancy:
    /// `(port, queue, high_watermark_bytes)` — `tpp-top`'s "hot queue".
    pub fn hottest_queue(&self) -> (PortId, QueueId, u64) {
        let mut best = (0, 0, 0);
        for (p, port) in self.ports.iter().enumerate() {
            for (q, queue) in port.queues.iter().enumerate() {
                let hw = queue.stats().high_watermark_bytes;
                if hw > best.2 {
                    best = (p as PortId, q as QueueId, hw);
                }
            }
        }
        best
    }

    /// True if the port has nothing queued.
    #[cfg(test)]
    fn port_idle(&self, port: PortId) -> bool {
        self.ports[port as usize]
            .queues
            .iter()
            .all(DropTailQueue::is_empty)
    }

    /// The capacity of a port in kbps.
    pub fn port_capacity_kbps(&self, port: PortId) -> u32 {
        self.ports[port as usize].config.capacity_kbps
    }
}

/// Extract the lookup key from a length-checked frame view.
fn flow_key(parsed: &Frame<&[u8]>, in_port: PortId) -> FlowKey {
    let ethertype = parsed.ethertype();
    // A frame claiming IPv4 gets a full header validation (version, IHL,
    // lengths, checksum); packets that fail it are treated as having no
    // routable IP destination and fall through to L2.
    let ipv4_dst = if ethertype == EtherType::IPV4 {
        tpp_wire::Ipv4Packet::new_checked(parsed.payload())
            .ok()
            .map(|p| p.dst_addr().0)
    } else {
        None
    };
    FlowKey {
        in_port,
        dst_mac: parsed.dst_addr(),
        src_mac: parsed.src_addr(),
        ethertype: ethertype.0,
        ipv4_dst,
    }
}

/// Remove a TPP section in place, restoring the encapsulated payload as
/// an ordinary frame (the §4 "strip TPPs" edge action): the inner payload
/// is shifted up against the Ethernet header (`copy_within`) and the
/// frame truncated, reusing the arriving allocation. Returns the inner
/// EtherType, or `None` when there is no meaningful payload to restore
/// (the frame is then untouched).
fn strip_tpp(frame: &mut Vec<u8>) -> Option<u16> {
    let parsed = Frame::new_checked(&frame[..]).ok()?;
    let tpp = TppPacket::new_checked(parsed.payload()).ok()?;
    let inner_ethertype = tpp.inner_ethertype();
    if inner_ethertype == 0 || tpp.inner_payload().is_empty() {
        return None;
    }
    let inner_start = ETHERNET_HEADER_LEN + tpp.tpp_len();
    let inner_len = frame.len() - inner_start;
    frame.copy_within(inner_start.., ETHERNET_HEADER_LEN);
    frame.truncate(ETHERNET_HEADER_LEN + inner_len);
    Frame::new_unchecked(&mut frame[..]).set_ethertype(EtherType(inner_ethertype));
    Some(inner_ethertype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpp_isa::assemble;
    use tpp_telemetry::{DropKind, TraceEventKind};
    use tpp_wire::ethernet::build_frame;
    use tpp_wire::tpp::{AddressingMode, TppBuilder};
    use tpp_wire::EthernetAddress;

    fn asic() -> Asic {
        let mut asic = Asic::new(AsicConfig::with_ports(0xA1, 4));
        asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
        asic.l2_mut().insert(EthernetAddress::from_host_id(2), 2);
        asic
    }

    fn tpp_frame(src_src: &str, mem_words: usize) -> Vec<u8> {
        let program = assemble(src_src).unwrap();
        let payload = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(mem_words)
            .build();
        build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType::TPP,
            &payload,
        )
    }

    #[test]
    fn plain_frame_forwarded_by_l2() {
        let mut asic = asic();
        let frame = build_frame(
            EthernetAddress::from_host_id(2),
            EthernetAddress::from_host_id(1),
            EtherType(0x0800),
            &[0u8; 64],
        );
        let outcome = asic.handle_frame(frame, 0, 1_000);
        assert!(matches!(
            outcome,
            Outcome::Enqueued {
                port: 2,
                queue: 0,
                exec: None
            }
        ));
        assert_eq!(asic.regs().l2_hits, 1);
        assert_eq!(asic.queue_len_bytes(2, 0), 14 + 64);
        let sent = asic.dequeue(2).unwrap();
        assert_eq!(sent.len(), 14 + 64);
        assert_eq!(asic.port_stats(2).tx_packets, 1);
        assert!(asic.port_idle(2));
    }

    #[test]
    fn unknown_destination_dropped() {
        let mut asic = asic();
        let frame = build_frame(
            EthernetAddress::from_host_id(77),
            EthernetAddress::from_host_id(1),
            EtherType(0x0800),
            &[],
        );
        assert_eq!(
            asic.handle_frame(frame, 0, 0),
            Outcome::Dropped {
                reason: DropReason::NoRoute
            }
        );
    }

    #[test]
    fn tpp_executes_and_is_forwarded() {
        let mut asic = asic();
        let frame = tpp_frame("PUSH [Switch:SwitchID]", 2);
        let outcome = asic.handle_frame(frame, 0, 5_000);
        let Outcome::Enqueued {
            port,
            exec: Some(report),
            ..
        } = outcome
        else {
            panic!("unexpected outcome {outcome:?}");
        };
        assert_eq!(port, 1);
        assert!(report.completed());
        assert_eq!(asic.regs().tpps_executed, 1);
        // The transmitted frame carries the pushed switch id.
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.stack_words(), vec![0xA1]);
        assert_eq!(tpp.hop(), 1);
    }

    #[test]
    fn profiled_span_attribution_sums_per_stage() {
        use crate::profile::{
            ProfStage, L2_SEARCH_CYCLES, MMU_ADMIT_CYCLES, PARSE_CYCLES, PARSE_TPP_EXTRA_CYCLES,
            TCAM_SEARCH_CYCLES,
        };
        let mut asic = asic();
        asic.enable_profiling(ProfileConfig::default());
        let frame = tpp_frame("PUSH [Switch:SwitchID]", 2);
        let outcome = asic.handle_frame(frame, 0, 5_000);
        assert!(outcome.is_enqueued());

        let p = asic.profile().unwrap();
        let span = p.last_span();
        assert_eq!(span.parser_cycles, PARSE_CYCLES + PARSE_TPP_EXTRA_CYCLES);
        // TPP ethertype → no IPv4, so the walk is TCAM (always) + L2.
        assert_eq!(span.tables_cycles, TCAM_SEARCH_CYCLES + L2_SEARCH_CYCLES);
        assert_eq!(span.tcpu_cycles, crate::tcpu::cycles_for(1));
        assert_eq!(span.mmu_cycles, MMU_ADMIT_CYCLES);
        assert_eq!(
            span.total_cycles(),
            span.parser_cycles + span.tables_cycles + span.tcpu_cycles + span.mmu_cycles
        );
        assert_eq!(p.total_cycles(), span.total_cycles() as u64);
        assert_eq!(p.packets(), 1);
        assert_eq!(p.budget_violations(), 0, "empty queue, tiny program");
        assert_eq!(p.stage(ProfStage::Tcpu).count(), 1);
        let ops: Vec<_> = p.opcode_breakdown().collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0.mnemonic(), "PUSH");
        assert_eq!(ops[0].1, 1);

        // The scheduler stage is charged at dequeue.
        asic.dequeue(1).unwrap();
        assert_eq!(
            asic.profile().unwrap().stage(ProfStage::Scheduler).count(),
            1
        );
    }

    #[test]
    fn profiling_is_invisible_to_forwarding() {
        let mut profiled = asic();
        profiled.enable_profiling(ProfileConfig::default());
        let mut plain = asic();
        for i in 0..20 {
            let frame = tpp_frame("PUSH [Queue:QueueSize]\nPUSH [Link:TX-Bytes]", 4);
            let a = profiled.handle_frame(frame.clone(), 0, 100 * i);
            let b = plain.handle_frame(frame, 0, 100 * i);
            assert_eq!(a, b);
            assert_eq!(profiled.dequeue(1), plain.dequeue(1));
        }
        assert_eq!(profiled.snapshot(), plain.snapshot());
        assert_eq!(profiled.profile().unwrap().packets(), 20);
    }

    #[test]
    fn budget_violation_under_queue_buildup() {
        let mut asic = asic();
        asic.enable_profiling(ProfileConfig::default());
        // Stack ~1.6 KB into port 1's queue: at 10 Gb/s the head-of-line
        // drain alone is ~1.2 µs, far past the 300 ns budget.
        for i in 0..2 {
            let filler = build_frame(
                EthernetAddress::from_host_id(1),
                EthernetAddress::from_host_id(2),
                EtherType(0x0800),
                &[0u8; 800],
            );
            asic.handle_frame(filler, 0, i);
        }
        let frame = tpp_frame("PUSH [Queue:QueueSize]", 2);
        assert!(asic.handle_frame(frame, 0, 10).is_enqueued());
        let p = asic.profile().unwrap();
        assert_eq!(p.packets(), 3);
        assert!(
            p.budget_violations() >= 1,
            "a packet behind 1.6 KB of queue cannot cut through in 300 ns"
        );
        assert!(p.last_span().queue_wait_ns > 300);
    }

    #[test]
    fn tpp_sees_queue_size_of_its_own_egress_port() {
        let mut asic = asic();
        // Pre-load the egress queue of port 1 with a 78-byte frame.
        let filler = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType(0x0800),
            &[0u8; 64],
        );
        asic.handle_frame(filler, 0, 100);
        let frame = tpp_frame("PUSH [Queue:QueueSize]", 2);
        asic.handle_frame(frame, 0, 200);
        // Read back from the queue: second frame saw 78 bytes ahead of it.
        asic.dequeue(1).unwrap();
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.stack_words(), vec![78]);
    }

    #[test]
    fn tcam_overrides_l2_and_reports_entry() {
        let mut asic = asic();
        asic.install_flow(FlowEntry {
            id: 9,
            version: 3,
            priority: 10,
            pattern: crate::tables::FlowMatch {
                dst_mac: Some(EthernetAddress::from_host_id(1)),
                ..Default::default()
            },
            action: FlowAction::Forward(3),
        });
        assert_eq!(asic.regs().flow_table_version, 1);
        let frame = tpp_frame(
            "PUSH [PacketMetadata:MatchedEntryID]\nPUSH [PacketMetadata:MatchedEntryVersion]",
            2,
        );
        let outcome = asic.handle_frame(frame, 2, 0);
        let Outcome::Enqueued { port, .. } = outcome else {
            panic!()
        };
        assert_eq!(port, 3, "TCAM action overrides the L2 table");
        let sent = asic.dequeue(3).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.stack_words(), vec![9, 3]);
    }

    #[test]
    fn tcam_drop_action() {
        let mut asic = asic();
        asic.install_flow(FlowEntry {
            id: 4,
            version: 1,
            priority: 10,
            pattern: crate::tables::FlowMatch {
                ethertype: Some(0x0800),
                ..Default::default()
            },
            action: FlowAction::Drop,
        });
        let frame = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType(0x0800),
            &[],
        );
        assert_eq!(
            asic.handle_frame(frame, 0, 0),
            Outcome::Dropped {
                reason: DropReason::FlowDrop { entry_id: 4 }
            }
        );
    }

    #[test]
    fn l3_lpm_routes_ipv4() {
        use tpp_wire::{build_ipv4, Ipv4Address};
        let mut asic = asic();
        asic.l3_mut().insert(0x0a000000, 8, 3);
        // A real IPv4 packet (valid checksum) with dst 10.1.2.3.
        let ip = build_ipv4(
            Ipv4Address::new(192, 168, 0, 1),
            Ipv4Address::new(10, 1, 2, 3),
            17,
            64,
            b"datagram",
        );
        let frame = build_frame(
            EthernetAddress::from_host_id(99), // not in L2
            EthernetAddress::from_host_id(1),
            EtherType::IPV4,
            &ip,
        );
        let outcome = asic.handle_frame(frame, 0, 0);
        assert!(matches!(outcome, Outcome::Enqueued { port: 3, .. }));
        assert_eq!(asic.regs().l3_hits, 1);

        // A corrupted header (bad checksum) must NOT be L3-routed: it
        // falls back to L2 and, with no MAC entry, is dropped.
        let mut bad = build_ipv4(
            Ipv4Address::new(192, 168, 0, 1),
            Ipv4Address::new(10, 1, 2, 3),
            17,
            64,
            b"datagram",
        );
        bad[16] ^= 0xff;
        let frame = build_frame(
            EthernetAddress::from_host_id(99),
            EthernetAddress::from_host_id(1),
            EtherType::IPV4,
            &bad,
        );
        assert_eq!(
            asic.handle_frame(frame, 0, 1),
            Outcome::Dropped {
                reason: DropReason::NoRoute
            }
        );
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut asic = Asic::new(AsicConfig::with_ports(1, 2).queue_limit_bytes(200));
        asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
        let mk = || {
            build_frame(
                EthernetAddress::from_host_id(1),
                EthernetAddress::from_host_id(2),
                EtherType(0x0800),
                &[0u8; 150],
            )
        };
        assert!(asic.handle_frame(mk(), 0, 0).is_enqueued());
        assert_eq!(
            asic.handle_frame(mk(), 0, 1),
            Outcome::Dropped {
                reason: DropReason::QueueFull { port: 1 }
            }
        );
        assert_eq!(asic.port_stats(1).bytes_dropped, 164);
        assert_eq!(asic.queue_stats(1, 0).packets_dropped, 1);
        // Offered (rx) counts both; enqueued only the accepted one.
        assert_eq!(asic.port_stats(1).rx_packets, 2);
        assert_eq!(asic.port_stats(1).bytes_enqueued, 164);
    }

    #[test]
    fn edge_filter_drop() {
        let mut asic = asic();
        asic.set_ingress_tpp_filter(0, Some(StripAction::Drop));
        let frame = tpp_frame("PUSH [Queue:QueueSize]", 2);
        assert_eq!(
            asic.handle_frame(frame, 0, 0),
            Outcome::Dropped {
                reason: DropReason::EdgeFiltered
            }
        );
        // Ordinary traffic from the same port is unaffected.
        let plain = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType(0x0800),
            &[],
        );
        assert!(asic.handle_frame(plain, 0, 0).is_enqueued());
        // TPPs from a trusted port still run.
        let frame = tpp_frame("PUSH [Queue:QueueSize]", 2);
        assert!(asic.handle_frame(frame, 2, 0).is_enqueued());
    }

    #[test]
    fn edge_filter_unwrap_restores_inner_payload() {
        let mut asic = asic();
        asic.set_ingress_tpp_filter(0, Some(StripAction::Unwrap));
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let payload = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(2)
            .payload(b"inner-datagram")
            .inner_ethertype(0x0800)
            .build();
        let frame = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType::TPP,
            &payload,
        );
        let outcome = asic.handle_frame(frame, 0, 0);
        assert!(outcome.is_enqueued());
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        assert_eq!(parsed.ethertype(), EtherType(0x0800));
        assert_eq!(parsed.payload(), b"inner-datagram");
        assert_eq!(asic.regs().tpps_executed, 0, "stripped TPP never ran");
    }

    #[test]
    fn edge_filter_unwrap_drops_empty_inner() {
        let mut asic = asic();
        asic.set_ingress_tpp_filter(0, Some(StripAction::Unwrap));
        let frame = tpp_frame("PUSH [Queue:QueueSize]", 2); // no inner payload
        assert_eq!(
            asic.handle_frame(frame, 0, 0),
            Outcome::Dropped {
                reason: DropReason::EdgeFiltered
            }
        );
    }

    #[test]
    fn tcpu_disabled_forwards_tpp_unexecuted() {
        let mut cfg = AsicConfig::with_ports(1, 2);
        cfg.tcpu_enabled = false;
        let mut asic = Asic::new(cfg);
        asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
        let frame = tpp_frame("PUSH [Switch:SwitchID]", 2);
        let outcome = asic.handle_frame(frame, 0, 0);
        let Outcome::Enqueued { exec, .. } = outcome else {
            panic!()
        };
        assert!(exec.is_none());
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.hop(), 0, "no TCPU, no hop advance");
    }

    #[test]
    fn malformed_tpp_section_forwarded_untouched() {
        let mut asic = asic();
        // Valid Ethernet + TPP ethertype, but garbage payload.
        let frame = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType::TPP,
            &[0xff; 10],
        );
        let outcome = asic.handle_frame(frame, 0, 0);
        let Outcome::Enqueued { exec, .. } = outcome else {
            panic!()
        };
        assert!(exec.is_none(), "TCPU ignored the malformed section");
    }

    #[test]
    fn forward_queue_action_selects_priority_queue() {
        let mut cfg = AsicConfig::with_ports(1, 2);
        cfg.ports[1].num_queues = 2;
        let mut asic = Asic::new(cfg);
        asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
        // Bulk traffic (L2 path) lands in queue 0 by default; steer it to
        // the low-priority queue 1 via the TCAM, leaving queue 0 for TPPs
        // marked by a higher-priority entry.
        asic.install_flow(FlowEntry {
            id: 1,
            version: 1,
            priority: 10,
            pattern: crate::tables::FlowMatch {
                ethertype: Some(0x0802),
                ..Default::default()
            },
            action: FlowAction::ForwardQueue(1, 1),
        });
        let bulk = || {
            build_frame(
                EthernetAddress::from_host_id(1),
                EthernetAddress::from_host_id(2),
                EtherType(0x0802),
                &[0u8; 500],
            )
        };
        // Two bulk frames queue first...
        assert!(asic.handle_frame(bulk(), 0, 0).is_enqueued());
        assert!(asic.handle_frame(bulk(), 0, 1).is_enqueued());
        assert_eq!(asic.queue_len_bytes(1, 1), 2 * 514);
        assert_eq!(asic.queue_len_bytes(1, 0), 0);
        // ...then a TPP arrives into queue 0 and reports its queue id.
        let frame = tpp_frame("PUSH [PacketMetadata:QueueID]\nPUSH [Queue:QueueSize]", 2);
        let outcome = asic.handle_frame(frame, 0, 2);
        assert!(outcome.is_enqueued());
        // Strict priority: the TPP (queue 0) transmits BEFORE the two
        // earlier bulk frames.
        let first = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&first[..]).unwrap();
        assert!(parsed.is_tpp(), "high-priority queue served first");
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        // It was in queue 0, and queue 0 was empty when it was enqueued.
        assert_eq!(tpp.stack_words(), vec![0, 0]);
        assert!(!Frame::new_checked(&asic.dequeue(1).unwrap()[..])
            .unwrap()
            .is_tpp());
    }

    #[test]
    fn forward_queue_out_of_range_degrades_to_last_queue() {
        let mut cfg = AsicConfig::with_ports(1, 2);
        cfg.ports[1].num_queues = 2;
        let mut asic = Asic::new(cfg);
        asic.install_flow(FlowEntry {
            id: 1,
            version: 1,
            priority: 10,
            pattern: crate::tables::FlowMatch::default(),
            action: FlowAction::ForwardQueue(1, 7),
        });
        let frame = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType(0x0802),
            &[0u8; 100],
        );
        let outcome = asic.handle_frame(frame, 0, 0);
        assert_eq!(
            outcome,
            Outcome::Enqueued {
                port: 1,
                queue: 1,
                exec: None
            }
        );
    }

    #[test]
    fn ecn_marks_tpps_above_threshold() {
        let mut asic = asic();
        asic.set_ecn_threshold(1, Some(100));
        // First TPP: queue empty, below threshold -> unmarked.
        let outcome = asic.handle_frame(tpp_frame("NOP", 1), 0, 0);
        assert!(outcome.is_enqueued());
        // Backlog past the threshold with a plain frame.
        let filler = build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            EtherType(0x0802),
            &[0u8; 200],
        );
        asic.handle_frame(filler, 0, 1);
        // Second TPP: queue >= 100 B -> marked.
        asic.handle_frame(tpp_frame("NOP", 1), 0, 2);
        assert_eq!(asic.port_stats(1).ecn_marked, 1);

        let check = |frame: Vec<u8>, want_marked: bool| {
            let parsed = Frame::new_checked(&frame[..]).unwrap();
            if !parsed.is_tpp() {
                return;
            }
            let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
            assert_eq!(
                tpp.flags() & tpp_wire::tpp::FLAG_ECN != 0,
                want_marked,
                "marking mismatch"
            );
        };
        check(asic.dequeue(1).unwrap(), false); // first TPP
        asic.dequeue(1).unwrap(); // filler (plain, unmarked by def.)
        check(asic.dequeue(1).unwrap(), true); // second TPP
    }

    #[test]
    fn ecn_disabled_marks_nothing() {
        let mut asic = asic();
        for _ in 0..10 {
            asic.handle_frame(tpp_frame("NOP", 1), 0, 0);
        }
        assert_eq!(asic.port_stats(1).ecn_marked, 0);
    }

    #[test]
    fn snr_register_readable_by_tpp() {
        let mut asic = asic();
        asic.set_port_snr(1, 257); // 25.7 dB
        let frame = tpp_frame("PUSH [Link:SnrDeciBel]", 2);
        assert!(asic.handle_frame(frame, 0, 0).is_enqueued());
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.stack_words(), vec![257]);
    }

    #[test]
    fn trace_records_full_pipeline_walk() {
        use tpp_telemetry::SharedSink;

        let shared = SharedSink::new(64);
        let mut asic = asic();
        asic.set_trace_sink(Some(Box::new(shared.clone())));
        let frame = tpp_frame("PUSH [Switch:SwitchID]", 2);
        assert!(asic.handle_frame(frame, 0, 7_000).is_enqueued());
        asic.dequeue(1).unwrap();
        let events = shared.events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec!["parse", "lookup_hit", "tcpu_exec", "enqueue", "dequeue"]
        );
        // All per-arrival events share the packet's sequence number.
        assert!(events[..4].iter().all(|e| e.seq == 1 && e.t_ns == 7_000));
        match &events[3].kind {
            TraceEventKind::Enqueue {
                port,
                queue,
                depth_bytes,
                ..
            } => {
                assert_eq!((*port, *queue, *depth_bytes), (1, 0, 0));
            }
            other => panic!("expected enqueue, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_drops() {
        use tpp_telemetry::SharedSink;

        let shared = SharedSink::new(64);
        let mut asic = asic();
        asic.set_trace_sink(Some(Box::new(shared.clone())));
        // Unknown destination: parse ok, lookup miss, drop(no_route).
        let frame = build_frame(
            EthernetAddress::from_host_id(77),
            EthernetAddress::from_host_id(1),
            EtherType(0x0800),
            &[],
        );
        assert!(matches!(
            asic.handle_frame(frame, 0, 0),
            Outcome::Dropped { .. }
        ));
        let events = shared.events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["parse", "lookup_miss", "drop"]);
        match events[2].kind {
            TraceEventKind::Drop { reason, port } => {
                assert_eq!(reason, DropKind::NoRoute);
                assert_eq!(port, None);
            }
            ref other => panic!("expected drop, got {other:?}"),
        }
    }

    #[test]
    fn every_table_mutation_is_seen_by_the_very_next_frame() {
        use tpp_wire::{build_ipv4, Ipv4Address};
        let mut asic = asic();
        let ip = build_ipv4(
            Ipv4Address::new(192, 168, 0, 1),
            Ipv4Address::new(10, 1, 2, 3),
            17,
            64,
            b"datagram",
        );
        let mk = || {
            build_frame(
                EthernetAddress::from_host_id(9),
                EthernetAddress::from_host_id(2),
                EtherType::IPV4,
                &ip,
            )
        };
        // (tcam_hits, l3_hits, l2_hits) after each frame.
        let hits = |a: &Asic| (a.regs().tcam_hits, a.regs().l3_hits, a.regs().l2_hits);

        assert!(
            matches!(asic.handle_frame(mk(), 0, 0), Outcome::Dropped { .. }),
            "unknown MAC"
        );
        assert_eq!(hits(&asic), (0, 0, 0));
        asic.l2_mut().insert(EthernetAddress::from_host_id(9), 3);
        assert_eq!(asic.handle_frame(mk(), 0, 1).egress(), Some((3, 0)));
        assert_eq!(hits(&asic), (0, 0, 1));
        asic.l3_mut().insert(0x0a00_0000, 8, 2);
        assert_eq!(asic.handle_frame(mk(), 0, 2).egress(), Some((2, 0)));
        assert_eq!(hits(&asic), (0, 1, 1));
        asic.install_flow(FlowEntry {
            id: 7,
            version: 1,
            priority: 10,
            pattern: crate::tables::FlowMatch {
                dst_mac: Some(EthernetAddress::from_host_id(9)),
                ..Default::default()
            },
            action: FlowAction::Forward(1),
        });
        assert_eq!(asic.handle_frame(mk(), 0, 3).egress(), Some((1, 0)));
        assert_eq!(hits(&asic), (1, 1, 1));
        asic.remove_flow(7);
        assert_eq!(asic.handle_frame(mk(), 0, 4).egress(), Some((2, 0)));
        assert_eq!(hits(&asic), (1, 2, 1));
        asic.reset(1_000);
        assert!(
            matches!(asic.handle_frame(mk(), 0, 2_000), Outcome::Dropped { .. }),
            "tables wiped"
        );
        assert_eq!(hits(&asic), (0, 0, 0));
        asic.l2_mut().insert(EthernetAddress::from_host_id(9), 1);
        assert_eq!(asic.handle_frame(mk(), 0, 3_000).egress(), Some((1, 0)));
        assert_eq!(hits(&asic), (0, 0, 1));
    }

    #[test]
    fn ecmp_hint_applies_to_its_own_frame_only() {
        let mut asic = asic();
        let mk = || {
            build_frame(
                EthernetAddress::from_host_id(1),
                EthernetAddress::from_host_id(2),
                EtherType(0x0802),
                &[0u8; 32],
            )
        };
        assert_eq!(
            asic.handle_frame_routed(mk(), 0, 0, Some(3)).0.egress(),
            Some((3, 0)),
            "L2 wins the walk, so the hint replaces its port"
        );
        // A frame too short to parse drops before its lookup; its hint
        // dies with it and the next frame resolves by L2.
        assert_eq!(
            asic.handle_frame_routed(vec![0u8; 5], 0, 1, Some(3)),
            (
                Outcome::Dropped {
                    reason: DropReason::ParseError
                },
                Some(vec![0u8; 5])
            ),
            "the dropped frame comes back"
        );
        assert_eq!(asic.handle_frame(mk(), 0, 2).egress(), Some((1, 0)));
    }

    /// The deleted two-pass lookup (`lookup_tables` + `route_diversity`),
    /// kept as the reference [`Asic::walk`] is checked against: first hit
    /// by precedence, then a second pass that counts the tables that hit.
    fn reference_walk(
        asic: &Asic,
        key: &FlowKey,
        hint: Option<PortId>,
    ) -> Result<Route, DropReason> {
        let route_diversity = || {
            asic.tcam.lookup(key).is_some() as u32
                + key.ipv4_dst.is_some_and(|ip| asic.l3.lookup(ip).is_some()) as u32
                + asic.l2.lookup(key.dst_mac).is_some() as u32
        };
        let forward = |table, port, queue, entry_id, entry_version| {
            Ok(Route {
                table,
                port,
                queue,
                entry_id,
                entry_version,
                alternates: route_diversity(),
            })
        };
        if let Some(entry) = asic.tcam.lookup(key) {
            return match entry.action {
                FlowAction::Forward(port) => {
                    forward(LookupKind::Tcam, port, 0, entry.id, entry.version)
                }
                FlowAction::ForwardQueue(port, queue) => {
                    let n_queues = asic.ports.get(port as usize).map_or(1, |p| p.queues.len());
                    let queue = (queue as usize).min(n_queues.saturating_sub(1)) as QueueId;
                    forward(LookupKind::Tcam, port, queue, entry.id, entry.version)
                }
                FlowAction::Drop => Err(DropReason::FlowDrop { entry_id: entry.id }),
            };
        }
        if let Some(port) = key.ipv4_dst.and_then(|ip| asic.l3.lookup(ip)) {
            return forward(LookupKind::L3, port, 0, 0, 0);
        }
        if let Some(port) = asic.l2.lookup(key.dst_mac) {
            return forward(LookupKind::L2, hint.unwrap_or(port), 0, 0, 0);
        }
        Err(DropReason::NoRoute)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The single walk resolves exactly as the two-pass reference
        /// over random table contents: overlapping TCAM patterns at equal
        /// priorities with all three actions, L3 prefixes, L2 bindings,
        /// and keys with or without an IPv4 destination and a hint.
        #[test]
        fn single_walk_matches_two_pass_reference(
            tcam in proptest::collection::vec(
                (0u32..4, 0u16..3, any::<u8>(), any::<u8>()), 0..8),
            l3 in proptest::collection::vec((any::<u8>(), 0u8..9, 0u16..4), 0..4),
            l2 in proptest::collection::vec((0u32..4, 0u16..4), 0..4),
            keys in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
        ) {
            let mut cfg = AsicConfig::with_ports(1, 4);
            cfg.ports[1].num_queues = 2;
            let mut asic = Asic::new(cfg);
            for (i, &(id, priority, fields, act)) in tcam.iter().enumerate() {
                // Each field wildcarded or drawn from a two-value domain,
                // so patterns overlap each other and the keys below.
                let pick = |bit: u8| fields & (1 << bit) != 0;
                asic.install_flow(FlowEntry {
                    id,
                    version: i as u32,
                    priority,
                    pattern: crate::tables::FlowMatch {
                        in_port: pick(0).then_some(pick(1) as PortId),
                        dst_mac: pick(2).then(|| EthernetAddress::from_host_id(pick(3) as u32)),
                        src_mac: None,
                        ethertype: pick(4).then_some(if pick(5) { 0x0800 } else { 0x0802 }),
                    },
                    action: match act % 3 {
                        0 => FlowAction::Forward((act >> 2) as PortId % 4),
                        1 => FlowAction::ForwardQueue((act >> 2) as PortId % 4, act >> 6),
                        _ => FlowAction::Drop,
                    },
                });
            }
            for &(octet, len, port) in &l3 {
                asic.l3_mut().insert((octet as u32) << 24, len, port);
            }
            for &(host, port) in &l2 {
                asic.l2_mut().insert(EthernetAddress::from_host_id(host), port);
            }
            for &(bits, octet, hint) in &keys {
                let ipv4 = bits & 1 != 0;
                let key = FlowKey {
                    in_port: (bits >> 1 & 1) as PortId,
                    dst_mac: EthernetAddress::from_host_id((bits >> 2 & 3) as u32),
                    src_mac: EthernetAddress::from_host_id(9),
                    ethertype: if ipv4 { 0x0800 } else { 0x0802 },
                    ipv4_dst: ipv4.then_some((octet as u32) << 24 | 7),
                };
                let hint = (hint & 1 != 0).then_some((hint >> 1) as PortId % 4);
                prop_assert_eq!(asic.walk(&key, hint), reference_walk(&asic, &key, hint));
            }
        }
    }

    #[test]
    fn decode_cache_hits_on_repeated_programs() {
        let mut asic = asic();
        for i in 0..4 {
            assert!(asic
                .handle_frame(tpp_frame("PUSH [Switch:SwitchID]", 2), 0, i)
                .is_enqueued());
        }
        let (hits, misses) = asic.decode_cache_stats();
        assert_eq!((hits, misses), (3, 1), "decode once, execute many");
    }

    #[test]
    fn snapshot_restore_roundtrip_rewinds_all_visible_state() {
        let mut asic = asic();
        asic.global_sram_mut().set_word(0, 0xdead_beef).unwrap();
        asic.link_sram_mut(1).unwrap().set_word(2, 7).unwrap();
        assert!(asic
            .handle_frame(tpp_frame("PUSH [Switch:SwitchID]", 2), 0, 1_000)
            .is_enqueued());
        let saved = asic.snapshot();
        assert_eq!(saved.ports[1].queues[0].frames.len(), 1);

        // Diverge: more traffic, SRAM writes, a dequeue.
        assert!(asic
            .handle_frame(tpp_frame("PUSH [Queue:QueueSize]", 2), 0, 2_000)
            .is_enqueued());
        asic.dequeue(1).unwrap();
        asic.global_sram_mut().set_word(0, 1).unwrap();
        assert_ne!(asic.snapshot(), saved);

        // Restore rewinds everything the snapshot captures...
        asic.restore(&saved);
        assert_eq!(asic.snapshot(), saved);
        assert_eq!(asic.regs().packets_processed, 1);
        assert_eq!(asic.global_sram().word(0).unwrap(), 0xdead_beef);
        assert_eq!(
            asic.queue_len_bytes(1, 0),
            saved.ports[1].queues[0].stats.queue_size_bytes
        );
        // ...and the restored queue still serves the frame it held.
        let sent = asic.dequeue(1).unwrap();
        let parsed = Frame::new_checked(&sent[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.stack_words(), vec![0xA1]);
    }

    #[test]
    fn wall_clock_and_packet_counters_advance() {
        let mut asic = asic();
        let frame = tpp_frame("PUSH [Switch:PacketsProcessed]", 2);
        asic.handle_frame(frame, 0, 42_000);
        assert_eq!(asic.regs().wall_clock_ns, 42_000);
        assert_eq!(asic.regs().packets_processed, 1);
    }
}

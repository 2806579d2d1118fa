//! Per-packet span profiling: cycle attribution across pipeline stages.
//!
//! The observability plane's lowest layer. When enabled (opt-in via
//! [`crate::Asic::enable_profiling`]; off by default and `#[cold]` off
//! the fast path), every packet walk is charged a deterministic cycle
//! cost per stage — parser, tables, TCPU, MMU, scheduler — and the
//! attribution is folded into stage-latency histograms, a
//! reservoir-sampled distribution of span totals, a TCPU per-opcode
//! cycle breakdown, and 300 ns cut-through budget-violation counters.
//!
//! ## Cycle model
//!
//! The ASIC is modelled at 1 GHz (1 cycle ≙ 1 ns), matching the §3.3
//! argument that a 300 ns cut-through budget buys ~300 TCPU cycles:
//!
//! | Stage | Cycles |
//! |---|---|
//! | parser | [`PARSE_CYCLES`] + [`PARSE_TPP_EXTRA_CYCLES`] for TPP headers, + [`EDGE_FILTER_CYCLES`] when an ingress filter is configured |
//! | tables | [`TCAM_SEARCH_CYCLES`] always, + [`L3_SEARCH_CYCLES`] / [`L2_SEARCH_CYCLES`] per table the modelled walk reaches before its first hit |
//! | TCPU | the execution report's cycles (4-cycle pipeline latency + 1/instruction) |
//! | MMU | [`MMU_ADMIT_CYCLES`] per enqueue admission (ECN check + drop-tail test) |
//! | scheduler | 1 cycle per priority queue scanned at dequeue |
//!
//! The tables charge is a pure function of the *winning* table and the
//! flow key: the modelled pipeline stops at its first hit, whatever the
//! software walk consulted to count alternate routes. A packet's span
//! total is exactly `parser + tables + tcpu + mmu`
//! (scheduler cycles accrue at dequeue, outside the ingress span); the
//! `obs_invariants` proptests pin this sum.
//!
//! ## Budget violations
//!
//! A packet violates the cut-through budget when its pipeline cycles
//! (at 1 ns/cycle) plus the head-of-line drain time of the occupancy
//! already in its egress queue exceed
//! [`ProfileConfig::cut_through_ns`]: the packet demonstrably could not
//! cut through the switch in 300 ns. Under overload the queue-drain
//! term dominates — exactly the excursions the §2.1 microburst monitor
//! exists to catch.
//!
//! ## The observer seam
//!
//! [`crate::Asic`] reports each pipeline transition once (parsed, edge
//! filter, looked up, executed, dropped, admitted, dequeued, rebooted)
//! to one `Observer` owning both instruments: the trace sink and this
//! profiler. Each `#[cold]` hook builds the transition's [`TraceEvent`]
//! and charges the cycle model above. The observer is boxed behind one
//! `Option`, `None` while both instruments are off, so an unobserved
//! frame pays one branch per transition. It is a struct, not a trait:
//! profiling is switched on at run time on a built switch, which a
//! monomorphised `Asic<O>` could not do, and [`crate::Asic::profile`]
//! returns the concrete profile, which a `dyn` observer could only do
//! by downcasting.

use tpp_isa::Opcode;
use tpp_telemetry::{
    nearest_rank, DropKind, Histogram, LookupKind, MetricsRegistry, SharedSink, TcpuOutcome,
    TraceEvent, TraceEventKind,
};

use crate::asic::{DropReason, Outcome, Route};
use crate::config::StripAction;
use crate::memmap::QueueId;
use crate::stats::SwitchRegs;
use crate::tables::{FlowKey, PortId};
use crate::tcpu::{ExecReport, Tcpu};

/// Cycles charged by the header parser for any frame.
pub const PARSE_CYCLES: u32 = 4;
/// Extra parser cycles for recognizing and validating a TPP header.
pub const PARSE_TPP_EXTRA_CYCLES: u32 = 2;
/// Cycles for consulting the §4 ingress edge filter.
pub const EDGE_FILTER_CYCLES: u32 = 1;
/// Cycles for the (always-consulted) TCAM search.
pub const TCAM_SEARCH_CYCLES: u32 = 2;
/// Cycles for an LPM walk of the L3 table.
pub const L3_SEARCH_CYCLES: u32 = 4;
/// Cycles for the L2 exact-match lookup.
pub const L2_SEARCH_CYCLES: u32 = 2;
/// Cycles for MMU admission (ECN threshold check + drop-tail test).
pub const MMU_ADMIT_CYCLES: u32 = 2;

/// Default cut-through latency budget: "a 1 GHz switch ASIC" gives a
/// TPP "about 300 ns" (§3.3).
pub const DEFAULT_CUT_THROUGH_NS: u32 = 300;

/// The profiled pipeline stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfStage {
    /// Header parser (+ edge filter).
    Parser = 0,
    /// TCAM → L3 → L2 forwarding tables.
    Tables = 1,
    /// The tiny packet CPU.
    Tcpu = 2,
    /// MMU admission into the egress queue.
    Mmu = 3,
    /// Egress strict-priority scheduler (charged at dequeue).
    Scheduler = 4,
}

impl ProfStage {
    /// All stages, in pipeline order.
    pub const ALL: [ProfStage; 5] = [
        ProfStage::Parser,
        ProfStage::Tables,
        ProfStage::Tcpu,
        ProfStage::Mmu,
        ProfStage::Scheduler,
    ];

    /// Stable lowercase name for metric paths and display.
    pub fn name(self) -> &'static str {
        match self {
            ProfStage::Parser => "parser",
            ProfStage::Tables => "tables",
            ProfStage::Tcpu => "tcpu",
            ProfStage::Mmu => "mmu",
            ProfStage::Scheduler => "scheduler",
        }
    }

    /// The stage histogram's exported name, `profile.stage.<name>_cycles`.
    fn metric_name(self) -> &'static str {
        match self {
            ProfStage::Parser => "profile.stage.parser_cycles",
            ProfStage::Tables => "profile.stage.tables_cycles",
            ProfStage::Tcpu => "profile.stage.tcpu_cycles",
            ProfStage::Mmu => "profile.stage.mmu_cycles",
            ProfStage::Scheduler => "profile.stage.scheduler_cycles",
        }
    }
}

/// Cycles the table walk charges, given which tables the modelled
/// pipeline consulted: derived from the winning table and the flow key
/// only.
fn table_walk_cycles(consulted_l3: bool, consulted_l2: bool) -> u32 {
    TCAM_SEARCH_CYCLES
        + if consulted_l3 { L3_SEARCH_CYCLES } else { 0 }
        + if consulted_l2 { L2_SEARCH_CYCLES } else { 0 }
}

/// One packet's ingress span: cycle stamps per stage plus the queueing
/// estimate the budget check uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Parser (+ edge filter) cycles.
    pub parser_cycles: u32,
    /// Forwarding-table cycles.
    pub tables_cycles: u32,
    /// TCPU cycles (0 for non-TPP, echoed, or malformed frames).
    pub tcpu_cycles: u32,
    /// MMU admission cycles (0 when the packet dropped before enqueue).
    pub mmu_cycles: u32,
    /// Estimated head-of-line wait: drain time of the bytes already in
    /// the egress queue at admission, ns.
    pub queue_wait_ns: u64,
    /// Whether the packet was admitted to its egress queue.
    pub enqueued: bool,
}

impl Span {
    /// Total pipeline cycles charged to this packet
    /// (`parser + tables + tcpu + mmu`; scheduler cycles are charged at
    /// dequeue, outside the ingress span).
    pub fn total_cycles(&self) -> u32 {
        self.parser_cycles + self.tables_cycles + self.tcpu_cycles + self.mmu_cycles
    }
}

/// Fixed-size uniform sample of a stream (Vitter's algorithm R) with a
/// deterministic xorshift64* generator, so profiled runs replay
/// bit-identically.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// A reservoir keeping at most `cap` samples, seeded for replay.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            samples: Vec::new(),
            cap: cap.max(1),
            seen: 0,
            // xorshift64* must not start at 0.
            state: seed | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Offer one sample to the reservoir.
    pub fn offer(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
            return;
        }
        let j = self.next_rand() % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = value;
        }
    }

    /// Replace `out`'s contents with the held samples, ascending.
    fn sort_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.samples);
        out.sort_unstable();
    }
}

/// The span-total aggregation: a log₂ histogram (mergeable, exportable)
/// plus a reservoir of raw samples (exact small-set percentiles for the
/// `tpp-top` dashboard).
#[derive(Debug, Clone)]
pub struct StageStat {
    hist: Histogram,
    reservoir: Reservoir,
}

impl StageStat {
    fn new(cap: usize, seed: u64) -> Self {
        StageStat {
            hist: Histogram::default(),
            reservoir: Reservoir::new(cap, seed),
        }
    }

    fn record(&mut self, value: u64) {
        self.hist.observe(value);
        self.reservoir.offer(value);
    }

    /// The stage-latency histogram.
    pub fn hist(&self) -> &Histogram {
        &self.hist
    }

    /// Median and 99th percentile over the reservoir (exact for small
    /// streams), from one sort done in `scratch` (left holding the sorted
    /// samples): a caller reading many switches allocates nothing after
    /// its first.
    pub fn p50_p99(&self, scratch: &mut Vec<u64>) -> (u64, u64) {
        self.reservoir.sort_into(scratch);
        let at = |num, den| nearest_rank(scratch, num, den).unwrap_or(0);
        (at(1, 2), at(99, 100))
    }

    /// Samples the reservoir holds (what [`StageStat::p50_p99`] sorts).
    pub fn held(&self) -> usize {
        self.reservoir.samples.len()
    }

    /// Largest sample ever recorded (from the histogram, not subject to
    /// reservoir eviction).
    pub fn max(&self) -> u64 {
        self.hist.max()
    }
}

/// Profiling knobs.
#[derive(Debug, Clone, Copy)]
pub struct ProfileConfig {
    /// Fold every Nth packet's span into the histograms and the
    /// reservoir (1 = every packet). Violation and total-cycle
    /// *counters* always cover every profiled packet.
    pub sample_every: u32,
    /// Cut-through latency budget, ns.
    pub cut_through_ns: u32,
    /// Capacity of the span-total reservoir.
    pub reservoir_capacity: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            sample_every: 1,
            cut_through_ns: DEFAULT_CUT_THROUGH_NS,
            reservoir_capacity: 1024,
        }
    }
}

pub(crate) const N_OPCODES: usize = Opcode::ALL.len();

/// Exported counter name per opcode, `profile.tcpu.opcode.<MNEMONIC>`,
/// in [`opcode_index`] order.
const OPCODE_METRICS: [&str; N_OPCODES] = [
    "profile.tcpu.opcode.NOP",
    "profile.tcpu.opcode.LOAD",
    "profile.tcpu.opcode.STORE",
    "profile.tcpu.opcode.PUSH",
    "profile.tcpu.opcode.POP",
    "profile.tcpu.opcode.CSTORE",
    "profile.tcpu.opcode.CEXEC",
    "profile.tcpu.opcode.ADD",
    "profile.tcpu.opcode.SUB",
    "profile.tcpu.opcode.AND",
    "profile.tcpu.opcode.OR",
    "profile.tcpu.opcode.PUSHI",
];

/// `op`'s position in [`Opcode::ALL`].
pub(crate) fn opcode_index(op: Opcode) -> usize {
    match op {
        Opcode::Nop => 0,
        Opcode::Load => 1,
        Opcode::Store => 2,
        Opcode::Push => 3,
        Opcode::Pop => 4,
        Opcode::Cstore => 5,
        Opcode::Cexec => 6,
        Opcode::Add => 7,
        Opcode::Sub => 8,
        Opcode::And => 9,
        Opcode::Or => 10,
        Opcode::PushI => 11,
    }
}

/// Per-switch span profiler: accumulates the in-flight packet's span
/// and folds completed spans into stage statistics.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    config: ProfileConfig,
    cur: Span,
    last: Span,
    /// Packets whose span completed (enqueued or dropped).
    packets: u64,
    /// Packets folded into the histograms and reservoir (`sample_every`).
    sampled: u64,
    /// Sum of every profiled packet's `Span::total_cycles`.
    total_cycles: u64,
    /// Packets that missed the cut-through budget.
    budget_violations: u64,
    stages: [Histogram; 5],
    /// Distribution of span totals (pipeline cycles, ingress only).
    total_stat: StageStat,
    /// Executed-instruction count per opcode (1 cycle each).
    opcode_counts: [u64; N_OPCODES],
    /// TCPU cycles not attributable to an instruction (the 4-cycle
    /// pipeline latency of each execution).
    tcpu_latency_cycles: u64,
}

impl PipelineProfile {
    /// A fresh profiler; `seed` (the switch id) keys the reservoir's
    /// deterministic RNG stream.
    pub fn new(config: ProfileConfig, seed: u64) -> Self {
        // Stream 6: the dashboard goldens pin the span percentiles it samples.
        let reservoir_seed = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 6;
        PipelineProfile {
            config,
            cur: Span::default(),
            last: Span::default(),
            packets: 0,
            sampled: 0,
            total_cycles: 0,
            budget_violations: 0,
            stages: Default::default(),
            total_stat: StageStat::new(config.reservoir_capacity, reservoir_seed),
            opcode_counts: [0; N_OPCODES],
            tcpu_latency_cycles: 0,
        }
    }

    /// Complete the current span, which the observer's hooks charged
    /// stage by stage, and fold it into the counters and statistics.
    fn finish(&mut self, enqueued: bool) {
        self.cur.enqueued = enqueued;
        let total = self.cur.total_cycles();
        self.packets += 1;
        self.total_cycles += total as u64;
        if total as u64 + self.cur.queue_wait_ns > self.config.cut_through_ns as u64 {
            self.budget_violations += 1;
        }
        if self
            .packets
            .is_multiple_of(self.config.sample_every.max(1) as u64)
        {
            self.sampled += 1;
            self.stages[ProfStage::Parser as usize].observe(self.cur.parser_cycles as u64);
            self.stages[ProfStage::Tables as usize].observe(self.cur.tables_cycles as u64);
            self.stages[ProfStage::Tcpu as usize].observe(self.cur.tcpu_cycles as u64);
            self.stages[ProfStage::Mmu as usize].observe(self.cur.mmu_cycles as u64);
            self.total_stat.record(total as u64);
        }
        self.last = self.cur;
    }

    /// Spans completed (every profiled packet, sampled or not).
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Spans folded into the histograms and reservoir.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Sum of every span's total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Packets that missed the cut-through budget.
    pub fn budget_violations(&self) -> u64 {
        self.budget_violations
    }

    /// The most recently completed span.
    pub fn last_span(&self) -> Span {
        self.last
    }

    /// The stage-latency histogram of `stage`, cycles.
    pub fn stage(&self, stage: ProfStage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Distribution of span totals.
    pub fn total_stat(&self) -> &StageStat {
        &self.total_stat
    }

    /// Per-opcode executed-instruction counts (1 cycle each), in
    /// [`Opcode::ALL`] order, zero entries skipped.
    pub fn opcode_breakdown(&self) -> impl Iterator<Item = (Opcode, u64)> + '_ {
        Opcode::ALL
            .iter()
            .map(|&op| (op, self.opcode_counts[opcode_index(op)]))
            .filter(|&(_, n)| n > 0)
    }

    /// Export under `profile.*` names.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.add("profile.packets", self.packets);
        registry.add("profile.sampled", self.sampled);
        registry.add("profile.total_cycles", self.total_cycles);
        registry.add("profile.budget_violations", self.budget_violations);
        registry.add("profile.tcpu.latency_cycles", self.tcpu_latency_cycles);
        for (op, count) in self.opcode_breakdown() {
            registry.add(OPCODE_METRICS[opcode_index(op)], count);
        }
        for stage in ProfStage::ALL {
            registry.merge_histogram(stage.metric_name(), self.stage(stage));
        }
        registry.merge_histogram("profile.span.total_cycles", self.total_stat.hist());
    }
}

/// The trace sink and the span profiler of one switch, either or both:
/// the seam [`crate::Asic`] reports every pipeline transition through
/// (see the module docs).
#[derive(Default)]
pub(crate) struct Observer {
    pub(crate) sink: Option<SharedSink>,
    pub(crate) profile: Option<PipelineProfile>,
}

impl Observer {
    /// Hand one event to the sink. `seq` is the `packets_processed`
    /// register, so every event of one packet's walk shares it.
    fn record(&mut self, regs: &SwitchRegs, kind: TraceEventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                t_ns: regs.wall_clock_ns,
                switch_id: regs.switch_id,
                seq: regs.packets_processed,
                kind,
            });
        }
    }

    /// The header parser ran: this opens the packet's span. A frame that
    /// failed to parse (`ok == false`) is then `dropped`.
    #[cold]
    #[inline(never)]
    pub(crate) fn parsed(
        &mut self,
        regs: &SwitchRegs,
        in_port: PortId,
        len: u32,
        is_tpp: bool,
        ok: bool,
    ) {
        self.record(
            regs,
            TraceEventKind::Parse {
                in_port,
                len,
                is_tpp,
                ok,
            },
        );
        if let Some(p) = self.profile.as_mut() {
            let tpp_extra = if is_tpp { PARSE_TPP_EXTRA_CYCLES } else { 0 };
            p.cur = Span {
                parser_cycles: PARSE_CYCLES + tpp_extra,
                ..Span::default()
            };
        }
    }

    /// The §4 ingress filter of an untrusted port acted on a TPP.
    #[cold]
    #[inline(never)]
    pub(crate) fn edge_filter(&mut self, regs: &SwitchRegs, in_port: PortId, action: StripAction) {
        let action = match action {
            StripAction::Drop => "drop",
            StripAction::Unwrap => "unwrap",
        };
        self.record(regs, TraceEventKind::EdgeFilter { in_port, action });
        if let Some(p) = self.profile.as_mut() {
            p.cur.parser_cycles += EDGE_FILTER_CYCLES;
        }
    }

    /// The TCAM→L3→L2 walk resolved. The modelled pipeline stops at the
    /// first table that hits (TCAM always, L3 for IPv4, then L2), whatever
    /// the software walk consulted to count alternates. A TCAM `Drop`
    /// entry is a hit; `dropped` reports its verdict.
    #[cold]
    #[inline(never)]
    pub(crate) fn looked_up(
        &mut self,
        regs: &SwitchRegs,
        key: &FlowKey,
        resolved: Result<Route, DropReason>,
    ) {
        if let Some(p) = self.profile.as_mut() {
            let (l3, l2) = match resolved.map(|route| route.table) {
                Ok(LookupKind::Tcam) | Err(DropReason::FlowDrop { .. }) => (false, false),
                Ok(LookupKind::L3) => (true, false),
                Ok(LookupKind::L2) | Err(_) => (key.ipv4_dst.is_some(), true),
            };
            p.cur.tables_cycles += table_walk_cycles(l3, l2);
        }
        match resolved {
            Ok(route) => self.record(
                regs,
                TraceEventKind::Lookup {
                    table: route.table,
                    out_port: route.port,
                    queue: route.queue,
                    entry_id: route.entry_id,
                },
            ),
            Err(DropReason::FlowDrop { .. }) => {}
            Err(_) => self.record(regs, TraceEventKind::LookupMiss),
        }
    }

    /// The TCPU ran a TPP; `hop` is the hop counter after it. Each
    /// executed instruction is attributed to its opcode, from the lowered
    /// program the TCPU just ran (its whole per-opcode tally when every
    /// op ran).
    #[cold]
    #[inline(never)]
    pub(crate) fn executed(
        &mut self,
        regs: &SwitchRegs,
        out_port: PortId,
        report: &ExecReport,
        hop: u8,
        tcpu: &Tcpu,
    ) {
        let outcome = match report.halt {
            None => TcpuOutcome::Completed,
            Some(h) => TcpuOutcome::Halted(h.name()),
        };
        self.record(
            regs,
            TraceEventKind::TcpuExec {
                out_port,
                instructions: report.instructions_executed,
                cycles: report.cycles,
                budget: tcpu.cycle_budget(),
                outcome,
                hop,
                wrote_switch: report.wrote_switch,
            },
        );
        if let Some(p) = self.profile.as_mut() {
            p.cur.tcpu_cycles += report.cycles;
            p.tcpu_latency_cycles +=
                report.cycles.saturating_sub(report.instructions_executed) as u64;
            tcpu.count_executed_opcodes(report, &mut p.opcode_counts);
        }
    }

    /// The pipeline dropped the frame, which closes its span.
    #[cold]
    #[inline(never)]
    pub(crate) fn dropped(&mut self, regs: &SwitchRegs, reason: DropReason) {
        let (reason, port) = match reason {
            DropReason::NoRoute => (DropKind::NoRoute, None),
            DropReason::QueueFull { port } => (DropKind::QueueFull, Some(port)),
            DropReason::FlowDrop { .. } => (DropKind::FlowDrop, None),
            DropReason::EdgeFiltered => (DropKind::EdgeFiltered, None),
            DropReason::ParseError => (DropKind::ParseError, None),
        };
        self.record(regs, TraceEventKind::Drop { reason, port });
        if let Some(p) = self.profile.as_mut() {
            p.finish(false);
        }
    }

    /// MMU admission decided on a frame of `len` bytes: `outcome` queued
    /// it, or refused it (a queue-full drop, reported as `dropped`). The
    /// span is charged admission, and its budget check adds the
    /// head-of-line drain time of `queue_ahead = (bytes, capacity_kbps)`:
    /// the occupancy already in the queue and the rate it drains at.
    #[cold]
    #[inline(never)]
    pub(crate) fn admitted(
        &mut self,
        regs: &SwitchRegs,
        outcome: &Outcome,
        len: u32,
        ecn_marked: bool,
        (depth_bytes, capacity_kbps): (u64, u32),
    ) {
        if let Some(p) = self.profile.as_mut() {
            p.cur.mmu_cycles = MMU_ADMIT_CYCLES;
            p.cur.queue_wait_ns =
                depth_bytes.saturating_mul(8_000_000) / capacity_kbps.max(1) as u64;
        }
        match *outcome {
            Outcome::Enqueued { port, queue, .. } => {
                self.record(
                    regs,
                    TraceEventKind::Enqueue {
                        port,
                        queue,
                        depth_bytes,
                        len,
                        ecn_marked,
                    },
                );
                if let Some(p) = self.profile.as_mut() {
                    p.finish(true);
                }
            }
            Outcome::Dropped { reason } => self.dropped(regs, reason),
        }
    }

    /// The scheduler served `queue`, leaving `depth_bytes` in it. Its
    /// strict-priority scan inspected queues `0..=queue`, a cycle each.
    #[cold]
    #[inline(never)]
    pub(crate) fn dequeued(
        &mut self,
        regs: &SwitchRegs,
        port: PortId,
        queue: QueueId,
        len: u32,
        depth_bytes: u64,
    ) {
        self.record(
            regs,
            TraceEventKind::Dequeue {
                port,
                queue,
                len,
                depth_bytes,
            },
        );
        if let Some(p) = self.profile.as_mut() {
            p.stages[ProfStage::Scheduler as usize].observe(queue as u64 + 1);
        }
    }

    /// The switch rebooted into `regs.boot_epoch`.
    #[cold]
    #[inline(never)]
    pub(crate) fn rebooted(&mut self, regs: &SwitchRegs) {
        self.record(
            regs,
            TraceEventKind::SwitchReboot {
                epoch: regs.boot_epoch,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let mut a = Reservoir::new(8, 42);
        let mut b = Reservoir::new(8, 42);
        for v in 0..1000 {
            a.offer(v);
            b.offer(v);
        }
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.samples.len(), 8);
        assert_eq!(a.seen, 1000);
    }

    #[test]
    fn reservoir_percentiles() {
        let mut r = StageStat::new(16, 1);
        for v in [10, 20, 30, 40] {
            r.record(v);
        }
        let mut scratch = Vec::new();
        assert_eq!(r.p50_p99(&mut scratch), (20, 40));
        assert_eq!(scratch, [10, 20, 30, 40], "the held samples, ascending");
    }

    #[test]
    fn one_sort_yields_both_percentiles() {
        let mut r = StageStat::new(64, 3);
        for v in 0..1_000u64 {
            r.record(v.wrapping_mul(0x9E37_79B9) % 500);
        }
        let mut sorted = r.reservoir.samples.clone();
        sorted.sort_unstable();
        let each = (sorted[31], sorted[63]);
        let mut scratch = Vec::new();
        assert_eq!(r.p50_p99(&mut scratch), each, "ranks 32 and 64 of 64");
        assert_eq!(r.held(), 64);
        assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(StageStat::new(4, 1).p50_p99(&mut scratch), (0, 0));
    }

    #[test]
    fn static_names_match_the_formatted_ones() {
        for &op in Opcode::ALL {
            let name = format!("profile.tcpu.opcode.{}", op.mnemonic());
            assert_eq!(OPCODE_METRICS[opcode_index(op)], name);
        }
        for stage in ProfStage::ALL {
            let name = format!("profile.stage.{}_cycles", stage.name());
            assert_eq!(stage.metric_name(), name);
        }
    }

    #[test]
    fn span_total_is_stage_sum() {
        let span = Span {
            parser_cycles: 6,
            tables_cycles: 8,
            tcpu_cycles: 14,
            mmu_cycles: 2,
            ..Span::default()
        };
        assert_eq!(span.total_cycles(), 30);
    }

    #[test]
    fn budget_violation_counts_queue_wait() {
        let mut p = PipelineProfile::new(ProfileConfig::default(), 7);
        // 10 cycles of pipeline + 400 ns of queue ahead: violation.
        p.cur = Span {
            parser_cycles: 6,
            tables_cycles: 2,
            mmu_cycles: 2,
            queue_wait_ns: 400,
            ..Span::default()
        };
        p.finish(true);
        assert_eq!(p.budget_violations(), 1);
        p.cur = Span {
            parser_cycles: 6,
            mmu_cycles: 2,
            ..Span::default()
        };
        p.finish(true);
        assert_eq!(p.budget_violations(), 1, "uncongested packet fits");
        assert_eq!(p.packets(), 2);
        assert_eq!(p.total_cycles(), 10 + 8);
    }

    #[test]
    fn sample_every_thins_histograms_not_counters() {
        let mut p = PipelineProfile::new(
            ProfileConfig {
                sample_every: 4,
                ..ProfileConfig::default()
            },
            1,
        );
        for _ in 0..16 {
            p.cur = Span {
                parser_cycles: 4,
                mmu_cycles: 2,
                ..Span::default()
            };
            p.finish(true);
        }
        assert_eq!(p.packets(), 16);
        assert_eq!(p.sampled(), 4);
        assert_eq!(p.stage(ProfStage::Parser).count(), 4);
        assert_eq!(p.total_cycles(), 16 * 6);
    }

    #[test]
    fn table_walk_cycles_model() {
        assert_eq!(table_walk_cycles(false, false), TCAM_SEARCH_CYCLES);
        assert_eq!(
            table_walk_cycles(true, true),
            TCAM_SEARCH_CYCLES + L3_SEARCH_CYCLES + L2_SEARCH_CYCLES
        );
    }
}

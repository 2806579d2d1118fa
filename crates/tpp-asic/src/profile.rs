//! Per-packet span profiling: cycle attribution across pipeline stages.
//!
//! The observability plane's lowest layer. When enabled (opt-in via
//! [`crate::Asic::enable_profiling`]; off by default and `#[cold]` off
//! the fast path), every packet walk is charged a deterministic cycle
//! cost per stage — parser, tables, TCPU, MMU, scheduler — and the
//! attribution is folded into reservoir-sampled stage-latency
//! histograms, a TCPU per-opcode cycle breakdown, and 300 ns
//! cut-through budget-violation counters.
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

use tpp_isa::Opcode;
use tpp_telemetry::{Histogram, MetricsRegistry};

use crate::tcpu::ExecReport;

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
}

/// Cycles the table walk charges, given which tables the modelled
/// pipeline consulted: derived from the winning table and the flow key
/// only.
pub fn table_walk_cycles(consulted_l3: bool, consulted_l2: bool) -> u32 {
    TCAM_SEARCH_CYCLES
        + if consulted_l3 { L3_SEARCH_CYCLES } else { 0 }
        + if consulted_l2 { L2_SEARCH_CYCLES } else { 0 }
}

/// One packet's ingress span: cycle stamps per stage plus the queueing
/// estimate the budget check uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Arrival time at the ingress pipeline, ns.
    pub ingress_ns: u64,
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

    /// Estimated egress stamp: ingress + pipeline (1 cycle ≙ 1 ns) +
    /// head-of-line wait.
    pub fn egress_ns(&self) -> u64 {
        self.ingress_ns + self.total_cycles() as u64 + self.queue_wait_ns
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

    /// Samples currently held (unordered).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Samples offered over the reservoir's lifetime.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Exact percentile over the held samples (nearest-rank); 0 when
    /// empty. `p` in 0..=1.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }
}

/// Per-stage aggregation: a log₂ histogram (mergeable, exportable) plus
/// a reservoir of raw samples (exact small-set percentiles for
/// `tpp-top`).
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

    /// The raw-sample reservoir.
    pub fn reservoir(&self) -> &Reservoir {
        &self.reservoir
    }

    /// Median over the reservoir (exact for small streams).
    pub fn p50(&self) -> u64 {
        self.reservoir.percentile(0.50)
    }

    /// 99th percentile over the reservoir.
    pub fn p99(&self) -> u64 {
        self.reservoir.percentile(0.99)
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
    /// Fold every Nth packet's span into the histograms/reservoirs
    /// (1 = every packet). Violation and total-cycle *counters* always
    /// cover every profiled packet.
    pub sample_every: u32,
    /// Cut-through latency budget, ns.
    pub cut_through_ns: u32,
    /// Reservoir capacity per stage.
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

const N_OPCODES: usize = Opcode::ALL.len();

fn opcode_index(op: Opcode) -> usize {
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
    /// Packets folded into the histograms/reservoirs (`sample_every`).
    sampled: u64,
    /// Sum of every profiled packet's `Span::total_cycles`.
    total_cycles: u64,
    /// Packets that missed the cut-through budget.
    budget_violations: u64,
    stages: [StageStat; 5],
    /// Distribution of span totals (pipeline cycles, ingress only).
    total_stat: StageStat,
    /// Executed-instruction count per opcode (1 cycle each).
    opcode_counts: [u64; N_OPCODES],
    /// TCPU cycles not attributable to an instruction (the 4-cycle
    /// pipeline latency of each execution).
    tcpu_latency_cycles: u64,
}

impl PipelineProfile {
    /// A fresh profiler; `seed` (the switch id) keys the reservoirs'
    /// deterministic RNG streams.
    pub fn new(config: ProfileConfig, seed: u64) -> Self {
        let cap = config.reservoir_capacity;
        let stat = |i: u64| StageStat::new(cap, seed.wrapping_mul(0x9E3779B97F4A7C15) ^ i);
        PipelineProfile {
            config,
            cur: Span::default(),
            last: Span::default(),
            packets: 0,
            sampled: 0,
            total_cycles: 0,
            budget_violations: 0,
            stages: [stat(1), stat(2), stat(3), stat(4), stat(5)],
            total_stat: stat(6),
            opcode_counts: [0; N_OPCODES],
            tcpu_latency_cycles: 0,
        }
    }

    /// Start a new packet span at `now_ns`.
    pub fn begin(&mut self, now_ns: u64) {
        self.cur = Span {
            ingress_ns: now_ns,
            ..Span::default()
        };
    }

    /// Charge parser (or edge-filter) cycles to the current span.
    pub fn charge_parser(&mut self, cycles: u32) {
        self.cur.parser_cycles += cycles;
    }

    /// Charge forwarding-table cycles to the current span.
    pub fn charge_tables(&mut self, cycles: u32) {
        self.cur.tables_cycles += cycles;
    }

    /// Charge a TCPU execution to the current span, attributing each
    /// executed instruction to its opcode (`executed`, from the lowered
    /// program that ran: see `Tcpu::executed_opcodes`).
    pub fn charge_tcpu(&mut self, report: &ExecReport, executed: impl IntoIterator<Item = Opcode>) {
        self.cur.tcpu_cycles += report.cycles;
        self.tcpu_latency_cycles +=
            report.cycles.saturating_sub(report.instructions_executed) as u64;
        for opcode in executed {
            self.opcode_counts[opcode_index(opcode)] += 1;
        }
    }

    /// Complete the current span at MMU admission. `queue_wait_ns` is
    /// the drain estimate of the occupancy ahead of the packet.
    pub fn finish(&mut self, mmu_cycles: u32, queue_wait_ns: u64, enqueued: bool) {
        self.cur.mmu_cycles = mmu_cycles;
        self.cur.queue_wait_ns = queue_wait_ns;
        self.cur.enqueued = enqueued;
        let total = self.cur.total_cycles();
        self.packets += 1;
        self.total_cycles += total as u64;
        if total as u64 + queue_wait_ns > self.config.cut_through_ns as u64 {
            self.budget_violations += 1;
        }
        if self
            .packets
            .is_multiple_of(self.config.sample_every.max(1) as u64)
        {
            self.sampled += 1;
            self.stages[ProfStage::Parser as usize].record(self.cur.parser_cycles as u64);
            self.stages[ProfStage::Tables as usize].record(self.cur.tables_cycles as u64);
            self.stages[ProfStage::Tcpu as usize].record(self.cur.tcpu_cycles as u64);
            self.stages[ProfStage::Mmu as usize].record(self.cur.mmu_cycles as u64);
            self.total_stat.record(total as u64);
        }
        self.last = self.cur;
    }

    /// Record a scheduler service: `queues_scanned` strict-priority
    /// queues were inspected to find the frame (1 cycle each).
    pub fn record_dequeue(&mut self, queues_scanned: u32) {
        self.stages[ProfStage::Scheduler as usize].record(queues_scanned as u64);
    }

    /// Spans completed (every profiled packet, sampled or not).
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Spans folded into histograms/reservoirs.
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

    /// Stage statistics.
    pub fn stage(&self, stage: ProfStage) -> &StageStat {
        &self.stages[stage as usize]
    }

    /// Distribution of span totals.
    pub fn total_stat(&self) -> &StageStat {
        &self.total_stat
    }

    /// TCPU pipeline-latency cycles (not attributable to an opcode).
    pub fn tcpu_latency_cycles(&self) -> u64 {
        self.tcpu_latency_cycles
    }

    /// Per-opcode executed-instruction counts (1 cycle each), in
    /// [`Opcode::ALL`] order, zero entries skipped.
    pub fn opcode_breakdown(&self) -> Vec<(Opcode, u64)> {
        Opcode::ALL
            .iter()
            .map(|&op| (op, self.opcode_counts[opcode_index(op)]))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Export under `profile.*` names.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.add("profile.packets", self.packets);
        registry.add("profile.sampled", self.sampled);
        registry.add("profile.total_cycles", self.total_cycles);
        registry.add("profile.budget_violations", self.budget_violations);
        registry.add("profile.tcpu.latency_cycles", self.tcpu_latency_cycles);
        for (op, count) in self.opcode_breakdown() {
            registry.add(&format!("profile.tcpu.opcode.{}", op.mnemonic()), count);
        }
        for stage in ProfStage::ALL {
            let name = format!("profile.stage.{}_cycles", stage.name());
            registry.merge_histogram(&name, self.stage(stage).hist());
        }
        registry.merge_histogram("profile.span.total_cycles", self.total_stat.hist());
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
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.samples().len(), 8);
        assert_eq!(a.seen(), 1000);
    }

    #[test]
    fn reservoir_percentiles() {
        let mut r = Reservoir::new(16, 1);
        for v in [10, 20, 30, 40] {
            r.offer(v);
        }
        assert_eq!(r.percentile(0.0), 10);
        assert_eq!(r.percentile(0.5), 20);
        assert_eq!(r.percentile(1.0), 40);
        assert_eq!(Reservoir::new(4, 1).percentile(0.5), 0);
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
        assert_eq!(span.egress_ns(), 30);
    }

    #[test]
    fn budget_violation_counts_queue_wait() {
        let mut p = PipelineProfile::new(ProfileConfig::default(), 7);
        p.begin(0);
        p.charge_parser(6);
        p.charge_tables(2);
        // 8 cycles of pipeline + 400 ns of queue ahead: violation.
        p.finish(2, 400, true);
        assert_eq!(p.budget_violations(), 1);
        p.begin(10);
        p.charge_parser(6);
        p.finish(2, 0, true);
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
        for i in 0..16 {
            p.begin(i);
            p.charge_parser(4);
            p.finish(2, 0, true);
        }
        assert_eq!(p.packets(), 16);
        assert_eq!(p.sampled(), 4);
        assert_eq!(p.stage(ProfStage::Parser).hist().count(), 4);
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

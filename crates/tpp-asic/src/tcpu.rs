//! The TCPU of §3.3: "a Reduced Instruction Set Computer (RISC) processor
//! that executes instructions in a five stage pipeline: (a) instruction
//! fetch, (b) instruction decode, (c) execute, (d) memory read and
//! (e) memory write."
//!
//! Cycle model: "With read/write/simple arithmetic instructions, each
//! stage takes only 1 cycle. Since instructions are pipelined, this RISC
//! processor runs at a throughput of 1 instruction per clock cycle, with a
//! latency of 4 cycles." A program of *n* instructions therefore occupies
//! the TCPU for `PIPELINE_LATENCY_CYCLES + n` cycles; [`Tcpu::execute`]
//! accounts these per packet and enforces the configured budget.
//!
//! Robustness: a TPP that faults (bad address, exhausted packet memory,
//! blown budget) stops executing *at that instruction*, but the packet is
//! still forwarded, its partial results intact — the dataplane must never
//! let a buggy program disturb the traffic carrying it. The fault is
//! reported in the [`ExecReport`] so end-hosts (and tests) can see it.

use crate::decode_cache::{DecodeCache, ProgramInterner};
use crate::memmap::{Mmu, MmuFault, Reg};
use crate::profile::{opcode_index, N_OPCODES};
use tpp_isa::{Instruction, Opcode, PacketOperand, VirtAddr};
use tpp_wire::tpp::{TppPacket, FLAG_EXECUTED, WORD_SIZE};

/// Fill/drain latency of the 5-stage pipeline (4 pipeline registers
/// between the 5 stages; the paper quotes "a latency of 4 cycles").
pub const PIPELINE_LATENCY_CYCLES: u32 = 4;

/// Why execution stopped before the end of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A `CEXEC` predicate failed: "all instructions that follow a failed
    /// CEXEC check will not be executed" (§3.2.3). This is normal control
    /// flow, not an error.
    CexecFailed {
        /// Index of the failing CEXEC.
        pc: usize,
    },
    /// The MMU rejected an access.
    Mmu {
        /// Index of the faulting instruction.
        pc: usize,
        /// The fault.
        fault: MmuFault,
    },
    /// A packet-memory access fell outside the preallocated region, or
    /// the stack under/overflowed.
    PacketMemory {
        /// Index of the faulting instruction.
        pc: usize,
    },
    /// An instruction word failed to decode.
    BadInstruction {
        /// Index of the undecodable word.
        pc: usize,
    },
    /// The per-packet cycle budget was exhausted (§3.3's line-rate
    /// argument: programs must fit the cut-through time budget).
    BudgetExceeded {
        /// Index of the first instruction that did not run.
        pc: usize,
    },
}

impl HaltReason {
    /// A stable short label for trace events and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            HaltReason::CexecFailed { .. } => "cexec_failed",
            HaltReason::Mmu { .. } => "mmu_fault",
            HaltReason::PacketMemory { .. } => "packet_memory",
            HaltReason::BadInstruction { .. } => "bad_instruction",
            HaltReason::BudgetExceeded { .. } => "budget_exceeded",
        }
    }
}

/// The outcome of executing one TPP at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Instructions that completed.
    pub instructions_executed: u32,
    /// Cycles consumed: pipeline latency + one per completed instruction.
    pub cycles: u32,
    /// Why execution stopped early, if it did.
    pub halt: Option<HaltReason>,
    /// True if any completed instruction wrote switch SRAM.
    pub wrote_switch: bool,
}

impl ExecReport {
    /// True when the whole program ran to completion.
    pub fn completed(&self) -> bool {
        self.halt.is_none()
    }
}

/// One lowered instruction: the opcode, the packet operand, the 16-bit
/// address (PUSHI's immediate) and the [`Reg`] that address names. It is
/// the size of the [`Instruction`] it replaces, so a program's accounted
/// footprint does not move.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    opcode: Opcode,
    mem: PacketOperand,
    addr: VirtAddr,
    reg: Reg,
}

const _: () = assert!(std::mem::size_of::<Op>() == std::mem::size_of::<Instruction>());

impl Op {
    /// The lowered instruction's opcode.
    pub(crate) fn opcode(&self) -> Opcode {
        self.opcode
    }

    fn lower(insn: Instruction) -> Op {
        let (mem, field) = insn.operands();
        let addr = VirtAddr(field);
        Op {
            opcode: insn.opcode(),
            mem,
            addr,
            reg: Reg::of(addr),
        }
    }

    /// Run the op: `Ok(wrote_switch)`, or why execution stops. The order
    /// of packet and switch accesses is `tpp-spec`'s, because it decides
    /// which fault wins and what a faulting op leaves behind: a POP
    /// commits sp before its switch write, so a faulting POP has moved sp.
    fn run(self, pkt: &mut PacketRegs<'_>, mmu: &mut Mmu<'_>) -> Result<bool, StepHalt> {
        let (reg, addr) = (self.reg, self.addr);
        match self.opcode {
            Opcode::Nop => {}
            Opcode::Push => pkt.push(mmu.read_reg(reg, addr)?)?,
            Opcode::PushI => pkt.push(addr.0 as u32)?,
            Opcode::Pop => mmu.write_reg(reg, addr, pkt.pop()?)?,
            Opcode::Load => pkt.store(pkt.offset(self.mem), mmu.read_reg(reg, addr)?)?,
            Opcode::Store => mmu.write_reg(reg, addr, pkt.load(pkt.offset(self.mem))?)?,
            Opcode::Cstore => {
                // CSTORE dst, cond, src: "stores src into dst only if
                // dst == cond" (§2.2) — linearizable, as a switch runs one
                // packet at a time — then writes the old value back so the
                // end-host can tell whether its update won.
                let base = pkt.offset(self.mem);
                let (cond, src) = (pkt.load(base)?, pkt.load(base + WORD_SIZE)?);
                let old = mmu.read_reg(reg, addr)?;
                if old == cond {
                    mmu.write_reg(reg, addr, src)?;
                }
                pkt.store(base + 2 * WORD_SIZE, old)?;
                return Ok(old == cond);
            }
            Opcode::Cexec => {
                // CEXEC reg, mask, value: "ensures the TPP executes on a
                // switch only if (reg & mask) == value" (§2.2).
                let base = pkt.offset(self.mem);
                let (mask, value) = (pkt.load(base)?, pkt.load(base + WORD_SIZE)?);
                if mmu.read_reg(reg, addr)? & mask != value {
                    return Err(StepHalt::Cexec);
                }
            }
            Opcode::Add | Opcode::Sub | Opcode::And | Opcode::Or => {
                let (b, a) = (pkt.pop()?, pkt.pop()?);
                pkt.push(match self.opcode {
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::And => a & b,
                    _ => a | b,
                })?;
            }
        }
        Ok(matches!(self.opcode, Opcode::Pop | Opcode::Store))
    }
}

/// Lower raw instruction bytes (big-endian words) into `ops`, stopping at
/// the first word that fails to decode, and return its index: exactly
/// what a fresh decode at each pc would see. One exact reservation, so
/// lowering into a new `Vec` allocates once.
pub(crate) fn lower(bytes: &[u8], ops: &mut Vec<Op>) -> Option<usize> {
    ops.clear();
    ops.reserve_exact(bytes.len() / WORD_SIZE);
    for (pc, w) in bytes.chunks_exact(WORD_SIZE).enumerate() {
        match Instruction::decode(u32::from_be_bytes([w[0], w[1], w[2], w[3]])) {
            Ok(insn) => ops.push(Op::lower(insn)),
            Err(_) => return Some(pc),
        }
    }
    None
}

/// The packet side of one execution, read from the header once: packet
/// memory, the stack pointer in a register, and the hop's base offset.
/// Every access is bounds- and alignment-checked as
/// `TppPacket::read_word` / `write_word` check it.
struct PacketRegs<'a> {
    mem: &'a mut [u8],
    sp: usize,
    hop_base: usize,
}

impl PacketRegs<'_> {
    fn offset(&self, operand: PacketOperand) -> usize {
        match operand {
            PacketOperand::Sp => self.sp,
            PacketOperand::Hop(words) => self.hop_base + words as usize * WORD_SIZE,
            PacketOperand::Abs(words) => words as usize * WORD_SIZE,
        }
    }

    fn word(&mut self, off: usize) -> Result<&mut [u8], StepHalt> {
        match self.mem.get_mut(off..off + WORD_SIZE) {
            Some(w) if off.is_multiple_of(WORD_SIZE) => Ok(w),
            _ => Err(StepHalt::PacketMemory),
        }
    }

    fn load(&mut self, off: usize) -> Result<u32, StepHalt> {
        self.word(off)
            .map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
    }

    fn store(&mut self, off: usize, value: u32) -> Result<(), StepHalt> {
        self.word(off)
            .map(|w| w.copy_from_slice(&value.to_be_bytes()))
    }

    /// PUSH: store at sp, then advance it (a full stack leaves sp put).
    fn push(&mut self, value: u32) -> Result<(), StepHalt> {
        self.store(self.sp, value)?;
        self.sp += WORD_SIZE;
        Ok(())
    }

    /// POP: load the word below sp, then retreat to it.
    fn pop(&mut self) -> Result<u32, StepHalt> {
        let Some(top) = self.sp.checked_sub(WORD_SIZE) else {
            return Err(StepHalt::PacketMemory);
        };
        let value = self.load(top)?;
        self.sp = top;
        Ok(value)
    }
}

/// Where the TCPU gets a packet's lowered program: the (semantically
/// invisible) decode cache, or, with it off, lowering into a buffer.
#[derive(Debug, Clone)]
enum Programs {
    Cached(DecodeCache),
    Uncached(Vec<Op>),
}

/// The TCPU execution engine. All per-packet state lives in the packet
/// and the [`Mmu`]; the engine itself carries only its configuration and
/// where its programs come from.
#[derive(Debug, Clone)]
pub struct Tcpu {
    cycle_budget: u32,
    programs: Programs,
}

impl Tcpu {
    /// A TCPU with the given per-packet cycle budget and no decode cache
    /// (every packet decodes every instruction, as in a cold ASIC).
    pub fn new(cycle_budget: u32) -> Self {
        Tcpu {
            cycle_budget,
            programs: Programs::Uncached(Vec::new()),
        }
    }

    /// Attach a decoded-program cache with `slots` entries (`0` leaves the
    /// cache off). Execution semantics are identical with or without it.
    pub(crate) fn with_decode_cache(mut self, slots: usize) -> Self {
        self.programs = match slots {
            0 => Programs::Uncached(Vec::new()),
            _ => Programs::Cached(DecodeCache::new(slots)),
        };
        self
    }

    /// Route decode-cache misses through a fleet-wide program interner
    /// (no-op when the cache is off).
    pub(crate) fn set_interner(&mut self, interner: ProgramInterner) {
        if let Programs::Cached(cache) = &mut self.programs {
            cache.set_interner(interner);
        }
    }

    /// The configured budget.
    pub(crate) fn cycle_budget(&self) -> u32 {
        self.cycle_budget
    }

    /// Approximate resident bytes of the TCPU's per-switch state: the
    /// decode-cache slot array and the bodies of a private (not the
    /// fleet's) interner, or, with the cache off, the lowering buffer.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.programs {
                Programs::Cached(cache) => cache.approx_bytes(),
                Programs::Uncached(ops) => ops.capacity() * std::mem::size_of::<Op>(),
            }
    }

    /// Decode-cache `(hits, misses)`; `(0, 0)` when the cache is off.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        match &self.programs {
            Programs::Cached(cache) => cache.stats(),
            Programs::Uncached(_) => (0, 0),
        }
    }

    /// Execute a TPP in place: fetch its lowered program from the cache
    /// (or lower its instruction words), run it against the packet memory
    /// and the switch [`Mmu`], then advance the hop counter and set
    /// [`FLAG_EXECUTED`].
    ///
    /// At every pc, in order: the budget check (`cycles + 1 > budget`),
    /// the bad-word check, the op. An op costs one cycle, so the budget
    /// check first fails at pc `fit`, and the ops before it run without
    /// either check. `hop_base` and `sp` are read from the header once;
    /// `sp` lives in a register while the program runs and is written
    /// back once when it stops, on a halt too. The hop counter advances
    /// even after a fault or failed CEXEC, so hop-addressed slots keep
    /// lining up with the path ("a TPP executes at all TCPU-enabled ASICs
    /// it traverses", §3.2 — traversal, not success, advances the hop).
    pub fn execute(&mut self, tpp: &mut TppPacket<&mut [u8]>, mmu: &mut Mmu<'_>) -> ExecReport {
        let (ops, bad_word) = match &mut self.programs {
            Programs::Cached(cache) => {
                let program = cache.lookup(tpp.instruction_bytes());
                (&program.ops[..], program.bad)
            }
            Programs::Uncached(ops) => {
                let bad_at = lower(tpp.instruction_bytes(), ops);
                (&ops[..], bad_at.is_some())
            }
        };
        let (hop_base, sp) = (tpp.hop_base(), tpp.sp());
        let mut pkt = PacketRegs {
            mem: tpp.memory_mut(),
            sp,
            hop_base,
        };
        let fit = self.cycle_budget.saturating_sub(PIPELINE_LATENCY_CYCLES) as usize;
        let mut wrote_switch = false;
        let (executed, halt) = 'run: {
            for (pc, op) in ops.iter().take(fit).enumerate() {
                match op.run(&mut pkt, mmu) {
                    Ok(wrote) => wrote_switch |= wrote,
                    Err(stop) => break 'run stop.at(pc),
                }
            }
            let pc = ops.len().min(fit);
            let halt = if pc == ops.len() && !bad_word {
                None
            } else if pc == fit {
                Some(HaltReason::BudgetExceeded { pc })
            } else {
                Some(HaltReason::BadInstruction { pc })
            };
            (pc, halt)
        };
        let sp = pkt.sp;
        tpp.set_sp(sp);
        tpp.advance_hop();
        let flags = tpp.flags();
        tpp.set_flags(flags | FLAG_EXECUTED);
        ExecReport {
            instructions_executed: executed as u32,
            cycles: PIPELINE_LATENCY_CYCLES + executed as u32,
            halt,
            wrote_switch,
        }
    }

    /// The opcodes of the instructions `report` — the last execution's —
    /// counts as executed, read from the program that ran.
    pub(crate) fn executed_opcodes(
        &self,
        report: &ExecReport,
    ) -> impl Iterator<Item = Opcode> + '_ {
        let ops = match &self.programs {
            Programs::Cached(cache) => cache.last_served().map_or(&[][..], |p| &p.ops[..]),
            Programs::Uncached(ops) => &ops[..],
        };
        let executed = report.instructions_executed as usize;
        ops.iter().take(executed).map(|op| op.opcode)
    }

    /// Add [`Tcpu::executed_opcodes`] to `counts` (by `opcode_index`):
    /// a cached program that ran every op adds its precomputed tally, a
    /// halted one (or an uncached run) walks the executed prefix.
    pub(crate) fn count_executed_opcodes(
        &self,
        report: &ExecReport,
        counts: &mut [u64; N_OPCODES],
    ) {
        if let Programs::Cached(cache) = &self.programs {
            if let Some(p) = cache.last_served() {
                if report.instructions_executed as usize == p.ops.len() {
                    for (count, &n) in counts.iter_mut().zip(&p.opcode_counts) {
                        *count += u64::from(n);
                    }
                    return;
                }
            }
        }
        for opcode in self.executed_opcodes(report) {
            counts[opcode_index(opcode)] += 1;
        }
    }
}

/// Why one op stopped execution.
enum StepHalt {
    Cexec,
    Mmu(MmuFault),
    PacketMemory,
}

impl StepHalt {
    /// Instructions executed (a failed CEXEC counts) and the halt at `pc`.
    fn at(self, pc: usize) -> (usize, Option<HaltReason>) {
        match self {
            StepHalt::Cexec => (pc + 1, Some(HaltReason::CexecFailed { pc })),
            StepHalt::Mmu(fault) => (pc, Some(HaltReason::Mmu { pc, fault })),
            StepHalt::PacketMemory => (pc, Some(HaltReason::PacketMemory { pc })),
        }
    }
}

impl From<MmuFault> for StepHalt {
    fn from(fault: MmuFault) -> Self {
        StepHalt::Mmu(fault)
    }
}

/// Convenience used by tests and benches: the cycles a program of `n`
/// instructions costs on the TCPU.
pub fn cycles_for(n: u32) -> u32 {
    PIPELINE_LATENCY_CYCLES + n
}

#[cfg(test)]
#[allow(clippy::drop_non_drop, clippy::field_reassign_with_default)] // drop() ends Mmu borrows between executions
mod tests {
    use super::*;
    use crate::memmap::PacketMeta;
    use crate::stats::{PortStats, QueueStats, SwitchRegs};
    use tpp_isa::assemble;
    use tpp_wire::tpp::{AddressingMode, TppBuilder};

    struct Banks {
        switch: SwitchRegs,
        port: PortStats,
        queue: QueueStats,
        meta: PacketMeta,
        link_sram: Vec<u32>,
        global_sram: Vec<u32>,
    }

    fn banks(switch_id: u32) -> Banks {
        let mut queue = QueueStats::default();
        queue.queue_size_bytes = 0xa0;
        Banks {
            switch: SwitchRegs::new(switch_id),
            port: PortStats::default(),
            queue,
            meta: PacketMeta {
                input_port: 1,
                output_port: 2,
                matched_entry_id: 0,
                matched_entry_version: 0,
                queue_id: 0,
                packet_length: 100,
                arrival_time_ns: 0,
                alternate_routes: 1,
            },
            link_sram: vec![0; 64],
            global_sram: vec![0; 64],
        }
    }

    fn mmu(b: &mut Banks) -> Mmu<'_> {
        Mmu {
            switch: &b.switch,
            port: &b.port,
            port_capacity_kbps: 10_000,
            queue: &b.queue,
            queue_limit_bytes: 64_000,
            meta: &b.meta,
            link_sram: &mut b.link_sram,
            global_sram: &mut b.global_sram,
        }
    }

    fn run(src: &str, mem_words: usize, b: &mut Banks) -> (Vec<u32>, ExecReport) {
        run_init(src, &vec![0; mem_words], b)
    }

    fn run_init(src: &str, mem: &[u32], b: &mut Banks) -> (Vec<u32>, ExecReport) {
        let program = assemble(src).unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_init(mem)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        let mut m = mmu(b);
        let report = tcpu.execute(&mut tpp, &mut m);
        (tpp.memory_words(), report)
    }

    #[test]
    fn push_reads_queue_size() {
        // §2.1: "PUSH [Queue:QueueSize] copies the queue register onto
        // packet memory".
        let mut b = banks(1);
        let (mem, report) = run("PUSH [Queue:QueueSize]", 2, &mut b);
        assert_eq!(mem[0], 0xa0);
        assert!(report.completed());
        assert_eq!(report.instructions_executed, 1);
        assert_eq!(report.cycles, cycles_for(1));
        assert!(!report.wrote_switch);
    }

    #[test]
    fn load_hop_addressing() {
        let mut b = banks(0x77);
        let program = assemble("LOAD [Switch:SwitchID], [Packet:Hop[1]]").unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Hop)
            .instructions(&program.encode_words().unwrap())
            .memory_words(8)
            .per_hop_words(2)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        // First hop writes slot 1 of hop 0; simulate second execution too.
        let mut m = mmu(&mut b);
        tcpu.execute(&mut tpp, &mut m);
        drop(m);
        let mut b2 = banks(0x88);
        let mut m2 = mmu(&mut b2);
        tcpu.execute(&mut tpp, &mut m2);
        drop(m2);
        let mem = tpp.memory_words();
        assert_eq!(mem[1], 0x77, "hop 0, offset 1");
        assert_eq!(mem[3], 0x88, "hop 1, offset 1");
        assert_eq!(tpp.hop(), 2);
    }

    #[test]
    fn store_and_pop_write_sram() {
        let mut b = banks(1);
        let (_, report) = run_init(
            "STORE [Switch:Scratch[5]], [Packet:0]",
            &[0xfeed_f00d],
            &mut b,
        );
        assert!(report.completed());
        assert!(report.wrote_switch);
        assert_eq!(b.global_sram[5], 0xfeed_f00d);

        let mut b = banks(1);
        let (_, report) = run_init("POP [Link:Scratch[3]]", &[77], &mut b);
        // POP with sp=0 underflows; first push something.
        assert!(!report.completed());
        let mut b = banks(1);
        let (_, report) = run_init("PUSHI 99\nPOP [Link:Scratch[3]]", &[0, 0], &mut b);
        assert!(report.completed());
        assert_eq!(b.link_sram[3], 99);
    }

    #[test]
    fn cstore_success_and_failure() {
        // CSTORE dst, cond, src with [cond, src, old] at Packet:0.
        let mut b = banks(1);
        b.global_sram[0] = 10;
        // cond = 10 matches -> store 55, old (10) written to mem[2].
        let (mem, report) = run_init(
            "CSTORE [Switch:Scratch[0]], [Packet:0]",
            &[10, 55, 0],
            &mut b,
        );
        assert!(report.completed());
        assert!(report.wrote_switch);
        assert_eq!(b.global_sram[0], 55);
        assert_eq!(mem[2], 10);

        // cond = 10 no longer matches -> no store, old (55) reported.
        let (mem, report) = run_init(
            "CSTORE [Switch:Scratch[0]], [Packet:0]",
            &[10, 77, 0],
            &mut b,
        );
        assert!(report.completed());
        assert!(!report.wrote_switch, "failed CSTORE writes nothing");
        assert_eq!(b.global_sram[0], 55, "value unchanged");
        assert_eq!(mem[2], 55, "old value reported for retry");
    }

    #[test]
    fn cexec_gates_following_instructions() {
        // §2.2 Phase 3: execute only on the switch whose ID matches.
        let mut b = banks(0xb0b);
        // mask = 0xffffffff, value = 0xb0b -> matches, STORE runs.
        let (_, report) = run_init(
            "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[1]], [Packet:2]",
            &[0xffff_ffff, 0xb0b, 1234],
            &mut b,
        );
        assert!(report.completed());
        assert_eq!(b.global_sram[1], 1234);

        // Different target switch -> STORE must not run.
        let mut b = banks(0xec0);
        let (_, report) = run_init(
            "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[1]], [Packet:2]",
            &[0xffff_ffff, 0xb0b, 1234],
            &mut b,
        );
        assert_eq!(report.halt, Some(HaltReason::CexecFailed { pc: 0 }));
        assert_eq!(report.instructions_executed, 1, "the CEXEC itself ran");
        assert_eq!(b.global_sram[1], 0, "gated store did not run");
    }

    #[test]
    fn cexec_mask_selects_switch_subsets() {
        // Execute on "all switches whose low nibble is 2" — the §3.2.3
        // use case of targeting a subset (e.g. all ToR switches).
        for (id, should_run) in [(0x12, true), (0x22, true), (0x13, false)] {
            let mut b = banks(id);
            let (_, report) = run_init(
                "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[0]], [Packet:2]",
                &[0xf, 0x2, 7],
                &mut b,
            );
            assert_eq!(
                b.global_sram[0] == 7,
                should_run,
                "switch {id:#x} gating wrong"
            );
            assert_eq!(report.completed(), should_run);
        }
    }

    #[test]
    fn arithmetic_on_stack() {
        let mut b = banks(1);
        let (mem, report) = run("PUSHI 7\nPUSHI 5\nSUB", 4, &mut b);
        assert!(report.completed());
        assert_eq!(mem[0], 2, "7 - 5");
        let (mem, _) = run("PUSHI 6\nPUSHI 3\nADD", 4, &mut b);
        assert_eq!(mem[0], 9);
        let (mem, _) = run("PUSHI 12\nPUSHI 10\nAND", 4, &mut b);
        assert_eq!(mem[0], 8);
        let (mem, _) = run("PUSHI 12\nPUSHI 3\nOR", 4, &mut b);
        assert_eq!(mem[0], 15);
    }

    #[test]
    fn faults_stop_but_do_not_destroy() {
        // Writing a read-only stat faults at pc 1; the first push stays.
        let mut b = banks(1);
        let (mem, report) = run("PUSHI 42\nPOP [Queue:QueueSize]\nPUSHI 7", 4, &mut b);
        match report.halt {
            Some(HaltReason::Mmu {
                pc: 1,
                fault: MmuFault::ReadOnly(_),
            }) => {}
            other => panic!("unexpected halt {other:?}"),
        }
        assert_eq!(report.instructions_executed, 1);
        assert_eq!(mem[0], 42, "partial results preserved");
    }

    #[test]
    fn packet_memory_exhaustion_faults() {
        let mut b = banks(1);
        let (_, report) = run("PUSHI 1\nPUSHI 2\nPUSHI 3", 2, &mut b);
        assert_eq!(report.halt, Some(HaltReason::PacketMemory { pc: 2 }));
        assert_eq!(report.instructions_executed, 2);
    }

    #[test]
    fn budget_exceeded_halts() {
        let mut b = banks(1);
        let program = assemble(&"NOP\n".repeat(10)).unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(0)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        // Budget of 7 cycles = 4 latency + 3 instructions.
        let mut tcpu = Tcpu::new(7);
        let mut m = mmu(&mut b);
        let report = tcpu.execute(&mut tpp, &mut m);
        assert_eq!(report.instructions_executed, 3);
        assert_eq!(report.halt, Some(HaltReason::BudgetExceeded { pc: 3 }));
    }

    #[test]
    fn five_instruction_program_fits_default_budget() {
        // §3.3: a 5-instruction TPP costs 9 cycles, well within the 300
        // cycle cut-through budget of a 1 GHz ASIC.
        assert!(cycles_for(5) <= 300);
        assert_eq!(cycles_for(5), 9);
    }

    /// Run `src` over `mem` with the stack pointer at `sp0` on a TCPU with
    /// the decode cache off and on; the two must agree. Returns the header
    /// `sp`, packet memory, the report and the executed opcodes.
    fn run_both(src: &str, mem: &[u32], sp0: usize) -> (usize, Vec<u32>, ExecReport, Vec<Opcode>) {
        let words = assemble(src).unwrap().encode_words().unwrap();
        let mut runs = Vec::new();
        for mut tcpu in [Tcpu::new(300), Tcpu::new(300).with_decode_cache(8)] {
            let mut b = banks(1);
            let mut bytes = TppBuilder::new(AddressingMode::Stack)
                .instructions(&words)
                .memory_init(mem)
                .build();
            let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
            tpp.set_sp(sp0);
            let report = tcpu.execute(&mut tpp, &mut mmu(&mut b));
            let opcodes: Vec<Opcode> = tcpu.executed_opcodes(&report).collect();
            // The profiler's tally (whole-program or prefix) must count
            // exactly the walked opcodes.
            let (mut tally, mut walked) = ([0u64; N_OPCODES], [0u64; N_OPCODES]);
            tcpu.count_executed_opcodes(&report, &mut tally);
            opcodes.iter().for_each(|&op| walked[opcode_index(op)] += 1);
            assert_eq!(tally, walked, "opcode tally of {src:?}");
            runs.push((tpp.sp(), tpp.memory_words(), report, opcodes));
        }
        assert_eq!(runs[0], runs[1], "cache off and on disagree on {src:?}");
        runs.pop().unwrap()
    }

    #[test]
    fn sp_is_written_back_on_a_halt() {
        // A PUSH into the last word, then one more: sp stays at the end.
        let (sp, mem, report, _) = run_both("PUSH [Switch:SwitchID]\nPUSHI 9", &[7, 7], 4);
        assert_eq!(report.halt, Some(HaltReason::PacketMemory { pc: 1 }));
        assert_eq!((sp, mem), (8, vec![7, 1]));
        // ADD on one operand: the first pop commits, the second underflows.
        let (sp, _, report, _) = run_both("PUSHI 5\nADD", &[0], 0);
        assert_eq!(report.halt, Some(HaltReason::PacketMemory { pc: 1 }));
        assert_eq!(sp, 0);
        // A POP whose MMU write faults still leaves sp decremented.
        let (sp, _, report, _) = run_both("PUSHI 9\nPOP [Link:CapacityKbps]", &[0], 0);
        let fault = MmuFault::ReadOnly(tpp_isa::Stat::LinkCapacityKbps.addr());
        assert_eq!(report.halt, Some(HaltReason::Mmu { pc: 1, fault }));
        assert_eq!(sp, 0);
    }

    #[test]
    fn a_completed_run_counts_every_op() {
        let src = "PUSHI 3\nPUSHI 4\nADD\nNOP\nPUSH [Switch:SwitchID]";
        let (_, _, report, opcodes) = run_both(src, &[0; 4], 0);
        assert_eq!(report.halt, None);
        assert_eq!(
            opcodes,
            [
                Opcode::PushI,
                Opcode::PushI,
                Opcode::Add,
                Opcode::Nop,
                Opcode::Push
            ]
        );
    }

    #[test]
    fn executed_opcodes_come_from_the_program_that_ran() {
        // Switch 1 fails the CEXEC: it counts, the NOP after it does not.
        let src = "PUSHI 3\nCEXEC [Switch:SwitchID], [Packet:0]\nNOP";
        let (_, _, report, opcodes) = run_both(src, &[0xffff_ffff, 5, 0], 8);
        assert_eq!(report.halt, Some(HaltReason::CexecFailed { pc: 1 }));
        assert_eq!(opcodes, [Opcode::PushI, Opcode::Cexec]);
    }

    #[test]
    fn hop_advances_even_on_fault() {
        let mut b = banks(1);
        let program = assemble("POP [Switch:Scratch[0]]").unwrap(); // underflow
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(1)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        let mut m = mmu(&mut b);
        let report = tcpu.execute(&mut tpp, &mut m);
        assert!(!report.completed());
        assert_eq!(tpp.hop(), 1, "hop advances on traversal, not success");
        assert_ne!(tpp.flags() & FLAG_EXECUTED, 0);
    }
}

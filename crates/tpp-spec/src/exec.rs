//! The straight-line reference interpreter.
//!
//! One loop, one exhaustive match, fresh decoding of every instruction
//! word at every pc, no caches. The `match` in `step` has **no
//! wildcard arm**: if `tpp-isa` ever grows an instruction variant this
//! crate fails to compile until the reference semantics are written
//! down, which is the "100% of instruction variants" guarantee the
//! conformance layer rests on.

use crate::packet::{SpecPacket, FLAG_EXECUTED, WORD};
use crate::state::{SpecFault, SpecState};
use tpp_isa::{Instruction, PacketOperand};

/// Fill/drain latency of the §3.3 five-stage pipeline: execution costs
/// `4 + instructions_executed` cycles against the per-packet budget.
pub const SPEC_PIPELINE_LATENCY_CYCLES: u32 = 4;

/// Why the reference interpreter stopped before the end of the program.
/// Mirrors the optimized engine's halt taxonomy one-for-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecHalt {
    /// A `CEXEC` predicate failed (normal control flow, §3.2.3).
    CexecFailed {
        /// Index of the failing CEXEC.
        pc: usize,
    },
    /// An illegal switch-memory access.
    Fault {
        /// Index of the faulting instruction.
        pc: usize,
        /// The fault.
        fault: SpecFault,
    },
    /// A packet-memory access out of bounds, or stack under/overflow.
    PacketMemory {
        /// Index of the faulting instruction.
        pc: usize,
    },
    /// An instruction word failed to decode.
    BadInstruction {
        /// Index of the undecodable word.
        pc: usize,
    },
    /// The per-packet cycle budget was exhausted.
    BudgetExceeded {
        /// Index of the first instruction that did not run.
        pc: usize,
    },
}

impl SpecHalt {
    /// A stable short label, matching the optimized engine's labels.
    pub fn name(&self) -> &'static str {
        match self {
            SpecHalt::CexecFailed { .. } => "cexec_failed",
            SpecHalt::Fault { .. } => "mmu_fault",
            SpecHalt::PacketMemory { .. } => "packet_memory",
            SpecHalt::BadInstruction { .. } => "bad_instruction",
            SpecHalt::BudgetExceeded { .. } => "budget_exceeded",
        }
    }

    /// The program counter at which execution stopped.
    pub fn pc(&self) -> usize {
        match *self {
            SpecHalt::CexecFailed { pc }
            | SpecHalt::Fault { pc, .. }
            | SpecHalt::PacketMemory { pc }
            | SpecHalt::BadInstruction { pc }
            | SpecHalt::BudgetExceeded { pc } => pc,
        }
    }
}

/// The outcome of executing one TPP at one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecReport {
    /// Instructions that completed (a failed CEXEC counts: the check
    /// itself executed).
    pub instructions_executed: u32,
    /// Cycles consumed: pipeline latency + one per completed instruction.
    pub cycles: u32,
    /// Why execution stopped early, if it did.
    pub halt: Option<SpecHalt>,
    /// True if any completed instruction wrote switch SRAM.
    pub wrote_switch: bool,
}

impl SpecReport {
    /// True when the whole program ran to completion.
    pub fn completed(&self) -> bool {
        self.halt.is_none()
    }
}

/// Outcome of one instruction step.
enum Stop {
    Cexec,
    Fault(SpecFault),
    PacketMemory,
}

impl From<SpecFault> for Stop {
    fn from(fault: SpecFault) -> Self {
        Stop::Fault(fault)
    }
}

impl From<()> for Stop {
    fn from(_: ()) -> Self {
        Stop::PacketMemory
    }
}

/// Execute a TPP at one hop: run each instruction word in order against
/// the packet and the switch state, then advance the hop counter and set
/// [`FLAG_EXECUTED`] — traversal, not success, advances the hop.
///
/// At every pc, in order: (1) the budget check (`cycles + 1 > budget`
/// halts with `BudgetExceeded`), (2) decoding the word (`BadInstruction`
/// on failure), (3) the instruction itself.
pub fn execute(pkt: &mut SpecPacket, state: &mut SpecState, budget: u32) -> SpecReport {
    let mut report = SpecReport {
        instructions_executed: 0,
        cycles: SPEC_PIPELINE_LATENCY_CYCLES,
        halt: None,
        wrote_switch: false,
    };
    for pc in 0..pkt.insns.len() {
        if report.cycles + 1 > budget {
            report.halt = Some(SpecHalt::BudgetExceeded { pc });
            break;
        }
        let insn = match Instruction::decode(pkt.insns[pc]) {
            Ok(insn) => insn,
            Err(_) => {
                report.halt = Some(SpecHalt::BadInstruction { pc });
                break;
            }
        };
        match step(insn, pkt, state) {
            Ok(wrote) => {
                report.instructions_executed += 1;
                report.cycles += 1;
                report.wrote_switch |= wrote;
            }
            Err(Stop::Cexec) => {
                report.instructions_executed += 1;
                report.cycles += 1;
                report.halt = Some(SpecHalt::CexecFailed { pc });
                break;
            }
            Err(Stop::Fault(fault)) => {
                report.halt = Some(SpecHalt::Fault { pc, fault });
                break;
            }
            Err(Stop::PacketMemory) => {
                report.halt = Some(SpecHalt::PacketMemory { pc });
                break;
            }
        }
    }
    pkt.hop = pkt.hop.saturating_add(1);
    pkt.flags |= FLAG_EXECUTED;
    report
}

/// Resolve a packet operand to a byte offset in packet memory.
fn operand_offset(op: PacketOperand, pkt: &SpecPacket) -> usize {
    match op {
        PacketOperand::Sp => pkt.sp as usize,
        PacketOperand::Hop(words) => pkt.hop_base() + words as usize * WORD,
        PacketOperand::Abs(words) => words as usize * WORD,
    }
}

/// One instruction. Returns `Ok(wrote_switch)`. The order of packet and
/// switch accesses within each arm is part of the specification: it
/// determines which fault wins and what partial state a faulting
/// instruction leaves behind.
fn step(insn: Instruction, pkt: &mut SpecPacket, state: &mut SpecState) -> Result<bool, Stop> {
    match insn {
        Instruction::Nop => Ok(false),
        Instruction::Push { addr } => {
            let value = state.read(addr)?;
            pkt.push_word(value)?;
            Ok(false)
        }
        Instruction::PushImm(imm) => {
            pkt.push_word(imm as u32)?;
            Ok(false)
        }
        Instruction::Pop { addr } => {
            // The pop commits sp before the switch write is attempted;
            // a POP to a read-only address faults with sp already moved.
            let value = pkt.pop_word()?;
            state.write(addr, value)?;
            Ok(true)
        }
        Instruction::Load { addr, dst } => {
            let value = state.read(addr)?;
            let off = operand_offset(dst, pkt);
            pkt.write_word(off, value)?;
            Ok(false)
        }
        Instruction::Store { addr, src } => {
            let off = operand_offset(src, pkt);
            let value = pkt.read_word(off)?;
            state.write(addr, value)?;
            Ok(true)
        }
        Instruction::Cstore { addr, mem } => {
            // [cond, src, old] block; the old value is written back to
            // the packet *after* the conditional switch write.
            let base = operand_offset(mem, pkt);
            let cond = pkt.read_word(base)?;
            let src = pkt.read_word(base + WORD)?;
            let old = state.read(addr)?;
            if old == cond {
                state.write(addr, src)?;
            }
            pkt.write_word(base + 2 * WORD, old)?;
            Ok(old == cond)
        }
        Instruction::Cexec { addr, mem } => {
            let base = operand_offset(mem, pkt);
            let mask = pkt.read_word(base)?;
            let value = pkt.read_word(base + WORD)?;
            let reg = state.read(addr)?;
            if reg & mask != value {
                return Err(Stop::Cexec);
            }
            Ok(false)
        }
        Instruction::Add => binop(pkt, u32::wrapping_add),
        Instruction::Sub => binop(pkt, u32::wrapping_sub),
        Instruction::And => binop(pkt, |a, b| a & b),
        Instruction::Or => binop(pkt, |a, b| a | b),
    }
}

fn binop(pkt: &mut SpecPacket, f: fn(u32, u32) -> u32) -> Result<bool, Stop> {
    let b = pkt.pop_word()?;
    let a = pkt.pop_word()?;
    pkt.push_word(f(a, b))?;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_isa::{Opcode, Stat, VirtAddr};

    fn packet(insns: &[Instruction], memory: Vec<u32>) -> SpecPacket {
        SpecPacket {
            version: 1,
            flags: 0,
            mode: 0,
            hop: 0,
            sp: 0,
            per_hop_len: 0,
            inner_ethertype: 0,
            insns: insns.iter().map(|i| i.encode().unwrap()).collect(),
            memory,
            payload: Vec::new(),
        }
    }

    fn state() -> SpecState {
        SpecState {
            link_sram: vec![0; 8],
            global_sram: vec![0; 8],
            ..SpecState::default()
        }
    }

    /// One exemplar per `Instruction` variant, keyed by opcode so the
    /// test below can prove every opcode is represented.
    fn exemplars() -> Vec<Instruction> {
        let sram = VirtAddr(0x8000);
        vec![
            Instruction::Nop,
            Instruction::Load {
                addr: Stat::SwitchId.addr(),
                dst: PacketOperand::Abs(0),
            },
            Instruction::Store {
                addr: sram,
                src: PacketOperand::Abs(0),
            },
            Instruction::Push {
                addr: Stat::QueueSize.addr(),
            },
            Instruction::Pop { addr: sram },
            Instruction::Cstore {
                addr: sram,
                mem: PacketOperand::Abs(0),
            },
            Instruction::Cexec {
                addr: Stat::SwitchId.addr(),
                mem: PacketOperand::Abs(0),
            },
            Instruction::Add,
            Instruction::Sub,
            Instruction::And,
            Instruction::Or,
            Instruction::PushImm(3),
        ]
    }

    #[test]
    fn exemplars_cover_every_opcode() {
        // `step`'s match is exhaustive by construction (no wildcard), so
        // compilation already forces a semantics for every variant; this
        // test additionally proves each variant *executes* in the spec.
        let mut seen: Vec<Opcode> = exemplars().iter().map(|i| i.opcode()).collect();
        seen.sort_by_key(|o| *o as u8);
        seen.dedup();
        assert_eq!(seen.len(), Opcode::ALL.len(), "exemplar per opcode");
        for insn in exemplars() {
            // Enough stack and memory for any single exemplar: 3 words
            // of zeroed memory, sp at 8 so binops have two operands.
            let mut pkt = packet(&[insn], vec![0, 0, 0]);
            pkt.sp = 8;
            let mut st = state();
            let report = execute(&mut pkt, &mut st, 300);
            assert_eq!(
                report.instructions_executed, 1,
                "{insn:?} did not execute: {report:?}"
            );
            assert!(report.completed(), "{insn:?} halted: {report:?}");
        }
    }

    #[test]
    fn budget_and_hop_semantics() {
        let prog: Vec<Instruction> = (0..10).map(|_| Instruction::Nop).collect();
        let mut pkt = packet(&prog, vec![]);
        let mut st = state();
        // Budget 7 = 4 latency + 3 instructions.
        let report = execute(&mut pkt, &mut st, 7);
        assert_eq!(report.instructions_executed, 3);
        assert_eq!(report.halt, Some(SpecHalt::BudgetExceeded { pc: 3 }));
        assert_eq!(pkt.hop, 1, "hop advances on traversal, not success");
        assert_eq!(pkt.flags & FLAG_EXECUTED, FLAG_EXECUTED);
    }

    #[test]
    fn bad_word_halts_at_its_pc() {
        let mut pkt = packet(&[Instruction::Nop], vec![]);
        pkt.insns.push(0xf800_0000); // unassigned opcode 0x1f
        let mut st = state();
        let report = execute(&mut pkt, &mut st, 300);
        assert_eq!(report.halt, Some(SpecHalt::BadInstruction { pc: 1 }));
        assert_eq!(report.instructions_executed, 1);
    }

    #[test]
    fn cexec_counts_as_executed() {
        let mut pkt = packet(
            &[Instruction::Cexec {
                addr: Stat::SwitchId.addr(),
                mem: PacketOperand::Abs(0),
            }],
            vec![0xffff_ffff, 5],
        );
        let mut st = state(); // switch_id = 0, predicate wants 5
        let report = execute(&mut pkt, &mut st, 300);
        assert_eq!(report.halt, Some(SpecHalt::CexecFailed { pc: 0 }));
        assert_eq!(report.instructions_executed, 1);
        assert_eq!(report.cycles, SPEC_PIPELINE_LATENCY_CYCLES + 1);
    }

    #[test]
    fn pop_to_readonly_moves_sp_before_fault() {
        // The committed-sp-then-fault interleaving is part of the spec:
        // the optimized engine does the same, and the differential
        // harness compares the resulting packet bytes bit-for-bit.
        let ro = Stat::QueueSize.addr();
        let mut pkt = packet(&[Instruction::Pop { addr: ro }], vec![42]);
        pkt.sp = 4;
        let mut st = state();
        let report = execute(&mut pkt, &mut st, 300);
        assert_eq!(
            report.halt,
            Some(SpecHalt::Fault {
                pc: 0,
                fault: SpecFault::ReadOnly(ro)
            })
        );
        assert_eq!(pkt.sp, 0, "sp committed before the faulting write");
    }
}

//! Assembler and disassembler for the paper's x86-like TPP syntax.
//!
//! "For readability, when we write TPPs in an x86-like assembly language,
//! we will refer to specific dataplane statistics using the notation
//! `[Namespace:Statistic]`" (§2). The assembler resolves those mnemonics
//! through a [`SymbolTable`] — the compile-time address mapping of §3.2.1
//! ("These address mappings must be known upfront so that the TPP compiler
//! can convert mnemonics ... into addresses").
//!
//! Grammar (one instruction per line; `;` or `#` start a comment):
//!
//! ```text
//! program   := line*
//! line      := [insn] [comment]
//! insn      := PUSH switch | POP switch
//!            | LOAD switch ',' packet | STORE switch ',' packet
//!            | CSTORE switch ',' packet | CEXEC switch ',' packet
//!            | ADD | SUB | AND | OR | NOP | PUSHI imm
//! switch    := '[' Namespace ':' Statistic ']' | '[' hexaddr ']'
//! packet    := '[Packet:SP]' | '[Packet:Hop[' n ']]' | '[Packet:' n ']'
//! ```

use crate::address::{strip_prefix_ignore_case, SymbolTable};
use crate::instruction::{Instruction, Opcode, PacketOperand};
use crate::program::Program;
use crate::{IsaError, Result};

/// Assemble program text with the default (built-in statistics only)
/// symbol table.
pub fn assemble(source: &str) -> Result<Program> {
    Assembler::new().assemble(source)
}

/// Disassemble instructions back to canonical assembly text using the
/// default symbol table for reverse lookups.
pub fn disassemble(program: &Program) -> String {
    Assembler::new().disassemble(program)
}

/// An assembler bound to a symbol table.
///
/// Tasks that use control-plane-allocated scratch symbols construct an
/// `Assembler` around the extended table:
///
/// ```
/// use tpp_isa::{Assembler, SymbolTable, VirtAddr};
///
/// let mut table = SymbolTable::new();
/// table.register("Link:RCP-RateRegister", VirtAddr(0x4000));
/// let asm = Assembler::with_symbols(table);
/// let program = asm.assemble("PUSH [Link:RCP-RateRegister]").unwrap();
/// assert_eq!(program.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    symbols: SymbolTable,
}

impl Assembler {
    /// An assembler over the built-in statistics symbols.
    pub fn new() -> Self {
        Assembler {
            symbols: SymbolTable::new(),
        }
    }

    /// An assembler over a caller-provided symbol table.
    pub fn with_symbols(symbols: SymbolTable) -> Self {
        Assembler { symbols }
    }

    /// Assemble program text into a [`Program`]. The instruction list,
    /// sized from the line count, is the one allocation of a
    /// successful call.
    pub fn assemble(&self, source: &str) -> Result<Program> {
        let mut instructions = Vec::with_capacity(source.lines().count());
        for (idx, raw_line) in source.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            instructions.push(self.parse_line(line, line_no)?);
        }
        Ok(Program::new(instructions))
    }

    fn parse_line(&self, line: &str, line_no: usize) -> Result<Instruction> {
        let err = |reason: String| IsaError::Parse {
            line: line_no,
            reason,
        };
        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(pos) => (&line[..pos], line[pos..].trim()),
            None => (line, ""),
        };
        // At most two operands are kept; the count covers all of them.
        let mut operands = [""; 2];
        let mut n_operands = 0;
        if !rest.is_empty() {
            for operand in rest.split(',') {
                if let Some(slot) = operands.get_mut(n_operands) {
                    *slot = operand.trim();
                }
                n_operands += 1;
            }
        }
        let expect_count = |n: usize| -> Result<()> {
            if n_operands != n {
                Err(err(format!(
                    "{} expects {} operand(s), got {}",
                    mnemonic.to_ascii_uppercase(),
                    n,
                    n_operands
                )))
            } else {
                Ok(())
            }
        };

        let opcode = Opcode::ALL
            .iter()
            .copied()
            .find(|op| op.mnemonic().eq_ignore_ascii_case(mnemonic));
        match opcode {
            Some(Opcode::Nop) => {
                expect_count(0)?;
                Ok(Instruction::Nop)
            }
            Some(Opcode::Add) => {
                expect_count(0)?;
                Ok(Instruction::Add)
            }
            Some(Opcode::Sub) => {
                expect_count(0)?;
                Ok(Instruction::Sub)
            }
            Some(Opcode::And) => {
                expect_count(0)?;
                Ok(Instruction::And)
            }
            Some(Opcode::Or) => {
                expect_count(0)?;
                Ok(Instruction::Or)
            }
            Some(Opcode::PushI) => {
                expect_count(1)?;
                let imm = parse_number(operands[0])
                    .ok_or_else(|| err(format!("bad immediate '{}'", operands[0])))?;
                if imm > u16::MAX as u32 {
                    return Err(err(format!("immediate {imm} exceeds 16 bits")));
                }
                Ok(Instruction::PushImm(imm as u16))
            }
            Some(Opcode::Push) => {
                expect_count(1)?;
                Ok(Instruction::Push {
                    addr: self.parse_switch(operands[0], line_no)?,
                })
            }
            Some(Opcode::Pop) => {
                expect_count(1)?;
                Ok(Instruction::Pop {
                    addr: self.parse_switch(operands[0], line_no)?,
                })
            }
            Some(Opcode::Load) => {
                expect_count(2)?;
                Ok(Instruction::Load {
                    addr: self.parse_switch(operands[0], line_no)?,
                    dst: parse_packet(operands[1], line_no)?,
                })
            }
            Some(Opcode::Store) => {
                expect_count(2)?;
                Ok(Instruction::Store {
                    addr: self.parse_switch(operands[0], line_no)?,
                    src: parse_packet(operands[1], line_no)?,
                })
            }
            Some(Opcode::Cstore) => {
                expect_count(2)?;
                Ok(Instruction::Cstore {
                    addr: self.parse_switch(operands[0], line_no)?,
                    mem: parse_packet(operands[1], line_no)?,
                })
            }
            Some(Opcode::Cexec) => {
                expect_count(2)?;
                Ok(Instruction::Cexec {
                    addr: self.parse_switch(operands[0], line_no)?,
                    mem: parse_packet(operands[1], line_no)?,
                })
            }
            None => Err(err(format!(
                "unknown mnemonic '{}'",
                mnemonic.to_ascii_uppercase()
            ))),
        }
    }

    fn parse_switch(&self, operand: &str, line_no: usize) -> Result<crate::VirtAddr> {
        let inner = unbracket(operand).ok_or_else(|| IsaError::Parse {
            line: line_no,
            reason: format!("expected bracketed operand, got '{operand}'"),
        })?;
        self.symbols.resolve(inner)
    }

    /// Render a program back to canonical assembly text.
    pub fn disassemble(&self, program: &Program) -> String {
        program
            .iter()
            .map(|insn| self.fmt_insn(insn))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn fmt_switch(&self, addr: crate::VirtAddr) -> String {
        match self.symbols.symbol_for(addr) {
            Some(sym) => format!("[{sym}]"),
            None => format!("[{addr}]"),
        }
    }

    fn fmt_insn(&self, insn: &Instruction) -> String {
        match *insn {
            Instruction::Nop => "NOP".into(),
            Instruction::Add => "ADD".into(),
            Instruction::Sub => "SUB".into(),
            Instruction::And => "AND".into(),
            Instruction::Or => "OR".into(),
            Instruction::PushImm(imm) => format!("PUSHI {imm}"),
            Instruction::Push { addr } => format!("PUSH {}", self.fmt_switch(addr)),
            Instruction::Pop { addr } => format!("POP {}", self.fmt_switch(addr)),
            Instruction::Load { addr, dst } => {
                format!("LOAD {}, {}", self.fmt_switch(addr), fmt_packet(dst))
            }
            Instruction::Store { addr, src } => {
                format!("STORE {}, {}", self.fmt_switch(addr), fmt_packet(src))
            }
            Instruction::Cstore { addr, mem } => {
                format!("CSTORE {}, {}", self.fmt_switch(addr), fmt_packet(mem))
            }
            Instruction::Cexec { addr, mem } => {
                format!("CEXEC {}, {}", self.fmt_switch(addr), fmt_packet(mem))
            }
        }
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn unbracket(operand: &str) -> Option<&str> {
    operand.strip_prefix('[')?.strip_suffix(']').map(str::trim)
}

fn parse_number(text: &str) -> Option<u32> {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn parse_packet(operand: &str, line_no: usize) -> Result<PacketOperand> {
    let err = |reason: String| IsaError::Parse {
        line: line_no,
        reason,
    };
    let inner = unbracket(operand).ok_or_else(|| {
        err(format!(
            "expected bracketed packet operand, got '{operand}'"
        ))
    })?;
    let rest = strip_prefix_ignore_case(inner, "packet:")
        .or_else(|| strip_prefix_ignore_case(inner, "packetmemory:"))
        .ok_or_else(|| {
            err(format!(
                "packet operand must start with Packet:, got '{inner}'"
            ))
        })?;
    if rest.eq_ignore_ascii_case("sp") {
        return Ok(PacketOperand::Sp);
    }
    // Error texts quote the operand lowercased, as they always have.
    let hop = strip_prefix_ignore_case(rest, "hop[").and_then(|r| r.strip_suffix(']'));
    if let Some(idx) = hop {
        let n = parse_number(idx)
            .ok_or_else(|| err(format!("bad hop index '{}'", idx.to_ascii_lowercase())))?;
        if n > crate::instruction::MAX_WORD_OFFSET {
            return Err(IsaError::OffsetTooLarge(n));
        }
        return Ok(PacketOperand::Hop(n as u16));
    }
    let n = parse_number(rest).ok_or_else(|| {
        err(format!(
            "bad packet word offset '{}'",
            rest.to_ascii_lowercase()
        ))
    })?;
    if n > crate::instruction::MAX_WORD_OFFSET {
        return Err(IsaError::OffsetTooLarge(n));
    }
    Ok(PacketOperand::Abs(n as u16))
}

fn fmt_packet(op: PacketOperand) -> String {
    match op {
        PacketOperand::Sp => "[Packet:SP]".into(),
        PacketOperand::Hop(n) => format!("[Packet:Hop[{n}]]"),
        PacketOperand::Abs(n) => format!("[Packet:{n}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{Stat, SymbolTable};
    use crate::VirtAddr;

    #[test]
    fn assembles_the_paper_collect_program() {
        // §2.2 Phase 1 (with the paper's Link:QueueSize alias and a
        // registered RCP rate register symbol).
        let mut table = SymbolTable::new();
        table.register("Link:RCP-RateRegister", VirtAddr(0x4000));
        let asm = Assembler::with_symbols(table);
        let program = asm
            .assemble(
                "PUSH [Switch:SwitchID]\n\
                 PUSH [Link:QueueSize]\n\
                 PUSH [Link:RX-Utilization]\n\
                 PUSH [Link:RCP-RateRegister]\n",
            )
            .unwrap();
        assert_eq!(program.len(), 4);
        assert_eq!(
            program.instructions()[0],
            Instruction::Push {
                addr: Stat::SwitchId.addr()
            }
        );
        assert_eq!(
            program.instructions()[3],
            Instruction::Push {
                addr: VirtAddr(0x4000)
            }
        );
    }

    #[test]
    fn assembles_microburst_program() {
        // §2.1: PUSH [Queue:QueueSize].
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        assert_eq!(
            program.instructions(),
            &[Instruction::Push {
                addr: Stat::QueueSize.addr()
            }]
        );
    }

    #[test]
    fn assembles_ndb_program() {
        // §2.3: the forwarding-plane debugger TPP. The paper abbreviates
        // `PUSH [Switch:ID]`; we use the canonical symbol.
        let program = assemble(
            "PUSH [Switch:SwitchID]\n\
             PUSH [PacketMetadata:MatchedEntryID]\n\
             PUSH [PacketMetadata:InputPort]\n",
        )
        .unwrap();
        assert_eq!(program.len(), 3);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let program = assemble(
            "; collect queue telemetry\n\
             \n\
             PUSH [Queue:QueueSize]  # one word per hop\n",
        )
        .unwrap();
        assert_eq!(program.len(), 1);
    }

    #[test]
    fn two_operand_forms() {
        let program = assemble(
            "LOAD [Switch:SwitchID], [Packet:Hop[1]]\n\
             STORE [Switch:Scratch[0]], [Packet:2]\n\
             CSTORE [Switch:Scratch[1]], [Packet:0]\n\
             CEXEC [Switch:SwitchID], [Packet:SP]\n",
        )
        .unwrap();
        assert_eq!(
            program.instructions()[0],
            Instruction::Load {
                addr: Stat::SwitchId.addr(),
                dst: PacketOperand::Hop(1)
            }
        );
        assert_eq!(
            program.instructions()[1],
            Instruction::Store {
                addr: VirtAddr(0x8000),
                src: PacketOperand::Abs(2)
            }
        );
        assert_eq!(
            program.instructions()[2],
            Instruction::Cstore {
                addr: VirtAddr(0x8004),
                mem: PacketOperand::Abs(0)
            }
        );
        assert_eq!(
            program.instructions()[3],
            Instruction::Cexec {
                addr: Stat::SwitchId.addr(),
                mem: PacketOperand::Sp
            }
        );
    }

    #[test]
    fn arithmetic_and_immediates() {
        let program = assemble("PUSHI 0x10\nPUSHI 32\nADD\nSUB\nAND\nOR\nNOP").unwrap();
        assert_eq!(program.instructions()[0], Instruction::PushImm(16));
        assert_eq!(program.instructions()[1], Instruction::PushImm(32));
        assert_eq!(program.len(), 7);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("PUSH [Queue:QueueSize]\nFROB [X]\n").unwrap_err();
        match err {
            IsaError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_arity_and_bad_operands() {
        assert!(assemble("PUSH").is_err());
        assert!(assemble("PUSH [Queue:QueueSize], [Packet:0]").is_err());
        assert!(assemble("LOAD [Switch:SwitchID]").is_err());
        assert!(assemble("PUSH Queue:QueueSize").is_err());
        assert!(assemble("LOAD [Switch:SwitchID], [NotPacket:0]").is_err());
        assert!(assemble("PUSHI 70000").is_err());
        assert!(assemble("PUSH [No:Such-Stat]").is_err());
    }

    #[test]
    fn disassembly_is_reassemblable() {
        let src = "PUSH [Queue:QueueSize]\n\
                   LOAD [Switch:SwitchID], [Packet:Hop[2]]\n\
                   CEXEC [Switch:SwitchID], [Packet:0]\n\
                   STORE [Switch:Scratch[0]], [Packet:2]\n\
                   PUSHI 99\n\
                   ADD";
        let program = assemble(src).unwrap();
        let text = disassemble(&program);
        let again = assemble(&text).unwrap();
        assert_eq!(program, again);
    }
}

//! # tpp-isa — the Tiny Packet Program instruction set
//!
//! This crate is the contract between end-hosts and switch ASICs: the
//! instruction set of Table 1, the 4-byte instruction encoding of §3.3, the
//! unified memory-mapped virtual address space of §3.2.1 / Table 2, and an
//! assembler for the paper's x86-like mnemonic syntax:
//!
//! ```text
//! PUSH [Queue:QueueSize]
//! LOAD [Switch:SwitchID], [Packet:Hop[0]]
//! CEXEC [Switch:SwitchID], [Packet:0]
//! STORE [Link:RCP-RateRegister], [Packet:2]
//! ```
//!
//! The crate is deliberately independent of any ASIC implementation:
//! `tpp-asic` consumes [`Instruction`]s and resolves [`VirtAddr`]esses
//! against its register banks, while end-host code uses the
//! [`asm::Assembler`] and [`SymbolTable`] to compile mnemonics into the
//! instruction words carried by `tpp-wire` packets — exactly the
//! compile-time mapping the paper describes ("\[Queue:QueueSize\] will be
//! compiled to a virtual memory address (say) 0xb000 at compile time", §2).
//!
//! Instruction-set scope: the core six instructions of Table 1
//! (`LOAD`, `STORE`, `PUSH`, `POP`, `CSTORE`, `CEXEC`) plus a small
//! stack-arithmetic extension (`ADD`, `SUB`, `AND`, `OR`, `PUSHI`, `NOP`)
//! covering the "simple arithmetic" the text mentions (§1: "read, write, or
//! perform arithmetic using data on the ASIC"; §3.3 budgets 1 cycle for
//! "read/write/simple arithmetic instructions").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod asm;
pub mod instruction;
pub mod lint;
pub mod program;
pub mod programs;

pub use address::{Namespace, Stat, SymbolTable, VirtAddr};
pub use asm::{assemble, disassemble, Assembler};
pub use instruction::{canonicalize, Instruction, Opcode, PacketOperand, MAX_WORD_OFFSET};
pub use lint::{lint, Lint};
pub use program::Program;

/// Errors arising while encoding, decoding, assembling or disassembling
/// TPP instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// An instruction word carries an opcode outside the defined set.
    UnknownOpcode(u8),
    /// An instruction word carries an undefined packet-operand mode.
    BadOperandMode(u8),
    /// Assembly text failed to parse.
    Parse {
        /// 1-based source line of the failure.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A `[Namespace:Statistic]` mnemonic is not in the symbol table.
    UnknownSymbol(String),
    /// A packet-memory word offset exceeds the 9-bit encodable range.
    OffsetTooLarge(u32),
}

impl core::fmt::Display for IsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsaError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            IsaError::BadOperandMode(m) => write!(f, "bad packet operand mode {m}"),
            IsaError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            IsaError::UnknownSymbol(sym) => write!(f, "unknown symbol [{sym}]"),
            IsaError::OffsetTooLarge(off) => {
                write!(f, "packet word offset {off} exceeds encodable range")
            }
        }
    }
}

impl std::error::Error for IsaError {}

/// Convenience alias used across the ISA crate.
pub type Result<T> = core::result::Result<T, IsaError>;

//! TPP instructions and their 4-byte wire encoding.
//!
//! §3.3: "we were able to encode an instruction and its operands in a
//! 4-byte integer". The reproduction's word layout is:
//!
//! ```text
//!  31    27 26  25 24      16 15             0
//! +--------+------+----------+----------------+
//! | opcode | mode |   poff   |  addr / imm    |
//! |  (5b)  | (2b) |   (9b)   |     (16b)      |
//! +--------+------+----------+----------------+
//! ```
//!
//! * `opcode` — one of [`Opcode`].
//! * `mode`/`poff` — the packet-memory operand ([`PacketOperand`]):
//!   SP-implicit, hop-relative word offset, or absolute word offset
//!   (the stack and hop addressing schemes of §3.2.2).
//! * `addr` — the switch virtual address ([`VirtAddr`]), or the 16-bit
//!   immediate of `PUSHI`.
//!
//! Three-operand instructions take their extra operands *from packet
//! memory*, which "can contain initialized values to load data into the
//! ASIC" (Fig. 4):
//!
//! * `CSTORE addr, mem` — with `cond = mem[0]`, `src = mem[1]`; the **old**
//!   value of `addr` is written back to `mem[2]` so the end-host can tell
//!   whether its linearizable update won (§3.2.3).
//! * `CEXEC addr, mem` — with `mask = mem[0]`, `value = mem[1]`; the rest
//!   of the program runs only if `(read(addr) & mask) == value` ("all
//!   instructions that follow a failed CEXEC check will not be executed").

use crate::address::VirtAddr;
use crate::{IsaError, Result};

/// Maximum packet-memory word offset encodable in the 9-bit `poff` field.
pub const MAX_WORD_OFFSET: u32 = (1 << 9) - 1;

/// Instruction opcodes (the 5-bit `opcode` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0x00,
    /// Copy a value from switch to packet (Table 1).
    Load = 0x01,
    /// Copy a value from packet to switch (Table 1).
    Store = 0x02,
    /// LOAD onto the packet stack, advancing SP (Table 1).
    Push = 0x03,
    /// STORE from the packet stack, retreating SP (Table 1).
    Pop = 0x04,
    /// Conditional store for atomic operations (Table 1).
    Cstore = 0x05,
    /// Conditionally execute the subsequent instructions (Table 1).
    Cexec = 0x06,
    /// Stack arithmetic: pop `b`, pop `a`, push `a + b` (wrapping).
    Add = 0x08,
    /// Stack arithmetic: pop `b`, pop `a`, push `a - b` (wrapping).
    Sub = 0x09,
    /// Stack arithmetic: pop `b`, pop `a`, push `a & b`.
    And = 0x0a,
    /// Stack arithmetic: pop `b`, pop `a`, push `a | b`.
    Or = 0x0b,
    /// Push a 16-bit immediate onto the packet stack.
    PushI = 0x0c,
}

impl Opcode {
    /// Every defined opcode, in numeric order.
    ///
    /// This is the generator hook the conformance fuzzer builds on: a
    /// random *encodable* program is a sequence of draws from this set
    /// with arbitrary operands, and any 5-bit value outside it is a
    /// directed bad-instruction case.
    pub const ALL: &'static [Opcode] = &[
        Opcode::Nop,
        Opcode::Load,
        Opcode::Store,
        Opcode::Push,
        Opcode::Pop,
        Opcode::Cstore,
        Opcode::Cexec,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::PushI,
    ];

    /// The assembler mnemonic, stable for metric names and display.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "NOP",
            Opcode::Load => "LOAD",
            Opcode::Store => "STORE",
            Opcode::Push => "PUSH",
            Opcode::Pop => "POP",
            Opcode::Cstore => "CSTORE",
            Opcode::Cexec => "CEXEC",
            Opcode::Add => "ADD",
            Opcode::Sub => "SUB",
            Opcode::And => "AND",
            Opcode::Or => "OR",
            Opcode::PushI => "PUSHI",
        }
    }

    fn from_bits(bits: u8) -> Result<Opcode> {
        Ok(match bits {
            0x00 => Opcode::Nop,
            0x01 => Opcode::Load,
            0x02 => Opcode::Store,
            0x03 => Opcode::Push,
            0x04 => Opcode::Pop,
            0x05 => Opcode::Cstore,
            0x06 => Opcode::Cexec,
            0x08 => Opcode::Add,
            0x09 => Opcode::Sub,
            0x0a => Opcode::And,
            0x0b => Opcode::Or,
            0x0c => Opcode::PushI,
            other => return Err(IsaError::UnknownOpcode(other)),
        })
    }
}

/// Where an instruction's packet-memory operand lives (§3.2.2 addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketOperand {
    /// At the current stack pointer (stack addressing).
    Sp,
    /// Word offset within the current hop's slice: byte address
    /// `hop * per_hop_len + offset * 4` (hop addressing, "base:offset").
    Hop(u16),
    /// Absolute word offset into packet memory.
    Abs(u16),
}

impl PacketOperand {
    fn mode_bits(self) -> u32 {
        match self {
            PacketOperand::Sp => 0,
            PacketOperand::Hop(_) => 1,
            PacketOperand::Abs(_) => 2,
        }
    }

    fn offset_bits(self) -> Result<u32> {
        let off = match self {
            PacketOperand::Sp => 0,
            PacketOperand::Hop(o) | PacketOperand::Abs(o) => o as u32,
        };
        if off > MAX_WORD_OFFSET {
            return Err(IsaError::OffsetTooLarge(off));
        }
        Ok(off)
    }

    fn from_bits(mode: u32, off: u32) -> Result<PacketOperand> {
        Ok(match mode {
            0 => PacketOperand::Sp,
            1 => PacketOperand::Hop(off as u16),
            2 => PacketOperand::Abs(off as u16),
            other => return Err(IsaError::BadOperandMode(other as u8)),
        })
    }
}

/// One decoded TPP instruction.
///
/// Semantics (executed by `tpp-asic`'s TCPU):
///
/// | Instruction | Effect |
/// |---|---|
/// | `Load { addr, dst }`   | `pkt[dst] = switch[addr]` |
/// | `Store { addr, src }`  | `switch[addr] = pkt[src]` |
/// | `Push { addr }`        | `pkt[SP] = switch[addr]; SP += 4` |
/// | `Pop { addr }`         | `SP -= 4; switch[addr] = pkt[SP]` |
/// | `Cstore { addr, mem }` | `old = switch[addr]; if old == pkt[mem] { switch[addr] = pkt[mem+1] }; pkt[mem+2] = old` |
/// | `Cexec { addr, mem }`  | `if (switch[addr] & pkt[mem]) != pkt[mem+1] { halt }` |
/// | `Add/Sub/And/Or`       | binary op on the two top-of-stack words |
/// | `PushImm(v)`           | `pkt[SP] = v; SP += 4` |
/// | `Nop`                  | nothing |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Copy `switch[addr]` into packet memory at `dst`.
    Load {
        /// Switch virtual address to read.
        addr: VirtAddr,
        /// Destination in packet memory.
        dst: PacketOperand,
    },
    /// Copy packet memory at `src` into `switch[addr]`.
    Store {
        /// Switch virtual address to write (must be writable SRAM).
        addr: VirtAddr,
        /// Source in packet memory.
        src: PacketOperand,
    },
    /// Push `switch[addr]` onto the packet stack.
    Push {
        /// Switch virtual address to read.
        addr: VirtAddr,
    },
    /// Pop the top of the packet stack into `switch[addr]`.
    Pop {
        /// Switch virtual address to write (must be writable SRAM).
        addr: VirtAddr,
    },
    /// Conditional store: `if switch[addr] == pkt[mem] { switch[addr] =
    /// pkt[mem+1] }`, with the old value written to `pkt[mem+2]`.
    Cstore {
        /// Switch virtual address to conditionally update.
        addr: VirtAddr,
        /// Base of the 3-word `[cond, src, old]` operand block.
        mem: PacketOperand,
    },
    /// Conditional execute: continue only if
    /// `(switch[addr] & pkt[mem]) == pkt[mem+1]`.
    Cexec {
        /// Switch virtual address (register) to test.
        addr: VirtAddr,
        /// Base of the 2-word `[mask, value]` operand block.
        mem: PacketOperand,
    },
    /// Pop two words, push their wrapping sum.
    Add,
    /// Pop two words, push their wrapping difference.
    Sub,
    /// Pop two words, push their bitwise AND.
    And,
    /// Pop two words, push their bitwise OR.
    Or,
    /// Push a 16-bit immediate.
    PushImm(u16),
    /// Do nothing.
    Nop,
}

impl Instruction {
    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::Load { .. } => Opcode::Load,
            Instruction::Store { .. } => Opcode::Store,
            Instruction::Push { .. } => Opcode::Push,
            Instruction::Pop { .. } => Opcode::Pop,
            Instruction::Cstore { .. } => Opcode::Cstore,
            Instruction::Cexec { .. } => Opcode::Cexec,
            Instruction::Add => Opcode::Add,
            Instruction::Sub => Opcode::Sub,
            Instruction::And => Opcode::And,
            Instruction::Or => Opcode::Or,
            Instruction::PushImm(_) => Opcode::PushI,
            Instruction::Nop => Opcode::Nop,
        }
    }

    /// The packet operand and the 16-bit `addr / imm` field, as they are
    /// encoded: instructions without a packet operand report `Sp`, those
    /// without an address or immediate report 0.
    pub fn operands(&self) -> (PacketOperand, u16) {
        match *self {
            Instruction::Load { addr, dst } => (dst, addr.0),
            Instruction::Store { addr, src } => (src, addr.0),
            Instruction::Push { addr } | Instruction::Pop { addr } => (PacketOperand::Sp, addr.0),
            Instruction::Cstore { addr, mem } | Instruction::Cexec { addr, mem } => (mem, addr.0),
            Instruction::PushImm(imm) => (PacketOperand::Sp, imm),
            Instruction::Add
            | Instruction::Sub
            | Instruction::And
            | Instruction::Or
            | Instruction::Nop => (PacketOperand::Sp, 0),
        }
    }

    /// Encode to the 4-byte wire word.
    pub fn encode(&self) -> Result<u32> {
        let (operand, addr16) = self.operands();
        let opcode = self.opcode() as u32;
        Ok((opcode << 27)
            | (operand.mode_bits() << 25)
            | (operand.offset_bits()? << 16)
            | addr16 as u32)
    }

    /// Decode a 4-byte wire word.
    pub fn decode(word: u32) -> Result<Instruction> {
        let opcode = Opcode::from_bits(((word >> 27) & 0x1f) as u8)?;
        let mode = (word >> 25) & 0x3;
        let poff = (word >> 16) & 0x1ff;
        let addr = VirtAddr((word & 0xffff) as u16);
        let operand = PacketOperand::from_bits(mode, poff)?;
        Ok(match opcode {
            Opcode::Nop => Instruction::Nop,
            Opcode::Load => Instruction::Load { addr, dst: operand },
            Opcode::Store => Instruction::Store { addr, src: operand },
            Opcode::Push => Instruction::Push { addr },
            Opcode::Pop => Instruction::Pop { addr },
            Opcode::Cstore => Instruction::Cstore { addr, mem: operand },
            Opcode::Cexec => Instruction::Cexec { addr, mem: operand },
            Opcode::Add => Instruction::Add,
            Opcode::Sub => Instruction::Sub,
            Opcode::And => Instruction::And,
            Opcode::Or => Instruction::Or,
            Opcode::PushI => Instruction::PushImm((word & 0xffff) as u16),
        })
    }

    /// True if the instruction writes switch state (STORE/POP/CSTORE).
    pub fn writes_switch(&self) -> bool {
        matches!(
            self,
            Instruction::Store { .. } | Instruction::Pop { .. } | Instruction::Cstore { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Stat;

    /// Re-encode the canonical form of a decodable word, or `None` if the
    /// word does not decode at all.
    ///
    /// The wire encoding is deliberately lossy in one direction: `PUSH`,
    /// `POP`, `PUSHI`, the arithmetic ops and `NOP` ignore the `mode`/`poff`
    /// operand bits on decode (as long as the mode itself is assigned), so
    /// several words map to the same [`Instruction`]. This helper collapses a
    /// word to the unique encoding [`Instruction::encode`] would produce;
    /// the invariants checked here are:
    ///
    /// * `decode(encode(i)) == i` for every constructible instruction
    ///   (encode is a right inverse of decode), and
    /// * `canonicalize` is idempotent: every decodable word reaches a fixed
    ///   point after one step.
    fn canonicalize(word: u32) -> Option<u32> {
        let insn = Instruction::decode(word).ok()?;
        Some(
            insn.encode()
                .expect("decoded instructions always re-encode: poff is masked to 9 bits"),
        )
    }

    fn roundtrip(insn: Instruction) {
        let word = insn.encode().unwrap();
        assert_eq!(
            Instruction::decode(word).unwrap(),
            insn,
            "word {word:#010x}"
        );
    }

    #[test]
    fn encode_decode_roundtrip_each_form() {
        roundtrip(Instruction::Nop);
        roundtrip(Instruction::Push {
            addr: Stat::QueueSize.addr(),
        });
        roundtrip(Instruction::Pop {
            addr: VirtAddr(0x8000),
        });
        roundtrip(Instruction::Load {
            addr: Stat::SwitchId.addr(),
            dst: PacketOperand::Hop(3),
        });
        roundtrip(Instruction::Load {
            addr: Stat::SwitchId.addr(),
            dst: PacketOperand::Sp,
        });
        roundtrip(Instruction::Store {
            addr: VirtAddr(0x4000),
            src: PacketOperand::Abs(7),
        });
        roundtrip(Instruction::Cstore {
            addr: VirtAddr(0x8004),
            mem: PacketOperand::Abs(0),
        });
        roundtrip(Instruction::Cexec {
            addr: Stat::SwitchId.addr(),
            mem: PacketOperand::Abs(2),
        });
        roundtrip(Instruction::Add);
        roundtrip(Instruction::Sub);
        roundtrip(Instruction::And);
        roundtrip(Instruction::Or);
        roundtrip(Instruction::PushImm(0xbeef));
    }

    #[test]
    fn instruction_fits_four_bytes() {
        // §3.3's whole premise: one instruction = one 4-byte integer.
        let word = Instruction::Push {
            addr: Stat::QueueSize.addr(),
        }
        .encode()
        .unwrap();
        assert_eq!(word.to_be_bytes().len(), 4);
    }

    #[test]
    fn unknown_opcode_rejected() {
        // Opcode 0x1f is unassigned.
        let word = 0x1fu32 << 27;
        assert_eq!(
            Instruction::decode(word),
            Err(IsaError::UnknownOpcode(0x1f))
        );
    }

    #[test]
    fn bad_operand_mode_rejected() {
        // Mode 3 is unassigned; use LOAD so the mode matters.
        let word = (0x01u32 << 27) | (3 << 25);
        assert_eq!(Instruction::decode(word), Err(IsaError::BadOperandMode(3)));
    }

    #[test]
    fn oversized_offset_rejected_at_encode() {
        let insn = Instruction::Load {
            addr: VirtAddr(0),
            dst: PacketOperand::Abs(600),
        };
        assert_eq!(insn.encode(), Err(IsaError::OffsetTooLarge(600)));
    }

    #[test]
    fn opcode_all_is_complete_and_sorted() {
        // Every opcode decodes back to itself through the wire format,
        // and any 5-bit pattern not in ALL is rejected.
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(Opcode::from_bits(op as u8), Ok(op));
            if i > 0 {
                assert!((Opcode::ALL[i - 1] as u8) < op as u8);
            }
        }
        for bits in 0u8..32 {
            let known = Opcode::ALL.iter().any(|&op| op as u8 == bits);
            assert_eq!(Opcode::from_bits(bits).is_ok(), known, "opcode {bits:#x}");
        }
    }

    #[test]
    fn canonicalize_is_idempotent_and_matches_decode() {
        // Sweep a structured sample of the word space: every opcode ×
        // every mode × a few offsets/addresses, plus the undefined ones.
        for bits in 0u32..32 {
            for mode in 0u32..4 {
                for (poff, addr) in [(0u32, 0u32), (3, 0x2000), (511, 0xffff)] {
                    let word = (bits << 27) | (mode << 25) | (poff << 16) | addr;
                    match canonicalize(word) {
                        None => assert!(Instruction::decode(word).is_err()),
                        Some(canon) => {
                            // One step reaches the fixed point...
                            assert_eq!(canonicalize(canon), Some(canon), "word {word:#010x}");
                            // ...and preserves the decoded meaning.
                            assert_eq!(
                                Instruction::decode(canon).unwrap(),
                                Instruction::decode(word).unwrap(),
                                "word {word:#010x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn write_classification() {
        assert!(Instruction::Store {
            addr: VirtAddr(0x4000),
            src: PacketOperand::Sp
        }
        .writes_switch());
        assert!(Instruction::Cstore {
            addr: VirtAddr(0x4000),
            mem: PacketOperand::Sp
        }
        .writes_switch());
        assert!(!Instruction::Push { addr: VirtAddr(0) }.writes_switch());
        assert!(!Instruction::Cexec {
            addr: VirtAddr(0),
            mem: PacketOperand::Sp
        }
        .writes_switch());
    }
}

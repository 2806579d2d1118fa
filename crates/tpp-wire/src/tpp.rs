//! The TPP section: header, instruction words, and packet memory (Fig. 4).
//!
//! A [`TppPacket`] views the Ethernet *payload* of a TPP frame:
//!
//! ```text
//!  0               1               2               3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +---------------+---------------+-------------------------------+
//! |   version     |     flags     |      tpp_len (bytes)          |
//! +---------------+---------------+-------------------------------+
//! |      insn_len (bytes)         |       mem_len (bytes)         |
//! +---------------+---------------+-------------------------------+
//! |   addr_mode   |      hop      |       sp (byte offset)        |
//! +---------------+---------------+-------------------------------+
//! |     per_hop_len (bytes)       |        inner_ethertype        |
//! +-------------------------------+-------------------------------+
//! |                 instructions (insn_len bytes)                 |
//! +---------------------------------------------------------------+
//! |                packet memory (mem_len bytes)                  |
//! +---------------------------------------------------------------+
//! |              encapsulated payload (optional)                  |
//! +---------------------------------------------------------------+
//! ```
//!
//! This realizes the five header fields of Figure 4 — (1) length of TPP,
//! (2) length of packet memory, (3) packet-memory addressing mode,
//! (4) hop number / stack pointer, (5) per-hop memory length — in 16 bytes
//! (the paper budgets "up to 20 bytes"). All lengths are 4-byte aligned.
//!
//! The *stack pointer* and *hop number* are both carried (fields 9–11):
//! stack-mode programs use `sp`, hop-mode programs use `hop`; keeping both
//! live lets a single program mix `PUSH` with hop-addressed `LOAD`s.

use crate::{get_u16, get_u32, put_u16, put_u32, Result, WireError};

/// EtherType identifying a TPP frame. The paper does not pin a constant;
/// we use `0x6666` (unassigned by IEEE) throughout the reproduction.
pub const ETHERTYPE_TPP: u16 = 0x6666;

/// Fixed TPP header length in bytes (Fig. 4 budgets "up to 20 bytes").
pub const TPP_HEADER_LEN: usize = 16;

/// Size in bytes of one packet-memory word. Matches Figure 1, where the
/// stack pointer advances 0x0 → 0x4 → 0x8 → 0xc as one value is pushed per
/// hop. Wider (8-byte) values are simply stored as two words.
pub const WORD_SIZE: usize = 4;

/// Maximum instructions per TPP the reproduction accepts.
///
/// §3.3 restricts a TPP "to a handful of instructions" so the TCPU fits in
/// the line-rate cycle budget; the paper's examples budget 5 instructions
/// (20 bytes). We cap parsing at a generous 64 so experiments can explore
/// the overhead/benefit trade-off, while the ASIC separately enforces its
/// own cycle budget.
pub const MAX_INSTRUCTIONS: usize = 64;

/// How packet memory is addressed by instructions (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingMode {
    /// Stack addressing: `PUSH`/`POP` move the header's stack pointer.
    Stack,
    /// Hop addressing: `base:offset` refers to the word at
    /// `hop * per_hop_len + offset`, like x86 `base:offset`.
    Hop,
}

impl AddressingMode {
    /// Wire encoding of the mode.
    pub fn to_wire(self) -> u8 {
        match self {
            AddressingMode::Stack => 0,
            AddressingMode::Hop => 1,
        }
    }

    /// Decode the wire value.
    pub(crate) fn from_wire(value: u8) -> Result<Self> {
        match value {
            0 => Ok(AddressingMode::Stack),
            1 => Ok(AddressingMode::Hop),
            _ => Err(WireError::Malformed(
                "unknown packet-memory addressing mode",
            )),
        }
    }
}

/// Flag bit: set by the first switch that executes the TPP.
pub const FLAG_EXECUTED: u8 = 0x01;
/// Flag bit: set by the receiving end-host before echoing the TPP back to
/// the sender (§2.2 Phase 1: "the receiver simply echos a fully executed
/// TPP back to the sender"). TCPUs treat echoed TPPs as inert.
pub const FLAG_ECHOED: u8 = 0x02;
/// Flag bit: ECN congestion-experienced mark, set by a switch whose
/// egress queue exceeded its marking threshold when this packet was
/// enqueued. This is the *fixed-function* congestion signal §4 contrasts
/// TPPs against ("one example is Explicit Congestion Notification (ECN)
/// in which a router stamps a bit in the IP header whenever the egress
/// queue occupancy exceeds a configurable threshold"); the reproduction
/// implements it so the two designs can be compared head to head.
pub const FLAG_ECN: u8 = 0x04;

/// Zero-copy view of the TPP section (header + instructions + memory +
/// encapsulated payload) over any byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TppPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TppPacket<T> {
    /// Wrap a buffer without validation. Accessors may panic on short
    /// buffers; use [`TppPacket::new_checked`] for anything from the wire.
    pub fn new_unchecked(buffer: T) -> TppPacket<T> {
        TppPacket { buffer }
    }

    /// Wrap and fully validate a buffer.
    ///
    /// Checks, in order: header presence; version; 4-byte alignment of
    /// `insn_len` and `mem_len`; the instruction-count cap; length-field
    /// arithmetic (`tpp_len == header + insn_len + mem_len`) and that the
    /// buffer holds `tpp_len` bytes; addressing-mode validity; that `sp` is
    /// word-aligned and at most `mem_len`; and that `per_hop_len` is
    /// word-aligned.
    ///
    /// It does not check that `hop * per_hop_len` lies inside packet
    /// memory: a packet whose hops outrun its per-hop slots is well formed
    /// (the reference parser in `tpp-spec` accepts it too). Execution
    /// bounds-checks every packet-memory access instead: an access past
    /// the end halts the program rather than touching other bytes.
    pub fn new_checked(buffer: T) -> Result<TppPacket<T>> {
        let len = buffer.as_ref().len();
        if len < TPP_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: TPP_HEADER_LEN,
                got: len,
            });
        }
        let packet = TppPacket { buffer };
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let buf = self.buffer.as_ref();
        if self.version() != 1 {
            return Err(WireError::Malformed("unsupported TPP version"));
        }
        let tpp_len = self.tpp_len();
        let insn_len = self.insn_len();
        let mem_len = self.mem_len();
        if !insn_len.is_multiple_of(WORD_SIZE) || !mem_len.is_multiple_of(WORD_SIZE) {
            return Err(WireError::Malformed("section length not 4-byte aligned"));
        }
        if insn_len / WORD_SIZE > MAX_INSTRUCTIONS {
            return Err(WireError::Malformed("too many instructions"));
        }
        if tpp_len != TPP_HEADER_LEN + insn_len + mem_len {
            return Err(WireError::Malformed("tpp_len does not match sections"));
        }
        if tpp_len > buf.len() {
            return Err(WireError::Truncated {
                needed: tpp_len,
                got: buf.len(),
            });
        }
        AddressingMode::from_wire(buf[8])?;
        let sp = self.sp();
        if !sp.is_multiple_of(WORD_SIZE) {
            return Err(WireError::Malformed("stack pointer not word aligned"));
        }
        if sp > mem_len {
            return Err(WireError::Malformed("stack pointer past packet memory"));
        }
        if !self.per_hop_len().is_multiple_of(WORD_SIZE) {
            return Err(WireError::Malformed("per-hop length not word aligned"));
        }
        Ok(())
    }

    /// TPP format version (always 1).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0]
    }

    /// Flag byte (see [`FLAG_EXECUTED`], [`FLAG_ECHOED`]).
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Total TPP section length in bytes (Fig. 4 field 1).
    pub fn tpp_len(&self) -> usize {
        get_u16(self.buffer.as_ref(), 2) as usize
    }

    /// Instruction section length in bytes.
    pub fn insn_len(&self) -> usize {
        get_u16(self.buffer.as_ref(), 4) as usize
    }

    /// Packet-memory length in bytes (Fig. 4 field 2).
    pub fn mem_len(&self) -> usize {
        get_u16(self.buffer.as_ref(), 6) as usize
    }

    /// Packet-memory addressing mode (Fig. 4 field 3).
    pub fn addressing_mode(&self) -> AddressingMode {
        AddressingMode::from_wire(self.buffer.as_ref()[8]).expect("validated at construction")
    }

    /// Hop counter: how many TCPUs have executed this TPP (Fig. 4 field 4).
    pub fn hop(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Stack pointer: byte offset into packet memory where the next `PUSH`
    /// lands (Fig. 4 field 4, and the `SP` of Fig. 1).
    pub fn sp(&self) -> usize {
        get_u16(self.buffer.as_ref(), 10) as usize
    }

    /// Per-hop memory length in bytes, used only in hop addressing
    /// (Fig. 4 field 5).
    pub fn per_hop_len(&self) -> usize {
        get_u16(self.buffer.as_ref(), 12) as usize
    }

    /// EtherType of the encapsulated payload (0 when there is none).
    ///
    /// This lets an edge switch *strip* the TPP (§4) and forward the inner
    /// payload as an ordinary frame of the right type.
    pub fn inner_ethertype(&self) -> u16 {
        get_u16(self.buffer.as_ref(), 14)
    }

    /// Number of instructions carried.
    pub fn instruction_count(&self) -> usize {
        self.insn_len() / WORD_SIZE
    }

    /// The raw instruction words, in execution order.
    pub fn instruction_words(&self) -> Vec<u32> {
        let buf = self.buffer.as_ref();
        (0..self.instruction_count())
            .map(|i| get_u32(buf, TPP_HEADER_LEN + i * WORD_SIZE))
            .collect()
    }

    /// The encoded instruction section as raw bytes (big-endian words, in
    /// execution order). Zero-copy: decode caches hash and compare this
    /// slice directly instead of materializing a `Vec<u32>` per packet.
    pub fn instruction_bytes(&self) -> &[u8] {
        let count = self.instruction_count();
        &self.buffer.as_ref()[TPP_HEADER_LEN..TPP_HEADER_LEN + count * WORD_SIZE]
    }

    /// Byte offset of packet memory within this buffer.
    fn mem_base(&self) -> usize {
        TPP_HEADER_LEN + self.insn_len()
    }

    /// The packet-memory bytes.
    pub fn memory(&self) -> &[u8] {
        let base = self.mem_base();
        &self.buffer.as_ref()[base..base + self.mem_len()]
    }

    /// Read the 4-byte word at byte `offset` in packet memory.
    pub fn read_word(&self, offset: usize) -> Result<u32> {
        let mem_len = self.mem_len();
        if !offset.is_multiple_of(WORD_SIZE) || offset + WORD_SIZE > mem_len {
            return Err(WireError::OutOfBounds {
                offset,
                len: mem_len,
            });
        }
        Ok(get_u32(self.buffer.as_ref(), self.mem_base() + offset))
    }

    /// All packet-memory words, in order. Handy for end-host decoding of
    /// fully-executed telemetry TPPs.
    pub fn memory_words(&self) -> Vec<u32> {
        (0..self.mem_len() / WORD_SIZE)
            .map(|i| self.read_word(i * WORD_SIZE).expect("in bounds"))
            .collect()
    }

    /// The words pushed so far in stack mode (`memory[0..sp]`).
    ///
    /// `sp` is clamped to packet memory: `set_sp` defers bounds
    /// enforcement to execution time, so a corrupted or maliciously set
    /// stack pointer must degrade to a short read, not a panic.
    pub fn stack_words(&self) -> Vec<u32> {
        let range = self.stack_range();
        self.buffer.as_ref()[range]
            .chunks_exact(WORD_SIZE)
            .map(|w| get_u32(w, 0))
            .collect()
    }

    /// Buffer range of the whole words below the (clamped) stack pointer.
    fn stack_range(&self) -> core::ops::Range<usize> {
        let base = self.mem_base();
        let limit = self.sp().min(self.mem_len()) / WORD_SIZE * WORD_SIZE;
        base..base + limit
    }

    /// The encapsulated payload following the TPP section (§2: a TPP
    /// "encapsulates an optional ethernet payload").
    pub fn inner_payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.tpp_len()..]
    }

    /// Base byte offset of the current hop's slice of packet memory in hop
    /// addressing mode: `hop * per_hop_len`.
    pub fn hop_base(&self) -> usize {
        self.hop() as usize * self.per_hop_len()
    }
}

impl<'a> TppPacket<&'a [u8]> {
    /// The pushed words (`memory[0..sp]`, big-endian, `sp` clamped like
    /// [`stack_words`](Self::stack_words)) as they lie in the packet.
    ///
    /// Borrowed from the underlying buffer, not from this view, so an
    /// end-host decoder can return per-hop views that outlive the
    /// `TppPacket` it parsed them with — no copy out of packet memory.
    pub fn stack_bytes(&self) -> &'a [u8] {
        &self.buffer[self.stack_range()]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TppPacket<T> {
    /// Set the flag byte.
    pub fn set_flags(&mut self, flags: u8) {
        self.buffer.as_mut()[1] = flags;
    }

    /// Set the hop counter.
    pub fn set_hop(&mut self, hop: u8) {
        self.buffer.as_mut()[9] = hop;
    }

    /// Set the EtherType of the encapsulated payload.
    pub fn set_inner_ethertype(&mut self, ethertype: u16) {
        put_u16(self.buffer.as_mut(), 14, ethertype);
    }

    /// Increment the hop counter (saturating). Each executing TCPU calls
    /// this after running the program so hop-addressed state from different
    /// switches lands in different per-hop slots.
    pub fn advance_hop(&mut self) {
        let h = self.hop();
        self.set_hop(h.saturating_add(1));
    }

    /// Set the stack pointer (byte offset, must remain word-aligned and
    /// within packet memory — enforced at execution, not here).
    pub fn set_sp(&mut self, sp: usize) {
        put_u16(self.buffer.as_mut(), 10, sp as u16);
    }

    /// The packet-memory bytes, mutably: the TCPU borrows them once per
    /// packet, keeps the stack pointer in a register, and writes it back
    /// with [`set_sp`](Self::set_sp) when the program stops.
    pub fn memory_mut(&mut self) -> &mut [u8] {
        let base = self.mem_base();
        let len = self.mem_len();
        &mut self.buffer.as_mut()[base..base + len]
    }

    /// Write the 4-byte word at byte `offset` in packet memory.
    pub fn write_word(&mut self, offset: usize, value: u32) -> Result<()> {
        let mem_len = self.mem_len();
        if !offset.is_multiple_of(WORD_SIZE) || offset + WORD_SIZE > mem_len {
            return Err(WireError::OutOfBounds {
                offset,
                len: mem_len,
            });
        }
        let base = self.mem_base();
        put_u32(self.buffer.as_mut(), base + offset, value);
        Ok(())
    }

    /// Push a word at the stack pointer and advance it (`PUSH` semantics).
    ///
    /// Fails with `OutOfBounds` when packet memory is exhausted — the
    /// paper's rule that "the TPP never grows/shrinks inside the network"
    /// (Fig. 1) means a full stack is a program error, not a reallocation.
    pub fn push_word(&mut self, value: u32) -> Result<()> {
        let sp = self.sp();
        self.write_word(sp, value)?;
        self.set_sp(sp + WORD_SIZE);
        Ok(())
    }

    /// Pop the word below the stack pointer (`POP` semantics).
    pub fn pop_word(&mut self) -> Result<u32> {
        let sp = self.sp();
        if sp < WORD_SIZE {
            return Err(WireError::OutOfBounds { offset: 0, len: 0 });
        }
        let value = self.read_word(sp - WORD_SIZE)?;
        self.set_sp(sp - WORD_SIZE);
        Ok(value)
    }
}

/// Builder for owned TPP packets. This is what end-hosts use to
/// "preallocate enough packet memory" (§2.1) before injection.
///
/// ```
/// use tpp_wire::tpp::{TppBuilder, AddressingMode, TppPacket};
///
/// // A Fig. 1 style telemetry TPP: one instruction, room for 3 hops.
/// let bytes = TppBuilder::new(AddressingMode::Stack)
///     .instructions(&[0xdead_beef])
///     .memory_words(3)
///     .build();
/// let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
/// assert_eq!(tpp.instruction_count(), 1);
/// assert_eq!(tpp.mem_len(), 12);
/// assert_eq!(tpp.sp(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TppBuilder {
    mode: AddressingMode,
    instructions: Vec<u32>,
    memory: Vec<u32>,
    per_hop_len: usize,
    payload: Vec<u8>,
    inner_ethertype: u16,
}

impl TppBuilder {
    /// Start building a TPP with the given packet-memory addressing mode.
    pub fn new(mode: AddressingMode) -> Self {
        TppBuilder {
            mode,
            instructions: Vec::new(),
            memory: Vec::new(),
            per_hop_len: 0,
            payload: Vec::new(),
            inner_ethertype: 0,
        }
    }

    /// Set the instruction words (already encoded by `tpp-isa`).
    pub fn instructions(mut self, words: &[u32]) -> Self {
        self.instructions = words.to_vec();
        self
    }

    /// Preallocate `words` zeroed packet-memory words.
    pub fn memory_words(mut self, words: usize) -> Self {
        self.memory = vec![0; words];
        self
    }

    /// Initialize packet memory with explicit words ("packet memory can
    /// contain initialized values to load data into the ASIC", Fig. 4).
    pub fn memory_init(mut self, words: &[u32]) -> Self {
        self.memory = words.to_vec();
        self
    }

    /// Set the per-hop memory length in *words* (hop addressing mode).
    pub fn per_hop_words(mut self, words: usize) -> Self {
        self.per_hop_len = words * WORD_SIZE;
        self
    }

    /// Attach an encapsulated payload (e.g. the application datagram a
    /// piggy-backed TPP rides on).
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Declare the EtherType of the encapsulated payload, so an edge
    /// switch stripping the TPP can restore an ordinary frame (§4).
    pub fn inner_ethertype(mut self, ethertype: u16) -> Self {
        self.inner_ethertype = ethertype;
        self
    }

    /// Bytes [`build_into`](Self::build_into) will append.
    pub(crate) fn encoded_len(&self) -> usize {
        TPP_HEADER_LEN
            + (self.instructions.len() + self.memory.len()) * WORD_SIZE
            + self.payload.len()
    }

    /// Append the serialized TPP section and its payload to `buf` (behind
    /// an Ethernet header the caller already wrote, typically).
    ///
    /// # Panics
    /// Panics if the program exceeds [`MAX_INSTRUCTIONS`] or any section
    /// exceeds the 16-bit length fields; both are programmer errors at
    /// packet construction time, not wire-input errors.
    pub fn build_into(&self, buf: &mut Vec<u8>) {
        assert!(
            self.instructions.len() <= MAX_INSTRUCTIONS,
            "TPP limited to {MAX_INSTRUCTIONS} instructions"
        );
        let insn_len = self.instructions.len() * WORD_SIZE;
        let mem_len = self.memory.len() * WORD_SIZE;
        let tpp_len = TPP_HEADER_LEN + insn_len + mem_len;
        assert!(tpp_len <= u16::MAX as usize, "TPP section too large");
        buf.reserve(self.encoded_len());
        buf.extend_from_slice(&[1, 0]); // version, flags
        buf.extend_from_slice(&(tpp_len as u16).to_be_bytes());
        buf.extend_from_slice(&(insn_len as u16).to_be_bytes());
        buf.extend_from_slice(&(mem_len as u16).to_be_bytes());
        buf.extend_from_slice(&[self.mode.to_wire(), 0, 0, 0]); // mode, hop, sp
        buf.extend_from_slice(&(self.per_hop_len as u16).to_be_bytes());
        buf.extend_from_slice(&self.inner_ethertype.to_be_bytes());
        for word in self.instructions.iter().chain(&self.memory) {
            buf.extend_from_slice(&word.to_be_bytes());
        }
        buf.extend_from_slice(&self.payload);
    }

    /// Serialize to owned bytes (the Ethernet payload of a TPP frame);
    /// see [`build_into`](Self::build_into) for the panics.
    pub fn build(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.build_into(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0x1111_1111, 0x2222_2222])
            .memory_words(4)
            .payload(b"app")
            .build()
    }

    #[test]
    fn builder_layout() {
        let bytes = sample();
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert_eq!(tpp.version(), 1);
        assert_eq!(tpp.tpp_len(), 16 + 8 + 16);
        assert_eq!(tpp.insn_len(), 8);
        assert_eq!(tpp.mem_len(), 16);
        assert_eq!(tpp.instruction_count(), 2);
        assert_eq!(tpp.instruction_words(), vec![0x1111_1111, 0x2222_2222]);
        assert_eq!(tpp.addressing_mode(), AddressingMode::Stack);
        assert_eq!(tpp.hop(), 0);
        assert_eq!(tpp.sp(), 0);
        assert_eq!(tpp.inner_payload(), b"app");
    }

    #[test]
    fn build_into_appends_behind_existing_bytes() {
        let builder = TppBuilder::new(AddressingMode::Hop)
            .instructions(&[1, 2])
            .memory_init(&[7, 8, 9])
            .per_hop_words(1)
            .payload(b"xy")
            .inner_ethertype(0x0802);
        let mut buf = vec![0xAA; 14];
        builder.build_into(&mut buf);
        assert_eq!(&buf[..14], &[0xAA; 14]);
        assert_eq!(&buf[14..], &builder.build()[..]);
        assert_eq!(buf.len(), 14 + builder.encoded_len());
    }

    #[test]
    fn stack_bytes_outlives_the_view_and_clamps_sp() {
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0])
            .memory_words(2)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        tpp.push_word(0x0102_0304).unwrap();
        let stack = {
            let view = TppPacket::new_checked(&bytes[..]).unwrap();
            view.stack_bytes()
        };
        assert_eq!(stack, &[1, 2, 3, 4]);
        // An `sp` beyond packet memory degrades to a short read.
        bytes[10..12].copy_from_slice(&400u16.to_be_bytes());
        let view = TppPacket::new_unchecked(&bytes[..]);
        assert_eq!(view.stack_bytes().len(), 8);
        assert_eq!(view.stack_words(), vec![0x0102_0304, 0]);
    }

    #[test]
    fn figure1_sp_walk() {
        // Reproduce the SP evolution of Figure 1: pushing one queue-size
        // word per hop advances SP 0x0 -> 0x4 -> 0x8 -> 0xc.
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0])
            .memory_words(3)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        assert_eq!(tpp.sp(), 0x0);
        tpp.push_word(0x00).unwrap();
        assert_eq!(tpp.sp(), 0x4);
        tpp.push_word(0xa0).unwrap();
        assert_eq!(tpp.sp(), 0x8);
        tpp.push_word(0x0e).unwrap();
        assert_eq!(tpp.sp(), 0xc);
        assert_eq!(tpp.stack_words(), vec![0x00, 0xa0, 0x0e]);
        // Packet memory is preallocated: a fourth push must fail.
        assert!(tpp.push_word(0xff).is_err());
    }

    #[test]
    fn pop_returns_pushed_value() {
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0])
            .memory_words(2)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        tpp.push_word(77).unwrap();
        assert_eq!(tpp.pop_word().unwrap(), 77);
        assert_eq!(tpp.sp(), 0);
        assert!(tpp.pop_word().is_err(), "pop on empty stack fails");
    }

    #[test]
    fn hop_addressing_base() {
        let mut bytes = TppBuilder::new(AddressingMode::Hop)
            .instructions(&[0])
            .memory_words(8)
            .per_hop_words(2)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        assert_eq!(tpp.hop_base(), 0);
        tpp.advance_hop();
        assert_eq!(tpp.hop(), 1);
        assert_eq!(tpp.hop_base(), 8);
        tpp.advance_hop();
        assert_eq!(tpp.hop_base(), 16);
    }

    #[test]
    fn rejects_truncated() {
        let bytes = sample();
        // Header-only truncation.
        assert!(matches!(
            TppPacket::new_checked(&bytes[..10]),
            Err(WireError::Truncated { .. })
        ));
        // Body truncation: header claims more than present.
        assert!(matches!(
            TppPacket::new_checked(&bytes[..20]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_bad_version_mode_alignment() {
        let mut bytes = sample();
        bytes[0] = 9;
        assert!(matches!(
            TppPacket::new_checked(&bytes[..]),
            Err(WireError::Malformed("unsupported TPP version"))
        ));
        let mut bytes = sample();
        bytes[8] = 7;
        assert!(TppPacket::new_checked(&bytes[..]).is_err());
        let mut bytes = sample();
        bytes[5] = 3; // insn_len = 3: unaligned and inconsistent
        assert!(TppPacket::new_checked(&bytes[..]).is_err());
    }

    #[test]
    fn rejects_inconsistent_tpp_len() {
        let mut bytes = sample();
        bytes[3] = bytes[3].wrapping_add(4);
        assert!(matches!(
            TppPacket::new_checked(&bytes[..]),
            Err(WireError::Malformed("tpp_len does not match sections"))
        ));
    }

    #[test]
    fn word_access_bounds() {
        let mut bytes = sample();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        tpp.write_word(0, 0xdead_beef).unwrap();
        assert_eq!(tpp.read_word(0).unwrap(), 0xdead_beef);
        assert!(tpp.read_word(2).is_err(), "unaligned offset");
        assert!(tpp.read_word(16).is_err(), "past end");
        assert!(tpp.write_word(13, 0).is_err());
    }

    #[test]
    fn paper_overhead_identity() {
        // §3.3: "If we limit to 5 instructions per packet, the instruction
        // space overhead is 20 bytes/packet".
        let bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0; 5])
            .memory_words(0)
            .build();
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert_eq!(tpp.insn_len(), 20);
        // "...if each instruction accesses 8-byte values in the packet, we
        // require only 40 bytes of packet memory per hop" — 5 instructions
        // x 2 words x 4 bytes.
        let per_hop_bytes = 5 * 2 * WORD_SIZE;
        assert_eq!(per_hop_bytes, 40);
    }
}

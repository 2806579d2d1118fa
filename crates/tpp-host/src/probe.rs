//! Building TPP probes and echoing them back.
//!
//! §2.2: a flow's rate controller queries the network "using the flow's
//! packets, or using additional probe packets". Both are supported: a
//! [`ProbeBuilder`] mints stand-alone probes, or piggy-backs the TPP onto
//! an application datagram, through [`ProbeBuilder::write_frame`].

use tpp_isa::Program;
use tpp_wire::ethernet::{write_header, EtherType, Frame};
use tpp_wire::tpp::{AddressingMode, TppBuilder, TppPacket, FLAG_ECHOED, FLAG_EXECUTED};
use tpp_wire::EthernetAddress;

/// EtherType used for plain (non-TPP) application data frames in the
/// reproduction's experiments. Deliberately not 0x0800: the payloads are
/// synthetic datagrams, not real IPv4 packets.
pub const DATA_ETHERTYPE: EtherType = EtherType(0x0802);

/// Compiles a program once and mints TPP frames on demand.
///
/// Everything probes of one builder share — Ethernet and TPP headers,
/// instruction words, initialized packet memory — is laid out once, at
/// construction, as a frame template. Minting a probe is then "copy the
/// template, patch the MACs, append the payload" into a buffer the
/// caller owns, so a steady-state sender never touches the allocator.
#[derive(Debug, Clone)]
pub struct ProbeBuilder {
    /// The TPP section the template was last laid out from.
    tpp: TppBuilder,
    prealloc_words: usize,
    /// Ethernet header (zero MACs) + TPP section (inner EtherType 0),
    /// no payload.
    template: Vec<u8>,
}

impl ProbeBuilder {
    /// A stack-mode probe with room for `expected_hops` executions of
    /// `program` (packet memory is sized from the program's per-hop
    /// footprint, the §2.1 "preallocate enough packet memory" rule).
    pub fn stack(program: &Program, expected_hops: usize) -> Self {
        Self::new(program, AddressingMode::Stack, expected_hops, 0)
    }

    /// A hop-mode probe: `per_hop_words` words per hop, `expected_hops`
    /// hop slots.
    pub fn hop(program: &Program, expected_hops: usize) -> Self {
        Self::new(
            program,
            AddressingMode::Hop,
            expected_hops,
            program.words_per_hop(),
        )
    }

    fn new(
        program: &Program,
        mode: AddressingMode,
        expected_hops: usize,
        per_hop_words: usize,
    ) -> Self {
        let words = program.encode_words().expect("valid program");
        ProbeBuilder {
            tpp: TppBuilder::new(mode)
                .instructions(&words)
                .per_hop_words(per_hop_words),
            prealloc_words: program.words_per_hop() * expected_hops,
            template: Vec::new(),
        }
        .init_memory(&[])
    }

    /// Initialize the head of packet memory with explicit words — how
    /// CSTORE/CEXEC operands and STORE sources are loaded into the
    /// network (Fig. 4: "packet memory can contain initialized values").
    /// Memory is extended if the initializer is longer than the
    /// preallocation.
    pub fn init_memory(mut self, words: &[u32]) -> Self {
        let mut memory = words.to_vec();
        memory.resize(self.prealloc_words.max(words.len()), 0);
        self.template.clear();
        let unset = EthernetAddress([0; 6]);
        write_header(&mut self.template, unset, unset, EtherType::TPP);
        self.tpp = self.tpp.memory_init(&memory);
        self.tpp.build_into(&mut self.template);
        self
    }

    /// Wire length of a probe carrying `payload_len` payload bytes —
    /// what to ask [`HostCtx::alloc_frame`](tpp_netsim::HostCtx::alloc_frame)
    /// for.
    pub fn frame_len(&self, payload_len: usize) -> usize {
        self.template.len() + payload_len
    }

    /// Append one probe frame to `buf`, piggy-backed on `payload` of the
    /// given inner EtherType (an empty payload and 0 for a stand-alone
    /// probe).
    pub fn write_frame(
        &self,
        dst: EthernetAddress,
        src: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
        buf: &mut Vec<u8>,
    ) {
        let start = buf.len();
        buf.reserve(self.frame_len(payload.len()));
        buf.extend_from_slice(&self.template);
        let mut eth = Frame::new_unchecked(&mut buf[start..]);
        eth.set_dst_addr(dst);
        eth.set_src_addr(src);
        TppPacket::new_unchecked(eth.payload_mut()).set_inner_ethertype(inner_ethertype);
        buf.extend_from_slice(payload);
    }

    /// Build a stand-alone probe frame.
    pub fn build_frame(&self, dst: EthernetAddress, src: EthernetAddress) -> Vec<u8> {
        self.build_frame_with_payload(dst, src, &[], 0)
    }

    /// Build a probe piggy-backed on application payload of the given
    /// inner EtherType, as an owned frame.
    pub fn build_frame_with_payload(
        &self,
        dst: EthernetAddress,
        src: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_frame(dst, src, payload, inner_ethertype, &mut buf);
        buf
    }
}

/// If `frame` is an executed, not-yet-echoed TPP addressed to `my_mac`,
/// turn it into its own echo — source and destination swapped,
/// [`FLAG_ECHOED`] set, contents untouched — and return `true`: the
/// caller sends the very buffer it was delivered. Anything else is left
/// byte-for-byte unchanged and yields `false`.
///
/// "The receiver simply echos a fully executed TPP back to the sender"
/// (§2.2 Phase 1). Filtering on [`FLAG_ECHOED`] keeps a sender from
/// re-echoing its own echo.
pub fn echo_in_place(frame: &mut [u8], my_mac: EthernetAddress) -> bool {
    let Ok(mut eth) = Frame::new_checked(&mut *frame) else {
        return false;
    };
    if !eth.is_tpp() || eth.dst_addr() != my_mac {
        return false;
    }
    let Ok(tpp) = TppPacket::new_checked(eth.payload()) else {
        return false;
    };
    let flags = tpp.flags();
    if flags & FLAG_EXECUTED == 0 || flags & FLAG_ECHOED != 0 {
        return false;
    }
    let sender = eth.src_addr();
    eth.set_dst_addr(sender);
    eth.set_src_addr(my_mac);
    TppPacket::new_unchecked(eth.payload_mut()).set_flags(flags | FLAG_ECHOED);
    true
}

/// Parse an incoming frame as an echoed TPP addressed to `my_mac`,
/// returning the TPP view over its payload bytes.
pub fn parse_echo(frame: &[u8], my_mac: EthernetAddress) -> Option<TppPacket<&[u8]>> {
    let parsed = Frame::new_checked(frame).ok()?;
    if !parsed.is_tpp() || parsed.dst_addr() != my_mac {
        return None;
    }
    let payload = &frame[tpp_wire::ETHERNET_HEADER_LEN..];
    let tpp = TppPacket::new_checked(payload).ok()?;
    if tpp.flags() & FLAG_ECHOED == 0 {
        return None;
    }
    Some(tpp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_isa::assemble;

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::from_host_id(10),
            EthernetAddress::from_host_id(20),
        )
    }

    #[test]
    fn stack_probe_sizes_memory_from_program() {
        let program =
            assemble("PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\nPUSH [Link:RX-Utilization]")
                .unwrap();
        let probe = ProbeBuilder::stack(&program, 5);
        let (dst, src) = macs();
        let frame = probe.build_frame(dst, src);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        assert!(parsed.is_tpp());
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.mem_len(), 60, "3 words/hop x 5 hops");
        assert_eq!(tpp.instruction_count(), 3);
    }

    #[test]
    fn init_memory_loads_operands() {
        let program = assemble("CEXEC [Switch:SwitchID], [Packet:0]").unwrap();
        let probe = ProbeBuilder::stack(&program, 1).init_memory(&[0xffff_ffff, 0xb0b]);
        let (dst, src) = macs();
        let frame = probe.build_frame(dst, src);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.memory_words(), vec![0xffff_ffff, 0xb0b]);
    }

    /// The copying echo `echo_in_place` replaced, kept as the reference.
    fn echo_reply(frame: &[u8], my_mac: EthernetAddress) -> Option<Vec<u8>> {
        let parsed = Frame::new_checked(frame).ok()?;
        if !parsed.is_tpp() || parsed.dst_addr() != my_mac {
            return None;
        }
        let tpp = TppPacket::new_checked(parsed.payload()).ok()?;
        let flags = tpp.flags();
        if flags & FLAG_EXECUTED == 0 || flags & FLAG_ECHOED != 0 {
            return None;
        }
        let mut reply = frame.to_vec();
        let mut out = Frame::new_unchecked(&mut reply[..]);
        out.set_dst_addr(parsed.src_addr());
        out.set_src_addr(my_mac);
        TppPacket::new_unchecked(out.payload_mut()).set_flags(flags | FLAG_ECHOED);
        Some(reply)
    }

    /// `echo_in_place` against the reference: same bytes when it echoes,
    /// untouched buffer when it does not.
    fn echo(frame: &[u8], my_mac: EthernetAddress) -> Option<Vec<u8>> {
        let mut buf = frame.to_vec();
        let echoed = echo_in_place(&mut buf, my_mac);
        let want = echo_reply(frame, my_mac);
        assert_eq!(echoed, want.is_some());
        assert_eq!(buf, want.as_deref().unwrap_or(frame));
        echoed.then_some(buf)
    }

    #[test]
    fn echo_only_executed_unechoed_tpps_for_me() {
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let probe = ProbeBuilder::stack(&program, 2);
        let (dst, src) = macs();
        let frame = probe.build_frame_with_payload(dst, src, b"stamp", DATA_ETHERTYPE.0);

        // Not yet executed: no echo.
        assert!(echo(&frame, dst).is_none());

        // Mark executed (as a TCPU would), keeping the ECN mark a switch
        // may have set beside it.
        let mut executed = frame.clone();
        {
            let mut f = Frame::new_unchecked(&mut executed[..]);
            let mut tpp = TppPacket::new_unchecked(f.payload_mut());
            tpp.set_flags(FLAG_EXECUTED | tpp_wire::tpp::FLAG_ECN);
        }
        // Wrong recipient: no echo.
        assert!(echo(&executed, src).is_none());
        // Right recipient: echo with swapped addresses and ECHOED flag.
        let reply = echo(&executed, dst).unwrap();
        let parsed = Frame::new_checked(&reply[..]).unwrap();
        assert_eq!(parsed.dst_addr(), src);
        assert_eq!(parsed.src_addr(), dst);
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_ne!(tpp.flags() & FLAG_ECHOED, 0);
        // An echo is never echoed again.
        assert!(echo(&reply, src).is_none());
        // And the original sender can parse it.
        assert!(parse_echo(&reply, src).is_some());
        assert!(parse_echo(&reply, dst).is_none());

        // Truncated Ethernet header and corrupted TPP section: left alone.
        assert!(echo(&executed[..10], dst).is_none());
        let mut corrupt = executed.clone();
        corrupt[tpp_wire::ETHERNET_HEADER_LEN] = 9; // version
        assert!(echo(&corrupt, dst).is_none());
    }

    #[test]
    fn piggyback_preserves_payload() {
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let probe = ProbeBuilder::stack(&program, 3);
        let (dst, src) = macs();
        let frame = probe.build_frame_with_payload(dst, src, b"app-data", DATA_ETHERTYPE.0);
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
        assert_eq!(tpp.inner_payload(), b"app-data");
        assert_eq!(tpp.inner_ethertype(), DATA_ETHERTYPE.0);
    }

    #[test]
    fn non_tpp_frames_are_ignored() {
        let (dst, src) = macs();
        let frame = tpp_wire::ethernet::build_frame(dst, src, DATA_ETHERTYPE, b"x");
        assert!(echo(&frame, dst).is_none());
        assert!(parse_echo(&frame, dst).is_none());
    }
}

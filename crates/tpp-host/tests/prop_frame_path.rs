//! Byte-equality of the write-into-buffer constructors against the
//! owning constructors they replaced: a probe minted from
//! [`ProbeBuilder`]'s template must be exactly the frame the old
//! `TppBuilder::build` + `build_frame` composition produced.

use proptest::prelude::*;
use tpp_host::ProbeBuilder;
use tpp_isa::assemble;
use tpp_wire::ethernet::{build_frame, EtherType, EthernetAddress};
use tpp_wire::tpp::{AddressingMode, TppBuilder};

/// Source lines covering every operand kind the memory sizing rule
/// (`Program::words_per_hop`) looks at.
const LINES: &[&str] = &[
    "PUSH [Switch:SwitchID]",
    "PUSH [Queue:QueueSize]",
    "PUSH [Link:RX-Utilization]",
    "LOAD [Switch:SwitchID], [Packet:Hop[1]]",
    "LOAD [Link:QueueSize], [Packet:Hop[0]]",
    "STORE [Switch:Scratch[0]], [Packet:2]",
    "CSTORE [Switch:Scratch[1]], [Packet:4]",
    "CEXEC [Switch:SwitchID], [Packet:0]",
    "POP [Switch:Scratch[2]]",
    "ADD",
    "NOP",
];

/// `TppBuilder::build` as it was before `build_into`: one zeroed `Vec`,
/// every field stored at its Fig. 4 offset.
fn tpp_section_by_offsets(
    mode: AddressingMode,
    insns: &[u32],
    memory: &[u32],
    per_hop_words: usize,
    payload: &[u8],
    inner_ethertype: u16,
) -> Vec<u8> {
    let (insn_len, mem_len) = (insns.len() * 4, memory.len() * 4);
    let tpp_len = 16 + insn_len + mem_len;
    let mut buf = vec![0u8; tpp_len + payload.len()];
    buf[0] = 1;
    buf[2..4].copy_from_slice(&(tpp_len as u16).to_be_bytes());
    buf[4..6].copy_from_slice(&(insn_len as u16).to_be_bytes());
    buf[6..8].copy_from_slice(&(mem_len as u16).to_be_bytes());
    buf[8] = mode.to_wire();
    buf[12..14].copy_from_slice(&((per_hop_words * 4) as u16).to_be_bytes());
    buf[14..16].copy_from_slice(&inner_ethertype.to_be_bytes());
    for (i, word) in insns.iter().chain(memory).enumerate() {
        buf[16 + i * 4..20 + i * 4].copy_from_slice(&word.to_be_bytes());
    }
    buf[tpp_len..].copy_from_slice(payload);
    buf
}

/// `build_frame` as it was before `write_header`.
fn frame_by_offsets(
    dst: EthernetAddress,
    src: EthernetAddress,
    ethertype: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = vec![0u8; 14 + payload.len()];
    buf[0..6].copy_from_slice(&dst.0);
    buf[6..12].copy_from_slice(&src.0);
    buf[12..14].copy_from_slice(&ethertype.to_be_bytes());
    buf[14..].copy_from_slice(payload);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn template_probe_equals_owning_constructors(
        lines in proptest::sample::subsequence(LINES.to_vec(), 1..6),
        hop_mode in any::<bool>(),
        expected_hops in 0usize..7,
        // Shorter and longer than the preallocation (at most 6 x 6 words).
        init in proptest::collection::vec(any::<u32>(), 0..48),
        set_init in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        inner_ethertype in any::<u16>(),
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
    ) {
        let program = assemble(&lines.join("\n")).unwrap();
        let (dst, src) = (EthernetAddress(dst), EthernetAddress(src));
        let init: &[u32] = if set_init { &init } else { &[] };

        let mut probe = if hop_mode {
            ProbeBuilder::hop(&program, expected_hops)
        } else {
            ProbeBuilder::stack(&program, expected_hops)
        };
        if set_init {
            // A first initializer must leave no trace behind a second.
            probe = probe.init_memory(&[0xdead_beef; 50]).init_memory(init);
        }

        let per_hop = program.words_per_hop();
        let (mode, per_hop_words) = if hop_mode {
            (AddressingMode::Hop, per_hop)
        } else {
            (AddressingMode::Stack, 0)
        };
        let insns = program.encode_words().unwrap();
        let mut memory = init.to_vec();
        memory.resize((per_hop * expected_hops).max(init.len()), 0);
        let section =
            tpp_section_by_offsets(mode, &insns, &memory, per_hop_words, &payload, inner_ethertype);
        let want = frame_by_offsets(dst, src, 0x6666, &section);

        // The thin owning wrappers still produce the old bytes...
        let built = TppBuilder::new(mode)
            .instructions(&insns)
            .memory_init(&memory)
            .per_hop_words(per_hop_words)
            .payload(&payload)
            .inner_ethertype(inner_ethertype)
            .build();
        prop_assert_eq!(&built, &section);
        prop_assert_eq!(&build_frame(dst, src, EtherType::TPP, &built), &want);
        prop_assert_eq!(
            &probe.build_frame_with_payload(dst, src, &payload, inner_ethertype),
            &want
        );

        // ...and so does the template, appended to a recycled buffer that
        // still holds stale bytes beyond its (cleared) length.
        let mut buf = vec![0xA5u8; 4096];
        buf.truncate(3);
        probe.write_frame(dst, src, &payload, inner_ethertype, &mut buf);
        prop_assert_eq!(buf.len(), 3 + probe.frame_len(payload.len()));
        prop_assert_eq!(&buf[..3], &[0xA5u8; 3][..]);
        prop_assert_eq!(&buf[3..], &want[..]);
    }
}

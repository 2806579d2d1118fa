//! The borrowed hop decode (`split_hops` yielding views into packet
//! memory) must agree with the owning decode it replaced — one `Vec<u32>`
//! per hop, copied out through `stack_words()` — on every frame of the
//! conformance corpus, before and after the frame crosses a switch, and
//! on the malformed shapes a decoder has to refuse.

use tpp::asic::{Asic, AsicConfig};
use tpp::host::split_hops;
use tpp::wire::ethernet::{build_frame, EtherType, Frame};
use tpp::wire::tpp::{AddressingMode, TppBuilder, TppPacket};
use tpp::wire::EthernetAddress;
use tpp_bench::conformance::{
    default_corpus_dir, load_corpus, ConformanceCase, EGRESS_PORT, INGRESS_PORT, NUM_PORTS,
};

/// The decode `split_hops` used to be: `(hop index, words)` per hop.
fn split_hops_owned(
    tpp: &TppPacket<&[u8]>,
    words_per_hop: usize,
) -> Option<Vec<(usize, Vec<u32>)>> {
    if words_per_hop == 0 {
        return None;
    }
    let words = tpp.stack_words();
    if !words.len().is_multiple_of(words_per_hop) {
        return None;
    }
    if words.len() / words_per_hop != tpp.hop() as usize {
        return None;
    }
    Some(
        words
            .chunks(words_per_hop)
            .map(<[u32]>::to_vec)
            .enumerate()
            .collect(),
    )
}

/// Compare both decodes of one TPP section at every plausible record
/// width; returns how many widths decoded.
fn check(tpp: &TppPacket<&[u8]>, label: &str) -> usize {
    let mut decoded = 0;
    for words_per_hop in 0..=8 {
        let borrowed = split_hops(tpp, words_per_hop);
        let owned = split_hops_owned(tpp, words_per_hop);
        assert_eq!(
            borrowed.is_some(),
            owned.is_some(),
            "{label}: accept/reject differs at {words_per_hop} words per hop"
        );
        let (Some(borrowed), Some(owned)) = (borrowed, owned) else {
            continue;
        };
        decoded += 1;
        assert_eq!(borrowed.hop_count(), owned.len(), "{label}");
        let views: Vec<(usize, Vec<u32>)> = borrowed
            .hops()
            .map(|h| (h.hop, h.words().collect()))
            .collect();
        assert_eq!(views, owned, "{label} at {words_per_hop} words per hop");
        for (i, (_, words)) in owned.iter().enumerate() {
            let hop = borrowed.hop(i).expect("within hop_count");
            for (j, word) in words.iter().enumerate() {
                assert_eq!(hop.word(j), *word, "{label}: hop {i} word {j}");
            }
        }
        for column in 0..words_per_hop {
            let want: Vec<u32> = owned.iter().map(|(_, w)| w[column]).collect();
            assert_eq!(borrowed.column(column).collect::<Vec<_>>(), want, "{label}");
        }
    }
    decoded
}

/// The case's frame as injected, then after each traversal of a switch
/// provisioned like the conformance harness.
fn frames_of(case: &ConformanceCase) -> Vec<Vec<u8>> {
    let mut cfg = AsicConfig::with_ports(case.switch_id, NUM_PORTS);
    cfg.tcpu_cycle_budget = case.budget;
    cfg.global_sram_words = case.global_sram.len();
    cfg.link_sram_words = case.link_sram.len();
    let mut asic = Asic::new(cfg);
    asic.l2_mut()
        .insert(EthernetAddress::from_host_id(1), EGRESS_PORT);
    let mut frames = vec![case.frame()];
    for round in 0..case.rounds {
        let frame = frames.last().expect("seeded above").clone();
        asic.handle_frame(frame, INGRESS_PORT, case.now0_ns + round as u64 * 1_000);
        match asic.dequeue(EGRESS_PORT) {
            Some(out) => frames.push(out),
            None => break,
        }
    }
    frames
}

#[test]
fn corpus_frames_decode_identically() {
    let corpus = load_corpus(&default_corpus_dir()).expect("load tests/corpus");
    let (mut sections, mut decoded) = (0, 0);
    for (label, case) in &corpus {
        for (i, frame) in frames_of(case).iter().enumerate() {
            let eth = Frame::new_checked(&frame[..]).expect("harness frame");
            // Parse-reject cases carry sections neither decode ever sees.
            let Ok(tpp) = TppPacket::new_checked(eth.payload()) else {
                continue;
            };
            sections += 1;
            decoded += check(&tpp, &format!("{label} frame {i}"));
        }
    }
    assert!(sections >= 20, "only {sections} corpus sections parsed");
    assert!(
        decoded >= 20,
        "only {decoded} (section, width) pairs decoded"
    );
}

/// A stack-mode section with `stack` pushed and the hop counter forced.
fn executed(stack: &[u32], hop: u8, capacity_words: usize) -> Vec<u8> {
    let mut bytes = TppBuilder::new(AddressingMode::Stack)
        .instructions(&[0])
        .memory_words(capacity_words)
        .build();
    let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
    for word in stack {
        tpp.push_word(*word).unwrap();
    }
    tpp.set_hop(hop);
    bytes
}

#[test]
fn malformed_stacks_are_refused_identically() {
    // `sp` not a multiple of the record width.
    let bytes = executed(&[1, 10, 2], 2, 8);
    let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
    assert!(split_hops(&tpp, 2).is_none());
    check(&tpp, "sp not a multiple");

    // Hop counter disagrees with the stack depth.
    let bytes = executed(&[1, 10, 2, 20], 3, 8);
    let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
    assert!(split_hops(&tpp, 2).is_none());
    check(&tpp, "hop-counter mismatch");

    // `sp` beyond packet memory (set after validation, as `set_sp`
    // allows): a short read of what memory there is, never a panic.
    let mut bytes = executed(&[1, 10, 2, 20], 2, 4);
    TppPacket::new_unchecked(&mut bytes[..]).set_sp(400);
    let tpp = TppPacket::new_unchecked(&bytes[..]);
    let sample = split_hops(&tpp, 2).expect("clamped to the 4 words present");
    assert_eq!(sample.hop_count(), 2);
    assert_eq!(sample.column(1).collect::<Vec<_>>(), vec![10, 20]);
    check(&tpp, "sp beyond memory");

    // The same inside a whole frame, through the one-call receive path.
    let me = EthernetAddress::from_host_id(0);
    let mut frame = build_frame(me, EthernetAddress::from_host_id(1), EtherType::TPP, &bytes);
    assert!(
        tpp::host::decode_echo(&frame, me, 2).is_none(),
        "not echoed, and sp is invalid"
    );
    TppPacket::new_unchecked(&mut frame[14..]).set_flags(tpp::wire::tpp::FLAG_ECHOED);
    assert!(
        tpp::host::decode_echo(&frame, me, 2).is_none(),
        "validation refuses an sp past packet memory before any decode"
    );
}

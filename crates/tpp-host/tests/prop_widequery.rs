//! Property tests for multi-packet queries: the plan always covers every
//! symbol exactly once within budget, and reassembly reconstructs the
//! rows regardless of segment arrival order.

use proptest::prelude::*;
use tpp_host::SegmentedQuery;
use tpp_isa::{Stat, SymbolTable};
use tpp_wire::ethernet::Frame;
use tpp_wire::tpp::{TppPacket, FLAG_ECHOED, FLAG_EXECUTED};
use tpp_wire::EthernetAddress;

fn arb_symbols() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(
        Stat::ALL.iter().map(|s| s.symbol()).collect::<Vec<_>>(),
        1..Stat::ALL.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Planning invariants: segments partition the symbol list in order,
    /// and each segment fits the per-probe budget.
    #[test]
    fn plan_partitions_symbols(symbols in arb_symbols(),
                               hops in 1usize..6,
                               budget in 1usize..64) {
        let table = SymbolTable::new();
        let per_probe = budget / hops;
        let result = SegmentedQuery::plan(&symbols, &table, hops, budget);
        if per_probe == 0 {
            prop_assert!(result.is_err());
            return Ok(());
        }
        let q = result.unwrap();
        let flattened: Vec<String> = q.layout.iter().flatten().cloned().collect();
        prop_assert_eq!(
            flattened,
            symbols.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            "exact in-order cover"
        );
        for segment in &q.layout {
            prop_assert!(segment.len() <= per_probe);
            prop_assert!(!segment.is_empty());
        }
        prop_assert_eq!(q.segments(), symbols.len().div_ceil(per_probe));
    }

    /// Round trip: simulate per-hop execution of each segment, feed the
    /// echoes back in an arbitrary order, and require the merged rows to
    /// hold every symbol exactly once per hop.
    #[test]
    fn reassembly_roundtrip(symbols in arb_symbols(),
                            hops in 1usize..5,
                            budget in 4usize..64,
                            shuffle_seed in any::<u64>()) {
        check_reassembly(&symbols, hops, budget, shuffle_seed)?;
    }
}

/// One pass of `reassembly_roundtrip`'s property.
fn check_reassembly(
    symbols: &[&str],
    hops: usize,
    budget: usize,
    shuffle_seed: u64,
) -> Result<(), TestCaseError> {
    let table = SymbolTable::new();
    let Ok(q) = SegmentedQuery::plan(symbols, &table, hops, budget) else {
        return Ok(());
    };
    let me = EthernetAddress::from_host_id(9);
    let dst = EthernetAddress::from_host_id(1);
    let mut frames = q.frames(dst, me, 5);
    for (seg, frame) in frames.iter_mut().enumerate() {
        let mut f = Frame::new_unchecked(&mut frame[..]);
        f.set_dst_addr(me);
        f.set_src_addr(dst);
        let mut tpp = TppPacket::new_unchecked(f.payload_mut());
        let cols = q.layout[seg].len();
        for h in 0..hops as u32 {
            for c in 0..cols as u32 {
                tpp.push_word(1000 * seg as u32 + 10 * h + c).unwrap();
            }
        }
        tpp.set_hop(hops as u8);
        tpp.set_flags(FLAG_EXECUTED | FLAG_ECHOED);
    }
    // Deterministic pseudo-shuffle of arrival order.
    let n = frames.len();
    let order: Vec<usize> = (0..n).map(|i| (i + shuffle_seed as usize) % n).collect();
    let mut collector = q.collector();
    for idx in order {
        collector.on_frame(&frames[idx], me);
    }
    // Duplicates are harmless.
    collector.on_frame(&frames[0], me);
    prop_assert_eq!(collector.complete.len(), 1);
    let row = &collector.complete[0];
    prop_assert_eq!(row.rows.len(), hops);
    for hop_row in &row.rows {
        prop_assert_eq!(hop_row.len(), symbols.len(), "all symbols merged");
    }
    // Spot-check value placement: segment s, hop h, column c.
    for (s, segment) in q.layout.iter().enumerate() {
        for (c, symbol) in segment.iter().enumerate() {
            for (h, hop_row) in row.rows.iter().enumerate() {
                prop_assert_eq!(hop_row[symbol], 1000 * s as u32 + 10 * h as u32 + c as u32);
            }
        }
    }
    Ok(())
}

/// A case the property once failed on: one symbol, one hop, the
/// smallest budget, arrival order unshuffled.
#[test]
fn reassembly_roundtrip_one_symbol_one_hop() {
    check_reassembly(&["PacketMetadata:AlternateRoutes"], 1, 4, 0).unwrap();
}

//! Multi-packet queries — §3.2: "End-hosts can use multiple packets if a
//! single packet is insufficient for a network task" and §3.2.2: "Recall
//! that end-hosts can use multiple TPPs if one packet is insufficient to
//! load all statistics."
//!
//! A [`SegmentedQuery`] wants many statistics per hop over a long path —
//! more words than one packet's memory budget allows. The planner splits
//! the statistic list across several probes, each tagged with a query id
//! and a segment index in its inner payload; the [`SegmentedCollector`]
//! reassembles echoes into complete per-hop rows.
//!
//! The split is by *columns* (statistics), not rows (hops): every probe
//! still traverses the whole path, so each hop's row is assembled from
//! values sampled within one probe-train — the tightest coherence the
//! dataplane offers without hardware support for multi-packet
//! transactions.

use std::collections::BTreeMap;

use crate::probe::ProbeBuilder;
use crate::telemetry::split_hops;
use tpp_isa::{Instruction, Program, SymbolTable, VirtAddr};
use tpp_wire::EthernetAddress;

/// A planning or decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A requested symbol did not resolve.
    UnknownSymbol(String),
    /// The memory budget cannot fit even one statistic for the path.
    BudgetTooSmall {
        /// Words needed per hop for a single statistic times hops.
        needed: usize,
        /// The caller's budget.
        budget: usize,
    },
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueryError::UnknownSymbol(s) => write!(f, "unknown symbol [{s}]"),
            QueryError::BudgetTooSmall { needed, budget } => {
                write!(f, "packet-memory budget {budget} words < minimum {needed}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A planned multi-packet query.
#[derive(Debug, Clone)]
pub struct SegmentedQuery {
    /// Symbols per segment, in push order.
    pub layout: Vec<Vec<String>>,
    probes: Vec<ProbeBuilder>,
    expected_hops: usize,
}

impl SegmentedQuery {
    /// Plan a query for `symbols` (each one `PUSH`ed per hop) over a
    /// path of `expected_hops`, with at most `max_mem_words` of packet
    /// memory per probe.
    pub fn plan(
        symbols: &[&str],
        table: &SymbolTable,
        expected_hops: usize,
        max_mem_words: usize,
    ) -> Result<SegmentedQuery, QueryError> {
        assert!(expected_hops > 0, "a path has at least one hop");
        let per_probe = max_mem_words / expected_hops;
        if per_probe == 0 {
            return Err(QueryError::BudgetTooSmall {
                needed: expected_hops,
                budget: max_mem_words,
            });
        }
        let mut addrs: Vec<(String, VirtAddr)> = Vec::new();
        for symbol in symbols {
            let addr = table
                .resolve(symbol)
                .map_err(|_| QueryError::UnknownSymbol(symbol.to_string()))?;
            addrs.push((symbol.to_string(), addr));
        }
        let mut layout = Vec::new();
        let mut probes = Vec::new();
        for chunk in addrs.chunks(per_probe) {
            let program = Program::new(
                chunk
                    .iter()
                    .map(|(_, addr)| Instruction::Push { addr: *addr })
                    .collect(),
            );
            probes.push(ProbeBuilder::stack(&program, expected_hops));
            layout.push(chunk.iter().map(|(s, _)| s.clone()).collect());
        }
        Ok(SegmentedQuery {
            layout,
            probes,
            expected_hops,
        })
    }

    /// Number of probe packets one round of this query costs.
    pub fn segments(&self) -> usize {
        self.probes.len()
    }

    /// Mint the probe train for one round. Each frame's inner payload is
    /// `[query_id, segment_index]` (two big-endian u32s).
    pub fn frames(
        &self,
        dst: EthernetAddress,
        src: EthernetAddress,
        query_id: u32,
    ) -> Vec<Vec<u8>> {
        self.probes
            .iter()
            .enumerate()
            .map(|(idx, probe)| {
                let mut payload = [0u8; 8];
                payload[0..4].copy_from_slice(&query_id.to_be_bytes());
                payload[4..8].copy_from_slice(&(idx as u32).to_be_bytes());
                probe.build_frame_with_payload(dst, src, &payload, crate::probe::DATA_ETHERTYPE.0)
            })
            .collect()
    }

    /// Build a collector matching this plan.
    pub fn collector(&self) -> SegmentedCollector {
        SegmentedCollector {
            layout: self.layout.clone(),
            expected_hops: self.expected_hops,
            partial: BTreeMap::new(),
            finished: std::collections::BTreeSet::new(),
            complete: Vec::new(),
        }
    }
}

/// One fully-reassembled query result: per hop, symbol → value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideRow {
    /// The query id the sender tagged.
    pub query_id: u32,
    /// `rows[hop][symbol] = value`.
    pub rows: Vec<BTreeMap<String, u32>>,
}

/// Reassembles echoed probe segments into [`WideRow`]s.
#[derive(Debug)]
pub struct SegmentedCollector {
    layout: Vec<Vec<String>>,
    expected_hops: usize,
    /// query id → (segment index → per-hop words).
    partial: BTreeMap<u32, BTreeMap<u32, Vec<Vec<u32>>>>,
    /// Query ids already completed (late duplicates are dropped).
    finished: std::collections::BTreeSet<u32>,
    /// Finished queries.
    pub complete: Vec<WideRow>,
}

impl SegmentedCollector {
    /// Feed one received frame; returns `true` if it completed a query.
    pub fn on_frame(&mut self, frame: &[u8], my_mac: EthernetAddress) -> bool {
        let Some(tpp) = crate::probe::parse_echo(frame, my_mac) else {
            return false;
        };
        let inner = tpp.inner_payload();
        if inner.len() < 8 {
            return false;
        }
        let query_id = u32::from_be_bytes(inner[0..4].try_into().expect("4 bytes"));
        let segment = u32::from_be_bytes(inner[4..8].try_into().expect("4 bytes"));
        if self.finished.contains(&query_id) {
            return false; // late duplicate of a completed query
        }
        let Some(symbols) = self.layout.get(segment as usize) else {
            return false;
        };
        let Some(sample) = split_hops(&tpp, symbols.len()) else {
            return false;
        };
        if sample.hop_count() != self.expected_hops {
            return false;
        }
        let entry = self.partial.entry(query_id).or_default();
        entry.insert(
            segment,
            sample.hops().map(|h| h.words().collect()).collect(),
        );
        if entry.len() == self.layout.len() {
            self.finished.insert(query_id);
            let segments = self.partial.remove(&query_id).expect("present");
            let mut rows: Vec<BTreeMap<String, u32>> = vec![BTreeMap::new(); self.expected_hops];
            for (segment, hops) in segments {
                let symbols = &self.layout[segment as usize];
                for (hop, words) in hops.iter().enumerate() {
                    for (symbol, value) in symbols.iter().zip(words) {
                        rows[hop].insert(symbol.clone(), *value);
                    }
                }
            }
            self.complete.push(WideRow { query_id, rows });
            return true;
        }
        false
    }

    /// Queries still waiting for segments.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_isa::Stat;

    fn symbols() -> Vec<&'static str> {
        vec![
            "Switch:SwitchID",
            "Queue:QueueSize",
            "Link:RX-Bytes",
            "Link:TX-Bytes",
            "Link:CapacityKbps",
            "PacketMetadata:InputPort",
            "Switch:PacketsProcessed",
        ]
    }

    #[test]
    fn plan_splits_by_memory_budget() {
        let table = SymbolTable::new();
        // 7 stats x 3 hops = 21 words; budget 9 words -> 3 stats/probe
        // -> 3 segments (3 + 3 + 1).
        let q = SegmentedQuery::plan(&symbols(), &table, 3, 9).unwrap();
        assert_eq!(q.segments(), 3);
        assert_eq!(q.layout[0].len(), 3);
        assert_eq!(q.layout[1].len(), 3);
        assert_eq!(q.layout[2].len(), 1);
        // Generous budget -> a single probe.
        let q = SegmentedQuery::plan(&symbols(), &table, 3, 64).unwrap();
        assert_eq!(q.segments(), 1);
    }

    #[test]
    fn plan_rejects_impossible_budget_and_bad_symbols() {
        let table = SymbolTable::new();
        assert!(matches!(
            SegmentedQuery::plan(&symbols(), &table, 8, 4),
            Err(QueryError::BudgetTooSmall { .. })
        ));
        assert!(matches!(
            SegmentedQuery::plan(&["No:Such"], &table, 2, 16),
            Err(QueryError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn frames_carry_query_and_segment_tags() {
        let table = SymbolTable::new();
        let q = SegmentedQuery::plan(&symbols(), &table, 2, 6).unwrap();
        let dst = EthernetAddress::from_host_id(1);
        let src = EthernetAddress::from_host_id(2);
        let frames = q.frames(dst, src, 0xabcd);
        assert_eq!(frames.len(), q.segments());
        for (i, frame) in frames.iter().enumerate() {
            let parsed = tpp_wire::Frame::new_checked(&frame[..]).unwrap();
            let tpp = tpp_wire::tpp::TppPacket::new_checked(parsed.payload()).unwrap();
            let inner = tpp.inner_payload();
            assert_eq!(u32::from_be_bytes(inner[0..4].try_into().unwrap()), 0xabcd);
            assert_eq!(
                u32::from_be_bytes(inner[4..8].try_into().unwrap()),
                i as u32
            );
        }
    }

    /// Simulate execution + echo by hand and check reassembly.
    #[test]
    fn collector_reassembles_rows() {
        use tpp_wire::ethernet::Frame;
        use tpp_wire::tpp::{TppPacket, FLAG_ECHOED, FLAG_EXECUTED};

        let table = SymbolTable::new();
        let stats = ["Switch:SwitchID", "Queue:QueueSize", "Link:RX-Bytes"];
        let q = SegmentedQuery::plan(&stats, &table, 2, 4).unwrap(); // 2/probe
        assert_eq!(q.segments(), 2);
        let me = EthernetAddress::from_host_id(9);
        let dst = EthernetAddress::from_host_id(1);
        let mut collector = q.collector();

        let mut frames = q.frames(dst, me, 7);
        // "Execute": per hop, push one value per symbol in the segment;
        // hop h of segment s pushes value 100*s + 10*h + column.
        for (s, frame) in frames.iter_mut().enumerate() {
            let mut f = Frame::new_unchecked(&mut frame[..]);
            // swap src/dst as an echo would
            f.set_dst_addr(me);
            f.set_src_addr(dst);
            let mut tpp = TppPacket::new_unchecked(f.payload_mut());
            let cols = q.layout[s].len();
            for h in 0..2u32 {
                for c in 0..cols as u32 {
                    tpp.push_word(100 * s as u32 + 10 * h + c).unwrap();
                }
            }
            tpp.set_hop(2);
            tpp.set_flags(FLAG_EXECUTED | FLAG_ECHOED);
        }

        assert!(
            !collector.on_frame(&frames[0], me),
            "first segment incomplete"
        );
        assert_eq!(collector.pending(), 1);
        assert!(collector.on_frame(&frames[1], me), "second completes it");
        assert_eq!(collector.pending(), 0);
        let row = &collector.complete[0];
        assert_eq!(row.query_id, 7);
        assert_eq!(row.rows.len(), 2);
        assert_eq!(row.rows[0]["Switch:SwitchID"], 0);
        assert_eq!(row.rows[0]["Queue:QueueSize"], 1);
        assert_eq!(row.rows[0]["Link:RX-Bytes"], 100);
        assert_eq!(row.rows[1]["Switch:SwitchID"], 10);
        assert_eq!(row.rows[1]["Link:RX-Bytes"], 110);
        // Sanity: the symbols all exist in the static table too.
        assert!(Stat::by_symbol("Link:RX-Bytes").is_some());
    }

    #[test]
    fn duplicate_segments_are_idempotent() {
        let table = SymbolTable::new();
        let q = SegmentedQuery::plan(&["Switch:SwitchID"], &table, 1, 4).unwrap();
        let mut collector = q.collector();
        assert_eq!(collector.pending(), 0);
        // Garbage frames are ignored.
        assert!(!collector.on_frame(b"junk", EthernetAddress::from_host_id(0)));
    }
}

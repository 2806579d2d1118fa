//! Shared test-input builders: frames, ASIC pairs, and golden-file
//! helpers.
//!
//! The cache-equivalence property tests (`tests/hot_path_caches.rs`),
//! the robustness tests (`tests/lint_and_robustness.rs`) and the
//! conformance fuzz loop (`conformance`) all need the same ingredients —
//! a routed decode-cached/uncached ASIC pair, TPP frames with arbitrary
//! instruction and memory sections, and lock-step comparisons. They live
//! here once instead of being copy-pasted per test file.

use tpp_asic::{Asic, AsicConfig};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::tpp::{AddressingMode, TppBuilder};
use tpp_wire::EthernetAddress;

/// Identically-provisioned ASICs, decode cache on vs off, with the
/// standard three-route test topology: L2 host 1 → port 1, L2 host 2 →
/// port 2, L3 10.0.0.0/8 → port 3.
pub fn asic_pair() -> (Asic, Asic) {
    let mk = |config: AsicConfig| {
        let mut asic = Asic::new(config);
        asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
        asic.l2_mut().insert(EthernetAddress::from_host_id(2), 2);
        asic.l3_mut().insert(0x0a00_0000, 8, 3);
        asic
    };
    (
        mk(AsicConfig::with_ports(7, 4)),
        mk(AsicConfig::with_ports(7, 4).without_decode_cache()),
    )
}

/// Feed the same frame to both ASICs and require identical observable
/// behavior, including the bytes that come out of every egress queue.
///
/// # Panics
///
/// On any divergence between the two ASICs.
pub fn step_both(cached: &mut Asic, uncached: &mut Asic, frame: &[u8], now_ns: u64) {
    let out_a = cached.handle_frame(frame.to_vec(), 0, now_ns);
    let out_b = uncached.handle_frame(frame.to_vec(), 0, now_ns);
    assert_eq!(out_a, out_b, "outcome diverged");
    for port in 0..cached.num_ports() as u16 {
        assert_eq!(
            cached.dequeue(port),
            uncached.dequeue(port),
            "forwarded bytes diverged on port {port}"
        );
    }
}

/// Require every TPP-visible global register to match between the two
/// ASICs.
///
/// # Panics
///
/// On any register mismatch.
pub fn regs_match(cached: &Asic, uncached: &Asic) {
    assert_eq!(cached.regs().l2_hits, uncached.regs().l2_hits);
    assert_eq!(cached.regs().l3_hits, uncached.regs().l3_hits);
    assert_eq!(cached.regs().tcam_hits, uncached.regs().tcam_hits);
    assert_eq!(
        cached.regs().packets_processed,
        uncached.regs().packets_processed
    );
    assert_eq!(cached.regs().tpps_executed, uncached.regs().tpps_executed);
}

/// Build an Ethernet frame from host `src_host` to host `dst_host`
/// carrying a stack-mode TPP section with the given raw instruction
/// words and initial packet-memory words.
pub fn tpp_frame(dst_host: u32, src_host: u32, words: &[u32], mem_init: &[u32]) -> Vec<u8> {
    let payload = TppBuilder::new(AddressingMode::Stack)
        .instructions(words)
        .memory_init(mem_init)
        .build();
    build_frame(
        EthernetAddress::from_host_id(dst_host),
        EthernetAddress::from_host_id(src_host),
        EtherType::TPP,
        &payload,
    )
}

/// Compare `actual` against the committed golden file at `path`,
/// printing a line-by-line diff on mismatch. Set `UPDATE_GOLDEN=1` to
/// (re)write the file instead of comparing.
///
/// # Panics
///
/// When the contents differ (or the file is missing) and
/// `UPDATE_GOLDEN` is unset.
pub fn assert_matches_golden(path: &std::path::Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut diff = String::new();
    let mut exp_lines = expected.lines();
    let mut act_lines = actual.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (exp_lines.next(), act_lines.next()) {
            (None, None) => break,
            (exp, act) if exp != act => {
                diff.push_str(&format!(
                    "  line {line}:\n    golden: {}\n    actual: {}\n",
                    exp.unwrap_or("<eof>"),
                    act.unwrap_or("<eof>")
                ));
            }
            _ => {}
        }
    }
    panic!(
        "golden mismatch against {} (set UPDATE_GOLDEN=1 to regenerate):\n{diff}",
        path.display()
    );
}

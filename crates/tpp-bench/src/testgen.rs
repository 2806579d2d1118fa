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
use tpp_telemetry::json::Json;
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
/// panicking with `golden_mismatch`'s report when they differ. Set
/// `UPDATE_GOLDEN=1` to (re)write the file instead of comparing. This is
/// the one checker of every tracked file: the goldens, `REPRO.json`,
/// `BENCH_fct.json` and `BENCH_bonding.json`.
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
    if let Some(report) = golden_mismatch(&expected, actual) {
        panic!(
            "golden mismatch against {} (set UPDATE_GOLDEN=1 to regenerate):\n{report}",
            path.display()
        );
    }
}

/// What moved from the golden `expected` to `actual`, or `None` when
/// they are equal. When both parse as [`Json`] the report names the
/// first field that moved, with both values
/// (`closed_loop.retransmits: 786 → 790`); otherwise, or when the values
/// are equal and only the layout moved, it lists every differing line.
pub(crate) fn golden_mismatch(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    if let (Ok(exp), Ok(act)) = (Json::parse(expected), Json::parse(actual)) {
        if let Some(moved) = first_moved_field(&exp, &act, "") {
            return Some(format!("  {moved}\n"));
        }
    }
    let (mut exp_lines, mut act_lines) = (expected.lines(), actual.lines());
    let mut diff = String::new();
    for line in 1.. {
        match (exp_lines.next(), act_lines.next()) {
            (None, None) => break,
            (exp, act) if exp != act => diff.push_str(&format!(
                "  line {line}:\n    golden: {}\n    actual: {}\n",
                exp.unwrap_or("<eof>"),
                act.unwrap_or("<eof>")
            )),
            _ => {}
        }
    }
    Some(diff)
}

/// The first field, in `exp`'s order, whose value differs in `act`, as
/// `path: old → new`; `path` names the field, `a.b[2].c`.
fn first_moved_field(exp: &Json, act: &Json, path: &str) -> Option<String> {
    let field = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match (exp, act) {
        (Json::Obj(fields), Json::Obj(act_fields)) => {
            for (key, value) in fields {
                let Some(act_value) = act.get(key) else {
                    return Some(format!("{}: {} → <absent>", field(key), brief(value)));
                };
                if let Some(moved) = first_moved_field(value, act_value, &field(key)) {
                    return Some(moved);
                }
            }
            let added = act_fields.iter().find(|(key, _)| exp.get(key).is_none());
            added.map(|(key, value)| format!("{}: <absent> → {}", field(key), brief(value)))
        }
        (Json::Arr(items), Json::Arr(act_items)) => {
            for (i, (item, act_item)) in items.iter().zip(act_items).enumerate() {
                if let Some(moved) = first_moved_field(item, act_item, &format!("{path}[{i}]")) {
                    return Some(moved);
                }
            }
            (items.len() != act_items.len())
                .then(|| format!("{path}: {} → {} items", items.len(), act_items.len()))
        }
        _ => (exp != act).then(|| format!("{path}: {} → {}", brief(exp), brief(act))),
    }
}

/// A value on one line: scalars as written, containers by size.
fn brief(value: &Json) -> String {
    match value {
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
        scalar => scalar.line(),
    }
}

#[cfg(test)]
mod tests {
    use super::golden_mismatch;

    /// Change the first digit after `key`, searching from `section`, and
    /// require the report to name `path`.
    fn flip_names(doc: &str, section: &str, key: &str, path: &str) {
        let from = doc.find(section).expect("section");
        let mut edited = doc.as_bytes().to_vec();
        edited[from + doc[from..].find(key).expect("key") + key.len()] ^= 1;
        let edited = String::from_utf8(edited).expect("a digit ^ 1 is ASCII");
        let report = golden_mismatch(doc, &edited).expect("an edited digit is a mismatch");
        assert!(report.starts_with(&format!("  {path}: ")), "{report}");
    }

    #[test]
    fn mismatch_names_every_committed_fields_path() {
        let fct = include_str!("../../../BENCH_fct.json");
        for section in ["full", "smoke", "closed_loop"] {
            for (key, field) in [
                ("\"fingerprint\": \"0x", "fingerprint"),
                ("\"flows_completed\": ", "flows_completed"),
                ("\"p99_ms\": ", "fct_ms[0].p99_ms"),
            ] {
                let path = format!("{section}.{field}");
                flip_names(fct, &format!("\"{section}\": {{"), key, &path);
            }
        }
        let bonding = include_str!("../../../BENCH_bonding.json");
        flip_names(bonding, "{", "\"retransmits\": ", "retransmits");
        let repro = include_str!("../../../REPRO.json");
        flip_names(repro, "{", "\"SP\": ", "e1.hops[0].SP");
        for doc in [fct, bonding, repro] {
            assert_eq!(golden_mismatch(doc, doc), None);
        }
    }

    #[test]
    fn mismatch_reports_shape_and_falls_back_to_lines() {
        let report = |a: &str, b: &str| golden_mismatch(a, b).expect("differs");
        assert_eq!(
            report("{\"a\": [1, 2]}", "{\"a\": [1]}"),
            "  a: 2 → 1 items\n"
        );
        assert_eq!(report("{\"a\": 1}", "{}"), "  a: 1 → <absent>\n");
        assert_eq!(report("{}", "{\"b\": 0.5}"), "  b: <absent> → 0.5\n");
        assert_eq!(report("{\"t\": null}", "{\"t\": 7}"), "  t: null → 7\n");
        // Equal values in another layout, and text that is not JSON.
        let moved = report("{\"a\": 1}\n", "{\n  \"a\": 1\n}\n");
        assert!(moved.contains("line 1:"), "{moved}");
        assert_eq!(
            report("x\ny\n", "x\nz\n"),
            "  line 2:\n    golden: y\n    actual: z\n"
        );
    }
}

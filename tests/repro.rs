//! The paper's claims as one byte-checked file: every section of
//! `REPRO.json` (E1–E8, E11, E14, E15 of EXPERIMENTS.md) is rebuilt
//! in-process on every row of the shard matrix and compared with the
//! committed file. Every value is simulated, so each row writes the same
//! bytes; a difference is a semantic change. `UPDATE_GOLDEN=1` rewrites
//! the file, as `repro all` does.

use std::path::Path;

use tpp_bench::repro::{document, run, EXPERIMENTS};
use tpp_bench::testgen::assert_matches_golden;
use tpp_netsim::{for_each_shard_row, SimConfig};

#[test]
fn repro_sections_match_committed_file() {
    for_each_shard_row(|config| {
        let sections: Vec<_> = EXPERIMENTS
            .iter()
            .map(|e| run(e.0, false, config.clone()).expect("known experiment"))
            .collect();
        assert_matches_golden(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("REPRO.json"),
            &document(&sections),
        );
    });
}

/// `repro --trace`'s stream for e1, e6 and e7, pinned as a line count and
/// an FNV-1a hash of the `write_jsonl` bytes: the five kinds a healthy
/// run emits (parse, lookup hit, TCPU, enqueue, dequeue), each field's
/// serialization and `SharedSink`'s canonical order.
#[test]
fn traced_sections_serialize_to_pinned_jsonl() {
    let events: Vec<_> = ["e1", "e6", "e7"]
        .into_iter()
        .flat_map(|key| {
            run(key, true, SimConfig::new())
                .expect("known experiment")
                .trace
        })
        .collect();
    let mut jsonl = Vec::new();
    tpp_telemetry::write_jsonl(&mut jsonl, &events).expect("writes to a Vec");
    let lines = jsonl.iter().filter(|&&b| b == b'\n').count();
    let hash = jsonl.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (lines, hash),
        (35_221, 0xf7a4_0678_d830_8920),
        "trace stream moved"
    );
}

//! The paper's claims as one byte-checked file: every section of
//! `REPRO.json` (E1–E8, E11, E14, E15 of EXPERIMENTS.md) is rebuilt
//! in-process and compared with the committed file. Every value is
//! simulated, so the file is the same at any `TPP_SHARDS`; a difference
//! is a semantic change. `UPDATE_GOLDEN=1` rewrites the file, as
//! `repro all` does.

use std::path::Path;

use tpp_bench::repro::{document, run, EXPERIMENTS};
use tpp_bench::testgen::assert_matches_golden;

#[test]
fn repro_sections_match_committed_file() {
    let sections: Vec<_> = EXPERIMENTS
        .iter()
        .map(|e| run(e.0, false).expect("known experiment"))
        .collect();
    assert_matches_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("REPRO.json"),
        &document(&sections),
    );
}

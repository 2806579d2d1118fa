//! Golden corpus replay: every committed case under `tests/corpus/`
//! must run divergence-free, forever.
//!
//! The JSON files are the only copy of the directed cases (one per halt
//! reason, opcode coverage, echoed/malformed/queue-full paths); a new
//! directed case is a hand-written file here. The corpus also grows by
//! one minimized `divergence-<name>.json` witness per divergence the
//! `conformance` fuzzer ever finds — so any bug caught once is
//! re-checked on every test run afterwards. The unit tests in
//! `tpp_bench::conformance` hold the files to canonical form and unique
//! case names.

use tpp_bench::conformance::{default_corpus_dir, load_corpus, run_case};

#[test]
fn committed_corpus_replays_clean() {
    let corpus = load_corpus(&default_corpus_dir()).expect("load tests/corpus");
    assert!(
        corpus.len() >= 20,
        "corpus shrank to {} cases — witnesses must never be deleted",
        corpus.len()
    );
    for (label, case) in &corpus {
        if let Err(e) = run_case(case) {
            panic!("corpus case {label} ({}) diverged:\n{e}", case.name);
        }
    }
}

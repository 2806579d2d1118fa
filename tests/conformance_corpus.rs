//! Golden corpus replay: every committed case under `tests/corpus/`
//! must run divergence-free, forever.
//!
//! The corpus starts with the directed cases (one per halt reason,
//! opcode coverage, echoed/malformed/queue-full paths) and grows by one
//! minimized JSON witness per divergence the fuzz loop ever finds — so
//! any bug caught once is re-checked on every test run afterwards.
//! Regenerate the directed seed files with
//! `cargo run -p tpp-bench --bin conformance -- --write-corpus`.

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

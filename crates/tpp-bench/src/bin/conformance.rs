//! Differential conformance fuzzer: freshly generated cases through
//! `tpp-asic` (caches on and off) and the `tpp-spec` reference
//! semantics in lock step.
//!
//! ```text
//! conformance [--cases N] [--seed S]
//! ```
//!
//! * `--cases N`  fuzz N generated cases (default 500; CI uses 10000)
//! * `--seed S`   first case seed (default 0)
//!
//! The committed corpus under `tests/corpus/` is replayed by
//! `tests/conformance_corpus.rs`, not here. Exit status is non-zero on
//! any divergence; the diverging case is minimized and written to
//! `tests/corpus/divergence-<name>.json` so it can be committed as a
//! regression witness.

use tpp_bench::conformance::{default_corpus_dir, fuzz, write_case};
use tpp_bench::format_table;

fn main() {
    let mut cases: u64 = 500;
    let mut seed0: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cases needs a number");
            }
            "--seed" => {
                seed0 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    match fuzz(seed0, cases) {
        Ok(stats) => {
            let rows = vec![
                vec![
                    "fuzz cases".to_string(),
                    format!("{}", stats.cases),
                    "ok".to_string(),
                ],
                vec![
                    "  rounds simulated".to_string(),
                    format!("{}", stats.rounds),
                    String::new(),
                ],
                vec![
                    "  TCPU-executed rounds".to_string(),
                    format!("{}", stats.executed_rounds),
                    String::new(),
                ],
                vec![
                    "  queue-full drops".to_string(),
                    format!("{}", stats.dropped_cases),
                    String::new(),
                ],
            ];
            print!("{}", format_table(&["phase", "count", "status"], &rows));
        }
        Err(d) => {
            eprintln!("case {} diverged:\n{}", d.case.name, d.error);
            let path = default_corpus_dir().join(format!("divergence-{}.json", d.case.name));
            match write_case(&path, &d.minimized) {
                Ok(()) => eprintln!("minimized witness written to {}", path.display()),
                Err(e) => eprintln!("could not write witness: {e}"),
            }
            eprintln!("minimized case:\n{}", d.minimized.to_json().pretty());
            std::process::exit(1);
        }
    }
}

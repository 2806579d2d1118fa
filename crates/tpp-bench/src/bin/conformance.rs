//! Differential conformance driver: replay the committed corpus, then
//! fuzz freshly generated cases through `tpp-asic` (caches on and off)
//! and the `tpp-spec` reference semantics in lock step.
//!
//! ```text
//! conformance [--cases N] [--seed S] [--corpus DIR] [--skip-replay]
//!             [--write-corpus]
//! ```
//!
//! * `--cases N`       fuzz N generated cases (default 500; CI uses 10000)
//! * `--seed S`        first case seed (default 0)
//! * `--corpus DIR`    corpus directory (default `tests/corpus`)
//! * `--skip-replay`   skip the corpus replay phase
//! * `--write-corpus`  (re)write the directed cases into the corpus
//!   dir and exit
//!
//! Exit status is non-zero on any divergence; the diverging case is
//! minimized and written to `divergence-<seed>.json` in the corpus
//! directory so it can be committed as a regression witness.

use tpp_bench::conformance::{
    default_corpus_dir, directed_cases, fuzz, load_corpus, run_case, write_case,
};
use tpp_bench::format_table;

fn main() {
    let mut cases: u64 = 500;
    let mut seed0: u64 = 0;
    let mut corpus_dir = default_corpus_dir();
    let mut skip_replay = false;
    let mut write_corpus = false;

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
            "--corpus" => {
                corpus_dir = args.next().expect("--corpus needs a path").into();
            }
            "--skip-replay" => skip_replay = true,
            "--write-corpus" => write_corpus = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if write_corpus {
        for case in directed_cases() {
            run_case(&case)
                .unwrap_or_else(|e| panic!("refusing to write diverging case {}: {e}", case.name));
            let path = corpus_dir.join(format!("{}.json", case.name));
            write_case(&path, &case).expect("write corpus case");
            println!("wrote {}", path.display());
        }
        return;
    }

    let mut rows = Vec::new();
    let mut failed = false;

    if !skip_replay {
        match load_corpus(&corpus_dir) {
            Ok(corpus) => {
                let mut ok = 0usize;
                for (label, case) in &corpus {
                    match run_case(case) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            failed = true;
                            eprintln!("corpus case {label} ({}) diverged:\n{e}", case.name);
                        }
                    }
                }
                rows.push(vec![
                    "corpus replay".to_string(),
                    format!("{ok}/{}", corpus.len()),
                    if ok == corpus.len() { "ok" } else { "DIVERGED" }.to_string(),
                ]);
            }
            Err(e) => {
                failed = true;
                eprintln!("corpus load failed: {e}");
            }
        }
    }

    match fuzz(seed0, cases) {
        Ok(stats) => {
            rows.push(vec![
                "fuzz cases".to_string(),
                format!("{}", stats.cases),
                "ok".to_string(),
            ]);
            rows.push(vec![
                "  rounds simulated".to_string(),
                format!("{}", stats.rounds),
                String::new(),
            ]);
            rows.push(vec![
                "  TCPU-executed rounds".to_string(),
                format!("{}", stats.executed_rounds),
                String::new(),
            ]);
            rows.push(vec![
                "  queue-full drops".to_string(),
                format!("{}", stats.dropped_cases),
                String::new(),
            ]);
        }
        Err(d) => {
            failed = true;
            eprintln!("case {} diverged:\n{}", d.case.name, d.error);
            let path = corpus_dir.join(format!("divergence-{}.json", d.case.name));
            match write_case(&path, &d.minimized) {
                Ok(()) => eprintln!("minimized witness written to {}", path.display()),
                Err(e) => eprintln!("could not write witness: {e}"),
            }
            eprintln!("minimized case:\n{}", d.minimized.to_json().pretty());
        }
    }

    print!("{}", format_table(&["phase", "count", "status"], &rows));
    if failed {
        std::process::exit(1);
    }
}

//! `repro [eN…|all] [--trace path]`: print the paper's figures, tables and
//! claims (EXPERIMENTS.md E1–E8, E11, E14, E15). `all`, the default, also
//! rewrites `REPRO.json` in the current directory (run it from the repo
//! root), the file `tests/repro.rs` checks byte for byte. `--trace path`
//! writes the pipeline trace of e1, e6 and e7 as JSON lines.

use tpp_bench::repro::{document, run, EXPERIMENTS};
use tpp_bench::{trace_arg, write_trace};

fn main() {
    let trace_to = trace_arg();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |i: usize| args[i].starts_with("--trace") || (i > 0 && args[i - 1] == "--trace");
    let keys = (0..args.len())
        .filter(|&i| !flag(i))
        .map(|i| args[i].as_str());
    let mut keys: Vec<&str> = keys.collect();
    let all = keys.iter().all(|&k| k == "all");
    if all {
        keys = EXPERIMENTS.iter().map(|e| e.0).collect();
    }
    let mut sections = Vec::new();
    for key in keys {
        let Some(section) = run(key, trace_to.is_some()) else {
            eprintln!("unknown experiment {key}; usage: repro [eN…|all] [--trace path]");
            std::process::exit(2);
        };
        println!("== {key}: {}\n{}", section.title, section.render());
        sections.push(section);
    }
    if all {
        if let Err(e) = std::fs::write("REPRO.json", document(&sections)) {
            eprintln!("cannot write REPRO.json: {e}");
            std::process::exit(2);
        }
        println!("wrote REPRO.json");
    }
    if let Some(path) = trace_to {
        let events: Vec<_> = sections.into_iter().flat_map(|s| s.trace).collect();
        write_trace(&path, &events);
    }
}

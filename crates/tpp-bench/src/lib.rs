//! # tpp-bench — reproduction harness
//!
//! One binary per table/figure/quantitative claim in the paper (see the
//! per-experiment index in `DESIGN.md` and the results in
//! `EXPERIMENTS.md`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_walkthrough` | Figure 1 — queue-size query walking a path |
//! | `fig2_rcp_convergence` | Figure 2 — RCP vs RCP\* R(t)/C series |
//! | `table1_instructions` | Table 1 — instruction set, live semantics |
//! | `table2_namespaces` | Table 2 — statistics namespaces, live reads |
//! | `overheads_table` | §3.3 — bytes/instr/cycle overhead accounting |
//! | `microburst_detection` | §2.1 — TPP monitor vs coarse poller |
//! | `ndb_debugger` | §2.3 — fault detection summary |
//! | `cstore_consistency` | §3.2.3 — racy vs linearizable counters |
//! | `rcp_ablation` | design-choice ablations for RCP\* |
//! | `fixed_function_vs_tpp` | §4 — ECN/loss/TPP signal comparison |
//! | `fct_comparison` | §1 — mice/elephant flow completion times |
//! | `conformance` | differential conformance fuzz: `tpp-asic` vs `tpp-spec` |
//! | `bonding_demo` | multi-NIC bonding: probe-driven failover under degradation, flap, reboot |
//! | `fct_bench` | §4 datacenters at scale — million-flow fat-tree FCT, deterministic `BENCH_fct.json` |
//!
//! The *model's* performance — anything measured in wall time — is the
//! repo benchmark's job (`benchmark/`, `BENCHMARK.json`), not this
//! crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bonding_scenario;
pub mod conformance;
pub mod dash_scenario;
pub mod obs_scenario;
pub mod testgen;
pub mod traffic;

/// Render a simple fixed-width table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Parse a `--trace <path>` (or `--trace=<path>`) flag from the process
/// arguments. Reproduction binaries use it to opt into writing their
/// pipeline trace as JSON lines; absent the flag, tracing stays off and
/// the run is byte-identical to before the flag existed.
pub fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            match args.next() {
                Some(path) => return Some(path.into()),
                None => {
                    eprintln!("--trace requires a file path");
                    std::process::exit(2);
                }
            }
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            return Some(path.into());
        }
    }
    None
}

/// Write trace events to `path` as JSON lines, reporting how many.
pub fn write_trace(path: &std::path::Path, events: &[tpp_telemetry::TraceEvent]) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", path.display());
        std::process::exit(2);
    });
    let mut out = std::io::BufWriter::new(file);
    tpp_telemetry::write_jsonl(&mut out, events).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "\nwrote {} trace events to {}",
        events.len(),
        path.display()
    );
}

/// Mean of an f64 iterator; NaN when empty.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean([1.0, 2.0, 3.0].into_iter()), 2.0);
        assert!(mean(std::iter::empty()).is_nan());
    }
}

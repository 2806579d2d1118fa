//! # tpp-bench — reproduction harness
//!
//! The paper's figures, tables and claims come from one binary over the
//! shared scenario builders in [`repro`] (see the per-experiment index in
//! `DESIGN.md` and the results in `EXPERIMENTS.md`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `repro` | Fig. 1, Fig. 2, Tables 1–2, §3.3, §2.1, §2.3, §3.2.3, §4, §1 (E1–E8, E11, E14, E15) — byte-checked `REPRO.json` |
//! | `conformance` | differential conformance fuzz: `tpp-asic` vs `tpp-spec` |
//! | `fct_bench` | §4 datacenters at scale ([`fct_scenario`]) — writes `BENCH_fct.json` |
//! | `tpp_top` | the observability dashboard, live or headless |
//! | `tppasm` | assemble / disassemble / lint TPP programs |
//!
//! Root tests check every tracked file (`REPRO.json`, `BENCH_fct.json`,
//! `BENCH_bonding.json`, the goldens) with one function,
//! [`testgen::assert_matches_golden`]; `UPDATE_GOLDEN=1` rewrites them.
//!
//! The *model's* performance — anything measured in wall time — is the
//! repo benchmark's job (`benchmark/`, `BENCHMARK.json`), not this
//! crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bonding_scenario;
pub mod conformance;
pub mod dash_scenario;
pub mod fct_scenario;
pub mod repro;
pub mod testgen;
pub mod traffic;

use tpp_telemetry::json::Json;

/// A value a tracked file holds.
pub(crate) trait Cell {
    fn cell(self) -> Json;
}

macro_rules! cells {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl Cell for $t { fn cell(self) -> Json { let $v = self; $e } })*
    };
}

cells! {
    Json => |v| v,
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    u8 => |v| Json::Num(v.into()),
    u16 => |v| Json::Num(v.into()),
    u32 => |v| Json::Num(v.into()),
    u64 => |v| Json::Num(v),
    usize => |v| Json::Num(v as u64),
}

impl<T: Cell> Cell for Vec<T> {
    fn cell(self) -> Json {
        Json::Arr(self.into_iter().map(Cell::cell).collect())
    }
}

/// `None` is `null`.
impl<T: Cell> Cell for Option<T> {
    fn cell(self) -> Json {
        self.map_or_else(|| Json::Lit("null".to_string()), Cell::cell)
    }
}

/// An object's fields from `key: value` pairs, in order, each value
/// converted by [`Cell`]: `fields! { k: 8, sim_ms: decimal(ms, 3) }`.
macro_rules! fields {
    ($($key:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($key).to_string(), $crate::Cell::cell($value))),*]
    };
}
pub(crate) use fields;

/// `x` to `places` decimals, kept as written.
pub(crate) fn decimal(x: f64, places: usize) -> Json {
    Json::Lit(format!("{x:.places$}"))
}

/// `n` as `0x` and sixteen hex digits.
pub(crate) fn hex(n: u64) -> Json {
    Json::Str(format!("{n:#018x}"))
}

/// Lay out a simple fixed-width table, one line per row.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
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

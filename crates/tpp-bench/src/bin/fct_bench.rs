//! Writes `BENCH_fct.json`: the million-flow k=8 `full` run, the k=4
//! `smoke` run and the closed-loop shard matrix of
//! [`tpp_bench::fct_scenario`], one printed line per run. Every value in
//! the file is simulated, so a re-run writes the same bytes;
//! `tests/fct_sections.rs` checks `smoke` and `closed_loop` against it.
//! Wall time is printed here and *measured* by `benchmark/`.
//!
//! ```console
//! $ cargo run --release -p tpp-bench --bin fct_bench   # ~25 s, rewrites BENCH_fct.json
//! ```

use tpp_bench::fct_scenario::{closed_section, document, run, FULL, SMOKE};

fn main() {
    // Allocations are counted by `tests/fct_sections.rs`, not here.
    let full = run("full", &FULL, 1, true, || 0);
    assert!(
        full.flows_completed >= 1_000_000,
        "datacenter run must complete at least a million flows (got {})",
        full.flows_completed
    );
    let smoke = run("smoke", &SMOKE, 1, true, || 0);
    let doc = document(&full.section(), &smoke.section(), &closed_section());
    std::fs::write("BENCH_fct.json", doc).unwrap_or_else(|e| {
        eprintln!("cannot write BENCH_fct.json: {e}");
        std::process::exit(2);
    });
    println!("wrote BENCH_fct.json");
}

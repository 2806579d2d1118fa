//! `BENCH_fct.json`'s `smoke` (k=4, open loop, the three TPP apps) and
//! `closed_loop` (lossy k=8 on every shard row, one fingerprint) sections,
//! rebuilt and checked against the committed file. `full` (1.13 M flows)
//! is taken by key from the parsed file: `fct_bench` regenerates it, and
//! `UPDATE_GOLDEN=1` rewrites the other two and keeps it. One test,
//! because the counting allocator behind the smoke's ceiling is
//! process-wide.

mod common;

use std::path::Path;

use tpp_bench::fct_scenario::{closed_section, document, run, SMOKE};
use tpp_bench::testgen::assert_matches_golden;
use tpp_netsim::SimConfig;
use tpp_telemetry::json::Json;

use common::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Most allocations the smoke's `sim.run` may make (it measures 1,115):
/// one reintroduced per frame or per window on the `FlowGenApp` path
/// adds tens of thousands.
const SMOKE_ALLOC_CEILING: u64 = 1_542;

#[test]
fn smoke_and_closed_loop_sections_match_committed_file() {
    let smoke = run("smoke", &SMOKE, SimConfig::new().sequential(), allocations);
    assert!(
        smoke.allocs <= SMOKE_ALLOC_CEILING,
        "allocation regression: the smoke run made {} > {SMOKE_ALLOC_CEILING}",
        smoke.allocs
    );
    let closed_loop = closed_section();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_fct.json");
    let committed = std::fs::read_to_string(&path).expect("BENCH_fct.json: run fct_bench");
    let committed = Json::parse(&committed).expect("BENCH_fct.json is JSON");
    let full = committed.get("full").expect("a `full` section").clone();
    let doc = document(full, smoke.section, closed_loop);
    assert_matches_golden(&path, &doc.pretty());
}

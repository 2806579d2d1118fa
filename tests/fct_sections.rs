//! `BENCH_fct.json`'s `smoke` (k=4, open loop, the three TPP apps) and
//! `closed_loop` (lossy k=8 at 1/2/4 shards, one fingerprint) sections,
//! rebuilt and checked against the committed file. `full` (1.13 M flows)
//! is spliced in from the file: `fct_bench` regenerates it, and
//! `UPDATE_GOLDEN=1` rewrites the other two and keeps it. One test,
//! because the counting allocator behind the smoke's ceiling is
//! process-wide.

mod common;

use std::path::Path;

use tpp_bench::fct_scenario::{closed_section, document, run, SMOKE};
use tpp_bench::testgen::assert_matches_golden;

use common::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Most allocations the smoke's `sim.run` may make (it measures 1,117):
/// one reintroduced per frame or per window on the `FlowGenApp` path
/// adds tens of thousands.
const SMOKE_ALLOC_CEILING: u64 = 1_542;

#[test]
fn smoke_and_closed_loop_sections_match_committed_file() {
    let smoke = run("smoke", &SMOKE, 1, true, allocations);
    assert!(
        smoke.allocs <= SMOKE_ALLOC_CEILING,
        "allocation regression: the smoke run made {} > {SMOKE_ALLOC_CEILING}",
        smoke.allocs
    );
    let closed_loop = closed_section();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_fct.json");
    let committed = std::fs::read_to_string(&path).expect("BENCH_fct.json: run fct_bench");
    let full = &committed[committed.find("  \"full\"").expect("a `full` section")..];
    let full = &full[..full.find(",\n  \"smoke\"").expect("`smoke` after `full`")];
    assert_matches_golden(&path, &document(full, &smoke.section(), &closed_loop));
}

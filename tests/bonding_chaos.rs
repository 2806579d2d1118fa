//! The bonding-chaos lane: the seeded degradation/flap/reboot scenario
//! must fail over within a bounded number of probe intervals, deliver
//! every payload exactly once to the app layer, fingerprint
//! bit-identically at every shard count, and match the committed
//! `BENCH_bonding.json` (`UPDATE_GOLDEN=1` rewrites it).

use std::path::Path;

use tpp::netsim::SimConfig;
use tpp_bench::bonding_scenario::{run_bonding_scenario, BondingRun, PROBE_INTERVAL_NS, REBOOT_NS};
use tpp_bench::testgen::assert_matches_golden;

fn assert_chaos_invariants(label: &str, run: &BondingRun) {
    // Exactly-once delivery at the app layer, in spite of proactive
    // duplication and RTO retransmits underneath.
    assert_eq!(
        run.delivered, run.sequences_sent,
        "{label}: every sequence reaches the app"
    );
    assert_eq!(
        run.duplicate_deliveries, 0,
        "{label}: no duplicate delivery to the app layer"
    );
    assert_eq!(run.unacked, 0, "{label}: sender drained all in-flight data");
    // The redundancy machinery actually fired — otherwise the scenario
    // is not exercising what it claims to.
    assert!(
        run.duplicates_suppressed > 0,
        "{label}: receiver saw and suppressed duplicates"
    );
    assert!(run.retransmits > 0, "{label}: the flap forced retransmits");

    // Bounded failover: path 0 must be marked Down within a small
    // number of probe intervals of the hard flap.
    let detect = run
        .failover_detect_ns
        .unwrap_or_else(|| panic!("{label}: no Down transition after the flap"));
    assert!(
        detect <= 10 * PROBE_INTERVAL_NS,
        "{label}: failover took {detect} ns (> 10 probe intervals)"
    );

    // The switch reboot mid-path must be caught via the BootEpoch word
    // in the probe echo.
    assert!(
        run.epoch_changes >= 1,
        "{label}: reboot at {REBOOT_NS} ns went unnoticed"
    );

    // Both paths carried data at some point.
    for (p, &sent) in run.path_data_sent.iter().enumerate() {
        assert!(sent > 0, "{label}: path {p} never carried data");
    }
}

#[test]
fn bonding_chaos_is_exactly_once_bounded_and_shard_invariant() {
    let reference = run_bonding_scenario(SimConfig::new().shards(1));
    assert_chaos_invariants("1 shard", &reference);
    assert_matches_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_bonding.json"),
        &reference.to_json(),
    );
    let want = reference.fingerprint();
    // The rest of the shard matrix: threaded 2/4, and 4 driven sequentially.
    for (label, config) in [
        ("2 shards", SimConfig::new().shards(2)),
        ("4 shards", SimConfig::new().shards(4)),
        (
            "4 shards sequential",
            SimConfig::new().shards(4).sequential(),
        ),
    ] {
        let run = run_bonding_scenario(config);
        assert_chaos_invariants(label, &run);
        assert_eq!(
            run.fingerprint(),
            want,
            "{label}: fingerprint diverged from the 1-shard reference"
        );
    }
}

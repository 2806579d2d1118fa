//! The bonding-chaos lane: the seeded degradation/flap/reboot scenario
//! must fail over within a bounded number of probe intervals, deliver
//! every payload exactly once to the app layer, and match the committed
//! `BENCH_bonding.json` (`UPDATE_GOLDEN=1` rewrites it) on every row of
//! the shard matrix. The file holds the run's fingerprint, so matching it
//! on every row is the shard invariance.

use std::path::Path;

use tpp_bench::bonding_scenario::{run_bonding_scenario, BondingRun, PROBE_INTERVAL_NS, REBOOT_NS};
use tpp_bench::testgen::assert_matches_golden;
use tpp_netsim::for_each_shard_row;

fn assert_chaos_invariants(run: &BondingRun) {
    // Exactly-once delivery at the app layer, in spite of proactive
    // duplication and RTO retransmits underneath.
    assert_eq!(
        run.delivered, run.sequences_sent,
        "every sequence reaches the app"
    );
    assert_eq!(
        run.duplicate_deliveries, 0,
        "no duplicate delivery to the app layer"
    );
    assert_eq!(run.unacked, 0, "sender drained all in-flight data");
    // The redundancy machinery actually fired — otherwise the scenario
    // is not exercising what it claims to.
    assert!(
        run.duplicates_suppressed > 0,
        "receiver saw and suppressed duplicates"
    );
    assert!(run.retransmits > 0, "the flap forced retransmits");

    // Bounded failover: path 0 must be marked Down within a small
    // number of probe intervals of the hard flap.
    let detect = run
        .failover_detect_ns
        .expect("no Down transition after the flap");
    assert!(
        detect <= 10 * PROBE_INTERVAL_NS,
        "failover took {detect} ns (> 10 probe intervals)"
    );

    // The switch reboot mid-path must be caught via the BootEpoch word
    // in the probe echo.
    assert!(
        run.epoch_changes >= 1,
        "reboot at {REBOOT_NS} ns went unnoticed"
    );

    // Both paths carried data at some point.
    for (p, &sent) in run.path_data_sent.iter().enumerate() {
        assert!(sent > 0, "path {p} never carried data");
    }
}

#[test]
fn bonding_chaos_is_exactly_once_bounded_and_shard_invariant() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_bonding.json");
    for_each_shard_row(|config| {
        let run = run_bonding_scenario(config);
        assert_chaos_invariants(&run);
        assert_matches_golden(&path, &run.to_json());
    });
}

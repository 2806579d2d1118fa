//! E2 / Figure 2 — RCP\* vs the reference RCP simulation, shape-asserted.
//!
//! "We compared our implementation with the original RCP algorithm
//! available in ns2 simulation. ... the behavior of RCP and RCP\* are
//! qualitatively similar, in that they both show quick convergence."
//!
//! The full 30 s run is section `e2` of `REPRO.json` (`repro e2`); this
//! test runs a compressed schedule (joins at 0 s, 5 s, 10 s over 15 s)
//! and asserts the shape: R/C settles near 1, 1/2, 1/3 in both systems,
//! and RCP\* tracks the reference within a coarse band.

use std::path::Path;

use tpp::apps::rcpstar::{RcpStarConfig, RcpStarSender};
use tpp::host::EchoReceiver;
use tpp::netsim::RunLimit;
use tpp::netsim::{for_each_shard_row, time, DumbbellParams, SimConfig};
use tpp::rcp_ref::fluid::mean_r_over_c;
use tpp::rcp_ref::{FlowSchedule, RcpFluidSim, RcpParams};
use tpp_bench::repro::rcp_dumbbell;
use tpp_bench::testgen::assert_matches_golden;

const C_BPS: f64 = 10e6;

fn star_mean(trace: &[(u64, u64)], lo_s: f64, hi_s: f64) -> f64 {
    let window: Vec<f64> = trace
        .iter()
        .filter(|(t, _)| {
            let ts = *t as f64 / 1e9;
            ts >= lo_s && ts < hi_s
        })
        .map(|(_, r)| *r as f64 / C_BPS)
        .collect();
    assert!(!window.is_empty(), "no samples in {lo_s}..{hi_s}");
    window.iter().sum::<f64>() / window.len() as f64
}

#[test]
fn rcp_and_rcpstar_converge_to_matching_fair_shares() {
    for_each_shard_row(check_convergence);
}

fn check_convergence(config: SimConfig) {
    // --- Reference (the ns-2 role) ---
    let reference = RcpFluidSim::new(
        RcpParams::paper_defaults(C_BPS, 0.05),
        vec![
            FlowSchedule::starting_at(0.0),
            FlowSchedule::starting_at(5.0),
            FlowSchedule::starting_at(10.0),
        ],
    )
    .run(15.0);

    // --- RCP* on the packet simulator ---
    let flows = [0, 5, 10].map(|t| RcpStarConfig {
        start_ns: time::secs(t),
        ..Default::default()
    });
    let (mut sim, bell) = rcp_dumbbell(&config, DumbbellParams::default(), &flows);
    sim.run(RunLimit::Until(time::secs(15)));
    let star = &sim.host_app::<RcpStarSender>(bell.senders[0]).rate_trace;

    // Settled windows: the last 40% of each regime.
    let windows = [(3.0, 5.0, 1.0), (8.0, 10.0, 0.5), (13.0, 15.0, 1.0 / 3.0)];
    let mut golden_rows: Vec<String> = Vec::new();
    for (lo, hi, ideal) in windows {
        let r = mean_r_over_c(&reference, lo, hi);
        let s = star_mean(star, lo, hi);
        // Reference sits on the ideal.
        assert!(
            (r - ideal).abs() < 0.07,
            "reference off ideal in {lo}..{hi}: {r} vs {ideal}"
        );
        // RCP* lands in the same band (probe overhead costs it a few
        // percent of goodput, hence the slightly wider tolerance and
        // the one-sided undershoot).
        assert!(
            (s - ideal).abs() < 0.12,
            "RCP* off ideal in {lo}..{hi}: {s} vs {ideal}"
        );
        assert!(
            (s - r).abs() < 0.12,
            "RCP* does not track reference in {lo}..{hi}: {s} vs {r}"
        );
        // R/C scaled to integer permille so the snapshot has no
        // float-formatting ambiguity.
        golden_rows.push(format!(
            "    {{\"window_s\": [{lo}, {hi}], \"ref_permille\": {}, \"star_permille\": {}}}",
            (r * 1000.0).round() as i64,
            (s * 1000.0).round() as i64
        ));
    }

    // "Quick convergence": within 2 s of the second join, flow 0's rate
    // has fallen to within 25% of C/2.
    let quick = star_mean(star, 6.0, 7.0);
    assert!(
        (quick - 0.5).abs() < 0.15,
        "slow convergence after join: {quick}"
    );

    // RCP's signature vs loss-based control: no drops, small queues.
    let q = sim.switch(bell.left).queue_stats(bell.bottleneck_port, 0);
    assert_eq!(q.packets_dropped, 0, "RCP* should not need losses");

    // Golden snapshot: the exact per-window means. The band assertions
    // above define correctness; this pins the simulation's behavior so
    // an unintended change anywhere in the pipeline (scheduler order,
    // RCP arithmetic, probe cadence) shows up as a reviewed diff, not a
    // silent drift inside the tolerance band.
    let snapshot = format!(
        "{{\n  \"windows\": [\n{}\n  ],\n  \"samples\": {},\n  \"bottleneck_drops\": {}\n}}\n",
        golden_rows.join(",\n"),
        star.len(),
        q.packets_dropped
    );
    assert_matches_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig2_rates.json"),
        &snapshot,
    );
}

#[test]
fn rcpstar_flows_share_fairly_among_themselves() {
    for_each_shard_row(check_fair_share);
}

fn check_fair_share(config: SimConfig) {
    // Three simultaneous flows: goodputs within 20% of each other.
    let flows = [RcpStarConfig::default(); 3];
    let (mut sim, bell) = rcp_dumbbell(&config, DumbbellParams::default(), &flows);
    sim.run(RunLimit::Until(time::secs(8)));
    let goodputs: Vec<f64> = bell
        .receivers
        .iter()
        .map(|r| sim.host_app::<EchoReceiver>(*r).data_bytes as f64)
        .collect();
    let max = goodputs.iter().cloned().fold(0.0, f64::max);
    let min = goodputs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 1.25,
        "unfair split: {goodputs:?} (max/min = {:.2})",
        max / min
    );
    // And together they use most of the link.
    let total_bps = goodputs.iter().sum::<f64>() * 8.0 / 8.0;
    assert!(
        total_bps > 0.75 * C_BPS,
        "underutilized: {total_bps:.0} bps"
    );
}

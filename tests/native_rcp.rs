//! Native-router RCP vs RCP\* on the *same* packet substrate — the
//! strongest form of the Figure 2 comparison: identical links, queues and
//! probe traffic; only the location of the control computation differs
//! (ASIC firmware vs end-host).

use tpp::apps::rcpstar::{RcpStarConfig, RcpStarSender};
use tpp::netsim::RunLimit;
use tpp::netsim::{time, DumbbellParams};
use tpp_bench::repro::{rcp_dumbbell, run_native_rcp};

const C_BPS: f64 = 10e6;

fn settled_mean(trace: &[(u64, u64)], lo: u64, hi: u64) -> f64 {
    let w: Vec<u64> = trace
        .iter()
        .filter(|(t, _)| *t >= lo && *t < hi)
        .map(|(_, r)| *r)
        .collect();
    assert!(!w.is_empty());
    w.iter().sum::<u64>() as f64 / w.len() as f64 / C_BPS
}

/// Run `n` flows for `secs`; `native` selects who computes the law.
fn run(n: usize, secs: u64, native: bool) -> Vec<f64> {
    let flow = RcpStarConfig {
        compute_updates: !native,
        ..Default::default()
    };
    let (mut sim, bell) = rcp_dumbbell(DumbbellParams::default(), &vec![flow; n]);
    if native {
        // The ASIC-resident control loop, stepped every 10 ms by the
        // "firmware timer" (the harness).
        run_native_rcp(&mut sim, &bell, time::secs(secs));
    } else {
        sim.run(RunLimit::Until(time::secs(secs)));
    }
    bell.senders
        .iter()
        .map(|s| {
            settled_mean(
                &sim.host_app::<RcpStarSender>(*s).rate_trace,
                time::secs(secs - 2),
                time::secs(secs),
            )
        })
        .collect()
}

#[test]
fn native_router_converges_to_fair_shares() {
    for (n, ideal) in [(1usize, 1.0), (2, 0.5), (3, 1.0 / 3.0)] {
        let rates = run(n, 6, true);
        for r in &rates {
            assert!(
                (r - ideal).abs() < 0.12,
                "native, {n} flows: got R/C = {r}, want ~{ideal}"
            );
        }
    }
}

#[test]
fn native_and_endhost_implementations_agree() {
    // The paper's refactoring claim, on one substrate: moving the
    // computation to the end-hosts changes the result only marginally
    // (probe overhead + feedback latency).
    let native = run(2, 6, true);
    let star = run(2, 6, false);
    for (a, b) in native.iter().zip(&star) {
        assert!(
            (a - b).abs() < 0.15,
            "implementations diverge: native {a} vs RCP* {b}"
        );
    }
}

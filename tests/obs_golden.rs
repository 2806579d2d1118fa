//! Golden snapshot of the observability plane's end-to-end artifacts.
//!
//! Drives the seeded microburst feed (`DashFeed::obs` — the same code
//! path as `tpp_top --headless`) and pins its Prometheus snapshot and
//! JSONL series dump against committed goldens; `dashboard_golden.rs`
//! pins its frames. The feed is fully deterministic (discrete-event
//! time, seeded reservoirs, no wall clock), so any diff is a real
//! behavior change. Regenerate with `UPDATE_GOLDEN=1`.

use std::path::Path;

use tpp_apps::{detect_bursts, MicroburstMonitor};
use tpp_bench::dash_scenario::{DashFeed, OBS_PROBE_INTERVAL_NS};
use tpp_bench::testgen::assert_matches_golden;
use tpp_netsim::{time, HostId};

#[test]
fn obs_scenario_matches_goldens() {
    let mut feed = DashFeed::obs();
    feed.run_to_end();
    let snap = feed.snapshot(time::micros(100));

    // The acceptance invariants first, so a broken scenario fails with
    // a readable message rather than a golden diff.
    let c = snap.collector;
    assert_eq!(
        c.probes_sent, c.echoes_received,
        "scenario must be lossless"
    );
    assert_eq!(
        c.divergence_max_bytes, 0,
        "collector must match ground truth on a drained lossless run"
    );
    assert!(
        snap.switches.iter().map(|s| s.violations).sum::<u64>() > 0,
        "the incast must push spans past the 300 ns cut-through budget"
    );
    // The monitor is host 0; the victim it probes, host 2, hangs off the
    // second leaf, which the leaf-spine builder numbers 1.
    let victim_leaf = &snap.switches[1];
    let monitor = feed.sim().host_app::<MicroburstMonitor>(HostId(0));
    let bursts = detect_bursts(
        &monitor.series_for(victim_leaf.switch_id),
        5_000,
        5 * OBS_PROBE_INTERVAL_NS,
    );
    assert!(
        !bursts.is_empty(),
        "the monitor must detect the seeded microburst"
    );
    assert!(victim_leaf.hot.2 > 10_000, "burst must actually queue");

    assert_matches_golden(Path::new("tests/golden/obs_snapshot.prom"), &feed.prom());
    assert_matches_golden(
        Path::new("tests/golden/obs_series.jsonl"),
        &feed.series_dump(),
    );
}

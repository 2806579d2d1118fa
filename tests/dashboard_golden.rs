//! Golden-pinned dashboard frames + frame purity properties.
//!
//! The renderer is a pure function of `(snapshot, state, size)`, and
//! every feed is seeded and wall-clock-free, so whole 120×40 frames can
//! be pinned byte-for-byte: one per tab over the microburst scenario,
//! plus the transport tab over the lossy closed-loop fct feed and the
//! paths tab over the bonded-diamond feed, plus the profile-diff view.
//! Every golden is checked on every row of the shard matrix, every tab
//! of the fct feed is compared across the rows, and a property test
//! drives random key scripts through [`DashState`] to check that no
//! input sequence can bend a frame out of shape.
//! Regenerate goldens with `UPDATE_GOLDEN=1`.

use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;
use tpp_bench::dash_scenario::DashFeed;
use tpp_bench::testgen::assert_matches_golden;
use tpp_netsim::{for_each_shard_row, shard_matrix, time, SimConfig};
use tpp_obs::render::Tab;
use tpp_obs::{parse_series_jsonl, render_dashboard, render_profile_diff, DashState};
use tpp_obs::{series_jsonl, FleetSnapshot};

const FRAME_W: usize = 120;
const FRAME_H: usize = 40;

fn assert_frame_shape(frame: &str, w: usize, h: usize) {
    assert_eq!(frame.lines().count(), h, "frame height");
    for line in frame.lines() {
        assert_eq!(line.chars().count(), w, "frame width on {line:?}");
    }
    assert!(frame.ends_with('\n'));
}

#[test]
fn obs_dashboard_tabs_match_goldens() {
    for_each_shard_row(check_obs_tabs);
}

fn check_obs_tabs(config: SimConfig) {
    let mut feed = DashFeed::obs(config);
    feed.run_to_end();
    let mut state = DashState::default();
    let snap = feed.snapshot(state.window_ns());
    for tab in Tab::ALL {
        state.tab = tab;
        let frame = render_dashboard(&snap, &state, FRAME_W, FRAME_H);
        assert_frame_shape(&frame, FRAME_W, FRAME_H);
        let path = format!("tests/golden/dash_obs_{}.txt", tab.title());
        assert_matches_golden(Path::new(&path), &frame);
    }
}

#[test]
fn fct_and_bond_dashboards_match_goldens() {
    for_each_shard_row(check_fct_and_bond_frames);
}

fn check_fct_and_bond_frames(config: SimConfig) {
    let mut fct = DashFeed::fct(config.clone());
    fct.run_to_end();
    let mut state = DashState {
        tab: Tab::Transport,
        ..DashState::default()
    };
    let frame = render_dashboard(&fct.snapshot(state.window_ns()), &state, FRAME_W, FRAME_H);
    assert_frame_shape(&frame, FRAME_W, FRAME_H);
    assert_matches_golden(Path::new("tests/golden/dash_fct_transport.txt"), &frame);

    let mut bond = DashFeed::bond(config);
    bond.run_to_end();
    state.tab = Tab::Paths;
    let frame = render_dashboard(&bond.snapshot(state.window_ns()), &state, FRAME_W, FRAME_H);
    assert_frame_shape(&frame, FRAME_W, FRAME_H);
    assert_matches_golden(Path::new("tests/golden/dash_bond_paths.txt"), &frame);
}

#[test]
fn profile_diff_matches_golden() {
    for_each_shard_row(check_profile_diff);
}

fn check_profile_diff(config: SimConfig) {
    // Mid-burst vs drained: the same fleet recorded at two instants is
    // the diff mode's bread and butter (same shape as caches on/off).
    let mut feed = DashFeed::obs(config);
    feed.step_to(600_000);
    let mid = series_jsonl(feed.sim().series().expect("series on"));
    feed.run_to_end();
    let done = series_jsonl(feed.sim().series().expect("series on"));
    let frame = render_profile_diff(
        &parse_series_jsonl(&mid),
        &parse_series_jsonl(&done),
        "mid-burst",
        "drained",
        FRAME_W,
        FRAME_H,
    );
    assert_frame_shape(&frame, FRAME_W, FRAME_H);
    assert_matches_golden(Path::new("tests/golden/dash_diff.txt"), &frame);
}

/// The acceptance gate: the fct feed — transport, ECMP, profiling and
/// series all live — must render byte-identical frames on every row of
/// the shard matrix, on every tab.
#[test]
fn frames_identical_across_1_2_4_shards() {
    let mut baseline: Option<Vec<String>> = None;
    for (row, config) in shard_matrix() {
        let mut feed = DashFeed::fct(config);
        feed.run_to_end();
        let mut state = DashState::default();
        let snap = feed.snapshot(state.window_ns());
        let frames: Vec<String> = Tab::ALL
            .iter()
            .map(|&tab| {
                state.tab = tab;
                render_dashboard(&snap, &state, FRAME_W, FRAME_H)
            })
            .collect();
        match &baseline {
            None => baseline = Some(frames),
            Some(base) => {
                for (tab, (a, b)) in Tab::ALL.iter().zip(base.iter().zip(frames.iter())) {
                    assert_eq!(a, b, "tab {} diverged on {row}", tab.title());
                }
            }
        }
    }
}

/// One shared snapshot for the key-script property (building a feed per
/// proptest case would dominate the runtime; rendering is the subject
/// under test, not the simulation).
fn shared_snapshot() -> &'static FleetSnapshot {
    static SNAP: OnceLock<FleetSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut feed = DashFeed::obs(SimConfig::new());
        feed.run_to_end();
        feed.snapshot(time::micros(100))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No key script at any frame size can produce a malformed frame,
    /// and replaying the same script yields byte-identical output.
    #[test]
    fn key_scripts_never_bend_frames(
        keys in proptest::collection::vec(0u8..128, 0..24),
        w in 60usize..140,
        h in 12usize..48,
    ) {
        let snap = shared_snapshot();
        let run = |state: &mut DashState| -> Vec<String> {
            keys.iter()
                .map(|&k| {
                    state.apply_key(k as char);
                    render_dashboard(snap, state, w, h)
                })
                .collect()
        };
        let frames_a = run(&mut DashState::default());
        let frames_b = run(&mut DashState::default());
        prop_assert_eq!(&frames_a, &frames_b, "replay must be identical");
        for frame in &frames_a {
            prop_assert_eq!(frame.lines().count(), h);
            for line in frame.lines() {
                prop_assert_eq!(line.chars().count(), w);
            }
        }
    }
}

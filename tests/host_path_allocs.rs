//! The steady-state host frame path stays off the allocator.
//!
//! A k=4 fat-tree runs the closed-loop transport under 5 ‰ seeded loss,
//! so every host-side frame path is exercised: DATA and ACK segments,
//! retransmissions, rate probes, in-place echoes and their decode. This
//! binary installs its own counting `#[global_allocator]` and checks the
//! second half of the run — after set-up and pool warm-up — against a
//! budget per frame a host put on the wire. What is left is per *flow*,
//! not per frame: growth of the completion log and of the set of
//! finished flow keys. A sender starts on the counter buffer of a
//! finished flow and a receiver on its out-of-order buffer, and a
//! receiver leaves the live-flow map when its flow is delivered, so
//! neither adds anything once the buffers and the map have grown.
//!
//! The run repeats on every row of the shard matrix: the threaded
//! scheduler's per-window bookkeeping and cross-shard buffer migration
//! have to fit in the same budget.
//!
//! The same test then pins the dashboard refresh that runs beside such
//! a fleet: after one warm-up, a refresh of a profiled, series-on
//! leaf-spine makes at most [`REFRESH_BUDGET`] allocations, because the
//! simulator's registry keeps its keys and the snapshot, frame and
//! Prometheus text are each written into buffers sized once.

mod common;

use tpp::apps::microburst::MicroburstMonitor;
use tpp::asic::ProfileConfig;
use tpp::host::EchoReceiver;
use tpp::netsim::{
    for_each_shard_row, leaf_spine_with, time, Endpoint, FatTreeParams, HostApp, HostId,
    LeafSpineParams, RunLimit, SimConfig, Simulator, SwitchId,
};
use tpp::obs::{prometheus_snapshot, render_dashboard, Collector, DashState, FleetSnapshot};
use tpp::telemetry::MetricsRegistry;
use tpp::wire::EthernetAddress;
use tpp_bench::traffic::{closed_loop_fat_tree, ClosedFlowGenApp, TrafficConfig};

use common::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const LOSS_PERMILLE: u16 = 5;

/// Frames the hosts have put on the wire so far.
fn host_frames(sim: &Simulator, n_hosts: usize) -> u64 {
    (0..n_hosts)
        .map(|h| sim.link_tx_frames(Endpoint::host(HostId(h))))
        .sum()
}

/// Allocations one steady-state dashboard refresh may make (it made
/// ~410 when every call rebuilt its keys, strings and maps).
const REFRESH_BUDGET: u64 = 20;

// One test per binary: see `common`.
#[test]
fn steady_state_host_frames_do_not_allocate() {
    for_each_shard_row(check_host_frame_allocations);
    for_each_shard_row(check_refresh_allocations);
}

fn check_host_frame_allocations(config: SimConfig) {
    let params = FatTreeParams::default(); // k=4: 16 hosts, 20 switches
    let n_hosts = params.n_hosts();
    // Flows four times the default size (~18 host frames each), so the
    // per-flow allocations sit well inside the per-frame budget.
    let traffic = TrafficConfig {
        flows_per_host: 400,
        mean_gap_ns: 200_000,
        size_scale_div: 2,
        ..Default::default()
    };
    let (mut sim, tree, _, last_start) = closed_loop_fat_tree(config.ecmp(true), params, &traffic);
    // Loss on every fabric link direction; host links stay clean.
    for from in tree.fabric_ports() {
        sim.set_link_loss(from, LOSS_PERMILLE);
    }

    sim.run(RunLimit::Until(last_start / 2));
    let (allocs0, frames0) = (allocations(), host_frames(&sim, n_hosts));
    let (reused0, fresh0, _) = sim.frame_pool_stats();
    sim.run(RunLimit::Until(last_start));
    let allocs = allocations() - allocs0;
    let frames = host_frames(&sim, n_hosts) - frames0;

    let (mut completed, mut retransmits) = (0, 0);
    for h in 0..n_hosts {
        let stats = sim.host_app::<ClosedFlowGenApp>(HostId(h)).stats_snapshot();
        completed += stats.flows_completed;
        retransmits += stats.retransmits;
    }
    assert!(
        completed > 4_000,
        "the workload ran: {completed} flows done"
    );
    assert!(retransmits > 0, "seeded loss must force retransmits");
    assert!(frames > 40_000, "second half carried {frames} host frames");

    let per_frame = allocs as f64 / frames as f64;
    // Measured 0.0015 / 0.0024 / 0.0291 / 0.0289 on the four shard rows;
    // on several shards nearly all of it is the fresh frame buffers
    // below. A receiver kept per flow ever seen read 0.018 to 0.046,
    // and a fresh counter buffer per flow 0.059 to 0.087.
    assert!(
        per_frame <= 0.04,
        "{allocs} allocations for {frames} host-sent frames in the second half \
         = {per_frame:.3} per frame (budget 0.04)"
    );
    let (reused, fresh, _) = sim.frame_pool_stats();
    let (reused, fresh) = (reused - reused0, fresh - fresh0);
    let reuse = reused as f64 / (reused + fresh) as f64;
    // Pools are per shard and a delivered buffer is recycled where it
    // lands, so on several shards the net data flow between them shows
    // up as fresh buffers on the sending side (2 % at 4 shards here).
    // Those are allocations like any other and sit inside the budget
    // above; the reuse floor is a property of the single pool.
    assert!(
        reuse >= 0.99 || sim.num_shards() > 1,
        "frame pool served {reused} of {} requests from recycled buffers ({reuse:.4})",
        reused + fresh
    );
    eprintln!(
        "host_path_allocs: {allocs} allocs / {frames} host frames = {per_frame:.4}; \
         pool reuse {reuse:.4}"
    );
}

/// One dashboard refresh, as `tpp_top` and the repo benchmark's
/// `probe_storm_obs` run it: the frame and the Prometheus text.
fn refresh(sim: &mut Simulator, state: &DashState) -> (String, String) {
    let collector = Collector::new();
    let snap = FleetSnapshot::capture(sim, &collector, state.window_ns());
    let frame = render_dashboard(&snap, state, 120, 40);
    (frame, prometheus_snapshot(sim.metrics()))
}

fn check_refresh_allocations(config: SimConfig) {
    let params = LeafSpineParams::default(); // 4 leaves x 2 spines, 16 hosts
    let n_hosts = params.n_leaves * params.hosts_per_leaf;
    // Even hosts probe the odd host one leaf over, which echoes.
    let apps = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            if i % 2 == 1 {
                return Box::new(EchoReceiver::default());
            }
            let target = EthernetAddress::from_host_id(((i + 5) % n_hosts) as u32);
            Box::new(MicroburstMonitor::new(
                target,
                6,
                10_000,
                0,
                time::millis(20),
            ))
        })
        .collect();
    let (mut sim, fabric) = leaf_spine_with(config, params, apps);
    for &s in fabric.leaves.iter().chain(&fabric.spines) {
        sim.switch_mut(s).enable_profiling(ProfileConfig::default());
    }
    sim.observe().series(512);
    let state = DashState::default();

    sim.run(RunLimit::Until(time::millis(2)));
    refresh(&mut sim, &state); // warm-up: the registry learns its keys
    for ms in 3..=10 {
        sim.run(RunLimit::Until(time::millis(ms)));
        let allocs0 = allocations();
        let (frame, prom) = refresh(&mut sim, &state);
        let allocs = allocations() - allocs0;
        assert!(
            allocs <= REFRESH_BUDGET,
            "refresh at {ms} ms made {allocs} allocations (budget {REFRESH_BUDGET})"
        );

        // The reused registry exports what one built from nothing does.
        let mut fresh = MetricsRegistry::new();
        for i in 0..sim.num_switches() {
            sim.switch(SwitchId(i)).export_metrics(&mut fresh);
        }
        fresh.set(
            "link.frames_lost",
            sim.metrics().counter("link.frames_lost"),
        );
        assert_eq!(prom, prometheus_snapshot(&fresh), "at {ms} ms");
        let snap = FleetSnapshot::capture(&sim, &Collector::new(), state.window_ns());
        assert_eq!(
            frame,
            render_dashboard(&snap, &state, 120, 40),
            "at {ms} ms"
        );
        assert!(prom.contains("tpp_profile_tcpu_opcode_"), "profiled");
        if ms == 10 {
            eprintln!("refresh allocations: {allocs} (budget {REFRESH_BUDGET})");
        }
    }
}

//! The steady-state host frame path stays off the allocator.
//!
//! A k=4 fat-tree runs the closed-loop transport under 5 ‰ seeded loss,
//! so every host-side frame path is exercised: DATA and ACK segments,
//! retransmissions, rate probes, in-place echoes and their decode. This
//! binary installs its own counting `#[global_allocator]` and checks the
//! second half of the run — after set-up and pool warm-up — against a
//! budget per frame a host put on the wire. What is left is per *flow*,
//! not per frame: the sender's `tx_count`, `BTreeMap` nodes for the
//! active/receiver maps, and growth of the completion log.
//!
//! `SimConfig::default()` honours `TPP_SHARDS`, so the determinism lane
//! replays this on the threaded scheduler, whose per-window bookkeeping
//! and cross-shard buffer migration have to fit in the same budget.

mod common;

use tpp::apps::rcpstar::init_rate_registers;
use tpp::netsim::{
    fat_tree_with, Endpoint, FatTreeParams, HostApp, HostId, RunLimit, SimConfig, Simulator,
    SwitchId,
};
use tpp::wire::EthernetAddress;
use tpp_bench::traffic::{
    generate_schedule, ClosedFlowGenApp, ClosedLoopConfig, FlowSizeDist, TrafficConfig,
};

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

// One test per binary: see `common`.
#[test]
fn steady_state_host_frames_do_not_allocate() {
    let params = FatTreeParams::default(); // k=4: 16 hosts, 20 switches
    let half = params.k / 2;
    let hpe = params.effective_hosts_per_edge();
    let n_hosts = params.n_hosts();
    let macs: Vec<EthernetAddress> = (0..n_hosts)
        .map(|i| EthernetAddress::from_host_id(i as u32))
        .collect();
    // Flows four times the default size (~18 host frames each), so the
    // ~1.2 per-flow allocations sit well inside the per-frame budget.
    let traffic = TrafficConfig {
        flows_per_host: 400,
        mean_gap_ns: 200_000,
        size_scale_div: 2,
        ..Default::default()
    };
    let mut last_start = 0u64;
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| {
            let dist = if i % 2 == 0 {
                FlowSizeDist::WebSearch
            } else {
                FlowSizeDist::DataMining
            };
            let sched = generate_schedule(&traffic, i as u32, &macs, dist);
            last_start = last_start.max(sched.last().expect("non-empty schedule").start_ns);
            Box::new(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default())) as _
        })
        .collect();
    let (mut sim, tree) = fat_tree_with(SimConfig::default().ecmp(true), params, apps);
    for i in 0..sim.num_switches() {
        init_rate_registers(sim.switch_mut(SwitchId(i)));
    }
    // Loss on every fabric link direction; host links stay clean.
    for &edge in tree.edges.iter().flatten() {
        for a in 0..half {
            sim.set_link_loss(Endpoint::switch(edge, (hpe + a) as u16), LOSS_PERMILLE);
        }
    }
    for &sw in tree.aggs.iter().flatten().chain(tree.cores.iter()) {
        for p in 0..2 * half {
            sim.set_link_loss(Endpoint::switch(sw, p as u16), LOSS_PERMILLE);
        }
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
    assert!(
        per_frame <= 0.1,
        "{allocs} allocations for {frames} host-sent frames in the second half \
         = {per_frame:.3} per frame (budget 0.1)"
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

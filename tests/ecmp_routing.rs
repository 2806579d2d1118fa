//! ECMP routing suite: the seeded equal-cost multi-path layer under the
//! closed-loop fat-tree workload.
//!
//! The paper's §4 deployment environment is a datacenter fabric where
//! "TPPs are forwarded just like other packets" — so the path a probe
//! takes must be the path its flow takes, and both must be pure
//! functions of (seed, flow key) so the sharded simulator replays
//! bit-identically at any shard count. These tests pin that down:
//!
//! 1. The flow hash spreads 10k flow labels across a k=8 edge switch's
//!    four uplinks within 2x of uniform, and is a pure function of its
//!    inputs (same label — same port, every time).
//! 2. A closed-loop k=4 run under seeded loss produces bit-identical
//!    completions *and* per-uplink frame counts on every row of the
//!    shard matrix (proptest over seeds and loss rates).
//! 3. A single flow rides exactly one uplink until that uplink goes
//!    down, then re-hashes onto the surviving one and keeps delivering.
//! 4. Every switch's L2 port toward a host is a member of that pair's
//!    ECMP group (both come from one BFS per host).
//!
//! 1, 3 and 4 hold on every row of the shard matrix too.

use proptest::prelude::*;
use tpp::netsim::routing::{FLOW_LABEL_MAGIC, FLOW_LABEL_OFFSET};
use tpp::netsim::{
    fat_tree_with, flow_label, for_each_shard_row, leaf_spine_with, shard_matrix, time, EcmpTable,
    Endpoint, FatTreeParams, FaultPlan, HostApp, HostCtx, HostId, LeafSpineParams, RunLimit,
    SimConfig, Simulator, SwitchId,
};
use tpp::wire::ethernet::{build_frame, EtherType};
use tpp::wire::EthernetAddress;
use tpp_bench::traffic::{
    closed_loop_fat_tree, completions_fingerprint, splitmix64, ClosedFlowGenApp, TrafficConfig,
};

/// A host that does nothing (a leaf the traffic never targets).
struct Idle;
impl HostApp for Idle {}

/// Counts delivered frames and returns the buffers to the pool.
#[derive(Default)]
struct Sink {
    got: u64,
}
impl HostApp for Sink {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.got += 1;
        ctx.recycle_frame(frame);
    }
}

/// Streams one labelled frame per `period_ns` at a fixed destination
/// until `until_ns` — a single ECMP flow with a visible wire footprint.
struct Streamer {
    dst: EthernetAddress,
    key: u64,
    period_ns: u64,
    until_ns: u64,
    sent: u64,
}

impl HostApp for Streamer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(1, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.until_ns {
            return;
        }
        let mut payload = [0u8; FLOW_LABEL_OFFSET + 8];
        payload[0..2].copy_from_slice(&FLOW_LABEL_MAGIC);
        payload[FLOW_LABEL_OFFSET..].copy_from_slice(&self.key.to_be_bytes());
        ctx.send(build_frame(
            self.dst,
            ctx.mac(),
            EtherType(0x0802),
            &payload,
        ));
        self.sent += 1;
        ctx.set_timer(self.period_ns, 0);
    }
}

/// Satellite 1a: the k=8 edge uplink group spreads 10k distinct flow
/// labels within 2x of uniform, and each label's pick is stable.
#[test]
fn k8_uplink_spread_is_within_2x_of_uniform() {
    for_each_shard_row(check_k8_uplink_spread);
}

fn check_k8_uplink_spread(config: SimConfig) {
    let k = 8;
    let params = FatTreeParams {
        k,
        ..Default::default()
    };
    let n_hosts = params.n_hosts();
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts).map(|_| Box::new(Idle) as _).collect();
    let (sim, tree) = fat_tree_with(config.ecmp(true), params, apps);
    let table = sim.ecmp_table().expect("ecmp(true) builds the table");

    // Edge (pod 0, e 0) toward a host in pod 1: all k/2 uplinks tie.
    let edge = tree.edges[0][0];
    let edge_dataplane_id = 0x100; // pod 0, e 0 (topology id scheme)
    let dst_host = tree.hosts[1][0][0].0 as u32;
    let group = table.group(edge.0, dst_host);
    assert_eq!(group.len(), k / 2, "inter-pod group is the uplink set");

    let src = EthernetAddress::from_host_id(0);
    let dst = EthernetAddress::from_host_id(dst_host);
    let n_flows = 10_000u64;
    let mut counts = std::collections::BTreeMap::new();
    for label in 0..n_flows {
        let hash = table.flow_hash(edge_dataplane_id, src, dst, Some(label));
        let port = EcmpTable::pick(group, hash);
        // Purity: the same (seed, flow) inputs always pick the same port.
        assert_eq!(
            port,
            EcmpTable::pick(
                group,
                table.flow_hash(edge_dataplane_id, src, dst, Some(label))
            )
        );
        *counts.entry(port).or_insert(0u64) += 1;
    }

    assert_eq!(counts.len(), group.len(), "every uplink carries flows");
    let uniform = n_flows / group.len() as u64;
    for (port, n) in &counts {
        assert!(
            *n <= 2 * uniform && *n >= uniform / 2,
            "uplink {port} carries {n} of {n_flows} flows; uniform is {uniform}"
        );
    }
}

/// Satellite 1b: `flow_label` reads the wire format the transport and
/// the FCT generator both stamp — magic, then the key at offset 16.
#[test]
fn flow_label_parses_labelled_frames_only() {
    let src = EthernetAddress::from_host_id(0);
    let dst = EthernetAddress::from_host_id(1);

    let mut payload = [0u8; FLOW_LABEL_OFFSET + 8];
    payload[0..2].copy_from_slice(&FLOW_LABEL_MAGIC);
    payload[FLOW_LABEL_OFFSET..].copy_from_slice(&0xdead_beef_u64.to_be_bytes());
    let labelled = build_frame(dst, src, EtherType(0x0802), &payload);
    assert_eq!(flow_label(&labelled), Some(0xdead_beef));

    let unlabelled = build_frame(dst, src, EtherType(0x0802), &[0u8; 24]);
    assert_eq!(flow_label(&unlabelled), None, "no magic, no label");

    let short = build_frame(dst, src, EtherType(0x0802), &payload[..8]);
    assert_eq!(flow_label(&short), None, "too short to carry a label");
}

/// The L2 tables and the ECMP groups come from one BFS per host: the
/// port a switch was first reached on (its L2 entry) is one of the
/// ports whose peer is strictly closer (its group).
fn assert_l2_port_in_ecmp_group(mut sim: Simulator) {
    let n_hosts = sim.num_hosts() as u32;
    let l2: Vec<Vec<Option<u16>>> = (0..sim.num_switches())
        .map(|s| {
            let table = sim.switch_mut(SwitchId(s)).l2_mut();
            (0..n_hosts)
                .map(|h| table.lookup(EthernetAddress::from_host_id(h)))
                .collect()
        })
        .collect();
    let table = sim.ecmp_table().expect("ecmp(true) builds the table");
    for (s, ports) in l2.iter().enumerate() {
        for (h, port) in ports.iter().enumerate() {
            let group = table.group(s, h as u32);
            let port = port.unwrap_or_else(|| panic!("switch {s} has no L2 entry for host {h}"));
            assert!(
                group.contains(&port),
                "switch {s} -> host {h}: L2 port {port} not in ECMP group {group:?}"
            );
        }
    }
}

#[test]
fn l2_port_is_a_member_of_the_ecmp_group() {
    for_each_shard_row(check_l2_port_in_group);
}

fn check_l2_port_in_group(config: SimConfig) {
    let config = config.ecmp(true);
    let params = FatTreeParams::default(); // k=4
    let apps = (0..params.n_hosts()).map(|_| Box::new(Idle) as _).collect();
    assert_l2_port_in_ecmp_group(fat_tree_with(config.clone(), params, apps).0);

    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 2,
        ..LeafSpineParams::default()
    };
    let apps = (0..params.n_leaves * params.hosts_per_leaf)
        .map(|_| Box::new(Idle) as _)
        .collect();
    assert_l2_port_in_ecmp_group(leaf_spine_with(config, params, apps).0);
}

/// One closed-loop k=4 run on `config`; returns a fingerprint over
/// per-flow completions, transport counters, and every edge uplink's
/// frame count.
fn closed_loop_fingerprint(seed: u64, loss_permille: u16, config: SimConfig) -> (u64, u64, u64) {
    let params = FatTreeParams::default(); // k=4: 16 hosts, 20 switches
    let half = params.k / 2;
    let hpe = params.effective_hosts_per_edge();
    let n_hosts = params.n_hosts();
    let traffic = TrafficConfig {
        seed,
        flows_per_host: 15,
        mean_gap_ns: 200_000,
        ..Default::default()
    };
    let config = config.ecmp(true).tick_interval_ns(time::millis(1));
    let (mut sim, tree, _, last_start) = closed_loop_fat_tree(config, params, &traffic);
    for from in tree.fabric_ports() {
        sim.set_link_loss(from, loss_permille);
    }

    sim.run(RunLimit::Until(last_start + time::millis(40)));

    let mut fp = 0u64;
    let mut completed = 0u64;
    let mut retransmits = 0u64;
    for i in 0..n_hosts {
        let app = sim.host_app::<ClosedFlowGenApp>(HostId(i));
        fp = fp.wrapping_add(completions_fingerprint(app.completions.iter().copied()));
        let stats = app.stats_snapshot();
        completed += stats.flows_completed;
        retransmits += stats.retransmits;
        fp ^= splitmix64(
            (i as u64)
                .wrapping_add(stats.retransmits.rotate_left(13))
                .wrapping_add(stats.flows_given_up.rotate_left(29))
                .wrapping_add(app.unfinished() as u64),
        );
    }
    // Per-flow paths, fingerprinted as every edge uplink's frame count.
    for edge in tree.edges.iter().flatten() {
        for a in 0..half {
            let tx = sim.link_tx_frames(Endpoint::switch(*edge, (hpe + a) as u16));
            fp = splitmix64(fp ^ (edge.0 as u64).rotate_left(40) ^ ((a as u64) << 20) ^ tx);
        }
    }
    (fp, completed, retransmits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Satellite 2: completions and per-uplink frame counts are
    /// bit-identical on every row of the shard matrix, for any traffic
    /// seed and loss rate.
    #[test]
    fn ecmp_closed_loop_is_shard_count_invariant(
        seed in any::<u64>(),
        loss in 5u16..26,
    ) {
        let [(_, reference), rows @ ..] = shard_matrix();
        let baseline = closed_loop_fingerprint(seed, loss, reference);
        prop_assert!(baseline.1 > 0, "some flows must complete");
        prop_assert!(baseline.2 > 0, "seeded loss must force retransmits");
        for (row, config) in rows {
            let run = closed_loop_fingerprint(seed, loss, config);
            prop_assert_eq!(run, baseline, "{} diverged", row);
        }
    }
}

/// Satellite 3: one flow, one path — until its uplink goes down, when
/// the pick re-hashes onto the surviving uplink and delivery continues.
#[test]
fn flow_path_is_stable_until_link_down_rehash() {
    for_each_shard_row(check_flow_path_rehash);
}

fn check_flow_path_rehash(config: SimConfig) {
    let params = FatTreeParams::default(); // k=4
    let hpe = params.effective_hosts_per_edge();
    let n_hosts = params.n_hosts();
    let dst_id = (params.k / 2) * hpe; // first host of pod 1
    let period = time::micros(100);
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            if i == 0 {
                Box::new(Streamer {
                    dst: EthernetAddress::from_host_id(dst_id as u32),
                    key: 0x0e0c_4001,
                    period_ns: period,
                    until_ns: time::millis(38),
                    sent: 0,
                })
            } else if i == dst_id {
                Box::new(Sink::default())
            } else {
                Box::new(Idle)
            }
        })
        .collect();
    let (mut sim, tree) = fat_tree_with(config.ecmp(true), params, apps);
    assert_eq!(tree.hosts[1][0][0], HostId(dst_id), "pod-1 host id layout");

    let edge = tree.edges[0][0];
    let uplinks = [hpe as u16, hpe as u16 + 1];
    sim.run(RunLimit::Until(time::millis(20)));

    let phase1: Vec<u64> = uplinks
        .iter()
        .map(|p| sim.link_tx_frames(Endpoint::switch(edge, *p)))
        .collect();
    let taken = usize::from(phase1[0] == 0);
    let spare = 1 - taken;
    assert!(
        phase1[taken] >= 150 && phase1[spare] == 0,
        "a single flow must ride a single uplink, got {phase1:?}"
    );
    let got1 = sim.host_app::<Sink>(HostId(dst_id)).got;
    assert!(got1 >= 150, "flow must be delivering before the fault");

    let mut plan = FaultPlan::new(0x0e0c_4003);
    plan.link_flap(
        time::millis(20) + time::micros(1),
        time::millis(50), // beyond the run: stays down for all of phase 2
        Endpoint::switch(edge, uplinks[taken]),
    );
    sim.install_faults(&plan);
    sim.run(RunLimit::Until(time::millis(38)));

    let phase2: Vec<u64> = uplinks
        .iter()
        .map(|p| sim.link_tx_frames(Endpoint::switch(edge, *p)))
        .collect();
    assert!(
        phase2[taken] <= phase1[taken] + 5,
        "downed uplink must stop carrying the flow: {phase1:?} -> {phase2:?}"
    );
    assert!(
        phase2[spare] >= 100,
        "flow must re-hash onto the surviving uplink, got {phase2:?}"
    );
    let got2 = sim.host_app::<Sink>(HostId(dst_id)).got;
    assert!(
        got2 >= got1 + 100,
        "delivery must continue after the re-hash ({got1} -> {got2})"
    );
}

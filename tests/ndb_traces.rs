//! E7 / §2.3 — the forwarding-plane debugger end to end: healthy pass,
//! stale-rule detection, misroute detection, black-hole detection.

use tpp::apps::ndb::{missing_ids, NdbProbeSender, PathPolicy, TraceCollector};
use tpp::apps::Violation;
use tpp::asic::{FlowAction, FlowMatch};
use tpp::control::NetworkController;
use tpp::netsim::RunLimit;
use tpp::netsim::{
    leaf_spine_with, linear_chain_with, time, HostApp, LeafSpineParams, LinearChainParams,
    SimConfig,
};
use tpp::wire::EthernetAddress;

fn chain_with_rules(
    controller: &mut NetworkController,
) -> (tpp::netsim::Simulator, tpp::netsim::LinearChain, u32) {
    let dst = EthernetAddress::from_host_id(1);
    let (mut sim, chain) = linear_chain_with(
        SimConfig::new(),
        LinearChainParams {
            n_switches: 3,
            ..Default::default()
        },
        Box::new(NdbProbeSender::new(dst, 3, time::micros(50), 10)),
        Box::new(TraceCollector::default()),
    );
    let entry = controller.new_entry_id();
    for sw in &chain.switches {
        controller.install_rule(
            sim.switch_mut(*sw),
            entry,
            10,
            FlowMatch {
                dst_mac: Some(dst),
                ..Default::default()
            },
            FlowAction::Forward(1),
        );
    }
    (sim, chain, entry)
}

#[test]
fn healthy_network_traces_conform() {
    let mut controller = NetworkController::new();
    let (mut sim, chain, entry) = chain_with_rules(&mut controller);
    sim.run(RunLimit::Until(time::millis(10)));

    let policy = PathPolicy {
        expected_path: vec![1, 2, 3],
        expected_versions: controller.intended_versions_all(),
    };
    let traces = &sim.host_app::<TraceCollector>(chain.right).traces;
    assert_eq!(traces.len(), 10);
    for trace in traces {
        assert_eq!(policy.verify(trace), vec![]);
        assert_eq!(trace.path(), vec![1, 2, 3]);
        // Every hop matched the controller's entry at version 1, and
        // input ports are consistent with the chain (host side then
        // left-neighbour side).
        for (i, hop) in trace.hops.iter().enumerate() {
            assert_eq!(hop.entry_id, entry);
            assert_eq!(hop.entry_version, 1);
            assert_eq!(hop.input_port, 0, "hop {i} came in on the left port");
        }
    }
    assert!(missing_ids(&sim.host_app::<NdbProbeSender>(chain.left).sent_ids, traces).is_empty());
}

#[test]
fn stale_rule_version_mismatch_detected_and_localized() {
    let mut controller = NetworkController::new();
    let (mut sim, chain, entry) = chain_with_rules(&mut controller);
    // Controller re-stamps the middle switch's rule; dataplane misses it.
    let mid_id = sim.switch(chain.switches[1]).switch_id();
    controller.intend_version_only(mid_id, entry);
    sim.run(RunLimit::Until(time::millis(10)));

    let policy = PathPolicy {
        expected_path: vec![1, 2, 3],
        expected_versions: controller.intended_versions_all(),
    };
    let traces = &sim.host_app::<TraceCollector>(chain.right).traces;
    assert!(!traces.is_empty());
    for trace in traces {
        let violations = policy.verify(trace);
        assert_eq!(
            violations,
            vec![Violation::StaleEntry {
                switch_id: 2,
                entry_id: entry,
                seen_version: 1,
                expected_version: 2,
            }],
            "exactly the middle switch flagged"
        );
    }
}

#[test]
fn misroute_shows_up_as_wrong_path() {
    let mut controller = NetworkController::new();
    let dst = EthernetAddress::from_host_id(1);
    let apps: Vec<Box<dyn HostApp>> = vec![
        Box::new(NdbProbeSender::new(dst, 3, time::micros(50), 10)),
        Box::new(TraceCollector::default()),
    ];
    let (mut sim, fabric) = leaf_spine_with(
        SimConfig::new(),
        LeafSpineParams {
            n_leaves: 2,
            n_spines: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        },
        apps,
    );
    let bad = controller.new_entry_id();
    controller.install_rule(
        sim.switch_mut(fabric.leaves[0]),
        bad,
        20,
        FlowMatch {
            dst_mac: Some(dst),
            ..Default::default()
        },
        FlowAction::Forward(2), // spine 0x21 instead of 0x20
    );
    sim.run(RunLimit::Until(time::millis(10)));

    let policy = PathPolicy {
        expected_path: vec![0x10, 0x20, 0x11],
        ..Default::default()
    };
    let traces = &sim.host_app::<TraceCollector>(fabric.hosts[1][0]).traces;
    assert_eq!(traces.len(), 10, "misrouted packets still arrive");
    for trace in traces {
        let violations = policy.verify(trace);
        assert_eq!(
            violations,
            vec![Violation::WrongPath {
                expected: vec![0x10, 0x20, 0x11],
                actual: vec![0x10, 0x21, 0x11],
            }]
        );
        // The trace also shows *which rule* did it.
        assert_eq!(trace.hops[0].entry_id, bad);
    }
}

#[test]
fn black_hole_named_by_missing_ids() {
    let mut controller = NetworkController::new();
    let (mut sim, chain, _) = chain_with_rules(&mut controller);
    let dst = EthernetAddress::from_host_id(1);
    let bad = controller.new_entry_id();
    controller.install_rule(
        sim.switch_mut(chain.switches[1]),
        bad,
        20,
        FlowMatch {
            dst_mac: Some(dst),
            ..Default::default()
        },
        FlowAction::Drop,
    );
    sim.run(RunLimit::Until(time::millis(10)));

    let sent = &sim.host_app::<NdbProbeSender>(chain.left).sent_ids;
    let traces = &sim.host_app::<TraceCollector>(chain.right).traces;
    assert!(traces.is_empty(), "everything was eaten");
    assert_eq!(missing_ids(sent, traces).len(), 10);
}

//! E9 / §4 + §3.2 — the deployment story, end to end:
//!
//! * RCP\* and ndb run *concurrently* on the same network with
//!   control-plane-allocated, non-overlapping SRAM (§3.2 "Multiple
//!   tasks");
//! * an untrusted tenant's TPPs are stripped/dropped at the network edge
//!   while trusted infrastructure TPPs keep working (§4).

use tpp::apps::ndb::{NdbProbeSender, PathPolicy, TraceCollector};
use tpp::apps::rcpstar::{
    init_rate_registers, RcpStarConfig, RcpStarSender, RCP_RATE_REGISTER, RCP_TS_REGISTER,
};
use tpp::apps::MicroburstMonitor;
use tpp::control::{NetworkController, PortTrust, Region, SramAllocator};
use tpp::host::EchoReceiver;
use tpp::netsim::RunLimit;
use tpp::netsim::{dumbbell_with, time, DumbbellParams, HostApp, SimConfig};
use tpp::wire::EthernetAddress;

#[test]
fn sram_allocator_reserves_the_rcp_registers() {
    // The agent allocates RCP's two per-link words first; they land at
    // exactly the addresses the RCP* implementation compiled against.
    let mut alloc = SramAllocator::for_default_asic();
    let rate = alloc.alloc("rcp", Region::PerLink, 1).unwrap();
    let ts = alloc.alloc("rcp", Region::PerLink, 1).unwrap();
    assert_eq!(rate.addr(0), RCP_RATE_REGISTER);
    assert_eq!(ts.addr(0), RCP_TS_REGISTER);
    // ndb (or any other task) gets disjoint words.
    let other = alloc.alloc("ndb", Region::PerLink, 4).unwrap();
    assert!(other.addr(0).0 >= RCP_TS_REGISTER.0 + 4);
}

#[test]
fn rcp_and_ndb_coexist_on_one_network() {
    // Pair 0: an RCP* flow. Pair 1: ndb-traced traffic. Pair 2: a
    // micro-burst monitor. All three tasks share switches and SRAM.
    let controller = NetworkController::new();
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (
            Box::new(RcpStarSender::new(
                EthernetAddress::from_host_id(1),
                RcpStarConfig::default(),
            )),
            Box::new(EchoReceiver::default()),
        ),
        (
            Box::new(NdbProbeSender::new(
                EthernetAddress::from_host_id(3),
                2,
                time::millis(1),
                50,
            )),
            Box::new(TraceCollector::default()),
        ),
        (
            Box::new(MicroburstMonitor::new(
                EthernetAddress::from_host_id(5),
                2,
                time::millis(1),
                0,
                time::secs(3),
            )),
            Box::new(EchoReceiver::default()),
        ),
    ];
    let (mut sim, bell) = dumbbell_with(SimConfig::new(), DumbbellParams::default(), apps);
    for sw in [bell.left, bell.right] {
        init_rate_registers(sim.switch_mut(sw));
    }
    sim.run(RunLimit::Until(time::secs(3)));

    // RCP* converged (sole data flow -> near capacity).
    let rcp = sim.host_app::<RcpStarSender>(bell.senders[0]);
    assert!(rcp.feedback_count > 100);
    let late: Vec<u64> = rcp
        .rate_trace
        .iter()
        .filter(|(t, _)| *t > time::secs(2))
        .map(|(_, r)| *r)
        .collect();
    let mean = late.iter().sum::<u64>() as f64 / late.len() as f64;
    assert!(
        mean > 0.8 * 10e6,
        "RCP* disturbed by coexisting tasks: {mean}"
    );

    // ndb collected clean traces.
    let traces = &sim.host_app::<TraceCollector>(bell.receivers[1]).traces;
    assert_eq!(traces.len(), 50);
    let policy = PathPolicy {
        expected_path: vec![1, 2],
        expected_versions: controller.intended_versions_all(),
    };
    assert!(traces.iter().all(|t| policy.verify(t).is_empty()));

    // The monitor observed the queue RCP* kept small.
    let monitor = sim.host_app::<MicroburstMonitor>(bell.senders[2]);
    assert!(monitor.echoes_received > 1000);
}

#[test]
fn untrusted_edge_ports_stop_tpps_but_not_data() {
    // Pair 0 is an untrusted tenant running the same monitor app; pair 1
    // is trusted infrastructure. Only the trusted monitor gets telemetry.
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (
            Box::new(MicroburstMonitor::new(
                EthernetAddress::from_host_id(1),
                2,
                time::millis(1),
                0,
                time::millis(500),
            )),
            Box::new(EchoReceiver::default()),
        ),
        (
            Box::new(MicroburstMonitor::new(
                EthernetAddress::from_host_id(3),
                2,
                time::millis(1),
                0,
                time::millis(500),
            )),
            Box::new(EchoReceiver::default()),
        ),
    ];
    let (mut sim, bell) = dumbbell_with(SimConfig::new(), DumbbellParams::default(), apps);
    let mut controller = NetworkController::new();
    // Tenant 0 attaches at the left switch port 0: untrusted.
    controller.set_port_trust(sim.switch_mut(bell.left), 0, PortTrust::UntrustedDrop);
    sim.run(RunLimit::Until(time::millis(600)));

    let tenant = sim.host_app::<MicroburstMonitor>(bell.senders[0]);
    let infra = sim.host_app::<MicroburstMonitor>(bell.senders[1]);
    assert!(tenant.probes_sent > 100);
    assert_eq!(
        tenant.echoes_received, 0,
        "tenant TPPs must die at the edge"
    );
    assert!(
        infra.echoes_received > 100,
        "trusted TPPs unaffected: {}",
        infra.echoes_received
    );

    // The tenant's *data* still flows: send one plain frame and see it
    // arrive (edge policy filters TPPs, not traffic).
    let drops = sim.switch(bell.left).port_stats(0).bytes_dropped;
    assert_eq!(drops, 0, "no data-plane drops, only edge filtering");
}

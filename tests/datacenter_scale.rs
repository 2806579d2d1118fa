//! Scale / co-deployment test: a larger leaf-spine fabric running every
//! task at once — RCP\* flows across racks, a micro-burst monitor, ndb
//! tracers and CSTORE counters sharing switches and SRAM — and the whole
//! thing is deterministic.

use tpp::apps::ndb::{NdbProbeSender, TraceCollector};
use tpp::apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp::apps::{CounterTask, CounterWriteMode, MicroburstMonitor};
use tpp::host::EchoReceiver;
use tpp::netsim::RunLimit;
use tpp::netsim::{leaf_spine_with, time, HostApp, LeafSpineParams, SimConfig, Simulator};
use tpp::wire::EthernetAddress;

const N_LEAVES: usize = 8;
const N_SPINES: usize = 4;
const HOSTS_PER_LEAF: usize = 4;

struct Snapshot {
    rcp_rates: Vec<u64>,
    ndb_traces: usize,
    monitor_samples: usize,
    counter_value: u32,
    total_packets: u64,
}

fn build_and_run() -> (Simulator, tpp::netsim::LeafSpine, Snapshot) {
    let params = LeafSpineParams {
        n_leaves: N_LEAVES,
        n_spines: N_SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
        host_link_kbps: 100_000,   // 100 Mb/s keeps event counts sane
        fabric_link_kbps: 400_000, // 4:1 oversubscription at the leaf
        ..Default::default()
    };
    // Host ids are leaf-major: host (l, i) has id l*HOSTS_PER_LEAF + i.
    let id = |l: usize, i: usize| (l * HOSTS_PER_LEAF + i) as u32;
    let mut apps: Vec<Box<dyn HostApp>> = Vec::new();
    for l in 0..N_LEAVES {
        for i in 0..HOSTS_PER_LEAF {
            let app: Box<dyn HostApp> = match (l, i) {
                // Four RCP* senders in rack 0/1, paired with echo
                // receivers in racks 4/5 (cross-fabric traffic).
                (0 | 1, 0 | 1) => {
                    let target = id(l + 4, i);
                    Box::new(RcpStarSender::new(
                        EthernetAddress::from_host_id(target),
                        RcpStarConfig::default(),
                    ))
                }
                (4 | 5, 0 | 1) => Box::new(EchoReceiver::default()),
                // An ndb tracer rack 2 -> rack 6.
                (2, 0) => Box::new(NdbProbeSender::new(
                    EthernetAddress::from_host_id(id(6, 0)),
                    3,
                    time::millis(1),
                    200,
                )),
                (6, 0) => Box::new(TraceCollector::default()),
                // A micro-burst monitor watching the path into rack 7.
                (3, 0) => Box::new(MicroburstMonitor::new(
                    EthernetAddress::from_host_id(id(7, 0)),
                    3,
                    time::micros(500),
                    0,
                    time::secs(2),
                )),
                (7, 0) => Box::new(EchoReceiver::default()),
                // Two CSTORE counters racing on spine 0x20's SRAM.
                (2, 1) | (3, 1) => Box::new(CounterTask::new(
                    EthernetAddress::from_host_id(id(l + 4, 1)),
                    0x20,
                    0,
                    15,
                    CounterWriteMode::Linearizable,
                )),
                (6 | 7, 1) => Box::new(EchoReceiver::default()),
                _ => Box::new(EchoReceiver::default()),
            };
            apps.push(app);
        }
    }
    let (mut sim, fabric) = leaf_spine_with(SimConfig::new(), params, apps);
    for sw in fabric.leaves.iter().chain(&fabric.spines) {
        init_rate_registers(sim.switch_mut(*sw));
    }
    sim.run(RunLimit::Until(time::secs(2)));

    let rcp_rates = [(0, 0), (0, 1), (1, 0), (1, 1)]
        .iter()
        .map(|(l, i)| {
            sim.host_app::<RcpStarSender>(fabric.hosts[*l][*i])
                .rate_bps()
        })
        .collect();
    let snapshot = Snapshot {
        rcp_rates,
        ndb_traces: sim
            .host_app::<TraceCollector>(fabric.hosts[6][0])
            .traces
            .len(),
        monitor_samples: sim
            .host_app::<MicroburstMonitor>(fabric.hosts[3][0])
            .samples
            .len(),
        counter_value: sim.switch(fabric.spines[0]).global_sram().word(0).unwrap(),
        total_packets: fabric
            .leaves
            .iter()
            .map(|l| sim.switch(*l).regs().packets_processed)
            .sum(),
    };
    (sim, fabric, snapshot)
}

#[test]
fn all_tasks_coexist_at_scale() {
    let (sim, fabric, snap) = build_and_run();

    // Every RCP* flow got a real allocation (well above its 500 kb/s
    // starting rate; their paths share fabric links with each other).
    for rate in &snap.rcp_rates {
        assert!(
            *rate > 5_000_000,
            "an RCP* flow is starved at {rate} bps: {:?}",
            snap.rcp_rates
        );
    }
    // ndb saw all 200 traced packets take 3-switch cross-fabric paths.
    assert_eq!(snap.ndb_traces, 200);
    let traces = &sim.host_app::<TraceCollector>(fabric.hosts[6][0]).traces;
    assert!(traces.iter().all(|t| t.hops.len() == 3 && !t.has_loop()));

    // The monitor sampled ~4000 probes x 3 hops.
    assert!(snap.monitor_samples > 10_000, "{}", snap.monitor_samples);

    // The racing counters are exact: 2 hosts x 15 increments.
    assert_eq!(snap.counter_value, 30);

    // The fabric moved real traffic.
    assert!(snap.total_packets > 50_000, "{}", snap.total_packets);
}

#[test]
fn the_whole_datacenter_is_deterministic() {
    let (_, _, a) = build_and_run();
    let (_, _, b) = build_and_run();
    assert_eq!(a.rcp_rates, b.rcp_rates);
    assert_eq!(a.ndb_traces, b.ndb_traces);
    assert_eq!(a.monitor_samples, b.monitor_samples);
    assert_eq!(a.counter_value, b.counter_value);
    assert_eq!(a.total_packets, b.total_packets);
}

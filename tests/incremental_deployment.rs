//! §2.4 incremental deployment: "TPPs can be incrementally deployed —
//! a TPP-unaware switch simply forwards the packet without executing
//! it." A multi-hop path where the *middle* switch has its TCPU fused
//! off must still yield correct telemetry and correct writes: the dark
//! switch is invisible (no hop slot, no pushes, hop counter untouched),
//! and hop numbering stays contiguous for the switches that do execute.

use tpp::apps::cstore::{CounterTask, CounterWriteMode};
use tpp::apps::microburst::MicroburstMonitor;
use tpp::asic::AsicConfig;
use tpp::host::{decode_echo, parse_echo, EchoReceiver, ProbeBuilder};
use tpp::isa::programs;
use tpp::netsim::RunLimit;
use tpp::netsim::{time, Endpoint, HostApp, HostCtx, NetworkBuilder, Simulator, SwitchId};
use tpp::wire::EthernetAddress;

const WPH: usize = programs::MICROBURST_WORDS_PER_HOP;

/// Sends one queue-collect probe at start and keeps the raw echo frame.
#[derive(Debug)]
struct PathProbe {
    dst: EthernetAddress,
    echo: Option<Vec<u8>>,
}

impl HostApp for PathProbe {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let probe = ProbeBuilder::stack(&programs::microburst_collect(), 8);
        let frame = probe.build_frame(self.dst, ctx.mac());
        ctx.send(frame);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if parse_echo(&frame, ctx.mac()).is_some() {
            self.echo = Some(frame);
        }
    }
}

/// `left -- s1 -- s2 -- s3 -- right`; `s2`'s TCPU can be fused off.
fn chain(
    left_app: Box<dyn HostApp>,
    right_app: Box<dyn HostApp>,
    middle_tcpu: bool,
) -> (Simulator, Vec<SwitchId>) {
    let mut net = NetworkBuilder::new();
    let switches: Vec<SwitchId> = (0..3)
        .map(|i| {
            let mut cfg = AsicConfig::with_ports(1 + i as u32, 2);
            if i == 1 {
                cfg.tcpu_enabled = middle_tcpu;
            }
            net.add_switch(cfg)
        })
        .collect();
    let left = net.add_host(left_app, 10_000_000);
    let right = net.add_host(right_app, 10_000_000);
    net.connect(
        Endpoint::host(left),
        Endpoint::switch(switches[0], 0),
        time::micros(1),
    );
    for w in switches.windows(2) {
        net.connect(
            Endpoint::switch(w[0], 1),
            Endpoint::switch(w[1], 0),
            time::micros(1),
        );
    }
    net.connect(
        Endpoint::host(right),
        Endpoint::switch(switches[2], 1),
        time::micros(1),
    );
    let mut sim = net.build();
    sim.populate_l2();
    (sim, switches)
}

fn probe_app() -> Box<PathProbe> {
    Box::new(PathProbe {
        dst: EthernetAddress::from_host_id(1),
        echo: None,
    })
}

#[test]
fn tpp_unaware_middle_switch_is_invisible_to_collection() {
    let (mut sim, _switches) = chain(probe_app(), Box::<EchoReceiver>::default(), false);
    sim.run(RunLimit::Until(time::millis(10)));

    let left = sim.host_app::<PathProbe>(tpp::netsim::HostId(0));
    let frame = left.echo.as_ref().expect("echo came back");
    let tpp = parse_echo(frame, EthernetAddress::from_host_id(0)).expect("parseable echo");
    // Only the two TPP-aware switches bumped the hop counter.
    assert_eq!(tpp.hop(), 2, "dark switch must not count as a hop");

    let sample = decode_echo(frame, EthernetAddress::from_host_id(0), WPH).expect("clean layout");
    assert_eq!(sample.hop_count(), 2);
    // Hop slots are contiguous — no gap where the dark switch sits.
    let slots: Vec<usize> = sample.hops().map(|h| h.hop).collect();
    assert_eq!(slots, vec![0, 1]);
    // And they belong to switches 1 and 3; switch 2 pushed nothing.
    let ids: Vec<u32> = sample.column(0).collect();
    assert_eq!(ids, vec![1, 3]);
}

#[test]
fn full_deployment_sees_every_switch() {
    let (mut sim, _switches) = chain(probe_app(), Box::<EchoReceiver>::default(), true);
    sim.run(RunLimit::Until(time::millis(10)));

    let left = sim.host_app::<PathProbe>(tpp::netsim::HostId(0));
    let frame = left.echo.as_ref().expect("echo came back");
    let sample = decode_echo(frame, EthernetAddress::from_host_id(0), WPH).expect("clean layout");
    let ids: Vec<u32> = sample.column(0).collect();
    assert_eq!(ids, vec![1, 2, 3], "all three switches execute");
}

#[test]
fn microburst_monitor_works_over_partial_deployment() {
    let monitor = MicroburstMonitor::new(
        EthernetAddress::from_host_id(1),
        8,
        time::millis(1),
        0,
        time::millis(500),
    );
    let (mut sim, _switches) = chain(Box::new(monitor), Box::<EchoReceiver>::default(), false);
    sim.run(RunLimit::Until(time::millis(600)));

    let monitor = sim.host_app::<MicroburstMonitor>(tpp::netsim::HostId(0));
    assert!(monitor.echoes_received > 100, "steady sampling");
    assert_eq!(
        monitor.switches_observed(),
        vec![1, 3],
        "series exist exactly for the TPP-aware switches"
    );
}

#[test]
fn cstore_writes_land_beyond_the_dark_switch() {
    const WORD: usize = 6;
    const GOAL: u32 = 10;
    // Target the far switch (ID 3): every probe crosses the dark switch
    // twice, and the CEXEC switch-ID gate must still fire only on 3.
    let task = CounterTask::new(
        EthernetAddress::from_host_id(1),
        3,
        WORD,
        GOAL,
        CounterWriteMode::Linearizable,
    );
    let (mut sim, switches) = chain(Box::new(task), Box::<EchoReceiver>::default(), false);
    sim.run(RunLimit::Until(time::secs(5)));

    let task = sim.host_app::<CounterTask>(tpp::netsim::HostId(0));
    assert!(task.done(), "counter task finished across the partial path");
    let far = sim.switch(switches[2]).global_sram().word(WORD).unwrap();
    assert_eq!(far, GOAL);
    for sw in [switches[0], switches[1]] {
        assert_eq!(
            sim.switch(sw).global_sram().word(WORD).unwrap(),
            0,
            "gate keeps other switches untouched"
        );
    }
}

//! Integration tests for the two extension mechanisms:
//!
//! * §3.2's multi-packet queries ([`SegmentedQuery`]) running live over
//!   a simulated path;
//! * the §2.3 wireless SNR diagnosis pipeline on a lossy link.

use tpp::apps::wireless::{classify_loss, DiagnosisConfig, LinkHealthMonitor, LossCause};
use tpp::host::{EchoReceiver, SegmentedCollector, SegmentedQuery};
use tpp::isa::SymbolTable;
use tpp::netsim::RunLimit;
use tpp::netsim::{
    linear_chain_with, time, Endpoint, HostApp, HostCtx, LinearChainParams, SimConfig,
};
use tpp::wire::EthernetAddress;

/// Sends one segmented query train and reassembles the echoes.
struct WideQuerier {
    dst: EthernetAddress,
    query: SegmentedQuery,
    collector: SegmentedCollector,
}

impl HostApp for WideQuerier {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for frame in self.query.frames(self.dst, ctx.mac(), 42) {
            ctx.send(frame);
        }
    }
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.collector.on_frame(&frame, ctx.mac());
    }
}

#[test]
fn segmented_query_reassembles_wide_rows_over_live_network() {
    // 8 statistics per hop over 4 hops = 32 words, but only 12 words of
    // packet memory allowed per probe -> 3 words/hop -> 3 segments.
    let symbols = [
        "Switch:SwitchID",
        "Queue:QueueSize",
        "Link:RX-Bytes",
        "Link:TX-Bytes",
        "Link:CapacityKbps",
        "Switch:PacketsProcessed",
        "PacketMetadata:InputPort",
        "Queue:Limit",
    ];
    let query = SegmentedQuery::plan(&symbols, &SymbolTable::new(), 4, 12).unwrap();
    assert_eq!(query.segments(), 3);
    let collector = query.collector();
    let (mut sim, chain) = linear_chain_with(
        SimConfig::new(),
        LinearChainParams {
            n_switches: 4,
            ..Default::default()
        },
        Box::new(WideQuerier {
            dst: EthernetAddress::from_host_id(1),
            query,
            collector,
        }),
        Box::new(EchoReceiver::default()),
    );
    sim.run(RunLimit::Until(time::millis(5)));

    let app = sim.host_app::<WideQuerier>(chain.left);
    assert_eq!(app.collector.pending(), 0);
    assert_eq!(app.collector.complete.len(), 1);
    let row = &app.collector.complete[0];
    assert_eq!(row.query_id, 42);
    assert_eq!(row.rows.len(), 4, "one merged row per hop");
    for (hop, row) in row.rows.iter().enumerate() {
        assert_eq!(row.len(), symbols.len(), "hop {hop} complete");
        assert_eq!(row["Switch:SwitchID"], hop as u32 + 1, "path order");
        assert_eq!(row["Link:CapacityKbps"], 10_000_000);
        assert_eq!(row["Queue:Limit"], 512 * 1024);
        // Probes entered every switch on its left port.
        assert_eq!(row["PacketMetadata:InputPort"], 0);
    }
}

#[test]
fn snr_register_travels_with_probes_and_losses_classify() {
    // One switch whose egress to the right host is a fading radio.
    let (mut sim, chain) = linear_chain_with(
        SimConfig::new(),
        LinearChainParams {
            n_switches: 1,
            ..Default::default()
        },
        Box::new(LinkHealthMonitor::new(
            EthernetAddress::from_host_id(1),
            1,
            time::millis(1),
            time::millis(400),
        )),
        Box::new(EchoReceiver::default()),
    );
    let ap = chain.switches[0];
    // Phase A (0-200 ms): 30 dB, lossless. Phase B: 8 dB, 40% loss.
    sim.switch_mut(ap).set_port_snr(1, 300);
    sim.run(RunLimit::Until(time::millis(200)));
    sim.switch_mut(ap).set_port_snr(1, 80);
    sim.set_link_loss(Endpoint::switch(ap, 1), 400);
    sim.run(RunLimit::Until(time::millis(400)));
    sim.set_link_loss(Endpoint::switch(ap, 1), 0);
    sim.run(RunLimit::Until(time::millis(450)));

    let monitor = sim.host_app::<LinkHealthMonitor>(chain.left);
    let samples = monitor.series_for(1);
    assert!(monitor.probes_sent >= 390);
    assert!(
        monitor.echoes_received < monitor.probes_sent,
        "the radio must have eaten some probes"
    );
    assert!(sim.link_losses(Endpoint::switch(ap, 1)) > 0);

    // Early samples read 30 dB, late ones 8 dB.
    assert_eq!(samples.first().unwrap().snr_decidb, 300);
    assert_eq!(samples.last().unwrap().snr_decidb, 80);

    // A loss in phase B classifies as a channel fade; a hypothetical
    // loss in phase A is unexplained.
    let config = DiagnosisConfig {
        fade_snr_decidb: 150,
        congestion_queue_bytes: 10_000,
        max_sample_distance_ns: time::millis(10),
    };
    assert_eq!(
        classify_loss(&samples, time::millis(300), &config),
        LossCause::ChannelFade
    );
    assert_eq!(
        classify_loss(&samples, time::millis(100), &config),
        LossCause::Unknown
    );
}

#[test]
fn lossless_links_unchanged_by_loss_feature() {
    // Determinism guard: a lossless run must not consult the RNG, so
    // results are identical with the feature compiled in.
    fn run() -> u64 {
        let (mut sim, chain) = linear_chain_with(
            SimConfig::new(),
            LinearChainParams::default(),
            Box::new(LinkHealthMonitor::new(
                EthernetAddress::from_host_id(1),
                3,
                time::millis(1),
                time::millis(100),
            )),
            Box::new(EchoReceiver::default()),
        );
        sim.run(RunLimit::Until(time::millis(120)));
        let m = sim.host_app::<LinkHealthMonitor>(chain.left);
        assert_eq!(m.probes_sent, m.echoes_received);
        m.echoes_received
    }
    assert_eq!(run(), run());
}

//! E1 / Figure 1 — the queue-size query TPP, asserted end to end.
//!
//! "Visualizing the execution of a TPP that queries the network for queue
//! sizes. As the TPP traverses a network of switches, the ASIC executes
//! the program, which modifies the packet to reflect the queue sizes on
//! the link." The figure shows SP advancing 0x0 → 0x4 → 0x8 → 0xc and
//! one value pushed per hop.

use std::path::Path;

use tpp::host::{split_hops, DATA_ETHERTYPE};
use tpp::isa::assemble;
use tpp::netsim::RunLimit;
use tpp::netsim::{linear_chain, time, HostApp, HostCtx, LinearChainParams};
use tpp::wire::ethernet::build_frame;
use tpp::wire::tpp::TppPacket;
use tpp::wire::{EthernetAddress, Frame};
use tpp_bench::testgen::assert_matches_golden;

struct OneProbe {
    dst: EthernetAddress,
}

impl HostApp for OneProbe {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Pre-fill hop 2's queue (the third switch's egress) with two
        // data frames so the walk records a non-trivial value somewhere.
        for _ in 0..2 {
            ctx.send(build_frame(
                self.dst,
                ctx.mac(),
                DATA_ETHERTYPE,
                &[0u8; 1000],
            ));
        }
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let probe = tpp::host::ProbeBuilder::stack(&program, 3);
        ctx.send(probe.build_frame(self.dst, ctx.mac()));
    }
}

#[derive(Default)]
struct Capture {
    frames: Vec<(u64, Vec<u8>)>,
}

impl HostApp for Capture {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.frames.push((ctx.now(), frame));
    }
}

#[test]
fn figure1_walk_records_one_queue_sample_per_hop() {
    let params = LinearChainParams {
        n_switches: 3,
        // Slow links so the back-to-back data frames actually queue in
        // front of the probe at the first switch.
        link_kbps: 10_000,
        host_nic_kbps: 100_000,
        ..Default::default()
    };
    let (mut sim, chain) = linear_chain(
        params,
        Box::new(OneProbe {
            dst: EthernetAddress::from_host_id(1),
        }),
        Box::new(Capture::default()),
    );
    sim.run(RunLimit::Until(time::secs(1)));

    let capture = sim.host_app::<Capture>(chain.right);
    let tpp_frames: Vec<&Vec<u8>> = capture
        .frames
        .iter()
        .map(|(_, f)| f)
        .filter(|f| Frame::new_checked(&f[..]).unwrap().is_tpp())
        .collect();
    assert_eq!(tpp_frames.len(), 1, "exactly one probe arrives");

    let parsed = Frame::new_checked(&tpp_frames[0][..]).unwrap();
    let tpp = TppPacket::new_checked(parsed.payload()).unwrap();

    // The Figure 1 invariants:
    assert_eq!(tpp.hop(), 3, "executed on all three switches");
    assert_eq!(tpp.sp(), 0xc, "SP walked 0x0 -> 0x4 -> 0x8 -> 0xc");
    assert_eq!(tpp.mem_len(), 12, "memory was preallocated, never grown");

    let sample = split_hops(&tpp, 1).unwrap();
    assert_eq!(sample.hop_count(), 3);
    // The probe was sent right behind two 1014-byte data frames through
    // a slow first link: hop 0 must have seen queued bytes, and the
    // recorded value is an exact byte count, not an average.
    assert!(
        sample.hop(0).unwrap().word(0) >= 1014,
        "hop 0 should have observed the data backlog, got {:?}",
        sample.column(0).collect::<Vec<_>>()
    );
    // Downstream hops drain at the same rate they fill (same capacity),
    // so the probe — which waited its turn at hop 0 — finds little or
    // nothing queued later.
    assert!(sample.hop(2).unwrap().word(0) < 3 * 1014);

    // Golden snapshot: the full hop walk, pinned exactly. The range
    // assertions above catch gross breakage; this catches any silent
    // drift in the simulator's timing or the ASIC's queue accounting.
    let arrival_ns = capture
        .frames
        .iter()
        .find(|(_, f)| Frame::new_checked(&f[..]).unwrap().is_tpp())
        .map(|(t, _)| *t)
        .unwrap();
    let per_hop: Vec<String> = sample
        .hops()
        .map(|h| {
            let words: Vec<String> = h.words().map(|w| w.to_string()).collect();
            format!("    [{}]", words.join(", "))
        })
        .collect();
    let snapshot = format!(
        "{{\n  \"arrival_ns\": {arrival_ns},\n  \"hop\": {},\n  \"sp\": {},\n  \"hops\": [\n{}\n  ]\n}}\n",
        tpp.hop(),
        tpp.sp(),
        per_hop.join(",\n")
    );
    assert_matches_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig1_hops.json"),
        &snapshot,
    );
}

#[test]
fn hop_addressed_variant_records_identically() {
    // The same telemetry in hop-addressing mode: LOAD into hop slots.
    struct HopProbe {
        dst: EthernetAddress,
    }
    impl HostApp for HopProbe {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let program = assemble("LOAD [Switch:SwitchID], [Packet:Hop[0]]").unwrap();
            let probe = tpp::host::ProbeBuilder::hop(&program, 3);
            ctx.send(probe.build_frame(self.dst, ctx.mac()));
        }
    }
    let (mut sim, chain) = linear_chain(
        LinearChainParams::default(),
        Box::new(HopProbe {
            dst: EthernetAddress::from_host_id(1),
        }),
        Box::new(Capture::default()),
    );
    sim.run(RunLimit::Until(time::millis(5)));
    let capture = sim.host_app::<Capture>(chain.right);
    assert_eq!(capture.frames.len(), 1);
    let parsed = Frame::new_checked(&capture.frames[0].1[..]).unwrap();
    let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
    assert_eq!(tpp.memory_words(), vec![1, 2, 3], "switch ids by hop slot");
}

//! Telemetry invariants: the trace stream is not a second, parallel
//! truth — every event count must reconcile with the switch registers
//! the paper's TPPs read, and the queue depths a traced `PUSH
//! [Queue:QueueSize]` walk records in packet memory must be the same
//! depths the `enqueue` events saw from inside the pipeline.

use tpp::prelude::*;

/// The Figure 1 walk, traced: three switches with staged egress
/// backlogs (0x00 / 0xa0 / 0x0e). The per-hop queue sizes the
/// receiving host decodes out of packet memory must match the
/// `depth_bytes` of the probe's `enqueue` event at each switch — both
/// are observations of the same instant in the same pipeline.
#[test]
fn fig1_enqueue_depths_match_hop_records() {
    let sink = SharedSink::new(256);
    let dst = EthernetAddress::from_host_id(1);
    let src = EthernetAddress::from_host_id(0);
    let program = assemble("PUSH [Queue:QueueSize]").unwrap();
    let payload = TppBuilder::new(AddressingMode::Stack)
        .instructions(&program.encode_words().unwrap())
        .memory_words(3)
        .build();
    let mut frame = build_frame(dst, src, EtherType::TPP, &payload);

    let backlogs = [0x00usize, 0xa0, 0x0e];
    for (i, backlog) in backlogs.iter().enumerate() {
        let mut asic = Asic::new(AsicConfig::with_ports(i as u32 + 1, 2));
        asic.set_trace_sink(Some(sink.clone()));
        asic.l2_mut().insert(dst, 1);
        if *backlog > 0 {
            let filler = build_frame(dst, src, DATA_ETHERTYPE, &vec![0u8; backlog - 14]);
            assert!(asic.handle_frame(filler, 0, 0).is_enqueued());
        }
        let outcome = asic.handle_frame(frame.clone(), 0, 1_000 * (i as u64 + 1));
        let (port, _) = outcome.egress().expect("probe forwarded");
        if *backlog > 0 {
            asic.dequeue(port); // the filler
        }
        frame = asic.dequeue(port).expect("probe queued");
    }

    // What the receiving host decodes out of packet memory...
    let parsed = Frame::new_checked(&frame[..]).unwrap();
    let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
    let sample = split_hops(&tpp, 1).unwrap();
    let hop_depths: Vec<u64> = sample.column(0).map(u64::from).collect();
    assert_eq!(hop_depths, vec![0x00, 0xa0, 0x0e]);

    // ...must agree with what the pipeline trace recorded. The probe's
    // enqueue is the first one after that switch's TCPU execution.
    let events = sink.events();
    for (i, want) in hop_depths.iter().enumerate() {
        let sw = i as u32 + 1;
        let mut saw_exec = false;
        let mut probe_depth = None;
        for ev in events.iter().filter(|e| e.switch_id == sw) {
            match &ev.kind {
                TraceEventKind::TcpuExec { hop, .. } => {
                    assert_eq!(*hop as usize, i + 1, "hop counter at switch {sw}");
                    saw_exec = true;
                }
                TraceEventKind::Enqueue { depth_bytes, .. } if saw_exec => {
                    probe_depth = Some(*depth_bytes);
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(probe_depth, Some(*want), "switch {sw} traced enqueue depth");
    }
}

/// Sends a burst of Figure-1 probes at t = 0.
struct BurstProber {
    n: usize,
}

impl HostApp for BurstProber {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let program = assemble("PUSH [Queue:QueueSize]").expect("valid program");
        for _ in 0..self.n {
            let probe = ProbeBuilder::stack(&program, 3);
            ctx.send(probe.build_frame(EthernetAddress::from_host_id(1), ctx.mac()));
        }
    }
}

/// Fleet-wide reconciliation in the simulator: per switch, the number
/// of `parse` events equals `packets_processed` and the number of
/// `tcpu_exec` events equals `tpps_executed`; the metrics registry the
/// simulator rebuilds on its stats tick sums to the same totals.
#[test]
fn trace_counts_reconcile_with_registers_and_metrics() {
    let (mut sim, chain) = linear_chain_with(
        SimConfig::new(),
        LinearChainParams::default(),
        Box::new(BurstProber { n: 20 }),
        Box::new(EchoReceiver::default()),
    );
    let sink = sim.observe().trace_all(65_536);
    sim.run(RunLimit::Until(time::millis(5)));

    let events = sink.events();
    assert_eq!(sink.shed(), 0, "ring buffer overflowed; grow the capacity");
    assert!(!events.is_empty());

    let mut total_packets = 0;
    let mut total_tpps = 0;
    for id in &chain.switches {
        let asic = sim.switch(*id);
        let sw = asic.switch_id();
        let parses = events
            .iter()
            .filter(|e| e.switch_id == sw && matches!(e.kind, TraceEventKind::Parse { .. }))
            .count() as u64;
        let execs = events
            .iter()
            .filter(|e| e.switch_id == sw && matches!(e.kind, TraceEventKind::TcpuExec { .. }))
            .count() as u64;
        assert_eq!(
            parses,
            asic.regs().packets_processed,
            "switch {sw}: one parse event per processed packet"
        );
        assert_eq!(
            execs,
            asic.regs().tpps_executed,
            "switch {sw}: one tcpu_exec event per executed TPP"
        );
        total_packets += asic.regs().packets_processed;
        total_tpps += asic.regs().tpps_executed;
    }
    assert!(total_tpps >= 20 * 3, "every probe ran at every hop");

    // The fleet registry rebuilds from the switches' registers on
    // access, so its sums equal the registers' final values.
    assert_eq!(
        sim.metrics().counter("switch.packets_processed"),
        total_packets
    );
    assert_eq!(sim.metrics().counter("switch.tpps_executed"), total_tpps);
}

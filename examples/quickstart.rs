//! Quickstart: the paper's Figure 1, end to end.
//!
//! A host writes a one-instruction TPP — `PUSH [Queue:QueueSize]` — and
//! sends it across a three-switch path. Each switch ASIC executes the
//! instruction in its dataplane, appending its egress queue depth to the
//! packet's memory and advancing the stack pointer (0x0 → 0x4 → 0x8 →
//! 0xc, exactly the walk Figure 1 illustrates). The receiving host reads
//! a per-hop queue breakdown off the packet.
//!
//! Run with: `cargo run --release --example quickstart`

use tpp::prelude::*;

/// Sends one telemetry probe at t = 0.
struct Prober;

impl HostApp for Prober {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let program = assemble("PUSH [Queue:QueueSize]").expect("valid program");
        println!("in-network program:\n  PUSH [Queue:QueueSize]\n");
        let probe = ProbeBuilder::stack(&program, 3); // preallocate 3 hops
        let frame = probe.build_frame(EthernetAddress::from_host_id(1), ctx.mac());
        println!(
            "probe frame: {} bytes total ({} header + {} instructions + {} packet memory)\n",
            frame.len(),
            14 + 16,
            4,
            12
        );
        ctx.send(frame);
    }
}

/// Receives the executed TPP and prints the per-hop breakdown.
#[derive(Default)]
struct Sink {
    report: Option<String>,
}

impl HostApp for Sink {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let parsed = Frame::new_checked(&frame[..]).expect("ethernet frame");
        let tpp = TppPacket::new_checked(parsed.payload()).expect("TPP section");
        let sample = split_hops(&tpp, 1).expect("1 word per hop");
        let mut out = format!(
            "received at t = {:.1} µs after {} hops; SP = {:#x}\n",
            ctx.now() as f64 / 1_000.0,
            tpp.hop(),
            tpp.sp(),
        );
        for hop in sample.hops() {
            out.push_str(&format!(
                "  hop {}: queue size = {} bytes\n",
                hop.hop,
                hop.word(0)
            ));
        }
        self.report = Some(out);
    }
}

fn main() {
    // left host -- s1 -- s2 -- s3 -- right host, 10 Gb/s links.
    let (mut sim, chain) = linear_chain(
        LinearChainParams::default(),
        Box::new(Prober),
        Box::new(Sink::default()),
    );
    sim.run(RunLimit::Until(time::millis(1)));

    let sink = sim.host_app::<Sink>(chain.right);
    match &sink.report {
        Some(report) => print!("{report}"),
        None => println!("probe never arrived (unexpected)"),
    }
    println!("\n(idle network: all queues empty — rerun with cross-traffic");
    println!(" via `cargo run --release -p tpp-bench --bin repro -- e6` to see them fill)");
}

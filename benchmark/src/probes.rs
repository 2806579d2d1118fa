//! Means (c): layer probes. Each times batches of calls to **one public
//! function** of one layer, on the frames the traced pass of the
//! workload actually carried, and reports the median batch as ns per
//! call. A probe runs after the timed region, in the traced pass only.
//!
//! A probe answers "what does this layer cost per call on this
//! workload's inputs, hot", which is what `asic.est_busy_s` multiplies
//! by the counted hop-frames. It omits whatever the real run pays for
//! cold caches and interleaving; that difference ends up in
//! `netsim.run.residual_s`.

use std::hint::black_box;
use std::time::Instant;

use tpp_asic::{Asic, AsicConfig, FlowAction, FlowEntry, FlowMatch};
use tpp_bench::traffic::Rng64;
use tpp_host::transport::{segments_for, FlowReceiver, FlowSender, TransportConfig};
use tpp_isa::{assemble, disassemble, Program};
use tpp_netsim::{
    fat_tree_with, flow_label, time, EcmpTable, FatTreeParams, FramePool, HostApp, HostCtx,
    NetworkBuilder, RunLimit, SimConfig,
};
use tpp_obs::WindowedSeries;
use tpp_telemetry::Histogram;
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::{Frame, TppPacket};

use crate::stats::median;
use crate::workloads::probe_storm::probe_frame;
use crate::workloads::Layers;

/// Batches per probe; the median batch is reported.
pub const BATCHES: usize = 31;
/// Calls per batch of a cheap function.
pub const CALLS: usize = 10_000;
/// Frames handed to the ASIC between two timestamps: small enough that
/// no egress queue fills, large enough that the clock reads vanish.
const CHUNK: usize = 64;

/// Median over `batches` of the time of `calls` calls to `f`, ns/call.
pub fn median_ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Put a delivered TPP frame back into its as-sent state (hop 0, empty
/// stack, no flags), so replaying it executes the whole program again.
fn rewind(frame: &mut [u8]) {
    if Frame::new_checked(&frame[..]).is_ok_and(|f| f.is_tpp()) {
        let payload = &mut frame[tpp_wire::ETHERNET_HEADER_LEN..];
        if TppPacket::new_checked(&payload[..]).is_ok() {
            let mut tpp = TppPacket::new_unchecked(payload);
            tpp.set_hop(0);
            tpp.set_sp(0);
            tpp.set_flags(0);
        }
    }
}

/// The corpus split by kind, never empty on either side: a workload
/// that carries only one kind gets a synthetic frame of the other.
struct Split {
    plain: Vec<Vec<u8>>,
    tpp: Vec<Vec<u8>>,
}

fn split(corpus: &[Vec<u8>]) -> Split {
    let mut s = Split {
        plain: Vec::new(),
        tpp: Vec::new(),
    };
    for frame in corpus {
        let Ok(eth) = Frame::new_checked(&frame[..]) else {
            continue;
        };
        let mut frame = frame.clone();
        if eth.is_tpp() {
            rewind(&mut frame);
            s.tpp.push(frame);
        } else {
            s.plain.push(frame);
        }
    }
    let like = s.plain.first().or(s.tpp.first()).cloned();
    let (dst, src) = like.map_or(
        (
            tpp_wire::EthernetAddress::from_host_id(1),
            tpp_wire::EthernetAddress::from_host_id(0),
        ),
        |f| {
            let eth = Frame::new_unchecked(&f[..]);
            (eth.dst_addr(), eth.src_addr())
        },
    );
    if s.plain.is_empty() {
        s.plain
            .push(build_frame(dst, src, EtherType(0x0802), &[0u8; 64]));
    }
    if s.tpp.is_empty() {
        let mut f = probe_frame(64);
        f[..6].copy_from_slice(&dst.0);
        f[6..12].copy_from_slice(&src.0);
        s.tpp.push(f);
    }
    s
}

/// An ASIC shaped like the simulator's switches: L2 only, one entry per
/// destination the corpus addresses.
pub fn l2_only_asic(corpus: &[Vec<u8>]) -> Asic {
    const PORTS: usize = 8;
    let mut asic = Asic::new(AsicConfig::with_ports(1, PORTS));
    let mut next = 0;
    for frame in corpus {
        if let Ok(eth) = Frame::new_checked(&frame[..]) {
            asic.l2_mut().insert(eth.dst_addr(), (next % PORTS) as u16);
            next += 1;
        }
    }
    asic
}

/// ns per `handle_frame` over `frames`, and ns per `dequeue` of what it
/// enqueued. Buffers are copied outside the timed chunks.
fn asic_frame_probe(asic: &mut Asic, frames: &[Vec<u8>]) -> (f64, f64) {
    let ports = asic.num_ports() as u16;
    let mut handle = Vec::with_capacity(BATCHES);
    let mut dequeue = Vec::with_capacity(BATCHES);
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let mut spare: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let mut next = 0usize;
    let mut now_ns = 1u64;
    for _ in 0..BATCHES {
        let (mut handle_ns, mut dequeue_ns, mut dequeued) = (0u128, 0u128, 0u64);
        for _ in 0..CALLS.div_ceil(CHUNK) {
            while bufs.len() < CHUNK {
                let mut buf = spare.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(&frames[next % frames.len()]);
                next += 1;
                bufs.push(buf);
            }
            let t0 = Instant::now();
            for buf in bufs.drain(..) {
                now_ns += 100;
                black_box(asic.handle_frame(buf, 0, now_ns));
            }
            handle_ns += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            for port in 0..ports {
                while let Some(buf) = asic.dequeue(port) {
                    spare.push(buf);
                    dequeued += 1;
                }
            }
            dequeue_ns += t0.elapsed().as_nanos();
        }
        let calls = (CALLS.div_ceil(CHUNK) * CHUNK) as f64;
        handle.push(handle_ns as f64 / calls);
        dequeue.push(dequeue_ns as f64 / dequeued.max(1) as f64);
    }
    (median(&handle), median(&dequeue))
}

/// Re-arms every timer it is given at a seeded future time: the classic
/// *hold* model, keeping the event heap at a constant depth.
struct HoldApp {
    depth: u64,
    rng: Rng64,
}

const HOLD_SPAN_NS: u64 = time::millis(1);

impl HostApp for HoldApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for token in 0..self.depth {
            ctx.set_timer(1 + self.rng.next_below(HOLD_SPAN_NS), token);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(1 + self.rng.next_below(HOLD_SPAN_NS), token);
    }
}

/// ns per event of a one-host simulator holding `depth` pending timers:
/// pop one, dispatch, push one. `EventKey` cannot be built outside
/// `tpp-netsim`, so the queue is probed through `Simulator::run` and
/// `HostCtx::set_timer`; the depth dependence is the heap's.
fn event_hold_ns(depth: u64) -> f64 {
    // Ticks would add a coordinator barrier per sim-ms; keep them out.
    let config = SimConfig::new()
        .shards(1)
        .tick_interval_ns(time::millis(100_000));
    let mut net = NetworkBuilder::with_config(config);
    net.add_host(
        Box::new(HoldApp {
            depth,
            rng: Rng64::new(depth),
        }),
        1_000_000,
    );
    let mut sim = net.build();
    // `depth` timers fire per HOLD_SPAN_NS / 2 on average.
    let slice_ns = (CALLS as u64 * HOLD_SPAN_NS / 2 / depth).max(1);
    let mut t = HOLD_SPAN_NS; // warm-up: every initial timer has fired once
    sim.run(RunLimit::Until(t));
    let per_event: Vec<f64> = (0..BATCHES)
        .map(|_| {
            t += slice_ns;
            let before = sim.events_processed();
            let t0 = Instant::now();
            sim.run(RunLimit::Until(t));
            let ns = t0.elapsed().as_nanos() as f64;
            ns / (sim.events_processed() - before).max(1) as f64
        })
        .collect();
    median(&per_event)
}

/// ns per ECMP decision (`flow_label` + `flow_hash` + `group` + `pick`)
/// on a k=4 fat-tree's table, over the corpus frames.
fn routing_pick_ns(frames: &[Vec<u8>]) -> f64 {
    struct Idle;
    impl HostApp for Idle {}
    let params = FatTreeParams {
        k: 4,
        hosts_per_edge: 0,
        link_kbps: 40_000_000,
        queue_limit_bytes: 1 << 20,
        delay_ns: time::micros(1),
        host_nic_kbps: 10_000_000,
    };
    let apps: Vec<Box<dyn HostApp>> = (0..params.n_hosts())
        .map(|_| Box::new(Idle) as Box<dyn HostApp>)
        .collect();
    let n_hosts = params.n_hosts() as u32;
    let (sim, tree) = fat_tree_with(SimConfig::new().shards(1).ecmp(true), params, apps);
    let table = sim.ecmp_table().expect("built with ecmp(true)");
    let edge = tree.edges[0][0];
    let switch_id = sim.switch(edge).switch_id();
    let mut next = 0usize;
    median_ns_per_call(BATCHES, CALLS, || {
        let frame = &frames[next % frames.len()];
        next += 1;
        let eth = Frame::new_unchecked(&frame[..]);
        let hash = table.flow_hash(switch_id, eth.src_addr(), eth.dst_addr(), flow_label(frame));
        // Some host in another pod, so the group has several members.
        let group = table.group(edge.0, n_hosts / 2 + (hash as u32 % (n_hosts / 2)));
        black_box(EcmpTable::pick(group, hash));
    })
}

/// ns per data segment of the closed-loop transport state machine with
/// the network factored out (`poll_send` → `data_hdr` → `on_data` →
/// `ack_hdr` → `on_ack`), over lossless 64 KiB flows.
fn transport_ns_per_segment() -> f64 {
    let cfg = TransportConfig::default();
    let bytes: u32 = 64 * 1024;
    let segs = segments_for(bytes, cfg.mss) as usize;
    let flows = CALLS.div_ceil(segs);
    let mut key = 0u64;
    median_ns_per_call(BATCHES, flows, || {
        key += 1;
        let mut tx = FlowSender::new(cfg.clone(), key, bytes, false, 0);
        let mut rx = FlowReceiver::new(tx.total_segs());
        let mut now = 0u64;
        while !tx.is_complete() {
            now += 10_000;
            while let Some(seg) = tx.poll_send(now) {
                let hdr = tx.data_hdr(seg, now);
                rx.on_data(hdr.seq, now);
                let ack = rx.ack_hdr(&hdr);
                tx.on_ack(ack.ack, ack.seq, ack.ts, now);
            }
        }
        black_box(rx.is_complete());
    }) / segs as f64
}

/// Run every probe on `corpus` with `asic` standing in for the
/// workload's switches, and set the probe metrics in `layers`.
/// Returns `(plain_ns, tpp_ns, dequeue_ns)` for `asic.est_busy_s`.
pub fn run(corpus: &[Vec<u8>], mut asic: Asic, layers: &mut Layers) -> (f64, f64, f64) {
    let Split { plain, tpp } = split(corpus);
    let all: Vec<Vec<u8>> = plain.iter().chain(tpp.iter()).cloned().collect();

    // wire
    let mut next = 0usize;
    layers.set(
        "wire.parse_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            let frame = &all[next % all.len()];
            next += 1;
            if let Ok(eth) = Frame::new_checked(&frame[..]) {
                if eth.is_tpp() {
                    black_box(TppPacket::new_checked(eth.payload()).is_ok());
                }
                black_box(eth.ethertype());
            }
        }),
    );
    layers.set(
        "wire.build_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            let eth = Frame::new_unchecked(&all[next % all.len()][..]);
            next += 1;
            black_box(build_frame(
                eth.dst_addr(),
                eth.src_addr(),
                eth.ethertype(),
                eth.payload(),
            ));
        }),
    );

    // isa: the distinct programs the corpus carries.
    let mut words: Vec<Vec<u32>> = tpp
        .iter()
        .filter_map(|f| {
            TppPacket::new_checked(Frame::new_unchecked(&f[..]).payload())
                .ok()
                .map(|t| t.instruction_words())
        })
        .filter(|w| Program::decode_words(w).is_ok())
        .collect();
    words.sort();
    words.dedup();
    let programs: Vec<Program> = words
        .iter()
        .map(|w| Program::decode_words(w).expect("filtered above"))
        .collect();
    let sources: Vec<String> = programs.iter().map(disassemble).collect();
    if !programs.is_empty() {
        layers.set(
            "isa.assemble_ns",
            median_ns_per_call(BATCHES, CALLS / 10, || {
                black_box(assemble(&sources[next % sources.len()]).is_ok());
                next += 1;
            }),
        );
        layers.set(
            "isa.encode_ns",
            median_ns_per_call(BATCHES, CALLS, || {
                black_box(programs[next % programs.len()].encode_words().is_ok());
                next += 1;
            }),
        );
        layers.set(
            "isa.decode_ns",
            median_ns_per_call(BATCHES, CALLS, || {
                black_box(Program::decode_words(&words[next % words.len()]).is_ok());
                next += 1;
            }),
        );
    }

    // asic
    let (plain_ns, _) = asic_frame_probe(&mut asic, &plain);
    let (tpp_ns, _) = asic_frame_probe(&mut asic, &tpp);
    let (_, dequeue_ns) = asic_frame_probe(&mut asic, &all);
    layers.set("asic.handle_frame_ns.plain", plain_ns);
    layers.set("asic.handle_frame_ns.tpp", tpp_ns);
    layers.set("asic.dequeue_ns", dequeue_ns);
    let mut id = 900_000u32;
    layers.set(
        "asic.install_flow_ns",
        median_ns_per_call(BATCHES, CALLS / 10, || {
            id += 1;
            asic.install_flow(FlowEntry {
                id,
                version: 1,
                priority: 300,
                pattern: FlowMatch {
                    ethertype: Some(0x9999),
                    ..Default::default()
                },
                action: FlowAction::Forward(0),
            });
            black_box(asic.remove_flow(id).is_some());
        }),
    );
    let mut now_ns = 1u64 << 40;
    layers.set(
        "asic.tick_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            now_ns += 1_000_000;
            asic.tick(now_ns);
        }),
    );

    // netsim
    layers.set("netsim.event.hold_ns.1k", event_hold_ns(1_000));
    layers.set("netsim.event.hold_ns.100k", event_hold_ns(100_000));
    layers.set("netsim.event.hold_ns.1m", event_hold_ns(1_000_000));
    let mut pool = FramePool::new(1024);
    layers.set(
        "netsim.pool.alloc_recycle_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            let buf = pool.alloc(all[next % all.len()].len());
            next += 1;
            pool.recycle(black_box(buf));
        }),
    );
    layers.set("netsim.routing.pick_ns", routing_pick_ns(&all));

    // host, obs, telemetry
    layers.set("host.transport.ns_per_segment", transport_ns_per_segment());
    let mut series = WindowedSeries::new(1_000);
    let mut t_ns = 0u64;
    layers.set(
        "obs.window_push_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            t_ns += 10;
            series.push(t_ns, t_ns & 0xfff);
        }),
    );
    black_box(series.windows().len());
    let mut hist = Histogram::default();
    let mut v = 1u64;
    layers.set(
        "telemetry.histogram_record_ns",
        median_ns_per_call(BATCHES, CALLS, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.observe(black_box(v >> 40));
        }),
    );
    black_box(hist.count());

    (plain_ns, tpp_ns, dequeue_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewind_resets_hop_stack_and_flags() {
        let mut frame = probe_frame(16);
        {
            let mut tpp = TppPacket::new_unchecked(&mut frame[tpp_wire::ETHERNET_HEADER_LEN..]);
            tpp.set_hop(3);
            tpp.set_sp(40);
            tpp.set_flags(tpp_wire::tpp::FLAG_EXECUTED | tpp_wire::tpp::FLAG_ECHOED);
        }
        rewind(&mut frame);
        let tpp = TppPacket::new_checked(&frame[tpp_wire::ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!((tpp.hop(), tpp.sp(), tpp.flags()), (0, 0, 0));
        // A plain frame is left alone.
        let mut plain = build_frame(
            tpp_wire::EthernetAddress::from_host_id(1),
            tpp_wire::EthernetAddress::from_host_id(0),
            EtherType(0x0802),
            &[9u8; 32],
        );
        let before = plain.clone();
        rewind(&mut plain);
        assert_eq!(plain, before);
    }

    #[test]
    fn split_never_leaves_a_kind_empty() {
        let s = split(&[probe_frame(8)]);
        assert_eq!((s.plain.len(), s.tpp.len()), (1, 1));
        let s = split(&[]);
        assert_eq!((s.plain.len(), s.tpp.len()), (1, 1));
        assert!(Frame::new_checked(&s.tpp[0][..]).unwrap().is_tpp());
    }

    #[test]
    fn replayed_probe_frames_execute_on_the_probe_asic() {
        let corpus = vec![probe_frame(32)];
        let mut asic = l2_only_asic(&corpus);
        let out = asic.handle_frame(corpus[0].clone(), 0, 1);
        assert!(out.is_enqueued());
        assert!(out.exec_report().is_some(), "the TCPU ran the program");
        assert_eq!(asic.regs().tpps_executed, 1);
    }
}

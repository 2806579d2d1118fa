//! Tracked performance baseline for the hot-path work: TCPU throughput
//! with the decode cache on vs off, the plain forwarding pipeline, and a
//! datacenter-scale netsim workload exercising the frame pool.
//!
//! Writes `BENCH_pipeline.json` and `BENCH_netsim.json` into the current
//! directory (run from the repo root; the committed copies are the
//! tracked baseline). The "caches off" row uses
//! `AsicConfig::without_decode_cache()`, so every run re-measures the
//! speedup against its own baseline on the same machine instead of
//! comparing against stale absolute numbers. Plain frames never reach
//! the decode cache, so `pipeline_plain` is one row.
//!
//! ```console
//! $ cargo run --release -p tpp-bench --bin perf_baseline
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tpp_asic::{Asic, AsicConfig, FlowAction, FlowEntry, FlowMatch, ProfileConfig};
use tpp_host::transport::{segments_for, FlowReceiver, FlowSender, TransportConfig};
use tpp_isa::assemble;
use tpp_netsim::RunLimit;
use tpp_netsim::{leaf_spine_with, time, HostApp, HostCtx, LeafSpineParams, SimConfig};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::tpp::{AddressingMode, TppBuilder};
use tpp_wire::EthernetAddress;

/// Counts every heap allocation, so the JSON can report allocations per
/// packet — the metric the frame pool and in-place `strip_tpp` move.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Measurement {
    elapsed_s: f64,
    allocs: u64,
}

fn measure(f: impl FnOnce()) -> Measurement {
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    f();
    Measurement {
        elapsed_s: start.elapsed().as_secs_f64(),
        allocs: ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
    }
}

/// A populated ASIC at ACL scale: 256 TCAM entries, 1k L2 MACs, 256 L3
/// prefixes.
fn asic(config: AsicConfig) -> Asic {
    let mut asic = Asic::new(config);
    asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
    for i in 0..256 {
        asic.install_flow(FlowEntry {
            id: 1000 + i,
            version: 1,
            priority: i as u16,
            pattern: FlowMatch {
                ethertype: Some(0x9999), // never matches the bench traffic
                in_port: Some((i % 4) as u16),
                ..Default::default()
            },
            action: FlowAction::Forward(2),
        });
    }
    for i in 0..1024 {
        asic.l2_mut()
            .insert(EthernetAddress::from_host_id(100 + i), (i % 4) as u16);
    }
    for i in 0..256u32 {
        asic.l3_mut()
            .insert(0x0a00_0000 | (i << 8), 24, (i % 4) as u16);
    }
    asic
}

fn tpp_probe_frame(payload_len: usize) -> Vec<u8> {
    // A two-sample stats probe (10 instructions): the §2 monitoring
    // pattern of reading a batch of counters per hop, twice per packet.
    let program = assemble(
        "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\nPUSH [Link:RX-Bytes]\n\
         PUSH [Link:CapacityKbps]\nPUSH [Link:Scratch[0]]\n\
         PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\nPUSH [Link:RX-Bytes]\n\
         PUSH [Link:CapacityKbps]\nPUSH [Link:Scratch[0]]",
    )
    .expect("probe program assembles");
    let payload = TppBuilder::new(AddressingMode::Stack)
        .instructions(&program.encode_words().expect("probe encodes"))
        .memory_words(10)
        .payload(&vec![0u8; payload_len])
        .build();
    build_frame(
        EthernetAddress::from_host_id(1),
        EthernetAddress::from_host_id(0),
        EtherType::TPP,
        &payload,
    )
}

fn plain_frame() -> Vec<u8> {
    build_frame(
        EthernetAddress::from_host_id(1),
        EthernetAddress::from_host_id(0),
        EtherType(0x0802),
        &[0u8; 64],
    )
}

/// The closed-loop transport state machine with the network factored
/// out: 64 KiB flows pushed through a lossless sender/receiver ping-pong
/// (poll_send → data_hdr → on_data → ack_hdr → on_ack). Measures the
/// pure per-segment cost of the reliability layer the fat-tree FCT
/// benchmark now runs every byte through.
fn run_transport_workload(target_segments: u64) -> WorkloadRow {
    let cfg = TransportConfig::default();
    let bytes: u32 = 64 * 1024;
    let segs_per_flow = segments_for(bytes, cfg.mss) as u64;
    let flows = (target_segments / segs_per_flow).max(1);
    let m = measure(|| {
        for f in 0..flows {
            let mut tx = FlowSender::new(cfg.clone(), f, bytes, false, 0);
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
            assert!(rx.is_complete(), "lossless ping-pong must complete");
        }
    });
    let segments = flows * segs_per_flow;
    WorkloadRow {
        name: "transport_state_machine",
        caches: "-",
        frames: segments,
        elapsed_s: m.elapsed_s,
        packets_per_sec: segments as f64 / m.elapsed_s,
        tpps_per_sec: 0.0,
        allocs_per_packet: m.allocs as f64 / segments as f64,
    }
}

struct WorkloadRow {
    name: &'static str,
    caches: &'static str,
    frames: u64,
    elapsed_s: f64,
    packets_per_sec: f64,
    tpps_per_sec: f64,
    allocs_per_packet: f64,
}

/// Push `frames` copies of `frame` through a fresh populated ASIC,
/// dequeuing as it goes.
fn run_pipeline_workload(
    name: &'static str,
    caches: &'static str,
    config: AsicConfig,
    frame: &[u8],
    frames: u64,
    tpp: bool,
) -> WorkloadRow {
    run_pipeline_workload_profiled(name, caches, config, frame, frames, tpp, false)
}

/// Like [`run_pipeline_workload`], optionally with the observability
/// profiler sampling every packet — the `obs_overhead` pair measures
/// what turning the profiler on costs relative to the same ASIC with
/// it off.
fn run_pipeline_workload_profiled(
    name: &'static str,
    caches: &'static str,
    config: AsicConfig,
    frame: &[u8],
    frames: u64,
    tpp: bool,
    profiled: bool,
) -> WorkloadRow {
    let mut a = asic(config);
    if profiled {
        a.enable_profiling(ProfileConfig::default());
    }
    // Warm up tables, caches, and the branch predictor outside the
    // measured window.
    for _ in 0..1000 {
        a.handle_frame(frame.to_vec(), 0, 0);
        a.dequeue(1);
    }
    let m = measure(|| {
        for _ in 0..frames {
            a.handle_frame(frame.to_vec(), 0, 0);
            a.dequeue(1);
        }
    });
    WorkloadRow {
        name,
        caches,
        frames,
        elapsed_s: m.elapsed_s,
        packets_per_sec: frames as f64 / m.elapsed_s,
        tpps_per_sec: if tpp {
            frames as f64 / m.elapsed_s
        } else {
            0.0
        },
        allocs_per_packet: m.allocs as f64 / frames as f64,
    }
}

fn json_row(row: &WorkloadRow) -> String {
    format!(
        "    {{\"name\": \"{}\", \"caches\": \"{}\", \"frames\": {}, \
         \"elapsed_s\": {:.4}, \"packets_per_sec\": {:.0}, \
         \"tpps_per_sec\": {:.0}, \"allocs_per_packet\": {:.2}}}",
        row.name,
        row.caches,
        row.frames,
        row.elapsed_s,
        row.packets_per_sec,
        row.tpps_per_sec,
        row.allocs_per_packet
    )
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");
}

// ---------------------------------------------------------------------
// Netsim workload: a leaf-spine fabric where every host streams TPP
// probes at its ring neighbor, so each frame crosses the fabric and
// executes on 2-3 TCPUs.
// ---------------------------------------------------------------------

struct ProbeStreamer {
    target: EthernetAddress,
    template: Vec<u8>,
    period_ns: u64,
    until_ns: u64,
    sent: u64,
}

impl HostApp for ProbeStreamer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.period_ns, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.until_ns {
            return;
        }
        // Draw capacity from the simulator's frame pool instead of
        // allocating per probe.
        let mut frame = ctx.alloc_frame(self.template.len());
        frame.extend_from_slice(&self.template);
        // Retarget the template (built with a placeholder destination).
        frame[..6].copy_from_slice(&self.target.0);
        ctx.send(frame);
        self.sent += 1;
        ctx.set_timer(self.period_ns, 0);
    }
}

#[derive(Default)]
struct ProbeSink {
    got: u64,
}

impl HostApp for ProbeSink {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.got += 1;
        // Hand the consumed buffer back so senders reuse its capacity.
        ctx.recycle_frame(frame);
    }
}

struct NetsimRow {
    name: &'static str,
    shards: usize,
    threaded: bool,
    elapsed_s: f64,
    sent: u64,
    delivered: u64,
    tpps: u64,
    allocs: u64,
    pool: (u64, u64, u64),
}

/// One full netsim workload under `cfg`: a leaf-spine fabric where even
/// hosts stream TPP probes across the fabric at odd hosts. Every config
/// must report identical `sent`/`delivered`/`tpps` (shard-count
/// invariance); only the wall clock may differ.
fn run_netsim_row(
    name: &'static str,
    shards: usize,
    threaded: bool,
    cfg: SimConfig,
    sim_ms: u64,
) -> NetsimRow {
    const PROBE_PERIOD_NS: u64 = 5_000; // 200k probes/sec per host

    let params = LeafSpineParams::default(); // 4 leaves x 2 spines, 16 hosts
    let n_hosts = params.n_leaves * params.hosts_per_leaf;
    let template = tpp_probe_frame(64);
    // Even hosts stream probes at the matching odd host one leaf over,
    // so every probe crosses leaf -> spine -> leaf (3 TCPU executions);
    // odd hosts sink and recycle.
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| -> Box<dyn HostApp> {
            if i % 2 == 0 {
                Box::new(ProbeStreamer {
                    target: EthernetAddress::from_host_id(
                        ((i + params.hosts_per_leaf + 1) % n_hosts) as u32,
                    ),
                    template: template.clone(),
                    period_ns: PROBE_PERIOD_NS,
                    until_ns: time::millis(sim_ms),
                    sent: 0,
                })
            } else {
                Box::new(ProbeSink::default())
            }
        })
        .collect();
    let (mut sim, fabric) = leaf_spine_with(cfg, params, apps);

    let m = measure(|| {
        sim.run(RunLimit::Until(time::millis(sim_ms)));
    });

    let mut sent = 0u64;
    let mut delivered = 0u64;
    for (i, host) in fabric.all_hosts().enumerate() {
        if i % 2 == 0 {
            sent += sim.host_app::<ProbeStreamer>(host).sent;
        } else {
            delivered += sim.host_app::<ProbeSink>(host).got;
        }
    }
    let tpps: u64 = fabric
        .leaves
        .iter()
        .chain(fabric.spines.iter())
        .map(|&s| sim.switch(s).regs().tpps_executed)
        .sum();
    NetsimRow {
        name,
        shards,
        threaded,
        elapsed_s: m.elapsed_s,
        sent,
        delivered,
        tpps,
        allocs: m.allocs,
        pool: sim.frame_pool_stats(),
    }
}

fn netsim_json_row(r: &NetsimRow) -> String {
    let (reused, fresh, recycled) = r.pool;
    format!(
        "    {{\"name\": \"{}\", \"shards\": {}, \"threaded\": {}, \
         \"elapsed_s\": {:.4}, \"probes_sent\": {}, \"probes_delivered\": {}, \
         \"tpp_executions\": {}, \"tpps_per_wall_sec\": {:.0}, \
         \"allocations\": {}, \
         \"frame_pool\": {{\"reused\": {reused}, \"fresh\": {fresh}, \"recycled\": {recycled}}}}}",
        r.name,
        r.shards,
        r.threaded,
        r.elapsed_s,
        r.sent,
        r.delivered,
        r.tpps,
        r.tpps as f64 / r.elapsed_s,
        r.allocs
    )
}

fn run_netsim_workload() -> String {
    const SIM_MS: u64 = 50;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The 1-shard row is the tracked baseline CI gates on; the 4-shard
    // rows measure what the windowed scheduler costs (sequential) and
    // what threading buys on this machine's core count (threaded).
    // The storm keeps few events in flight, so a window holds only a
    // few per shard and the threaded row reads the cost of the
    // per-window synchronisation, not a speed-up — least of all with
    // more shards than `cores`, where a waiting shard's yield is a real
    // context switch. Every row carries that field for this reason.
    let rows = [
        run_netsim_row("1_shard", 1, true, SimConfig::new().shards(1), SIM_MS),
        run_netsim_row(
            "4_shards_seq",
            4,
            false,
            SimConfig::new().shards(4).sequential(),
            SIM_MS,
        ),
        run_netsim_row(
            "4_shards_threaded",
            4,
            true,
            SimConfig::new().shards(4),
            SIM_MS,
        ),
    ];

    let base = &rows[0];
    for r in &rows {
        assert_eq!(
            (r.sent, r.delivered, r.tpps),
            (base.sent, base.delivered, base.tpps),
            "{}: sharded run diverged from the 1-shard baseline",
            r.name
        );
        println!(
            "netsim[{:<17}] {} probes sent, {} delivered, {} TPP executions \
             in {:.3} s wall ({:.0} TPPs/sec)",
            r.name,
            r.sent,
            r.delivered,
            r.tpps,
            r.elapsed_s,
            r.tpps as f64 / r.elapsed_s
        );
    }

    format!(
        "{{\n  \"bench\": \"perf_baseline/netsim\",\n  \
         \"topology\": \"leaf_spine 4 leaves x 2 spines, 16 hosts\",\n  \
         \"sim_ms\": {SIM_MS},\n  \"cores\": {cores},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.iter()
            .map(netsim_json_row)
            .collect::<Vec<_>>()
            .join(",\n")
    )
}

/// Extract `"field": <number>` from the machine-written row line that
/// contains `matcher` (the committed JSONs are one row per line, so no
/// JSON dependency is needed).
fn committed_row_field(doc: &str, matcher: &str, field: &str) -> Option<f64> {
    let line = doc.lines().find(|l| l.contains(matcher))?;
    let idx = line.find(&format!("\"{field}\":"))?;
    let rest = &line[idx + field.len() + 3..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    // `--quick`: a sanity-check pass at 1/10th the frame count and a
    // single netsim row that prints a one-line delta against the
    // committed baselines instead of rewriting them.
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let frames: u64 = if quick { 20_000 } else { 200_000 };

    // Probe-sized frames: TPP monitoring traffic is small (§3.3 puts a
    // 5-instruction TPP at well under 100 bytes), and small frames keep
    // the measurement on the per-packet compute rather than memcpy.
    let tpp = tpp_probe_frame(64);
    let plain = plain_frame();

    let rows = [
        run_pipeline_workload(
            "tcpu_repeated_program",
            "off",
            AsicConfig::with_ports(1, 4).without_decode_cache(),
            &tpp,
            frames,
            true,
        ),
        run_pipeline_workload(
            "tcpu_repeated_program",
            "on",
            AsicConfig::with_ports(1, 4),
            &tpp,
            frames,
            true,
        ),
        run_pipeline_workload(
            "pipeline_plain",
            "-",
            AsicConfig::with_ports(1, 4),
            &plain,
            frames,
            false,
        ),
        // Observability overhead: identical TPP workload, caches on,
        // with the profiler off vs sampling every packet. The "off" row
        // is the parity check CI gates on (observability disabled must
        // cost nothing); the on/off ratio is the tracked sampling cost.
        run_pipeline_workload_profiled(
            "obs_overhead_off",
            "on",
            AsicConfig::with_ports(1, 4),
            &tpp,
            frames,
            true,
            false,
        ),
        run_pipeline_workload_profiled(
            "obs_overhead_on",
            "on",
            AsicConfig::with_ports(1, 4),
            &tpp,
            frames,
            true,
            true,
        ),
        // The closed-loop transport's per-segment cost, network factored
        // out — the state machine every fct_bench --closed-loop byte
        // crosses twice (send + ACK).
        run_transport_workload(frames * 5),
    ];

    let row_pps = |name: &str, caches: &str| -> f64 {
        rows.iter()
            .find(|r| r.name == name && r.caches == caches)
            .expect("row")
            .packets_per_sec
    };
    let tcpu_speedup =
        row_pps("tcpu_repeated_program", "on") / row_pps("tcpu_repeated_program", "off");
    // Sampling-on throughput as a fraction of sampling-off (1.0 = free).
    let obs_on_vs_off = row_pps("obs_overhead_on", "on") / row_pps("obs_overhead_off", "on");

    for row in &rows {
        println!(
            "{:<24} caches={:<3} {:>12.0} pkts/sec  {:>6.2} allocs/pkt",
            row.name, row.caches, row.packets_per_sec, row.allocs_per_packet
        );
    }
    println!("speedup: tcpu_repeated_program {tcpu_speedup:.2}x");
    println!("obs sampling on/off throughput ratio: {obs_on_vs_off:.2}");

    if quick {
        // One short netsim row, then a single delta line against the
        // committed baselines — nothing is rewritten.
        let netsim = run_netsim_row("1_shard", 1, true, SimConfig::new().shards(1), 10);
        let ratio = |measured: f64, committed: Option<f64>| match committed {
            Some(c) if c > 0.0 => format!("{:.2}x", measured / c),
            _ => "n/a".to_string(),
        };
        let pipeline_doc = std::fs::read_to_string("BENCH_pipeline.json").unwrap_or_default();
        let netsim_doc = std::fs::read_to_string("BENCH_netsim.json").unwrap_or_default();
        println!(
            "quick delta vs committed: tcpu_on {}, plain {}, obs_ratio {}, \
             netsim_1shard {} (tpps/wall-s), netsim allocs {} vs {}",
            ratio(
                row_pps("tcpu_repeated_program", "on"),
                committed_row_field(
                    &pipeline_doc,
                    "\"name\": \"tcpu_repeated_program\", \"caches\": \"on\"",
                    "packets_per_sec",
                ),
            ),
            ratio(
                row_pps("pipeline_plain", "-"),
                committed_row_field(
                    &pipeline_doc,
                    "\"name\": \"pipeline_plain\"",
                    "packets_per_sec",
                ),
            ),
            ratio(
                obs_on_vs_off,
                committed_row_field(&pipeline_doc, "\"speedup\"", "obs_sampling_on_vs_off"),
            ),
            ratio(
                netsim.tpps as f64 / netsim.elapsed_s,
                committed_row_field(&netsim_doc, "\"name\": \"1_shard\"", "tpps_per_wall_sec"),
            ),
            netsim.allocs,
            committed_row_field(&netsim_doc, "\"name\": \"1_shard\"", "allocations")
                .map_or("n/a".to_string(), |v| format!("{v:.0} committed")),
        );
        return;
    }

    let pipeline_json = format!(
        "{{\n  \"bench\": \"perf_baseline/pipeline\",\n  \"workloads\": [\n{}\n  ],\n  \
         \"speedup\": {{\"tcpu_repeated_program\": {tcpu_speedup:.2}, \
         \"obs_sampling_on_vs_off\": {obs_on_vs_off:.2}}}\n}}\n",
        rows.iter().map(json_row).collect::<Vec<_>>().join(",\n")
    );
    write_file("BENCH_pipeline.json", &pipeline_json);

    let netsim_json = run_netsim_workload();
    write_file("BENCH_netsim.json", &netsim_json);
}

//! `probe_storm` and `probe_storm_obs` — `perf_baseline`'s netsim row
//! scaled up: a 4×2 leaf-spine with 16 hosts where the 8 even hosts each
//! emit one 10-instruction TPP every 5 µs at an odd host on another
//! leaf, so every probe executes on three TCPUs (leaf, spine, leaf).
//! Lossless, open loop, one shard.
//!
//! The seed draws each sender's target, phase and payload length. Every
//! probe carries its send time in its last eight payload bytes; the sink
//! turns it into a one-way latency.
//!
//! `probe_storm_obs` runs the same inputs with the whole observability
//! plane on: profiling on every switch, the series layer, and the
//! harness stepping the simulator in 5 sim-ms slices with one dashboard
//! refresh after each. Its simulated statistics must equal
//! `probe_storm`'s.

use std::hint::black_box;
use std::time::Instant;

use tpp_asic::ProfileConfig;
use tpp_bench::traffic::{splitmix64, Rng64};
use tpp_isa::assemble;
use tpp_netsim::{
    leaf_spine_with, time, Endpoint, HostApp, HostCtx, LeafSpineParams, RunLimit, SimConfig,
    Simulator,
};
use tpp_obs::{prometheus_snapshot, render_dashboard, Collector, DashState, FleetSnapshot};
use tpp_wire::ethernet::{build_frame, EtherType, ETHERNET_HEADER_LEN};
use tpp_wire::{AddressingMode, EthernetAddress, TppBuilder};

use super::{
    fleet_counters, gate, hop_frames, scaled, seconds, sim_seed, Corpus, Layers, PassClock,
    PassOutput, PassParams, SimStats,
};
use crate::stats::{Counts, FlatCounts};
use crate::trace::{self, SpanLog, Wrap, RUN};

const PROBE_PERIOD_NS: u64 = 5_000;
const SIM_MS: u64 = 5_000;
const SLICE_NS: u64 = time::millis(5);
const DRAIN_NS: u64 = time::millis(1);
/// Hops a probe's packet memory is sized for (leaf, spine, leaf).
const HOPS: usize = 3;
const INSTRUCTIONS: usize = 10;

/// Span names of one dashboard refresh.
pub const REFRESH: &str = "obs.refresh";
/// See [`REFRESH`].
pub const SNAPSHOT: &str = "obs.snapshot";
/// See [`REFRESH`].
pub const RENDER: &str = "obs.render";
/// See [`REFRESH`].
pub const PROM: &str = "obs.prom_export";

/// A two-sample stats probe (10 instructions): the §2 monitoring pattern
/// of reading a batch of counters per hop, twice per packet.
pub fn probe_frame(payload_len: usize) -> Vec<u8> {
    let program = assemble(
        "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\nPUSH [Link:RX-Bytes]\n\
         PUSH [Link:CapacityKbps]\nPUSH [Link:Scratch[0]]\n\
         PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\nPUSH [Link:RX-Bytes]\n\
         PUSH [Link:CapacityKbps]\nPUSH [Link:Scratch[0]]",
    )
    .expect("probe program assembles");
    let payload = TppBuilder::new(AddressingMode::Stack)
        .instructions(&program.encode_words().expect("probe encodes"))
        .memory_words(INSTRUCTIONS * HOPS)
        .payload(&vec![0u8; payload_len])
        .build();
    build_frame(
        EthernetAddress::from_host_id(1),
        EthernetAddress::from_host_id(0),
        EtherType::TPP,
        &payload,
    )
}

/// Emits one probe per period from `first_ns` until `until_ns`.
pub struct ProbeStreamer {
    target: EthernetAddress,
    template: Vec<u8>,
    first_ns: u64,
    until_ns: u64,
    /// Probes sent.
    pub sent: u64,
}

impl HostApp for ProbeStreamer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.first_ns, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.until_ns {
            return;
        }
        // Draw capacity from the simulator's frame pool instead of
        // allocating per probe.
        let mut frame = ctx.alloc_frame(self.template.len());
        frame.extend_from_slice(&self.template);
        frame[..6].copy_from_slice(&self.target.0);
        let at = frame.len() - 8;
        frame[at..].copy_from_slice(&ctx.now().to_be_bytes());
        ctx.send(frame);
        self.sent += 1;
        ctx.set_timer(PROBE_PERIOD_NS, 0);
    }
}

/// Counts delivered probes and their send→sink latency.
#[derive(Default)]
pub struct LatencySink {
    lat: FlatCounts,
    /// Probes delivered.
    pub got: u64,
    /// Bytes delivered, Ethernet header excluded.
    pub bytes: u64,
}

impl HostApp for LatencySink {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if frame.len() >= ETHERNET_HEADER_LEN + 8 {
            let sent = u64::from_be_bytes(frame[frame.len() - 8..].try_into().expect("8 bytes"));
            self.lat.add(ctx.now().saturating_sub(sent));
            self.got += 1;
            self.bytes += (frame.len() - ETHERNET_HEADER_LEN) as u64;
        }
        // Hand the consumed buffer back so senders reuse its capacity.
        ctx.recycle_frame(frame);
    }
}

/// One dashboard refresh; returns its host time, ns.
fn refresh(sim: &mut Simulator, state: &DashState, log: Option<&mut SpanLog>) -> u64 {
    let collector = Collector::new();
    let t0 = trace::now_ns();
    let snap = FleetSnapshot::capture(sim, &collector, state.window_ns());
    let t1 = trace::now_ns();
    let frame = render_dashboard(&snap, state, 120, 40);
    let t2 = trace::now_ns();
    let prom = prometheus_snapshot(sim.metrics());
    let t3 = trace::now_ns();
    black_box((frame.len(), prom.len()));
    if let Some(log) = log {
        let ids = [
            log.name(REFRESH, Some(RUN)),
            log.name(SNAPSHOT, Some(REFRESH)),
            log.name(RENDER, Some(REFRESH)),
            log.name(PROM, Some(REFRESH)),
        ];
        log.record(ids[0], t0, t3, true);
        log.record(ids[1], t0, t1, true);
        log.record(ids[2], t1, t2, true);
        log.record(ids[3], t2, t3, true);
    }
    t3 - t0
}

/// One pass; `obs` selects `probe_storm_obs`.
pub fn run<W: Wrap>(p: &PassParams, obs: bool) -> Result<(PassOutput, SpanLog, Corpus), String> {
    let mut clock = PassClock::start();
    let until_ns = time::millis(scaled(SIM_MS, p.scale, 10));
    let end_ns = until_ns + DRAIN_NS;
    let params = LeafSpineParams::default(); // 4 leaves x 2 spines, 16 hosts
    let per_leaf = params.hosts_per_leaf;
    let n_hosts = params.n_leaves * per_leaf;

    let (mut sim, fabric, expected_sent, build_s) = clock.set_up(|| {
        let mut expected_sent = 0u64;
        let ((sim, fabric), build_s) = seconds(|| {
            let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
                .map(|i| -> Box<dyn HostApp> {
                    if i % 2 == 1 {
                        return W::boxed(LatencySink::default());
                    }
                    let mut rng = Rng64::new(splitmix64(p.seed) ^ i as u64);
                    // An odd host on one of the other leaves.
                    let leaf =
                        (i / per_leaf + 1 + rng.next_below(params.n_leaves as u64 - 1) as usize)
                            % params.n_leaves;
                    let slot = 1 + 2 * rng.next_below(per_leaf as u64 / 2) as usize;
                    let first_ns = 1 + rng.next_below(PROBE_PERIOD_NS);
                    let payload_len = 40 + rng.next_below(64) as usize;
                    expected_sent += (until_ns - first_ns).div_ceil(PROBE_PERIOD_NS);
                    W::boxed(ProbeStreamer {
                        target: EthernetAddress::from_host_id((leaf * per_leaf + slot) as u32),
                        template: probe_frame(payload_len),
                        first_ns,
                        until_ns,
                        sent: 0,
                    })
                })
                .collect();
            let config = SimConfig::new().shards(1).seed(sim_seed(p.seed));
            leaf_spine_with(config, params.clone(), apps)
        });
        (sim, fabric, expected_sent, build_s)
    });
    let switches: Vec<_> = fabric
        .leaves
        .iter()
        .chain(fabric.spines.iter())
        .copied()
        .collect();
    let state = DashState::default();
    if obs {
        for &s in &switches {
            sim.switch_mut(s).enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(512);
    }

    // Warm-up: the first slice (and, with the plane on, one refresh).
    let warm_ns = SLICE_NS.min(until_ns / 2);
    sim.run(RunLimit::Until(warm_ns));
    if obs {
        refresh(&mut sim, &state, None);
    }

    let mut refresh_ns = Counts::default();
    let (events0, hops0) = (sim.events_processed(), hop_frames(&sim));
    let timed = clock.timed(|log| {
        if !obs {
            return sim.run(RunLimit::Until(end_ns));
        }
        let mut t = warm_ns;
        while t < until_ns {
            t = (t + SLICE_NS).min(until_ns);
            sim.run(RunLimit::Until(t));
            let span_log = W::TRACED.then_some(&mut *log);
            refresh_ns.add(refresh(&mut sim, &state, span_log), 1);
        }
        sim.run(RunLimit::Until(end_ns));
    });
    let mut log = clock.log;
    let events = sim.events_processed() - events0;
    let hops = hop_frames(&sim) - hops0;
    let frozen = Instant::now();

    let mut corpus = Corpus::default();
    let mut lat = Counts::default();
    let (mut sent, mut delivered, mut bytes) = (0u64, 0u64, 0u64);
    for (i, host) in fabric.all_hosts().enumerate() {
        if i % 2 == 0 {
            sent += W::app::<ProbeStreamer>(&sim, host).sent;
            W::harvest::<ProbeStreamer>(&sim, host, &mut log, &mut corpus);
        } else {
            let sink = W::app::<LatencySink>(&sim, host);
            delivered += sink.got;
            bytes += sink.bytes;
            sink.lat.fold_into(&mut lat);
            W::harvest::<LatencySink>(&sim, host, &mut log, &mut corpus);
        }
    }
    let tpps: u64 = switches
        .iter()
        .map(|&s| sim.switch(s).regs().tpps_executed)
        .sum();
    gate(sent == expected_sent, || {
        format!("{sent} probes sent, the schedule has {expected_sent}")
    })?;
    gate(delivered == sent && lat.n() == sent, || {
        format!("{delivered} of {sent} probes delivered after the drain slice")
    })?;
    gate(tpps == HOPS as u64 * sent, || {
        format!("{tpps} TPP executions for {sent} probes, expected {HOPS} each")
    })?;

    let fingerprint = lat
        .iter()
        .fold(splitmix64(sent ^ bytes.rotate_left(32)), |acc, (ns, n)| {
            acc.wrapping_add(splitmix64(ns ^ n.rotate_left(32)))
        });

    let uplinks: Vec<Endpoint> = fabric
        .leaves
        .iter()
        .flat_map(|&leaf| {
            (0..params.n_spines).map(move |s| Endpoint::switch(leaf, (per_leaf + s) as u16))
        })
        .collect();
    let mut layers = Layers::default();
    fleet_counters(&mut sim, &uplinks, events, hops, timed.wall_s, &mut layers);
    layers.set("netsim.build_s", build_s);
    if refresh_ns.n() > 0 {
        // The tail by the percentile rule: p99 at full size (n = 1,000).
        layers.set("obs.refresh_ms_p50", refresh_ns.p50() as f64 / 1e6);
        layers.set("obs.refresh_ms_p99", refresh_ns.tail().1 as f64 / 1e6);
    }
    if W::TRACED {
        layers.set_spans(&log);
        if obs {
            for (metric, span) in [
                ("obs.snapshot_ns", SNAPSHOT),
                ("obs.render_ns", RENDER),
                ("obs.prom_export_ns", PROM),
            ] {
                layers.set(
                    metric,
                    log.total_ns(span) as f64 / log.calls(span).max(1) as f64,
                );
            }
            let series = sim.series().expect("series enabled above");
            layers.set(
                "obs.series_jsonl_ns",
                crate::probes::median_ns_per_call(crate::probes::BATCHES, 1, || {
                    black_box(tpp_obs::series_jsonl(black_box(series)).len());
                }),
            );
        }
    }
    layers.set("bench.harvest_s", frozen.elapsed().as_secs_f64());

    let sim_stats = SimStats::new(&lat, sent, 0, bytes, end_ns, fingerprint);
    Ok((timed.output(events, hops, sim_stats, layers), log, corpus))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_frame_is_a_ten_instruction_tpp_with_room_for_three_hops() {
        let frame = probe_frame(64);
        let eth = tpp_wire::Frame::new_checked(&frame[..]).unwrap();
        assert!(eth.is_tpp());
        let tpp = tpp_wire::TppPacket::new_checked(eth.payload()).unwrap();
        assert_eq!(tpp.instruction_count(), INSTRUCTIONS);
        assert_eq!(tpp.mem_len(), INSTRUCTIONS * HOPS * 4);
        assert_eq!(tpp.inner_payload().len(), 64);
    }
}

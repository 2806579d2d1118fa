//! The six workloads and what they share: the timed-region bracket, the
//! public counters read after a run, and the per-pass result.
//!
//! A *pass* is one execution of one workload in a process of its own:
//! set-up, one untimed warm-up slice, the timed region, harvest, gates.
//! The same `(workload, seed, scale)` always builds the same inputs, so
//! every simulated statistic of a pass repeats bit for bit.

pub mod asic_churn;
pub mod closed_loop;
pub mod fabric;
pub mod probe_storm;

use std::time::Instant;

use tpp_bench::traffic::{
    completions_fingerprint, generate_schedule, Completion, Flow, FlowSizeDist, TrafficConfig,
};
use tpp_netsim::{Endpoint, FatTree, HostId, Simulator, SwitchId};
use tpp_wire::EthernetAddress;

use crate::stats::Counts;
use crate::trace::{self, SpanLog, RUN, SETUP};

/// The tracked seed: every default run uses it, and at this seed (and
/// scale 1) `fabric_openloop` is `fct_bench`'s full scenario exactly.
pub const DEFAULT_SEED: u64 = 0xFC7_BEEF;

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassParams {
    /// Workload seed; the program under test sees only generated inputs.
    pub seed: u64,
    /// Common size factor: every count of every workload is multiplied
    /// by it (1.0 = the sizes in the README).
    pub scale: f64,
    /// Which repetition this is (provenance only).
    pub run_index: u64,
}

/// Scale a count, never below `min`.
pub fn scaled(count: u64, scale: f64, min: u64) -> u64 {
    ((count as f64 * scale).round() as u64).max(min)
}

/// The simulator seed for a workload seed: netsim's historical default
/// at the tracked seed, a different stream for every other seed.
pub fn sim_seed(seed: u64) -> u64 {
    0x7199_7199 ^ seed ^ DEFAULT_SEED
}

/// The `TrafficConfig` seed for a workload seed. `generate_schedule`
/// XORs its seed with the host index, so two small seeds give the same
/// streams on permuted hosts; every seed but the tracked one (whose
/// schedule `BENCH_fct.json` fingerprints) is therefore mixed first.
pub fn traffic_seed(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        seed
    } else {
        tpp_bench::traffic::splitmix64(seed)
    }
}

/// The simulated statistics of a pass: deterministic for one
/// `(workload inputs, seed, scale)`, compared bit for bit between
/// passes, against reference runs, and by `selfcheck`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Operations attempted (flows, probes or frames).
    pub ops: u64,
    /// Operations the system gave up on or could not start.
    pub ops_failed: u64,
    /// Operations still in flight (or lost without recovery) when the
    /// simulated horizon ended; they lower goodput, not `fail_share`.
    pub ops_unfinished: u64,
    /// Latency samples (completed operations).
    pub n: u64,
    /// Sum of all latency samples, sim ns (the mean is `sum / n`).
    pub lat_sum_ns: u64,
    /// Nearest-rank median latency, sim ns.
    pub lat_p50_ns: u64,
    /// Which tail percentile the rule allowed at this `n`.
    pub lat_tail: String,
    /// That percentile, sim ns.
    pub lat_tail_ns: u64,
    /// Payload bytes of completed operations.
    pub goodput_bytes: u64,
    /// Simulated horizon, ns.
    pub sim_ns: u64,
    /// Order-independent fingerprint of the outcome.
    pub fingerprint: u64,
}

impl SimStats {
    /// Assemble from the latency samples and the outcome counts.
    pub fn new(
        lat: &Counts,
        ops: u64,
        ops_failed: u64,
        goodput_bytes: u64,
        sim_ns: u64,
        fingerprint: u64,
    ) -> Self {
        let (label, tail) = lat.tail();
        SimStats {
            ops,
            ops_failed,
            // Saturating: a closed-loop flow can complete at its receiver
            // while its sender, starved of ACKs, gives up on it.
            ops_unfinished: ops.saturating_sub(ops_failed + lat.n()),
            n: lat.n(),
            lat_sum_ns: u64::try_from(lat.sum()).unwrap_or(u64::MAX),
            lat_p50_ns: lat.p50(),
            lat_tail: label.to_string(),
            lat_tail_ns: tail,
            goodput_bytes,
            sim_ns,
            fingerprint,
        }
    }
}

/// Everything one pass reports to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    /// One set-up — topology build, schedule generation, app
    /// construction, corpus build; the warm-up slice is not part of it —
    /// as the fastest of the set-ups the pass makes
    /// ([`SETUP_MIN_REPS`] or more), host s.
    pub setup_s: f64,
    /// The timed region, host s.
    pub wall_s: f64,
    /// Events processed in the timed region.
    pub events: u64,
    /// Frames handled by switch pipelines in the timed region.
    pub hop_frames: u64,
    /// Allocations from the start of the last set-up to the end of the
    /// timed region.
    pub allocs: u64,
    /// `VmHWM` when the timed region ended, kB.
    pub peak_rss_kb: u64,
    /// Simulated statistics.
    pub sim: SimStats,
    /// Per-layer values this pass could take: public counters always,
    /// span totals when traced.
    pub layers: Vec<(&'static str, f64)>,
}

/// `VmHWM` of this process, kB (0 where `/proc` has none).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// What the timed-region bracket measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// See [`PassOutput::setup_s`].
    pub setup_s: f64,
    /// See [`PassOutput::wall_s`].
    pub wall_s: f64,
    /// See [`PassOutput::allocs`].
    pub allocs: u64,
    /// See [`PassOutput::peak_rss_kb`].
    pub peak_rss_kb: u64,
}

impl Timed {
    /// The pass's result, given what the workload counted and harvested.
    pub fn output(self, events: u64, hop_frames: u64, sim: SimStats, layers: Layers) -> PassOutput {
        PassOutput {
            setup_s: self.setup_s,
            wall_s: self.wall_s,
            events,
            hop_frames,
            allocs: self.allocs,
            peak_rss_kb: self.peak_rss_kb,
            sim,
            layers: layers.0,
        }
    }
}

/// Set-ups a pass makes at least. Set-up is short (170 µs for a probe
/// storm), so one reading is mostly noise: the pass sets up repeatedly,
/// keeps the last for the run, and reports the fastest: interference from
/// the box only ever adds time, and a set-up is short enough that some
/// repetition escapes it. (The parent then takes the median over passes.)
pub const SETUP_MIN_REPS: usize = 5;
/// It goes on setting up until that has taken this long in all ...
pub const SETUP_MIN_TOTAL_S: f64 = 0.25;
/// ... or it has set up this many times.
pub const SETUP_MAX_REPS: usize = 1000;

/// The clock of one pass: created first thing, it times the set-ups,
/// brackets the timed region and records the set-up and run spans.
pub struct PassClock {
    started_ns: u64,
    setup_s: f64,
    /// Allocation count when the last set-up began.
    allocs_from: u64,
    /// Spans of this pass.
    pub log: SpanLog,
}

impl PassClock {
    /// Start the pass.
    pub fn start() -> Self {
        let started_ns = trace::now_ns();
        let mut log = SpanLog::new();
        log.name(SETUP, None);
        log.name(RUN, None);
        PassClock {
            started_ns,
            setup_s: 0.0,
            allocs_from: 0,
            log,
        }
    }

    /// Set the workload up several times with `build` (topology,
    /// schedules, apps, corpus — everything before the warm-up slice) and
    /// return the last result. Each earlier one is dropped, untimed,
    /// before the next is built, so memory holds one at a time.
    pub fn set_up<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut times = Vec::new();
        loop {
            self.allocs_from = crate::alloc::allocations();
            let (built, s) = seconds(&mut build);
            times.push(s);
            let enough = times.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S;
            if (times.len() >= SETUP_MIN_REPS && enough) || times.len() >= SETUP_MAX_REPS {
                self.setup_s = crate::stats::min_max(&times).0;
                return built;
            }
        }
    }

    /// Run `body` as the timed region; it may record spans of its own.
    pub fn timed(&mut self, body: impl FnOnce(&mut SpanLog)) -> Timed {
        let open_ns = trace::open_timed_region();
        let t0 = Instant::now();
        body(&mut self.log);
        let wall_s = t0.elapsed().as_secs_f64();
        let close_ns = trace::now_ns();
        let allocs = crate::alloc::allocations() - self.allocs_from;
        let peak_rss_kb = peak_rss_kb();
        let setup = self.log.name(SETUP, None);
        let run = self.log.name(RUN, None);
        self.log.record(setup, self.started_ns, open_ns, true);
        self.log.record(run, open_ns, close_ns, true);
        Timed {
            setup_s: self.setup_s,
            wall_s,
            allocs,
            peak_rss_kb,
        }
    }
}

/// Time `f` in host seconds.
pub fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-layer values of a pass, by name.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64)>);

impl Layers {
    /// Set `name` (names come from [`crate::spec::PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.push((name, value));
    }

    /// The value set for `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The span-derived values of a traced pass.
    pub fn set_spans(&mut self, log: &SpanLog) {
        let s = |ns: u64| ns as f64 / 1e9;
        self.set("host.app.on_start.busy_s", s(log.total_ns(trace::ON_START)));
        self.set("host.app.on_frame.calls", log.calls(trace::ON_FRAME) as f64);
        self.set("host.app.on_frame.busy_s", s(log.total_ns(trace::ON_FRAME)));
        self.set("host.app.on_timer.calls", log.calls(trace::ON_TIMER) as f64);
        self.set("host.app.on_timer.busy_s", s(log.total_ns(trace::ON_TIMER)));
        self.set("netsim.run.self_s", s(log.self_ns(RUN)));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Frames handled by every switch pipeline so far.
pub fn hop_frames(sim: &Simulator) -> u64 {
    (0..sim.num_switches())
        .map(|i| sim.switch(SwitchId(i)).regs().packets_processed)
        .sum()
}

/// `max / mean` of the frames transmitted on `uplinks` (the ports ECMP
/// spreads over); 0 with no traffic.
pub fn uplink_max_over_mean(sim: &Simulator, uplinks: &[Endpoint]) -> f64 {
    let tx: Vec<u64> = uplinks.iter().map(|&e| sim.link_tx_frames(e)).collect();
    let total: u64 = tx.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = tx.iter().copied().max().unwrap_or(0);
    max as f64 * tx.len() as f64 / total as f64
}

/// Means (a): the public counters of a finished simulator. `events` and
/// `hop_frames` are the timed region's; the rest cover the whole run.
pub fn fleet_counters(
    sim: &mut Simulator,
    uplinks: &[Endpoint],
    events: u64,
    hop_frames: u64,
    wall_s: f64,
    layers: &mut Layers,
) {
    let mut tpps = 0;
    let mut total_frames = 0;
    let (mut flow_hits, mut flow_misses) = (0, 0);
    let (mut dec_hits, mut dec_misses) = (0, 0);
    let mut peak_queue = 0;
    let mut violations = 0;
    let mut cycles = tpp_telemetry::Histogram::default();
    let mut tx_frames = 0;
    for i in 0..sim.num_switches() {
        let asic = sim.switch(SwitchId(i));
        tpps += asic.regs().tpps_executed;
        total_frames += asic.regs().packets_processed;
        let (h, m) = asic.flow_cache_stats();
        flow_hits += h;
        flow_misses += m;
        let (h, m) = asic.decode_cache_stats();
        dec_hits += h;
        dec_misses += m;
        peak_queue = peak_queue.max(asic.hottest_queue().2);
        if let Some(p) = asic.profile() {
            violations += p.budget_violations();
            cycles.merge(p.total_stat().hist());
        }
        for port in 0..asic.num_ports() {
            tx_frames += sim.link_tx_frames(Endpoint::switch(SwitchId(i), port as u16));
        }
    }
    for h in 0..sim.num_hosts() {
        for port in 0..sim.host_ports(HostId(h)) {
            tx_frames += sim.link_tx_frames(Endpoint::host_port(HostId(h), port));
        }
    }
    layers.set("asic.hop_frames", hop_frames as f64);
    layers.set("asic.tpps_executed", tpps as f64);
    layers.set("asic.tpp_share", ratio(tpps, total_frames));
    layers.set(
        "asic.flow_cache.hit_ratio",
        ratio(flow_hits, flow_hits + flow_misses),
    );
    layers.set(
        "asic.decode_cache.hit_ratio",
        ratio(dec_hits, dec_hits + dec_misses),
    );
    let (shared, decoded) = sim.program_interner().stats();
    layers.set("asic.interner.decodes", decoded as f64);
    layers.set("asic.interner.shared_hits", shared as f64);
    layers.set("asic.queue.peak_bytes", peak_queue as f64);
    layers.set(
        "asic.bytes_per_switch",
        sim.approx_bytes_per_switch() as f64,
    );
    layers.set("asic.profile.cycles_p50", cycles.p50() as f64);
    layers.set("asic.profile.cycles_p99", cycles.p99() as f64);
    layers.set("asic.profile.budget_violations", violations as f64);
    layers.set("netsim.events", events as f64);
    layers.set(
        "netsim.ns_per_event",
        if events == 0 {
            0.0
        } else {
            wall_s * 1e9 / events as f64
        },
    );
    let (reused, fresh, _) = sim.frame_pool_stats();
    layers.set("netsim.pool.reuse_ratio", ratio(reused, reused + fresh));
    layers.set("netsim.link.tx_frames", tx_frames as f64);
    layers.set(
        "netsim.routing.uplink_max_over_mean",
        uplink_max_over_mean(sim, uplinks),
    );
    let registry = sim.metrics();
    layers.set(
        "asic.queue.drops",
        registry.counter("queue.packets_dropped") as f64,
    );
    layers.set(
        "netsim.link.losses",
        registry.counter("link.frames_lost") as f64,
    );
}

/// The seeded flow schedules of the hosts `macs`, as `fct_bench` assigns
/// them (even hosts draw web-search sizes, odd ones data-mining):
/// `(schedules, flows_total, last_start_ns)`.
pub fn flow_schedules(
    traffic: &TrafficConfig,
    macs: &[EthernetAddress],
) -> (Vec<Vec<Flow>>, u64, u64) {
    let mut flows_total = 0u64;
    let mut last_start = 0u64;
    let schedules = (0..macs.len())
        .map(|i| {
            let dist = if i % 2 == 0 {
                FlowSizeDist::WebSearch
            } else {
                FlowSizeDist::DataMining
            };
            let sched = generate_schedule(traffic, i as u32, macs, dist);
            flows_total += sched.len() as u64;
            last_start = last_start.max(sched.last().map_or(0, |f| f.start_ns));
            sched
        })
        .collect();
    (schedules, flows_total, last_start)
}

/// Completed flows, folded host by host as they are harvested.
#[derive(Debug, Default)]
pub struct Completions {
    /// FCT samples, ns.
    pub lat: Counts,
    /// Bytes of the completed flows.
    pub goodput_bytes: u64,
    /// `completions_fingerprint` of all of them (order-independent).
    pub fingerprint: u64,
}

impl Completions {
    /// Fold the flows that completed at one host.
    pub fn add(&mut self, done: &[Completion]) {
        for c in done {
            self.lat.add(c.fct_ns, 1);
            self.goodput_bytes += c.bytes as u64;
        }
        self.fingerprint = self
            .fingerprint
            .wrapping_add(completions_fingerprint(done.iter().copied()));
    }
}

/// The uplink ports of every edge switch of a k-ary fat-tree with
/// `hosts_per_edge` host ports below them: the ports ECMP spreads over.
pub fn edge_uplinks(tree: &FatTree, hosts_per_edge: usize, k: usize) -> Vec<Endpoint> {
    tree.edges
        .iter()
        .flatten()
        .flat_map(|&edge| {
            (0..k / 2).map(move |a| Endpoint::switch(edge, (hosts_per_edge + a) as u16))
        })
        .collect()
}

/// A failed correctness gate: the pass prints no numbers.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}

/// What a traced pass leaves for the layer probes: frames the workload's
/// hosts were delivered (or, for `asic_churn`, offered), sampled.
pub type Corpus = Vec<Vec<u8>>;

/// One pass of `workload`, bare or traced. On a traced pass the spans
/// and the frame corpus come back beside the output.
pub fn run_pass(
    workload: &str,
    params: &PassParams,
    traced: bool,
) -> Result<(PassOutput, SpanLog, Corpus), String> {
    use crate::trace::{Bare, Spanned};
    match (workload, traced) {
        ("fabric_openloop", false) => fabric::run::<Bare>(params),
        ("fabric_openloop", true) => fabric::run::<Spanned>(params),
        ("probe_storm", false) => probe_storm::run::<Bare>(params, false),
        ("probe_storm", true) => probe_storm::run::<Spanned>(params, false),
        ("probe_storm_obs", false) => probe_storm::run::<Bare>(params, true),
        ("probe_storm_obs", true) => probe_storm::run::<Spanned>(params, true),
        ("closed_loop_lossy", false) => closed_loop::run::<Bare>(params, closed_loop::LOSSY),
        ("closed_loop_lossy", true) => closed_loop::run::<Spanned>(params, closed_loop::LOSSY),
        ("closed_loop_2shards", false) => closed_loop::run::<Bare>(params, closed_loop::TWO_SHARDS),
        ("closed_loop_2shards", true) => {
            closed_loop::run::<Spanned>(params, closed_loop::TWO_SHARDS)
        }
        ("closed_loop_2shards.ref1", false) => {
            closed_loop::run::<Bare>(params, closed_loop::TWO_SHARDS_REF1)
        }
        ("closed_loop_2shards.seq4", false) => {
            closed_loop::run::<Bare>(params, closed_loop::TWO_SHARDS_SEQ4)
        }
        ("asic_churn", _) => asic_churn::run(params, traced),
        _ => Err(format!("unknown workload '{workload}'")),
    }
}

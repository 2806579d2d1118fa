//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root declares the same lists; a
//! unit test keeps the two in step. Later issues refer to metrics by
//! these names, so a name is never redefined — see the README on adding
//! a counter.
//!
//! **Naming rule.** A `sim_` prefix means simulated time or bytes:
//! deterministic, bit-equal for one seed. Everything else is host time
//! (or host memory) on the box that ran it, and is noisy.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Open or closed loop, with its rate or client count.
    pub load: &'static str,
    /// Why it is in the set (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The six workloads, in running order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fabric_openloop",
        load: "open loop: 1,004 hosts start Poisson flows (mean gap 110 us) on schedule whatever the fabric does",
        why: "north-star k=8 fat-tree run: deep event heap, large resident set, >95% plain forwarding, so event core, allocation and flow-cache work show here",
    },
    Workload {
        name: "probe_storm",
        load: "open loop: 8 senders each emit one 10-instruction TPP every 5 us, lossless",
        why: "every frame is a TPP that hits the decode cache and the heap holds <100 events, so TCPU, wire and pool gains show and event-queue gains must not",
    },
    Workload {
        name: "probe_storm_obs",
        load: "open loop: the inputs of probe_storm, stepped in 5 sim-ms slices with one dashboard refresh after each",
        why: "same inputs as probe_storm with profiling, series and a dashboard refresh per slice, so observer-path work shows here and must leave probe_storm unmoved",
    },
    Workload {
        name: "closed_loop_lossy",
        load: "closed loop: 128 hosts, go-back-N senders clamped by their own RCP* probes, 5 permille loss on every fabric link",
        why: "host callbacks, timers, retransmission and ECMP do the work, and only here do tail latency and goodput depend on protocol code",
    },
    Workload {
        name: "closed_loop_2shards",
        load: "closed loop: the closed_loop_lossy generator at a fifth of the flows, 2 shards on 2 threads",
        why: "the only threaded run: barrier wait and mailboxes dominate, and its fingerprint must equal its own 1-shard sequential reference",
    },
    Workload {
        name: "asic_churn",
        load: "open loop: one caller offers seeded Poisson frames to one ASIC at 60% of egress capacity",
        why: "no netsim: 1,024 programs over 64 decode slots, 8,192 flow keys over a 1,024-entry flow cache and table writes beside reads, so miss and invalidation costs show",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share by which two sets of runs **at one seed** may differ
    /// (`selfcheck`); 0 means bit-equal.
    pub same_seed_bound: f64,
    /// Share by which a later commit may be worse **across seeds** — the
    /// `bound` of `BENCHMARK.json`, whose runs each take another seed, so
    /// it also has to cover the seed-to-seed spread of `sim_*` values.
    /// `None`: the metric is not in `BENCHMARK.json`.
    pub bound: Option<f64>,
}

/// `allocs_per_hop_frame` may differ by this share between two runs at
/// one seed on the two workloads of [`UNSTEADY_ALLOC_WORKLOADS`]; on the
/// other four it is bit-equal.
pub const UNSTEADY_ALLOC_BOUND: f64 = 0.01;

/// Where the allocation count is not a pure function of the inputs:
/// `closed_loop_2shards` (mailbox buffers grow with the thread schedule)
/// and `probe_storm_obs` (the observability plane builds strings while
/// iterating hash maps, whose per-process random order decides how often
/// a string regrows: one or two allocations in 14 million).
pub const UNSTEADY_ALLOC_WORKLOADS: [&str; 2] = ["closed_loop_2shards", "probe_storm_obs"];

/// The end-to-end metrics, each defined on every workload. The issue
/// that defined the benchmark named eleven; ten of them are here, plus
/// `sim_lat_mean_us`. The eleventh, `refresh_ms_p50` (one dashboard
/// refresh, `probe_storm_obs` only), is a per-layer metric instead,
/// `obs.refresh_ms_p50`: a 0.5 ms host-time operation whose median moved
/// 14 % between two sets of three runs of the same code on the box that
/// took the baseline, so it cannot hold a 10 % bound.
///
/// The nine with a `bound` are non-zero and different from seed to seed
/// on every workload, and are the `end_to_end` list of `BENCHMARK.json`.
/// The other two cannot be:
///
/// * `sim_lat_p50_us` reads the same at every seed on the closed-loop
///   workloads (the median flow is a 512 B single-segment inter-pod flow:
///   7.203 µs), and the acceptance driver refuses a time that never
///   changes; `sim_lat_mean_us` stands in for it there.
/// * `fail_share` is 0 on every workload (no operation fails);
///   `BENCHMARK.json` carries it as `attempted` / `failed`.
///
/// `run`, `all` and `selfcheck` print all eleven.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        same_seed_bound: 0.10,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        same_seed_bound: 0.10,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        same_seed_bound: 0.10,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "hop_frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        same_seed_bound: 0.10,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "allocs_per_hop_frame",
        unit: "count",
        better: Better::Lower,
        same_seed_bound: 0.0,
        bound: Some(0.10),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        same_seed_bound: 0.05,
        bound: Some(0.20),
    },
    EndToEnd {
        name: "sim_lat_mean_us",
        unit: "us",
        better: Better::Lower,
        same_seed_bound: 0.0,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "sim_lat_p50_us",
        unit: "us",
        better: Better::Lower,
        same_seed_bound: 0.0,
        bound: None,
    },
    EndToEnd {
        name: "sim_lat_p999_us",
        unit: "us",
        better: Better::Lower,
        same_seed_bound: 0.0,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "sim_goodput_mbps",
        unit: "Mb/s",
        better: Better::Higher,
        same_seed_bound: 0.0,
        bound: Some(0.15),
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        same_seed_bound: 0.0,
        bound: None,
    },
];

/// One per-layer metric. Layers are crate and module names.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<crate>.<module or object>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, all taken from outside the crates in the one
/// traced run of a workload: (a) public counters read after the run,
/// (b) spans from [`crate::trace::Traced`], (c) layer probes. A metric a
/// workload does not have (no transport, no observability plane, no
/// second shard) reads 0 there.
pub const PER_LAYER: [Layer; 69] = [
    // wire
    lower("wire.parse_ns", "ns"),
    lower("wire.build_ns", "ns"),
    // isa
    lower("isa.assemble_ns", "ns"),
    lower("isa.encode_ns", "ns"),
    lower("isa.decode_ns", "ns"),
    // asic
    lower("asic.hop_frames", "count"),
    lower("asic.tpps_executed", "count"),
    lower("asic.tpp_share", "ratio"),
    lower("asic.handle_frame_ns.plain", "ns"),
    lower("asic.handle_frame_ns.tpp", "ns"),
    lower("asic.dequeue_ns", "ns"),
    lower("asic.install_flow_ns", "ns"),
    lower("asic.tick_ns", "ns"),
    higher("asic.flow_cache.hit_ratio", "ratio"),
    higher("asic.decode_cache.hit_ratio", "ratio"),
    lower("asic.interner.decodes", "count"),
    higher("asic.interner.shared_hits", "count"),
    lower("asic.queue.drops", "count"),
    lower("asic.queue.peak_bytes", "bytes"),
    lower("asic.bytes_per_switch", "bytes"),
    lower("asic.est_busy_s", "s"),
    lower("asic.profile.cycles_p50", "cycles"),
    lower("asic.profile.cycles_p99", "cycles"),
    lower("asic.profile.budget_violations", "count"),
    // netsim: run and build
    lower("netsim.events", "count"),
    lower("netsim.ns_per_event", "ns"),
    lower("netsim.build_s", "s"),
    lower("netsim.run.self_s", "s"),
    lower("netsim.run.residual_s", "s"),
    // netsim: event queue
    lower("netsim.event.hold_ns.1k", "ns"),
    lower("netsim.event.hold_ns.100k", "ns"),
    lower("netsim.event.hold_ns.1m", "ns"),
    // netsim: pool, links, routing
    higher("netsim.pool.reuse_ratio", "ratio"),
    lower("netsim.pool.alloc_recycle_ns", "ns"),
    lower("netsim.link.tx_frames", "count"),
    lower("netsim.link.losses", "count"),
    lower("netsim.routing.pick_ns", "ns"),
    lower("netsim.routing.uplink_max_over_mean", "ratio"),
    // netsim: sharding
    lower("netsim.shard.seq4_wall_ratio", "ratio"),
    lower("netsim.shard.threaded2_wall_ratio", "ratio"),
    // host
    lower("host.app.on_start.busy_s", "s"),
    lower("host.app.on_frame.calls", "count"),
    lower("host.app.on_frame.busy_s", "s"),
    lower("host.app.on_timer.calls", "count"),
    lower("host.app.on_timer.busy_s", "s"),
    lower("host.transport.ns_per_segment", "ns"),
    lower("host.transport.segments_sent", "count"),
    lower("host.transport.retransmits", "count"),
    lower("host.transport.retransmit_ratio", "ratio"),
    lower("host.transport.rto_fires", "count"),
    lower("host.transport.fast_retransmits", "count"),
    lower("host.transport.dup_segments_rx", "count"),
    lower("host.transport.acks_sent", "count"),
    lower("host.transport.rate_limited_polls", "count"),
    lower("host.transport.flows_given_up", "count"),
    // apps
    higher("apps.microburst.probes", "count"),
    higher("apps.ndb.traces", "count"),
    higher("apps.rcpstar.flows_completed", "count"),
    // obs / telemetry
    lower("obs.snapshot_ns", "ns"),
    lower("obs.render_ns", "ns"),
    lower("obs.prom_export_ns", "ns"),
    lower("obs.series_jsonl_ns", "ns"),
    lower("obs.window_push_ns", "ns"),
    lower("obs.refresh_ms_p50", "ms"),
    lower("obs.refresh_ms_p99", "ms"),
    lower("telemetry.histogram_record_ns", "ns"),
    // bench
    lower("bench.traffic.schedule_s", "s"),
    lower("bench.harvest_s", "s"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == END_TO_END.iter().filter_map(|m| m.bound).reduce(f64::max)));
    }

    /// `BENCHMARK.json` is outside this package; in a tree that has it,
    /// it must declare exactly these lists.
    #[test]
    fn benchmark_json_declares_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Json::from("benchmark")]
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(got.get("why").unwrap().as_str(), Some(want.why));
        }

        let declared: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.bound.is_some()).collect();
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), declared.len());
        for (got, want) in e2e.iter().zip(declared) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(want.better.as_str())
            );
            assert_eq!(got.get("bound").unwrap().as_f64(), want.bound);
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(want.better.as_str())
            );
        }
    }
}

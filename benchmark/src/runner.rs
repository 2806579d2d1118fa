//! The parent side: spawn one child process per pass, gate the results
//! against each other, and reduce them to named metrics.
//!
//! One child per `(workload, run)` keeps `VmHWM` and the allocation count
//! of a pass its own. Host-time metrics are the median over the untraced
//! passes; per-layer metrics come from one traced pass.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host::{host_block, Host};
use crate::json::{obj, Json};
use crate::pass;
use crate::probes;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max};
use crate::workloads::{self, Layers, PassOutput, PassParams};

/// Where traces and result files go: `benchmark/out/`, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The child's side of a pass: run it, on a traced pass also run the
/// layer probes and write the spans, and return the JSON line.
pub fn child(workload: &str, params: &PassParams, traced: bool) -> Result<String, String> {
    let (mut out, log, corpus) = workloads::run_pass(workload, params, traced)?;
    if traced {
        let mut layers = Layers(std::mem::take(&mut out.layers));
        let asic = if workload == "asic_churn" {
            workloads::asic_churn::populated_asic()
        } else {
            probes::l2_only_asic(&corpus)
        };
        let (plain_ns, tpp_ns, dequeue_ns) = probes::run(&corpus, asic, &mut layers);
        // Every hop-frame is handled once (as a plain frame or a TPP)
        // and dequeued once.
        let share = layers.get("asic.tpp_share");
        let est_busy_s =
            out.hop_frames as f64 * ((1.0 - share) * plain_ns + share * tpp_ns + dequeue_ns) / 1e9;
        layers.set("asic.est_busy_s", est_busy_s);
        layers.set(
            "netsim.run.residual_s",
            layers.get("netsim.run.self_s") - est_busy_s,
        );
        out.layers = layers.0;

        let run_id = format!("{workload}-s{:x}-r{}", params.seed, params.run_index);
        let path = out_dir().join(format!("{workload}.trace.jsonl"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, log.to_jsonl(&run_id)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let mut doc = pass::to_json(&out);
    if let Json::Obj(members) = &mut doc {
        members.insert(0, ("workload".into(), Json::from(workload)));
        members.insert(1, ("traced".into(), Json::from(traced)));
        members.push((
            "host".into(),
            host_block(
                &Host::probe(),
                params.seed,
                params.scale,
                Some(params.run_index),
            ),
        ));
    }
    Ok(doc.encode())
}

/// Run one pass in a child process of its own and wait for it.
fn spawn_pass(workload: &str, params: &PassParams, traced: bool) -> Result<PassOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", workload])
        .args(["--seed", &params.seed.to_string()])
        .args(["--scale", &params.scale.to_string()])
        .args(["--run-index", &params.run_index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a pass of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: pass failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload}: pass printed nothing"))?;
    pass::from_json(&Json::parse(line)?)
}

/// Untraced runs `run`, `all` and `selfcheck` take the median of.
pub const RUNS: usize = 3;

/// How many untraced passes to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many.
    Passes(usize),
    /// As many as it takes for their timed regions to add up to this
    /// many host seconds (at least [`MIN_PASSES`], so that the median
    /// shrugs off one disturbed pass; at most [`MAX_PASSES`]).
    Seconds(f64),
}

/// Lower limit on passes under [`Budget::Seconds`].
pub const MIN_PASSES: usize = 3;
/// Upper limit on passes under [`Budget::Seconds`].
pub const MAX_PASSES: usize = 64;

/// Every pass of one workload at one seed and scale, gated.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Size factor.
    pub scale: f64,
    /// The untraced passes, in running order.
    pub passes: Vec<PassOutput>,
    /// The traced pass, when one was asked for.
    pub traced: Option<PassOutput>,
    /// Per-layer values only the parent can compute (ratios between
    /// passes).
    pub extra: Vec<(&'static str, f64)>,
}

fn same_sim(a: &PassOutput, b: &PassOutput, what: &str) -> Result<(), String> {
    workloads::gate(a.sim == b.sim, || {
        format!(
            "{what}: simulated statistics differ\n  {}\n  {}",
            pass::sim_to_json(&a.sim).encode(),
            pass::sim_to_json(&b.sim).encode()
        )
    })
}

/// Run `workload` and gate it. `Err` means a gate failed or a pass
/// crashed: the caller prints no numbers.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    scale: f64,
    budget: Budget,
    traced: bool,
) -> Result<Measurement, String> {
    let name = workload.name;
    let params = |run_index: usize| PassParams {
        seed,
        scale,
        run_index: run_index as u64,
    };
    let mut passes: Vec<PassOutput> = Vec::new();
    loop {
        passes.push(spawn_pass(name, &params(passes.len()), false)?);
        let done = match budget {
            Budget::Passes(n) => passes.len() >= n,
            Budget::Seconds(s) => {
                let measured: f64 = passes.iter().map(|p| p.wall_s).sum();
                (measured >= s && passes.len() >= MIN_PASSES) || passes.len() >= MAX_PASSES
            }
        };
        if done {
            break;
        }
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        same_sim(&passes[0], p, &format!("{name}: run 0 against run {i}"))?;
    }
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut extra = Vec::new();

    // Reference runs: untimed, same seed and scale.
    if name == "probe_storm_obs" {
        let plain = spawn_pass("probe_storm", &params(0), false)?;
        same_sim(&passes[0], &plain, "probe_storm_obs against probe_storm")?;
    }
    if name == "closed_loop_2shards" {
        let ref1 = spawn_pass("closed_loop_2shards.ref1", &params(0), false)?;
        same_sim(
            &passes[0],
            &ref1,
            "closed_loop_2shards against its 1-shard sequential reference",
        )?;
        extra.push((
            "netsim.shard.threaded2_wall_ratio",
            median(&wall) / ref1.wall_s,
        ));
        if traced {
            let seq4 = spawn_pass("closed_loop_2shards.seq4", &params(0), false)?;
            same_sim(&passes[0], &seq4, "closed_loop_2shards against 4 shards")?;
            extra.push(("netsim.shard.seq4_wall_ratio", seq4.wall_s / ref1.wall_s));
        }
    }

    let traced = if traced {
        let t = spawn_pass(name, &params(passes.len()), true)?;
        same_sim(&passes[0], &t, &format!("{name}: traced against untraced"))?;
        extra.push(("bench.trace_overhead_ratio", t.wall_s / median(&wall)));
        Some(t)
    } else {
        None
    };
    Ok(Measurement {
        workload,
        seed,
        scale,
        passes,
        traced,
        extra,
    })
}

/// The value of end-to-end metric `name` in one pass, where defined.
pub fn e2e_value(name: &str, p: &PassOutput) -> Option<f64> {
    let per_wall = |count: u64| count as f64 / p.wall_s;
    Some(match name {
        "setup_s" => p.setup_s,
        "wall_s" => p.wall_s,
        "events_per_s" => per_wall(p.events),
        "hop_frames_per_s" => per_wall(p.hop_frames),
        "allocs_per_hop_frame" => p.allocs as f64 / p.hop_frames.max(1) as f64,
        "peak_rss_mb" => p.peak_rss_kb as f64 / 1024.0,
        "sim_lat_mean_us" => p.sim.lat_sum_ns as f64 / p.sim.n.max(1) as f64 / 1e3,
        "sim_lat_p50_us" => p.sim.lat_p50_ns as f64 / 1e3,
        "sim_lat_p999_us" => p.sim.lat_tail_ns as f64 / 1e3,
        // bytes * 8 / ns = Gb/s; * 1000 = Mb/s.
        "sim_goodput_mbps" => p.sim.goodput_bytes as f64 * 8e3 / p.sim.sim_ns.max(1) as f64,
        "fail_share" => p.sim.ops_failed as f64 / p.sim.ops.max(1) as f64,
        _ => return None,
    })
}

/// One end-to-end metric over the untraced passes.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eRow {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over the passes.
    pub median: f64,
    /// Smallest pass.
    pub min: f64,
    /// Largest pass.
    pub max: f64,
}

impl Measurement {
    /// Every end-to-end metric defined on this workload.
    pub fn end_to_end(&self) -> Vec<E2eRow> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let values: Vec<f64> = self
                    .passes
                    .iter()
                    .filter_map(|p| e2e_value(m.name, p))
                    .collect();
                (!values.is_empty()).then(|| {
                    let (min, max) = min_max(&values);
                    E2eRow {
                        name: m.name,
                        unit: m.unit,
                        median: median(&values),
                        min,
                        max,
                    }
                })
            })
            .collect()
    }

    /// Every per-layer metric, in declaration order, from the traced
    /// pass; a metric the workload does not have reads 0.
    pub fn per_layer(&self) -> Option<Vec<(&'static str, &'static str, f64)>> {
        let traced = self.traced.as_ref()?;
        Some(
            PER_LAYER
                .iter()
                .map(|l| {
                    let value = self
                        .extra
                        .iter()
                        .chain(traced.layers.iter())
                        .find(|(k, _)| *k == l.name)
                        .map_or(0.0, |&(_, v)| v);
                    (l.name, l.unit, value)
                })
                .collect(),
        )
    }

    /// `host.app.*.busy_s + asic.est_busy_s + netsim.run.residual_s`
    /// against the traced pass's `wall_s`: `(host, asic, residual, wall)`.
    /// Equal by construction up to the span bracket's own few clock
    /// reads; reported, not gated.
    pub fn reconciliation(&self) -> Option<(f64, f64, f64, f64)> {
        let traced = self.traced.as_ref()?;
        let layers = self.per_layer()?;
        let get = |name: &str| {
            layers
                .iter()
                .find(|(k, _, _)| *k == name)
                .map_or(0.0, |&(_, _, v)| v)
        };
        // Spans under the run span other than the callbacks (dashboard
        // refreshes) count with the host side.
        let host = traced.wall_s - get("netsim.run.self_s");
        Some((
            host,
            get("asic.est_busy_s"),
            get("netsim.run.residual_s"),
            traced.wall_s,
        ))
    }

    /// The machine-readable result, with its `host` block.
    pub fn to_json(&self, host: &Host) -> Json {
        let first = &self.passes[0];
        let mut members = vec![
            ("workload", Json::from(self.workload.name)),
            ("load", Json::from(self.workload.load)),
            ("host", host_block(host, self.seed, self.scale, None)),
            ("runs", Json::from(self.passes.len() as u64)),
            ("sim", pass::sim_to_json(&first.sim)),
            (
                "end_to_end",
                obj(self.end_to_end().into_iter().map(|r| {
                    (
                        r.name,
                        obj([
                            ("value", Json::from(r.median)),
                            ("min", Json::from(r.min)),
                            ("max", Json::from(r.max)),
                            ("unit", Json::from(r.unit)),
                        ]),
                    )
                })),
            ),
        ];
        if let Some(layers) = self.per_layer() {
            members.push((
                "per_layer",
                obj(layers.into_iter().map(|(name, unit, value)| {
                    (
                        name,
                        obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                    )
                })),
            ));
        }
        if let Some((host_s, asic_s, residual_s, wall_s)) = self.reconciliation() {
            members.push((
                "reconciliation",
                obj([
                    ("host_busy_s", Json::from(host_s)),
                    ("asic_est_busy_s", Json::from(asic_s)),
                    ("residual_s", Json::from(residual_s)),
                    ("traced_wall_s", Json::from(wall_s)),
                    ("residual_share", Json::from(residual_s / wall_s)),
                ]),
            ));
        }
        obj(members)
    }

    /// The report `run` and `all` print.
    pub fn report(&self, host: &Host) -> String {
        use std::fmt::Write as _;
        let sim = &self.passes[0].sim;
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.workload.name);
        let _ = writeln!(out, "   {}", self.workload.load);
        let _ = writeln!(
            out,
            "   host: nproc {} | {} | git {} | seed {:#x} | scale {}",
            host.nproc, host.rustc, host.git_sha, self.seed, self.scale
        );
        let _ = writeln!(
            out,
            "   ops {}  ops_failed {}  ops_unfinished {}  n {}  tail {}  sim {:.3} ms  fingerprint {}",
            sim.ops,
            sim.ops_failed,
            sim.ops_unfinished,
            sim.n,
            sim.lat_tail,
            sim.sim_ns as f64 / 1e6,
            pass::hex(sim.fingerprint)
        );
        let _ = writeln!(
            out,
            "   end to end: median of {} untraced run(s) [min .. max]",
            self.passes.len()
        );
        for r in self.end_to_end() {
            let _ = writeln!(
                out,
                "     {:<22} {:>16} {:<6} [{} .. {}]",
                r.name,
                show(r.median),
                r.unit,
                show(r.min),
                show(r.max)
            );
        }
        if let Some(layers) = self.per_layer() {
            let _ = writeln!(out, "   per layer: 1 traced run");
            for (name, unit, value) in layers {
                let _ = writeln!(out, "     {name:<38} {:>16} {unit}", show(value));
            }
        }
        if let Some((host_s, asic_s, residual_s, wall_s)) = self.reconciliation() {
            let _ = writeln!(
                out,
                "   reconciliation: host {} s + asic.est_busy {} s + residual {} s = traced wall {} s \
                 (residual {:.1} %)",
                show(host_s),
                show(asic_s),
                show(residual_s),
                show(wall_s),
                100.0 * residual_s / wall_s
            );
        }
        out
    }
}

/// A number for people: whole numbers whole, the rest to ~6 digits.
pub fn show(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// The one JSON object the acceptance driver reads: end-to-end metrics
/// of `BENCHMARK.json` when untraced, every per-layer metric when traced.
pub fn driver_line(m: &Measurement) -> String {
    let sim = &m.passes[0].sim;
    let metrics: Vec<(&str, Json)> = match m.per_layer() {
        Some(layers) => layers
            .into_iter()
            .map(|(name, unit, value)| {
                (
                    name,
                    obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
        None => m
            .end_to_end()
            .into_iter()
            .filter(|r| {
                END_TO_END
                    .iter()
                    .any(|s| s.name == r.name && s.bound.is_some())
            })
            .map(|r| {
                (
                    r.name,
                    obj([
                        ("value", Json::from(r.median)),
                        ("unit", Json::from(r.unit)),
                    ]),
                )
            })
            .collect(),
    };
    obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(sim.ops)),
        ("failed", Json::from(sim.ops_failed)),
        ("metrics", obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::workloads::SimStats;

    fn pass_with(wall_s: f64, allocs: u64) -> PassOutput {
        PassOutput {
            setup_s: 0.5,
            wall_s,
            events: 1_000_000,
            hop_frames: 400_000,
            allocs,
            peak_rss_kb: 2048,
            sim: SimStats {
                ops: 100,
                ops_failed: 0,
                ops_unfinished: 1,
                n: 99,
                lat_sum_ns: 198_000,
                lat_p50_ns: 1500,
                lat_tail: "p90".into(),
                lat_tail_ns: 9000,
                goodput_bytes: 1_000_000,
                sim_ns: 1_000_000,
                fingerprint: 7,
            },
            layers: vec![("asic.hop_frames", 400_000.0), ("netsim.run.self_s", 1.5)],
        }
    }

    fn measurement(name: &str, traced: bool) -> Measurement {
        Measurement {
            workload: workload(name).unwrap(),
            seed: 1,
            scale: 0.5,
            passes: vec![
                pass_with(2.0, 800),
                pass_with(4.0, 800),
                pass_with(2.5, 800),
            ],
            traced: traced.then(|| pass_with(2.6, 900)),
            extra: vec![("bench.trace_overhead_ratio", 1.04)],
        }
    }

    #[test]
    fn end_to_end_is_the_median_with_min_and_max() {
        let rows = measurement("probe_storm", false).end_to_end();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(rows.len(), END_TO_END.len());
        let wall = get("wall_s");
        assert_eq!((wall.median, wall.min, wall.max), (2.5, 2.0, 4.0));
        assert_eq!(get("events_per_s").median, 400_000.0);
        assert_eq!(get("allocs_per_hop_frame").median, 0.002);
        assert_eq!(get("peak_rss_mb").median, 2.0);
        assert_eq!(get("sim_lat_mean_us").median, 2.0);
        assert_eq!(get("sim_lat_p50_us").median, 1.5);
        assert_eq!(get("sim_lat_p999_us").median, 9.0);
        assert_eq!(get("sim_goodput_mbps").median, 8000.0);
        assert_eq!(get("fail_share").median, 0.0);
    }

    #[test]
    fn per_layer_lists_every_declared_metric_once() {
        assert!(measurement("probe_storm", false).per_layer().is_none());
        let layers = measurement("probe_storm", true).per_layer().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |n: &str| layers.iter().find(|(k, _, _)| *k == n).unwrap().2;
        assert_eq!(get("asic.hop_frames"), 400_000.0);
        assert_eq!(get("bench.trace_overhead_ratio"), 1.04);
        assert_eq!(get("host.transport.retransmits"), 0.0, "absent reads 0");
    }

    #[test]
    fn driver_line_has_the_four_keys_and_the_declared_metrics() {
        let line = driver_line(&measurement("probe_storm_obs", false));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(100));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        let declared: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| m.name)
            .collect();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, declared);
        assert_eq!(
            metrics[0].1.get("unit").unwrap().as_str(),
            Some("s"),
            "setup_s is in seconds"
        );

        let traced = driver_line(&measurement("probe_storm", true));
        let doc = Json::parse(&traced).unwrap();
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn reconciliation_adds_up_to_the_traced_wall() {
        let mut m = measurement("probe_storm", true);
        let t = m.traced.as_mut().unwrap();
        t.layers.push(("asic.est_busy_s", 1.0));
        t.layers.push(("netsim.run.residual_s", 0.5));
        let (host, asic, residual, wall) = m.reconciliation().unwrap();
        assert_eq!(wall, 2.6);
        assert!((host + asic + residual - wall).abs() < 1e-12);
    }

    #[test]
    fn numbers_for_people() {
        assert_eq!(show(1_131_600.0), "1131600");
        assert_eq!(show(3_040_000.4), "3040000.4");
        assert_eq!(show(18.20394), "18.2039");
        assert_eq!(show(0.00052), "0.000520");
    }
}

//! `selfcheck`: the whole set of workloads twice with the same code, A
//! then B, and every end-to-end metric compared against its own
//! same-seed bound. Host-time metrics may differ by their noise bound;
//! `sim_*`, `fail_share` and, where it is a pure function of the inputs,
//! `allocs_per_hop_frame` must be bit-equal. The table it writes is the
//! first point of the trajectory (`results/baseline.json`).

use crate::host::{host_block, Host};
use crate::json::{obj, Json};
use crate::runner::{measure, show, Budget, Measurement, RUNS};
use crate::spec::{END_TO_END, UNSTEADY_ALLOC_BOUND, UNSTEADY_ALLOC_WORKLOADS, WORKLOADS};

/// One `(workload, metric)` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median of set A.
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// `|b - a| / |a|` (0 when both are 0).
    pub rel_diff: f64,
    /// The metric's same-seed bound on this workload.
    pub bound: f64,
}

impl Row {
    /// Whether the two sets agree within the bound.
    pub fn ok(&self) -> bool {
        self.rel_diff <= self.bound
    }
}

/// The same-seed bound of `metric` on `workload`.
pub fn bound_for(workload: &str, metric: &str) -> f64 {
    if metric == "allocs_per_hop_frame" && UNSTEADY_ALLOC_WORKLOADS.contains(&workload) {
        return UNSTEADY_ALLOC_BOUND;
    }
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map_or(0.0, |m| m.same_seed_bound)
}

/// Compare two measurements of one workload.
pub fn compare(a: &Measurement, b: &Measurement) -> Vec<Row> {
    let (rows_a, rows_b) = (a.end_to_end(), b.end_to_end());
    rows_a
        .iter()
        .filter_map(|ra| {
            let rb = rows_b.iter().find(|r| r.name == ra.name)?;
            let rel_diff = if ra.median == rb.median {
                0.0
            } else {
                (rb.median - ra.median).abs() / ra.median.abs().max(f64::MIN_POSITIVE)
            };
            Some(Row {
                workload: a.workload.name,
                metric: ra.name,
                unit: ra.unit,
                a: ra.median,
                b: rb.median,
                rel_diff,
                bound: bound_for(a.workload.name, ra.name),
            })
        })
        .collect()
}

/// Run both sets. Returns the printed table, the JSON document, and
/// whether every row held.
pub fn run(seed: u64, scale: f64, host: &Host) -> Result<(String, Json, bool), String> {
    use std::fmt::Write as _;
    let mut set_a = Vec::new();
    for w in &WORKLOADS {
        eprintln!("selfcheck: set A, {}", w.name);
        set_a.push(measure(w, seed, scale, Budget::Passes(RUNS), true)?);
    }
    let mut rows = Vec::new();
    for (w, a) in WORKLOADS.iter().zip(&set_a) {
        eprintln!("selfcheck: set B, {}", w.name);
        let b = measure(w, seed, scale, Budget::Passes(RUNS), false)?;
        rows.extend(compare(a, &b));
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<20} {:<22} {:>16} {:>16} {:>10} {:>8}  verdict",
        "workload", "metric", "A", "B", "rel diff", "bound"
    );
    for r in &rows {
        let _ = writeln!(
            table,
            "{:<20} {:<22} {:>16} {:>16} {:>9.3}% {:>7.1}%  {}",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            100.0 * r.rel_diff,
            100.0 * r.bound,
            if r.ok() { "ok" } else { "EXCEEDS" }
        );
    }
    let all_ok = rows.iter().all(Row::ok);
    let doc = obj([
        ("host", host_block(host, seed, scale, None)),
        ("runs_per_set", Json::from(RUNS as u64)),
        ("agrees", Json::from(all_ok)),
        (
            "selfcheck",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj([
                            ("workload", Json::from(r.workload)),
                            ("metric", Json::from(r.metric)),
                            ("unit", Json::from(r.unit)),
                            ("a", Json::from(r.a)),
                            ("b", Json::from(r.b)),
                            ("rel_diff", Json::from(r.rel_diff)),
                            ("bound", Json::from(r.bound)),
                            ("ok", Json::from(r.ok())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Arr(set_a.iter().map(|m| m.to_json(host)).collect()),
        ),
    ]);
    Ok((table, doc, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_the_metric_s_own() {
        assert_eq!(bound_for("fabric_openloop", "wall_s"), 0.10);
        assert_eq!(bound_for("fabric_openloop", "peak_rss_mb"), 0.05);
        assert_eq!(bound_for("fabric_openloop", "sim_lat_p999_us"), 0.0);
        assert_eq!(bound_for("fabric_openloop", "allocs_per_hop_frame"), 0.0);
        assert_eq!(
            bound_for("closed_loop_2shards", "allocs_per_hop_frame"),
            0.01
        );
        assert_eq!(bound_for("probe_storm_obs", "allocs_per_hop_frame"), 0.01);
        assert_eq!(bound_for("probe_storm", "allocs_per_hop_frame"), 0.0);
    }

    #[test]
    fn exact_metrics_fail_on_any_difference() {
        let exact = Row {
            workload: "probe_storm",
            metric: "sim_lat_p50_us",
            unit: "us",
            a: 3.0,
            b: 3.0,
            rel_diff: 0.0,
            bound: 0.0,
        };
        assert!(exact.ok());
        assert!(!Row {
            rel_diff: 1e-9,
            ..exact.clone()
        }
        .ok());
        assert!(Row {
            metric: "wall_s",
            rel_diff: 0.08,
            bound: 0.10,
            ..exact
        }
        .ok());
    }
}

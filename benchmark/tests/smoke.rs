//! `--scale 0.02` smoke of the built binary: all six workloads with
//! their correctness gates, the driver's output format, one traced run,
//! and the exit codes.

use std::process::{Command, Output};

use tpp_benchmark::json::Json;
use tpp_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

const SCALE: &str = "0.02";

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpp-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn bench(workload: &str, seed: &str, trace: &str) -> Json {
    let out = benchmark(&[
        "bench",
        "--scale",
        SCALE,
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.01",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().next_back().expect("a result line");
    let doc = Json::parse(line).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    assert!(doc.get("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    doc
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_passes_its_gates_and_prints_every_end_to_end_metric() {
    let declared: Vec<_> = END_TO_END.iter().filter(|m| m.bound.is_some()).collect();
    for w in &WORKLOADS {
        let doc = bench(w.name, "11", "0");
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), declared.len(), "{}", w.name);
        for (spec, (name, value)) in declared.iter().zip(metrics) {
            assert_eq!(name, spec.name, "{}", w.name);
            assert_eq!(value.get("unit").unwrap().as_str(), Some(spec.unit));
            let v = value.get("value").unwrap().as_f64().unwrap();
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name);
        }
    }
}

#[test]
fn the_same_seed_repeats_simulated_statistics_and_another_seed_does_not() {
    let a = bench("asic_churn", "5", "0");
    let b = bench("asic_churn", "5", "0");
    let c = bench("asic_churn", "6", "0");
    for name in ["sim_lat_mean_us", "sim_lat_p999_us", "sim_goodput_mbps"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    assert_ne!(metric(&a, "sim_lat_mean_us"), metric(&c, "sim_lat_mean_us"));
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_and_writes_its_spans() {
    let doc = bench("probe_storm_obs", "11", "1");
    let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (spec, (name, value)) in PER_LAYER.iter().zip(metrics) {
        assert_eq!(name, spec.name);
        assert_eq!(value.get("unit").unwrap().as_str(), Some(spec.unit));
        assert!(value.get("value").unwrap().as_f64().unwrap().is_finite());
    }
    for name in [
        "wire.parse_ns",
        "asic.handle_frame_ns.tpp",
        "netsim.event.hold_ns.1m",
        "host.app.on_frame.calls",
        "obs.render_ns",
        "obs.refresh_ms_p50",
        "asic.profile.cycles_p50",
        "bench.trace_overhead_ratio",
    ] {
        assert!(metric(&doc, name) > 0.0, "{name} is 0 on probe_storm_obs");
    }
    // By construction: spans under the run + asic estimate + residual
    // make up the traced wall time, so self >= residual + estimate - eps.
    let self_s = metric(&doc, "netsim.run.self_s");
    let sum = metric(&doc, "asic.est_busy_s") + metric(&doc, "netsim.run.residual_s");
    assert!((self_s - sum).abs() < 1e-9, "{self_s} vs {sum}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/probe_storm_obs.trace.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("the traced run wrote its spans");
    let mut names = std::collections::BTreeSet::new();
    for line in text.lines() {
        let span = Json::parse(line).unwrap();
        let keys: Vec<&str> = span
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "start_ns", "end_ns", "parent", "run_id"]);
        assert!(
            span.get("end_ns").unwrap().as_u64() >= span.get("start_ns").unwrap().as_u64(),
            "{line}"
        );
        names.insert(span.get("name").unwrap().as_str().unwrap().to_string());
    }
    for name in [
        "bench.setup",
        "netsim.run",
        "host.app.on_frame",
        "obs.refresh",
    ] {
        assert!(names.contains(name), "no {name} span in {names:?}");
    }
}

#[test]
fn unknown_arguments_exit_2_with_usage_and_a_failed_run_prints_no_numbers() {
    let out = benchmark(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tpp-benchmark"));
    assert!(out.stdout.is_empty());

    let out = benchmark(&["pass", "no_such_workload", "--scale", SCALE]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "a failed pass printed a result");

    let out = benchmark(&["list", "--manifest"]);
    assert!(out.status.success());
    let manifest = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        manifest.get("workloads").unwrap().as_arr().unwrap().len(),
        WORKLOADS.len()
    );
}

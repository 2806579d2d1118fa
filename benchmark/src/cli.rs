//! The command line.
//!
//! ```text
//! tpp-benchmark list [--manifest]
//! tpp-benchmark run <workload> [--seed N] [--scale F] [--traced]
//! tpp-benchmark all [--seed N] [--scale F]
//! tpp-benchmark selfcheck [--seed N] [--scale F]
//! tpp-benchmark bench --workload <name> --seed N --seconds S --trace 0|1 [--scale F]
//! ```
//!
//! `bench` is the form `BENCHMARK.json` declares. Anything unknown
//! prints the usage and exits 2.

use crate::host::Host;
use crate::json::{obj, Json};
use crate::runner::{self, Budget, RUNS};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{PassParams, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The `--scale` the command of `BENCHMARK.json` passes: the acceptance
/// driver's time cap (136 invocations in 57 minutes) is tighter than
/// full-size runs allow, so every count shrinks by this one factor and
/// the untraced pass is repeated until `run_seconds` are measured.
pub const MANIFEST_SCALE: &str = "0.4";

const USAGE: &str = "\
usage: tpp-benchmark <command>

  list [--manifest]                      workloads and metrics (--manifest: BENCHMARK.json)
  run <workload> [--seed N] [--scale F] [--traced]
                                         3 untraced runs, with --traced 1 traced run more
  all [--seed N] [--scale F]             every workload: 3 untraced runs + 1 traced run
  selfcheck [--seed N] [--scale F]       the whole set twice, A then B, against the bounds
  bench --workload <name> --seed N --seconds S --trace 0|1 [--scale F]
                                         one result line for the acceptance driver

  --seed takes decimal or 0x hex (default 0xfc7beef, the tracked seed).
  --scale multiplies every count of every workload (default 1).";

/// Flags after the command word.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    positional: Vec<String>,
    seed: Option<u64>,
    scale: Option<f64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    workload: Option<String>,
    run_index: Option<u64>,
    traced: bool,
    manifest: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                f.seed = Some(parse_seed(&v).ok_or_else(|| format!("bad --seed '{v}'"))?);
            }
            "--scale" => {
                let v = value("--scale")?;
                f.scale = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 16.0)
                        .ok_or_else(|| format!("bad --scale '{v}' (0 < F <= 16)"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                f.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or_else(|| format!("bad --seconds '{v}'"))?,
                );
            }
            "--trace" => {
                f.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                });
            }
            "--workload" => f.workload = Some(value("--workload")?),
            "--run-index" => {
                let v = value("--run-index")?;
                f.run_index = Some(v.parse().map_err(|_| format!("bad --run-index '{v}'"))?);
            }
            "--traced" => f.traced = true,
            "--manifest" => f.manifest = true,
            s if s.starts_with('-') => return Err(format!("unknown option '{s}'")),
            s => f.positional.push(s.to_string()),
        }
    }
    Ok(f)
}

/// `BENCHMARK.json`, generated from [`crate::spec`].
pub fn manifest() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "bench",
        "--scale",
        MANIFEST_SCALE,
    ]
    .map(Json::from)
    .to_vec();
    obj([
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        Some(obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound?)),
                        ]))
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        obj([
                            ("name", Json::from(l.name)),
                            ("unit", Json::from(l.unit)),
                            ("better", Json::from(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workloads");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<20} {}", w.name, w.load);
    }
    let _ = writeln!(out, "end-to-end metrics");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<22} {:<6} {:<6} bound {:>4.0}% same seed, {} across seeds",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.same_seed_bound,
            m.bound
                .map_or("not in BENCHMARK.json".to_string(), |b| format!(
                    "{:.0}%",
                    100.0 * b
                )),
        );
    }
    let _ = writeln!(out, "per-layer metrics");
    for l in &PER_LAYER {
        let _ = writeln!(out, "  {:<38} {:<6} {}", l.name, l.unit, l.better.as_str());
    }
    out
}

fn known_workload(name: Option<&str>) -> Result<&'static spec::Workload, String> {
    let name = name.ok_or("no workload named")?;
    spec::workload(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (one of: {})",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })
}

fn write_out(file: &str, doc: &Json) -> Result<(), String> {
    let path = runner::out_dir().join(file);
    std::fs::create_dir_all(runner::out_dir())
        .and_then(|()| std::fs::write(&path, doc.encode_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// A usage error (exit 2) or a failed run (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let usage = |e: String| Failure::Usage(e);
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| usage("no command".into()))?;
    let flags = parse_flags(rest).map_err(usage)?;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let scale = flags.scale.unwrap_or(1.0);
    let no_positional = |flags: &Flags| match flags.positional.first() {
        Some(extra) => Err(Failure::Usage(format!("unexpected argument '{extra}'"))),
        None => Ok(()),
    };
    match command.as_str() {
        "list" => {
            no_positional(&flags)?;
            if flags.manifest {
                print!("{}", manifest().encode_pretty());
            } else {
                print!("{}", list());
            }
            Ok(())
        }
        "run" => {
            if flags.positional.len() > 1 {
                return Err(usage(format!(
                    "unexpected argument '{}'",
                    flags.positional[1]
                )));
            }
            let w = known_workload(flags.positional.first().map(String::as_str)).map_err(usage)?;
            let host = Host::probe();
            let m = runner::measure(w, seed, scale, Budget::Passes(RUNS), flags.traced)
                .map_err(Failure::Run)?;
            print!("{}", m.report(&host));
            write_out(&format!("{}.json", w.name), &m.to_json(&host)).map_err(Failure::Run)
        }
        "all" => {
            no_positional(&flags)?;
            let host = Host::probe();
            let mut docs = Vec::new();
            for w in &WORKLOADS {
                let m = runner::measure(w, seed, scale, Budget::Passes(RUNS), true)
                    .map_err(Failure::Run)?;
                print!("{}", m.report(&host));
                docs.push(m.to_json(&host));
            }
            write_out("all.json", &obj([("workloads", Json::Arr(docs))])).map_err(Failure::Run)
        }
        "selfcheck" => {
            no_positional(&flags)?;
            let host = Host::probe();
            let (table, doc, ok) =
                crate::selfcheck::run(seed, scale, &host).map_err(Failure::Run)?;
            print!("{table}");
            write_out("selfcheck.json", &doc).map_err(Failure::Run)?;
            if ok {
                Ok(())
            } else {
                Err(Failure::Run(
                    "selfcheck: two sets of runs of the same code disagree beyond a bound".into(),
                ))
            }
        }
        "bench" => {
            no_positional(&flags)?;
            let w = known_workload(flags.workload.as_deref()).map_err(usage)?;
            let seed = flags
                .seed
                .ok_or_else(|| usage("bench needs --seed".into()))?;
            let seconds = flags
                .seconds
                .ok_or_else(|| usage("bench needs --seconds".into()))?;
            let trace = flags
                .trace
                .ok_or_else(|| usage("bench needs --trace".into()))?;
            let budget = if trace {
                Budget::Passes(1)
            } else {
                Budget::Seconds(seconds)
            };
            let m = runner::measure(w, seed, scale, budget, trace).map_err(Failure::Run)?;
            println!("{}", runner::driver_line(&m));
            Ok(())
        }
        // Internal: one pass in this process (what the parent spawns).
        "pass" => {
            let [workload] = flags.positional.as_slice() else {
                return Err(usage("pass needs exactly one workload".into()));
            };
            let params = PassParams {
                seed,
                scale,
                run_index: flags.run_index.unwrap_or(0),
            };
            let line = runner::child(workload, &params, flags.traced).map_err(Failure::Run)?;
            println!("{line}");
            Ok(())
        }
        other => Err(usage(format!("unknown command '{other}'"))),
    }
}

/// Run the command line; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(Failure::Usage(e)) => {
            eprintln!("tpp-benchmark: {e}\n\n{USAGE}");
            2
        }
        Err(Failure::Run(e)) => {
            eprintln!("tpp-benchmark: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_arguments_exit_2_without_panicking() {
        for bad in [
            "",
            "frobnicate",
            "run",
            "run no_such_workload",
            "run probe_storm extra",
            "run probe_storm --seed",
            "run probe_storm --seed banana",
            "run probe_storm --scale 0",
            "run probe_storm --scale -1",
            "run probe_storm --scale nan",
            "run probe_storm --bogus",
            "all stray",
            "list stray",
            "selfcheck --trace 2",
            "bench --workload probe_storm --seed 1 --seconds 10",
            "bench --workload probe_storm --seed 1 --trace 0",
            "bench --workload nope --seed 1 --seconds 10 --trace 0",
            "bench --seed 1 --seconds 10 --trace 0",
            "bench --workload probe_storm --seed 1 --seconds 0 --trace 0",
            "pass",
            "pass a b",
        ] {
            assert_eq!(main_with_args(&args(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn flags_parse() {
        let f = parse_flags(&args(
            "probe_storm --seed 0x10 --scale 0.25 --traced --seconds 7.5 --trace 1 --run-index 3",
        ))
        .unwrap();
        assert_eq!(f.positional, ["probe_storm"]);
        assert_eq!(f.seed, Some(16));
        assert_eq!(f.scale, Some(0.25));
        assert_eq!(f.seconds, Some(7.5));
        assert_eq!(f.trace, Some(true));
        assert_eq!(f.run_index, Some(3));
        assert!(f.traced);
        assert_eq!(parse_seed("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_seed("0XfF"), Some(255));
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn list_names_everything() {
        assert_eq!(main_with_args(&args("list")), 0);
        let text = list();
        for w in &WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in &END_TO_END {
            assert!(text.contains(m.name));
        }
        for l in &PER_LAYER {
            assert!(text.contains(l.name));
        }
    }

    #[test]
    fn manifest_fits_the_contract() {
        let doc = manifest();
        let text = doc.encode_pretty();
        assert!(text.len() <= 64 * 1024);
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert_eq!(doc.get("run_seconds").unwrap().as_u64(), Some(RUN_SECONDS));
        let n = |key: &str| doc.get(key).unwrap().as_arr().unwrap().len();
        assert!((2..=8).contains(&n("workloads")));
        assert!((1..=16).contains(&n("end_to_end")));
        assert!((1..=128).contains(&n("per_layer")));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}

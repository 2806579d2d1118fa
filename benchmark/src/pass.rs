//! A pass's result as the JSON line a child prints and its parent reads.

use crate::json::{obj, Json};
use crate::spec::PER_LAYER;
use crate::workloads::{PassOutput, SimStats};

/// The fingerprint as text: a 64-bit value does not fit a JSON number.
pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Encode the simulated statistics.
pub fn sim_to_json(s: &SimStats) -> Json {
    obj([
        ("ops", Json::from(s.ops)),
        ("ops_failed", Json::from(s.ops_failed)),
        ("ops_unfinished", Json::from(s.ops_unfinished)),
        ("n", Json::from(s.n)),
        ("lat_sum_ns", Json::from(s.lat_sum_ns)),
        ("lat_p50_ns", Json::from(s.lat_p50_ns)),
        ("lat_tail", Json::from(s.lat_tail.as_str())),
        ("lat_tail_ns", Json::from(s.lat_tail_ns)),
        ("goodput_bytes", Json::from(s.goodput_bytes)),
        ("sim_ns", Json::from(s.sim_ns)),
        ("fingerprint", Json::from(hex(s.fingerprint))),
    ])
}

/// Encode a pass (the `host` block is added by the caller).
pub fn to_json(p: &PassOutput) -> Json {
    obj([
        ("setup_s", Json::from(p.setup_s)),
        ("wall_s", Json::from(p.wall_s)),
        ("events", Json::from(p.events)),
        ("hop_frames", Json::from(p.hop_frames)),
        ("allocs", Json::from(p.allocs)),
        ("peak_rss_kb", Json::from(p.peak_rss_kb)),
        ("sim", sim_to_json(&p.sim)),
        (
            "layers",
            obj(p.layers.iter().map(|&(k, v)| (k, Json::from(v)))),
        ),
    ])
}

/// Decode a pass; `Err` names the first field that is missing or wrong.
pub fn from_json(doc: &Json) -> Result<PassOutput, String> {
    let f = |v: &Json, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("pass result: no number '{key}'"))
    };
    let u = |v: &Json, key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("pass result: no count '{key}'"))
    };
    let sim = doc.get("sim").ok_or("pass result: no 'sim'")?;
    let sim = SimStats {
        ops: u(sim, "ops")?,
        ops_failed: u(sim, "ops_failed")?,
        ops_unfinished: u(sim, "ops_unfinished")?,
        n: u(sim, "n")?,
        lat_sum_ns: u(sim, "lat_sum_ns")?,
        lat_p50_ns: u(sim, "lat_p50_ns")?,
        lat_tail: sim
            .get("lat_tail")
            .and_then(Json::as_str)
            .ok_or("pass result: no 'lat_tail'")?
            .to_string(),
        lat_tail_ns: u(sim, "lat_tail_ns")?,
        goodput_bytes: u(sim, "goodput_bytes")?,
        sim_ns: u(sim, "sim_ns")?,
        fingerprint: sim
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(parse_hex)
            .ok_or("pass result: no 'fingerprint'")?,
    };
    let mut layers = Vec::new();
    for (key, value) in doc
        .get("layers")
        .and_then(Json::as_obj)
        .ok_or("pass result: no 'layers'")?
    {
        // Names come back as the spec's statics; an unknown one is an
        // error, not a new metric.
        let name = PER_LAYER
            .iter()
            .find(|l| l.name == key)
            .ok_or_else(|| format!("pass result: unknown layer metric '{key}'"))?
            .name;
        let value = value
            .as_f64()
            .ok_or_else(|| format!("pass result: layer '{key}' is not a number"))?;
        layers.push((name, value));
    }
    Ok(PassOutput {
        setup_s: f(doc, "setup_s")?,
        wall_s: f(doc, "wall_s")?,
        events: u(doc, "events")?,
        hop_frames: u(doc, "hop_frames")?,
        allocs: u(doc, "allocs")?,
        peak_rss_kb: u(doc, "peak_rss_kb")?,
        sim,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PassOutput {
        PassOutput {
            setup_s: 1.234_567_890_123,
            wall_s: 18.203_947_112_3,
            events: 55_418_478,
            hop_frames: 19_876_543,
            allocs: 1_493_194,
            peak_rss_kb: 339_772,
            sim: SimStats {
                ops: 1_131_600,
                ops_failed: 0,
                ops_unfinished: 34_474,
                n: 1_097_126,
                lat_sum_ns: 3_700_000_000_000,
                lat_p50_ns: 3_363_000,
                lat_tail: "p99.9".into(),
                lat_tail_ns: 6_800_123,
                goodput_bytes: 9_876_543_210,
                sim_ns: 178_359_000,
                fingerprint: 0xcd15_0d64_f698_0aba,
            },
            layers: vec![("asic.hop_frames", 19_876_543.0), ("wire.parse_ns", 12.75)],
        }
    }

    #[test]
    fn a_pass_survives_the_trip_through_one_json_line() {
        let p = sample();
        let line = to_json(&p).encode();
        assert!(!line.contains('\n'));
        assert_eq!(from_json(&Json::parse(&line).unwrap()).unwrap(), p);
    }

    #[test]
    fn a_fingerprint_above_2_pow_53_is_exact() {
        let mut p = sample();
        p.sim.fingerprint = u64::MAX - 1;
        let back = from_json(&Json::parse(&to_json(&p).encode()).unwrap()).unwrap();
        assert_eq!(back.sim.fingerprint, u64::MAX - 1);
    }

    #[test]
    fn a_truncated_or_foreign_result_is_refused() {
        assert!(from_json(&Json::parse("{}").unwrap()).is_err());
        let mut doc = to_json(&sample());
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "wall_s");
        }
        assert!(from_json(&doc).unwrap_err().contains("wall_s"));
        let line = to_json(&sample())
            .encode()
            .replace("wire.parse_ns", "wire.made_up");
        assert!(from_json(&Json::parse(&line).unwrap())
            .unwrap_err()
            .contains("wire.made_up"));
    }
}

//! Snapshot exporters: Prometheus text format and JSONL series dumps.
//!
//! Both are plain strings built deterministically (registries and
//! series iterate in name order), so snapshots diff cleanly and can be
//! pinned as goldens in CI.

use std::fmt::Write;
use std::ops::Range;

use tpp_netsim::{RingSeries, SeriesSet};
use tpp_telemetry::{Histogram, MetricsRegistry};

/// Append `name` in Prometheus form to `out` — `tpp_` prefix, every
/// character outside `[a-zA-Z0-9_]` (the registry uses dots) mapped to
/// `_` — and return where it landed, so a metric's later lines copy it
/// (`String::extend_from_within`) instead of sanitizing it again.
pub(crate) fn sanitize_metric_name(out: &mut String, name: &str) -> Range<usize> {
    let start = out.len();
    out.push_str("tpp_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    start..out.len()
}

/// Bytes [`sanitize_metric_name`] appends: the prefix plus one byte per
/// character (every non-ASCII character becomes `_`).
fn metric_name_len(name: &str) -> usize {
    4 + name.chars().count()
}

/// One-line `# HELP` text for a registry metric, chosen by family
/// prefix. Families mirror the subsystems that export them, so every
/// emitted metric gets a meaningful line without a per-name table.
pub(crate) fn help_for(name: &str) -> &'static str {
    let families: [(&str, &str); 10] = [
        (
            "collector.",
            "End-host TPP collector aggregate (probe echoes decoded off the wire).",
        ),
        (
            "transport.",
            "Closed-loop transport fleet counter (go-back-N + RCP* rate clamp).",
        ),
        (
            "bond.",
            "Bonded-path scheduler telemetry (probe-driven health and failover).",
        ),
        (
            "ecmp.",
            "ECMP per-uplink spread counter (frames hashed onto each uplink).",
        ),
        (
            "profile.",
            "Dataplane pipeline span profiler statistic (cycles unless named otherwise).",
        ),
        ("queue.", "Egress queue occupancy statistic, bytes."),
        ("cache.", "Switch TCPU cache statistic."),
        ("drop.", "Dataplane drop statistic."),
        ("link.", "Link-level statistic."),
        ("fault.", "Fault-injection statistic."),
    ];
    for (prefix, help) in families {
        if name.starts_with(prefix) {
            return help;
        }
    }
    "TPP simulator metric."
}

/// The longest a `u64` prints.
const MAX_DIGITS: usize = 20;

/// Bytes one counter's three lines can take.
fn counter_len(name: &str) -> usize {
    let n = metric_name_len(name);
    // `# HELP n help\n`, `# TYPE n counter\n`, `n value\n`.
    (9 + n + help_for(name).len()) + (16 + n) + (2 + n + MAX_DIGITS)
}

/// Bytes one summary's seven lines can take.
fn summary_len(name: &str) -> usize {
    let n = metric_name_len(name);
    // HELP, `# TYPE n summary`, three `n{quantile="…"} v`, `_sum`, `_count`.
    (9 + n + help_for(name).len())
        + (16 + n)
        + 3 * (19 + n + MAX_DIGITS)
        + (6 + n + MAX_DIGITS)
        + (8 + n + MAX_DIGITS)
}

/// `# HELP <name> <help>` and `# TYPE <name> <kind>`; returns where the
/// sanitized name sits in `out`.
fn write_head(out: &mut String, name: &str, kind: &str) -> Range<usize> {
    out.push_str("# HELP ");
    let n = sanitize_metric_name(out, name);
    let _ = writeln!(out, " {}", help_for(name));
    out.push_str("# TYPE ");
    out.extend_from_within(n.clone());
    let _ = writeln!(out, " {kind}");
    n
}

fn write_summary(out: &mut String, name: &str, hist: &Histogram) {
    let n = write_head(out, name, "summary");
    for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (1.0, "1")] {
        out.extend_from_within(n.clone());
        let _ = writeln!(out, "{{quantile=\"{label}\"}} {}", hist.quantile(q));
    }
    out.extend_from_within(n.clone());
    let _ = writeln!(out, "_sum {}", hist.sum());
    out.extend_from_within(n);
    let _ = writeln!(out, "_count {}", hist.count());
}

/// Render a [`MetricsRegistry`] in the Prometheus text exposition
/// format: counters as `counter` samples, histograms as `summary`
/// quantiles (p50/p99/max) with `_sum`/`_count`. Scrape-ready: write
/// it to a file or serve it verbatim. The text is written into one
/// buffer, sized up front for the longest every line can be.
pub fn prometheus_snapshot(registry: &MetricsRegistry) -> String {
    let bytes = registry
        .counters()
        .map(|(name, _)| counter_len(name))
        .sum::<usize>()
        + registry
            .histograms()
            .map(|(name, _)| summary_len(name))
            .sum::<usize>();
    let mut out = String::with_capacity(bytes);
    for (name, value) in registry.counters() {
        let n = write_head(&mut out, name, "counter");
        out.extend_from_within(n);
        let _ = writeln!(out, " {value}");
    }
    for (name, hist) in registry.histograms() {
        write_summary(&mut out, name, hist);
    }
    out
}

fn write_series_line(
    out: &mut String,
    scope: &str,
    switch_id: Option<u32>,
    metric: &str,
    s: &RingSeries,
) {
    let _ = write!(out, "{{\"scope\":\"{scope}\"");
    if let Some(id) = switch_id {
        let _ = write!(out, ",\"switch_id\":{id}");
    }
    let _ = write!(
        out,
        ",\"metric\":\"{metric}\",\"stride\":{},\"offered\":{},\"points\":[",
        s.stride(),
        s.offered()
    );
    for (i, &(t, v)) in s.points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{t},{v}]");
    }
    out.push_str("]}\n");
}

/// Dump a [`SeriesSet`] as JSONL: one object per series (per-switch
/// series first, then fleet series), each carrying its stride and
/// `[t_ns, value]` points — the format offline plotters ingest.
pub fn series_jsonl(series: &SeriesSet) -> String {
    let mut out = String::new();
    for sw in &series.switches {
        for (metric, s) in sw.iter() {
            write_series_line(&mut out, "switch", Some(sw.switch_id), metric, s);
        }
    }
    for (metric, s) in series.fleet_iter() {
        write_series_line(&mut out, "fleet", None, metric, s);
    }
    out
}

/// One parsed line of a [`series_jsonl`] dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDump {
    /// `"switch"` or `"fleet"`.
    pub scope: String,
    /// Dataplane id for switch-scoped series.
    pub switch_id: Option<u32>,
    /// Metric name, e.g. `queue.max_bytes`.
    pub metric: String,
    /// Downsample stride at dump time.
    pub stride: u64,
    /// Samples offered before downsampling.
    pub offered: u64,
    /// Retained `(t_ns, value)` points.
    pub points: Vec<(u64, u64)>,
}

impl SeriesDump {
    /// Stable identity used to pair series across two dumps.
    pub fn key(&self) -> (String, Option<u32>, String) {
        (self.scope.clone(), self.switch_id, self.metric.clone())
    }

    /// Peak retained value.
    pub(crate) fn max_value(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Parse a [`series_jsonl`] dump back into memory — the input to the
/// dashboard's profile-diff mode. The parser accepts exactly the shape
/// this module emits (flat objects, integer `[t,v]` pairs); lines that
/// don't carry the required fields are skipped rather than guessed at.
pub fn parse_series_jsonl(text: &str) -> Vec<SeriesDump> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(scope), Some(metric)) = (field_str(line, "scope"), field_str(line, "metric"))
        else {
            continue;
        };
        let mut points = Vec::new();
        if let Some(start) = line.find("\"points\":[") {
            let body = &line[start + "\"points\":[".len()..];
            let body = &body[..body.rfind(']').unwrap_or(0)];
            for pair in body.split("],[") {
                let pair = pair.trim_matches(|c| c == '[' || c == ']');
                if let Some((t, v)) = pair.split_once(',') {
                    if let (Ok(t), Ok(v)) = (t.parse(), v.parse()) {
                        points.push((t, v));
                    }
                }
            }
        }
        out.push(SeriesDump {
            scope: scope.to_string(),
            switch_id: field_u64(line, "switch_id").map(|v| v as u32),
            metric: metric.to_string(),
            stride: field_u64(line, "stride").unwrap_or(1),
            offered: field_u64(line, "offered").unwrap_or(0),
            points,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        let mut out = String::from("# ");
        for (name, prom) in [
            ("profile.span.total_cycles", "tpp_profile_span_total_cycles"),
            ("a-b c", "tpp_a_b_c"),
            ("é.µ", "tpp____"),
        ] {
            let at = sanitize_metric_name(&mut out, name);
            assert_eq!(&out[at], prom);
            assert_eq!(metric_name_len(name), prom.len());
        }
    }

    #[test]
    fn the_presized_buffer_never_grows() {
        // Twenty-digit counters fill their bound exactly.
        let counters = ["profile.packets", "x", "fault.é"];
        let mut reg = MetricsRegistry::new();
        counters.iter().for_each(|name| reg.set(name, u64::MAX));
        let text = prometheus_snapshot(&reg);
        let bound = counters.map(counter_len).iter().sum::<usize>();
        assert_eq!((text.len(), text.capacity()), (bound, bound));

        // Summaries' quantile labels leave slack, never an overflow.
        let summaries = ["queue.depth_bytes", "h"];
        summaries
            .iter()
            .for_each(|name| reg.observe(name, u64::MAX));
        let text = prometheus_snapshot(&reg);
        let bound = bound + summaries.map(summary_len).iter().sum::<usize>();
        assert_eq!(text.capacity(), bound, "one allocation, never regrown");
        assert!(text.len() <= bound);
    }

    #[test]
    fn prometheus_counters_and_summaries() {
        let mut reg = MetricsRegistry::new();
        reg.set("profile.packets", 7);
        for v in [10u64, 20, 30] {
            reg.observe("profile.span.total_cycles", v);
        }
        let text = prometheus_snapshot(&reg);
        assert!(text.contains("# HELP tpp_profile_packets "));
        assert!(text.contains("# TYPE tpp_profile_packets counter\ntpp_profile_packets 7\n"));
        assert!(text.contains("# HELP tpp_profile_span_total_cycles "));
        assert!(text.contains("# TYPE tpp_profile_span_total_cycles summary"));
        assert!(text.contains("tpp_profile_span_total_cycles{quantile=\"0.5\"}"));
        assert!(text.contains("tpp_profile_span_total_cycles_count 3"));
        assert!(text.contains("tpp_profile_span_total_cycles_sum 60"));
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let set = SeriesSet::new(&[0x10], 4);
        // Populated series are exercised via the simulator in the
        // tpp-bench integration tests; here just check the shape.
        let text = series_jsonl(&set);
        let lines: Vec<&str> = text.lines().collect();
        // 5 switch metrics + 2 fleet metrics.
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("{\"scope\":\"switch\",\"switch_id\":16,"));
        assert!(lines[6].starts_with("{\"scope\":\"fleet\","));
        assert!(lines.iter().all(|l| l.ends_with("]}")));
    }

    #[test]
    fn parse_roundtrips_emitted_jsonl() {
        let text = concat!(
            "{\"scope\":\"switch\",\"switch_id\":16,\"metric\":\"queue.max_bytes\",",
            "\"stride\":2,\"offered\":9,\"points\":[[0,10],[40,25],[80,5]]}\n",
            "{\"scope\":\"fleet\",\"metric\":\"fault.events_per_tick\",",
            "\"stride\":1,\"offered\":0,\"points\":[]}\n",
        );
        let dumps = parse_series_jsonl(text);
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].scope, "switch");
        assert_eq!(dumps[0].switch_id, Some(16));
        assert_eq!(dumps[0].metric, "queue.max_bytes");
        assert_eq!(dumps[0].stride, 2);
        assert_eq!(dumps[0].offered, 9);
        assert_eq!(dumps[0].points, vec![(0, 10), (40, 25), (80, 5)]);
        assert_eq!(dumps[0].max_value(), 25);
        assert_eq!(dumps[1].switch_id, None);
        assert!(dumps[1].points.is_empty());
        // Garbage lines are skipped, not mis-parsed.
        assert!(parse_series_jsonl("not json\n{\"scope\":\"x\"}\n").is_empty());
    }

    #[test]
    fn help_lines_cover_known_families() {
        assert!(help_for("transport.retransmits").contains("transport"));
        assert!(help_for("ecmp.uplink.sw1.port2.tx_frames").contains("ECMP"));
        assert!(help_for("bond.path0.transitions").contains("Bonded"));
        assert_eq!(help_for("something.else"), "TPP simulator metric.");
    }
}

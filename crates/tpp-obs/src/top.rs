//! The `tpp-top` table: one screen of fleet health.
//!
//! Renders, per switch: packet/violation counts and span latency
//! percentiles from the dataplane profile, the hottest egress queue,
//! and current occupancy; then per-stage latency breakdowns, the TCPU
//! opcode mix, ring-series peaks, and the collector's end-host view
//! with its divergence-vs-ground-truth verdict. Pure function of
//! simulator state → `String`, so the same renderer drives the live
//! `tpp_top` binary and the golden snapshot test.

use std::fmt::Write;

use tpp_asic::ProfStage;
use tpp_netsim::{Simulator, SwitchId};

use crate::collector::Collector;

fn fmt_or_dash(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Render the `tpp-top` snapshot table for the fleet, plus the
/// collector's measurement summary when one is supplied.
pub fn render_top(sim: &Simulator, collector: Option<&Collector>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tpp-top | t={}ns | switches={} hosts={}",
        sim.now(),
        sim.num_switches(),
        sim.num_hosts()
    );

    let _ = writeln!(
        out,
        "\n{:<8} {:>8} {:>8} {:>5} {:>18} {:>14} {:>8}",
        "SWITCH", "PKTS", "SAMPLED", "VIOL", "SPAN p50/p99/max", "HOTQ", "OCC_B"
    );
    for i in 0..sim.num_switches() {
        let asic = sim.switch(SwitchId(i));
        let id = format!("0x{:02x}", asic.switch_id());
        let (occ, _) = asic.queue_occupancy();
        let (hp, hq, hw) = asic.hottest_queue();
        let hot = format!("p{hp}:q{hq} {hw}");
        match asic.profile() {
            Some(p) => {
                let t = p.total_stat();
                let span = format!("{}/{}/{}", t.p50(), t.p99(), t.max());
                let _ = writeln!(
                    out,
                    "{:<8} {:>8} {:>8} {:>5} {:>18} {:>14} {:>8}",
                    id,
                    p.packets(),
                    p.sampled(),
                    p.budget_violations(),
                    span,
                    hot,
                    occ
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<8} {:>8} {:>8} {:>5} {:>18} {:>14} {:>8}",
                    id, "-", "-", "-", "-", hot, occ
                );
            }
        }
    }

    let profiled: Vec<usize> = (0..sim.num_switches())
        .filter(|&i| sim.switch(SwitchId(i)).is_profiled())
        .collect();
    if !profiled.is_empty() {
        let _ = writeln!(out, "\nSTAGE LATENCY cycles (p50/p99/max)");
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "SWITCH", "PARSER", "TABLES", "TCPU", "MMU", "SCHED"
        );
        for &i in &profiled {
            let asic = sim.switch(SwitchId(i));
            let p = asic.profile().expect("profiled");
            let cell = |s: ProfStage| {
                let st = p.stage(s);
                format!("{}/{}/{}", st.p50(), st.p99(), st.max())
            };
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                format!("0x{:02x}", asic.switch_id()),
                cell(ProfStage::Parser),
                cell(ProfStage::Tables),
                cell(ProfStage::Tcpu),
                cell(ProfStage::Mmu),
                cell(ProfStage::Scheduler),
            );
        }

        let _ = writeln!(out, "\nTCPU OPCODES (executed, fleet-wide)");
        let mut opcodes: Vec<(&'static str, u64)> = Vec::new();
        for &i in &profiled {
            let p = sim.switch(SwitchId(i)).profile().expect("profiled");
            for (op, n) in p.opcode_breakdown() {
                match opcodes.iter_mut().find(|(m, _)| *m == op.mnemonic()) {
                    Some(slot) => slot.1 += n,
                    None => opcodes.push((op.mnemonic(), n)),
                }
            }
        }
        opcodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (m, n) in opcodes {
            let _ = writeln!(out, "  {m:<8} {n}");
        }
    }

    if let Some(set) = sim.series() {
        let _ = writeln!(out, "\nSERIES peaks over {} ticks", set.ticks());
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>12}",
            "SWITCH", "QUEUE_MAX_B", "UTIL_PM", "DROP_B/TICK"
        );
        for sw in &set.switches {
            let peak = |m: &str| sw.get(m).map(|s| s.max_value()).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>12} {:>12}",
                format!("0x{:02x}", sw.switch_id),
                peak("queue.max_bytes"),
                peak("link.tx_util_permille"),
                peak("drop.bytes_per_tick"),
            );
        }
    }

    if let Some(c) = collector {
        let report = c.divergence_vs_sim(sim);
        let _ = writeln!(
            out,
            "\nCOLLECTOR probes={} echoes={} lost={} samples={} rtt p50/p99/max={}/{}/{}ns",
            c.probes_sent,
            c.echoes_received,
            report.probes_lost,
            c.samples(),
            c.rtt().p50(),
            c.rtt().p99(),
            c.rtt().max(),
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>9} {:>10} {:>10}",
            "SWITCH", "OBS_LAST", "TRUTH_B", "DIVERG_B", "SAMPLES", "OBS_MAX_B"
        );
        for d in &report.per_switch {
            let (count, obs_max) = c
                .queues()
                .filter(|((sw, _), _)| *sw == d.switch_id)
                .fold((0, 0), |(n, m), (_, v)| {
                    (n + v.hist.count(), m.max(v.hist.max()))
                });
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>10} {:>9} {:>10} {:>10}",
                format!("0x{:02x}", d.switch_id),
                fmt_or_dash(d.observed_bytes),
                d.ground_truth_bytes,
                d.abs_diff_bytes,
                count,
                obs_max,
            );
        }
        let verdict = if report.is_exact() {
            "exact (end-host view == ground truth)"
        } else {
            "DIVERGED"
        };
        let _ = writeln!(
            out,
            "divergence: {verdict}, max {} bytes",
            report.max_abs_bytes
        );
    }

    out
}

//! The trace event schema: one typed record per pipeline stage, plus
//! its JSON-lines serialization.
//!
//! The schema mirrors Figure 3's pipeline. A packet walking one switch
//! produces, in order: `Parse` → (`EdgeFilter`)? → `Lookup` → (`TcpuExec`)?
//! → `Enqueue` | `Drop`, and later a `Dequeue` when the scheduler
//! transmits it. Chaos runs add fault events to the same stream. What
//! end-hosts learn from echoed TPPs stays with them (`PathSample`,
//! `ProbeStats`): the paper's end-host is where that state lives.

use std::io::{self, Write};

use crate::json::Json;

/// A pipeline stage, used to label events and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Header parser.
    Parse,
    /// §4 ingress edge filter.
    EdgeFilter,
    /// L2 / L3 / TCAM forwarding lookup.
    Lookup,
    /// TCPU execution.
    Tcpu,
    /// Egress enqueue (MMU admission).
    Enqueue,
    /// Scheduler dequeue / transmit.
    Dequeue,
    /// Injected fault (chaos runs): link flaps, reboots, corruption.
    Fault,
}

impl Stage {
    /// Stable lowercase name used in serialized output and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::EdgeFilter => "edge_filter",
            Stage::Lookup => "lookup",
            Stage::Tcpu => "tcpu",
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::Fault => "fault",
        }
    }
}

/// Which forwarding table produced the egress decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupKind {
    /// TCAM flow entry (highest precedence).
    Tcam,
    /// L3 longest-prefix match.
    L3,
    /// L2 exact MAC match.
    L2,
}

impl LookupKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LookupKind::Tcam => "tcam",
            LookupKind::L3 => "l3",
            LookupKind::L2 => "l2",
        }
    }
}

/// Why a frame was dropped — the telemetry mirror of the dataplane's
/// `DropReason` (kept separate so this crate stays at the bottom of the
/// dependency stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// No table produced an egress port.
    NoRoute,
    /// Drop-tail egress queue overflow.
    QueueFull,
    /// A TCAM entry's action was `Drop`.
    FlowDrop,
    /// The §4 edge policy dropped a TPP from an untrusted port.
    EdgeFiltered,
    /// The frame failed to parse.
    ParseError,
}

impl DropKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DropKind::NoRoute => "no_route",
            DropKind::QueueFull => "queue_full",
            DropKind::FlowDrop => "flow_drop",
            DropKind::EdgeFiltered => "edge_filtered",
            DropKind::ParseError => "parse_error",
        }
    }
}

/// How a TCPU execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpuOutcome {
    /// The whole program ran.
    Completed,
    /// Execution stopped early; the code names the halt cause
    /// (`cexec_failed`, `mmu_fault`, `packet_memory`, `bad_instruction`,
    /// `budget_exceeded`).
    Halted(&'static str),
}

impl TcpuOutcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TcpuOutcome::Completed => "completed",
            TcpuOutcome::Halted(code) => code,
        }
    }
}

/// One pipeline stage transition.
///
/// `seq` is the emitting switch's `packets_processed` counter at emit
/// time, so all events of one packet's walk through one switch share a
/// sequence number (`Dequeue` events carry the sequence current at
/// transmit time instead — the scheduler does not know which arrival it
/// is serving, exactly like real egress pipelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emission time, ns (switch-local wall clock).
    pub t_ns: u64,
    /// `Switch:SwitchID` of the emitting switch (0 when a fault hits a
    /// host endpoint).
    pub switch_id: u32,
    /// Packet sequence number at the emitting switch.
    pub seq: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The per-stage payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Header parser verdict.
    Parse {
        /// Ingress port.
        in_port: u16,
        /// Frame length in bytes.
        len: u32,
        /// The frame carries a TPP section.
        is_tpp: bool,
        /// The frame parsed as valid Ethernet.
        ok: bool,
    },
    /// The §4 ingress edge filter acted on a TPP.
    EdgeFilter {
        /// Ingress port.
        in_port: u16,
        /// `"drop"` or `"unwrap"`.
        action: &'static str,
    },
    /// A forwarding table produced an egress decision.
    Lookup {
        /// The winning table.
        table: LookupKind,
        /// Chosen egress port.
        out_port: u16,
        /// Chosen egress queue.
        queue: u8,
        /// Matched TCAM entry id (0 off the TCAM path).
        entry_id: u32,
    },
    /// No table matched.
    LookupMiss,
    /// The TCPU ran a TPP (per-instruction cycle accounting from
    /// `tpp-asic::tcpu`).
    TcpuExec {
        /// Egress port the TPP saw.
        out_port: u16,
        /// Instructions that completed.
        instructions: u32,
        /// Cycles consumed (pipeline latency + 1/instruction).
        cycles: u32,
        /// The configured per-packet cycle budget.
        budget: u32,
        /// How execution ended.
        outcome: TcpuOutcome,
        /// Hop counter after this execution.
        hop: u8,
        /// Whether any instruction wrote switch SRAM.
        wrote_switch: bool,
    },
    /// A frame was admitted to an egress queue.
    Enqueue {
        /// Egress port.
        port: u16,
        /// Egress queue.
        queue: u8,
        /// Queue occupancy in bytes *before* this frame was added —
        /// the value a TPP's `PUSH [Queue:QueueSize]` read this walk.
        depth_bytes: u64,
        /// Frame length.
        len: u32,
        /// The frame got an ECN mark at this enqueue.
        ecn_marked: bool,
    },
    /// The pipeline dropped the frame.
    Drop {
        /// Why.
        reason: DropKind,
        /// Egress port, when the drop happened after a lookup.
        port: Option<u16>,
    },
    /// The scheduler transmitted a frame.
    Dequeue {
        /// Egress port.
        port: u16,
        /// Queue served.
        queue: u8,
        /// Frame length.
        len: u32,
        /// Occupancy remaining in that queue after the dequeue.
        depth_bytes: u64,
    },
    /// An injected fault took a link direction down. The envelope's
    /// `switch_id` names the transmitting switch (0 for host endpoints).
    LinkDown {
        /// Transmitting port of the failed direction.
        port: u16,
    },
    /// An injected fault restored a link direction.
    LinkUp {
        /// Transmitting port of the restored direction.
        port: u16,
    },
    /// A switch lost all volatile state and came back with a new boot
    /// epoch (the envelope's `switch_id` names the switch).
    SwitchReboot {
        /// `Switch:BootEpoch` after the reboot.
        epoch: u32,
    },
    /// A fault flipped one bit inside a frame's TPP section in flight.
    CorruptionInjected {
        /// Transmitting port of the corrupted direction.
        port: u16,
        /// Byte offset of the flip within the frame.
        byte: u32,
        /// Bit index (0..8) flipped within that byte.
        bit: u8,
    },
}

impl TraceEventKind {
    /// The pipeline stage this event belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            TraceEventKind::Parse { .. } => Stage::Parse,
            TraceEventKind::EdgeFilter { .. } => Stage::EdgeFilter,
            TraceEventKind::Lookup { .. } | TraceEventKind::LookupMiss => Stage::Lookup,
            TraceEventKind::TcpuExec { .. } => Stage::Tcpu,
            TraceEventKind::Enqueue { .. } => Stage::Enqueue,
            TraceEventKind::Drop { .. } => Stage::Enqueue,
            TraceEventKind::Dequeue { .. } => Stage::Dequeue,
            TraceEventKind::LinkDown { .. }
            | TraceEventKind::LinkUp { .. }
            | TraceEventKind::SwitchReboot { .. }
            | TraceEventKind::CorruptionInjected { .. } => Stage::Fault,
        }
    }

    /// Stable event name used in serialized output.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Parse { .. } => "parse",
            TraceEventKind::EdgeFilter { .. } => "edge_filter",
            TraceEventKind::Lookup { .. } => "lookup_hit",
            TraceEventKind::LookupMiss => "lookup_miss",
            TraceEventKind::TcpuExec { .. } => "tcpu_exec",
            TraceEventKind::Enqueue { .. } => "enqueue",
            TraceEventKind::Drop { .. } => "drop",
            TraceEventKind::Dequeue { .. } => "dequeue",
            TraceEventKind::LinkDown { .. } => "link_down",
            TraceEventKind::LinkUp { .. } => "link_up",
            TraceEventKind::SwitchReboot { .. } => "switch_reboot",
            TraceEventKind::CorruptionInjected { .. } => "corruption_injected",
        }
    }
}

impl TraceEvent {
    /// Serialize as one JSON line (no trailing newline). The field set
    /// varies by event kind; `event`, `stage`, `t_ns`, `switch` and `seq`
    /// are always present.
    pub fn to_json(&self) -> String {
        fn num(n: impl Into<u64>) -> Json {
            Json::Num(n.into())
        }
        let text = |s: &str| Json::Str(s.to_string());
        let flag = |b: bool| Json::Lit(b.to_string());
        let mut fields = vec![
            ("event", text(self.kind.name())),
            ("stage", text(self.kind.stage().name())),
            ("t_ns", num(self.t_ns)),
            ("switch", num(self.switch_id)),
            ("seq", num(self.seq)),
        ];
        match self.kind {
            TraceEventKind::Parse {
                in_port,
                len,
                is_tpp,
                ok,
            } => fields.extend([
                ("in_port", num(in_port)),
                ("len", num(len)),
                ("is_tpp", flag(is_tpp)),
                ("ok", flag(ok)),
            ]),
            TraceEventKind::EdgeFilter { in_port, action } => {
                fields.extend([("in_port", num(in_port)), ("action", text(action))])
            }
            TraceEventKind::Lookup {
                table,
                out_port,
                queue,
                entry_id,
            } => fields.extend([
                ("table", text(table.name())),
                ("out_port", num(out_port)),
                ("queue", num(queue)),
                ("entry_id", num(entry_id)),
            ]),
            TraceEventKind::LookupMiss => {}
            TraceEventKind::TcpuExec {
                out_port,
                instructions,
                cycles,
                budget,
                outcome,
                hop,
                wrote_switch,
            } => fields.extend([
                ("out_port", num(out_port)),
                ("instructions", num(instructions)),
                ("cycles", num(cycles)),
                ("budget", num(budget)),
                ("outcome", text(outcome.name())),
                ("hop", num(hop)),
                ("wrote_switch", flag(wrote_switch)),
            ]),
            TraceEventKind::Enqueue {
                port,
                queue,
                depth_bytes,
                len,
                ecn_marked,
            } => fields.extend([
                ("port", num(port)),
                ("queue", num(queue)),
                ("depth_bytes", num(depth_bytes)),
                ("len", num(len)),
                ("ecn_marked", flag(ecn_marked)),
            ]),
            TraceEventKind::Drop { reason, port } => {
                fields.push(("reason", text(reason.name())));
                fields.extend(port.map(|p| ("port", num(p))));
            }
            TraceEventKind::Dequeue {
                port,
                queue,
                len,
                depth_bytes,
            } => fields.extend([
                ("port", num(port)),
                ("queue", num(queue)),
                ("len", num(len)),
                ("depth_bytes", num(depth_bytes)),
            ]),
            TraceEventKind::LinkDown { port } | TraceEventKind::LinkUp { port } => {
                fields.push(("port", num(port)))
            }
            TraceEventKind::SwitchReboot { epoch } => fields.push(("epoch", num(epoch))),
            TraceEventKind::CorruptionInjected { port, byte, bit } => {
                fields.extend([("port", num(port)), ("byte", num(byte)), ("bit", num(bit))])
            }
        }
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .line()
    }
}

/// Write events as JSON lines (one object per line).
pub fn write_jsonl<'a, W: Write>(
    out: &mut W,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> io::Result<()> {
    for ev in events {
        writeln!(out, "{}", ev.to_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            t_ns: 1000,
            switch_id: 0xA1,
            seq: 7,
            kind,
        }
    }

    #[test]
    fn json_has_common_envelope() {
        let e = ev(TraceEventKind::Enqueue {
            port: 1,
            queue: 0,
            depth_bytes: 78,
            len: 64,
            ecn_marked: false,
        });
        let j = e.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for needle in [
            "\"event\":\"enqueue\"",
            "\"stage\":\"enqueue\"",
            "\"t_ns\":1000",
            "\"switch\":161",
            "\"seq\":7",
            "\"depth_bytes\":78",
            "\"ecn_marked\":false",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }

    #[test]
    fn json_tcpu_exec_carries_cycle_accounting() {
        let e = ev(TraceEventKind::TcpuExec {
            out_port: 2,
            instructions: 5,
            cycles: 9,
            budget: 300,
            outcome: TcpuOutcome::Completed,
            hop: 1,
            wrote_switch: false,
        });
        let j = e.to_json();
        assert!(j.contains("\"cycles\":9"));
        assert!(j.contains("\"budget\":300"));
        assert!(j.contains("\"outcome\":\"completed\""));
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let events = vec![
            ev(TraceEventKind::LookupMiss),
            ev(TraceEventKind::Drop {
                reason: DropKind::NoRoute,
                port: None,
            }),
        ];
        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &events).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"reason\":\"no_route\""));
    }

    #[test]
    fn fault_events_serialize() {
        let e = ev(TraceEventKind::LinkDown { port: 3 });
        assert_eq!(e.kind.stage(), Stage::Fault);
        assert!(e.to_json().contains("\"event\":\"link_down\""));
        assert!(e.to_json().contains("\"port\":3"));

        let e = ev(TraceEventKind::SwitchReboot { epoch: 2 });
        assert!(e.to_json().contains("\"epoch\":2"));

        let e = ev(TraceEventKind::CorruptionInjected {
            port: 1,
            byte: 20,
            bit: 5,
        });
        assert!(e.to_json().contains("\"byte\":20"));
    }

    /// Every kind's line parses back to the envelope, the kind's name and
    /// stage, and each of the event's fields, and re-serializes to itself.
    #[test]
    fn every_kind_reads_back_field_for_field() {
        use TraceEventKind::*;
        let cases = [
            (
                Parse {
                    in_port: 1,
                    len: 64,
                    is_tpp: true,
                    ok: false,
                },
                r#"{"event":"parse","stage":"parse","t_ns":1000,"switch":161,"seq":7,"in_port":1,"len":64,"is_tpp":true,"ok":false}"#,
            ),
            (
                EdgeFilter {
                    in_port: 2,
                    action: "unwrap",
                },
                r#"{"event":"edge_filter","stage":"edge_filter","t_ns":1000,"switch":161,"seq":7,"in_port":2,"action":"unwrap"}"#,
            ),
            (
                Lookup {
                    table: LookupKind::Tcam,
                    out_port: 3,
                    queue: 1,
                    entry_id: 9,
                },
                r#"{"event":"lookup_hit","stage":"lookup","t_ns":1000,"switch":161,"seq":7,"table":"tcam","out_port":3,"queue":1,"entry_id":9}"#,
            ),
            (
                LookupMiss,
                r#"{"event":"lookup_miss","stage":"lookup","t_ns":1000,"switch":161,"seq":7}"#,
            ),
            (
                TcpuExec {
                    out_port: 2,
                    instructions: 5,
                    cycles: 9,
                    budget: 300,
                    outcome: TcpuOutcome::Completed,
                    hop: 1,
                    wrote_switch: false,
                },
                r#"{"event":"tcpu_exec","stage":"tcpu","t_ns":1000,"switch":161,"seq":7,"out_port":2,"instructions":5,"cycles":9,"budget":300,"outcome":"completed","hop":1,"wrote_switch":false}"#,
            ),
            (
                Enqueue {
                    port: 1,
                    queue: 0,
                    depth_bytes: 78,
                    len: 64,
                    ecn_marked: false,
                },
                r#"{"event":"enqueue","stage":"enqueue","t_ns":1000,"switch":161,"seq":7,"port":1,"queue":0,"depth_bytes":78,"len":64,"ecn_marked":false}"#,
            ),
            (
                Drop {
                    reason: DropKind::QueueFull,
                    port: Some(6),
                },
                r#"{"event":"drop","stage":"enqueue","t_ns":1000,"switch":161,"seq":7,"reason":"queue_full","port":6}"#,
            ),
            (
                Drop {
                    reason: DropKind::ParseError,
                    port: None,
                },
                r#"{"event":"drop","stage":"enqueue","t_ns":1000,"switch":161,"seq":7,"reason":"parse_error"}"#,
            ),
            (
                Dequeue {
                    port: 2,
                    queue: 3,
                    len: 1500,
                    depth_bytes: 0,
                },
                r#"{"event":"dequeue","stage":"dequeue","t_ns":1000,"switch":161,"seq":7,"port":2,"queue":3,"len":1500,"depth_bytes":0}"#,
            ),
            (
                LinkDown { port: 3 },
                r#"{"event":"link_down","stage":"fault","t_ns":1000,"switch":161,"seq":7,"port":3}"#,
            ),
            (
                LinkUp { port: 4 },
                r#"{"event":"link_up","stage":"fault","t_ns":1000,"switch":161,"seq":7,"port":4}"#,
            ),
            (
                SwitchReboot { epoch: 2 },
                r#"{"event":"switch_reboot","stage":"fault","t_ns":1000,"switch":161,"seq":7,"epoch":2}"#,
            ),
            (
                CorruptionInjected {
                    port: 1,
                    byte: 20,
                    bit: 5,
                },
                r#"{"event":"corruption_injected","stage":"fault","t_ns":1000,"switch":161,"seq":7,"port":1,"byte":20,"bit":5}"#,
            ),
        ];
        for (kind, expected) in cases {
            let line = ev(kind).to_json();
            let parsed = Json::parse(&line).expect("a trace line is JSON");
            assert_eq!(Ok(&parsed), Json::parse(expected).as_ref(), "{line}");
            assert_eq!(parsed.line(), line);
        }
    }

    #[test]
    fn stage_assignment() {
        assert_eq!(TraceEventKind::LookupMiss.stage(), Stage::Lookup);
        assert_eq!(
            TraceEventKind::Drop {
                reason: DropKind::QueueFull,
                port: Some(1)
            }
            .stage(),
            Stage::Enqueue
        );
    }
}

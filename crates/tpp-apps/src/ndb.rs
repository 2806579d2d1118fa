//! §2.3 — the forwarding-plane debugger, ndb.
//!
//! "Using TPPs, end-hosts can get the same level of visibility as ndb by
//! having a trusted entity insert the TPP shown below on all its packets.
//! On receiving a TPP that has finished executing on all hops, the
//! end-host gets an accurate view of the network forwarding state that
//! affected the packet's forwarding, without requiring the network to
//! create additional packet copies."
//!
//! The in-network program (the paper's three PUSHes plus the matched
//! entry's *version*, which is the ndb paper's stamp the text describes
//! the controller maintaining):
//!
//! ```text
//! PUSH [Switch:SwitchID]
//! PUSH [PacketMetadata:MatchedEntryID]
//! PUSH [PacketMetadata:MatchedEntryVersion]
//! PUSH [PacketMetadata:InputPort]
//! ```
//!
//! End-host side: [`NdbProbeSender`] stamps outgoing packets,
//! [`TraceCollector`] decodes each arrival into a [`PathTrace`], and
//! [`PathPolicy::verify`] checks traces against the administrator's
//! intent — detecting misrouting, stale rules (control/dataplane version
//! mismatch, "there can be a mismatch between the control plane's view of
//! routing state and the actual forwarding state in hardware") and loops;
//! black holes fall out of comparing sent vs. collected packet ids.

use std::collections::BTreeMap;

use tpp_host::{split_hops, ProbeBuilder, DATA_ETHERTYPE};
use tpp_isa::programs;
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::ethernet::Frame;
use tpp_wire::tpp::TppPacket;
use tpp_wire::EthernetAddress;

/// Words the ndb program records per hop.
pub const NDB_WORDS_PER_HOP: usize = programs::NDB_WORDS_PER_HOP;

const TIMER_SEND: u64 = 1;

/// What one switch reported about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdbHop {
    /// `Switch:SwitchID`.
    pub switch_id: u32,
    /// `PacketMetadata:MatchedEntryID` (0 = no TCAM match; forwarded by
    /// L2/L3).
    pub entry_id: u32,
    /// `PacketMetadata:MatchedEntryVersion`.
    pub entry_version: u32,
    /// `PacketMetadata:InputPort`.
    pub input_port: u32,
}

/// The reassembled journey of one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTrace {
    /// Application-assigned packet id (from the probe's inner payload).
    pub packet_id: u32,
    /// When the collector saw it, ns.
    pub t_ns: u64,
    /// Hop records in path order.
    pub hops: Vec<NdbHop>,
}

impl PathTrace {
    /// The switch ids along the path.
    pub fn path(&self) -> Vec<u32> {
        self.hops.iter().map(|h| h.switch_id).collect()
    }

    /// True when a switch appears twice — a forwarding loop.
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.hops.iter().any(|h| !seen.insert(h.switch_id))
    }
}

/// A policy violation found by [`PathPolicy::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The packet took a different switch sequence than intended.
    WrongPath {
        /// The administrator's intended path.
        expected: Vec<u32>,
        /// What the trace shows.
        actual: Vec<u32>,
    },
    /// A switch forwarded with an entry version older/newer than the
    /// controller believes is installed.
    StaleEntry {
        /// The switch.
        switch_id: u32,
        /// The entry that matched.
        entry_id: u32,
        /// Version the dataplane used.
        seen_version: u32,
        /// Version the controller intended.
        expected_version: u32,
    },
    /// The packet visited some switch twice.
    ForwardingLoop {
        /// The traced path.
        path: Vec<u32>,
    },
}

/// The administrator's intent for one traffic class.
#[derive(Debug, Clone, Default)]
pub struct PathPolicy {
    /// Intended switch sequence.
    pub expected_path: Vec<u32>,
    /// Controller's view of installed entry versions, keyed by
    /// `(switch id, entry id)` — the same entry id can be installed on
    /// several switches at different versions. Entries the trace reports
    /// but the map omits are not checked.
    pub expected_versions: BTreeMap<(u32, u32), u32>,
}

impl PathPolicy {
    /// Check one trace; empty result = conforming.
    pub fn verify(&self, trace: &PathTrace) -> Vec<Violation> {
        let mut violations = Vec::new();
        if trace.has_loop() {
            violations.push(Violation::ForwardingLoop { path: trace.path() });
        }
        let actual = trace.path();
        if !self.expected_path.is_empty() && actual != self.expected_path {
            violations.push(Violation::WrongPath {
                expected: self.expected_path.clone(),
                actual,
            });
        }
        for hop in &trace.hops {
            if hop.entry_id == 0 {
                continue;
            }
            if let Some(&expected) = self.expected_versions.get(&(hop.switch_id, hop.entry_id)) {
                if expected != hop.entry_version {
                    violations.push(Violation::StaleEntry {
                        switch_id: hop.switch_id,
                        entry_id: hop.entry_id,
                        seen_version: hop.entry_version,
                        expected_version: expected,
                    });
                }
            }
        }
        violations
    }
}

/// Packet ids that were sent but never traced — black holes.
pub fn missing_ids(sent: &[u32], traces: &[PathTrace]) -> Vec<u32> {
    let seen: std::collections::HashSet<u32> = traces.iter().map(|t| t.packet_id).collect();
    sent.iter()
        .copied()
        .filter(|id| !seen.contains(id))
        .collect()
}

/// The "trusted entity" that inserts the ndb TPP on traffic (§2.3): sends
/// `count` stamped packets to `dst`, one every `interval_ns`.
#[derive(Debug)]
pub struct NdbProbeSender {
    dst: EthernetAddress,
    probe: ProbeBuilder,
    interval_ns: u64,
    count: u32,
    /// Ids of packets sent so far (monotonic from 0).
    pub sent_ids: Vec<u32>,
}

impl NdbProbeSender {
    /// A sender of `count` traced packets along a path of at most
    /// `expected_hops` switches.
    pub fn new(dst: EthernetAddress, expected_hops: usize, interval_ns: u64, count: u32) -> Self {
        let program = programs::ndb_trace();
        NdbProbeSender {
            dst,
            probe: ProbeBuilder::stack(&program, expected_hops),
            interval_ns,
            count,
            sent_ids: Vec::new(),
        }
    }
}

impl HostApp for NdbProbeSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(1, TIMER_SEND);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if self.sent_ids.len() as u32 >= self.count {
            return;
        }
        let id = self.sent_ids.len() as u32;
        let mut frame = ctx.alloc_frame(self.probe.frame_len(4));
        self.probe.write_frame(
            self.dst,
            ctx.mac(),
            &id.to_be_bytes(),
            DATA_ETHERTYPE.0,
            &mut frame,
        );
        ctx.send(frame);
        self.sent_ids.push(id);
        ctx.set_timer(self.interval_ns, TIMER_SEND);
    }
}

/// The receiving server that "reassembles" traces (§2.3) — here each
/// arriving packet carries its whole trace, so reassembly is decoding.
#[derive(Debug, Default)]
pub struct TraceCollector {
    /// Every decoded trace, in arrival order.
    pub traces: Vec<PathTrace>,
    /// Frames that looked like ndb probes but failed to decode.
    pub undecodable: u64,
}

impl HostApp for TraceCollector {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.collect(&frame, ctx.now());
        ctx.recycle_frame(frame);
    }
}

impl TraceCollector {
    fn collect(&mut self, frame: &[u8], now: u64) {
        let Ok(parsed) = Frame::new_checked(frame) else {
            return;
        };
        if !parsed.is_tpp() {
            return;
        }
        let Ok(tpp) = TppPacket::new_checked(parsed.payload()) else {
            self.undecodable += 1;
            return;
        };
        let Some(sample) = split_hops(&tpp, NDB_WORDS_PER_HOP) else {
            self.undecodable += 1;
            return;
        };
        let inner = tpp.inner_payload();
        if inner.len() < 4 {
            self.undecodable += 1;
            return;
        }
        let packet_id = u32::from_be_bytes(inner[0..4].try_into().expect("4 bytes"));
        let hops = sample
            .hops()
            .map(|h| NdbHop {
                switch_id: h.word(0),
                entry_id: h.word(1),
                entry_version: h.word(2),
                input_port: h.word(3),
            })
            .collect();
        self.traces.push(PathTrace {
            packet_id,
            t_ns: now,
            hops,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(switch_id: u32, entry_id: u32, version: u32, port: u32) -> NdbHop {
        NdbHop {
            switch_id,
            entry_id,
            entry_version: version,
            input_port: port,
        }
    }

    fn trace(hops: Vec<NdbHop>) -> PathTrace {
        PathTrace {
            packet_id: 0,
            t_ns: 0,
            hops,
        }
    }

    #[test]
    fn conforming_trace_passes() {
        let policy = PathPolicy {
            expected_path: vec![1, 2, 3],
            expected_versions: [((1, 7), 2)].into(),
        };
        let t = trace(vec![hop(1, 7, 2, 0), hop(2, 0, 0, 1), hop(3, 0, 0, 1)]);
        assert!(policy.verify(&t).is_empty());
    }

    #[test]
    fn wrong_path_detected() {
        let policy = PathPolicy {
            expected_path: vec![1, 2, 3],
            ..Default::default()
        };
        let t = trace(vec![hop(1, 0, 0, 0), hop(4, 0, 0, 1), hop(3, 0, 0, 1)]);
        let violations = policy.verify(&t);
        assert_eq!(
            violations,
            vec![Violation::WrongPath {
                expected: vec![1, 2, 3],
                actual: vec![1, 4, 3]
            }]
        );
    }

    #[test]
    fn stale_entry_detected() {
        // Controller thinks entry 7 is at version 3; dataplane used 2.
        let policy = PathPolicy {
            expected_path: vec![1, 2],
            expected_versions: [((1, 7), 3)].into(),
        };
        let t = trace(vec![hop(1, 7, 2, 0), hop(2, 0, 0, 1)]);
        let violations = policy.verify(&t);
        assert_eq!(
            violations,
            vec![Violation::StaleEntry {
                switch_id: 1,
                entry_id: 7,
                seen_version: 2,
                expected_version: 3
            }]
        );
    }

    #[test]
    fn loop_detected() {
        let policy = PathPolicy::default();
        let t = trace(vec![hop(1, 0, 0, 0), hop(2, 0, 0, 1), hop(1, 0, 0, 2)]);
        let violations = policy.verify(&t);
        assert!(matches!(violations[0], Violation::ForwardingLoop { .. }));
        assert!(t.has_loop());
    }

    #[test]
    fn unknown_entries_are_not_checked() {
        let policy = PathPolicy {
            expected_path: vec![1],
            expected_versions: BTreeMap::new(),
        };
        let t = trace(vec![hop(1, 99, 5, 0)]);
        assert!(policy.verify(&t).is_empty());
    }

    #[test]
    fn missing_ids_found() {
        let traces = vec![
            PathTrace {
                packet_id: 0,
                t_ns: 0,
                hops: vec![],
            },
            PathTrace {
                packet_id: 2,
                t_ns: 0,
                hops: vec![],
            },
        ];
        assert_eq!(missing_ids(&[0, 1, 2, 3], &traces), vec![1, 3]);
        assert!(missing_ids(&[0, 2], &traces).is_empty());
    }
}

//! Whole-ASIC state snapshots for differential testing.
//!
//! The conformance harness (`tpp-bench`) needs to (a) seed two ASICs —
//! one with the decode cache on, one with it off — with *identical*
//! adversarial state, and (b) prove after a run that every piece of
//! TPP-visible state came out bit-identical. [`AsicState`] is the value
//! type both halves use: `Asic::snapshot` captures it,
//! `Asic::restore` replays it, and `PartialEq` compares it.
//!
//! Deliberately **not** captured:
//!
//! - the forwarding tables (L2/L3/TCAM) and the configuration — those are
//!   control-plane inputs the harness constructs explicitly, not state a
//!   TPP can observe or mutate (only `FlowTableVersion`, which lives in
//!   [`SwitchRegs`], is TPP-visible);
//! - the decode cache — it is semantically invisible by design, which is
//!   exactly the property the differential harness exists to check.
//!   Restoring it would let a buggy cache "restore" its own bug away.

use crate::stats::{PortStats, QueueStats, SwitchRegs};

/// Snapshot of one egress queue: registers plus the queued frames.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueState {
    /// The queue's statistics registers (`Queue:*`).
    pub stats: QueueStats,
    /// Queued frames, first in first, each as its head bytes and the
    /// count of zero bytes the wire carries after them (its tail).
    pub frames: Vec<(Vec<u8>, u32)>,
    /// The drop-tail byte limit (`Queue:Limit`).
    pub limit_bytes: u32,
}

/// Snapshot of one port: link registers, link SRAM, and every queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortState {
    /// The port's statistics registers (`Link:*`).
    pub stats: PortStats,
    /// The per-port link-local scratch SRAM.
    pub link_sram: Vec<u32>,
    /// One entry per egress queue, in queue-id order.
    pub queues: Vec<QueueState>,
}

/// Snapshot of every piece of mutable, TPP-visible ASIC state.
///
/// See the [module docs](self) for what is intentionally excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct AsicState {
    /// The global switch registers (`Switch:*`).
    pub regs: SwitchRegs,
    /// The switch-wide scratch SRAM.
    pub global_sram: Vec<u32>,
    /// One entry per port, in port-id order.
    pub ports: Vec<PortState>,
}

//! # tpp — Tiny Packet Programs
//!
//! A Rust reproduction of *Tiny Packet Programs for low-latency network
//! control and monitoring* (Jeyakumar, Alizadeh, Kim, Mazières —
//! HotNets-XII, 2013).
//!
//! TPPs embed a handful of RISC-style instructions in packet headers;
//! switch ASICs execute them at line rate against a memory-mapped view of
//! switch state (queue depths, link counters, forwarding metadata,
//! scratch SRAM). Complex network tasks then split into a trivial
//! in-network program and smart end-host logic.
//!
//! This facade re-exports the whole workspace:
//!
//! | Layer | Crate | What it is |
//! |---|---|---|
//! | [`wire`] | `tpp-wire` | Ethernet + TPP packet formats (zero-copy views) |
//! | [`isa`] | `tpp-isa` | Table 1 instruction set, §3.2.1 address space, assembler |
//! | [`asic`] | `tpp-asic` | The §3 switch pipeline: tables, MMU, TCPU, queues |
//! | [`netsim`] | `tpp-netsim` | Deterministic discrete-event network simulator |
//! | [`host`] | `tpp-host` | End-host toolkit: probes, echo, pacing, telemetry |
//! | [`apps`] | `tpp-apps` | §2's tasks: micro-burst, RCP\*, ndb, CSTORE counter |
//! | [`rcp_ref`] | `tpp-rcp-ref` | Reference in-router RCP (ns-2's role) + AIMD |
//! | [`control`] | `tpp-control` | Control-plane agent: SRAM partitioning, versions, edge security |
//! | [`spec`] | `tpp-spec` | Executable reference semantics — the conformance oracle for `asic` |
//! | [`obs`] | `tpp-obs` | Observability plane: collector, Prometheus/JSONL export, `tpp-top` |
//!
//! ## Quickstart
//!
//! Query queue depths along a 3-switch path with a one-instruction TPP
//! (the paper's Figure 1):
//!
//! ```
//! use tpp::isa::assemble;
//! use tpp::host::ProbeBuilder;
//! use tpp::wire::tpp::TppPacket;
//! use tpp::wire::{EthernetAddress, Frame};
//!
//! // 1. Write the program the switches will run.
//! let program = assemble("PUSH [Queue:QueueSize]").unwrap();
//!
//! // 2. Preallocate packet memory for 3 hops and mint the probe.
//! let probe = ProbeBuilder::stack(&program, 3);
//! let frame = probe.build_frame(
//!     EthernetAddress::from_host_id(1),
//!     EthernetAddress::from_host_id(0),
//! );
//!
//! // 3. (Normally the network executes it; see examples/quickstart.rs
//! //    for the full simulated run.)
//! let parsed = Frame::new_checked(&frame[..]).unwrap();
//! let tpp = TppPacket::new_checked(parsed.payload()).unwrap();
//! assert_eq!(tpp.instruction_count(), 1);
//! assert_eq!(tpp.mem_len(), 12); // 3 hops x 4-byte queue samples
//! ```
//!
//! Run `cargo run --example quickstart` for the end-to-end version, and
//! see `EXPERIMENTS.md` for the reproduction of every figure and table
//! in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tpp_apps as apps;
pub use tpp_asic as asic;
pub use tpp_control as control;
pub use tpp_host as host;
pub use tpp_isa as isa;
pub use tpp_netsim as netsim;
pub use tpp_obs as obs;
pub use tpp_rcp_ref as rcp_ref;
pub use tpp_spec as spec;
pub use tpp_telemetry as telemetry;
pub use tpp_wire as wire;

/// The commonly-used surface in one import: `use tpp::prelude::*;`.
///
/// Covers the quickstart path — assemble a program, mint a probe, wire a
/// simulated network, run it, decode the echo — plus the telemetry layer
/// (trace sinks, metrics). Anything deeper (individual tables, the MMU,
/// RCP internals) stays behind the per-crate modules above.
pub mod prelude {
    pub use crate::asic::{
        Asic, AsicConfig, DropReason, ExecReport, FlowAction, FlowEntry, FlowMatch, Outcome,
        PortConfig, PortId, QueueId, SramError, StripAction,
    };
    pub use crate::host::{
        decode_echo, split_hops, EchoReceiver, HopView, PathSample, ProbeBuilder, DATA_ETHERTYPE,
    };
    pub use crate::isa::{assemble, Program};
    pub use crate::netsim::{
        dumbbell, dumbbell_with, fat_tree, fat_tree_with, leaf_spine, leaf_spine_with,
        linear_chain, linear_chain_with, time, Dumbbell, DumbbellParams, Endpoint, FatTree,
        FatTreeParams, HostApp, HostCtx, HostId, LeafSpine, LeafSpineParams, LinearChain,
        LinearChainParams, NetworkBuilder, ObsHandle, RunLimit, SimConfig, Simulator, SwitchId,
        Topology,
    };
    pub use crate::obs::{prometheus_snapshot, series_jsonl, Collector};
    pub use crate::telemetry::{
        write_csv, write_jsonl, MetricsRegistry, SharedSink, TraceEvent, TraceEventKind, TraceSink,
    };
    pub use crate::wire::ethernet::{build_frame, EtherType, Frame};
    pub use crate::wire::tpp::{AddressingMode, TppBuilder, TppPacket};
    pub use crate::wire::EthernetAddress;
}

//! # tpp-netsim — a deterministic discrete-event network simulator
//!
//! The substrate the paper's evaluation ran on was a small physical
//! network around a TPP-enabled Linux router, compared against ns-2
//! simulations. This crate plays both roles: a packet-level, event-driven
//! simulator whose switches embed the `tpp-asic` dataplane model.
//!
//! Design goals, in the smoltcp spirit:
//!
//! * **Deterministic.** Event queues order by a canonical content-derived
//!   key (`time`, class, target, per-target sequence), never by insertion
//!   order or thread schedule — so identical inputs give bit-identical
//!   runs at *any* shard count, threaded or not. Any randomness lives in
//!   seeded per-link RNG streams.
//! * **Sharded.** The topology partitions into shards stepping in
//!   conservative windows bounded by the minimum inter-shard link delay
//!   (see [`SimConfig::shards`]); one shard reproduces the classic
//!   single event loop exactly.
//! * **Simple.** Store-and-forward output-queued switches, full-duplex
//!   links with a serialization rate (taken from the transmitting port's
//!   configured capacity) and a propagation delay. That is exactly the
//!   queueing model RCP/TCP dynamics need, and nothing more.
//! * **Passive components.** The simulator drives `Asic` objects and
//!   [`HostApp`] callbacks; neither ever blocks or owns a clock.
//!
//! Time is `u64` nanoseconds throughout ([`time`] has conversion helpers).
//!
//! ```
//! use tpp_netsim::{NetworkBuilder, Endpoint, HostApp, HostCtx, RunLimit, time};
//! use tpp_asic::AsicConfig;
//!
//! // Two hosts through one switch; host 0 sends one frame to host 1.
//! struct Sender;
//! impl HostApp for Sender {
//!     fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
//!         let frame = tpp_wire::ethernet::build_frame(
//!             tpp_wire::EthernetAddress::from_host_id(1),
//!             ctx.mac(),
//!             tpp_wire::ethernet::EtherType(0x0800),
//!             b"hello",
//!         );
//!         ctx.send(frame);
//!     }
//! }
//! #[derive(Default)]
//! struct Receiver { got: usize }
//! impl HostApp for Receiver {
//!     fn on_frame(&mut self, _frame: Vec<u8>, _ctx: &mut HostCtx<'_>) { self.got += 1; }
//! }
//!
//! let mut net = NetworkBuilder::new();
//! let s = net.add_switch(AsicConfig::with_ports(1, 2));
//! let h0 = net.add_host(Box::new(Sender), 1_000_000);
//! let h1 = net.add_host(Box::new(Receiver::default()), 1_000_000);
//! net.connect(Endpoint::host(h0), Endpoint::switch(s, 0), time::micros(1));
//! net.connect(Endpoint::host(h1), Endpoint::switch(s, 1), time::micros(1));
//! let mut sim = net.build();
//! sim.populate_l2();
//! sim.run(RunLimit::Until(time::millis(10)));
//! assert_eq!(sim.host_app::<Receiver>(h1).got, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod fault;
pub mod node;
pub mod obs;
pub mod pool;
pub mod profile;
pub mod routing;
pub mod series;
mod shard;
pub mod sim;
pub mod time;
pub mod topology;

pub use config::{RunLimit, SimConfig};
pub use fault::{ChannelProfile, FaultAction, FaultCounters, FaultPlan};
pub use node::{AsAny, HostApp, HostCtx, HostId, SwitchId};
pub use obs::ObsHandle;
pub use pool::FramePool;
pub use profile::{Interp, LinkProfile, LinkState};
pub use routing::{flow_label, EcmpTable};
pub use series::{
    RingSeries, SeriesSet, SwitchSeries, FLEET_SERIES_METRICS, SWITCH_SERIES_METRICS,
};
pub use shard::ShardSyncStats;
pub use sim::{Endpoint, NetworkBuilder, Simulator, TapDir, TapRecord, Topology};
pub use topology::{
    bonded_diamond, bonded_diamond_with, dumbbell, dumbbell_with, fat_tree, fat_tree_with,
    leaf_spine, leaf_spine_with, linear_chain, linear_chain_with, BondedDiamond,
    BondedDiamondParams, Dumbbell, DumbbellParams, FatTree, FatTreeParams, LeafSpine,
    LeafSpineParams, LinearChain, LinearChainParams,
};

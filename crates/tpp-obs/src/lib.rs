//! # tpp-obs — the observability plane
//!
//! The paper's thesis is that TPPs make the *network itself* observable
//! at packet timescales: end-hosts read switch state by sending tiny
//! programs instead of waiting for management-plane polls. This crate
//! is the layer that turns the reproduction's raw signals into operator
//! artifacts, sitting above `tpp-telemetry` (registries, trace sinks)
//! and drawing on three sources:
//!
//! 1. **Dataplane spans** — `tpp-asic`'s opt-in [`PipelineProfile`]
//!    attributes cycles to parser/tables/TCPU/MMU/scheduler stages per
//!    packet and checks the §3 cut-through latency budget (300 ns at
//!    1 GHz).
//! 2. **Simulator series** — `tpp-netsim`'s ring-buffer time series
//!    sample queue depth, utilization, drop/fault and cache-hit rates
//!    every stats tick.
//! 3. **TPP measurements** — the [`Collector`] aggregates what the
//!    *end-hosts* observed via probes (§2.1 queue samples, RTTs) and
//!    cross-checks it against simulator ground truth: if TPPs are a
//!    sound measurement plane, the two views must agree whenever the
//!    network is quiescent and lossless.
//!
//! Exports: [`prometheus_snapshot`] (Prometheus text format) and
//! [`series_jsonl`] (one JSON object per series, for offline plotting).
//!
//! On top of the raw sources sits the dashboard stack: [`window`] folds
//! ring-series samples into fixed-width min/mean/max/p50/p99 windows,
//! [`snapshot`] aggregates switches, transport, ECMP spread and bonded
//! paths into one [`FleetSnapshot`], and [`render`] turns a snapshot
//! into a fixed-size character frame as a pure function — which is why
//! CI can golden-pin dashboard frames byte-for-byte.
//!
//! [`PipelineProfile`]: tpp_asic::PipelineProfile

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod render;
pub mod snapshot;
pub mod window;

pub use collector::{Collector, PathView, QueueView, SwitchDivergence};
pub use export::{parse_series_jsonl, prometheus_snapshot, series_jsonl, SeriesDump};
pub use render::{render_dashboard, render_profile_diff, DashState, FrameBuf, Tab};
pub use snapshot::{FleetSnapshot, SortKey};
pub use window::{WindowAgg, WindowStore, WindowedSeries};

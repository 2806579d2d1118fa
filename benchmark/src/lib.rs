//! # tpp-benchmark — the repo benchmark
//!
//! Six workloads, eleven end-to-end metrics and 69 per-layer metrics of
//! the TPP reproduction, measured **from outside**: this package calls
//! only public functions of the crates and changes nothing under
//! `crates/`. `BENCHMARK.json` at the repo root declares it; the README
//! beside this package has the tables, the reasons, and how to extend it.
//!
//! * [`spec`] — every name: workloads, metrics, units, bounds.
//! * [`workloads`] — the six workloads and the pass they share.
//! * [`trace`] — spans: the generic [`trace::Traced`] host-app wrapper.
//! * [`probes`] — layer probes: timed batches of one public function.
//! * [`runner`] — one child process per pass, gates, medians, reports.
//! * [`selfcheck`] — the whole set twice, against the bounds.
//! * [`stats`] — the one percentile rule; [`json`] — writer and reader.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod host;
pub mod json;
pub mod pass;
pub mod probes;
pub mod runner;
pub mod selfcheck;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

//! # tpp-telemetry — structured tracing and metrics for the TPP pipeline
//!
//! The paper's premise is that dataplane visibility should be cheap and
//! programmable; the follow-up ("Millions of Little Minions", SIGCOMM
//! 2014) turns exactly this into a production visibility system. This
//! crate is the reproduction's own visibility layer: a zero-cost-when-
//! disabled event stream emitted by every stage of the `tpp-asic`
//! pipeline (parse → table lookup → TCPU → enqueue/drop → dequeue) and a
//! metrics registry `tpp-netsim` aggregates across switches on every
//! stats tick.
//!
//! Design:
//!
//! * [`TraceEvent`] — one typed record per pipeline stage transition,
//!   carrying switch id, packet sequence number, timestamps, queue depth
//!   and TCPU cycle accounting. The schema is documented field by field
//!   in DESIGN.md ("Observability").
//! * [`SharedSink`] — where events go: a bounded ring that keeps the
//!   most recent `capacity` events and counts what it sheds. An ASIC
//!   records only when a sink is attached, so an untraced one pays a
//!   single null-check per stage. The handle is cheaply clonable so one
//!   buffer collects events from many switches (shards record from
//!   worker threads, so this is an `Arc<Mutex<…>>`, and reads come back
//!   in a canonical `(t_ns, switch_id)` order).
//! * The JSON-lines exporter ([`write_jsonl`]) — the format
//!   `tpp-bench`'s `--trace out.jsonl` flags produce.
//! * [`json::Json`] — the workspace's one JSON value, reader and
//!   writers (pretty for tracked files, one line for JSON lines), below
//!   every other JSON the workspace writes or reads.
//! * [`MetricsRegistry`] — named counters and log₂-bucket histograms,
//!   merged across switches by `tpp-netsim::Simulator` on `tick`.
//! * [`nearest_rank`] — the one quantile rule over raw samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{
    write_jsonl, DropKind, LookupKind, Stage, TcpuOutcome, TraceEvent, TraceEventKind,
};
pub use metrics::{nearest_rank, Histogram, MetricsRegistry};
pub use sink::SharedSink;

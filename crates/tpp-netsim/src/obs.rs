//! The observability handle: one accessor grouping every observation
//! knob that used to be a loose `Simulator` method.
//!
//! `sim.observe()` returns an [`ObsHandle`] borrowing the simulator;
//! the time-series layer, frame taps and instruction-level trace sinks
//! all hang off it. The tick cadence they sample at is
//! [`SimConfig::tick_interval_ns`](crate::SimConfig::tick_interval_ns). The handle exists so the `Simulator`
//! surface reads as *control* (build, run, inject) while everything that
//! merely watches the run lives in one place.

use crate::sim::{Endpoint, Simulator};
use tpp_telemetry::SharedSink;

/// Borrowed access to a simulator's observability plane; obtained from
/// [`Simulator::observe`].
///
/// ```no_run
/// # let mut sim: tpp_netsim::Simulator = unimplemented!();
/// let sink = sim.observe().trace_all(4096);
/// sim.observe().series(512);
/// ```
pub struct ObsHandle<'a> {
    sim: &'a mut Simulator,
}

impl<'a> ObsHandle<'a> {
    pub(crate) fn new(sim: &'a mut Simulator) -> Self {
        ObsHandle { sim }
    }

    /// Enable the per-tick time-series layer with ring series of
    /// `capacity` points (see [`crate::series`]). Read back via
    /// [`Simulator::series`].
    pub fn series(self, capacity: usize) -> Self {
        self.sim.enable_series_impl(capacity);
        self
    }

    /// Start capturing frame summaries at an endpoint, both directions.
    /// Read back via [`Simulator::tap_records`].
    pub fn tap(self, at: Endpoint) -> Self {
        self.sim.enable_tap_impl(at);
        self
    }

    /// Attach one shared trace sink (capacity `capacity` events) to every
    /// switch, and to the simulator itself for fault events. Returns a
    /// handle that stays readable while the simulation runs.
    pub fn trace_all(self, capacity: usize) -> SharedSink {
        self.sim.trace_all_impl(capacity)
    }
}

//! Simulation-wide configuration ([`SimConfig`]) and run limits
//! ([`RunLimit`]).
//!
//! `SimConfig` is the one place where knobs that used to be scattered
//! over `NetworkBuilder` setters and post-build `Simulator` methods now
//! live: shard count, tick interval, RNG seed, frame-pool bounds and
//! ECMP. It is an owned value with chainable builder
//! methods, consumed by [`NetworkBuilder::with_config`] — no `&mut`
//! chaining, no partially-applied state.
//!
//! [`NetworkBuilder::with_config`]: crate::NetworkBuilder::with_config

/// Configuration for a [`Simulator`](crate::Simulator).
///
/// Marked `#[non_exhaustive]` so future knobs can be added without a
/// breaking release: construct it with [`SimConfig::new`] /
/// [`SimConfig::default`] and the chainable setters, not with a struct
/// literal.
///
/// ```
/// use tpp_netsim::SimConfig;
/// let cfg = SimConfig::new().shards(4).tick_interval_ns(500_000);
/// assert_eq!(cfg.shards, 4);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of scheduler shards the topology is partitioned into
    /// (clamped to the node count at build time; zero-delay inter-shard
    /// links force a single shard). Seeded results are bit-identical
    /// for every shard count.
    pub shards: usize,
    /// Step shards on worker threads when `shards > 1`. Purely a
    /// throughput knob: the sequential and threaded drivers share the
    /// identical window schedule, so results never depend on it.
    pub parallel: bool,
    /// How often switch utilization EWMAs (and the series layer) tick,
    /// ns. Default 1 ms.
    pub tick_interval_ns: u64,
    /// Seed of the simulator-owned RNG streams (per-link in-flight loss).
    /// Fault-plan streams are seeded separately by
    /// [`FaultPlan::seed`](crate::FaultPlan::seed).
    pub seed: u64,
    /// Retired frame buffers each shard's pool retains for reuse, per
    /// size class (see [`crate::pool`]).
    pub frame_pool_buffers: usize,
    /// Enable ECMP routing: at build time an equal-cost next-hop table
    /// is derived from the topology (all shortest paths, not just the
    /// BFS tree), and switches with more than one candidate egress pick
    /// one by a pure flow-key hash of `(seed, src, dst, flow label)` —
    /// see [`crate::routing`]. Off by default: single-path runs stay
    /// byte-identical to builds predating this knob.
    pub ecmp: bool,
}

/// The historical simulator seed; kept as the default so seeded runs
/// predating `SimConfig` reproduce unchanged.
pub(crate) const DEFAULT_SEED: u64 = 0x7199_7199;

impl Default for SimConfig {
    /// One shard: the reference every row of
    /// [`shard_matrix`](crate::shard_matrix) must reproduce.
    fn default() -> Self {
        SimConfig {
            shards: 1,
            parallel: true,
            tick_interval_ns: crate::time::millis(1),
            seed: DEFAULT_SEED,
            frame_pool_buffers: 1024,
            ecmp: false,
        }
    }
}

impl SimConfig {
    /// Alias of [`SimConfig::default`].
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Set the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Force sequential shard stepping (one thread), e.g. for profiling.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Set whether multi-shard runs use worker threads.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Set the stats-tick interval (must be positive).
    pub fn tick_interval_ns(mut self, ns: u64) -> Self {
        assert!(ns > 0, "tick interval must be positive");
        self.tick_interval_ns = ns;
        self
    }

    /// Set the seed of the simulator-owned RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound each shard's frame pool to `buffers` retired buffers per
    /// size class.
    pub fn frame_pool_buffers(mut self, buffers: usize) -> Self {
        self.frame_pool_buffers = buffers;
        self
    }

    /// Enable (or disable) hash-based ECMP over equal-cost next hops.
    pub fn ecmp(mut self, ecmp: bool) -> Self {
        self.ecmp = ecmp;
        self
    }
}

/// How long [`Simulator::run`](crate::Simulator::run) runs.
///
/// Replaces the old `run_until` / `run_until_quiescent` method pair with
/// one argument, so the run loop has a single entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Run until simulation time `t_end_ns` (inclusive). May be issued
    /// repeatedly with increasing times; experiments step the clock in
    /// increments to sample ground-truth state in between.
    Until(u64),
    /// Run until a stats tick finds no event pending anywhere, or until
    /// `limit_ns`, whichever comes first. The tick that finds the
    /// network drained is taken and the clock stops at it, so a run with
    /// no traffic at all stops at the first tick.
    Quiescent {
        /// Hard time limit, ns.
        limit_ns: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_chain_by_value() {
        let cfg = SimConfig::new()
            .shards(4)
            .sequential()
            .tick_interval_ns(42)
            .seed(7)
            .frame_pool_buffers(8)
            .ecmp(true);
        assert_eq!(cfg.shards, 4);
        assert!(!cfg.parallel);
        assert_eq!(cfg.tick_interval_ns, 42);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.frame_pool_buffers, 8);
        assert!(cfg.ecmp);
        assert!(!SimConfig::new().ecmp, "ECMP is opt-in");
        assert_eq!(SimConfig::new().shards, 1, "one shard unless asked");
    }

    #[test]
    fn shards_clamped_to_at_least_one() {
        assert_eq!(SimConfig::new().shards(0).shards, 1);
    }
}

//! Time-varying link profiles: piecewise bandwidth / loss / latency
//! traces layered on top of a link's static configuration.
//!
//! A [`LinkProfile`] is a sorted list of `(t_ns, LinkState)` breakpoints
//! plus an interpolation mode. Sampling is a **pure function of
//! simulation time** — no RNG, no mutable state — which is what makes
//! profiles trivially bit-identical across shard counts: every shard
//! evaluating `sample(t)` for the same `t` sees the same answer, and the
//! loss dice still come from the link's own seeded stream (see
//! `Simulator::set_link_profile`).
//!
//! Profiles *compose* with the static link configuration rather than
//! replacing it:
//!
//! * `loss_permille` **adds** to the static `set_link_loss` value
//!   (clamped to 1000),
//! * `extra_delay_ns` **adds** to the link's propagation delay — it can
//!   only increase latency, which keeps the conservative-lookahead bound
//!   (min static cross-shard delay) sound,
//! * `rate_permille` **scales** the serialization time (1000 = nominal
//!   rate, 500 = half rate ⇒ frames take twice as long on the wire).
//!
//! [`LinkProfile::cellular_degradation`] builds the canonical
//! ramp-hold-recover trace used by the bonding scenario: a link that
//! slides from pristine to awful and back, the shape of a cellular modem
//! driving under a bridge.

/// Effective link state at one instant: the three knobs a profile can
/// move over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkState {
    /// Additional loss probability in permille (added to the static
    /// `set_link_loss` value, total clamped to 1000).
    pub loss_permille: u16,
    /// Additional one-way latency in nanoseconds (added to the link's
    /// propagation delay).
    pub extra_delay_ns: u64,
    /// Rate scale in permille of the nominal link rate: 1000 = full
    /// rate, 500 = half rate. Values above 1000 are allowed (boost);
    /// 0 is treated as 1 (a link never serializes infinitely fast or
    /// infinitely slow — use loss/flaps to kill it outright).
    pub rate_permille: u32,
}

impl LinkState {
    /// The identity state: no extra loss, no extra delay, full rate.
    pub const fn nominal() -> Self {
        LinkState {
            loss_permille: 0,
            extra_delay_ns: 0,
            rate_permille: 1000,
        }
    }
}

impl Default for LinkState {
    fn default() -> Self {
        Self::nominal()
    }
}

/// How to evaluate the profile between breakpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interp {
    /// Each breakpoint holds until the next one (piecewise constant).
    #[default]
    Step,
    /// Linear interpolation between consecutive breakpoints (integer
    /// math, deterministic).
    Linear,
}

/// A piecewise time-varying link trace. Build with [`LinkProfile::new`]
/// and chained [`at`](LinkProfile::at) calls, or use a convenience
/// constructor like [`cellular_degradation`](LinkProfile::cellular_degradation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkProfile {
    points: Vec<(u64, LinkState)>,
    interp: Interp,
}

impl LinkProfile {
    /// An empty profile (samples to [`LinkState::nominal`] everywhere)
    /// with the given interpolation mode.
    pub fn new(interp: Interp) -> Self {
        LinkProfile {
            points: Vec::new(),
            interp,
        }
    }

    /// A step profile (most common case).
    pub fn step() -> Self {
        Self::new(Interp::Step)
    }

    /// A linearly interpolated profile.
    pub fn linear() -> Self {
        Self::new(Interp::Linear)
    }

    /// Append a breakpoint. Times must be strictly increasing.
    pub fn at(mut self, t_ns: u64, state: LinkState) -> Self {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                t_ns > last,
                "LinkProfile breakpoints must be strictly increasing ({t_ns} after {last})"
            );
        }
        self.points.push((t_ns, state));
        self
    }

    /// The breakpoints of this profile.
    pub fn points(&self) -> &[(u64, LinkState)] {
        &self.points
    }

    /// Sample the profile at `t_ns`. Pure: same `t_ns` in, same state
    /// out, on every shard. Before the first breakpoint the link is
    /// nominal; after the last breakpoint the last state holds.
    pub fn sample(&self, t_ns: u64) -> LinkState {
        // Index of the last breakpoint at or before t_ns.
        let idx = match self.points.binary_search_by_key(&t_ns, |&(t, _)| t) {
            Ok(i) => i,
            Err(0) => return LinkState::nominal(),
            Err(i) => i - 1,
        };
        let (t0, s0) = self.points[idx];
        match self.interp {
            Interp::Step => s0,
            Interp::Linear => match self.points.get(idx + 1) {
                None => s0,
                Some(&(t1, s1)) => lerp_state(t_ns, t0, s0, t1, s1),
            },
        }
    }

    /// The worst-case loss this profile can ever contribute. Used to
    /// decide whether the link's loss RNG must be armed at install time
    /// (the RNG is only ever consulted when the effective loss is
    /// non-zero, so clean profiles stay bit-identical to no profile).
    pub(crate) fn max_loss_permille(&self) -> u16 {
        self.points
            .iter()
            .map(|&(_, s)| s.loss_permille)
            .max()
            .unwrap_or(0)
    }

    /// The canonical degradation trace: nominal until `start_ns`, then a
    /// linear ramp over `ramp_ns` down to `worst`, held for `hold_ns`,
    /// then a linear recovery over `ramp_ns` back to nominal.
    pub fn cellular_degradation(
        start_ns: u64,
        ramp_ns: u64,
        hold_ns: u64,
        worst: LinkState,
    ) -> Self {
        assert!(ramp_ns > 0, "degradation ramp must be non-zero");
        Self::linear()
            .at(start_ns, LinkState::nominal())
            .at(start_ns + ramp_ns, worst)
            .at(start_ns + ramp_ns + hold_ns, worst)
            .at(start_ns + 2 * ramp_ns + hold_ns, LinkState::nominal())
    }
}

/// Integer linear interpolation of one scalar between two breakpoints.
fn lerp_u64(t: u64, t0: u64, v0: u64, t1: u64, v1: u64) -> u64 {
    debug_assert!(t0 <= t && t <= t1 && t0 < t1);
    let span = (t1 - t0) as u128;
    let frac = (t - t0) as u128;
    if v1 >= v0 {
        v0 + ((v1 - v0) as u128 * frac / span) as u64
    } else {
        v0 - ((v0 - v1) as u128 * frac / span) as u64
    }
}

fn lerp_state(t: u64, t0: u64, s0: LinkState, t1: u64, s1: LinkState) -> LinkState {
    LinkState {
        loss_permille: lerp_u64(t, t0, s0.loss_permille as u64, t1, s1.loss_permille as u64) as u16,
        extra_delay_ns: lerp_u64(t, t0, s0.extra_delay_ns, t1, s1.extra_delay_ns),
        rate_permille: lerp_u64(t, t0, s0.rate_permille as u64, t1, s1.rate_permille as u64) as u32,
    }
}

/// Scale a serialization time by a profile's rate: `rate_permille` of
/// 500 doubles the wire time. A rate of 0 is clamped to 1 so a frame
/// always finishes serializing eventually.
pub(crate) fn scale_tx_ns(tx_ns: u64, rate_permille: u32) -> u64 {
    if rate_permille == 1000 {
        return tx_ns;
    }
    (tx_ns as u128 * 1000 / rate_permille.max(1) as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_nominal() {
        let p = LinkProfile::step();
        assert_eq!(p.sample(0), LinkState::nominal());
        assert_eq!(p.sample(u64::MAX), LinkState::nominal());
        assert_eq!(p.max_loss_permille(), 0);
    }

    #[test]
    fn step_holds_between_breakpoints() {
        let bad = LinkState {
            loss_permille: 300,
            extra_delay_ns: 1_000,
            rate_permille: 250,
        };
        let p = LinkProfile::step()
            .at(100, bad)
            .at(200, LinkState::nominal());
        assert_eq!(p.sample(99), LinkState::nominal());
        assert_eq!(p.sample(100), bad);
        assert_eq!(p.sample(199), bad);
        assert_eq!(p.sample(200), LinkState::nominal());
        assert_eq!(p.sample(10_000), LinkState::nominal());
        assert_eq!(p.max_loss_permille(), 300);
    }

    #[test]
    fn linear_interpolates_and_holds_last() {
        let worst = LinkState {
            loss_permille: 400,
            extra_delay_ns: 2_000,
            rate_permille: 200,
        };
        let p = LinkProfile::linear()
            .at(1_000, LinkState::nominal())
            .at(2_000, worst);
        let mid = p.sample(1_500);
        assert_eq!(mid.loss_permille, 200);
        assert_eq!(mid.extra_delay_ns, 1_000);
        assert_eq!(mid.rate_permille, 600);
        // Last breakpoint holds forever.
        assert_eq!(p.sample(5_000), worst);
        // Before the first breakpoint: nominal.
        assert_eq!(p.sample(0), LinkState::nominal());
    }

    #[test]
    fn cellular_degradation_shape() {
        let worst = LinkState {
            loss_permille: 300,
            extra_delay_ns: 200_000,
            rate_permille: 200,
        };
        let p = LinkProfile::cellular_degradation(4_000_000, 2_000_000, 4_000_000, worst);
        assert_eq!(p.sample(0), LinkState::nominal());
        assert_eq!(p.sample(3_999_999), LinkState::nominal());
        // Midway down the ramp.
        let mid = p.sample(5_000_000);
        assert_eq!(mid.loss_permille, 150);
        assert_eq!(mid.rate_permille, 600);
        // Held at worst.
        assert_eq!(p.sample(7_000_000), worst);
        assert_eq!(p.sample(10_000_000), worst);
        // Recovered.
        assert_eq!(p.sample(12_000_000), LinkState::nominal());
        assert_eq!(p.sample(u64::MAX), LinkState::nominal());
    }

    #[test]
    fn sample_is_pure() {
        let p = LinkProfile::cellular_degradation(
            1_000,
            500,
            2_000,
            LinkState {
                loss_permille: 999,
                extra_delay_ns: 77,
                rate_permille: 1,
            },
        );
        for t in (0..10_000).step_by(37) {
            assert_eq!(p.sample(t), p.sample(t));
        }
    }

    #[test]
    fn scale_tx_clamps_zero_rate() {
        assert_eq!(scale_tx_ns(1_000, 1000), 1_000);
        assert_eq!(scale_tx_ns(1_000, 500), 2_000);
        assert_eq!(scale_tx_ns(1_000, 2000), 500);
        assert_eq!(scale_tx_ns(1_000, 0), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_breakpoints_panic() {
        let _ = LinkProfile::step()
            .at(100, LinkState::nominal())
            .at(100, LinkState::nominal());
    }
}

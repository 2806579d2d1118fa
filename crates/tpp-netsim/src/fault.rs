//! Deterministic fault injection: seeded chaos schedules for the
//! simulator.
//!
//! The paper's architecture pushes reliability to end-hosts: TPPs ride
//! unreliable packets, switches reboot and lose SRAM, links flap. This
//! module lets experiments *schedule* that misbehavior — a [`FaultPlan`]
//! is a list of `(time, action)` entries plus one seed for the fault
//! RNG, installed via [`Simulator::install_faults`].
//!
//! Determinism contract:
//!
//! * All per-frame randomness (duplication, reordering, bit corruption)
//!   comes from a dedicated RNG seeded with [`FaultPlan::new`]'s seed —
//!   the simulator's pre-existing loss RNG is untouched, so runs without
//!   an installed plan are bit-identical to runs before this feature
//!   existed.
//! * The fault RNG is consulted only while a fault window is active and
//!   only for the fault kinds whose probability is non-zero, in a fixed
//!   order (corrupt → duplicate → reorder) per frame. Identical plans
//!   (same seed, same entries) therefore give byte-identical event
//!   sequences.
//!
//! [`Simulator::install_faults`]: crate::Simulator::install_faults

use crate::node::SwitchId;
use crate::sim::Endpoint;

/// Probabilistic per-frame misbehavior of one link direction, active
/// while a window scheduled by [`FaultPlan::channel_window`] (or the
/// convenience wrappers) is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelProfile {
    /// Per-mille chance a frame is delivered twice.
    pub duplicate_permille: u16,
    /// Per-mille chance a frame is held back by a random extra delay
    /// (letting later frames overtake it).
    pub reorder_permille: u16,
    /// Upper bound (exclusive) of the uniform extra delay, ns, applied
    /// to frames selected for reordering.
    pub reorder_spread_ns: u64,
    /// Per-mille chance one bit of the frame's TPP section is flipped
    /// in flight (non-TPP frames are never corrupted).
    pub corrupt_permille: u16,
}

impl ChannelProfile {
    /// True when the profile injects nothing — the state outside any
    /// window. A clean profile never consults the fault RNG.
    pub(crate) fn is_clean(&self) -> bool {
        self.duplicate_permille == 0 && self.reorder_permille == 0 && self.corrupt_permille == 0
    }
}

/// One scheduled fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take both directions of the link attached at `at` down: frames
    /// transmitted in either direction are lost (and counted as link
    /// losses) until a matching [`FaultAction::LinkUp`].
    LinkDown {
        /// Either endpoint of the link.
        at: Endpoint,
    },
    /// Restore both directions of the link attached at `at`.
    LinkUp {
        /// Either endpoint of the link.
        at: Endpoint,
    },
    /// Reboot a switch: [`Asic::reset`](tpp_asic::Asic::reset) wipes its
    /// volatile state and bumps `Switch:BootEpoch`; the simulator then
    /// re-installs L2 routes (modeling the control plane reconverging).
    SwitchReboot {
        /// The switch to reboot.
        switch: SwitchId,
    },
    /// Replace the channel fault profile of the direction transmitted
    /// from `from` (windows are a `SetChannel(profile)` at open and a
    /// `SetChannel(clean)` at close).
    SetChannel {
        /// The transmitting endpoint of the affected direction.
        from: Endpoint,
        /// The new profile.
        profile: ChannelProfile,
    },
}

/// A seeded, time-ordered schedule of fault injections.
///
/// Entries are scheduled in the order they were added (ties at one time
/// keep insertion order, matching the event queue's tie-breaking), so a
/// plan is a pure value: same seed + same entries ⇒ same chaos.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<(u64, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan whose per-frame randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
        }
    }

    /// The fault RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled `(time_ns, action)` entries, in insertion order.
    pub fn entries(&self) -> &[(u64, FaultAction)] {
        &self.entries
    }

    /// Schedule a raw action.
    pub fn at(&mut self, t_ns: u64, action: FaultAction) -> &mut Self {
        self.entries.push((t_ns, action));
        self
    }

    /// Take the link at `at` down at `t_ns`.
    pub fn link_down(&mut self, t_ns: u64, at: Endpoint) -> &mut Self {
        self.at(t_ns, FaultAction::LinkDown { at })
    }

    /// Bring the link at `at` back up at `t_ns`.
    pub fn link_up(&mut self, t_ns: u64, at: Endpoint) -> &mut Self {
        self.at(t_ns, FaultAction::LinkUp { at })
    }

    /// Flap the link at `at`: down at `t_down_ns`, up at `t_up_ns`.
    pub fn link_flap(&mut self, t_down_ns: u64, t_up_ns: u64, at: Endpoint) -> &mut Self {
        assert!(t_down_ns < t_up_ns, "flap must go down before up");
        self.link_down(t_down_ns, at).link_up(t_up_ns, at)
    }

    /// Reboot `switch` at `t_ns`.
    pub fn switch_reboot(&mut self, t_ns: u64, switch: SwitchId) -> &mut Self {
        self.at(t_ns, FaultAction::SwitchReboot { switch })
    }

    /// Apply `profile` to the direction transmitted from `from` over
    /// `[t_start_ns, t_end_ns)`, reverting to a clean channel at the end.
    pub fn channel_window(
        &mut self,
        t_start_ns: u64,
        t_end_ns: u64,
        from: Endpoint,
        profile: ChannelProfile,
    ) -> &mut Self {
        assert!(t_start_ns < t_end_ns, "window must have positive length");
        self.at(t_start_ns, FaultAction::SetChannel { from, profile })
            .at(
                t_end_ns,
                FaultAction::SetChannel {
                    from,
                    profile: ChannelProfile::default(),
                },
            )
    }

    /// Duplicate frames transmitted from `from` with probability
    /// `permille`/1000 over the window.
    pub fn duplicate_window(
        &mut self,
        t_start_ns: u64,
        t_end_ns: u64,
        from: Endpoint,
        permille: u16,
    ) -> &mut Self {
        self.channel_window(
            t_start_ns,
            t_end_ns,
            from,
            ChannelProfile {
                duplicate_permille: permille.min(1000),
                ..ChannelProfile::default()
            },
        )
    }

    /// Delay (reorder) frames transmitted from `from` with probability
    /// `permille`/1000 by up to `spread_ns` over the window.
    pub fn reorder_window(
        &mut self,
        t_start_ns: u64,
        t_end_ns: u64,
        from: Endpoint,
        permille: u16,
        spread_ns: u64,
    ) -> &mut Self {
        self.channel_window(
            t_start_ns,
            t_end_ns,
            from,
            ChannelProfile {
                reorder_permille: permille.min(1000),
                reorder_spread_ns: spread_ns,
                ..ChannelProfile::default()
            },
        )
    }

    /// Flip one random bit in the TPP section of frames transmitted from
    /// `from` with probability `permille`/1000 over the window.
    pub fn corrupt_window(
        &mut self,
        t_start_ns: u64,
        t_end_ns: u64,
        from: Endpoint,
        permille: u16,
    ) -> &mut Self {
        self.channel_window(
            t_start_ns,
            t_end_ns,
            from,
            ChannelProfile {
                corrupt_permille: permille.min(1000),
                ..ChannelProfile::default()
            },
        )
    }
}

/// Running totals of injected faults, readable via
/// [`Simulator::fault_counters`](crate::Simulator::fault_counters) and
/// folded into the fleet metrics registry (`fault.*`) on every stats
/// tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames black-holed because their link direction was down.
    pub link_down_drops: u64,
    /// Extra deliveries injected by duplication windows.
    pub duplicated: u64,
    /// Frames that had a TPP-section bit flipped.
    pub corrupted: u64,
    /// Frames held back by a reordering delay.
    pub reordered: u64,
    /// Switch reboots executed.
    pub reboots: u64,
    /// Link-down events executed.
    pub link_downs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_records_entries_in_order() {
        let mut plan = FaultPlan::new(7);
        let ep = Endpoint::switch(SwitchId(0), 1);
        plan.link_flap(100, 200, ep)
            .switch_reboot(150, SwitchId(0))
            .corrupt_window(50, 300, ep, 500);
        assert_eq!(plan.seed(), 7);
        let times: Vec<u64> = plan.entries().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![100, 200, 150, 50, 300]);
        assert!(matches!(plan.entries()[0].1, FaultAction::LinkDown { .. }));
        assert!(matches!(
            plan.entries()[4].1,
            FaultAction::SetChannel { profile, .. } if profile.is_clean()
        ));
    }

    #[test]
    fn clean_profile_detection() {
        assert!(ChannelProfile::default().is_clean());
        assert!(!ChannelProfile {
            duplicate_permille: 1,
            ..ChannelProfile::default()
        }
        .is_clean());
        // A spread without a probability is still clean: nothing fires.
        assert!(ChannelProfile {
            reorder_spread_ns: 1000,
            ..ChannelProfile::default()
        }
        .is_clean());
    }

    #[test]
    #[should_panic(expected = "down before up")]
    fn flap_order_enforced() {
        let mut plan = FaultPlan::new(0);
        plan.link_flap(200, 100, Endpoint::host(crate::HostId(0)));
    }
}

//! The network controller: versioned rule management and edge security.
//!
//! The controller is the "trusted entity" of §2.3 and the policy holder
//! of §4. It is deliberately *not* in the dataplane: it configures
//! switches between packets (installing rules, initializing task SRAM,
//! marking ports untrusted) and remembers its **intent**, which ndb's
//! verifier later compares against what TPPs observed in the dataplane —
//! "there can be a mismatch between the control plane's view of routing
//! state and the actual forwarding state in hardware" (§2.3).

use std::collections::BTreeMap;

use tpp_asic::{Asic, FlowAction, FlowEntry, FlowMatch, PortId, StripAction};

/// Trust level of an edge port (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTrust {
    /// Trusted infrastructure: TPPs pass and execute.
    Trusted,
    /// Untrusted attachment (tenant VM, Internet): TPPs are dropped.
    UntrustedDrop,
    /// Untrusted attachment: TPPs are stripped, inner payload forwarded.
    UntrustedStrip,
}

/// The control-plane agent's per-network state.
#[derive(Debug, Default)]
pub struct NetworkController {
    /// Intent: (switch id, entry id) → the version the controller
    /// believes is installed.
    intended_versions: BTreeMap<(u32, u32), u32>,
    next_entry_id: u32,
}

impl NetworkController {
    /// A fresh controller.
    pub fn new() -> Self {
        NetworkController {
            intended_versions: BTreeMap::new(),
            next_entry_id: 1,
        }
    }

    /// Allocate a fresh globally-unique flow entry id.
    pub fn new_entry_id(&mut self) -> u32 {
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        id
    }

    /// Install (or update) a flow entry on a switch, stamping it with the
    /// next version for that entry — the ndb version discipline ("ndb
    /// works by ... stamping each flow entry with a unique version
    /// number", §2.3). Returns the stamped version.
    pub fn install_rule(
        &mut self,
        asic: &mut Asic,
        entry_id: u32,
        priority: u16,
        pattern: FlowMatch,
        action: FlowAction,
    ) -> u32 {
        let key = (asic.switch_id(), entry_id);
        let version = self.intended_versions.get(&key).copied().unwrap_or(0) + 1;
        self.intended_versions.insert(key, version);
        asic.install_flow(FlowEntry {
            id: entry_id,
            version,
            priority,
            pattern,
            action,
        });
        version
    }

    /// Record a new intended version *without* touching the dataplane —
    /// this models the §2.3 control/dataplane mismatch (e.g. a rule
    /// update the switch silently failed to apply). Used by fault
    /// injection in the ndb experiment.
    pub fn intend_version_only(&mut self, switch_id: u32, entry_id: u32) -> u32 {
        let key = (switch_id, entry_id);
        let version = self.intended_versions.get(&key).copied().unwrap_or(0) + 1;
        self.intended_versions.insert(key, version);
        version
    }

    /// Intended versions across all switches, keyed by
    /// `(switch id, entry id)` — directly usable as an ndb
    /// `PathPolicy.expected_versions`.
    pub fn intended_versions_all(&self) -> BTreeMap<(u32, u32), u32> {
        self.intended_versions.clone()
    }

    /// Apply the §4 edge policy to a port.
    pub fn set_port_trust(&mut self, asic: &mut Asic, port: PortId, trust: PortTrust) {
        let filter = match trust {
            PortTrust::Trusted => None,
            PortTrust::UntrustedDrop => Some(StripAction::Drop),
            PortTrust::UntrustedStrip => Some(StripAction::Unwrap),
        };
        asic.set_ingress_tpp_filter(port, filter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_asic::AsicConfig;

    fn asic(id: u32) -> Asic {
        Asic::new(AsicConfig::with_ports(id, 4))
    }

    #[test]
    fn install_stamps_increasing_versions() {
        let mut ctl = NetworkController::new();
        let mut sw = asic(1);
        let id = ctl.new_entry_id();
        let v1 = ctl.install_rule(
            &mut sw,
            id,
            10,
            FlowMatch::default(),
            FlowAction::Forward(1),
        );
        let v2 = ctl.install_rule(
            &mut sw,
            id,
            10,
            FlowMatch::default(),
            FlowAction::Forward(2),
        );
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(sw.tcam().get(id).unwrap().version, 2);
        assert_eq!(ctl.intended_versions_all().get(&(1, id)), Some(&2));
    }

    #[test]
    fn entry_ids_are_unique() {
        let mut ctl = NetworkController::new();
        let a = ctl.new_entry_id();
        let b = ctl.new_entry_id();
        assert_ne!(a, b);
    }

    #[test]
    fn intend_only_creates_dataplane_divergence() {
        let mut ctl = NetworkController::new();
        let mut sw = asic(7);
        let id = ctl.new_entry_id();
        ctl.install_rule(&mut sw, id, 5, FlowMatch::default(), FlowAction::Forward(1));
        // The controller "updates" the rule but the switch misses it.
        let intended = ctl.intend_version_only(7, id);
        assert_eq!(intended, 2);
        assert_eq!(sw.tcam().get(id).unwrap().version, 1, "dataplane is stale");
        assert_eq!(ctl.intended_versions_all().get(&(7, id)), Some(&2));
    }

    #[test]
    fn versions_tracked_per_switch() {
        let mut ctl = NetworkController::new();
        let mut s1 = asic(1);
        let mut s2 = asic(2);
        let id = ctl.new_entry_id();
        ctl.install_rule(&mut s1, id, 5, FlowMatch::default(), FlowAction::Forward(1));
        ctl.install_rule(&mut s2, id, 5, FlowMatch::default(), FlowAction::Forward(2));
        ctl.install_rule(&mut s2, id, 5, FlowMatch::default(), FlowAction::Forward(3));
        assert_eq!(ctl.intended_versions_all().get(&(2, id)), Some(&2));
        assert_eq!(ctl.intended_versions_all().get(&(1, id)), Some(&1));
    }

    #[test]
    fn port_trust_maps_to_filters() {
        let mut ctl = NetworkController::new();
        let mut sw = asic(1);
        ctl.set_port_trust(&mut sw, 0, PortTrust::UntrustedDrop);
        ctl.set_port_trust(&mut sw, 1, PortTrust::UntrustedStrip);
        ctl.set_port_trust(&mut sw, 2, PortTrust::Trusted);
        // Behavioural check via the dataplane: a TPP arriving on port 0
        // dies, port 2 lives (see tpp-asic's own tests for strip).
        use tpp_isa::assemble;
        use tpp_wire::ethernet::{build_frame, EtherType};
        use tpp_wire::tpp::{AddressingMode, TppBuilder};
        use tpp_wire::EthernetAddress;
        sw.l2_mut().insert(EthernetAddress::from_host_id(9), 3);
        let program = assemble("PUSH [Queue:QueueSize]").unwrap();
        let payload = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(2)
            .build();
        let mk = || {
            build_frame(
                EthernetAddress::from_host_id(9),
                EthernetAddress::from_host_id(8),
                EtherType::TPP,
                &payload,
            )
        };
        assert!(
            !sw.handle_frame(mk(), 0, 0).is_enqueued(),
            "dropped at untrusted port"
        );
        assert!(
            sw.handle_frame(mk(), 2, 0).is_enqueued(),
            "passes at trusted port"
        );
    }
}

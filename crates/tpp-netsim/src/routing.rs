//! Hash-based ECMP over equal-cost next hops.
//!
//! The L2 tables installed by [`Simulator::populate_l2`] pin every
//! destination to the single port its BFS tree happened to discover
//! first, which collapses a fat-tree's bisection onto one uplink per
//! edge switch. When [`SimConfig::ecmp`] is set, build time also
//! derives an [`EcmpTable`]: for every `(switch, destination host)`
//! pair, *all* ports that start a shortest path — the equal-cost
//! next-hop group — and switches with more than one candidate pick one
//! per flow by hash.
//!
//! # Hash scheme and shard invariance
//!
//! The pick is a pure function of `(config seed, switch id, flow key)`
//! where the flow key is the frame's source MAC, destination MAC and —
//! for traffic that carries one — the 64-bit flow label embedded in the
//! payload (see [`flow_label`]). Nothing about shard layout, thread
//! interleaving or event order enters the hash, so a flow's path is
//! bit-identical at any shard count; and because every frame of a flow
//! hashes alike, all its packets ride one path (no intra-flow
//! reordering from the router). The switch id salts the hash so the
//! fleet does not polarize: without it, every switch with an
//! equal-sized group would make the correlated choice and half the
//! bisection would sit idle.
//!
//! # Link failures
//!
//! The candidate group is filtered down to *up* egress links before the
//! pick (a switch's egress links are owned by its shard, so the filter
//! is deterministic too). A `FaultPlan` link-down therefore re-hashes
//! exactly the flows that used the dead port onto the survivors, and a
//! link-up restores the original spread — the "next-hop re-hash"
//! composition with [`crate::fault`] / [`crate::profile`]. If every
//! candidate is down the pick falls back to the full group and the
//! frame dies at the transmitter as a `link_down_drop`, which is what a
//! real switch whose whole group is dark does.
//!
//! [`Simulator::populate_l2`]: crate::Simulator::populate_l2
//! [`SimConfig::ecmp`]: crate::SimConfig::ecmp

use std::collections::VecDeque;

use crate::event::NodeId;
use crate::node::{HostId, SwitchId};
use crate::shard::mix64;
use crate::sim::{link, num_ports, HostNode, SwitchNode};
use tpp_asic::PortId;
use tpp_wire::ethernet::Frame;
use tpp_wire::tpp::TppPacket;
use tpp_wire::EthernetAddress;

/// Leading magic of a payload that carries a flow label (shared with
/// the FCT workload's frame metadata and the transport header in
/// `tpp-host`): `0xF1C7` at bytes `[0..2]`, label at bytes `[16..24]`.
pub const FLOW_LABEL_MAGIC: [u8; 2] = [0xF1, 0xC7];

/// Byte offset of the 64-bit big-endian flow label inside a labelled
/// payload.
pub const FLOW_LABEL_OFFSET: usize = 16;

/// Extract the 64-bit flow label of a frame, if it carries one.
///
/// For TPP frames the label lives in the *inner* payload (the bytes
/// after the TPP section), which the TCPU never rewrites — so a probe
/// stamped with its flow's label rides the same ECMP path as the
/// flow's data. For plain frames it is the Ethernet payload itself.
/// Payloads shorter than 24 bytes or without the magic have no label;
/// such flows hash on addresses alone.
pub fn flow_label(frame: &[u8]) -> Option<u64> {
    let parsed = Frame::new_checked(frame).ok()?;
    let payload = parsed.payload();
    let inner = if parsed.is_tpp() {
        let tpp = TppPacket::new_checked(payload).ok()?;
        let at = tpp.tpp_len();
        payload.get(at..)?
    } else {
        payload
    };
    label_of_payload(inner)
}

fn label_of_payload(p: &[u8]) -> Option<u64> {
    (p.len() >= FLOW_LABEL_OFFSET + 8 && p[0..2] == FLOW_LABEL_MAGIC)
        .then(|| u64::from_be_bytes(p[16..24].try_into().expect("length checked")))
}

/// Equal-cost next-hop groups for every `(switch, destination host)`
/// pair, plus the seeded flow hash. Built once at
/// [`NetworkBuilder::build`] time when [`SimConfig::ecmp`] is set;
/// immutable afterwards, so shards share it by reference.
///
/// Storage is pooled: `index` holds `(offset, len)` per pair into one
/// flat `ports` arena — a k=8 fat tree (80 switches × 1024 hosts)
/// costs ~0.7 MB rather than 80k separate `Vec`s.
///
/// [`NetworkBuilder::build`]: crate::NetworkBuilder::build
/// [`SimConfig::ecmp`]: crate::SimConfig::ecmp
#[derive(Debug)]
pub struct EcmpTable {
    seed: u64,
    num_hosts: usize,
    index: Vec<(u32, u16)>,
    ports: Vec<PortId>,
}

impl EcmpTable {
    /// The equal-cost egress group of `switch` toward `dst_host`, in
    /// ascending port order. Empty if the host is unreachable.
    pub fn group(&self, switch: usize, dst_host: u32) -> &[PortId] {
        let Some(&(off, len)) = self.index.get(switch * self.num_hosts + dst_host as usize) else {
            return &[];
        };
        &self.ports[off as usize..off as usize + len as usize]
    }

    /// The seeded flow hash: a pure function of the configured seed,
    /// the picking switch's dataplane id, the frame's addresses and its
    /// flow label.
    pub fn flow_hash(
        &self,
        switch_id: u32,
        src: EthernetAddress,
        dst: EthernetAddress,
        label: Option<u64>,
    ) -> u64 {
        let mut h = mix64(self.seed, switch_id as u64);
        h = mix64(h, mac_word(src));
        h = mix64(h, mac_word(dst));
        if let Some(l) = label {
            h = mix64(h, l);
        }
        h
    }

    /// Pick one port of a non-empty candidate slice by hash.
    pub fn pick(group: &[PortId], hash: u64) -> PortId {
        group[(hash % group.len() as u64) as usize]
    }

    /// Build the table from the wired topology: per host, every
    /// connected port of a switch whose peer is strictly closer to the
    /// host (by [`HopTree`]) starts a shortest path.
    pub(crate) fn build(seed: u64, switches: &[SwitchNode], hosts: &[HostNode]) -> EcmpTable {
        let num_hosts = hosts.len();
        let mut index = vec![(0u32, 0u16); switches.len() * num_hosts];
        let mut ports: Vec<PortId> = Vec::new();
        for h in 0..num_hosts {
            let tree = HopTree::from_host(switches, hosts, HostId(h));
            for (s, sw) in switches.iter().enumerate() {
                let Some(d) = tree.dist(NodeId::switch(SwitchId(s))) else {
                    continue;
                };
                let off = ports.len() as u32;
                for (p, slot) in sw.links.iter().enumerate() {
                    if slot
                        .as_ref()
                        .is_some_and(|l| tree.dist(l.peer).is_some_and(|pd| pd + 1 == d))
                    {
                        ports.push(p as PortId);
                    }
                }
                let len = (ports.len() as u32 - off) as u16;
                index[s * num_hosts + h] = (off, len);
            }
        }
        EcmpTable {
            seed,
            num_hosts,
            index,
            ports,
        }
    }
}

/// Shortest-path L2 tables, computed once at build time: `routes[s]`
/// lists the `(mac, out_port)` entries switch `s` needs for every host,
/// the way back being the port the host's [`HopTree`] first reached `s`
/// on. [`Simulator::populate_l2`] installs them; a rebooted switch
/// restores only its own slice — which is what lets `SwitchReboot` stay
/// shard-local.
///
/// [`Simulator::populate_l2`]: crate::Simulator::populate_l2
pub(crate) fn compute_l2_routes(
    switches: &[SwitchNode],
    hosts: &[HostNode],
) -> Vec<Vec<(EthernetAddress, PortId)>> {
    let mut routes = vec![Vec::new(); switches.len()];
    for (h, host) in hosts.iter().enumerate() {
        let tree = HopTree::from_host(switches, hosts, HostId(h));
        for (s, route) in routes.iter_mut().enumerate() {
            if let Some(port) = tree.first_port[s] {
                route.push((host.mac, port));
            }
        }
    }
    routes
}

/// One breadth-first search from a host over the wired topology, shared
/// by the L2 tables and the ECMP groups: ports ascending, hosts terminal
/// (reached, never expanded).
struct HopTree {
    /// Hop distance of every node, dense over switches then hosts;
    /// `u32::MAX` where unreached.
    dist: Vec<u32>,
    /// Per switch, the port the search first reached it on.
    first_port: Vec<Option<PortId>>,
}

impl HopTree {
    fn from_host(switches: &[SwitchNode], hosts: &[HostNode], h: HostId) -> HopTree {
        let mut tree = HopTree {
            dist: vec![u32::MAX; switches.len() + hosts.len()],
            first_port: vec![None; switches.len()],
        };
        let start = NodeId::host(h);
        let at = tree.slot(start);
        tree.dist[at] = 0;
        let mut frontier = VecDeque::from([start]);
        while let Some(node) = frontier.pop_front() {
            let d = tree.dist[tree.slot(node)];
            for port in 0..num_ports(switches, hosts, node) {
                let Some(link) = link(switches, hosts, node, port) else {
                    continue;
                };
                let at = tree.slot(link.peer);
                if tree.dist[at] != u32::MAX {
                    continue;
                }
                tree.dist[at] = d + 1;
                if !link.peer.is_host() {
                    tree.first_port[at] = Some(link.peer_port);
                    frontier.push_back(link.peer);
                }
            }
        }
        tree
    }

    /// `node`'s index into `dist`.
    fn slot(&self, node: NodeId) -> usize {
        let hosts_from = if node.is_host() {
            self.first_port.len()
        } else {
            0
        };
        hosts_from + node.index()
    }

    /// Hops from the host to `node`, if reachable.
    fn dist(&self, node: NodeId) -> Option<u32> {
        Some(self.dist[self.slot(node)]).filter(|&d| d != u32::MAX)
    }
}

fn mac_word(addr: EthernetAddress) -> u64 {
    let b = addr.0;
    u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(groups: &[&[PortId]]) -> EcmpTable {
        let mut index = Vec::new();
        let mut ports = Vec::new();
        for g in groups {
            index.push((ports.len() as u32, g.len() as u16));
            ports.extend_from_slice(g);
        }
        EcmpTable {
            seed: 7,
            num_hosts: groups.len(),
            index,
            ports,
        }
    }

    #[test]
    fn pick_is_stable_and_in_group() {
        let t = table(&[&[2, 5, 9, 11]]);
        let src = EthernetAddress::from_host_id(3);
        let dst = EthernetAddress::from_host_id(8);
        let h = t.flow_hash(0x101, src, dst, Some(42));
        let first = EcmpTable::pick(t.group(0, 0), h);
        for _ in 0..8 {
            assert_eq!(
                EcmpTable::pick(t.group(0, 0), t.flow_hash(0x101, src, dst, Some(42))),
                first
            );
        }
        assert!(t.group(0, 0).contains(&first));
    }

    #[test]
    fn labels_spread_across_group() {
        let t = table(&[&[0, 1, 2, 3]]);
        let src = EthernetAddress::from_host_id(1);
        let dst = EthernetAddress::from_host_id(2);
        let mut counts = [0u32; 4];
        for label in 0..4000u64 {
            let h = t.flow_hash(0x42, src, dst, Some(label));
            let p = EcmpTable::pick(t.group(0, 0), h) as usize;
            counts[p] += 1;
        }
        for &c in &counts {
            assert!((500..=2000).contains(&c), "skewed spread: {counts:?}");
        }
    }

    #[test]
    fn label_extraction_requires_magic_and_length() {
        let mut payload = vec![0u8; 24];
        payload[0] = 0xF1;
        payload[1] = 0xC7;
        payload[16..24].copy_from_slice(&0xDEAD_BEEFu64.to_be_bytes());
        let frame = tpp_wire::ethernet::build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            tpp_wire::ethernet::EtherType(0x0802),
            &payload,
        );
        assert_eq!(flow_label(&frame), Some(0xDEAD_BEEF));

        payload[0] = 0x00;
        let frame = tpp_wire::ethernet::build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            tpp_wire::ethernet::EtherType(0x0802),
            &payload,
        );
        assert_eq!(flow_label(&frame), None, "no magic, no label");

        let frame = tpp_wire::ethernet::build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(2),
            tpp_wire::ethernet::EtherType(0x0802),
            &[0xF1, 0xC7, 0, 0],
        );
        assert_eq!(flow_label(&frame), None, "too short for a label");
    }
}

//! Canned topologies for experiments.
//!
//! Five shapes cover the paper's evaluation needs:
//!
//! * [`linear_chain_with`] — the Figure 1 setting: a TPP walking a multi-hop
//!   path, recording one value per hop;
//! * [`dumbbell_with`] — the Figure 2 setting: N sender/receiver pairs sharing
//!   one bottleneck link (the classic congestion-control topology);
//! * [`leaf_spine_with`] — the §2.1 setting: a two-tier datacenter fabric
//!   where incast across leaves creates micro-bursts;
//! * [`fat_tree_with`] — the 3-tier k-ary datacenter at realistic structure;
//! * [`bonded_diamond_with`] — two multi-homed hosts joined by disjoint
//!   paths, the multipath bonding setting.
//!
//! Every builder assigns each switch a distinct `Switch:SwitchID`
//! (chain/dumbbell: `1 + index`; leaf-spine: leaves `0x10 + l`, spines
//! `0x20 + s`), installs shortest-path L2 routes, and returns handle
//! structs so experiments can reach any element. Each takes the
//! [`SimConfig`] (shard count, seed, tick interval, ...) first.

use crate::config::SimConfig;
use crate::node::{HostApp, HostId, SwitchId};
use crate::sim::{Endpoint, NetworkBuilder, Simulator};
use tpp_asic::{AsicConfig, PortId};

/// A switch config with uniform per-port capacity and queue limit — the
/// shape every canned topology starts from (some then override
/// individual ports, e.g. the dumbbell bottleneck).
fn uniform_cfg(id: u32, ports: usize, link_kbps: u32, queue_limit_bytes: u32) -> AsicConfig {
    AsicConfig::with_ports(id, ports)
        .capacity_kbps(link_kbps)
        .queue_limit_bytes(queue_limit_bytes)
}

/// Attach `count` hosts (drawn from `apps`) to consecutive ports of
/// `switch` starting at `first_port`, one link each. Returns the hosts
/// in port order. Shared by the leaf-spine and fat-tree builders.
fn attach_hosts(
    net: &mut NetworkBuilder,
    apps: &mut impl Iterator<Item = Box<dyn HostApp>>,
    switch: SwitchId,
    first_port: PortId,
    count: usize,
    nic_kbps: u32,
    delay_ns: u64,
) -> Vec<HostId> {
    (0..count)
        .map(|i| {
            let host = net.add_host(apps.next().expect("app count checked by caller"), nic_kbps);
            net.connect(
                Endpoint::host(host),
                Endpoint::switch(switch, first_port + i as PortId),
                delay_ns,
            );
            host
        })
        .collect()
}

/// Wire a chain of two-port switches between two host-side endpoints:
/// `left -- s0 -- s1 -- ... -- s(n-1) -- right`, each switch using port
/// 0 toward the left and port 1 toward the right. Shared by the linear
/// chain and each bonded-diamond path.
fn wire_switch_chain(
    net: &mut NetworkBuilder,
    left: Endpoint,
    path: &[SwitchId],
    right: Endpoint,
    delay_ns: u64,
) {
    net.connect(left, Endpoint::switch(path[0], 0), delay_ns);
    for w in path.windows(2) {
        net.connect(
            Endpoint::switch(w[0], 1),
            Endpoint::switch(w[1], 0),
            delay_ns,
        );
    }
    net.connect(
        Endpoint::switch(*path.last().expect("non-empty chain"), 1),
        right,
        delay_ns,
    );
}

/// Build the simulator and install the pre-converged L2 control plane —
/// the common tail of every canned topology.
fn finish(net: NetworkBuilder) -> Simulator {
    let mut sim = net.build();
    sim.populate_l2();
    sim
}

/// Parameters for [`linear_chain_with`].
#[derive(Debug, Clone)]
pub struct LinearChainParams {
    /// Number of switches on the path.
    pub n_switches: usize,
    /// Capacity of every link, kbps.
    pub link_kbps: u32,
    /// Egress queue limit at every switch port, bytes.
    pub queue_limit_bytes: u32,
    /// Propagation delay of every link, ns.
    pub delay_ns: u64,
    /// Host NIC rate, kbps.
    pub host_nic_kbps: u32,
}

impl Default for LinearChainParams {
    fn default() -> Self {
        LinearChainParams {
            n_switches: 3,
            link_kbps: 10_000_000, // 10 Gb/s
            queue_limit_bytes: 512 * 1024,
            delay_ns: crate::time::micros(1),
            host_nic_kbps: 10_000_000,
        }
    }
}

/// Handles into a linear chain.
#[derive(Debug)]
pub struct LinearChain {
    /// The switches, left to right.
    pub switches: Vec<SwitchId>,
    /// Host attached left of the first switch.
    pub left: HostId,
    /// Host attached right of the last switch.
    pub right: HostId,
}

/// Build `left -- s0 -- s1 -- ... -- s(n-1) -- right`.
///
/// Each switch uses port 0 toward the left, port 1 toward the right.
pub fn linear_chain_with(
    config: SimConfig,
    params: LinearChainParams,
    left_app: Box<dyn HostApp>,
    right_app: Box<dyn HostApp>,
) -> (Simulator, LinearChain) {
    assert!(params.n_switches >= 1, "chain needs at least one switch");
    let mut net = NetworkBuilder::with_config(config);
    let switches: Vec<SwitchId> = (0..params.n_switches)
        .map(|i| {
            net.add_switch(uniform_cfg(
                1 + i as u32,
                2,
                params.link_kbps,
                params.queue_limit_bytes,
            ))
        })
        .collect();
    let left = net.add_host(left_app, params.host_nic_kbps);
    let right = net.add_host(right_app, params.host_nic_kbps);
    wire_switch_chain(
        &mut net,
        Endpoint::host(left),
        &switches,
        Endpoint::host(right),
        params.delay_ns,
    );
    (
        finish(net),
        LinearChain {
            switches,
            left,
            right,
        },
    )
}

/// Parameters for [`dumbbell_with`].
#[derive(Debug, Clone)]
pub struct DumbbellParams {
    /// Capacity of the host-facing edge links, kbps.
    pub edge_kbps: u32,
    /// Capacity of the shared bottleneck link, kbps.
    pub bottleneck_kbps: u32,
    /// Egress queue limit, bytes.
    pub queue_limit_bytes: u32,
    /// Propagation delay of every link, ns.
    pub delay_ns: u64,
    /// Host NIC rate, kbps.
    pub host_nic_kbps: u32,
}

impl Default for DumbbellParams {
    fn default() -> Self {
        DumbbellParams {
            edge_kbps: 100_000,      // 100 Mb/s edges
            bottleneck_kbps: 10_000, // the paper's 10 Mb/s bottleneck
            queue_limit_bytes: 128 * 1024,
            delay_ns: crate::time::micros(500),
            host_nic_kbps: 100_000,
        }
    }
}

/// Handles into a dumbbell.
#[derive(Debug)]
pub struct Dumbbell {
    /// Left (sender-side) switch; its last port is the bottleneck egress.
    pub left: SwitchId,
    /// Right (receiver-side) switch.
    pub right: SwitchId,
    /// Sender hosts, attached to the left switch.
    pub senders: Vec<HostId>,
    /// Receiver hosts, attached to the right switch.
    pub receivers: Vec<HostId>,
    /// The left switch's bottleneck egress port (where the interesting
    /// queue lives).
    pub bottleneck_port: PortId,
}

/// Build one sender/receiver pair per entry of `apps` around one
/// bottleneck:
///
/// ```text
/// s0..sN -> [left switch] --bottleneck--> [right switch] -> r0..rN
/// ```
pub fn dumbbell_with(
    config: SimConfig,
    params: DumbbellParams,
    apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)>,
) -> (Simulator, Dumbbell) {
    let n = apps.len();
    let mut net = NetworkBuilder::with_config(config);
    // Ports 0..n face hosts at edge rate; port n is the bottleneck.
    let mk_cfg = |id: u32| {
        let mut cfg = uniform_cfg(id, n + 1, params.edge_kbps, params.queue_limit_bytes);
        cfg.ports[n].capacity_kbps = params.bottleneck_kbps;
        cfg
    };
    let left = net.add_switch(mk_cfg(1));
    let right = net.add_switch(mk_cfg(2));
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for (i, (sender_app, receiver_app)) in apps.into_iter().enumerate() {
        let s = net.add_host(sender_app, params.host_nic_kbps);
        let r = net.add_host(receiver_app, params.host_nic_kbps);
        net.connect(
            Endpoint::host(s),
            Endpoint::switch(left, i as PortId),
            params.delay_ns,
        );
        net.connect(
            Endpoint::host(r),
            Endpoint::switch(right, i as PortId),
            params.delay_ns,
        );
        senders.push(s);
        receivers.push(r);
    }
    net.connect(
        Endpoint::switch(left, n as PortId),
        Endpoint::switch(right, n as PortId),
        params.delay_ns,
    );
    (
        finish(net),
        Dumbbell {
            left,
            right,
            senders,
            receivers,
            bottleneck_port: n as PortId,
        },
    )
}

/// Parameters for [`leaf_spine_with`].
#[derive(Debug, Clone)]
pub struct LeafSpineParams {
    /// Number of leaf (top-of-rack) switches.
    pub n_leaves: usize,
    /// Number of spine switches.
    pub n_spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Host-facing link capacity, kbps.
    pub host_link_kbps: u32,
    /// Leaf-spine fabric link capacity, kbps.
    pub fabric_link_kbps: u32,
    /// Egress queue limit, bytes.
    pub queue_limit_bytes: u32,
    /// Propagation delay of every link, ns.
    pub delay_ns: u64,
    /// Host NIC rate, kbps.
    pub host_nic_kbps: u32,
}

impl Default for LeafSpineParams {
    fn default() -> Self {
        LeafSpineParams {
            n_leaves: 4,
            n_spines: 2,
            hosts_per_leaf: 4,
            host_link_kbps: 10_000_000,   // 10 Gb/s to hosts
            fabric_link_kbps: 40_000_000, // 40 Gb/s fabric
            queue_limit_bytes: 256 * 1024,
            delay_ns: crate::time::micros(1),
            host_nic_kbps: 10_000_000,
        }
    }
}

/// Handles into a leaf-spine fabric.
#[derive(Debug)]
pub struct LeafSpine {
    /// Leaf switches.
    pub leaves: Vec<SwitchId>,
    /// Spine switches.
    pub spines: Vec<SwitchId>,
    /// `hosts[l][i]` is host `i` under leaf `l`.
    pub hosts: Vec<Vec<HostId>>,
}

impl LeafSpine {
    /// All hosts, flattened in (leaf, index) order.
    pub fn all_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.iter().flatten().copied()
    }
}

/// Parameters for [`fat_tree_with`].
#[derive(Debug, Clone)]
pub struct FatTreeParams {
    /// The fat-tree arity `k` (must be even): `k` pods, each with `k/2`
    /// edge and `k/2` aggregation switches; `(k/2)^2` core switches;
    /// `k * (k/2) * hosts_per_edge` hosts.
    pub k: usize,
    /// Hosts attached to each edge switch. `0` (the default) means the
    /// textbook `k/2`; larger values oversubscribe the edge tier, the
    /// way production fabrics pack more servers per rack than uplinks.
    pub hosts_per_edge: usize,
    /// Capacity of every link, kbps (classic fat-trees are uniform).
    pub link_kbps: u32,
    /// Egress queue limit, bytes.
    pub queue_limit_bytes: u32,
    /// Propagation delay of every link, ns.
    pub delay_ns: u64,
    /// Host NIC rate, kbps.
    pub host_nic_kbps: u32,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            k: 4,
            hosts_per_edge: 0,
            link_kbps: 10_000_000,
            queue_limit_bytes: 256 * 1024,
            delay_ns: crate::time::micros(1),
            host_nic_kbps: 10_000_000,
        }
    }
}

impl FatTreeParams {
    /// The effective hosts per edge switch (`k/2` unless overridden).
    pub fn effective_hosts_per_edge(&self) -> usize {
        if self.hosts_per_edge == 0 {
            self.k / 2
        } else {
            self.hosts_per_edge
        }
    }

    /// Total hosts this parameterization wires.
    pub fn n_hosts(&self) -> usize {
        self.k * (self.k / 2) * self.effective_hosts_per_edge()
    }

    /// Total switches (edge + aggregation + core).
    pub fn n_switches(&self) -> usize {
        self.k * self.k + (self.k / 2) * (self.k / 2)
    }
}

/// Handles into a fat-tree.
#[derive(Debug)]
pub struct FatTree {
    /// `edges[pod][e]` — edge (ToR) switches.
    pub edges: Vec<Vec<SwitchId>>,
    /// `aggs[pod][a]` — aggregation switches.
    pub aggs: Vec<Vec<SwitchId>>,
    /// Core switches.
    pub cores: Vec<SwitchId>,
    /// `hosts[pod][e][h]` — hosts under each edge switch.
    pub hosts: Vec<Vec<Vec<HostId>>>,
}

impl FatTree {
    /// All hosts in (pod, edge, index) order.
    pub fn all_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.iter().flatten().flatten().copied()
    }

    /// Every edge switch's ports toward its pod's aggregation switches,
    /// edge by edge in (pod, edge) order: the ports ECMP spreads over.
    pub fn edge_uplinks(&self) -> Vec<Endpoint> {
        let (hpe, half) = (self.hosts[0][0].len(), self.aggs[0].len());
        let ports = |&edge| (hpe..hpe + half).map(move |p| Endpoint::switch(edge, p as PortId));
        self.edges.iter().flatten().flat_map(ports).collect()
    }

    /// Every switch-to-switch link direction: [`Self::edge_uplinks`],
    /// then every port of every aggregation and core switch.
    pub fn fabric_ports(&self) -> Vec<Endpoint> {
        let k = 2 * self.aggs[0].len();
        let upper = self.aggs.iter().flatten().chain(&self.cores);
        let upper = upper.flat_map(|&sw| (0..k).map(move |p| Endpoint::switch(sw, p as PortId)));
        let mut ports = self.edge_uplinks();
        ports.extend(upper);
        ports
    }
}

/// Build the classic 3-tier k-ary fat-tree of Al-Fares et al. — the §4
/// "datacenters" deployment environment at realistic structure. Switch
/// IDs: edge `0x100 + pod*16 + e`, aggregation `0x200 + pod*16 + a`,
/// core `0x300 + c`. Routing is shortest-path L2 (BFS; no ECMP).
///
/// # Panics
/// Panics if `k` is odd or zero, or if the app count ≠ the host count
/// (`k^3/4` at the textbook `hosts_per_edge`).
pub fn fat_tree_with(
    config: SimConfig,
    params: FatTreeParams,
    apps: Vec<Box<dyn HostApp>>,
) -> (Simulator, FatTree) {
    let k = params.k;
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let hpe = params.effective_hosts_per_edge();
    assert_eq!(apps.len(), k * half * hpe, "one app per host");
    let mut net = NetworkBuilder::with_config(config);

    // Edge switch ports: 0..hpe hosts, hpe..hpe+half up to aggs.
    // Agg switch ports: 0..half down to edges, half..k up to cores.
    // Core switch ports: one per pod.
    let mk_cfg =
        |id: u32, ports: usize| uniform_cfg(id, ports, params.link_kbps, params.queue_limit_bytes);
    let mut edges = Vec::new();
    let mut aggs = Vec::new();
    for pod in 0..k {
        edges.push(
            (0..half)
                .map(|e| net.add_switch(mk_cfg(0x100 + (pod * 16 + e) as u32, hpe + half)))
                .collect::<Vec<_>>(),
        );
        aggs.push(
            (0..half)
                .map(|a| net.add_switch(mk_cfg(0x200 + (pod * 16 + a) as u32, k)))
                .collect::<Vec<_>>(),
        );
    }
    let cores: Vec<SwitchId> = (0..half * half)
        .map(|c| net.add_switch(mk_cfg(0x300 + c as u32, k)))
        .collect();

    let mut apps = apps.into_iter();
    let mut hosts = Vec::new();
    for pod in 0..k {
        let mut pod_hosts = Vec::new();
        for (e, &edge) in edges[pod].clone().iter().enumerate() {
            pod_hosts.push(attach_hosts(
                &mut net,
                &mut apps,
                edge,
                0,
                hpe,
                params.host_nic_kbps,
                params.delay_ns,
            ));
            // Edge -> every agg in the pod.
            for (a, agg) in aggs[pod].iter().enumerate() {
                net.connect(
                    Endpoint::switch(edge, (hpe + a) as PortId),
                    Endpoint::switch(*agg, e as PortId),
                    params.delay_ns,
                );
            }
        }
        // Agg a -> cores [a*half .. a*half + half).
        for (a, agg) in aggs[pod].iter().enumerate() {
            for j in 0..half {
                let core = cores[a * half + j];
                net.connect(
                    Endpoint::switch(*agg, (half + j) as PortId),
                    Endpoint::switch(core, pod as PortId),
                    params.delay_ns,
                );
            }
        }
        hosts.push(pod_hosts);
    }
    (
        finish(net),
        FatTree {
            edges,
            aggs,
            cores,
            hosts,
        },
    )
}

/// Build a two-tier leaf-spine fabric. Leaf `l` uses ports
/// `0..hosts_per_leaf` for hosts and `hosts_per_leaf + s` toward spine
/// `s`; spine `s` uses port `l` toward leaf `l`. Routing is shortest-path
/// L2 (no ECMP: BFS picks the lowest-numbered spine deterministically).
pub fn leaf_spine_with(
    config: SimConfig,
    params: LeafSpineParams,
    apps: Vec<Box<dyn HostApp>>,
) -> (Simulator, LeafSpine) {
    assert_eq!(
        apps.len(),
        params.n_leaves * params.hosts_per_leaf,
        "one app per host"
    );
    let mut net = NetworkBuilder::with_config(config);
    let leaves: Vec<SwitchId> = (0..params.n_leaves)
        .map(|l| {
            let mut cfg = uniform_cfg(
                0x10 + l as u32,
                params.hosts_per_leaf + params.n_spines,
                params.host_link_kbps,
                params.queue_limit_bytes,
            );
            for s in 0..params.n_spines {
                cfg.ports[params.hosts_per_leaf + s].capacity_kbps = params.fabric_link_kbps;
            }
            net.add_switch(cfg)
        })
        .collect();
    let spines: Vec<SwitchId> = (0..params.n_spines)
        .map(|s| {
            net.add_switch(uniform_cfg(
                0x20 + s as u32,
                params.n_leaves,
                params.fabric_link_kbps,
                params.queue_limit_bytes,
            ))
        })
        .collect();
    let mut apps = apps.into_iter();
    let mut hosts = Vec::new();
    for (l, leaf) in leaves.iter().enumerate() {
        hosts.push(attach_hosts(
            &mut net,
            &mut apps,
            *leaf,
            0,
            params.hosts_per_leaf,
            params.host_nic_kbps,
            params.delay_ns,
        ));
        for (s, spine) in spines.iter().enumerate() {
            net.connect(
                Endpoint::switch(*leaf, (params.hosts_per_leaf + s) as PortId),
                Endpoint::switch(*spine, l as PortId),
                params.delay_ns,
            );
        }
    }
    (
        finish(net),
        LeafSpine {
            leaves,
            spines,
            hosts,
        },
    )
}

/// Parameters for [`bonded_diamond_with`].
#[derive(Debug, Clone)]
pub struct BondedDiamondParams {
    /// Number of disjoint paths between the two hosts (= NICs per host).
    pub n_paths: usize,
    /// Switches on each path.
    pub switches_per_path: usize,
    /// Capacity of every link, kbps.
    pub link_kbps: u32,
    /// Egress queue limit, bytes.
    pub queue_limit_bytes: u32,
    /// Propagation delay of every link, ns.
    pub delay_ns: u64,
    /// Host NIC rate, kbps.
    pub host_nic_kbps: u32,
}

impl Default for BondedDiamondParams {
    fn default() -> Self {
        BondedDiamondParams {
            n_paths: 2,
            switches_per_path: 2,
            link_kbps: 1_000_000, // 1 Gb/s
            queue_limit_bytes: 128 * 1024,
            delay_ns: crate::time::micros(20),
            host_nic_kbps: 1_000_000,
        }
    }
}

/// Handles into a bonded diamond.
#[derive(Debug)]
pub struct BondedDiamond {
    /// `paths[p]` — the switches of path `p`, sender side first.
    pub paths: Vec<Vec<SwitchId>>,
    /// The multi-homed sender (NIC `p` faces path `p`).
    pub sender: HostId,
    /// The multi-homed receiver (NIC `p` faces path `p`).
    pub receiver: HostId,
}

impl BondedDiamond {
    /// The sender's NIC endpoint on path `p` (where degradation profiles
    /// and loss usually go in bonding experiments).
    pub fn sender_nic(&self, p: usize) -> Endpoint {
        Endpoint::host_port(self.sender, p as PortId)
    }

    /// The receiver's NIC endpoint on path `p`.
    pub fn receiver_nic(&self, p: usize) -> Endpoint {
        Endpoint::host_port(self.receiver, p as PortId)
    }
}

/// Build the multipath bonding topology: two multi-homed hosts joined by
/// `n_paths` fully disjoint switch chains —
///
/// ```text
///          ┌─ a0 ─ a1 ─┐
/// sender ──┤           ├── receiver
///          └─ b0 ─ b1 ─┘
/// ```
///
/// Sender NIC `p` connects to path `p`'s first switch (port 0); each
/// chain runs port 1 → port 0; the last switch's port 1 connects to
/// receiver NIC `p`. Switch IDs are `0x40 + p*16 + i` for switch `i` of
/// path `p`. Both hosts share one MAC-per-host, so L2 routes on each
/// path lead to the local NIC — which NIC a frame leaves on (and so
/// which path it takes) is entirely the sender's choice via
/// [`crate::HostCtx::send_on`].
pub fn bonded_diamond_with(
    config: SimConfig,
    params: BondedDiamondParams,
    sender_app: Box<dyn HostApp>,
    receiver_app: Box<dyn HostApp>,
) -> (Simulator, BondedDiamond) {
    assert!(params.n_paths >= 1, "bond needs at least one path");
    assert!(
        params.n_paths <= 16,
        "switch-ID scheme supports at most 16 paths"
    );
    assert!(
        params.switches_per_path >= 1 && params.switches_per_path <= 16,
        "switch-ID scheme supports 1..=16 switches per path"
    );
    let mut net = NetworkBuilder::with_config(config);
    let paths: Vec<Vec<SwitchId>> = (0..params.n_paths)
        .map(|p| {
            (0..params.switches_per_path)
                .map(|i| {
                    net.add_switch(uniform_cfg(
                        0x40 + (p * 16 + i) as u32,
                        2,
                        params.link_kbps,
                        params.queue_limit_bytes,
                    ))
                })
                .collect()
        })
        .collect();
    let sender = net.add_host_multi(sender_app, params.host_nic_kbps, params.n_paths as u16);
    let receiver = net.add_host_multi(receiver_app, params.host_nic_kbps, params.n_paths as u16);
    for (p, path) in paths.iter().enumerate() {
        wire_switch_chain(
            &mut net,
            Endpoint::host_port(sender, p as PortId),
            path,
            Endpoint::host_port(receiver, p as PortId),
            params.delay_ns,
        );
    }
    (
        finish(net),
        BondedDiamond {
            paths,
            sender,
            receiver,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Idle;
    impl HostApp for Idle {}

    #[test]
    fn fabric_ports_are_every_switch_to_switch_direction_once() {
        for (k, hosts_per_edge) in [(4, 0), (4, 3), (8, 0)] {
            let params = FatTreeParams {
                k,
                hosts_per_edge,
                ..FatTreeParams::default()
            };
            let apps = (0..params.n_hosts()).map(|_| Box::new(Idle) as _).collect();
            let (sim, tree) = fat_tree_with(SimConfig::default(), params, apps);
            let ports = tree.fabric_ports();
            // k³/4 edge uplinks, k³/2 aggregation ports, k³/4 core ports.
            assert_eq!(ports.len(), k * k * k, "k={k} hpe={hosts_per_edge}");
            let distinct: std::collections::HashSet<_> = ports.iter().collect();
            assert_eq!(distinct.len(), ports.len(), "a port repeats");
            for ep in &ports {
                let peer = sim
                    .link_peer(*ep)
                    .filter(|_| matches!(ep, Endpoint::SwitchPort(..)));
                assert!(
                    peer.is_some_and(|n| !n.is_host()),
                    "{ep:?} is no switch-to-switch port"
                );
            }
            assert_eq!(tree.edge_uplinks(), ports[..k * k * k / 4]);
        }
    }
}

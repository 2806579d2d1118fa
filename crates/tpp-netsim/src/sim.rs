//! The simulator core: topology wiring, the sharded run loop, and the
//! public control surface.
//!
//! The event loop itself lives in the private `shard` module; this module owns the
//! topology arrays, partitions them into shards at build time, hands
//! each run call to the shard driver, and re-aggregates per-shard state
//! (fault counters, losses, pools, taps, fleet series) behind the same
//! accessors the single-threaded simulator had.

use std::collections::VecDeque;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{RunLimit, SimConfig};
use crate::event::{node_port_key, Event, EventKey, EventKind, FaultApply, NodeId};
use crate::fault::{ChannelProfile, FaultAction, FaultCounters, FaultPlan};
use crate::node::{HostApp, HostId, SwitchId};
use crate::routing::{compute_l2_routes, EcmpTable};
use crate::series::SeriesSet;
use crate::shard::{mix64, run_shards, Inbox, Schedule, ShardRun, ShardState, ShardSyncStats};
use tpp_asic::{Asic, AsicConfig, PortId, ProgramInterner};
use tpp_telemetry::{MetricsRegistry, SharedSink};
use tpp_wire::ethernet::Frame;
use tpp_wire::tpp::TppPacket;
use tpp_wire::EthernetAddress;

/// One end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A numbered port of a switch.
    SwitchPort(SwitchId, PortId),
    /// A host's first NIC (shorthand for `HostPort(h, 0)`; the common
    /// single-homed case).
    Host(HostId),
    /// A numbered NIC of a multi-homed host (see
    /// [`NetworkBuilder::add_host_multi`]).
    HostPort(HostId, PortId),
}

impl Endpoint {
    /// A switch port endpoint.
    pub fn switch(switch: SwitchId, port: PortId) -> Self {
        Endpoint::SwitchPort(switch, port)
    }

    /// A host endpoint (NIC 0).
    pub fn host(host: HostId) -> Self {
        Endpoint::Host(host)
    }

    /// A specific NIC of a multi-homed host.
    pub fn host_port(host: HostId, port: PortId) -> Self {
        Endpoint::HostPort(host, port)
    }

    fn node(self) -> NodeId {
        match self {
            Endpoint::SwitchPort(s, _) => NodeId::switch(s),
            Endpoint::Host(h) | Endpoint::HostPort(h, _) => NodeId::host(h),
        }
    }

    fn port(self) -> PortId {
        match self {
            Endpoint::SwitchPort(_, p) | Endpoint::HostPort(_, p) => p,
            Endpoint::Host(_) => 0,
        }
    }
}

/// Builder for a [`Simulator`]: the topology description consumed by
/// [`NetworkBuilder::build`].
pub struct NetworkBuilder {
    switches: Vec<AsicConfig>,
    hosts: Vec<(Box<dyn HostApp>, u32, u16)>,
    links: Vec<(Endpoint, Endpoint, u64)>,
    config: SimConfig,
}

/// Role alias: the builder *is* the topology half of the
/// `SimConfig + Topology → Simulator` surface.
pub type Topology = NetworkBuilder;

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// An empty network under the default [`SimConfig`].
    pub fn new() -> Self {
        NetworkBuilder::with_config(SimConfig::default())
    }

    /// An empty network under an explicit configuration.
    pub fn with_config(config: SimConfig) -> Self {
        NetworkBuilder {
            switches: Vec::new(),
            hosts: Vec::new(),
            links: Vec::new(),
            config,
        }
    }

    /// Add a switch; returns its id.
    pub fn add_switch(&mut self, config: AsicConfig) -> SwitchId {
        self.switches.push(config);
        SwitchId(self.switches.len() - 1)
    }

    /// Add a host running `app`, with a single NIC of `nic_rate_kbps`;
    /// returns its id. The host's MAC is
    /// `EthernetAddress::from_host_id(id)`.
    pub fn add_host(&mut self, app: Box<dyn HostApp>, nic_rate_kbps: u32) -> HostId {
        self.add_host_multi(app, nic_rate_kbps, 1)
    }

    /// Add a multi-homed host with `ports` independent NICs, each of
    /// `nic_rate_kbps`. NIC `p` is addressed as
    /// [`Endpoint::host_port`]`(id, p)` when wiring links, and apps pick
    /// a NIC per frame with [`crate::HostCtx::send_on`]. All NICs share
    /// the host's single MAC: which paths lead where is a property of
    /// the wiring, and bonding logic above decides how to spread load.
    pub fn add_host_multi(
        &mut self,
        app: Box<dyn HostApp>,
        nic_rate_kbps: u32,
        ports: u16,
    ) -> HostId {
        assert!(ports > 0, "a host needs at least one NIC");
        self.hosts.push((app, nic_rate_kbps, ports));
        HostId(self.hosts.len() - 1)
    }

    /// Connect two endpoints with a full-duplex link of propagation delay
    /// `delay_ns`. Serialization rate in each direction comes from the
    /// transmitting side (the switch port's configured capacity, or the
    /// host's NIC rate).
    pub fn connect(&mut self, a: Endpoint, b: Endpoint, delay_ns: u64) {
        self.links.push((a, b, delay_ns));
    }

    /// Build the simulator: wire the dense adjacency, partition nodes
    /// into shards, compute the conservative lookahead (the minimum
    /// inter-shard propagation delay) and the control-plane L2 tables.
    ///
    /// The shard count is clamped to the node count, and a topology with
    /// a zero-delay link crossing a shard boundary falls back to one
    /// shard (zero lookahead would serialize the windows anyway). Seeded
    /// results are bit-identical for every shard count.
    ///
    /// # Panics
    /// Panics on invalid wiring: out-of-range switch ports or endpoints
    /// used by more than one link. These are construction-time programmer
    /// errors, not runtime conditions.
    pub fn build(self) -> Simulator {
        let cfg = self.config;
        // One fleet-wide program interner: every switch's decode cache
        // fills from it, so a program appearing at N switches is decoded
        // once and shares one allocation.
        let interner = ProgramInterner::new();
        let mut switches: Vec<SwitchNode> = self
            .switches
            .into_iter()
            .map(|config| {
                let mut asic = Asic::new(config);
                asic.set_program_interner(interner.clone());
                let mut links = Vec::with_capacity(asic.num_ports());
                links.resize_with(asic.num_ports(), || None);
                SwitchNode { asic, links }
            })
            .collect();
        let mut hosts: Vec<HostNode> = self
            .hosts
            .into_iter()
            .enumerate()
            .map(|(i, (app, rate, ports))| HostNode {
                app,
                mac: EthernetAddress::from_host_id(i as u32),
                nics: (0..ports)
                    .map(|_| Nic {
                        rate_kbps: rate,
                        queue: VecDeque::new(),
                        link: None,
                    })
                    .collect(),
                timer_seq: 0,
            })
            .collect();
        for ep in self.links.iter().flat_map(|(a, b, _)| [a, b]) {
            let node = ep.node();
            let len = if node.is_host() {
                hosts.len()
            } else {
                switches.len()
            };
            assert!(
                node.index() < len && ep.port() < num_ports(&switches, &hosts, node),
                "link endpoint {ep:?} out of range"
            );
        }

        // Partition: contiguous blocks of switch and host indices per
        // shard. Retry at one shard if any inter-shard link has zero
        // propagation delay (no usable lookahead).
        let total_nodes = switches.len() + hosts.len();
        let mut num_shards = cfg.shards.clamp(1, total_nodes.max(1));
        let (switch_shard, host_shard, switch_ranges, host_ranges, lookahead_ns) = loop {
            let switch_ranges = block_ranges(switches.len(), num_shards);
            let host_ranges = block_ranges(hosts.len(), num_shards);
            let switch_shard = expand_ranges(&switch_ranges, switches.len());
            let host_shard = expand_ranges(&host_ranges, hosts.len());
            let shard_of = |ep: &Endpoint| node_shard(&switch_shard, &host_shard, ep.node());
            let lookahead_ns = self
                .links
                .iter()
                .filter(|(a, b, _)| shard_of(a) != shard_of(b))
                .map(|&(_, _, delay)| delay)
                .min()
                .unwrap_or(u64::MAX);
            if lookahead_ns == 0 && num_shards > 1 {
                num_shards = 1;
                continue;
            }
            break (
                switch_shard,
                host_shard,
                switch_ranges,
                host_ranges,
                lookahead_ns,
            );
        };

        // Each link direction lives on its transmitting node: one slot
        // per switch port or NIC, so the per-frame hot path indexes the
        // node it already holds instead of probing a map.
        for (a, b, delay) in &self.links {
            for (ep, peer) in [(a, b), (b, a)] {
                let slot = match ep {
                    Endpoint::SwitchPort(s, p) => &mut switches[s.0].links[*p as usize],
                    Endpoint::Host(h) | Endpoint::HostPort(h, _) => {
                        &mut hosts[h.0].nics[ep.port() as usize].link
                    }
                };
                assert!(
                    slot.is_none(),
                    "endpoint used by two links: {a:?} <-> {b:?}"
                );
                *slot = Some(Link {
                    peer: peer.node(),
                    peer_port: peer.port(),
                    peer_shard: node_shard(&switch_shard, &host_shard, peer.node()),
                    delay_ns: *delay,
                    busy: false,
                    loss_permille: 0,
                    up: true,
                    faults: ChannelProfile::default(),
                    profile: None,
                    key: node_port_key(ep.node(), ep.port()),
                    seq: 0,
                    losses: 0,
                    loss_rng: None,
                    fault_rng: None,
                    fault_rng_epoch: 0,
                });
            }
        }

        let l2_routes = compute_l2_routes(&switches, &hosts);
        let ecmp = cfg
            .ecmp
            .then(|| EcmpTable::build(cfg.seed, &switches, &hosts));

        Simulator {
            now_ns: 0,
            started: false,
            next_tick_ns: 0,
            tick_interval_ns: cfg.tick_interval_ns,
            seed: cfg.seed,
            parallel: cfg.parallel,
            num_shards,
            lookahead_ns,
            switches,
            hosts,
            switch_ranges,
            host_ranges,
            switch_shard,
            host_shard,
            shards: (0..num_shards)
                .map(|_| ShardState::new(cfg.frame_pool_buffers))
                .collect(),
            inboxes: (0..num_shards).map(|_| Default::default()).collect(),
            l2_routes,
            ecmp,
            fault_seed: 0,
            fault_epoch: 0,
            next_fault_entry: 0,
            metrics: MetricsRegistry::new(),
            fleet_sink: None,
            series: None,
            interner,
        }
    }
}

fn block_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    (0..shards)
        .map(|k| (k * n / shards)..((k + 1) * n / shards))
        .collect()
}

fn expand_ranges(ranges: &[Range<usize>], n: usize) -> Vec<usize> {
    let mut owner = vec![0usize; n];
    for (k, range) in ranges.iter().enumerate() {
        for slot in &mut owner[range.clone()] {
            *slot = k;
        }
    }
    owner
}

fn node_shard(switch_shard: &[usize], host_shard: &[usize], node: NodeId) -> usize {
    if node.is_host() {
        host_shard[node.index()]
    } else {
        switch_shard[node.index()]
    }
}

/// The link direction transmitted from `(node, port)`, if wired. With
/// [`link_mut`], the one place that tells a switch port from a host NIC
/// when finding a link. Node indices count from the start of the
/// slices, so a shard passes its own with its ids rebased.
pub(crate) fn link<'a>(
    switches: &'a [SwitchNode],
    hosts: &'a [HostNode],
    node: NodeId,
    port: PortId,
) -> Option<&'a Link> {
    if node.is_host() {
        hosts[node.index()].nics.get(port as usize)?.link.as_ref()
    } else {
        switches[node.index()].links.get(port as usize)?.as_ref()
    }
}

/// Mutable twin of [`link`].
pub(crate) fn link_mut<'a>(
    switches: &'a mut [SwitchNode],
    hosts: &'a mut [HostNode],
    node: NodeId,
    port: PortId,
) -> Option<&'a mut Link> {
    if node.is_host() {
        hosts[node.index()]
            .nics
            .get_mut(port as usize)?
            .link
            .as_mut()
    } else {
        switches[node.index()]
            .links
            .get_mut(port as usize)?
            .as_mut()
    }
}

/// A node's port count: a switch's ports or a host's NICs.
pub(crate) fn num_ports(switches: &[SwitchNode], hosts: &[HostNode], node: NodeId) -> u16 {
    if node.is_host() {
        hosts[node.index()].nics.len() as u16
    } else {
        switches[node.index()].links.len() as u16
    }
}

/// Frames lost in flight over every link direction of the nodes.
pub(crate) fn frames_lost(switches: &[SwitchNode], hosts: &[HostNode]) -> u64 {
    let ports = switches.iter().flat_map(|sw| &sw.links);
    let nics = hosts
        .iter()
        .flat_map(|h| h.nics.iter().map(|nic| &nic.link));
    ports.chain(nics).flatten().map(|l| l.losses).sum()
}

/// Which way a tapped frame was travelling relative to the tap point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDir {
    /// The tapped endpoint transmitted the frame.
    Tx,
    /// The tapped endpoint received the frame.
    Rx,
}

/// A captured frame summary — the simulator's pcap analogue. Summaries,
/// not copies: taps are for understanding experiments, not for giving
/// end-host code a side channel around the TPP interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRecord {
    /// Capture time, ns.
    pub t_ns: u64,
    /// Direction relative to the tapped endpoint.
    pub dir: TapDir,
    /// Frame length on the wire in bytes, tail included.
    pub len: usize,
    /// EtherType.
    pub ethertype: u16,
    /// Source MAC.
    pub src: EthernetAddress,
    /// Destination MAC.
    pub dst: EthernetAddress,
    /// For TPP frames: the hop counter at capture time.
    pub tpp_hop: Option<u8>,
}

impl TapRecord {
    pub(crate) fn capture(t_ns: u64, dir: TapDir, frame: &[u8], tail: u32) -> Option<TapRecord> {
        let parsed = Frame::new_checked(frame).ok()?;
        let tpp_hop = if parsed.is_tpp() {
            TppPacket::new_checked(parsed.payload())
                .ok()
                .map(|t| t.hop())
        } else {
            None
        };
        Some(TapRecord {
            t_ns,
            dir,
            len: frame.len() + tail as usize,
            ethertype: parsed.ethertype().0,
            src: parsed.src_addr(),
            dst: parsed.dst_addr(),
            tpp_hop,
        })
    }
}

/// One direction of a link, owned by the node that transmits on it: the
/// peer, the transmitter state, the channel properties, and the
/// direction-owned determinism state (frame sequence counter and the
/// lazily-armed per-direction RNG streams).
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) peer: NodeId,
    pub(crate) peer_port: PortId,
    /// Shard owning the receiving node; transmissions to another shard
    /// go through its mailbox.
    pub(crate) peer_shard: usize,
    pub(crate) delay_ns: u64,
    /// True while a frame is serializing onto this direction; its
    /// `LinkFree` clears it.
    pub(crate) busy: bool,
    /// In-flight loss probability in per-mille. 0 = lossless (and the
    /// RNG is never consulted, so lossless runs are unchanged by the
    /// feature). Models a fading wireless channel; set per direction
    /// via [`Simulator::set_link_loss`].
    pub(crate) loss_permille: u16,
    /// False while an injected [`FaultAction::LinkDown`] holds the link
    /// down: every frame transmitted on this direction is lost.
    pub(crate) up: bool,
    /// Active channel fault profile (clean outside fault windows; the
    /// fault RNG is never consulted while clean).
    pub(crate) faults: ChannelProfile,
    /// Time-varying link profile (see [`crate::profile::LinkProfile`]):
    /// sampled as a pure function of time, so the extra loss/latency and
    /// the rate scale are identical on every shard. Boxed: unprofiled
    /// links (the common case) pay one pointer.
    pub(crate) profile: Option<Box<crate::profile::LinkProfile>>,
    /// Canonical key of this (transmitting) direction; seeds the
    /// per-direction RNG streams.
    pub(crate) key: u64,
    /// Frames placed on the wire in this direction — the `minor` order
    /// of arrival events at the peer.
    pub(crate) seq: u64,
    /// Frames lost in flight on this direction (channel loss + link-down
    /// drops).
    pub(crate) losses: u64,
    /// Per-direction loss stream, armed by [`Simulator::set_link_loss`]
    /// from `mix64(config seed, key)`. Boxed: lossless links (the common
    /// case) pay one pointer.
    pub(crate) loss_rng: Option<Box<StdRng>>,
    /// Per-direction fault stream, armed lazily from
    /// `mix64(plan seed, key)` on first use after a plan install.
    pub(crate) fault_rng: Option<Box<StdRng>>,
    /// Which plan install `fault_rng` belongs to.
    pub(crate) fault_rng_epoch: u32,
}

pub(crate) struct SwitchNode {
    pub(crate) asic: Asic,
    /// The link direction transmitted from each port (`None`: unwired).
    pub(crate) links: Vec<Option<Link>>,
}

/// One NIC of a host: its own rate, queue and link direction, so a
/// multi-homed host's ports serialize independently.
pub(crate) struct Nic {
    pub(crate) rate_kbps: u32,
    /// Frames waiting for the transmitter, each a head and its tail.
    pub(crate) queue: VecDeque<(Vec<u8>, u32)>,
    pub(crate) link: Option<Link>,
}

pub(crate) struct HostNode {
    pub(crate) app: Box<dyn HostApp>,
    pub(crate) mac: EthernetAddress,
    pub(crate) nics: Vec<Nic>,
    /// Per-host timer counter: the `minor` order of this host's timer
    /// events at equal times.
    pub(crate) timer_seq: u64,
}

/// The assembled network simulation.
pub struct Simulator {
    now_ns: u64,
    started: bool,
    /// Absolute time of the next stats tick (valid once started). Ticks
    /// are not queue events: each shard takes them inside the run loop
    /// once the window reduction says nothing is pending before the tick
    /// time, advancing its own switches' EWMAs and sampling their series.
    next_tick_ns: u64,
    tick_interval_ns: u64,
    seed: u64,
    parallel: bool,
    num_shards: usize,
    /// Conservative window length: the minimum propagation delay of any
    /// inter-shard link (`u64::MAX` when nothing crosses a boundary).
    lookahead_ns: u64,
    /// The nodes, each with the link directions it transmits on.
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    /// Contiguous index blocks per shard (switches and hosts partition
    /// independently); the slices handed to [`ShardRun`]s split here.
    switch_ranges: Vec<Range<usize>>,
    host_ranges: Vec<Range<usize>>,
    switch_shard: Vec<usize>,
    host_shard: Vec<usize>,
    shards: Vec<ShardState>,
    /// Cross-shard mailboxes, one per destination shard, drained into
    /// the owner's queue after each window's synchronisation.
    inboxes: Vec<[Inbox; 2]>,
    /// Precomputed control-plane L2 tables (see [`compute_l2_routes`]).
    l2_routes: Vec<Vec<(EthernetAddress, PortId)>>,
    /// Equal-cost next-hop groups, built only under [`SimConfig::ecmp`]
    /// (see [`crate::routing`]). Shards read it by shared reference.
    ecmp: Option<EcmpTable>,
    /// Seed of the installed fault plan; per-link fault streams derive
    /// from it.
    fault_seed: u64,
    /// Bumped per [`Simulator::install_faults`] so links re-arm their
    /// fault streams lazily.
    fault_epoch: u32,
    /// Global fault-plan entry counter: preserves plan order at equal
    /// times across installs.
    next_fault_entry: u64,
    /// Fleet-wide metrics, rebuilt lazily from every switch's registers
    /// when [`Simulator::metrics`] is called.
    metrics: MetricsRegistry,
    /// Clone of the fleet trace sink handed out by
    /// [`ObsHandle::trace_all`](crate::ObsHandle::trace_all); shards
    /// record simulator-level fault events into their own clones.
    fleet_sink: Option<SharedSink>,
    /// Ring-buffer time series sampled on every stats tick
    /// (observability plane layer 2); `None` (the default) costs each
    /// shard's tick one branch.
    series: Option<SeriesSet>,
    /// Fleet-wide program interner shared by every switch's decode
    /// cache (see [`ProgramInterner`]).
    interner: ProgramInterner,
}

impl Simulator {
    /// Current simulation time, ns.
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// The effective shard count (the configured count clamped at build
    /// time).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The equal-cost routing table, when built under
    /// [`SimConfig::ecmp`] (ground truth for routing tests).
    pub fn ecmp_table(&self) -> Option<&EcmpTable> {
        self.ecmp.as_ref()
    }

    /// Total events dispatched so far, summed over shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Windows stepped and events mailed across a shard boundary so
    /// far, per shard. Deterministic: the same for the sequential and
    /// the threaded driver, and from run to run.
    pub fn shard_sync_stats(&self) -> Vec<ShardSyncStats> {
        self.shards.iter().map(|s| s.sync).collect()
    }

    /// The fleet-wide program interner shared by every switch's decode
    /// cache: `(shared, decoded)` counters and distinct-program count
    /// are read through it.
    pub fn program_interner(&self) -> &ProgramInterner {
        &self.interner
    }

    /// Approximate resident heap bytes of one switch's state, averaged
    /// over the fleet: per-switch slabs (SRAM, tables, queues, caches)
    /// plus the shared interner amortized across switches. The FCT
    /// benchmark reports this as `bytes_per_switch`.
    pub fn approx_bytes_per_switch(&self) -> usize {
        if self.switches.is_empty() {
            return 0;
        }
        let per_switch: usize = self
            .switches
            .iter()
            .map(|sw| sw.asic.approx_bytes())
            .sum::<usize>();
        (per_switch + self.interner.approx_bytes()) / self.switches.len()
    }

    fn node_shard(&self, node: NodeId) -> usize {
        node_shard(&self.switch_shard, &self.host_shard, node)
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Immutable access to a switch's ASIC (for sampling ground truth in
    /// experiments and tests).
    pub fn switch(&self, id: SwitchId) -> &Asic {
        &self.switches[id.0].asic
    }

    /// Mutable access to a switch's ASIC (control-plane operations:
    /// installing routes, flow entries, SRAM initialization).
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Asic {
        &mut self.switches[id.0].asic
    }

    /// Downcast a host's app to its concrete type.
    ///
    /// # Panics
    /// Panics if the app at `id` is not a `T`.
    pub fn host_app<T: HostApp>(&self, id: HostId) -> &T {
        self.hosts[id.0]
            .app
            .as_any()
            .downcast_ref::<T>()
            .expect("host app type mismatch")
    }

    /// How many NICs a host has.
    pub fn host_ports(&self, id: HostId) -> u16 {
        self.hosts[id.0].nics.len() as u16
    }

    /// Set the in-flight loss probability (per-mille) of the link
    /// direction transmitted from `from`. Models a degrading wireless
    /// channel; change it over time to model fading. Losses draw from a
    /// per-direction RNG stream seeded from the configured seed and the
    /// direction's canonical key, so outcomes are independent of shard
    /// layout.
    ///
    /// The total effective loss is capped at 1000 ‰ (certain loss); the
    /// returned value is the effective probability at the current
    /// simulation time — the clamped static value *plus* whatever an
    /// installed [`LinkProfile`](crate::profile::LinkProfile) is
    /// currently contributing — so callers see what the wire will
    /// actually do rather than only the static half.
    ///
    /// # Panics
    /// Panics if `from` is not connected.
    pub fn set_link_loss(&mut self, from: Endpoint, loss_permille: u16) -> u16 {
        let seed = self.seed;
        let now = self.now_ns;
        let link = link_mut(
            &mut self.switches,
            &mut self.hosts,
            from.node(),
            from.port(),
        )
        .unwrap_or_else(|| panic!("{from:?} is not connected"));
        let stat = loss_permille.min(1000);
        link.loss_permille = stat;
        let profile_max = link.profile.as_ref().map_or(0, |p| p.max_loss_permille());
        if (stat > 0 || profile_max > 0) && link.loss_rng.is_none() {
            link.loss_rng = Some(Box::new(StdRng::seed_from_u64(mix64(seed, link.key))));
        }
        let profile_now = link
            .profile
            .as_ref()
            .map_or(0, |p| p.sample(now).loss_permille);
        (stat as u32 + profile_now as u32).min(1000) as u16
    }

    /// Install (or replace, with `Some`/`None`) the time-varying profile
    /// of the link direction transmitted from `from`. The profile's
    /// extra loss adds to the static [`set_link_loss`](Self::set_link_loss)
    /// value, its extra delay adds to the propagation delay, and its
    /// rate scale stretches serialization time — all sampled as a pure
    /// function of simulation time, so profiled runs stay bit-identical
    /// at every shard count. If the profile can ever contribute loss,
    /// the direction's seeded loss stream is armed here (the same stream
    /// `set_link_loss` arms, so static and profiled loss compose on one
    /// deterministic sequence of dice).
    ///
    /// # Panics
    /// Panics if `from` is not connected.
    pub fn set_link_profile(
        &mut self,
        from: Endpoint,
        profile: Option<crate::profile::LinkProfile>,
    ) {
        let seed = self.seed;
        let link = link_mut(
            &mut self.switches,
            &mut self.hosts,
            from.node(),
            from.port(),
        )
        .unwrap_or_else(|| panic!("{from:?} is not connected"));
        let arm =
            profile.as_ref().is_some_and(|p| p.max_loss_permille() > 0) || link.loss_permille > 0;
        link.profile = profile.map(Box::new);
        if arm && link.loss_rng.is_none() {
            link.loss_rng = Some(Box::new(StdRng::seed_from_u64(mix64(seed, link.key))));
        }
    }

    /// Frames actually placed on the wire so far by the link direction
    /// transmitted from `from` (losses and link-down drops excluded).
    /// Per-direction ground truth for bonding tests and fingerprints.
    pub fn link_tx_frames(&self, from: Endpoint) -> u64 {
        link(&self.switches, &self.hosts, from.node(), from.port())
            .map(|l| l.seq)
            .unwrap_or(0)
    }

    /// The node at the far end of `from`'s link, if connected.
    #[cfg(test)]
    pub(crate) fn link_peer(&self, from: Endpoint) -> Option<NodeId> {
        link(&self.switches, &self.hosts, from.node(), from.port()).map(|l| l.peer)
    }

    /// Install a seeded [`FaultPlan`]: expands every entry into
    /// shard-local steps on the owning shards' queues and re-arms the
    /// per-link fault streams from the plan's seed. May be called before
    /// or after the simulation starts (times already in the past fire
    /// immediately on the next step). Installing a second plan replaces
    /// the streams and adds the new entries.
    ///
    /// # Panics
    /// Panics if an entry references a disconnected endpoint or an
    /// unknown switch (construction-time programmer errors).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for (_, action) in plan.entries() {
            match action {
                FaultAction::LinkDown { at }
                | FaultAction::LinkUp { at }
                | FaultAction::SetChannel { from: at, .. } => {
                    assert!(
                        link(&self.switches, &self.hosts, at.node(), at.port()).is_some(),
                        "{at:?} is not connected"
                    );
                }
                FaultAction::SwitchReboot { switch } => {
                    assert!(switch.0 < self.switches.len(), "{switch:?} does not exist");
                }
            }
        }
        self.fault_seed = plan.seed();
        self.fault_epoch += 1;
        for (t_ns, action) in plan.entries() {
            let entry = self.next_fault_entry;
            self.next_fault_entry += 1;
            match action {
                FaultAction::LinkDown { at } | FaultAction::LinkUp { at } => {
                    let up = matches!(action, FaultAction::LinkUp { .. });
                    // A link is full-duplex: flapping takes both
                    // directions with it, as two per-direction steps
                    // routed to the owning shards (forward first).
                    let a = (at.node(), at.port());
                    let link =
                        link(&self.switches, &self.hosts, a.0, a.1).expect("validated above");
                    let b = (link.peer, link.peer_port);
                    for (dir, (node, port)) in [(0u64, a), (1, b)] {
                        let shard = self.node_shard(node);
                        self.shards[shard].events.push(Event {
                            key: EventKey::fault(*t_ns, entry, dir),
                            kind: EventKind::Fault {
                                apply: FaultApply::SetLinkUp { node, port, up },
                            },
                        });
                    }
                }
                FaultAction::SwitchReboot { switch } => {
                    let shard = self.switch_shard[switch.0];
                    self.shards[shard].events.push(Event {
                        key: EventKey::fault(*t_ns, entry, 0),
                        kind: EventKind::Fault {
                            apply: FaultApply::Reboot { switch: *switch },
                        },
                    });
                }
                FaultAction::SetChannel { from, profile } => {
                    let node = from.node();
                    let shard = self.node_shard(node);
                    self.shards[shard].events.push(Event {
                        key: EventKey::fault(*t_ns, entry, 0),
                        kind: EventKind::Fault {
                            apply: FaultApply::SetChannel {
                                node,
                                port: from.port(),
                                profile: *profile,
                            },
                        },
                    });
                }
            }
        }
    }

    /// Running totals of injected faults, summed over shards.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for shard in &self.shards {
            let c = shard.counters;
            total.link_down_drops += c.link_down_drops;
            total.duplicated += c.duplicated;
            total.corrupted += c.corrupted;
            total.reordered += c.reordered;
            total.reboots += c.reboots;
            total.link_downs += c.link_downs;
        }
        total
    }

    /// The recorded time series, if enabled via
    /// [`ObsHandle::series`](crate::ObsHandle::series).
    pub fn series(&self) -> Option<&SeriesSet> {
        self.series.as_ref()
    }

    /// A switch's current boot epoch (ground truth for tests; end-hosts
    /// read the same value via `Switch:BootEpoch`).
    pub fn boot_epoch(&self, id: SwitchId) -> u32 {
        self.switches[id.0].asic.regs().boot_epoch
    }

    /// Frames lost in flight on the link direction transmitted from
    /// `from`.
    pub fn link_losses(&self, from: Endpoint) -> u64 {
        link(&self.switches, &self.hosts, from.node(), from.port())
            .map(|l| l.losses)
            .unwrap_or(0)
    }

    /// The frames captured at a tapped endpoint so far (empty for
    /// untapped endpoints).
    pub fn tap_records(&self, at: Endpoint) -> &[TapRecord] {
        let shard = self.node_shard(at.node());
        self.shards[shard]
            .taps
            .get(&(at.node(), at.port()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub(crate) fn enable_tap_impl(&mut self, at: Endpoint) {
        let shard = self.node_shard(at.node());
        self.shards[shard]
            .taps
            .entry((at.node(), at.port()))
            .or_default();
    }

    pub(crate) fn trace_all_impl(&mut self, capacity: usize) -> SharedSink {
        let sink = SharedSink::new(capacity);
        for sw in &mut self.switches {
            sw.asic.set_trace_sink(Some(sink.clone()));
        }
        for shard in &mut self.shards {
            shard.sink = Some(sink.clone());
        }
        self.fleet_sink = Some(sink.clone());
        sink
    }

    pub(crate) fn enable_series_impl(&mut self, capacity: usize) {
        let ids: Vec<u32> = self.switches.iter().map(|sw| sw.asic.switch_id()).collect();
        self.series = Some(SeriesSet::sharded(&ids, capacity, self.num_shards));
    }

    /// The observability handle: time series, taps and trace sinks live
    /// behind one accessor (see [`crate::ObsHandle`]).
    pub fn observe(&mut self) -> crate::ObsHandle<'_> {
        crate::ObsHandle::new(self)
    }

    /// The fleet-wide metrics registry, rebuilt from every switch's
    /// registers at the time of the call (counters summed across
    /// switches, distributions merged). Rebuilding on access instead of
    /// on every stats tick keeps the clear-and-re-export cost out of the
    /// event loop; ticks only advance the switches' EWMAs.
    pub fn metrics(&mut self) -> &MetricsRegistry {
        self.rebuild_metrics();
        &self.metrics
    }

    fn rebuild_metrics(&mut self) {
        self.metrics.clear();
        for sw in &self.switches {
            sw.asic.export_metrics(&mut self.metrics);
        }
        let lost = frames_lost(&self.switches, &self.hosts);
        self.metrics.set("link.frames_lost", lost);
        let f = self.fault_counters();
        if f != FaultCounters::default() {
            self.metrics.set("fault.link_down_drops", f.link_down_drops);
            self.metrics.set("fault.duplicated", f.duplicated);
            self.metrics.set("fault.corrupted", f.corrupted);
            self.metrics.set("fault.reordered", f.reordered);
            self.metrics.set("fault.reboots", f.reboots);
            self.metrics.set("fault.link_downs", f.link_downs);
        }
    }

    /// `(reused, fresh, recycled)` counters of the frame-buffer pools,
    /// summed over shards: allocations served from recycled capacity,
    /// allocations that fell through to the allocator, and buffers
    /// accepted back.
    pub fn frame_pool_stats(&self) -> (u64, u64, u64) {
        let mut totals = (0, 0, 0);
        for shard in &self.shards {
            let (reused, fresh, recycled) = shard.pool.stats();
            totals.0 += reused;
            totals.1 += fresh;
            totals.2 += recycled;
        }
        totals
    }

    /// Install L2 forwarding entries for every host at every switch along
    /// shortest paths (BFS over the physical topology, precomputed at
    /// build time). Call once after `build()`; this plays the role of a
    /// pre-converged control plane.
    pub fn populate_l2(&mut self) {
        for (s, routes) in self.l2_routes.iter().enumerate() {
            let asic = &mut self.switches[s].asic;
            for (mac, port) in routes {
                asic.l2_mut().insert(*mac, *port);
            }
        }
    }

    /// Construct the per-shard working views by splitting the node
    /// arrays (which carry their links) at the partition boundaries.
    fn shard_runs(&mut self) -> Vec<ShardRun<'_>> {
        let now_ns = self.now_ns;
        let fault_seed = self.fault_seed;
        let fault_epoch = self.fault_epoch;
        let mut runs = Vec::with_capacity(self.num_shards);
        let mut switches = self.switches.as_mut_slice();
        let mut hosts = self.hosts.as_mut_slice();
        let mut shards = self.shards.as_mut_slice();
        let mut series = self
            .series
            .as_mut()
            .map(|set| (set.switches.as_mut_slice(), set.shares.iter_mut()));
        for k in 0..self.num_shards {
            let n_switches = self.switch_ranges[k].len();
            let n_hosts = self.host_ranges[k].len();
            let (sw, rest) = switches.split_at_mut(n_switches);
            switches = rest;
            let (h, rest) = hosts.split_at_mut(n_hosts);
            hosts = rest;
            let (st, rest) = shards.split_at_mut(1);
            shards = rest;
            let shard_series = series.as_mut().map(|(switch_series, shares)| {
                let (mine, rest) = std::mem::take(switch_series).split_at_mut(n_switches);
                *switch_series = rest;
                (mine, shares.next().expect("one fleet share per shard"))
            });
            runs.push(ShardRun {
                idx: k,
                now_ns,
                switch_base: self.switch_ranges[k].start,
                host_base: self.host_ranges[k].start,
                switches: sw,
                hosts: h,
                state: &mut st[0],
                inboxes: &self.inboxes,
                l2_routes: &self.l2_routes,
                ecmp: self.ecmp.as_ref(),
                fault_seed,
                fault_epoch,
                series: shard_series,
                window_end: 0,
                mailed_min: u64::MAX,
            });
        }
        runs
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.next_tick_ns = self.now_ns + self.tick_interval_ns;
        let mut runs = self.shard_runs();
        for run in runs.iter_mut() {
            for h in run.host_base..run.host_base + run.hosts.len() {
                run.call_host(HostId(h), 0, |app, ctx| app.on_start(ctx));
            }
        }
        // Start-of-run sends across a shard boundary: the window loop
        // expects empty mailboxes on entry and leaves them empty.
        runs.iter_mut().for_each(ShardRun::drain_inbox);
    }

    /// Run the event loop under `limit` — the single entry point of the
    /// redesigned surface. One driver call (one scoped thread per shard
    /// when threaded) steps every window and takes every stats tick,
    /// sampling the series there while they are on.
    ///
    /// * [`RunLimit::Until`] runs to an absolute time (inclusive); may
    ///   be issued repeatedly with increasing times.
    /// * [`RunLimit::Quiescent`] runs until a stats tick finds nothing
    ///   pending anywhere, or the limit is reached.
    pub fn run(&mut self, limit: RunLimit) {
        self.ensure_started();
        let sched = Schedule {
            next_tick_ns: self.next_tick_ns,
            tick_interval_ns: self.tick_interval_ns,
            limit,
            lookahead_ns: self.lookahead_ns,
        };
        let parallel = self.parallel;
        let (next_tick_ns, stop_ns) = run_shards(&mut self.shard_runs(), sched, parallel);
        self.next_tick_ns = next_tick_ns;
        self.now_ns = self.now_ns.max(stop_ns);
        if let Some(set) = self.series.as_mut() {
            set.merge_fleet();
        }
    }
}

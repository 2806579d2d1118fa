//! The forwarding tables of the Fig. 3 pipeline: "a combination of layer 2
//! MAC table, layer 3 longest-prefix match table and a flexible TCAM table".
//!
//! The TCAM carries SDN-style flow entries with the *unique version number*
//! ndb stamps on every rule (§2.3): the TCPU exposes the matched entry's id
//! and version through the `PacketMetadata` namespace so end-hosts can
//! reconstruct exactly which rule forwarded each packet.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tpp_wire::EthernetAddress;

/// A port index on the switch.
pub type PortId = u16;

/// The header fields the parser extracts for table lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Ingress port the packet arrived on.
    pub in_port: PortId,
    /// Destination MAC.
    pub dst_mac: EthernetAddress,
    /// Source MAC.
    pub src_mac: EthernetAddress,
    /// EtherType.
    pub ethertype: u16,
    /// Destination IPv4 address, when the frame carries one.
    pub ipv4_dst: Option<u32>,
}

/// A TCAM match pattern. `None` fields are wildcards (the "ternary" in
/// TCAM); present fields match exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Match on ingress port.
    pub in_port: Option<PortId>,
    /// Match on destination MAC.
    pub dst_mac: Option<EthernetAddress>,
    /// Match on source MAC.
    pub src_mac: Option<EthernetAddress>,
    /// Match on EtherType.
    pub ethertype: Option<u16>,
}

impl FlowMatch {
    /// True if this pattern matches the key.
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.in_port.is_none_or(|p| p == key.in_port)
            && self.dst_mac.is_none_or(|m| m == key.dst_mac)
            && self.src_mac.is_none_or(|m| m == key.src_mac)
            && self.ethertype.is_none_or(|e| e == key.ethertype)
    }
}

/// What to do with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward out of a port (egress queue 0).
    Forward(PortId),
    /// Forward out of a port into a specific egress queue — how the
    /// pipeline hands the Fig. 3 scheduler its priority metadata
    /// ("using metadata (such as the packet's priority), the scheduler
    /// decides when it is time for the packet to be transmitted").
    /// Queue 0 is highest priority; the scheduler is strict-priority.
    ForwardQueue(PortId, u8),
    /// Drop the packet.
    Drop,
}

/// A versioned TCAM flow entry.
///
/// "ndb works by ... stamping each flow entry with a unique version
/// number" (§2.3); the control plane bumps `version` whenever it rewrites
/// the entry, and the dataplane reports `(id, version)` to TPPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// Stable entry identifier.
    pub id: u32,
    /// Version stamp, bumped on every modification.
    pub version: u32,
    /// Higher priority wins.
    pub priority: u16,
    /// Match pattern.
    pub pattern: FlowMatch,
    /// Action on match.
    pub action: FlowAction,
}

/// The flexible TCAM table: priority-ordered ternary matching.
#[derive(Debug, Default)]
pub struct Tcam {
    entries: Vec<FlowEntry>,
}

impl Tcam {
    /// An empty TCAM.
    pub fn new() -> Self {
        Tcam::default()
    }

    /// Install or replace (by id) an entry. Keeps entries sorted by
    /// descending priority, ties broken by lower id first (deterministic;
    /// ids are unique, so the order is total and the slot is one
    /// `partition_point`).
    pub fn install(&mut self, entry: FlowEntry) {
        self.remove(entry.id);
        let rank = |e: &FlowEntry| (std::cmp::Reverse(e.priority), e.id);
        let at = self.entries.partition_point(|e| rank(e) < rank(&entry));
        self.entries.insert(at, entry);
    }

    /// Remove an entry by id; returns it if present.
    pub fn remove(&mut self, id: u32) -> Option<FlowEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(pos))
    }

    /// Highest-priority entry matching the key.
    pub fn lookup(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.pattern.matches(key))
    }

    /// Entry by id (control-plane view).
    pub fn get(&self, id: u32) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident heap bytes of this TCAM.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.capacity() * std::mem::size_of::<FlowEntry>()
    }

    /// Iterate over installed entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }
}

/// Multiply-rotate hasher for the L2 table's six-byte keys, in place of
/// SipHash-1-3 (~7 % of wall time on the fabric run, EXPERIMENTS.md E28).
/// Deterministic — no per-process `RandomState` — which is sound here
/// because the keys are MACs the control plane installs, never
/// attacker-chosen.
#[derive(Debug, Default, Clone, Copy)]
struct MacHasher(u64);

impl Hasher for MacHasher {
    /// Words are loaded big-endian and right-aligned, so a MAC's *last*
    /// byte — the one consecutive `from_host_id`s differ in — lands in
    /// the low bits, which an odd multiply permutes among themselves.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[8 - chunk.len()..].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_be_bytes(word))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    /// Fold the high half down: a multiply only carries entropy upwards,
    /// and hashbrown picks the bucket from the *low* bits (the control
    /// tag from the top seven). Host ids strided by 256 or 65,536 differ
    /// only in bytes whose product never reaches the low bits, so without
    /// the fold they would all share one bucket.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Exact-match L2 MAC table.
#[derive(Debug, Default)]
pub struct L2Table {
    entries: HashMap<EthernetAddress, PortId, BuildHasherDefault<MacHasher>>,
}

impl L2Table {
    /// An empty table.
    pub fn new() -> Self {
        L2Table::default()
    }

    /// Bind a MAC to an egress port.
    pub fn insert(&mut self, mac: EthernetAddress, port: PortId) {
        self.entries.insert(mac, port);
    }

    /// Look up a destination MAC.
    pub fn lookup(&self, mac: EthernetAddress) -> Option<PortId> {
        self.entries.get(&mac).copied()
    }

    /// Number of bound MACs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident heap bytes of this table.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity()
                * (std::mem::size_of::<(EthernetAddress, PortId)>() + std::mem::size_of::<u64>())
    }
}

/// Longest-prefix-match table over IPv4 addresses, as a binary trie.
#[derive(Debug, Default)]
pub struct LpmTable {
    root: Node,
    len: usize,
}

#[derive(Debug, Default)]
struct Node {
    port: Option<PortId>,
    children: [Option<Box<Node>>; 2],
}

impl LpmTable {
    /// An empty LPM table.
    pub fn new() -> Self {
        LpmTable::default()
    }

    /// Insert a route `prefix/prefix_len -> port`. Replaces an identical
    /// prefix if present.
    ///
    /// # Panics
    /// Panics if `prefix_len > 32` (a programmer error, not wire input).
    pub fn insert(&mut self, prefix: u32, prefix_len: u8, port: PortId) {
        assert!(prefix_len <= 32, "IPv4 prefix length exceeds 32");
        let mut node = &mut self.root;
        for i in 0..prefix_len {
            let bit = ((prefix >> (31 - i)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        if node.port.replace(port).is_none() {
            self.len += 1;
        }
    }

    /// Longest-prefix match for an address.
    pub fn lookup(&self, addr: u32) -> Option<PortId> {
        let mut node = &self.root;
        let mut best = node.port;
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if node.port.is_some() {
                        best = node.port;
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefixes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident heap bytes of the trie.
    pub fn approx_bytes(&self) -> usize {
        fn nodes(node: &Node) -> usize {
            1 + node
                .children
                .iter()
                .flatten()
                .map(|child| nodes(child))
                .sum::<usize>()
        }
        std::mem::size_of::<Self>() + (nodes(&self.root) - 1) * std::mem::size_of::<Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(in_port: PortId, dst: u32, ethertype: u16) -> FlowKey {
        FlowKey {
            in_port,
            dst_mac: EthernetAddress::from_host_id(dst),
            src_mac: EthernetAddress::from_host_id(999),
            ethertype,
            ipv4_dst: None,
        }
    }

    #[test]
    fn tcam_priority_and_wildcards() {
        let mut tcam = Tcam::new();
        tcam.install(FlowEntry {
            id: 1,
            version: 1,
            priority: 10,
            pattern: FlowMatch {
                ethertype: Some(0x0800),
                ..Default::default()
            },
            action: FlowAction::Forward(1),
        });
        tcam.install(FlowEntry {
            id: 2,
            version: 1,
            priority: 20,
            pattern: FlowMatch {
                ethertype: Some(0x0800),
                in_port: Some(3),
                ..Default::default()
            },
            action: FlowAction::Drop,
        });
        // Higher priority, more specific entry wins.
        assert_eq!(tcam.lookup(&key(3, 5, 0x0800)).unwrap().id, 2);
        // Other ports fall to the wildcard entry.
        assert_eq!(tcam.lookup(&key(1, 5, 0x0800)).unwrap().id, 1);
        // Unmatched ethertype misses entirely.
        assert!(tcam.lookup(&key(1, 5, 0x6666)).is_none());
    }

    #[test]
    fn tcam_install_replaces_by_id() {
        let mut tcam = Tcam::new();
        let mut e = FlowEntry {
            id: 7,
            version: 1,
            priority: 5,
            pattern: FlowMatch::default(),
            action: FlowAction::Forward(1),
        };
        tcam.install(e);
        e.version = 2;
        e.action = FlowAction::Forward(2);
        tcam.install(e);
        assert_eq!(tcam.len(), 1);
        let got = tcam.get(7).unwrap();
        assert_eq!(got.version, 2);
        assert_eq!(got.action, FlowAction::Forward(2));
        assert!(tcam.remove(7).is_some());
        assert!(tcam.is_empty());
    }

    #[test]
    fn tcam_deterministic_tie_break() {
        let mut tcam = Tcam::new();
        for id in [9, 3, 6] {
            tcam.install(FlowEntry {
                id,
                version: 1,
                priority: 10,
                pattern: FlowMatch::default(),
                action: FlowAction::Forward(id as PortId),
            });
        }
        // Same priority: lowest id wins, regardless of install order.
        assert_eq!(tcam.lookup(&key(0, 0, 0)).unwrap().id, 3);
    }

    #[test]
    fn l2_exact_match() {
        let mut l2 = L2Table::new();
        l2.insert(EthernetAddress::from_host_id(1), 4);
        assert_eq!(l2.lookup(EthernetAddress::from_host_id(1)), Some(4));
        assert_eq!(l2.lookup(EthernetAddress::from_host_id(2)), None);
        assert_eq!(l2.len(), 1);
    }

    proptest! {
        /// `install` keeps the order retain + push + full sort would,
        /// under id reuse and equal priorities.
        #[test]
        fn tcam_install_keeps_the_order_a_full_sort_would(
            installs in proptest::collection::vec((0u32..48, 0u16..5), 1..200),
        ) {
            let mut tcam = Tcam::new();
            let mut model: Vec<FlowEntry> = Vec::new();
            for (version, (id, priority)) in installs.into_iter().enumerate() {
                let entry = FlowEntry {
                    id,
                    version: version as u32,
                    priority,
                    pattern: FlowMatch::default(),
                    action: FlowAction::Forward(0),
                };
                tcam.install(entry);
                model.retain(|e| e.id != id);
                model.push(entry);
                model.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.id.cmp(&b.id)));
                prop_assert!(tcam.iter().eq(model.iter()));
            }
        }

        /// The table under its own hasher behaves as a map: random
        /// insert / overwrite / lookup against a `BTreeMap`.
        #[test]
        fn l2_table_matches_btreemap_model(
            ops in proptest::collection::vec((any::<bool>(), 0u32..64, 0u32..4, any::<u16>()), 1..200),
        ) {
            let mut l2 = L2Table::new();
            let mut model = std::collections::BTreeMap::new();
            for (insert, low, shift, port) in ops {
                // Ids collide often and differ in one byte at a time.
                let mac = EthernetAddress::from_host_id(low << (8 * shift));
                if insert {
                    l2.insert(mac, port);
                    model.insert(mac, port);
                }
                prop_assert_eq!(l2.lookup(mac), model.get(&mac).copied());
                prop_assert_eq!(l2.len(), model.len());
            }
        }
    }

    #[test]
    fn mac_hasher_spreads_strided_host_ids_over_low_bits_and_tags() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MacHasher>::default();
        for stride in [1u32, 256, 65_536] {
            let mut buckets = [0u32; 4096];
            let mut tags = [false; 128];
            for i in 0..65_536u32 {
                let h = build.hash_one(EthernetAddress::from_host_id(i.wrapping_mul(stride)));
                buckets[(h & 0xfff) as usize] += 1;
                tags[(h >> 57) as usize] = true;
            }
            // hashbrown: bucket from the low bits, control tag from the
            // top seven. Mean load is 16 per 12-bit bucket.
            let worst = buckets.iter().max().unwrap();
            assert!(
                *worst <= 64,
                "stride {stride}: {worst} MACs share 12 low bits"
            );
            let used = tags.iter().filter(|t| **t).count();
            assert!(used >= 100, "stride {stride}: only {used} of 128 tags used");
        }
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut lpm = LpmTable::new();
        lpm.insert(0x0a000000, 8, 1); // 10.0.0.0/8 -> 1
        lpm.insert(0x0a010000, 16, 2); // 10.1.0.0/16 -> 2
        lpm.insert(0x0a010100, 24, 3); // 10.1.1.0/24 -> 3
        assert_eq!(lpm.lookup(0x0a010105), Some(3)); // 10.1.1.5
        assert_eq!(lpm.lookup(0x0a010205), Some(2)); // 10.1.2.5
        assert_eq!(lpm.lookup(0x0a020305), Some(1)); // 10.2.3.5
        assert_eq!(lpm.lookup(0x0b000001), None); // 11.0.0.1
        assert_eq!(lpm.len(), 3);
    }

    #[test]
    fn lpm_default_route_and_replace() {
        let mut lpm = LpmTable::new();
        lpm.insert(0, 0, 9); // default route
        assert_eq!(lpm.lookup(0xffffffff), Some(9));
        lpm.insert(0, 0, 8); // replace
        assert_eq!(lpm.lookup(0x01020304), Some(8));
        assert_eq!(lpm.len(), 1, "replacement does not double-count");
    }

    #[test]
    fn lpm_host_route() {
        let mut lpm = LpmTable::new();
        lpm.insert(0xc0a80101, 32, 5); // 192.168.1.1/32
        assert_eq!(lpm.lookup(0xc0a80101), Some(5));
        assert_eq!(lpm.lookup(0xc0a80102), None);
    }
}

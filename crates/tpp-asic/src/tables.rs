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

/// An entry's place in the match order: higher priority first, ties
/// broken by lower id (ids are unique, so the order is total).
fn rank(e: &FlowEntry) -> (std::cmp::Reverse<u16>, u32) {
    (std::cmp::Reverse(e.priority), e.id)
}

/// The four matchable fields packed into one word:
/// `in_port` 16 | `dst_mac` 48 | `src_mac` 48 | `ethertype` 16.
fn pack(
    in_port: PortId,
    dst_mac: EthernetAddress,
    src_mac: EthernetAddress,
    ethertype: u16,
) -> u128 {
    let mac = |m: EthernetAddress| m.0.iter().fold(0u128, |acc, &b| acc << 8 | b as u128);
    (in_port as u128) << 112 | mac(dst_mac) << 64 | mac(src_mac) << 16 | ethertype as u128
}

impl FlowMatch {
    /// `(mask, tuple)`: the bits of a packed key this pattern compares,
    /// and the value they must have.
    fn masked_tuple(&self) -> (u128, u128) {
        const NONE: EthernetAddress = EthernetAddress([0; 6]);
        const ALL: EthernetAddress = EthernetAddress::BROADCAST;
        let mask = pack(
            self.in_port.map_or(0, |_| !0),
            self.dst_mac.map_or(NONE, |_| ALL),
            self.src_mac.map_or(NONE, |_| ALL),
            self.ethertype.map_or(0, |_| !0),
        );
        let tuple = pack(
            self.in_port.unwrap_or(0),
            self.dst_mac.unwrap_or(NONE),
            self.src_mac.unwrap_or(NONE),
            self.ethertype.unwrap_or(0),
        );
        (mask, tuple)
    }
}

/// The entries sharing one wildcard mask, as an exact-match table from
/// the masked tuple to the best-ranked entry with that exact pattern.
#[derive(Debug)]
struct MaskGroup {
    mask: u128,
    best: HashMap<u128, FlowEntry, BuildHasherDefault<MacHasher>>,
}

/// The flexible TCAM table: priority-ordered ternary matching.
///
/// `entries`, sorted by [`rank`], is the canonical control-plane view.
/// `groups` is a tuple-space index derived from it — one exact-match
/// table per wildcard mask in use (at most 16) — so a lookup costs one
/// probe per distinct mask, not one compare per rule, and must be
/// indistinguishable from `entries.iter().find(|e| e.pattern.matches(key))`.
#[derive(Debug, Default)]
pub struct Tcam {
    entries: Vec<FlowEntry>,
    groups: Vec<MaskGroup>,
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
        let at = self.entries.partition_point(|e| rank(e) < rank(&entry));
        self.entries.insert(at, entry);
        let (mask, tuple) = entry.pattern.masked_tuple();
        let at = self.groups.iter().position(|g| g.mask == mask);
        let at = at.unwrap_or_else(|| {
            let best = HashMap::default();
            self.groups.push(MaskGroup { mask, best });
            self.groups.len() - 1
        });
        let best = self.groups[at].best.entry(tuple).or_insert(entry);
        if rank(&entry) < rank(best) {
            *best = entry;
        }
    }

    /// Remove an entry by id; returns it if present. If it was the best
    /// of its exact pattern, the next entry with the identical pattern
    /// takes its place in the index; a group left empty is dropped, so
    /// lookups stop probing it.
    pub fn remove(&mut self, id: u32) -> Option<FlowEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        let removed = self.entries.remove(pos);
        let (mask, tuple) = removed.pattern.masked_tuple();
        let at = self
            .groups
            .iter()
            .position(|g| g.mask == mask)
            .expect("an installed entry's mask has a group");
        let best = &mut self.groups[at].best;
        let slot = best.get_mut(&tuple).expect("an installed entry is indexed");
        if slot.id == id {
            // Rank-sorted: every entry this one outranked sits at or after `pos`.
            match self.entries[pos..]
                .iter()
                .find(|e| e.pattern == removed.pattern)
            {
                Some(next) => *slot = *next,
                None => {
                    best.remove(&tuple);
                    if best.is_empty() {
                        self.groups.swap_remove(at);
                    }
                }
            }
        }
        Some(removed)
    }

    /// Highest-priority entry matching the key: one probe per wildcard
    /// mask in use, best rank among the hits. An empty TCAM — every
    /// fabric switch — does not even pack the key.
    pub fn lookup(&self, key: &FlowKey) -> Option<&FlowEntry> {
        if self.groups.is_empty() {
            return None;
        }
        let tuple = pack(key.in_port, key.dst_mac, key.src_mac, key.ethertype);
        self.groups
            .iter()
            .filter_map(|g| g.best.get(&(tuple & g.mask)))
            .min_by_key(|e| rank(e))
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

    /// Approximate resident heap bytes of this TCAM, index included.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self.groups.iter().map(|g| g.best.capacity()).sum();
        size_of::<Self>()
            + self.entries.capacity() * size_of::<FlowEntry>()
            + self.groups.capacity() * size_of::<MaskGroup>()
            + slots * (size_of::<(u128, FlowEntry)>() + size_of::<u64>())
    }

    /// Iterate over installed entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }
}

/// Multiply-rotate hasher for the L2 table's six-byte keys and the TCAM
/// index's packed tuples, in place of SipHash-1-3 (~7 % of wall time on
/// the fabric run, EXPERIMENTS.md E28).
/// Deterministic — no per-process `RandomState` — which is sound here
/// because the keys are MACs and rules the control plane installs,
/// never attacker-chosen.
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

    /// The TCAM index's packed tuples, big-endian like the MACs inside
    /// them (the default feeds `write` native-endian bytes).
    fn write_u128(&mut self, tuple: u128) {
        self.write(&tuple.to_be_bytes());
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

    fn entry(id: u32, priority: u16, pattern: FlowMatch) -> FlowEntry {
        FlowEntry {
            id,
            version: 1,
            priority,
            pattern,
            action: FlowAction::Forward(id as PortId),
        }
    }

    #[test]
    fn removing_a_tuples_best_entry_promotes_the_next() {
        let on_port_3 = FlowMatch {
            in_port: Some(3),
            ..Default::default()
        };
        let mut tcam = Tcam::new();
        for (id, priority) in [(1, 5), (2, 9), (3, 7)] {
            tcam.install(entry(id, priority, on_port_3));
        }
        assert_eq!(tcam.groups.len(), 1);
        assert_eq!(tcam.groups[0].best.len(), 1, "one pattern, one tuple");
        for want in [2, 3, 1] {
            assert_eq!(tcam.lookup(&key(3, 0, 0)).unwrap().id, want);
            assert!(tcam.lookup(&key(4, 0, 0)).is_none());
            tcam.remove(want);
        }
        assert!(tcam.lookup(&key(3, 0, 0)).is_none());
    }

    #[test]
    fn replacing_an_id_with_another_pattern_moves_it_between_groups() {
        let by_port = FlowMatch {
            in_port: Some(3),
            ..Default::default()
        };
        let by_type = FlowMatch {
            ethertype: Some(0x0800),
            ..Default::default()
        };
        let mut tcam = Tcam::new();
        tcam.install(entry(1, 5, by_port));
        tcam.install(entry(2, 4, by_port));
        tcam.install(entry(1, 5, by_type));
        assert_eq!(tcam.len(), 2);
        assert_eq!(tcam.groups.len(), 2);
        // Id 1 left the port group (id 2 was promoted) and joined the other.
        assert_eq!(tcam.lookup(&key(3, 0, 0x6666)).unwrap().id, 2);
        assert_eq!(tcam.lookup(&key(9, 0, 0x0800)).unwrap().id, 1);
        assert_eq!(tcam.lookup(&key(3, 0, 0x0800)).unwrap().id, 1);
    }

    #[test]
    fn an_emptied_group_costs_no_probe() {
        let mut tcam = Tcam::new();
        assert!(tcam.groups.is_empty(), "an empty TCAM probes nothing");
        tcam.install(entry(1, 5, FlowMatch::default()));
        tcam.install(entry(
            2,
            5,
            FlowMatch {
                ethertype: Some(0x0800),
                ..Default::default()
            },
        ));
        assert_eq!(tcam.groups.len(), 2);
        tcam.remove(2);
        assert_eq!(tcam.groups.len(), 1);
        assert_eq!(tcam.lookup(&key(0, 0, 0x0800)).unwrap().id, 1);
        tcam.remove(1);
        assert!(tcam.groups.is_empty());
        assert!(tcam.lookup(&key(0, 0, 0x0800)).is_none());
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
        /// The index is indistinguishable from the sequential scan it
        /// replaced — the specification — under install, replace-by-id
        /// and remove over all 16 masks, with forced priority ties,
        /// reused ids and duplicate patterns; `iter()` keeps rank order.
        #[test]
        fn tcam_index_matches_linear_scan(
            ops in proptest::collection::vec(
                ((0u32..4, 0u32..24, 0u16..4, 0u8..16), (0u16..3, 0u32..3, 0u32..3, 0u16..3)),
                1..120,
            ),
            keys in proptest::collection::vec((0u16..3, 0u32..3, 0u32..3, 0u16..3), 16..17),
        ) {
            let mut tcam = Tcam::new();
            for ((op, id, priority, mask), (in_port, dst, src, ethertype)) in ops {
                if op == 0 {
                    tcam.remove(id);
                } else {
                    let pattern = FlowMatch {
                        in_port: (mask & 1 != 0).then_some(in_port),
                        dst_mac: (mask & 2 != 0).then(|| EthernetAddress::from_host_id(dst)),
                        src_mac: (mask & 4 != 0).then(|| EthernetAddress::from_host_id(src)),
                        ethertype: (mask & 8 != 0).then_some(ethertype),
                    };
                    tcam.install(entry(id, priority, pattern));
                }
                prop_assert!(tcam.iter().map(rank).is_sorted());
                prop_assert_eq!(
                    tcam.groups.iter().map(|g| g.best.len()).sum::<usize>(),
                    tcam.iter().map(|e| e.pattern).fold(Vec::new(), |mut seen, p| {
                        if !seen.contains(&p) {
                            seen.push(p);
                        }
                        seen
                    }).len(),
                    "one index slot per distinct pattern, none left behind"
                );
                for &(in_port, dst, src, ethertype) in &keys {
                    let key = FlowKey {
                        in_port,
                        dst_mac: EthernetAddress::from_host_id(dst),
                        src_mac: EthernetAddress::from_host_id(src),
                        ethertype,
                        ipv4_dst: None,
                    };
                    prop_assert_eq!(
                        tcam.lookup(&key).map(|e| e.id),
                        tcam.iter().find(|e| e.pattern.matches(&key)).map(|e| e.id)
                    );
                }
            }
        }

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
        // Bare MACs (the L2 table's keys), then the same MACs inside a
        // packed tuple (the TCAM index's keys).
        let mac = |i: u32, stride: u32| EthernetAddress::from_host_id(i.wrapping_mul(stride));
        for (in_tuple, stride) in [false, true]
            .into_iter()
            .flat_map(|t| [1u32, 256, 65_536].map(|s| (t, s)))
        {
            let hash = |i| match in_tuple {
                false => build.hash_one(mac(i, stride)),
                true => build.hash_one(pack(3, mac(i, stride), mac(7, 1), 0x0800)),
            };
            let mut buckets = [0u32; 4096];
            let mut tags = [false; 128];
            for i in 0..65_536u32 {
                let h = hash(i);
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

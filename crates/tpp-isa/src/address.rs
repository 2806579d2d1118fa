//! The unified memory-mapped IO address space of §3.2.1 and Table 2.
//!
//! "The statistics can be broadly namespaced into per-switch (i.e. global),
//! per-port, per-queue and per-packet. ... These statistics reside in
//! different memory banks, but providing a unified address space makes them
//! available to TPPs."
//!
//! Layout of the 16-bit virtual address space (all cells are 4-byte words,
//! byte-addressed with a 4-byte stride):
//!
//! | Range             | Namespace                 | Access | Context            |
//! |-------------------|---------------------------|--------|--------------------|
//! | `0x0000..0x0fff`  | per-switch statistics     | RO     | global             |
//! | `0x1000..0x1fff`  | per-port (link) statistics| RO     | packet egress port |
//! | `0x2000..0x2fff`  | per-queue statistics      | RO     | packet egress queue|
//! | `0x3000..0x3fff`  | per-packet metadata       | RO     | this packet        |
//! | `0x4000..0x4fff`  | per-link scratch SRAM     | RW     | packet egress port |
//! | `0x8000..0xffff`  | global scratch SRAM       | RW     | global             |
//!
//! Context-relative namespaces realize the paper's rule that "the address
//! 0xb000 refers to the queue size *on the link the packet will be sent
//! out*": one address means the right bank for whatever port/queue the
//! forwarding pipeline chose for this packet.
//!
//! Scratch SRAM is where network tasks keep in-network state, e.g. the
//! RCP\* per-link fair-share rate register. The control-plane agent
//! (`tpp-control`) partitions these ranges among concurrently running tasks
//! (§3.2 "Multiple tasks").

use crate::{IsaError, Result};
use std::collections::BTreeMap;

/// A 16-bit virtual address into the switch's unified statistics /
/// SRAM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr(pub u16);

impl VirtAddr {
    /// The namespace this address falls in.
    pub fn namespace(self) -> Namespace {
        match self.0 {
            0x0000..=0x0fff => Namespace::Switch,
            0x1000..=0x1fff => Namespace::Link,
            0x2000..=0x2fff => Namespace::Queue,
            0x3000..=0x3fff => Namespace::PacketMetadata,
            0x4000..=0x4fff => Namespace::LinkSram,
            0x8000..=0xffff => Namespace::GlobalSram,
            _ => Namespace::Reserved,
        }
    }

    /// Byte offset of this address within its namespace.
    pub fn offset(self) -> u16 {
        self.0 - self.namespace().base().0
    }

    /// Word index of this address within its namespace.
    pub fn word_index(self) -> usize {
        self.offset() as usize / 4
    }

    /// True if TPPs may STORE/CSTORE to this address.
    ///
    /// Only scratch SRAM is writable; statistics and forwarding state are
    /// read-only, which is the memory-map isolation §4 relies on ("the
    /// memory map isolates critical forwarding state from state modifiable
    /// by TPPs").
    pub fn is_writable(self) -> bool {
        matches!(
            self.namespace(),
            Namespace::LinkSram | Namespace::GlobalSram
        )
    }
}

impl core::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

/// The statistics namespaces of Table 2, plus the two writable SRAM
/// regions tasks allocate from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Per-switch (global) statistics: switch ID, flow-table version, ….
    Switch,
    /// Per-port statistics, resolved against the packet's egress port.
    Link,
    /// Per-queue statistics, resolved against the packet's egress queue.
    Queue,
    /// Per-packet metadata: input port, matched flow entry, ….
    PacketMetadata,
    /// Writable per-link scratch SRAM (e.g. RCP rate registers).
    LinkSram,
    /// Writable global scratch SRAM.
    GlobalSram,
    /// Unmapped hole in the address space.
    Reserved,
}

impl Namespace {
    /// Base address of the namespace.
    pub fn base(self) -> VirtAddr {
        VirtAddr(match self {
            Namespace::Switch => 0x0000,
            Namespace::Link => 0x1000,
            Namespace::Queue => 0x2000,
            Namespace::PacketMetadata => 0x3000,
            Namespace::LinkSram => 0x4000,
            Namespace::GlobalSram => 0x8000,
            Namespace::Reserved => 0x5000,
        })
    }

    /// Size of the namespace in bytes.
    pub fn len(self) -> usize {
        match self {
            Namespace::GlobalSram => 0x8000,
            Namespace::Reserved => 0,
            _ => 0x1000,
        }
    }

    /// True when the namespace has zero length.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

macro_rules! stats {
    ($(#[$enum_meta:meta])* $vis:vis enum $name:ident {
        $($(#[$meta:meta])* $variant:ident => ($symbol:literal, $addr:literal),)*
    }) => {
        $(#[$enum_meta])*
        $vis enum $name {
            $($(#[$meta])* $variant,)*
        }

        impl $name {
            /// All defined statistics, in address order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The `Namespace:Statistic` mnemonic used in assembly text.
            pub fn symbol(self) -> &'static str {
                match self { $($name::$variant => $symbol,)* }
            }

            /// The virtual address the compiler maps the mnemonic to.
            pub fn addr(self) -> VirtAddr {
                match self { $($name::$variant => VirtAddr($addr),)* }
            }

            /// The statistic at `addr`, if one is mapped there: the inverse
            /// of [`addr`](Self::addr), resolved by one `match`.
            pub fn at(addr: VirtAddr) -> Option<$name> {
                match addr.0 { $($addr => Some($name::$variant),)* _ => None }
            }
        }
    };
}

stats! {
    /// Every named statistic of the reproduction's memory map. The set is a
    /// superset of Table 2's examples; each entry notes its Table 2 lineage.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Stat {
        // ---- Per-switch namespace (Table 2 row 1) ----
        /// Unique switch identifier ("Switch ID").
        SwitchId => ("Switch:SwitchID", 0x0000),
        /// Version number of the forwarding table ("flow table version
        /// number \[8\]", used by ndb).
        FlowTableVersion => ("Switch:FlowTableVersion", 0x0004),
        /// Hit counter of the global L2 table ("counters associated with
        /// the global L2 or L3 flow tables").
        L2TableHits => ("Switch:L2TableHits", 0x0008),
        /// Hit counter of the global L3 LPM table.
        L3TableHits => ("Switch:L3TableHits", 0x000c),
        /// Hit counter of the TCAM.
        TcamHits => ("Switch:TcamHits", 0x0010),
        /// Total packets processed by the pipeline.
        PacketsProcessed => ("Switch:PacketsProcessed", 0x0014),
        /// Total TPPs executed by the TCPU.
        TppsExecuted => ("Switch:TppsExecuted", 0x0018),
        /// Switch-local wall clock, nanoseconds (low 32 bits).
        WallClock => ("Switch:WallClock", 0x001c),
        /// Boot epoch: incremented every time the switch reboots and loses
        /// volatile state (SRAM, statistics). End-hosts read it to detect
        /// stale cached state after a reboot ("Millions of Little Minions"
        /// §5's fault handling).
        BootEpoch => ("Switch:BootEpoch", 0x0020),

        // ---- Per-port namespace (Table 2 row 2) ----
        /// Bytes received on the packet's egress port ("bytes received").
        RxBytes => ("Link:RX-Bytes", 0x1000),
        /// Bytes transmitted on the egress port.
        TxBytes => ("Link:TX-Bytes", 0x1004),
        /// EWMA ingress utilization of the egress link, in per-mille of
        /// capacity ("link utilization"). RCP's y(t).
        RxUtilization => ("Link:RX-Utilization", 0x1008),
        /// EWMA egress utilization of the egress link, in per-mille.
        TxUtilization => ("Link:TX-Utilization", 0x100c),
        /// Bytes dropped at the egress port ("bytes dropped").
        LinkBytesDropped => ("Link:BytesDropped", 0x1010),
        /// Bytes enqueued at the egress port ("bytes enqueued").
        LinkBytesEnqueued => ("Link:BytesEnqueued", 0x1014),
        /// Packets received on the egress port.
        RxPackets => ("Link:RX-Packets", 0x1018),
        /// Packets transmitted on the egress port.
        TxPackets => ("Link:TX-Packets", 0x101c),
        /// Link capacity in kilobits per second.
        LinkCapacityKbps => ("Link:CapacityKbps", 0x1020),
        /// Instantaneous egress queue size in bytes, as seen from the link
        /// namespace (§2.2's `[Link:QueueSize]` alias of Queue:QueueSize).
        LinkQueueSize => ("Link:QueueSize", 0x1024),
        /// Packets ECN-marked at this egress port (the §4 fixed-function
        /// comparison point).
        EcnMarked => ("Link:EcnMarked", 0x1028),
        /// Wireless channel signal-to-noise ratio in deci-dB (§2.3 "access
        /// points can annotate end-host packets with channel SNR").
        SnrDeciBel => ("Link:SnrDeciBel", 0x102c),

        // ---- Per-queue namespace (Table 2 row 3) ----
        /// Instantaneous queue occupancy in bytes, "recorded the instant
        /// the packet traversed the switch" (§2.1).
        QueueSize => ("Queue:QueueSize", 0x2000),
        /// Bytes enqueued into this queue ("bytes enqueued").
        QueueBytesEnqueued => ("Queue:BytesEnqueued", 0x2004),
        /// Bytes dropped from this queue ("bytes dropped").
        QueueBytesDropped => ("Queue:BytesDropped", 0x2008),
        /// Packets enqueued into this queue.
        QueuePacketsEnqueued => ("Queue:PacketsEnqueued", 0x200c),
        /// Packets dropped from this queue.
        QueuePacketsDropped => ("Queue:PacketsDropped", 0x2010),
        /// High-watermark of queue occupancy in bytes.
        QueueHighWatermark => ("Queue:HighWatermark", 0x2014),
        /// Configured queue limit in bytes.
        QueueLimit => ("Queue:Limit", 0x2018),

        // ---- Per-packet namespace (Table 2 row 4) ----
        /// The packet's input port ("packet's input/output port").
        InputPort => ("PacketMetadata:InputPort", 0x3000),
        /// The egress port chosen by the forwarding pipeline.
        OutputPort => ("PacketMetadata:OutputPort", 0x3004),
        /// ID of the flow entry that matched this packet ("matched flow
        /// entry \[8\]", used by ndb).
        MatchedEntryId => ("PacketMetadata:MatchedEntryID", 0x3008),
        /// Version of the matched flow entry (ndb's version stamp).
        MatchedEntryVersion => ("PacketMetadata:MatchedEntryVersion", 0x300c),
        /// The egress queue the packet was assigned to.
        QueueId => ("PacketMetadata:QueueID", 0x3010),
        /// The packet's total length in bytes.
        PacketLength => ("PacketMetadata:PacketLength", 0x3014),
        /// Arrival timestamp at this switch, nanoseconds (low 32 bits).
        ArrivalTime => ("PacketMetadata:ArrivalTime", 0x3018),
        /// Number of alternate routes the pipeline could have used
        /// ("alternate routes for a packet \[11\]").
        AlternateRoutes => ("PacketMetadata:AlternateRoutes", 0x301c),
    }
}

impl Stat {
    /// Look up a statistic by its `Namespace:Statistic` mnemonic.
    pub fn by_symbol(symbol: &str) -> Option<Stat> {
        Stat::ALL
            .iter()
            .copied()
            .find(|s| s.symbol().eq_ignore_ascii_case(symbol))
    }
}

/// The compiler's symbol table: `Namespace:Statistic` mnemonics →
/// virtual addresses.
///
/// Pre-populated with every [`Stat`]; tasks extend it with the scratch-SRAM
/// symbols the control-plane agent allocates for them (§3.2 "Multiple
/// tasks"), e.g. `Link:RCP-RateRegister`. It also resolves the indexed
/// forms `Link:Scratch[k]` and `Switch:Scratch[k]` without registration.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    symbols: BTreeMap<String, VirtAddr>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolTable {
    /// A table holding all built-in statistics.
    pub fn new() -> Self {
        let mut symbols = BTreeMap::new();
        for stat in Stat::ALL {
            symbols.insert(stat.symbol().to_ascii_lowercase(), stat.addr());
        }
        SymbolTable { symbols }
    }

    /// Register a task-allocated symbol (e.g. from `tpp-control`'s SRAM
    /// allocator). Returns the previous binding, if any.
    pub fn register(&mut self, symbol: &str, addr: VirtAddr) -> Option<VirtAddr> {
        self.symbols.insert(symbol.to_ascii_lowercase(), addr)
    }

    /// Resolve a mnemonic to a virtual address.
    ///
    /// Supports three forms: registered/built-in symbols
    /// (`Queue:QueueSize`), indexed link scratch (`Link:Scratch[k]`),
    /// indexed global scratch (`Switch:Scratch[k]`), and raw hex addresses
    /// (`0x2000`).
    pub fn resolve(&self, symbol: &str) -> Result<VirtAddr> {
        let key = symbol.to_ascii_lowercase();
        if let Some(addr) = self.symbols.get(&key) {
            return Ok(*addr);
        }
        if let Some(idx) = parse_indexed(&key, "link:scratch[") {
            let off = idx * 4;
            if off < Namespace::LinkSram.len() {
                return Ok(VirtAddr(Namespace::LinkSram.base().0 + off as u16));
            }
        }
        if let Some(idx) = parse_indexed(&key, "switch:scratch[") {
            let off = idx * 4;
            if off < Namespace::GlobalSram.len() {
                return Ok(VirtAddr(Namespace::GlobalSram.base().0 + off as u16));
            }
        }
        if let Some(hex) = key.strip_prefix("0x") {
            if let Ok(value) = u16::from_str_radix(hex, 16) {
                return Ok(VirtAddr(value));
            }
        }
        Err(IsaError::UnknownSymbol(symbol.to_string()))
    }

    /// Best-effort reverse lookup for disassembly: the mnemonic bound to
    /// `addr`, if any.
    pub fn symbol_for(&self, addr: VirtAddr) -> Option<&str> {
        self.symbols
            .iter()
            .find(|(_, a)| **a == addr)
            .map(|(s, _)| s.as_str())
    }
}

/// Parse `prefix<k>]` returning `k`.
fn parse_indexed(key: &str, prefix: &str) -> Option<usize> {
    let rest = key.strip_prefix(prefix)?;
    let inner = rest.strip_suffix(']')?;
    inner.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_partition_addresses() {
        assert_eq!(VirtAddr(0x0000).namespace(), Namespace::Switch);
        assert_eq!(VirtAddr(0x0fff).namespace(), Namespace::Switch);
        assert_eq!(VirtAddr(0x1000).namespace(), Namespace::Link);
        assert_eq!(VirtAddr(0x2000).namespace(), Namespace::Queue);
        assert_eq!(VirtAddr(0x3abc).namespace(), Namespace::PacketMetadata);
        assert_eq!(VirtAddr(0x4000).namespace(), Namespace::LinkSram);
        assert_eq!(VirtAddr(0x8000).namespace(), Namespace::GlobalSram);
        assert_eq!(VirtAddr(0xffff).namespace(), Namespace::GlobalSram);
        assert_eq!(VirtAddr(0x5000).namespace(), Namespace::Reserved);
    }

    #[test]
    fn only_sram_is_writable() {
        assert!(!Stat::QueueSize.addr().is_writable());
        assert!(!Stat::SwitchId.addr().is_writable());
        assert!(!Stat::InputPort.addr().is_writable());
        assert!(VirtAddr(0x4000).is_writable());
        assert!(VirtAddr(0x8004).is_writable());
    }

    #[test]
    fn all_stats_have_distinct_addresses_and_symbols() {
        use std::collections::HashSet;
        let addrs: HashSet<_> = Stat::ALL.iter().map(|s| s.addr()).collect();
        assert_eq!(addrs.len(), Stat::ALL.len());
        let syms: HashSet<_> = Stat::ALL.iter().map(|s| s.symbol()).collect();
        assert_eq!(syms.len(), Stat::ALL.len());
        // `at` inverts `addr` and maps nothing else.
        for raw in 0..=u16::MAX {
            let at = Stat::at(VirtAddr(raw));
            let scan = Stat::ALL.iter().copied().find(|s| s.addr().0 == raw);
            assert_eq!(at, scan, "address {raw:#06x}");
        }
        // Every stat address must live in the namespace its symbol claims.
        for stat in Stat::ALL {
            let ns = stat.addr().namespace();
            let prefix = stat.symbol().split(':').next().unwrap();
            match prefix {
                "Switch" => assert_eq!(ns, Namespace::Switch),
                "Link" => assert_eq!(ns, Namespace::Link),
                "Queue" => assert_eq!(ns, Namespace::Queue),
                "PacketMetadata" => assert_eq!(ns, Namespace::PacketMetadata),
                other => panic!("unexpected namespace prefix {other}"),
            }
        }
    }

    #[test]
    fn table2_statistics_present() {
        // The examples Table 2 lists must all resolve.
        for symbol in [
            "Switch:SwitchID",
            "Switch:FlowTableVersion",
            "Link:RX-Utilization",
            "Link:RX-Bytes",
            "Link:BytesDropped",
            "Link:BytesEnqueued",
            "Queue:BytesEnqueued",
            "Queue:BytesDropped",
            "PacketMetadata:InputPort",
            "PacketMetadata:OutputPort",
            "PacketMetadata:MatchedEntryID",
            "PacketMetadata:AlternateRoutes",
        ] {
            assert!(Stat::by_symbol(symbol).is_some(), "missing {symbol}");
        }
    }

    #[test]
    fn symbol_table_resolution() {
        let mut table = SymbolTable::new();
        assert_eq!(
            table.resolve("Queue:QueueSize").unwrap(),
            Stat::QueueSize.addr()
        );
        // Case-insensitive, as assemblers usually are.
        assert_eq!(
            table.resolve("queue:queuesize").unwrap(),
            Stat::QueueSize.addr()
        );
        // Indexed scratch forms.
        assert_eq!(table.resolve("Link:Scratch[0]").unwrap(), VirtAddr(0x4000));
        assert_eq!(table.resolve("Link:Scratch[3]").unwrap(), VirtAddr(0x400c));
        assert_eq!(
            table.resolve("Switch:Scratch[2]").unwrap(),
            VirtAddr(0x8008)
        );
        // Raw hex.
        assert_eq!(table.resolve("0x2000").unwrap(), VirtAddr(0x2000));
        // Task registration, e.g. by the control-plane RCP allocator.
        assert!(table.resolve("Link:RCP-RateRegister").is_err());
        table.register("Link:RCP-RateRegister", VirtAddr(0x4000));
        assert_eq!(
            table.resolve("Link:RCP-RateRegister").unwrap(),
            VirtAddr(0x4000)
        );
        assert_eq!(table.symbol_for(VirtAddr(0x2000)), Some("queue:queuesize"));
    }

    #[test]
    fn scratch_index_out_of_range_rejected() {
        let table = SymbolTable::new();
        assert!(table.resolve("Link:Scratch[1024]").is_err());
    }
}

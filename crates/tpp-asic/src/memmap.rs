//! The unified memory-mapped IO interface of §3.2.1.
//!
//! "A TPP has access to any switch statistic tracked by the ASIC. ...
//! These statistics reside in different memory banks, but providing a
//! unified address space makes them available to TPPs."
//!
//! [`Mmu`] is that address space, assembled *per packet*: it borrows the
//! global registers, the statistics banks of the packet's **egress** port
//! and queue, the per-packet metadata the pipeline produced, and the two
//! writable scratch SRAMs. Context-relative resolution is what makes one
//! address mean "the queue size on the link the packet will be sent out"
//! (§2) on every switch.
//!
//! Permission model (§4): statistics and metadata are read-only; only the
//! scratch SRAM namespaces accept STOREs. "The memory map isolates
//! critical forwarding state from state modifiable by TPPs."

use crate::stats::{PortStats, QueueStats, SwitchRegs};
use crate::tables::PortId;
use tpp_isa::{Namespace, Stat, VirtAddr};

/// An egress queue index on a port.
pub type QueueId = u8;

/// Per-packet metadata produced by the forwarding pipeline, backing the
/// `PacketMetadata` namespace (Table 2 row 4).
///
/// "In its registers, the ASIC keeps metadata such as input port, the
/// selected route, etc. for every packet" (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Ingress port (`PacketMetadata:InputPort`).
    pub input_port: PortId,
    /// Egress port chosen by the pipeline (`PacketMetadata:OutputPort`).
    pub output_port: PortId,
    /// Matched flow entry id, 0 if the TCAM missed
    /// (`PacketMetadata:MatchedEntryID`).
    pub matched_entry_id: u32,
    /// Matched flow entry version (`PacketMetadata:MatchedEntryVersion`).
    pub matched_entry_version: u32,
    /// Egress queue (`PacketMetadata:QueueID`).
    pub queue_id: QueueId,
    /// Frame length in bytes (`PacketMetadata:PacketLength`).
    pub packet_length: u32,
    /// Arrival time at this switch, ns (`PacketMetadata:ArrivalTime`).
    pub arrival_time_ns: u64,
    /// Route diversity indicator (`PacketMetadata:AlternateRoutes`).
    pub alternate_routes: u32,
}

/// A fault raised by the MMU on an illegal access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuFault {
    /// The address maps to no register or SRAM cell.
    Unmapped(VirtAddr),
    /// A write targeted a read-only namespace.
    ReadOnly(VirtAddr),
    /// The address falls in SRAM but past the configured size.
    OutOfRange(VirtAddr),
}

impl core::fmt::Display for MmuFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MmuFault::Unmapped(a) => write!(f, "unmapped address {a}"),
            MmuFault::ReadOnly(a) => write!(f, "write to read-only address {a}"),
            MmuFault::OutOfRange(a) => write!(f, "SRAM address {a} out of range"),
        }
    }
}

/// The per-packet view of switch memory the TCPU executes against.
///
/// Counters wider than 32 bits expose their wrapping low 32 bits, like
/// real ASIC/SNMP counters; end-hosts that need full width read twice and
/// reconcile (or use deltas, as all the paper's tasks do).
#[derive(Debug)]
pub struct Mmu<'a> {
    /// Global switch registers.
    pub switch: &'a SwitchRegs,
    /// Egress-port statistics bank.
    pub port: &'a PortStats,
    /// Egress link capacity (backs `Link:CapacityKbps`).
    pub port_capacity_kbps: u32,
    /// Egress-queue statistics bank.
    pub queue: &'a QueueStats,
    /// Egress queue byte limit (backs `Queue:Limit`).
    pub queue_limit_bytes: u32,
    /// This packet's metadata.
    pub meta: &'a PacketMeta,
    /// Writable per-link scratch SRAM of the egress port.
    pub link_sram: &'a mut [u32],
    /// Writable global scratch SRAM.
    pub global_sram: &'a mut [u32],
}

/// A switch-side operand resolved once, at decode: what an address
/// names. [`Reg::of`] is the whole memory map, so an access costs one
/// `match` in [`Mmu::read_reg`] / [`Mmu::write_reg`]. The address is kept
/// beside the `Reg`: it indexes SRAM and names the address in a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reg {
    /// A named statistic (read-only).
    Stat(Stat),
    /// The egress port's scratch SRAM.
    LinkSram,
    /// The global scratch SRAM.
    GlobalSram,
    /// A hole inside a statistics namespace: reads are `Unmapped`, writes
    /// `ReadOnly`.
    StatHole,
    /// The reserved range between namespaces: `Unmapped` both ways.
    Unmapped,
}

impl Reg {
    /// The register `addr` names.
    pub fn of(addr: VirtAddr) -> Reg {
        match addr.namespace() {
            Namespace::LinkSram => Reg::LinkSram,
            Namespace::GlobalSram => Reg::GlobalSram,
            Namespace::Reserved => Reg::Unmapped,
            Namespace::Switch | Namespace::Link | Namespace::Queue | Namespace::PacketMetadata => {
                Stat::at(addr).map_or(Reg::StatHole, Reg::Stat)
            }
        }
    }
}

impl<'a> Mmu<'a> {
    /// Read the 32-bit word at a virtual address.
    pub fn read(&self, addr: VirtAddr) -> Result<u32, MmuFault> {
        self.read_reg(Reg::of(addr), addr)
    }

    /// Write the 32-bit word at a virtual address. Only the scratch SRAM
    /// namespaces are writable.
    pub fn write(&mut self, addr: VirtAddr, value: u32) -> Result<(), MmuFault> {
        self.write_reg(Reg::of(addr), addr, value)
    }

    /// Read `reg`, which [`Reg::of`] resolved from `addr`.
    pub fn read_reg(&self, reg: Reg, addr: VirtAddr) -> Result<u32, MmuFault> {
        let (s, p, q, m) = (self.switch, self.port, self.queue, self.meta);
        Ok(match reg {
            Reg::Stat(Stat::SwitchId) => s.switch_id,
            Reg::Stat(Stat::FlowTableVersion) => s.flow_table_version,
            Reg::Stat(Stat::L2TableHits) => s.l2_hits as u32,
            Reg::Stat(Stat::L3TableHits) => s.l3_hits as u32,
            Reg::Stat(Stat::TcamHits) => s.tcam_hits as u32,
            Reg::Stat(Stat::PacketsProcessed) => s.packets_processed as u32,
            Reg::Stat(Stat::TppsExecuted) => s.tpps_executed as u32,
            Reg::Stat(Stat::WallClock) => s.wall_clock_ns as u32,
            Reg::Stat(Stat::BootEpoch) => s.boot_epoch,
            Reg::Stat(Stat::RxBytes) => p.rx_bytes as u32,
            Reg::Stat(Stat::TxBytes) => p.tx_bytes as u32,
            Reg::Stat(Stat::RxUtilization) => p.rx_utilization_permille,
            Reg::Stat(Stat::TxUtilization) => p.tx_utilization_permille,
            Reg::Stat(Stat::LinkBytesDropped) => p.bytes_dropped as u32,
            Reg::Stat(Stat::LinkBytesEnqueued) => p.bytes_enqueued as u32,
            Reg::Stat(Stat::RxPackets) => p.rx_packets as u32,
            Reg::Stat(Stat::TxPackets) => p.tx_packets as u32,
            Reg::Stat(Stat::LinkCapacityKbps) => self.port_capacity_kbps,
            Reg::Stat(Stat::LinkQueueSize) => q.queue_size_bytes as u32,
            Reg::Stat(Stat::EcnMarked) => p.ecn_marked as u32,
            Reg::Stat(Stat::SnrDeciBel) => p.snr_decidb,
            Reg::Stat(Stat::QueueSize) => q.queue_size_bytes as u32,
            Reg::Stat(Stat::QueueBytesEnqueued) => q.bytes_enqueued as u32,
            Reg::Stat(Stat::QueueBytesDropped) => q.bytes_dropped as u32,
            Reg::Stat(Stat::QueuePacketsEnqueued) => q.packets_enqueued as u32,
            Reg::Stat(Stat::QueuePacketsDropped) => q.packets_dropped as u32,
            Reg::Stat(Stat::QueueHighWatermark) => q.high_watermark_bytes as u32,
            Reg::Stat(Stat::QueueLimit) => self.queue_limit_bytes,
            Reg::Stat(Stat::InputPort) => m.input_port as u32,
            Reg::Stat(Stat::OutputPort) => m.output_port as u32,
            Reg::Stat(Stat::MatchedEntryId) => m.matched_entry_id,
            Reg::Stat(Stat::MatchedEntryVersion) => m.matched_entry_version,
            Reg::Stat(Stat::QueueId) => m.queue_id as u32,
            Reg::Stat(Stat::PacketLength) => m.packet_length,
            Reg::Stat(Stat::ArrivalTime) => m.arrival_time_ns as u32,
            Reg::Stat(Stat::AlternateRoutes) => m.alternate_routes,
            Reg::LinkSram => return sram_word(self.link_sram, addr),
            Reg::GlobalSram => return sram_word(self.global_sram, addr),
            Reg::StatHole | Reg::Unmapped => return Err(MmuFault::Unmapped(addr)),
        })
    }

    /// Write `reg`, which [`Reg::of`] resolved from `addr`. Only scratch
    /// SRAM words are writable.
    pub fn write_reg(&mut self, reg: Reg, addr: VirtAddr, value: u32) -> Result<(), MmuFault> {
        let cell = match reg {
            Reg::LinkSram => self.link_sram.get_mut(addr.word_index()),
            Reg::GlobalSram => self.global_sram.get_mut(addr.word_index()),
            Reg::Stat(_) | Reg::StatHole => return Err(MmuFault::ReadOnly(addr)),
            Reg::Unmapped => return Err(MmuFault::Unmapped(addr)),
        };
        *cell.ok_or(MmuFault::OutOfRange(addr))? = value;
        Ok(())
    }
}

fn sram_word(sram: &[u32], addr: VirtAddr) -> Result<u32, MmuFault> {
    sram.get(addr.word_index())
        .copied()
        .ok_or(MmuFault::OutOfRange(addr))
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::drop_non_drop)]
mod tests {
    use super::*;

    fn meta() -> PacketMeta {
        PacketMeta {
            input_port: 2,
            output_port: 5,
            matched_entry_id: 42,
            matched_entry_version: 7,
            queue_id: 1,
            packet_length: 1500,
            arrival_time_ns: 0x1_0000_0001,
            alternate_routes: 3,
        }
    }

    struct Banks {
        switch: SwitchRegs,
        port: PortStats,
        queue: QueueStats,
        meta: PacketMeta,
        link_sram: Vec<u32>,
        global_sram: Vec<u32>,
    }

    fn banks() -> Banks {
        let mut switch = SwitchRegs::new(11);
        switch.flow_table_version = 9;
        switch.packets_processed = 0x2_0000_0005; // exercises wrap
        let mut port = PortStats::default();
        port.rx_bytes = 1000;
        port.rx_utilization_permille = 750;
        let mut queue = QueueStats::default();
        queue.queue_size_bytes = 4096;
        queue.bytes_dropped = 64;
        Banks {
            switch,
            port,
            queue,
            meta: meta(),
            link_sram: vec![0; 16],
            global_sram: vec![0; 16],
        }
    }

    fn mmu(b: &mut Banks) -> Mmu<'_> {
        Mmu {
            switch: &b.switch,
            port: &b.port,
            port_capacity_kbps: 10_000,
            queue: &b.queue,
            queue_limit_bytes: 64_000,
            meta: &b.meta,
            link_sram: &mut b.link_sram,
            global_sram: &mut b.global_sram,
        }
    }

    #[test]
    fn every_defined_stat_is_readable() {
        let mut b = banks();
        let m = mmu(&mut b);
        for stat in Stat::ALL {
            assert!(m.read(stat.addr()).is_ok(), "unreadable {}", stat.symbol());
        }
    }

    #[test]
    fn reads_reflect_bank_values() {
        let mut b = banks();
        let m = mmu(&mut b);
        assert_eq!(m.read(Stat::SwitchId.addr()).unwrap(), 11);
        assert_eq!(m.read(Stat::FlowTableVersion.addr()).unwrap(), 9);
        assert_eq!(m.read(Stat::QueueSize.addr()).unwrap(), 4096);
        assert_eq!(m.read(Stat::LinkQueueSize.addr()).unwrap(), 4096);
        assert_eq!(m.read(Stat::RxUtilization.addr()).unwrap(), 750);
        assert_eq!(m.read(Stat::LinkCapacityKbps.addr()).unwrap(), 10_000);
        assert_eq!(m.read(Stat::QueueLimit.addr()).unwrap(), 64_000);
        assert_eq!(m.read(Stat::InputPort.addr()).unwrap(), 2);
        assert_eq!(m.read(Stat::OutputPort.addr()).unwrap(), 5);
        assert_eq!(m.read(Stat::MatchedEntryId.addr()).unwrap(), 42);
        assert_eq!(m.read(Stat::PacketLength.addr()).unwrap(), 1500);
        assert_eq!(m.read(Stat::AlternateRoutes.addr()).unwrap(), 3);
    }

    #[test]
    fn wide_counters_expose_wrapping_low_bits() {
        let mut b = banks();
        let m = mmu(&mut b);
        // packets_processed = 0x2_0000_0005 -> low 32 bits = 5.
        assert_eq!(m.read(Stat::PacketsProcessed.addr()).unwrap(), 5);
        // arrival_time_ns = 0x1_0000_0001 -> low 32 bits = 1.
        assert_eq!(m.read(Stat::ArrivalTime.addr()).unwrap(), 1);
    }

    #[test]
    fn sram_read_write_roundtrip() {
        let mut b = banks();
        let mut m = mmu(&mut b);
        let link = VirtAddr(0x4004);
        let global = VirtAddr(0x8008);
        m.write(link, 0xaaaa_bbbb).unwrap();
        m.write(global, 0xcccc_dddd).unwrap();
        assert_eq!(m.read(link).unwrap(), 0xaaaa_bbbb);
        assert_eq!(m.read(global).unwrap(), 0xcccc_dddd);
        drop(m);
        assert_eq!(b.link_sram[1], 0xaaaa_bbbb);
        assert_eq!(b.global_sram[2], 0xcccc_dddd);
    }

    #[test]
    fn statistics_are_read_only() {
        let mut b = banks();
        let mut m = mmu(&mut b);
        for addr in [
            Stat::SwitchId.addr(),
            Stat::QueueSize.addr(),
            Stat::RxUtilization.addr(),
            Stat::InputPort.addr(),
        ] {
            assert_eq!(m.write(addr, 1), Err(MmuFault::ReadOnly(addr)));
        }
    }

    #[test]
    fn reg_of_resolves_every_shape() {
        let cap = Stat::LinkCapacityKbps;
        assert_eq!(Reg::of(cap.addr()), Reg::Stat(cap));
        let (hole, reserved, sram) = (VirtAddr(0x0ffc), VirtAddr(0x5000), VirtAddr(0x8006));
        assert_eq!(Reg::of(hole), Reg::StatHole);
        assert_eq!(Reg::of(reserved), Reg::Unmapped);
        assert_eq!(Reg::of(sram), Reg::GlobalSram);
        let mut b = banks();
        let mut m = mmu(&mut b);
        assert_eq!(m.write(hole, 1), Err(MmuFault::ReadOnly(hole)));
        assert_eq!(m.write(reserved, 1), Err(MmuFault::Unmapped(reserved)));
        // An unaligned SRAM address names the word it falls in.
        m.write(sram, 5).unwrap();
        assert_eq!(m.read(VirtAddr(0x8004)), Ok(5));
    }

    #[test]
    fn unmapped_and_out_of_range_fault() {
        let mut b = banks();
        let mut m = mmu(&mut b);
        // Hole between defined stats inside a namespace.
        assert!(matches!(
            m.read(VirtAddr(0x0ffc)),
            Err(MmuFault::Unmapped(_))
        ));
        // Reserved hole between namespaces.
        assert!(matches!(
            m.read(VirtAddr(0x5000)),
            Err(MmuFault::Unmapped(_))
        ));
        // SRAM past the configured 16 words.
        assert!(matches!(
            m.read(VirtAddr(0x4000 + 16 * 4)),
            Err(MmuFault::OutOfRange(_))
        ));
        assert!(matches!(
            m.write(VirtAddr(0x8000 + 16 * 4), 0),
            Err(MmuFault::OutOfRange(_))
        ));
    }
}

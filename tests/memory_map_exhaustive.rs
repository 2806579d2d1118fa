//! The memory map, exhaustively: for all 65,536 virtual addresses the
//! register the TCPU resolves at decode (`Reg::of`) and accesses through
//! `Mmu::read_reg` / `write_reg` must agree with `tpp-spec`'s
//! `SpecState::read` / `write` — the same value or fault kind on a read,
//! the same fault kind and the same SRAM effect on a write.
//!
//! Every register and SRAM word holds a distinct seeded value (wide
//! counters carry high bits too, so narrowing is checked), so a register
//! resolved to its neighbour, or to the same field of another bank,
//! cannot pass.

use tpp_asic::{Mmu, MmuFault, PacketMeta, PortStats, QueueStats, Reg, SwitchRegs};
use tpp_isa::VirtAddr;
use tpp_spec::{LinkBank, MetaBank, QueueBank, SpecFault, SpecState, SwitchBank};

/// A stream of distinct values whose low 32 bits are distinct too.
struct Values {
    state: u64,
    seen: std::collections::HashSet<u32>,
}

impl Values {
    fn next(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if self.seen.insert(z as u32) {
                return z;
            }
        }
    }

    /// A distinct value that fits `bits` bits (a narrow register field).
    fn narrow(&mut self, bits: u32) -> u64 {
        loop {
            let v = self.next() & ((1 << bits) - 1);
            if v != 0 {
                return v;
            }
        }
    }
}

fn seeded_spec() -> SpecState {
    let mut v = Values {
        state: 0x0074_7070_5f6d_6d75,
        seen: Default::default(),
    };
    SpecState {
        switch: SwitchBank {
            switch_id: v.next() as u32,
            flow_table_version: v.next() as u32,
            l2_hits: v.next(),
            l3_hits: v.next(),
            tcam_hits: v.next(),
            packets_processed: v.next(),
            tpps_executed: v.next(),
            wall_clock_ns: v.next(),
            boot_epoch: v.next() as u32,
        },
        link: LinkBank {
            rx_bytes: v.next(),
            tx_bytes: v.next(),
            rx_utilization_permille: v.next() as u32,
            tx_utilization_permille: v.next() as u32,
            bytes_dropped: v.next(),
            bytes_enqueued: v.next(),
            rx_packets: v.next(),
            tx_packets: v.next(),
            capacity_kbps: v.next() as u32,
            ecn_marked: v.next(),
            snr_decidb: v.next() as u32,
        },
        queue: QueueBank {
            queue_size_bytes: v.next(),
            bytes_enqueued: v.next(),
            bytes_dropped: v.next(),
            packets_enqueued: v.next(),
            packets_dropped: v.next(),
            high_watermark_bytes: v.next(),
            limit_bytes: v.next() as u32,
        },
        // The ASIC keeps ports in 16 bits and the queue id in 8.
        meta: MetaBank {
            input_port: v.narrow(16) as u32,
            output_port: v.narrow(16) as u32,
            matched_entry_id: v.next() as u32,
            matched_entry_version: v.next() as u32,
            queue_id: v.narrow(8) as u32,
            packet_length: v.next() as u32,
            arrival_time_ns: v.next(),
            alternate_routes: v.next() as u32,
        },
        link_sram: (0..16).map(|_| v.next() as u32).collect(),
        global_sram: (0..32).map(|_| v.next() as u32).collect(),
    }
}

/// The ASIC's banks, holding the same values as `spec`.
struct Banks {
    switch: SwitchRegs,
    port: PortStats,
    queue: QueueStats,
    meta: PacketMeta,
    link_sram: Vec<u32>,
    global_sram: Vec<u32>,
}

#[allow(clippy::field_reassign_with_default)] // PortStats has private fields
fn banks_like(spec: &SpecState) -> Banks {
    let (s, l, q, m) = (&spec.switch, &spec.link, &spec.queue, &spec.meta);
    let mut switch = SwitchRegs::new(s.switch_id);
    switch.flow_table_version = s.flow_table_version;
    switch.l2_hits = s.l2_hits;
    switch.l3_hits = s.l3_hits;
    switch.tcam_hits = s.tcam_hits;
    switch.packets_processed = s.packets_processed;
    switch.tpps_executed = s.tpps_executed;
    switch.wall_clock_ns = s.wall_clock_ns;
    switch.boot_epoch = s.boot_epoch;
    let mut port = PortStats::default();
    port.rx_bytes = l.rx_bytes;
    port.rx_packets = l.rx_packets;
    port.tx_bytes = l.tx_bytes;
    port.tx_packets = l.tx_packets;
    port.bytes_dropped = l.bytes_dropped;
    port.bytes_enqueued = l.bytes_enqueued;
    port.ecn_marked = l.ecn_marked;
    port.snr_decidb = l.snr_decidb;
    port.rx_utilization_permille = l.rx_utilization_permille;
    port.tx_utilization_permille = l.tx_utilization_permille;
    Banks {
        switch,
        port,
        queue: QueueStats {
            queue_size_bytes: q.queue_size_bytes,
            bytes_enqueued: q.bytes_enqueued,
            bytes_dropped: q.bytes_dropped,
            packets_enqueued: q.packets_enqueued,
            packets_dropped: q.packets_dropped,
            high_watermark_bytes: q.high_watermark_bytes,
        },
        meta: PacketMeta {
            input_port: m.input_port as u16,
            output_port: m.output_port as u16,
            matched_entry_id: m.matched_entry_id,
            matched_entry_version: m.matched_entry_version,
            queue_id: m.queue_id as u8,
            packet_length: m.packet_length,
            arrival_time_ns: m.arrival_time_ns,
            alternate_routes: m.alternate_routes,
        },
        link_sram: spec.link_sram.clone(),
        global_sram: spec.global_sram.clone(),
    }
}

fn mmu<'a>(b: &'a mut Banks, spec: &SpecState) -> Mmu<'a> {
    Mmu {
        switch: &b.switch,
        port: &b.port,
        port_capacity_kbps: spec.link.capacity_kbps,
        queue: &b.queue,
        queue_limit_bytes: spec.queue.limit_bytes,
        meta: &b.meta,
        link_sram: &mut b.link_sram,
        global_sram: &mut b.global_sram,
    }
}

/// A fault as (kind, address), comparable across the two taxonomies.
fn asic_fault(f: MmuFault) -> (&'static str, VirtAddr) {
    match f {
        MmuFault::Unmapped(a) => ("unmapped", a),
        MmuFault::ReadOnly(a) => ("read_only", a),
        MmuFault::OutOfRange(a) => ("out_of_range", a),
    }
}

fn spec_fault(f: SpecFault) -> (&'static str, VirtAddr) {
    match f {
        SpecFault::Unmapped(a) => ("unmapped", a),
        SpecFault::ReadOnly(a) => ("read_only", a),
        SpecFault::OutOfRange(a) => ("out_of_range", a),
    }
}

#[test]
fn every_address_resolves_like_the_reference() {
    let spec0 = seeded_spec();
    let mut banks = banks_like(&spec0);
    let mut reads = 0;
    for raw in 0..=u16::MAX {
        let addr = VirtAddr(raw);
        let reg = Reg::of(addr);
        let asic = mmu(&mut banks, &spec0)
            .read_reg(reg, addr)
            .map_err(asic_fault);
        let spec = spec0.read(addr).map_err(spec_fault);
        assert_eq!(asic, spec, "read {addr} via {reg:?}");
        reads += asic.is_ok() as u32;

        // Write an address-tagged value, compare the fault and both SRAMs,
        // then restore them for the next address.
        let value = 0xdead_0000 | raw as u32;
        let asic = mmu(&mut banks, &spec0)
            .write_reg(reg, addr, value)
            .map_err(asic_fault);
        let mut spec = spec0.clone();
        let expect = spec.write(addr, value).map_err(spec_fault);
        assert_eq!(asic, expect, "write {addr} via {reg:?}");
        assert_eq!(
            banks.link_sram, spec.link_sram,
            "link SRAM after writing {addr}"
        );
        assert_eq!(
            banks.global_sram, spec.global_sram,
            "global SRAM after writing {addr}"
        );
        banks.link_sram.clone_from(&spec0.link_sram);
        banks.global_sram.clone_from(&spec0.global_sram);
    }
    // 36 statistics, and four byte addresses per provisioned SRAM word.
    assert_eq!(reads, 36 + 4 * (16 + 32));
}

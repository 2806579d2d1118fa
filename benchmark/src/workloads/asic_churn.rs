//! `asic_churn` — no netsim: one populated `Asic` (256 TCAM, 1,024 L2,
//! 256 L3 entries, 4 ports) driven by one caller.
//!
//! The harness is the event loop. Frames arrive open loop on a seeded
//! Poisson schedule at 60 % of the egress capacity; each goes through
//! `handle_frame`, and every egress port drains through `dequeue` at its
//! line rate, so a frame's simulated latency is arrival → last bit on
//! the wire. Every 256 frames one `install_flow`/`remove_flow` pair and
//! one `l2_mut().insert` bump the table generation.
//!
//! The corpus is cache-hostile on purpose: 1,024 distinct valid TPP
//! programs (16× the 64 decode-cache slots; STORE and CSTORE write
//! SRAM) and 8,192 flow keys (8× the 1,024-entry flow cache), drawn
//! uniformly; 70 % of frames carry a TPP; sizes in three bands, 64–127,
//! 512–575 and 1437–1500 B (a TPP frame is never shorter than its own
//! section). Buffers are recycled by the harness, so allocations come
//! from the ASIC alone.

use std::collections::{BTreeSet, VecDeque};

use tpp_asic::{Asic, AsicConfig, FlowAction, FlowEntry, FlowMatch, Outcome};
use tpp_bench::traffic::{splitmix64, Rng64};
use tpp_isa::assemble;
use tpp_wire::ethernet::{build_frame, EtherType, ETHERNET_HEADER_LEN};
use tpp_wire::{AddressingMode, EthernetAddress, TppBuilder};

use super::{gate, scaled, Corpus, Layers, PassClock, PassOutput, PassParams, SimStats};
use crate::stats::{Counts, FlatCounts};
use crate::trace::SpanLog;

const FRAMES: u64 = 8_000_000;
const PORTS: usize = 4;
const PROGRAMS: usize = 1024;
const L2_HOSTS: u32 = 1024;
const SOURCES: u32 = 8;
/// Largest frame of each size band: minimum-size, mid and MTU frames.
/// A frame is up to `SIZE_JITTER - 1` bytes shorter than its band's top
/// (64–127, 512–575, 1437–1500 B), which keeps the latency distribution
/// continuous, so that its percentiles move with the seed.
const SIZES: [usize; 3] = [127, 575, 1500];
const SIZE_JITTER: u64 = 64;
const TPP_PERCENT: u64 = 70;
const WRITE_EVERY: u64 = 256;
/// Mean gap between arrivals, ns: the mean frame (~700 B) serializes in
/// ~560 ns on one of four 10 Gb/s ports, offered at 60 % of that.
const MEAN_GAP_NS: f64 = 232.0;
const CORPUS_FRAMES: usize = 512;

/// An ASIC at ACL scale: 256 TCAM entries (the rule-set sizes that
/// motivated OVS's megaflow cache), 1k L2 MACs, 256 L3 prefixes.
pub fn populated_asic() -> Asic {
    let mut asic = Asic::new(AsicConfig::with_ports(1, PORTS));
    for i in 0..256 {
        asic.install_flow(FlowEntry {
            id: 1000 + i,
            version: 1,
            priority: i as u16,
            pattern: FlowMatch {
                ethertype: Some(0x9999), // never matches the traffic
                in_port: Some((i % PORTS as u32) as u16),
                ..Default::default()
            },
            action: FlowAction::Forward(2),
        });
    }
    for i in 0..L2_HOSTS {
        asic.l2_mut().insert(dst_mac(i), (i % PORTS as u32) as u16);
    }
    for i in 0..256u32 {
        asic.l3_mut()
            .insert(0x0a00_0000 | (i << 8), 24, (i % PORTS as u32) as u16);
    }
    asic
}

fn dst_mac(i: u32) -> EthernetAddress {
    EthernetAddress::from_host_id(100 + i)
}

fn src_mac(s: u32) -> EthernetAddress {
    EthernetAddress::from_host_id(2000 + s)
}

/// `PROGRAMS` distinct valid programs of 4–10 instructions: statistics
/// reads, scratch reads, and STORE/CSTORE writes to scratch SRAM.
fn programs(rng: &mut Rng64) -> Vec<Vec<u32>> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(PROGRAMS);
    while out.len() < PROGRAMS {
        let n = 4 + rng.next_below(7);
        let mut source = String::new();
        for _ in 0..n {
            let k = rng.next_below(64);
            let j = rng.next_below(4);
            source.push_str(&match rng.next_below(8) {
                0 => "PUSH [Switch:SwitchID]\n".to_string(),
                1 => "PUSH [Queue:QueueSize]\n".to_string(),
                2 => "PUSH [Link:RX-Bytes]\n".to_string(),
                3 => "PUSH [Link:CapacityKbps]\n".to_string(),
                4 => format!("PUSH [Link:Scratch[{k}]]\n"),
                5 => format!("PUSH [Switch:Scratch[{k}]]\n"),
                6 => format!("STORE [Switch:Scratch[{k}]], [Packet:{j}]\n"),
                _ => format!("CSTORE [Link:Scratch[{k}]], [Packet:{j}]\n"),
            });
        }
        let words = assemble(&source)
            .and_then(|p| p.encode_words())
            .expect("generated programs are valid");
        if seen.insert(words.clone()) {
            out.push(words);
        }
    }
    out
}

/// Frame templates at the top of each size band: `tpp[program][size]`
/// and `plain[size]`. Addresses are patched and the padding trimmed per
/// frame; `tpp_min[program]` is the length of a TPP frame with no padding
/// left, below which it is never trimmed.
struct Templates {
    tpp: Vec<[Vec<u8>; 3]>,
    tpp_min: Vec<usize>,
    plain: [Vec<u8>; 3],
}

fn templates(programs: &[Vec<u32>]) -> Templates {
    let frame = |ethertype, payload: &[u8]| build_frame(dst_mac(0), src_mac(0), ethertype, payload);
    let section = |words: &[u32], pad: usize| {
        TppBuilder::new(AddressingMode::Stack)
            .instructions(words)
            .memory_words(12)
            .payload(&vec![0u8; pad])
            .build()
    };
    let tpp_min: Vec<usize> = programs
        .iter()
        .map(|words| ETHERNET_HEADER_LEN + section(words, 0).len())
        .collect();
    let tpp = programs
        .iter()
        .zip(&tpp_min)
        .map(|(words, bare)| {
            SIZES.map(|size| frame(EtherType::TPP, &section(words, size.saturating_sub(*bare))))
        })
        .collect();
    let plain = SIZES.map(|size| frame(EtherType(0x0802), &vec![0u8; size - ETHERNET_HEADER_LEN]));
    Templates {
        tpp,
        tpp_min,
        plain,
    }
}

/// `-ln(u)` at 4,096 evenly spaced `u`: exponential gaps by table lookup,
/// so the arrival generator costs a few ns inside the timed region.
fn exp_table() -> Vec<f64> {
    (0..4096)
        .map(|i| -((i as f64 + 0.5) / 4096.0).ln())
        .collect()
}

/// The ASIC, its four draining egress links, and the running totals.
struct Bench {
    asic: Asic,
    rng: Rng64,
    templates: Templates,
    gaps: Vec<f64>,
    /// Recycled frame buffers.
    pool: Vec<Vec<u8>>,
    now_ns: u64,
    /// When each egress link finishes its current frame.
    free_at: [u64; PORTS],
    /// Arrival times of the frames queued on each port, FIFO.
    pending: [VecDeque<u64>; PORTS],
    ns_per_byte_x1000: [u64; PORTS],
    lat: FlatCounts,
    offered: u64,
    enqueued: u64,
    dropped: u64,
    dequeued: u64,
    bytes_out: u64,
    writes: u64,
    last_departure_ns: u64,
    corpus: Option<Vec<Vec<u8>>>,
}

impl Bench {
    /// Serve every departure that starts at or before `t`.
    fn drain_until(&mut self, t: u64) {
        for port in 0..PORTS {
            while let Some(&arrived) = self.pending[port].front() {
                let start = self.free_at[port].max(arrived);
                if start > t {
                    break;
                }
                let frame = self
                    .asic
                    .dequeue(port as u16)
                    .expect("a pending arrival has a queued frame");
                let done = start + frame.len() as u64 * self.ns_per_byte_x1000[port] / 1000;
                self.free_at[port] = done;
                self.last_departure_ns = self.last_departure_ns.max(done);
                self.lat.add(done - arrived);
                self.pending[port].pop_front();
                self.dequeued += 1;
                self.bytes_out += (frame.len() - ETHERNET_HEADER_LEN) as u64;
                self.pool.push(frame);
            }
        }
    }

    /// Offer `count` frames (and the table writes that fall among them).
    fn offer(&mut self, count: u64) {
        for _ in 0..count {
            let draw = self.rng.next_u64();
            self.now_ns += (MEAN_GAP_NS * self.gaps[(draw >> 52) as usize]) as u64;
            self.drain_until(self.now_ns);

            let size = (draw % 3) as usize;
            let (template, min_len) = if (draw >> 8) % 100 < TPP_PERCENT {
                let program = (draw >> 16) as usize % PROGRAMS;
                (
                    &self.templates.tpp[program][size],
                    self.templates.tpp_min[program],
                )
            } else {
                (&self.templates.plain[size], ETHERNET_HEADER_LEN)
            };
            let len = (template.len() - (draw >> 44) as usize % SIZE_JITTER as usize).max(min_len);
            let dst = (draw >> 28) as u32 % L2_HOSTS;
            let src = (draw >> 40) as u32 % SOURCES;
            let mut frame = self.pool.pop().unwrap_or_default();
            frame.clear();
            frame.extend_from_slice(&template[..len]);
            frame[..6].copy_from_slice(&dst_mac(dst).0);
            frame[6..12].copy_from_slice(&src_mac(src).0);
            if let Some(corpus) = self.corpus.as_mut() {
                if self.offered.is_multiple_of(1024) && corpus.len() < CORPUS_FRAMES {
                    corpus.push(frame.clone());
                }
            }

            self.offered += 1;
            match self
                .asic
                .handle_frame(frame, (src % PORTS as u32) as u16, self.now_ns)
            {
                Outcome::Enqueued { port, .. } => {
                    self.enqueued += 1;
                    self.pending[port as usize].push_back(self.now_ns);
                }
                _ => self.dropped += 1,
            }

            if self.offered.is_multiple_of(WRITE_EVERY) {
                // Replace one TCAM entry and rewrite one L2 entry: the
                // forwarding outcome is unchanged, the generation is not.
                let n = (self.offered / WRITE_EVERY) as u32;
                self.asic.install_flow(FlowEntry {
                    id: 5000 + n,
                    version: 1,
                    priority: 300,
                    pattern: FlowMatch {
                        ethertype: Some(0x9999),
                        in_port: Some((n % PORTS as u32) as u16),
                        ..Default::default()
                    },
                    action: FlowAction::Forward(2),
                });
                self.asic.remove_flow(5000 + n - 1);
                let i = n % L2_HOSTS;
                self.asic
                    .l2_mut()
                    .insert(dst_mac(i), (i % PORTS as u32) as u16);
                self.writes += 3;
            }
        }
    }
}

/// One pass.
pub fn run(p: &PassParams, traced: bool) -> Result<(PassOutput, SpanLog, Corpus), String> {
    let mut clock = PassClock::start();
    let frames = scaled(FRAMES, p.scale, 2048);
    let mut bench = clock.set_up(|| {
        let mut rng = Rng64::new(splitmix64(p.seed ^ 0xA51C));
        let programs = programs(&mut rng);
        let asic = populated_asic();
        Bench {
            ns_per_byte_x1000: std::array::from_fn(|port| {
                8_000_000_000 / asic.port_capacity_kbps(port as u16) as u64
            }),
            asic,
            rng,
            templates: templates(&programs),
            gaps: exp_table(),
            pool: Vec::with_capacity(1024),
            now_ns: 0,
            free_at: [0; PORTS],
            pending: std::array::from_fn(|_| VecDeque::with_capacity(1024)),
            lat: FlatCounts::default(),
            offered: 0,
            enqueued: 0,
            dropped: 0,
            dequeued: 0,
            bytes_out: 0,
            writes: 0,
            last_departure_ns: 0,
            corpus: traced.then(Vec::new),
        }
    });

    // Warm-up slice: fills both caches, the queues and the buffer pool.
    let warm = (frames / 10).min(65_536);
    bench.offer(warm);
    let hops0 = bench.asic.regs().packets_processed;
    let events0 = bench.offered + bench.dequeued + bench.writes;
    let timed = clock.timed(|_| {
        bench.offer(frames - warm);
        bench.drain_until(u64::MAX);
    });
    let hops = bench.asic.regs().packets_processed - hops0;
    // The harness is the event loop: one event per arrival, per
    // departure and per table write.
    let events = bench.offered + bench.dequeued + bench.writes - events0;

    gate(bench.enqueued + bench.dropped == frames, || {
        format!(
            "outcomes do not add up: {} enqueued + {} dropped != {frames} frames",
            bench.enqueued, bench.dropped
        )
    })?;
    gate(bench.dequeued == bench.enqueued, || {
        format!(
            "{} frames enqueued, {} came out after the drain",
            bench.enqueued, bench.dequeued
        )
    })?;

    let mut lat = Counts::default();
    bench.lat.fold_into(&mut lat);
    let regs = bench.asic.regs();
    let fingerprint = lat.iter().fold(
        splitmix64(regs.tpps_executed ^ bench.bytes_out.rotate_left(32)),
        |acc, (ns, n)| acc.wrapping_add(splitmix64(ns ^ n.rotate_left(32))),
    );

    let mut layers = Layers::default();
    layers.set("asic.hop_frames", hops as f64);
    layers.set("asic.tpps_executed", regs.tpps_executed as f64);
    layers.set(
        "asic.tpp_share",
        regs.tpps_executed as f64 / regs.packets_processed.max(1) as f64,
    );
    let hit_ratio = |(hits, misses): (u64, u64)| hits as f64 / (hits + misses).max(1) as f64;
    layers.set(
        "asic.flow_cache.hit_ratio",
        hit_ratio(bench.asic.flow_cache_stats()),
    );
    layers.set(
        "asic.decode_cache.hit_ratio",
        hit_ratio(bench.asic.decode_cache_stats()),
    );
    layers.set("asic.queue.drops", bench.dropped as f64);
    layers.set("asic.queue.peak_bytes", bench.asic.hottest_queue().2 as f64);
    layers.set("asic.bytes_per_switch", bench.asic.approx_bytes() as f64);
    if traced {
        layers.set(
            "netsim.run.self_s",
            clock.log.self_ns(crate::trace::RUN) as f64 / 1e9,
        );
    }

    let sim_stats = SimStats::new(
        &lat,
        frames,
        bench.dropped,
        bench.bytes_out,
        bench.last_departure_ns,
        fingerprint,
    );
    Ok((
        timed.output(events, hops, sim_stats, layers),
        clock.log,
        bench.corpus.unwrap_or_default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_distinct_valid_and_writes_sram() {
        let programs = programs(&mut Rng64::new(7));
        assert_eq!(programs.len(), PROGRAMS);
        assert_eq!(programs.iter().collect::<BTreeSet<_>>().len(), PROGRAMS);
        let writers = programs
            .iter()
            .filter(|w| {
                tpp_isa::Program::decode_words(w)
                    .expect("every program decodes")
                    .writes_switch()
            })
            .count();
        assert!(writers > PROGRAMS / 2, "only {writers} programs write SRAM");
        let t = templates(&programs[..4]);
        for (size, frame) in SIZES.iter().zip(&t.plain) {
            assert_eq!(frame.len(), *size);
        }
        for (row, min) in t.tpp.iter().zip(&t.tpp_min) {
            assert!((64..=127).contains(min), "{min}");
            assert_eq!(row[0].len(), 127);
            assert_eq!(row[1].len(), 575);
            assert_eq!(row[2].len(), 1500);
            // Trimmed to its minimum, the frame still carries its program.
            let eth = tpp_wire::Frame::new_checked(&row[0][..*min]).unwrap();
            assert!(tpp_wire::TppPacket::new_checked(eth.payload()).is_ok());
        }
    }
}

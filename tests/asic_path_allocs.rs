//! The steady-state ASIC frame path stays off the allocator, cache
//! misses and table writes included.
//!
//! One standalone ASIC at ACL scale (256 TCAM entries, 1,024 L2 MACs) is
//! driven the way the repo benchmark's `asic_churn` drives it: 1,024
//! distinct programs over the 64 decode-cache slots, so most TPPs miss
//! the cache, and every 256 frames one TCAM install/remove pair and one
//! L2 rewrite. This binary installs its own counting `#[global_allocator]`
//! and checks the second half of the run — after the interner has seen
//! every program and the queues and tables have reached their size —
//! against a budget per frame. A decode miss is served by the cache's
//! interner and a table write patches the TCAM index in place, so the
//! expectation is zero; before either existed it was ~2 per frame. The
//! stream then runs on through the span profiler, whose histograms,
//! reservoir and opcode tally are full-size after a warm-up: a profiled
//! frame allocates nothing either.

mod common;

use tpp::asic::{Asic, AsicConfig, FlowAction, FlowEntry, FlowMatch, Outcome, ProfileConfig};
use tpp::wire::EthernetAddress;
use tpp_bench::testgen::tpp_frame;
use tpp_bench::traffic::Rng64;

use common::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const PORTS: u32 = 4;
const TCAM_ENTRIES: u32 = 256;
const L2_HOSTS: u32 = 1024;
const PROGRAMS: u32 = 1024;
const FRAMES: u32 = 1 << 18;
const WRITE_EVERY: u32 = 256;

/// An ACL rule no frame matches (the traffic never carries 0x9999).
fn acl(id: u32, priority: u16, in_port: u32) -> FlowEntry {
    FlowEntry {
        id,
        version: 1,
        priority,
        pattern: FlowMatch {
            ethertype: Some(0x9999),
            in_port: Some((in_port % PORTS) as u16),
            ..Default::default()
        },
        action: FlowAction::Forward(2),
    }
}

/// Offer frames `range` one at a time through one recycled buffer, with
/// the table writes that fall among them.
fn offer(
    asic: &mut Asic,
    rng: &mut Rng64,
    templates: &[Vec<u8>],
    range: std::ops::Range<u32>,
    buf: &mut Vec<u8>,
) {
    for i in range {
        let draw = rng.next_u64();
        let dst = EthernetAddress::from_host_id((draw >> 32) as u32 % L2_HOSTS);
        let mut frame = std::mem::take(buf);
        frame.clear();
        frame.extend_from_slice(&templates[draw as usize % templates.len()]);
        frame[..6].copy_from_slice(&dst.0);
        let in_port = ((draw >> 20) as u32 % PORTS) as u16;
        match asic.handle_frame(frame, in_port, u64::from(i) * 1_000) {
            Outcome::Enqueued { port, .. } => {
                *buf = asic.dequeue(port).expect("the frame just enqueued");
            }
            other => panic!("frame {i} was not forwarded: {other:?}"),
        }
        if i % WRITE_EVERY == 0 {
            let n = i / WRITE_EVERY;
            asic.install_flow(acl(5000 + n, 300, n));
            asic.remove_flow(5000 + n - 1);
            let host = n % L2_HOSTS;
            asic.l2_mut()
                .insert(EthernetAddress::from_host_id(host), (host % PORTS) as u16);
        }
    }
}

// One test per binary: see `common`.
#[test]
fn steady_state_asic_frames_do_not_allocate() {
    let mut asic = Asic::new(AsicConfig::with_ports(1, PORTS as usize));
    for i in 0..TCAM_ENTRIES {
        asic.install_flow(acl(1000 + i, i as u16, i));
    }
    for host in 0..L2_HOSTS {
        asic.l2_mut()
            .insert(EthernetAddress::from_host_id(host), (host % PORTS) as u16);
    }
    // PUSHI i; NOP.
    let templates: Vec<Vec<u8>> = (0..PROGRAMS)
        .map(|i| tpp_frame(0, 9, &[0x6000_0000 | i, 0], &[0; 4]))
        .collect();
    let mut rng = Rng64::new(23);
    let mut buf = Vec::with_capacity(256);

    offer(&mut asic, &mut rng, &templates, 1..FRAMES / 2, &mut buf);
    let allocs0 = allocations();
    let (hits0, misses0) = asic.decode_cache_stats();
    offer(
        &mut asic,
        &mut rng,
        &templates,
        FRAMES / 2..FRAMES,
        &mut buf,
    );
    let allocs = allocations() - allocs0;

    let frames = FRAMES / 2;
    let (hits, misses) = asic.decode_cache_stats();
    let (hits, misses) = (hits - hits0, misses - misses0);
    assert_eq!(hits + misses, u64::from(frames), "every frame ran its TPP");
    assert!(
        hits > u64::from(frames) / 64 && misses > 9 * hits,
        "1,024 programs over 64 slots should mostly miss: {hits} hits, {misses} misses"
    );
    assert_eq!(asic.tcam().len(), TCAM_ENTRIES as usize + 1);

    let per_frame = allocs as f64 / f64::from(frames);
    assert!(
        per_frame <= 0.001,
        "{allocs} allocations for {frames} frames in the second half \
         = {per_frame:.4} per frame (budget 0.001)"
    );
    eprintln!(
        "asic_path_allocs: {allocs} allocs / {frames} frames; {hits} decode hits, {misses} misses"
    );

    // Profiled: a warm-up quarter fills the 1,024-sample span reservoir.
    asic.enable_profiling(ProfileConfig::default());
    let (warm, end) = (FRAMES + FRAMES / 4, FRAMES + FRAMES / 2);
    offer(&mut asic, &mut rng, &templates, FRAMES..warm, &mut buf);
    let allocs0 = allocations();
    offer(&mut asic, &mut rng, &templates, warm..end, &mut buf);
    let allocs = allocations() - allocs0;
    let profile = asic.profile().expect("profiling on");
    assert_eq!(profile.packets(), u64::from(end - FRAMES));
    assert!(profile.opcode_breakdown().count() == 2, "PUSHI and NOP");
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations for {} profiled frames",
        end - warm
    );
}

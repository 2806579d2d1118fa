//! Property tests for the simulator: delivery, ordering, conservation
//! and determinism under randomized workloads.

use proptest::prelude::*;
use tpp_netsim::{
    linear_chain_with, shard_matrix, time, HostApp, HostCtx, LinearChainParams, RunLimit, SimConfig,
};
use tpp_wire::ethernet::{build_frame, EtherType, Frame};
use tpp_wire::EthernetAddress;

/// Sends a scripted schedule of (time, payload-size) datagrams, each
/// tagged with a sequence number.
struct Scripted {
    dst: EthernetAddress,
    schedule: Vec<(u64, usize)>,
    next: usize,
}

impl HostApp for Scripted {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some((t, _)) = self.schedule.first() {
            ctx.set_timer((*t).max(1), 0);
        }
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        let (_, size) = self.schedule[self.next];
        let mut payload = vec![0u8; size.max(4)];
        payload[0..4].copy_from_slice(&(self.next as u32).to_be_bytes());
        ctx.send(build_frame(
            self.dst,
            ctx.mac(),
            EtherType(0x0802),
            &payload,
        ));
        self.next += 1;
        if self.next < self.schedule.len() {
            let now = ctx.now();
            let t = self.schedule[self.next].0;
            ctx.set_timer(t.saturating_sub(now).max(1), 0);
        }
    }
}

#[derive(Default)]
struct Recorder {
    seqs: Vec<u32>,
    bytes: u64,
}

impl HostApp for Recorder {
    fn on_frame(&mut self, frame: Vec<u8>, _ctx: &mut HostCtx<'_>) {
        let parsed = Frame::new_checked(&frame[..]).unwrap();
        self.bytes += frame.len() as u64;
        self.seqs.push(u32::from_be_bytes(
            parsed.payload()[0..4].try_into().unwrap(),
        ));
    }
}

fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    proptest::collection::vec((0u64..time::millis(20), 4usize..1400), 1..40).prop_map(|mut v| {
        v.sort();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With generous buffers, every frame is delivered exactly once and
    /// in send order; bytes are conserved end to end. On every shard row.
    #[test]
    fn reliable_in_order_delivery(schedule in schedule_strategy(), hops in 1usize..5) {
        let n = schedule.len();
        let sent_bytes: u64 = schedule.iter().map(|(_, s)| (s + 14) as u64).sum();
        for (row, config) in shard_matrix() {
            let (mut sim, chain) = linear_chain_with(
                config,
                LinearChainParams { n_switches: hops, ..Default::default() },
                Box::new(Scripted {
                    dst: EthernetAddress::from_host_id(1),
                    schedule: schedule.clone(),
                    next: 0,
                }),
                Box::new(Recorder::default()),
            );
            sim.run(RunLimit::Until(time::millis(100)));
            let recorder = sim.host_app::<Recorder>(chain.right);
            prop_assert_eq!(recorder.seqs.len(), n, "{}: every frame delivered once", row);
            let in_order: Vec<u32> = (0..n as u32).collect();
            prop_assert_eq!(&recorder.seqs, &in_order, "{}: FIFO along one path", row);
            prop_assert_eq!(recorder.bytes, sent_bytes, "{}: bytes conserved", row);
            // Switch counters agree: last switch transmitted all data
            // frames toward the receiver.
            let last = chain.switches[hops - 1];
            prop_assert_eq!(sim.switch(last).port_stats(1).tx_bytes, sent_bytes, "{}", row);
        }
    }

    /// With a tiny bottleneck buffer, delivered + dropped = sent at every
    /// switch, and delivered frames are still in order. On every shard row.
    #[test]
    fn lossy_conservation(schedule in schedule_strategy()) {
        let n = schedule.len() as u64;
        for (row, config) in shard_matrix() {
            let (mut sim, chain) = linear_chain_with(
                config,
                LinearChainParams {
                    n_switches: 2,
                    link_kbps: 1_000, // 1 Mb/s: heavy congestion
                    queue_limit_bytes: 3_000,
                    ..Default::default()
                },
                Box::new(Scripted {
                    dst: EthernetAddress::from_host_id(1),
                    schedule: schedule.clone(),
                    next: 0,
                }),
                Box::new(Recorder::default()),
            );
            sim.run(RunLimit::Until(time::secs(30)));
            let recorder = sim.host_app::<Recorder>(chain.right);
            let s0 = chain.switches[0];
            let delivered = recorder.seqs.len() as u64;
            let dropped: u64 = (0..2u16)
                .map(|p| sim.switch(s0).queue_stats(p, 0).packets_dropped
                    + sim.switch(chain.switches[1]).queue_stats(p, 0).packets_dropped)
                .sum();
            prop_assert_eq!(delivered + dropped, n, "{}: nothing vanishes silently", row);
            let mut sorted = recorder.seqs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), recorder.seqs.len(), "{}: no duplicates", row);
            let mut prev = None;
            for s in &recorder.seqs {
                if let Some(p) = prev {
                    prop_assert!(*s > p, "{}: drop-tail preserves order of survivors", row);
                }
                prev = Some(*s);
            }
        }
    }

    /// Bit-for-bit determinism under arbitrary workloads: a repeat of the
    /// 1-shard run and every shard row reproduce it.
    #[test]
    fn determinism(schedule in schedule_strategy()) {
        let run = |config: SimConfig| {
            let (mut sim, chain) = linear_chain_with(
                config,
                LinearChainParams { n_switches: 3, ..Default::default() },
                Box::new(Scripted {
                    dst: EthernetAddress::from_host_id(1),
                    schedule: schedule.clone(),
                    next: 0,
                }),
                Box::new(Recorder::default()),
            );
            sim.run(RunLimit::Until(time::millis(60)));
            (
                sim.host_app::<Recorder>(chain.right).bytes,
                sim.switch(chain.switches[0]).regs().packets_processed,
            )
        };
        let reference = run(SimConfig::default());
        for (row, config) in shard_matrix() {
            prop_assert_eq!(run(config), reference, "{} diverged", row);
        }
    }
}

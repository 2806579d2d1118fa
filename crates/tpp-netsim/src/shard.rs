//! The sharded scheduler: per-shard event loops, conservative windows,
//! and cross-shard mailboxes.
//!
//! The topology is partitioned into shards, each owning a contiguous
//! block of switches and hosts together with their outgoing link
//! directions, event queue, frame pool, fault counters and taps. Time
//! advances in *conservative windows*: if the earliest pending event
//! anywhere is at `T`, every shard may safely process events in
//! `[T, T + L)` where the lookahead `L` is the minimum propagation delay
//! of any inter-shard link — no frame sent inside the window can arrive
//! at another shard before the window closes. Frames that cross a shard
//! boundary are pushed into the destination shard's mailbox and drained
//! into its queue after the window's one synchronisation, a `min`
//! all-reduce of where the next window opens ([`MinReduce`]).
//!
//! Determinism does not depend on the schedule: every queue orders by
//! the canonical [`EventKey`], which is derived from event content, so
//! the order in which mailbox items were deposited (or which thread ran
//! first) is irrelevant. The sequential and threaded drivers run the
//! same loop ([`drive`]) over the identical window schedule, and a
//! one-shard run degenerates to the classic single event loop. That
//! loop is the only one: stats ticks, series sampling and the
//! quiescence check all happen inside it.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{RunLimit, SimConfig};
use crate::event::{node_port_of, Event, EventKey, EventKind, EventQueue, FaultApply, NodeId};
use crate::fault::FaultCounters;
use crate::node::{HostAction, HostApp, HostCtx, HostId, SwitchId};
use crate::pool::FramePool;
use crate::series::{permille, FleetShare, SwitchSeries};
use crate::sim::{frames_lost, link, link_mut, HostNode, SwitchNode, TapDir, TapRecord};
use crate::time::tx_time_ns;
use tpp_asic::{Outcome, PortId};
use tpp_telemetry::{SharedSink, TraceEvent, TraceEventKind};
use tpp_wire::ethernet::{Frame, ETHERNET_HEADER_LEN};
use tpp_wire::tpp::TppPacket;
use tpp_wire::EthernetAddress;

/// Mix a seed and a per-link key into an independent RNG stream seed
/// (splitmix64 finalizer). Streams depend only on `(seed, key)`, never
/// on shard layout or draw interleaving across links.
pub(crate) fn mix64(seed: u64, key: u64) -> u64 {
    let mut x = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard matrix: one shard (the reference), two and four on worker
/// threads, and four stepped on one thread, each named as
/// `BENCH_fct.json`'s `shard_matrix` prints it. A seeded run must come
/// out bit-identical on every row, so suites that build a [`Simulator`]
/// replay on each row's config ([`for_each_shard_row`]).
///
/// [`Simulator`]: crate::Simulator
pub fn shard_matrix() -> [(&'static str, SimConfig); 4] {
    let row = |shards, parallel| SimConfig::new().shards(shards).parallel(parallel);
    [
        ("1_shard_seq", row(1, false)),
        ("2_shards_threaded", row(2, true)),
        ("4_shards_threaded", row(4, true)),
        ("4_shards_seq", row(4, false)),
    ]
}

/// Run `check` once per row of [`shard_matrix`], on that row's config;
/// a failing row is named before its panic goes on.
pub fn for_each_shard_row(mut check: impl FnMut(SimConfig)) {
    for (row, config) in shard_matrix() {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(config))) {
            eprintln!("failed on shard row {row}");
            resume_unwind(panic);
        }
    }
}

/// Deterministic window-protocol counters of one shard: equal for the
/// sequential and the threaded driver, and across repeated runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSyncStats {
    /// Conservative windows this shard stepped.
    pub windows: u64,
    /// Events this shard mailed to another shard.
    pub events_mailed: u64,
    /// Deepest this shard's event queue stood at a window's entry
    /// (sampled once per window, after the inbox drain — never per
    /// event).
    pub peak_pending: u64,
}

/// One destination shard's mailbox for the windows of one parity, alone
/// on its cache lines. A shard owns two: a peer that has already passed
/// the reduction deposits the *next* window's mail while this shard
/// still drains the last one's, and keeping the two apart is what makes
/// a drain — and so the queue depth at every window's entry — the same
/// under either driver.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Inbox(pub(crate) Mutex<Vec<Event>>);

/// Mutable state owned by one shard: its event queue and the per-shard
/// halves of every cross-cutting facility (pool, counters, taps, trace
/// sink). Aggregated views are summed by the `Simulator` accessors.
/// Aligned: the per-event `processed` bump must not share a cache line
/// with the neighbouring shard's queue.
#[repr(align(128))]
pub(crate) struct ShardState {
    pub(crate) events: EventQueue,
    pub(crate) pool: FramePool,
    pub(crate) counters: FaultCounters,
    pub(crate) actions: Vec<HostAction>,
    /// Scratch buffer the mailbox contents are swapped into at each
    /// drain, so the lock is held only for a pointer swap and both
    /// buffers keep their capacity warm across windows.
    pub(crate) inbox_scratch: Vec<Event>,
    pub(crate) taps: HashMap<(NodeId, PortId), Vec<TapRecord>>,
    pub(crate) sink: Option<SharedSink>,
    pub(crate) processed: u64,
    pub(crate) sync: ShardSyncStats,
}

impl ShardState {
    pub(crate) fn new(frame_pool_buffers: usize) -> Self {
        ShardState {
            events: EventQueue::new(),
            pool: FramePool::new(frame_pool_buffers),
            counters: FaultCounters::default(),
            actions: Vec::new(),
            inbox_scratch: Vec::new(),
            taps: HashMap::new(),
            sink: None,
            processed: 0,
            sync: ShardSyncStats::default(),
        }
    }
}

/// A shard's working view for one stepping call: disjoint `&mut` slices
/// of the simulator's node arrays, links included (split at the
/// partition boundaries), plus its own [`ShardState`]. Global ids are
/// translated through `switch_base` / `host_base`.
pub(crate) struct ShardRun<'a> {
    pub(crate) idx: usize,
    pub(crate) now_ns: u64,
    pub(crate) switch_base: usize,
    pub(crate) host_base: usize,
    pub(crate) switches: &'a mut [SwitchNode],
    pub(crate) hosts: &'a mut [HostNode],
    pub(crate) state: &'a mut ShardState,
    pub(crate) inboxes: &'a [[Inbox; 2]],
    pub(crate) l2_routes: &'a [Vec<(EthernetAddress, PortId)>],
    /// Equal-cost next-hop table, present only under
    /// [`SimConfig::ecmp`](crate::SimConfig::ecmp); shared read-only by
    /// every shard.
    pub(crate) ecmp: Option<&'a crate::routing::EcmpTable>,
    pub(crate) fault_seed: u64,
    pub(crate) fault_epoch: u32,
    /// This shard's slice of the series of every switch, and its share
    /// of the fleet series, while series are on.
    pub(crate) series: Option<(&'a mut [SwitchSeries], &'a mut FleetShare)>,
    /// End of the window being stepped: no mail may arrive before it.
    pub(crate) window_end: u64,
    /// Earliest arrival time mailed to another shard this window.
    pub(crate) mailed_min: u64,
}

impl ShardRun<'_> {
    /// Move mailbox deliveries into the event queue; they all lie at or
    /// beyond the end of the window they were sent in, so delivery is
    /// never late. The mailbox contents are swapped into a per-shard
    /// scratch buffer: the lock is held only for the swap, and the two
    /// buffers' capacities are reused across windows.
    pub(crate) fn drain_inbox(&mut self) {
        let mut scratch = std::mem::take(&mut self.state.inbox_scratch);
        {
            let mut inbox = self.inboxes[self.idx][self.window_parity()]
                .0
                .lock()
                .expect("inbox lock");
            std::mem::swap(&mut *inbox, &mut scratch);
        }
        for event in scratch.drain(..) {
            self.state.events.push(event);
        }
        self.state.inbox_scratch = scratch;
    }

    /// Which of a shard's two inboxes the current window's mail goes to
    /// and, once the window is over, is drained from. Every shard steps
    /// every window, so all agree; no peer runs two windows ahead.
    fn window_parity(&self) -> usize {
        (self.state.sync.windows & 1) as usize
    }

    /// Time of this shard's earliest pending event.
    fn next_pending(&self) -> u64 {
        self.state.events.peek_time().unwrap_or(u64::MAX)
    }

    /// Step one conservative window: process every pending event
    /// strictly before `end`. Returns this shard's share of where the
    /// next window opens: its own earliest pending event or the earliest
    /// arrival it mailed (still in a peer's inbox), whichever is first.
    fn window(&mut self, end: u64) -> u64 {
        self.window_end = end;
        self.mailed_min = u64::MAX;
        let sync = &mut self.state.sync;
        sync.windows += 1;
        sync.peak_pending = sync.peak_pending.max(self.state.events.len() as u64);
        while let Some(event) = self.state.events.pop_if(|key| key.time < end) {
            self.now_ns = event.key.time;
            self.state.processed += 1;
            self.dispatch(event);
        }
        self.next_pending().min(self.mailed_min)
    }

    /// While series are on, take one stats-tick sample of this shard's
    /// switches and of the fault counters and link losses it owns.
    fn sample_series(&mut self, now: u64) {
        let Some((switch_series, share)) = self.series.as_mut() else {
            return;
        };
        for (sw, series) in self.switches.iter().zip(switch_series.iter_mut()) {
            let asic = &sw.asic;
            let (total, max) = asic.queue_occupancy();
            series.offer("queue.total_bytes", now, total);
            series.offer("queue.max_bytes", now, max);
            let mut util = 0u64;
            let mut dropped = 0u64;
            for p in 0..asic.num_ports() {
                let stats = asic.port_stats(p as PortId);
                util = util.max(stats.tx_utilization_permille as u64);
                dropped += stats.bytes_dropped;
            }
            series.offer("link.tx_util_permille", now, util);
            // Saturating: a switch reboot resets its counters.
            let delta = dropped.saturating_sub(series.prev_drop_bytes);
            series.offer("drop.bytes_per_tick", now, delta);
            series.prev_drop_bytes = dropped;
            let (dh, dm) = asic.decode_cache_stats();
            series.offer("cache.decode_hit_permille", now, permille(dh, dm));
        }
        let f = &self.state.counters;
        let faults =
            f.link_down_drops + f.duplicated + f.corrupted + f.reordered + f.reboots + f.link_downs;
        share.offer(now, faults, frames_lost(self.switches, self.hosts));
    }

    fn dispatch(&mut self, Event { key, kind }: Event) {
        match kind {
            EventKind::FrameArrive { frame, tail } => {
                let (node, port) = node_port_of(key.major);
                if !node.is_host() {
                    self.switch_arrival(SwitchId(node.index()), port, frame, tail);
                    self.drain_arrival_burst(node);
                } else {
                    if !self.state.taps.is_empty() {
                        self.tap(node, port, TapDir::Rx, &frame, tail);
                    }
                    let h = HostId(node.index());
                    self.call_host(h, port, |app, ctx| app.on_frame(frame, ctx));
                }
            }
            EventKind::LinkFree { node, port } => {
                let at = self.local(node);
                link_mut(self.switches, self.hosts, at, port)
                    .expect("wired")
                    .busy = false;
                self.try_tx(node, port);
            }
            EventKind::Timer { host, token } => {
                self.call_host(host, 0, |app, ctx| app.on_timer(token, ctx));
            }
            EventKind::Fault { apply } => self.apply_fault(apply),
        }
    }

    /// Hand one frame to a switch ASIC and start transmitting its output.
    fn switch_arrival(&mut self, s: SwitchId, port: PortId, frame: Vec<u8>, tail: u32) {
        if !self.state.taps.is_empty() {
            self.tap(NodeId::switch(s), port, TapDir::Rx, &frame, tail);
        }
        let now = self.now_ns;
        let hint = self.ecmp.and_then(|table| self.ecmp_pick(table, s, &frame));
        let (outcome, dropped) = self.switches[s.0 - self.switch_base]
            .asic
            .handle_frame_routed(frame, tail, port, now, hint);
        if let Some(frame) = dropped {
            self.recycle_dropped(frame);
        }
        if let Outcome::Enqueued { port: out, .. } = outcome {
            self.try_tx(NodeId::switch(s), out);
        }
    }

    /// Keep the buffer of a frame a switch dropped. Out of line: most
    /// frames are forwarded, and the arrival path is layout-sensitive.
    #[cold]
    #[inline(never)]
    fn recycle_dropped(&mut self, frame: Vec<u8>) {
        self.state.pool.recycle(frame);
    }

    /// The ECMP egress override for one frame at switch `s`, or `None`
    /// when hashing does not apply (no flow key, unknown destination,
    /// or a group of at most one — single-path tiers keep the ASIC's
    /// own lookup). Candidates are filtered to up egress links (owned by
    /// this shard, so the filter is as deterministic as the hash); a
    /// fully-dark group falls back to the unfiltered pick and the frame
    /// drops at the transmitter.
    fn ecmp_pick(
        &self,
        table: &crate::routing::EcmpTable,
        s: SwitchId,
        frame: &[u8],
    ) -> Option<PortId> {
        let parsed = Frame::new_checked(frame).ok()?;
        let dst = parsed.dst_addr();
        let dst_host = dst.host_id()?;
        let group = table.group(s.0, dst_host);
        if group.len() < 2 {
            return None;
        }
        let local = s.0 - self.switch_base;
        let is_up = |p: &&PortId| {
            self.switches[local].links[**p as usize]
                .as_ref()
                .is_some_and(|l| l.up)
        };
        let hash = table.flow_hash(
            self.switches[local].asic.switch_id(),
            parsed.src_addr(),
            dst,
            crate::routing::flow_label(frame),
        );
        // Stack buffer: groups are tiny (≤ radix/2), and this runs per
        // frame. A group wider than the buffer keeps the first 32 up
        // candidates, which preserves determinism (same truncation on
        // every shard layout).
        let mut up = [0 as PortId; 32];
        let mut n = 0;
        for p in group.iter().filter(is_up) {
            if n < up.len() {
                up[n] = *p;
                n += 1;
            }
        }
        let pick = if n == 0 {
            crate::routing::EcmpTable::pick(group, hash)
        } else {
            crate::routing::EcmpTable::pick(&up[..n], hash)
        };
        Some(pick)
    }

    /// Batched TCPU execution: frames landing on switch `s` at the same
    /// instant are adjacent in canonical key order (same time, same
    /// class, same receiver-major), so run the whole burst back to back
    /// without re-entering the dispatcher. The ASIC's decode-cache memo
    /// then decodes a repeated program once for the burst.
    fn drain_arrival_burst(&mut self, node: NodeId) {
        let s = SwitchId(node.index());
        let now = self.now_ns;
        while let Some(Event {
            key,
            kind: EventKind::FrameArrive { frame, tail },
        }) = self.state.events.pop_if(|key| key.is_frame_to(node, now))
        {
            self.state.processed += 1;
            let (_, port) = node_port_of(key.major);
            self.switch_arrival(s, port, frame, tail);
        }
    }

    fn apply_fault(&mut self, apply: FaultApply) {
        match apply {
            FaultApply::SetLinkUp { node, port, up } => {
                let switch_id = self.node_switch_id(node);
                let at = self.local(node);
                let link =
                    link_mut(self.switches, self.hosts, at, port).expect("validated on install");
                if std::mem::replace(&mut link.up, up) == up {
                    return;
                }
                if up {
                    self.emit_fault(switch_id, TraceEventKind::LinkUp { port });
                } else {
                    self.state.counters.link_downs += 1;
                    self.emit_fault(switch_id, TraceEventKind::LinkDown { port });
                }
            }
            FaultApply::Reboot { switch } => {
                let now = self.now_ns;
                let local = switch.0 - self.switch_base;
                self.switches[local].asic.reset(now);
                self.state.counters.reboots += 1;
                // The control plane reconverges: restore this switch's
                // L2 routes from the precomputed tables (other switches
                // kept theirs).
                for (mac, port) in &self.l2_routes[switch.0] {
                    self.switches[local].asic.l2_mut().insert(*mac, *port);
                }
            }
            FaultApply::SetChannel {
                node,
                port,
                profile,
            } => {
                let at = self.local(node);
                link_mut(self.switches, self.hosts, at, port)
                    .expect("validated on install")
                    .faults = profile;
            }
        }
    }

    /// Start transmitting the next queued frame of a switch port or host
    /// NIC, if its transmitter is idle. The only place a frame goes on
    /// the wire, and so the only place a `LinkFree` is scheduled.
    fn try_tx(&mut self, node: NodeId, port: PortId) {
        let at = self.local(node);
        match link(self.switches, self.hosts, at, port) {
            Some(link) if link.busy => return,
            Some(_) => {}
            None => {
                // Unconnected port: black-hole anything queued there,
                // reclaiming the buffers.
                while let Some((frame, ..)) = self.dequeue(at, port) {
                    self.state.pool.recycle(frame);
                }
                return;
            }
        }
        let Some((frame, tail, rate_kbps)) = self.dequeue(at, port) else {
            return;
        };
        let now = self.now_ns;
        let link = link_mut(self.switches, self.hosts, at, port).expect("wired");
        // A time-varying profile's degraded rate stretches the wire time
        // (and so both the transmitter-busy interval and the arrival).
        let mut tx = tx_time_ns(frame.len() + tail as usize, rate_kbps);
        if let Some(p) = &link.profile {
            tx = crate::profile::scale_tx_ns(tx, p.sample(now).rate_permille);
        }
        link.busy = true;
        self.state.events.push(Event {
            key: EventKey::link_free(now + tx, node, port),
            kind: EventKind::LinkFree { node, port },
        });
        self.transmit(node, port, tx, frame, tail);
    }

    /// The next queued frame behind a transmitter, as its head and tail,
    /// and its line rate: the one thing a switch port (its ASIC queues,
    /// its configured capacity) and a host NIC (its own queue and rate)
    /// do differently.
    fn dequeue(&mut self, at: NodeId, port: PortId) -> Option<(Vec<u8>, u32, u32)> {
        if at.is_host() {
            let nic = &mut self.hosts[at.index()].nics[port as usize];
            let (frame, tail) = nic.queue.pop_front()?;
            Some((frame, tail, nic.rate_kbps))
        } else {
            let asic = &mut self.switches[at.index()].asic;
            let (frame, tail) = asic.dequeue_with_tail(port)?;
            Some((frame, tail, asic.port_capacity_kbps(port)))
        }
    }

    /// Put a frame on the wire: deliver after serialization +
    /// propagation, unless the channel eats it (or an installed fault
    /// plan duplicates, corrupts, or delays it). Delivery lands in this
    /// shard's queue or, across a shard boundary, in the destination
    /// shard's mailbox — propagation delay of inter-shard links is at
    /// least the lookahead, so the frame always arrives at or beyond
    /// the end of the current window. The frame is `frame` and `tail`
    /// zero bytes; the tail rides along as a count.
    fn transmit(&mut self, from: NodeId, port: PortId, tx_ns: u64, frame: Vec<u8>, tail: u32) {
        if !self.state.taps.is_empty() {
            self.tap(from, port, TapDir::Tx, &frame, tail);
        }
        let switch_id = self.node_switch_id(from);
        let now = self.now_ns;
        let fault_seed = self.fault_seed;
        let fault_epoch = self.fault_epoch;
        let at = self.local(from);
        let link =
            link_mut(self.switches, self.hosts, at, port).expect("transmit on an unwired port");
        if !link.up {
            link.losses += 1;
            self.state.counters.link_down_drops += 1;
            self.state.pool.recycle(frame);
            return;
        }
        // A time-varying profile composes with the static channel: its
        // loss adds to the static probability (clamped), its extra delay
        // adds to propagation (it can only *add*, so the conservative
        // lookahead bound stays sound). Sampling is a pure function of
        // `now`, identical on every shard.
        let profile_now = link.profile.as_deref().map(|p| p.sample(now));
        let effective_loss = (link.loss_permille as u32
            + profile_now.map_or(0, |s| s.loss_permille as u32))
        .min(1000);
        if effective_loss > 0 {
            let lost = {
                let rng = link
                    .loss_rng
                    .as_mut()
                    .expect("armed by set_link_loss or set_link_profile");
                rng.gen_range(0..1000u32) < effective_loss
            };
            if lost {
                link.losses += 1;
                self.state.pool.recycle(frame);
                return;
            }
        }
        let mut frame = frame;
        let mut arrival = now + tx_ns + link.delay_ns + profile_now.map_or(0, |s| s.extra_delay_ns);
        let mut duplicate = false;
        let mut corrupt_emit = None;
        if !link.faults.is_clean() {
            // Per-link-direction fault stream, lazily (re)seeded from
            // `(plan seed, link key)` whenever a new plan was installed:
            // draws depend only on the plan and this direction's frame
            // order, never on shard layout.
            if link.fault_rng.is_none() || link.fault_rng_epoch != fault_epoch {
                link.fault_rng = Some(Box::new(StdRng::seed_from_u64(mix64(fault_seed, link.key))));
                link.fault_rng_epoch = fault_epoch;
            }
            let f = link.faults;
            let rng = link.fault_rng.as_mut().expect("armed above");
            // Fixed consultation order (corrupt → duplicate → reorder)
            // keeps the fault stream deterministic for a given plan. Only
            // a TPP section is corrupted, and a TPP never has a tail.
            if f.corrupt_permille > 0 && rng.gen_range(0..1000u32) < f.corrupt_permille as u32 {
                if let Some((byte, bit)) = pick_tpp_bit(rng, &frame) {
                    frame[byte] ^= 1 << bit;
                    corrupt_emit = Some(TraceEventKind::CorruptionInjected {
                        port,
                        byte: byte as u32,
                        bit,
                    });
                }
            }
            if f.duplicate_permille > 0 && rng.gen_range(0..1000u32) < f.duplicate_permille as u32 {
                duplicate = true;
            }
            if f.reorder_permille > 0
                && f.reorder_spread_ns > 0
                && rng.gen_range(0..1000u32) < f.reorder_permille as u32
            {
                arrival += rng.gen_range(0..f.reorder_spread_ns);
                self.state.counters.reordered += 1;
            }
        }
        let peer = link.peer;
        let peer_port = link.peer_port;
        let peer_shard = link.peer_shard;
        let seq = link.seq;
        link.seq += if duplicate { 2 } else { 1 };
        if let Some(kind) = corrupt_emit {
            self.state.counters.corrupted += 1;
            self.emit_fault(switch_id, kind);
        }
        if duplicate {
            // The copy takes the lower link sequence, so it delivers
            // before the original at the same arrival time (matching the
            // duplicate-before-original order of the classic loop).
            self.state.counters.duplicated += 1;
            let copy = self.state.pool.copy_of(&frame);
            self.deliver(
                peer_shard,
                Event {
                    key: EventKey::frame(arrival, peer, peer_port, seq),
                    kind: EventKind::FrameArrive { frame: copy, tail },
                },
            );
        }
        let seq = if duplicate { seq + 1 } else { seq };
        self.deliver(
            peer_shard,
            Event {
                key: EventKey::frame(arrival, peer, peer_port, seq),
                kind: EventKind::FrameArrive { frame, tail },
            },
        );
    }

    fn deliver(&mut self, shard: usize, event: Event) {
        if shard == self.idx {
            self.state.events.push(event);
        } else {
            // What the whole scheme rests on: an earlier arrival would
            // be silently reordered at the receiver.
            debug_assert!(event.key.time >= self.window_end, "mail inside window");
            self.mailed_min = self.mailed_min.min(event.key.time);
            self.state.sync.events_mailed += 1;
            let mut inbox = self.inboxes[shard][self.window_parity()]
                .0
                .lock()
                .expect("inbox lock");
            inbox.push(event);
        }
    }

    /// Invoke a host-app callback and apply the actions it requested.
    /// `rx_port` is the NIC the triggering frame arrived on (0 for
    /// timers and start-of-run).
    pub(crate) fn call_host<F>(&mut self, h: HostId, rx_port: PortId, f: F)
    where
        F: FnOnce(&mut dyn HostApp, &mut HostCtx<'_>),
    {
        // Reuse one scratch buffer per shard instead of allocating a
        // fresh Vec per invocation. `call_host` never re-enters itself
        // (applying actions only pushes events), so taking the buffer
        // out of the state for the duration is safe.
        let mut actions = std::mem::take(&mut self.state.actions);
        {
            let host = &mut self.hosts[h.0 - self.host_base];
            let mut ctx = HostCtx {
                now_ns: self.now_ns,
                host: h,
                mac: host.mac,
                rx_port,
                ports: host.nics.len() as u16,
                actions: &mut actions,
                pool: &mut self.state.pool,
            };
            f(host.app.as_mut(), &mut ctx);
        }
        for action in actions.drain(..) {
            match action {
                HostAction::Send { port, frame, tail } => {
                    self.hosts[h.0 - self.host_base].nics[port as usize]
                        .queue
                        .push_back((frame, tail));
                    self.try_tx(NodeId::host(h), port);
                }
                HostAction::Timer { delay_ns, token } => {
                    let host = &mut self.hosts[h.0 - self.host_base];
                    let seq = host.timer_seq;
                    host.timer_seq += 1;
                    self.state.events.push(Event {
                        key: EventKey::timer(self.now_ns + delay_ns, h, seq),
                        kind: EventKind::Timer { host: h, token },
                    });
                }
            }
        }
        self.state.actions = actions;
    }

    /// `node` re-indexed into this shard's slices.
    fn local(&self, node: NodeId) -> NodeId {
        if node.is_host() {
            NodeId::host(HostId(node.index() - self.host_base))
        } else {
            NodeId::switch(SwitchId(node.index() - self.switch_base))
        }
    }

    /// The dataplane switch id of a node (0 for hosts, which have no
    /// switch id).
    fn node_switch_id(&self, node: NodeId) -> u32 {
        if !node.is_host() {
            self.switches[node.index() - self.switch_base]
                .asic
                .switch_id()
        } else {
            0
        }
    }

    /// Record a simulator-level fault event into the fleet sink, if one
    /// is attached.
    fn emit_fault(&mut self, switch_id: u32, kind: TraceEventKind) {
        if let Some(sink) = &self.state.sink {
            sink.record(TraceEvent {
                t_ns: self.now_ns,
                switch_id,
                seq: 0,
                kind,
            });
        }
    }

    #[cold]
    #[inline(never)]
    fn tap(&mut self, node: NodeId, port: PortId, dir: TapDir, frame: &[u8], tail: u32) {
        let now = self.now_ns;
        if let Some(records) = self.state.taps.get_mut(&(node, port)) {
            if let Some(record) = TapRecord::capture(now, dir, frame, tail) {
                records.push(record);
            }
        }
    }
}

/// Choose a random bit inside the TPP section of `frame` for
/// corruption. Returns `(byte_offset, bit)` relative to the whole
/// frame, or `None` for frames without a parseable TPP section
/// (non-TPP traffic is never corrupted: the fault models §3's
/// concern that a damaged TPP must not wedge a switch, not generic
/// payload corruption). Consumes RNG draws only when a target
/// exists, keeping the stream deterministic per plan.
fn pick_tpp_bit(rng: &mut StdRng, frame: &[u8]) -> Option<(usize, u8)> {
    let parsed = Frame::new_checked(frame).ok()?;
    if !parsed.is_tpp() {
        return None;
    }
    let tpp = TppPacket::new_checked(parsed.payload()).ok()?;
    let len = tpp.tpp_len();
    if len == 0 {
        return None;
    }
    let byte = ETHERNET_HEADER_LEN + rng.gen_range(0..len);
    let bit = rng.gen_range(0..8u32) as u8;
    Some((byte, bit))
}

/// One run call: windows and stats ticks under `limit`, the first tick
/// at `next_tick_ns` and one every `tick_interval_ns` after it.
#[derive(Clone, Copy)]
pub(crate) struct Schedule {
    pub(crate) next_tick_ns: u64,
    pub(crate) tick_interval_ns: u64,
    pub(crate) limit: RunLimit,
    pub(crate) lookahead_ns: u64,
}

/// Run `sched` with one thread stepping the shards in turn or, threaded,
/// one scoped worker per shard meeting once per window in a
/// [`MinReduce`]. Both run [`drive`], so results are bit-identical, and
/// return what it returns.
pub(crate) fn run_shards(runs: &mut [ShardRun<'_>], sched: Schedule, parallel: bool) -> (u64, u64) {
    if runs.len() <= 1 || !parallel {
        return drive(runs, sched, |local| local);
    }
    let reduce = &MinReduce::new(runs.len());
    let stopped = &OnceLock::new();
    std::thread::scope(|scope| {
        for (i, run) in runs.chunks_mut(1).enumerate() {
            scope.spawn(move || {
                let worker = || drive(run, sched, |local| reduce.all_min(i, local));
                match catch_unwind(AssertUnwindSafe(worker)) {
                    // Every worker stops after the same reduction, so
                    // all return alike.
                    Ok(stop) => {
                        let _ = stopped.set(stop);
                    }
                    Err(panic) => {
                        // Fail the peers too; they would wait forever.
                        reduce.poisoned.store(true, Relaxed);
                        resume_unwind(panic);
                    }
                }
            });
        }
    });
    *stopped.get().expect("every worker returned")
}

/// The run loop over the shards one thread steps (all of them, or one
/// per worker). A window opens at the *global* minimum pending time,
/// which `all_min` completes from this thread's share; that reduction
/// is all the synchronisation a window pays. Every peer publishes after
/// the last `deliver` of its window, so the drain after the reduction
/// sees all mail of that window; mail a faster peer has already sent
/// from the next one sits in the inbox of the other parity until that
/// window's own drain. Inboxes are empty whenever no window is open.
///
/// Every event at or before the limit's instant is processed and every
/// stats tick at or before it taken. A tick at `T` happens once the
/// minimum says nothing is pending below `T`; it touches (and samples)
/// shard-owned switches only. Under [`RunLimit::Quiescent`], a tick at
/// which the minimum is `u64::MAX` — nothing pending anywhere, and a
/// tick schedules no event — ends the run there. Returns the next tick
/// and the instant the run stopped at.
fn drive(
    runs: &mut [ShardRun<'_>],
    sched: Schedule,
    mut all_min: impl FnMut(u64) -> u64,
) -> (u64, u64) {
    let (stop, quiescent) = match sched.limit {
        RunLimit::Until(t_end_ns) => (t_end_ns, false),
        RunLimit::Quiescent { limit_ns } => (limit_ns, true),
    };
    let end_exclusive = stop.saturating_add(1);
    let mut next_tick = sched.next_tick_ns;
    let mut limit = next_tick.min(end_exclusive);
    let mut local = runs.iter().fold(u64::MAX, |m, r| m.min(r.next_pending()));
    loop {
        let open = all_min(local);
        runs.iter_mut().for_each(ShardRun::drain_inbox);
        while open >= limit {
            if next_tick >= end_exclusive {
                return (next_tick, stop);
            }
            let t = next_tick;
            for run in runs.iter_mut() {
                run.switches.iter_mut().for_each(|sw| sw.asic.tick(t));
                run.sample_series(t);
            }
            next_tick += sched.tick_interval_ns;
            if quiescent && open == u64::MAX {
                return (next_tick, t);
            }
            limit = next_tick.min(end_exclusive);
        }
        // Open at the earliest work: sparse runs skip the empty windows.
        let end = limit.min(open.saturating_add(sched.lookahead_ns));
        local = runs.iter_mut().fold(u64::MAX, |m, r| m.min(r.window(end)));
    }
}

/// One shard's slot of a [`MinReduce`], alone on its cache lines.
#[derive(Default)]
#[repr(align(128))]
struct ReduceSlot {
    /// Rounds published; written by the owner only.
    round: AtomicU64,
    /// Published values by round parity. Two suffice: a peer cannot
    /// publish two rounds ahead before all have read the one between.
    value: [AtomicU64; 2],
}

/// Lock-free all-reduce `min` over one `u64` per shard per round: two
/// cache-line transfers per hand-off while the peer is running.
struct MinReduce {
    slots: Vec<ReduceSlot>,
    /// Set when a worker unwinds, so that its peers fail too.
    poisoned: AtomicBool,
}

impl MinReduce {
    fn new(shards: usize) -> Self {
        MinReduce {
            slots: (0..shards).map(|_| ReduceSlot::default()).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Publish `value` as shard `me`'s share of its next round and
    /// return the minimum over every shard's share of that round.
    fn all_min(&self, me: usize, value: u64) -> u64 {
        let round = self.slots[me].round.load(Relaxed);
        let parity = (round & 1) as usize;
        self.slots[me].value[parity].store(value, Relaxed);
        // Release, paired with the Acquire below: whoever sees the new
        // round also sees the value and this shard's inbox deposits.
        self.slots[me].round.store(round + 1, Release);
        let mut min = value;
        for slot in &self.slots {
            // Poll, handing the CPU to whoever is runnable in between: a
            // running peer is met without a wake-up, and a peer that
            // needs this CPU (more workers than cores) gets it.
            while slot.round.load(Acquire) <= round {
                assert!(!self.poisoned.load(Relaxed), "a peer shard panicked");
                std::thread::yield_now();
            }
            min = min.min(slot.value[parity].load(Relaxed));
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard `t`'s share of round `r`: seeded noise, thinned so that
    /// `u64::MAX` ("nothing pending") turns up as well.
    fn share(seed: u64, t: usize, r: u64) -> u64 {
        let x = mix64(seed, (t as u64) << 40 | r);
        if x.is_multiple_of(7) {
            u64::MAX
        } else {
            x >> 8
        }
    }

    /// Every thread must see the oracle minimum in every round;
    /// `silent` shards publish `u64::MAX` throughout.
    fn check_all_rounds(threads: usize, rounds: u64, seed: u64, silent: &[usize]) {
        let share_of = |t: usize, r: u64| {
            if silent.contains(&t) {
                u64::MAX
            } else {
                share(seed, t, r)
            }
        };
        let reduce = &MinReduce::new(threads);
        // A thread that saw a wrong minimum keeps publishing (its peers
        // would wait forever otherwise) and reports the first one.
        let wrong: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|me| {
                    scope.spawn(move || {
                        let mut wrong = None;
                        for r in 0..rounds {
                            let oracle = (0..threads).map(|t| share_of(t, r)).min();
                            let got = reduce.all_min(me, share_of(me, r));
                            if Some(got) != oracle {
                                wrong = wrong.or(Some((me, r, got, oracle)));
                            }
                        }
                        wrong
                    })
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().expect("worker"))
                .collect()
        });
        assert_eq!(wrong, [], "(thread, round, got, oracle)");
    }

    #[test]
    fn more_threads_than_cpus_agree_on_every_minimum() {
        check_all_rounds(8, 50_000, 0xfeed, &[]);
    }

    #[test]
    fn two_threads_agree_over_a_million_rounds() {
        check_all_rounds(2, 1_000_000, 0xbeef, &[]);
    }

    #[test]
    fn a_shard_with_nothing_pending_never_lowers_the_minimum() {
        check_all_rounds(3, 50_000, 0xcafe, &[1]);
        check_all_rounds(2, 1_000, 0xcafe, &[0, 1]);
    }
}

//! The event queue: one binary heap per event class, popped in a
//! canonical [`EventKey`] order.
//!
//! The single-threaded simulator used to break time ties by insertion
//! order, which is deterministic but *schedule-dependent*: two shards
//! inserting the same logical events in different orders would disagree.
//! The canonical key orders events by content instead —
//! `(time, class, major, minor)` — so every shard's queue, and the
//! one-shard queue, pop the same logical sequence. Cross-shard mailboxes
//! need no separate merge step: delivered events simply take their place
//! in key order.
//!
//! Classes at equal time: scheduled faults fire first, then host
//! timers, then transmitter-free events, then frame arrivals (which are
//! pushed last by the transmit path). A fault may be installed mid-run
//! and even at a time already past; it then pops before everything
//! pending, and its time is not clamped. `major` identifies the target
//! (a `(node, port)` key, a host, or a fault-plan entry index) and
//! `minor` a per-target monotone sequence (per-link-direction frame
//! counter, per-host timer counter).
//!
//! Host timers sit far ahead of the near-term link-free and frame
//! events, so each class waits in a heap of its own (faults share the
//! timers' heap): a pop sifts only through its own class, and
//! [`EventQueue::pop_if`] takes the least of the three tops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::fault::ChannelProfile;
use crate::node::{HostId, SwitchId};
use tpp_asic::PortId;

/// Where an event is delivered: a dense `u32` node id. Switches are
/// their index, hosts set the top bit. Half the size of the old
/// two-word `NodeRef` enum, which matters because every frame arrival
/// and link-free event in every shard queue carries one; the ordering
/// (switches below hosts, then index) matches the canonical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

const HOST_BIT: u32 = 1 << 31;

impl NodeId {
    /// The id of a switch.
    pub fn switch(s: SwitchId) -> Self {
        debug_assert!((s.0 as u32) < HOST_BIT);
        NodeId(s.0 as u32)
    }

    /// The id of a host.
    pub fn host(h: HostId) -> Self {
        debug_assert!((h.0 as u32) < HOST_BIT);
        NodeId(h.0 as u32 | HOST_BIT)
    }

    /// Whether this id names a host (else a switch).
    pub(crate) fn is_host(self) -> bool {
        self.0 & HOST_BIT != 0
    }

    /// The dense switch or host index.
    pub fn index(self) -> usize {
        (self.0 & !HOST_BIT) as usize
    }
}

pub(crate) const CLASS_FAULT: u8 = 0;
pub(crate) const CLASS_TIMER: u8 = 1;
pub(crate) const CLASS_LINK_FREE: u8 = 2;
pub(crate) const CLASS_FRAME: u8 = 3;

/// A canonical `(node, port)` ordering key: switches below hosts, then
/// node index, then port. Bit-compatible with the pre-`NodeId` key, so
/// fingerprints and RNG streams keyed on it are unchanged.
pub(crate) fn node_port_key(node: NodeId, port: PortId) -> u64 {
    let host_bit = ((node.0 >> 31) as u64) << 63;
    host_bit | ((node.index() as u64) << 16) | port as u64
}

/// The `(node, port)` a [`node_port_key`] was made from: how a frame
/// arrival's receiver is read back from its key.
pub(crate) fn node_port_of(key: u64) -> (NodeId, PortId) {
    let host_bit = ((key >> 63) as u32) << 31;
    let index = (key >> 16) as u32 & !HOST_BIT;
    (NodeId(host_bit | index), key as PortId)
}

/// The canonical total order on simulation events.
///
/// Keys are derived from event *content*, never from insertion order, so
/// seeded runs order identically for every shard count. Lexicographic:
/// time, then class, then target, then per-target sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Absolute simulation time, ns.
    pub time: u64,
    pub(crate) class: u8,
    pub(crate) major: u64,
    pub(crate) minor: u64,
}

impl EventKey {
    /// Key of a scheduled fault step: `entry` is the global plan-entry
    /// index (plan order is preserved at equal times), `dir` orders the
    /// two per-direction steps of a full-duplex link fault.
    pub(crate) fn fault(time: u64, entry: u64, dir: u64) -> Self {
        EventKey {
            time,
            class: CLASS_FAULT,
            major: entry,
            minor: dir,
        }
    }

    /// Key of a host timer firing; `seq` is the per-host timer counter.
    pub(crate) fn timer(time: u64, host: HostId, seq: u64) -> Self {
        EventKey {
            time,
            class: CLASS_TIMER,
            major: (1u64 << 63) | ((host.0 as u64) << 16),
            minor: seq,
        }
    }

    /// Key of a transmitter becoming free at `(node, port)`.
    pub(crate) fn link_free(time: u64, node: NodeId, port: PortId) -> Self {
        EventKey {
            time,
            class: CLASS_LINK_FREE,
            major: node_port_key(node, port),
            minor: 0,
        }
    }

    /// Whether this keys a frame arrival at `node`, on any port, at
    /// `time`: the next frame of an arrival burst.
    pub(crate) fn is_frame_to(&self, node: NodeId, time: u64) -> bool {
        self.class == CLASS_FRAME
            && self.time == time
            && self.major >> 16 == node_port_key(node, 0) >> 16
    }

    /// Key of a frame arrival at `(node, port)`; `seq` is the
    /// transmitting link direction's frame counter (duplicated copies
    /// take the lower sequence, so they deliver before the original).
    pub(crate) fn frame(time: u64, node: NodeId, port: PortId, seq: u64) -> Self {
        EventKey {
            time,
            class: CLASS_FRAME,
            major: node_port_key(node, port),
            minor: seq,
        }
    }
}

/// One shard-local step of an injected fault.
///
/// [`FaultAction`](crate::fault::FaultAction) entries are expanded at
/// install time into steps that each touch state owned by exactly one
/// shard (a full-duplex link flap becomes two per-direction steps), so
/// fault application never reaches across a shard boundary.
#[derive(Debug, Clone, Copy)]
pub enum FaultApply {
    /// Set the up/down state of the link direction transmitted from
    /// `(node, port)`.
    SetLinkUp {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortId,
        /// New state: `true` restores the direction, `false` black-holes
        /// it.
        up: bool,
    },
    /// Reboot a switch: wipe SRAM, bump the boot epoch, restore its L2
    /// routes from the precomputed control-plane tables.
    Reboot {
        /// The switch.
        switch: SwitchId,
    },
    /// Replace the channel fault profile of the link direction
    /// transmitted from `(node, port)`.
    SetChannel {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortId,
        /// The new profile.
        profile: ChannelProfile,
    },
}

/// What happens.
#[derive(Debug)]
pub enum EventKind {
    /// A frame finished arriving. Its receiving node and port (for hosts,
    /// the NIC index) are read from the key's `major` ([`node_port_of`]),
    /// which leaves room for the tail without widening the event.
    FrameArrive {
        /// The frame's head: every byte a sender wrote.
        frame: Vec<u8>,
        /// Zero bytes the wire carries after the head; the frame's wire
        /// length is `frame.len() + tail`.
        tail: u32,
    },
    /// The transmitter at `(node, port)` finished serializing a frame and
    /// may start the next one.
    LinkFree {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortId,
    },
    /// A host timer fired.
    Timer {
        /// The host.
        host: HostId,
        /// App-defined token.
        token: u64,
    },
    /// A scheduled fault step fires (installed via
    /// [`Simulator::install_faults`](crate::Simulator::install_faults)).
    Fault {
        /// The shard-local step to apply.
        apply: FaultApply,
    },
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// Canonical ordering key.
    pub key: EventKey,
    /// Payload.
    pub kind: EventKind,
}

// Every pending event of every shard has this width, and frame arrivals
// are most of them: a wider event measured 0.86-0.92x events/s.
const _: () = assert!(std::mem::size_of::<Event>() == 64);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other.key.cmp(&self.key)
    }
}

/// Which heap of an [`EventQueue`] holds events of `class`: faults and
/// timers, then link-free events, then frame arrivals. Heap order is
/// class order.
fn heap_of(class: u8) -> usize {
    match class {
        CLASS_FAULT | CLASS_TIMER => 0,
        CLASS_LINK_FREE => 1,
        _ => 2,
    }
}

/// A deterministic min-queue of events in canonical key order, kept as
/// one heap per class (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heaps: [BinaryHeap<Event>; 3],
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule an event under its canonical key.
    pub(crate) fn push(&mut self, event: Event) {
        self.heaps[heap_of(event.key.class)].push(event);
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heaps
            .iter()
            .filter_map(|h| h.peek())
            .map(|e| e.key.time)
            .min()
    }

    /// Pop the earliest event if `pred` holds for its key. The three
    /// heap tops are ranked once, as `(time, heap)`: keys in different
    /// heaps never tie, and heap order is class order.
    pub(crate) fn pop_if(&mut self, pred: impl FnOnce(&EventKey) -> bool) -> Option<Event> {
        let rank = |i: usize| {
            self.heaps[i]
                .peek()
                .map_or(u128::MAX, |e| ((e.key.time as u128) << 2) | i as u128)
        };
        let least = rank(0).min(rank(1)).min(rank(2));
        let heap = self.heaps.get_mut((least & 3) as usize)?;
        if pred(&heap.peek()?.key) {
            heap.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timer_kind(token: u64) -> EventKind {
        EventKind::Timer {
            host: HostId(0),
            token,
        }
    }

    fn push(q: &mut EventQueue, key: EventKey, kind: EventKind) {
        q.push(Event { key, kind });
    }

    fn pop(q: &mut EventQueue) -> Option<Event> {
        q.pop_if(|_| true)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        push(&mut q, EventKey::timer(30, HostId(0), 0), timer_kind(0));
        push(&mut q, EventKey::timer(10, HostId(0), 1), timer_kind(1));
        push(&mut q, EventKey::timer(20, HostId(0), 2), timer_kind(2));
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(pop(&mut q).unwrap().key.time, 10);
        assert_eq!(pop(&mut q).unwrap().key.time, 20);
        assert_eq!(pop(&mut q).unwrap().key.time, 30);
        assert!(pop(&mut q).is_none());
    }

    #[test]
    fn node_id_roundtrips_and_orders() {
        let s = NodeId::switch(SwitchId(3));
        let h = NodeId::host(HostId(3));
        assert!(!s.is_host());
        assert!(h.is_host());
        assert_eq!(s.index(), 3);
        assert_eq!(h.index(), 3);
        assert!(s < h, "switches order below hosts");
        assert_eq!(
            node_port_key(s, 2),
            (3u64 << 16) | 2,
            "bit-compatible with the pre-NodeId key"
        );
        assert_eq!(node_port_key(h, 2), (1u64 << 63) | (3u64 << 16) | 2);
    }

    #[test]
    fn node_port_key_round_trips_at_the_extremes() {
        let top = HOST_BIT as usize - 1;
        for index in [0, 1, 0xFFFF, 0x1_0000, top] {
            for node in [NodeId::switch(SwitchId(index)), NodeId::host(HostId(index))] {
                for port in [0, 1, PortId::MAX - 1, PortId::MAX] {
                    let key = EventKey::frame(9, node, port, 0);
                    assert_eq!(
                        node_port_of(key.major),
                        (node, port),
                        "{node:?} port {port}"
                    );
                    assert!(key.is_frame_to(node, 9));
                }
            }
        }
    }

    #[test]
    fn ties_break_by_class_then_target() {
        let mut q = EventQueue::new();
        let node = NodeId::switch(SwitchId(1));
        // Push in scrambled order; pops must follow the canonical class
        // order: fault, timer, link-free, frame.
        push(
            &mut q,
            EventKey::frame(5, node, 0, 0),
            EventKind::FrameArrive {
                frame: vec![],
                tail: 0,
            },
        );
        push(
            &mut q,
            EventKey::link_free(5, node, 0),
            EventKind::LinkFree { node, port: 0 },
        );
        push(&mut q, EventKey::timer(5, HostId(0), 0), timer_kind(0));
        push(
            &mut q,
            EventKey::fault(5, 0, 0),
            EventKind::Fault {
                apply: FaultApply::Reboot {
                    switch: SwitchId(1),
                },
            },
        );
        let classes: Vec<u8> = std::iter::from_fn(|| pop(&mut q))
            .map(|e| e.key.class)
            .collect();
        assert_eq!(
            classes,
            vec![CLASS_FAULT, CLASS_TIMER, CLASS_LINK_FREE, CLASS_FRAME]
        );
    }

    #[test]
    fn equal_time_timers_pop_in_sequence_order() {
        let mut q = EventQueue::new();
        for (seq, token) in [(2u64, 3u64), (0, 1), (1, 2)] {
            push(
                &mut q,
                EventKey::timer(5, HostId(0), seq),
                timer_kind(token),
            );
        }
        let mut tokens = Vec::new();
        while let Some(e) = pop(&mut q) {
            if let EventKind::Timer { token, .. } = e.kind {
                tokens.push(token);
            }
        }
        assert_eq!(tokens, vec![1, 2, 3], "per-host timer sequence orders ties");
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        // The property the sharded scheduler rests on: any insertion
        // order of the same event set pops identically.
        let node = NodeId::host(HostId(2));
        let keys = [
            EventKey::frame(7, node, 0, 4),
            EventKey::frame(7, node, 0, 1),
            EventKey::timer(7, HostId(2), 0),
            EventKey::frame(6, node, 0, 9),
        ];
        let pop_order = |order: &[usize]| -> Vec<EventKey> {
            let mut q = EventQueue::new();
            for &i in order {
                push(&mut q, keys[i], EventKind::LinkFree { node, port: 0 });
            }
            std::iter::from_fn(|| pop(&mut q)).map(|e| e.key).collect()
        };
        let a = pop_order(&[0, 1, 2, 3]);
        let b = pop_order(&[3, 2, 1, 0]);
        let c = pop_order(&[1, 3, 0, 2]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    /// Pop under `key.time < bound` and check the key against the least
    /// of `reference`, removing it there too; `last` follows the pops.
    fn pop_checked(
        q: &mut EventQueue,
        reference: &mut Vec<EventKey>,
        last: &mut u64,
        bound: u64,
    ) -> Result<(), TestCaseError> {
        reference.sort_unstable_by(|a, b| b.cmp(a));
        let expected = reference.last().copied().filter(|k| k.time < bound);
        let got = q.pop_if(|key| key.time < bound).map(|e| e.key);
        prop_assert_eq!(got, expected);
        if let Some(key) = expected {
            reference.pop();
            *last = key.time;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The three heaps pop exactly what one sorted list of keys
        /// would. Each op is `(action, class, dt, target)`: actions 0–5
        /// push (action 0 at `dt` *below* the last popped time, as a
        /// fault installed in the past is), 6–9 pop under the time bound
        /// `last + dt`. Small `dt` and `target` ranges make equal times
        /// across and within classes, and equal keys, common.
        #[test]
        fn pops_match_a_sorted_reference(
            ops in proptest::collection::vec((0u8..10, 0u8..4, 0u64..6, 0u64..12), 1..160)
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<EventKey> = Vec::new();
            let mut last = 100u64;
            for (action, class, dt, target) in ops {
                if action < 6 {
                    let time = if action == 0 { last.saturating_sub(dt) } else { last + dt };
                    let key = EventKey {
                        time,
                        class,
                        major: target % 3,
                        minor: target / 3,
                    };
                    push(&mut q, key, timer_kind(0));
                    reference.push(key);
                } else {
                    let bound = last + dt;
                    pop_checked(&mut q, &mut reference, &mut last, bound)?;
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while !reference.is_empty() {
                pop_checked(&mut q, &mut reference, &mut last, u64::MAX)?;
            }
            prop_assert!(pop(&mut q).is_none());
        }
    }
}

//! The trace sink: where pipeline events go.
//!
//! The dataplane holds an `Option<SharedSink>` and emits only when one
//! is attached — the disabled path is a null check, which is what lets
//! tracing live inside `handle_frame` without taxing the line-rate
//! benchmarks. [`SharedSink`] is the one sink: a bounded ring that every
//! switch of a run can share.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A bounded ring buffer of the most recent events.
#[derive(Debug)]
struct RingBufferSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    shed: u64,
}

/// A clonable handle over one bounded ring of events, letting one
/// buffer collect the event streams of many switches (and letting the
/// caller keep a handle to read events back out after handing a clone
/// to the dataplane).
///
/// Holding at most `capacity` events, it sheds the oldest when full and
/// counts them in [`SharedSink::shed`]: tracing must never grow without
/// bound inside a long simulation.
///
/// Shards step switches from worker threads, so the shared buffer sits
/// behind a `Mutex`. Events from different shards interleave in lock
/// acquisition order; [`SharedSink::events`] and [`SharedSink::drain`]
/// therefore re-establish the canonical order — a stable sort by
/// `(t_ns, switch_id)` — so readers see the same sequence regardless of
/// shard count or thread scheduling. Within one switch, events keep
/// their emission order (a switch's clock is monotone and lives on one
/// shard).
#[derive(Debug, Clone)]
pub struct SharedSink(Arc<Mutex<RingBufferSink>>);

impl SharedSink {
    /// A shared ring buffer of `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        SharedSink(Arc::new(Mutex::new(RingBufferSink {
            events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            shed: 0,
        })))
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, RingBufferSink> {
        self.0.lock().expect("sink lock poisoned")
    }

    /// Consume one event. The dataplane calls this inline from
    /// `handle_frame`, so it only appends; serialization and IO belong
    /// in an exporter run afterwards.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.shed += 1;
        }
        ring.events.push_back(event);
    }

    /// Snapshot the buffered events in canonical order: stable-sorted by
    /// `(t_ns, switch_id)`, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.ring().events.iter().copied().collect();
        events.sort_by_key(|e| (e.t_ns, e.switch_id));
        events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring().events.is_empty()
    }

    /// Events shed because the buffer was full.
    pub fn shed(&self) -> u64 {
        self.ring().shed
    }

    /// Drain all buffered events, in the same canonical order as
    /// [`SharedSink::events`].
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.ring().events.drain(..).collect();
        events.sort_by_key(|e| (e.t_ns, e.switch_id));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            t_ns: seq,
            switch_id: 1,
            seq,
            kind: TraceEventKind::LookupMiss,
        }
    }

    #[test]
    fn ring_buffer_sheds_oldest() {
        let sink = SharedSink::new(3);
        for i in 0..5 {
            sink.record(ev(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.shed(), 2);
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest shed first");
    }

    #[test]
    fn shared_sink_fans_in() {
        let shared = SharedSink::new(16);
        let (a, b) = (shared.clone(), shared.clone());
        a.record(ev(1));
        b.record(ev(2));
        a.record(ev(3));
        assert_eq!(shared.len(), 3);
        let seqs: Vec<u64> = shared.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "arrival order preserved");
    }

    #[test]
    fn events_sort_canonically_across_switches() {
        let shared = SharedSink::new(16);
        let s = shared.clone();
        // Two switches' streams interleaved out of id order, as a
        // multi-shard run would record them.
        s.record(TraceEvent {
            t_ns: 5,
            switch_id: 2,
            seq: 0,
            kind: TraceEventKind::LookupMiss,
        });
        s.record(TraceEvent {
            t_ns: 5,
            switch_id: 1,
            seq: 0,
            kind: TraceEventKind::LookupMiss,
        });
        s.record(TraceEvent {
            t_ns: 4,
            switch_id: 2,
            seq: 1,
            kind: TraceEventKind::LookupMiss,
        });
        let order: Vec<(u64, u32)> = shared
            .events()
            .iter()
            .map(|e| (e.t_ns, e.switch_id))
            .collect();
        assert_eq!(order, vec![(4, 2), (5, 1), (5, 2)]);
    }

    #[test]
    fn drain_empties() {
        let shared = SharedSink::new(4);
        let s = shared.clone();
        s.record(ev(9));
        assert_eq!(shared.drain().len(), 1);
        assert!(shared.is_empty());
    }
}

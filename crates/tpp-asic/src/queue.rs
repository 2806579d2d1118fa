//! Drop-tail egress queues.
//!
//! The memory-management module of Fig. 3 stores packets in switch memory
//! until the scheduler transmits them. We model each egress queue as a
//! byte-limited FIFO whose occupancy backs the `Queue:QueueSize` register —
//! the statistic §2.1's micro-burst detector samples per packet.
//!
//! A queued frame is its **head**, the bytes the pipeline parsed and may
//! have rewritten, plus its **tail**, a count of zero bytes the wire
//! carries after the head (a payload no stage reads, held as a number
//! instead of a buffer). Every byte count here — admission, occupancy,
//! drops — is the wire length `head.len() + tail`; only
//! [`approx_bytes`](DropTailQueue::approx_bytes) counts what is held.

use crate::stats::QueueStats;
use std::collections::VecDeque;

/// A byte-limited drop-tail FIFO of frames, each a head and a tail.
#[derive(Debug)]
pub struct DropTailQueue {
    frames: VecDeque<(Vec<u8>, u32)>,
    limit_bytes: u32,
    stats: QueueStats,
}

impl DropTailQueue {
    /// An empty queue with the given byte limit.
    pub fn new(limit_bytes: u32) -> Self {
        DropTailQueue {
            frames: VecDeque::new(),
            limit_bytes,
            stats: QueueStats::default(),
        }
    }

    /// Try to enqueue a frame of `frame.len() + tail` wire bytes. A frame
    /// that would exceed the byte limit is dropped: counted, and its head
    /// handed back as `Err` so its owner can reuse the buffer.
    pub fn enqueue(&mut self, frame: Vec<u8>, tail: u32) -> Result<(), Vec<u8>> {
        let len = frame.len() as u64 + tail as u64;
        if self.stats.queue_size_bytes + len > self.limit_bytes as u64 {
            self.stats.bytes_dropped += len;
            self.stats.packets_dropped += 1;
            return Err(frame);
        }
        self.stats.queue_size_bytes += len;
        self.stats.bytes_enqueued += len;
        self.stats.packets_enqueued += 1;
        self.stats.high_watermark_bytes = self
            .stats
            .high_watermark_bytes
            .max(self.stats.queue_size_bytes);
        self.frames.push_back((frame, tail));
        Ok(())
    }

    /// Dequeue the first frame, if any, as its head and tail.
    pub fn dequeue(&mut self) -> Option<(Vec<u8>, u32)> {
        let (frame, tail) = self.frames.pop_front()?;
        self.stats.queue_size_bytes -= frame.len() as u64 + tail as u64;
        Some((frame, tail))
    }

    /// Instantaneous occupancy in bytes (`Queue:QueueSize`).
    pub(crate) fn len_bytes(&self) -> u64 {
        self.stats.queue_size_bytes
    }

    /// Number of queued frames.
    #[cfg(test)]
    fn len_frames(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The configured byte limit (`Queue:Limit`).
    pub fn limit_bytes(&self) -> u32 {
        self.limit_bytes
    }

    /// The queue's statistics registers.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Approximate resident heap bytes: the frame ring plus the held
    /// head buffers. Tails are counts, not bytes held, so a queue of
    /// tailed frames holds far less than its `Queue:QueueSize`.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.frames.capacity() * std::mem::size_of::<(Vec<u8>, u32)>()
            + self.frames.iter().map(|(f, _)| f.capacity()).sum::<usize>()
    }

    /// Clone the queued frames first-in first (snapshot support).
    pub(crate) fn frames_snapshot(&self) -> Vec<(Vec<u8>, u32)> {
        self.frames.iter().cloned().collect()
    }

    /// Rebuild a queue from snapshotted parts. The caller is responsible
    /// for the invariant `stats.queue_size_bytes == Σ (head + tail)`; the
    /// restore path in `Asic::restore` only ever feeds back values taken
    /// from `frames_snapshot`/`stats`, where it holds by construction.
    pub(crate) fn from_state(
        limit_bytes: u32,
        stats: QueueStats,
        frames: Vec<(Vec<u8>, u32)>,
    ) -> Self {
        DropTailQueue {
            frames: frames.into(),
            limit_bytes,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_occupancy() {
        let mut q = DropTailQueue::new(1000);
        assert!(q.enqueue(vec![1; 100], 0).is_ok());
        assert!(q.enqueue(vec![2; 200], 0).is_ok());
        assert_eq!(q.len_bytes(), 300);
        assert_eq!(q.len_frames(), 2);
        assert_eq!(q.dequeue().unwrap(), (vec![1; 100], 0));
        assert_eq!(q.len_bytes(), 200);
        assert_eq!(q.dequeue().unwrap(), (vec![2; 200], 0));
        assert!(q.dequeue().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut q = DropTailQueue::new(250);
        assert!(q.enqueue(vec![0; 200], 0).is_ok());
        assert_eq!(
            q.enqueue(vec![0; 100], 0),
            Err(vec![0; 100]),
            "would exceed limit; the frame comes back"
        );
        assert_eq!(q.stats().packets_dropped, 1);
        assert_eq!(q.stats().bytes_dropped, 100);
        // A smaller frame that fits is still accepted (drop-tail, not
        // gate-closed).
        assert!(q.enqueue(vec![0; 50], 0).is_ok());
        assert_eq!(q.len_bytes(), 250);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut q = DropTailQueue::new(1000);
        let _ = q.enqueue(vec![0; 400], 0);
        let _ = q.enqueue(vec![0; 400], 0);
        q.dequeue();
        let _ = q.enqueue(vec![0; 100], 0);
        assert_eq!(q.stats().high_watermark_bytes, 800);
    }

    #[test]
    fn conservation_of_bytes() {
        // enqueued = in-queue + dequeued; dropped accounted separately.
        let mut q = DropTailQueue::new(500);
        let mut dequeued = 0u64;
        for i in 0..20 {
            let _ = q.enqueue(vec![0; 60 + i], 0);
            if i % 3 == 0 {
                if let Some((f, tail)) = q.dequeue() {
                    dequeued += f.len() as u64 + tail as u64;
                }
            }
        }
        let s = q.stats();
        assert_eq!(s.bytes_enqueued, q.len_bytes() + dequeued);
    }
}

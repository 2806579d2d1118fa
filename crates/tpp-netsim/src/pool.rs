//! Frame-buffer pool: recycles `Vec<u8>` capacity through the simulator's
//! hot loop.
//!
//! Every frame in flight is an owned `Vec<u8>`. Without a pool, each send
//! allocates and each drop frees — at datacenter scale that is one
//! allocator round-trip per frame. The pool keeps the capacity of frames
//! the simulator consumed (in-flight losses, link-down drops, black-holed
//! frames on unconnected ports, frames a switch's pipeline dropped) and
//! of frames host apps are done with, and hands it back to senders
//! through [`crate::HostCtx::alloc_frame`] and to the fault layer's
//! duplication path.
//!
//! Buffers are kept in two size classes, because traffic is bimodal —
//! ACKs, probes, echoes and the heads of tailed data frames
//! ([`crate::HostCtx::send_with_tail`]) are tens of bytes, whole data
//! segments are ~1.5 KB — and [`recycle`](FramePool::recycle) accepts
//! buffers the pool never handed out. In one shared list every small
//! buffer an app built outside the pool is sooner or later popped for a
//! data segment and grown (a `realloc`), small requests inherit
//! full-size buffers, and the idle list fills to its bound with those:
//! one unpooled probe sender on the closed-loop fat-tree costs +45 %
//! peak RSS that way, +0 % with classes (DESIGN.md, "Who owns a frame
//! buffer"). A request of at most [`SMALL_FRAME`] bytes is only ever
//! served from the small list, anything larger only from the large one.
//! A small buffer is made at the top of its class, so any small request
//! can reuse it: the list is LIFO, and a 38-byte head popped for a
//! 150-byte probe would otherwise be grown (a `realloc`) once per probe.
//!
//! The pool is pure capacity reuse: a recycled buffer is always cleared
//! before reuse, so it has no effect on simulation results.

/// Largest capacity, in bytes, of the small size class.
pub const SMALL_FRAME: usize = 256;

/// Retired frame buffers, in two bounded size-class stacks.
#[derive(Debug)]
pub struct FramePool {
    small: Vec<Vec<u8>>,
    large: Vec<Vec<u8>>,
    max_buffers: usize,
    recycled: u64,
    reused: u64,
    fresh: u64,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new(1024)
    }
}

impl FramePool {
    /// A pool retaining at most `max_buffers` retired buffers per size
    /// class.
    pub fn new(max_buffers: usize) -> Self {
        FramePool {
            small: Vec::new(),
            large: Vec::new(),
            max_buffers,
            recycled: 0,
            reused: 0,
            fresh: 0,
        }
    }

    /// An empty buffer with at least `capacity` bytes reserved, reusing a
    /// retired buffer of the same size class when one is available.
    pub fn alloc(&mut self, capacity: usize) -> Vec<u8> {
        let small = capacity <= SMALL_FRAME;
        let list = if small {
            &mut self.small
        } else {
            &mut self.large
        };
        match list.pop() {
            Some(mut buf) => {
                self.reused += 1;
                buf.clear();
                if buf.capacity() < capacity {
                    // Only a buffer built outside the pool can be short.
                    // Grow a small one to the top of its class at once,
                    // so it is never grown a second time.
                    buf.reserve_exact(if small { SMALL_FRAME } else { capacity });
                }
                buf
            }
            None => {
                self.fresh += 1;
                Vec::with_capacity(if small { SMALL_FRAME } else { capacity })
            }
        }
    }

    /// A buffer holding a copy of `bytes` (the duplication fast path).
    pub(crate) fn copy_of(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.alloc(bytes.len());
        buf.extend_from_slice(bytes);
        buf
    }

    /// Retire a consumed frame, keeping its capacity for a later
    /// [`alloc`](Self::alloc) of its size class. Buffers beyond the
    /// class's bound (or with no capacity worth keeping) are simply
    /// freed.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        let list = if frame.capacity() <= SMALL_FRAME {
            &mut self.small
        } else {
            &mut self.large
        };
        if frame.capacity() == 0 || list.len() >= self.max_buffers {
            return;
        }
        self.recycled += 1;
        list.push(frame);
    }

    /// Buffers currently retired and waiting for reuse, both classes.
    pub fn idle(&self) -> usize {
        self.small.len() + self.large.len()
    }

    /// `(reused, fresh, recycled)` counters: allocations served from the
    /// pool, allocations that fell through to the allocator, and buffers
    /// accepted back.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.reused, self.fresh, self.recycled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_capacity_is_reused() {
        let mut pool = FramePool::new(8);
        let mut frame = Vec::with_capacity(1500);
        frame.extend_from_slice(&[7u8; 100]);
        pool.recycle(frame);
        let buf = pool.alloc(1000);
        assert!(buf.is_empty(), "recycled buffers come back cleared");
        assert!(buf.capacity() >= 1500, "capacity survived the round trip");
        assert_eq!(pool.stats(), (1, 0, 1));
    }

    #[test]
    fn small_requests_never_take_large_buffers() {
        let mut pool = FramePool::new(8);
        pool.recycle(Vec::with_capacity(1500));
        let ack = pool.alloc(56);
        assert!(ack.capacity() < 1500, "fresh, not the retired 1.5 KB one");
        assert_eq!(pool.stats(), (0, 1, 1));
        assert_eq!(pool.idle(), 1, "the large buffer is still waiting");
        // ... for a large request, and the retired ACK for a small one.
        pool.recycle(ack);
        assert!(pool.alloc(SMALL_FRAME + 1).capacity() >= 1500);
        assert!(pool.alloc(SMALL_FRAME).capacity() >= SMALL_FRAME);
        assert_eq!(pool.stats(), (2, 1, 2));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn short_small_buffer_grows_once_to_the_class_size() {
        let mut pool = FramePool::new(8);
        pool.recycle(Vec::with_capacity(40));
        let buf = pool.alloc(90);
        assert_eq!(buf.capacity(), SMALL_FRAME);
        pool.recycle(buf);
        assert_eq!(pool.alloc(200).capacity(), SMALL_FRAME, "same class still");
    }

    #[test]
    fn a_head_then_a_probe_reuse_one_buffer_without_growing_it() {
        let mut pool = FramePool::new(8);
        // Warm-up: the first head is the only fresh allocation.
        let head = pool.alloc(38);
        assert_eq!(head.capacity(), SMALL_FRAME, "made at the top of the class");
        let ptr = head.as_ptr();
        pool.recycle(head);
        for request in [150, 38, SMALL_FRAME, 56] {
            let buf = pool.alloc(request);
            assert_eq!(buf.capacity(), SMALL_FRAME, "never grown");
            assert_eq!(buf.as_ptr(), ptr, "the same allocation");
            pool.recycle(buf);
        }
        assert_eq!(pool.stats(), (4, 1, 5), "one fresh allocation in all");
    }

    #[test]
    fn each_class_honours_the_bound_and_stats_reconcile() {
        let mut pool = FramePool::new(2);
        for _ in 0..5 {
            pool.recycle(vec![0u8; 10]);
            pool.recycle(vec![0u8; 1000]);
        }
        pool.recycle(Vec::new());
        assert_eq!(pool.idle(), 4, "two per class; the rest were freed");
        let taken: Vec<_> = [10, 10, 10, 1000].map(|n| pool.alloc(n)).into();
        assert!(taken.iter().all(Vec::is_empty));
        let (reused, fresh, recycled) = pool.stats();
        assert_eq!((reused, fresh, recycled), (3, 1, 4));
        // Every accepted buffer is either idle or was handed out again.
        assert_eq!(recycled, reused + pool.idle() as u64);
    }

    #[test]
    fn copy_of_round_trips_bytes() {
        let mut pool = FramePool::new(4);
        pool.recycle(vec![0u8; 64]);
        let copy = pool.copy_of(b"abc");
        assert_eq!(copy, b"abc");
    }
}

//! Rate limiting at the end-host.
//!
//! §2.2: "The implementation consists of a rate limiter and a rate
//! controller at end-hosts for every flow". [`PacedSender`] is that rate
//! limiter: it releases fixed-size data frames at a configurable rate;
//! the rate controller (in `tpp-apps::rcpstar`) adjusts the rate from
//! network feedback. [`TokenBucket`] is the burst-tolerant variant used
//! where strict pacing is not wanted.

use crate::probe::DATA_ETHERTYPE;
use tpp_wire::ethernet::{write_header, ETHERNET_HEADER_LEN};
use tpp_wire::EthernetAddress;

/// A classic token bucket: `rate_bps` sustained, `burst_bytes` of slack.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: u64,
    tokens_bytes: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens_bytes: burst_bytes as f64,
            last_ns: 0,
        }
    }

    /// Change the sustained rate (tokens already accrued are kept).
    pub fn set_rate_bps(&mut self, rate_bps: u64, now_ns: u64) {
        self.refill(now_ns);
        self.rate_bps = rate_bps;
    }

    /// The current sustained rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns.max(self.last_ns);
        let added = self.rate_bps as f64 * dt as f64 / 8e9;
        self.tokens_bytes = (self.tokens_bytes + added).min(self.burst_bytes as f64);
    }

    /// Try to send `bytes` now; debits the bucket on success.
    pub fn try_consume(&mut self, bytes: usize, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens_bytes >= bytes as f64 {
            self.tokens_bytes -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Nanoseconds until `bytes` worth of tokens will be available
    /// (0 if available now).
    pub fn time_until(&mut self, bytes: usize, now_ns: u64) -> u64 {
        self.refill(now_ns);
        let deficit = bytes as f64 - self.tokens_bytes;
        if deficit <= 0.0 {
            return 0;
        }
        if self.rate_bps == 0 {
            return u64::MAX;
        }
        (deficit * 8e9 / self.rate_bps as f64).ceil() as u64
    }
}

/// A strictly paced constant-size-frame sender: one frame every
/// `frame_bits / rate` nanoseconds.
///
/// The app drives it from a timer loop:
///
/// 1. call [`PacedSender::poll`] with the current time — when a frame
///    is due it builds one into a buffer from `alloc` (pass
///    `|n| ctx.alloc_frame(n)`) and advances the internal departure
///    clock;
/// 2. re-arm a timer for [`PacedSender::next_tx_ns`].
#[derive(Debug, Clone)]
pub struct PacedSender {
    dst: EthernetAddress,
    payload_len: usize,
    rate_bps: u64,
    next_tx_ns: u64,
    /// Total payload bytes released.
    pub bytes_sent: u64,
    /// Frames released.
    pub frames_sent: u64,
    seq: u32,
}

impl PacedSender {
    /// A sender of `payload_len`-byte datagrams to `dst`, starting at
    /// `start_ns`, initially at `rate_bps`.
    pub fn new(dst: EthernetAddress, payload_len: usize, rate_bps: u64, start_ns: u64) -> Self {
        assert!(payload_len >= 4, "payload carries a 4-byte sequence number");
        PacedSender {
            dst,
            payload_len,
            rate_bps,
            next_tx_ns: start_ns,
            bytes_sent: 0,
            frames_sent: 0,
            seq: 0,
        }
    }

    /// Current pacing rate, bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Change the pacing rate. Takes effect from the next departure; if
    /// the sender was stalled far in the past it catches up from `now`
    /// rather than bursting.
    pub fn set_rate_bps(&mut self, rate_bps: u64, now_ns: u64) {
        self.rate_bps = rate_bps.max(1);
        self.next_tx_ns = self.next_tx_ns.max(now_ns.saturating_sub(self.gap_ns()));
    }

    /// Inter-frame gap at the current rate.
    pub fn gap_ns(&self) -> u64 {
        let frame_bits = (self.payload_len as u64 + tpp_wire::ETHERNET_HEADER_LEN as u64) * 8;
        (frame_bits * 1_000_000_000).div_ceil(self.rate_bps.max(1))
    }

    /// When the next frame is due.
    pub fn next_tx_ns(&self) -> u64 {
        self.next_tx_ns
    }

    /// Release the next frame if it is due. At most one frame per call;
    /// callers loop if they polled late and want to catch up.
    pub fn poll(
        &mut self,
        now_ns: u64,
        src: EthernetAddress,
        alloc: impl FnOnce(usize) -> Vec<u8>,
    ) -> Option<Vec<u8>> {
        if now_ns < self.next_tx_ns {
            return None;
        }
        let len = ETHERNET_HEADER_LEN + self.payload_len;
        let mut frame = alloc(len);
        write_header(&mut frame, self.dst, src, DATA_ETHERTYPE);
        frame.extend_from_slice(&self.seq.to_be_bytes());
        frame.resize(len, 0);
        self.seq = self.seq.wrapping_add(1);
        self.bytes_sent += self.payload_len as u64;
        self.frames_sent += 1;
        self.next_tx_ns += self.gap_ns();
        // Never accumulate unbounded credit while idle/stalled.
        if self.next_tx_ns + self.gap_ns() < now_ns {
            self.next_tx_ns = now_ns + self.gap_ns();
        }
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn token_bucket_sustained_rate() {
        // 8 Mb/s = 1 MB/s; over 1 s, ~1 MB should pass in 1 KB units.
        let mut tb = TokenBucket::new(8_000_000, 2_000);
        let mut sent = 0u64;
        for t in 0..1_000_000u64 {
            let now = t * 1_000; // every µs
            if tb.try_consume(1_000, now) {
                sent += 1_000;
            }
        }
        assert!((990_000..=1_010_000).contains(&sent), "sent {sent}");
    }

    #[test]
    fn token_bucket_burst_then_starve() {
        let mut tb = TokenBucket::new(8_000, 5_000); // 1 KB/s, 5 KB burst
                                                     // Burst drains immediately.
        assert!(tb.try_consume(5_000, 0));
        assert!(!tb.try_consume(1, 0));
        // Refill takes 1 ms per byte at 1 KB/s.
        let wait = tb.time_until(1_000, 0);
        assert_eq!(wait, SEC, "1000 bytes at 1000 B/s");
        assert!(tb.try_consume(1_000, SEC));
    }

    #[test]
    fn token_bucket_rate_change() {
        let mut tb = TokenBucket::new(8_000, 1_000);
        tb.try_consume(1_000, 0);
        tb.set_rate_bps(16_000, 0);
        // Double rate: 1000 bytes in 0.5 s.
        assert!(!tb.try_consume(1_000, SEC / 4));
        assert!(tb.try_consume(1_000, SEC / 2));
    }

    #[test]
    fn paced_sender_spacing_and_sequence() {
        let dst = EthernetAddress::from_host_id(1);
        let src = EthernetAddress::from_host_id(2);
        // 1000-byte payload + 14 header = 8112 bits; 8.112 Mb/s -> 1 ms gap.
        let mut sender = PacedSender::new(dst, 1000, 8_112_000, 0);
        assert_eq!(sender.gap_ns(), 1_000_000);
        let f0 = sender.poll(0, src, Vec::with_capacity).unwrap();
        assert!(
            sender.poll(500_000, src, Vec::with_capacity).is_none(),
            "not due yet"
        );
        let f1 = sender.poll(1_000_000, src, Vec::with_capacity).unwrap();
        assert_eq!(&f0[14..18], &0u32.to_be_bytes());
        assert_eq!(&f1[14..18], &1u32.to_be_bytes());
        assert_eq!(sender.frames_sent, 2);
        assert_eq!(sender.bytes_sent, 2000);
    }

    #[test]
    fn paced_sender_rate_change_and_no_burst_catchup() {
        let dst = EthernetAddress::from_host_id(1);
        let src = EthernetAddress::from_host_id(2);
        let mut sender = PacedSender::new(dst, 1000, 8_112_000, 0);
        sender.poll(0, src, Vec::with_capacity).unwrap();
        // Stall for 100 ms, then poll: at most a small catch-up, not 100
        // frames at once.
        let mut burst = 0;
        let mut t = 100_000_000;
        while sender.poll(t, src, Vec::with_capacity).is_some() {
            burst += 1;
            t += 1; // same instant, 1 ns apart
            if burst > 10 {
                break;
            }
        }
        assert!(
            burst <= 3,
            "stall must not convert into a burst, got {burst}"
        );
        // Halve the rate: gap doubles.
        let old_gap = sender.gap_ns();
        sender.set_rate_bps(4_056_000, t);
        assert_eq!(sender.gap_ns(), old_gap * 2);
    }
}

//! A closed-loop, loss-recovering flow transport.
//!
//! The paper's end-host refactoring keeps all transport intelligence at
//! the hosts: switches only execute TPPs, and congestion feedback is
//! whatever the probe echoes carry back (§2.2). This module is that
//! host half for the FCT workload — per-flow sender/receiver state
//! machines with cumulative ACKs, an RTO from the EWMA RTT estimator
//! with deterministic backoff and jitter, bounded retransmission, and a
//! window that an RCP\*-style rate (decoded from TPP probe echoes by
//! `tpp-apps`) clamps from above. The paper's mechanism is the
//! congestion signal; nothing here peeks at simulator ground truth.
//!
//! The state machines are *pure*: they never touch a clock, a socket or
//! the simulator. Callers feed them `now`, ACK fields and rate updates,
//! and act on the returned descriptors — which is exactly what makes
//! them drivable over the scripted lossy channels of
//! `tests/transport_conformance.rs` (the Laminar-style conformance
//! layer) as well as by `tpp-bench`'s traffic generator.
//!
//! # Sender state machine
//!
//! ```text
//!             poll_send (window open)
//!            ┌───────────────┐
//!            ▼               │ DATA seq
//!  ┌──────────────────┐ ─────┘
//!  │     OPEN         │◄──────────────── ACK advances snd_una:
//!  │ snd_una..snd_nxt │                  backoff→0, cwnd+, RTT sample
//!  └───┬────────┬─────┘                  (Karn: only if tx_count==1)
//!      │        │ dup ACK ×3 ──► fast retransmit of snd_una (once
//!      │        │                per stall; suppressed until the
//!      │        │                window moves again)
//!      │        │ RTO fires  ──► go-back-N: snd_nxt←snd_una, cwnd←1,
//!      │        │                backoff+1 (capped), deterministic
//!      │        │                jittered deadline
//!      │        │ path epoch ──► cwnd←init, rate clamp cleared
//!      ▼        ▼
//!  COMPLETE   GAVE_UP (tx_count[snd_una] > max_retries)
//! ```
//!
//! The receiver holds `rcv_next` plus an out-of-order buffer (bounded by
//! the sender's window) and delivers every segment exactly once, in
//! order; duplicates and already-buffered arrivals still produce an ACK
//! (that is what carries the dup-ACK signal back).
//!
//! # Buffers
//!
//! A sender's one heap buffer is its per-segment transmission counters.
//! They are not a window ring: Karn's check reads the counter of the
//! segment an ACK echoes, and duplication or reordering delivers ACKs
//! for segments acknowledged long ago. A host running flow after flow
//! hands a finished sender's buffer to the next one
//! ([`FlowSender::into_tx_buffer`], [`FlowSender::reusing`]), so once
//! its buffers have grown, starting a flow allocates nothing. The
//! receiver's one buffer, its sorted out-of-order segments, is handed
//! on the same way ([`FlowReceiver::into_ooo_buffer`],
//! [`FlowReceiver::reusing`]).

use crate::rtt::RttEstimator;
use crate::splitmix64;
use tpp_wire::ethernet::{write_header, EtherType, EthernetAddress, ETHERNET_HEADER_LEN};

/// EtherType of transport segments (DATA and ACK), distinct from the
/// open-loop workload's [`DATA_ETHERTYPE`](crate::DATA_ETHERTYPE).
pub const TRANSPORT_ETHERTYPE: EtherType = EtherType(0x0803);

/// Transport header length in bytes (the Ethernet payload prefix).
pub const HDR_LEN: usize = 42;

/// Leading magic: shared with the FCT metadata convention, so the ECMP
/// flow-label extraction in `tpp-netsim::routing` sees transport
/// segments and flow probes alike.
pub const MAGIC: [u8; 2] = [0xF1, 0xC7];

/// `kind` byte of a data segment.
pub const KIND_DATA: u8 = 1;
/// `kind` byte of a cumulative ACK.
pub const KIND_ACK: u8 = 2;

/// Header flag: this data segment is the flow's last.
pub const FLAG_FIN: u8 = 0x01;
/// Header flag: the flow belongs to the workload's "mining" (elephant)
/// class; carried through to completion records.
pub const FLAG_MINING: u8 = 0x02;

/// Segment count of a flow of `total_bytes` at `mss`. Zero-byte flows
/// still carry one FIN segment. Shared by sender and receiver so both
/// agree on the flow's length without negotiating.
pub fn segments_for(total_bytes: u32, mss: u16) -> u32 {
    total_bytes.max(1).div_ceil(mss.max(1) as u32)
}

/// Tuning knobs of the transport; one value is shared by every flow of
/// an app. All fields are public so experiments can build values with
/// struct-update syntax from `default()`.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Maximum segment body, bytes. With the Ethernet and transport
    /// headers the default keeps wire frames at 1464 bytes.
    pub mss: u16,
    /// Initial congestion window, segments.
    pub init_cwnd: u32,
    /// Hard window ceiling, segments (bounds NIC queue growth).
    pub max_cwnd: u32,
    /// RTO before any RTT sample exists.
    pub initial_rto_ns: u64,
    /// Lower RTO clamp.
    pub min_rto_ns: u64,
    /// Upper RTO clamp (also caps backed-off deadlines).
    pub max_rto_ns: u64,
    /// Exponential-backoff exponent cap.
    pub backoff_cap: u32,
    /// Transmissions of one segment before the sender gives up.
    pub max_retries: u32,
    /// Duplicate ACKs that trigger a fast retransmit.
    pub dupack_threshold: u32,
    /// RTO jitter span in per-mille of the base RTO (decorrelates
    /// retransmit storms; drawn from a seeded stream, so deterministic).
    pub jitter_permille: u32,
    /// Seed of the jitter stream (mixed with the flow key).
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mss: 1408,
            init_cwnd: 8,
            max_cwnd: 64,
            initial_rto_ns: 5_000_000,
            min_rto_ns: 1_000_000,
            max_rto_ns: 100_000_000,
            backoff_cap: 6,
            max_retries: 16,
            dupack_threshold: 3,
            jitter_permille: 250,
            seed: 0x7199_7199,
        }
    }
}

/// Decoded transport header (both kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHdr {
    /// [`KIND_DATA`] or [`KIND_ACK`].
    pub kind: u8,
    /// [`FLAG_FIN`] | [`FLAG_MINING`].
    pub flags: u8,
    /// Total flow size, bytes. A `u32` byte count, so a flow of 4 GiB
    /// or more cannot be named, as in `traffic::Flow.bytes`.
    pub total_bytes: u32,
    /// Flow start time, ns (carried for FCT accounting).
    pub start_ns: u64,
    /// Flow key — also the ECMP flow label (bytes 16..24, after
    /// [`MAGIC`]).
    pub key: u64,
    /// DATA: segment index, not a byte offset. ACK: index of the data
    /// segment that triggered it (Karn disambiguation).
    pub seq: u32,
    /// ACK: cumulative next-expected segment. DATA: zero.
    pub ack: u32,
    /// DATA: transmit timestamp. ACK: echo of the data timestamp.
    pub ts: u64,
    /// DATA body bytes following the header.
    pub body_len: u16,
}

impl SegmentHdr {
    /// Wire length of this segment's frame: Ethernet and transport
    /// headers plus the body of a data segment (ACKs carry none).
    pub fn frame_len(&self) -> usize {
        let body = if self.kind == KIND_DATA {
            self.body_len as usize
        } else {
            0
        };
        ETHERNET_HEADER_LEN + HDR_LEN + body
    }

    /// Append this segment's whole Ethernet frame to `buf`: both headers
    /// and, for data segments, a zeroed body (the workload carries no
    /// real bytes). Everything is written once, straight into the
    /// caller's (pooled) buffer.
    pub fn write_frame(&self, dst: EthernetAddress, src: EthernetAddress, buf: &mut Vec<u8>) {
        let end = buf.len() + self.frame_len();
        write_header(buf, dst, src, TRANSPORT_ETHERTYPE);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[self.kind, self.flags]);
        buf.extend_from_slice(&self.total_bytes.to_be_bytes());
        buf.extend_from_slice(&self.start_ns.to_be_bytes());
        buf.extend_from_slice(&self.key.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.extend_from_slice(&self.ts.to_be_bytes());
        buf.extend_from_slice(&self.body_len.to_be_bytes());
        buf.resize(end, 0);
    }

    /// The cumulative ACK `ack` answering this data segment: flow
    /// fields copied, `seq`/`ts` echoed for Karn sampling and RTT.
    pub fn ack_for(&self, ack: u32) -> SegmentHdr {
        SegmentHdr {
            kind: KIND_ACK,
            ack,
            body_len: 0,
            ..*self
        }
    }

    /// Parse an Ethernet payload; `None` if it is not a transport
    /// segment.
    pub fn decode(p: &[u8]) -> Option<SegmentHdr> {
        if p.len() < HDR_LEN || p[0..2] != MAGIC || !matches!(p[2], KIND_DATA | KIND_ACK) {
            return None;
        }
        let be32 = |at: usize| u32::from_be_bytes(p[at..at + 4].try_into().expect("len checked"));
        let be64 = |at: usize| u64::from_be_bytes(p[at..at + 8].try_into().expect("len checked"));
        Some(SegmentHdr {
            kind: p[2],
            flags: p[3],
            total_bytes: be32(4),
            start_ns: be64(8),
            key: be64(16),
            seq: be32(24),
            ack: be32(28),
            ts: be64(32),
            body_len: u16::from_be_bytes([p[40], p[41]]),
        })
    }
}

/// One data transmission the sender wants on the wire now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSeg {
    /// Segment index.
    pub seq: u32,
    /// Body bytes (full MSS except possibly the last segment).
    pub body_len: u16,
    /// This is the flow's last segment.
    pub fin: bool,
    /// This transmission is a retransmit.
    pub retransmit: bool,
}

/// What an incoming ACK did to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The window advanced; more data may now be sendable.
    Advanced,
    /// Duplicate ACK absorbed (possibly arming a fast retransmit —
    /// visible through the next [`FlowSender::poll_send`]).
    Duplicate,
    /// This ACK completed the flow.
    Completed,
    /// Stale ACK for an already-finished flow.
    Ignored,
}

/// What an RTO expiry did to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoOutcome {
    /// Backed off and rewound; retransmissions follow via
    /// [`FlowSender::poll_send`].
    Retransmitting,
    /// The retry budget for the oldest segment is exhausted.
    GaveUp,
    /// Nothing was outstanding (spurious timer).
    Idle,
}

/// Sender half of one flow.
#[derive(Debug)]
pub struct FlowSender {
    cfg: TransportConfig,
    /// Flow key (also the ECMP label of every segment).
    pub key: u64,
    /// Flow start time, ns.
    pub start_ns: u64,
    total_bytes: u32,
    total_segs: u32,
    last_body: u16,
    mining: bool,
    snd_una: u32,
    snd_nxt: u32,
    cwnd: u32,
    dup_acks: u32,
    backoff: u32,
    pending_fast_rtx: bool,
    tx_count: Vec<u16>,
    est: RttEstimator,
    rate_bps: Option<u64>,
    rto_at: Option<u64>,
    jitter_draws: u64,
    gave_up: bool,
    /// Retransmitted segments (RTO-driven and fast).
    pub retransmits: u64,
    /// RTO expirations taken.
    pub rto_fires: u64,
    /// Fast retransmits taken.
    pub fast_retransmits: u64,
    /// Rate updates absorbed from probe echoes.
    pub rate_updates: u64,
    /// Path-epoch resets absorbed.
    pub epoch_resets: u64,
    /// Polls where the RCP\* rate clamp — not cwnd or flow exhaustion —
    /// closed the window.
    pub rate_limited_polls: u64,
    /// Deepest exponential-backoff rung this flow reached.
    pub max_backoff: u64,
}

impl FlowSender {
    /// A sender for `total_bytes` keyed by `key`, starting at
    /// `start_ns`. Zero-byte flows still carry one FIN segment.
    /// `total_bytes` is a `u32` byte count, so flows of 4 GiB or more are
    /// unrepresentable; segments are numbered by index, and the sender
    /// keeps one transmission counter per segment (Karn's rule reads it
    /// for every ACK, old segments included). That counter buffer is the
    /// sender's only allocation: [`FlowSender::reusing`] starts a flow on
    /// the buffer of a finished one instead.
    pub fn new(
        cfg: TransportConfig,
        key: u64,
        total_bytes: u32,
        mining: bool,
        start_ns: u64,
    ) -> FlowSender {
        FlowSender::reusing(Vec::new(), cfg, key, total_bytes, mining, start_ns)
    }

    /// [`FlowSender::new`], with the per-segment counters kept in
    /// `tx_count` — a buffer from [`FlowSender::into_tx_buffer`]. Its
    /// contents are discarded and every counter starts at zero, so the
    /// sender behaves exactly as a fresh one; only a flow longer than
    /// the buffer's capacity allocates.
    pub fn reusing(
        mut tx_count: Vec<u16>,
        cfg: TransportConfig,
        key: u64,
        total_bytes: u32,
        mining: bool,
        start_ns: u64,
    ) -> FlowSender {
        let mss = cfg.mss.max(1) as u32;
        let total_segs = segments_for(total_bytes, cfg.mss);
        let rem = total_bytes.max(1) % mss;
        let last_body = if rem == 0 { mss as u16 } else { rem as u16 };
        tx_count.clear();
        tx_count.resize(total_segs as usize, 0);
        FlowSender {
            key,
            start_ns,
            total_bytes,
            total_segs,
            last_body,
            mining,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: cfg.init_cwnd.max(1),
            dup_acks: 0,
            backoff: 0,
            pending_fast_rtx: false,
            tx_count,
            est: RttEstimator::new(),
            rate_bps: None,
            rto_at: None,
            jitter_draws: 0,
            gave_up: false,
            retransmits: 0,
            rto_fires: 0,
            fast_retransmits: 0,
            rate_updates: 0,
            epoch_resets: 0,
            rate_limited_polls: 0,
            max_backoff: 0,
            cfg,
        }
    }

    /// Give up the per-segment counter buffer once the flow is over, for
    /// the next flow's [`FlowSender::reusing`].
    pub fn into_tx_buffer(self) -> Vec<u16> {
        self.tx_count
    }

    /// All segments acknowledged.
    pub fn is_complete(&self) -> bool {
        self.snd_una == self.total_segs
    }

    /// The retry budget ran out.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Total flow size, bytes.
    pub fn total_bytes(&self) -> u32 {
        self.total_bytes
    }

    /// Segment count of the flow.
    pub fn total_segs(&self) -> u32 {
        self.total_segs
    }

    /// The mining-class flag.
    pub fn mining(&self) -> bool {
        self.mining
    }

    /// Absolute deadline of the pending RTO, if data is outstanding.
    pub fn rto_deadline(&self) -> Option<u64> {
        self.rto_at
    }

    /// The current smoothed RTT, if sampled.
    #[cfg(test)]
    fn srtt_ns(&self) -> Option<u64> {
        self.est.srtt_ns()
    }

    /// Cumulatively acknowledged segments (`snd_una`).
    pub fn acked_segs(&self) -> u32 {
        self.snd_una
    }

    /// The current effective window, segments — cwnd clamped by the
    /// rate window and the hard ceiling (what `poll_send` honors).
    pub fn effective_window(&self) -> u32 {
        self.effective_cwnd()
    }

    fn body_of(&self, seq: u32) -> u16 {
        if seq + 1 == self.total_segs {
            self.last_body
        } else {
            self.cfg.mss
        }
    }

    /// Wire bytes of one full-MSS segment (Ethernet + transport header
    /// + body) — the unit the rate clamp converts bits/s into segments.
    fn wire_seg_bytes(&self) -> u64 {
        14 + HDR_LEN as u64 + self.cfg.mss as u64
    }

    /// The effective window: additive-increase cwnd clamped by the
    /// RCP\*-rate window and the hard ceiling. The flag reports whether
    /// the rate clamp (not cwnd) is the binding constraint.
    fn cwnd_clamps(&self) -> (u32, bool) {
        let mut w = self.cwnd.min(self.cfg.max_cwnd);
        let mut rate_bound = false;
        if let Some(rate) = self.rate_bps {
            // rate [bit/s] × srtt [ns] / 8e9 = bytes in flight at the
            // granted rate; at least one segment so flows always drain.
            let srtt = self.est.srtt_or(self.cfg.initial_rto_ns / 2) as u128;
            let bytes = (rate as u128 * srtt) / 8_000_000_000u128;
            let segs = (bytes / self.wire_seg_bytes() as u128).max(1) as u64;
            let rate_w = segs.min(u32::MAX as u64) as u32;
            if rate_w < w {
                w = rate_w;
                rate_bound = true;
            }
        }
        (w.max(1), rate_bound)
    }

    fn effective_cwnd(&self) -> u32 {
        self.cwnd_clamps().0
    }

    /// Current RTO with backoff and the deterministic jitter draw.
    fn next_rto(&mut self) -> u64 {
        let base = self
            .est
            .srtt_ns()
            .map(|s| s + 4 * self.est.rttvar_ns())
            .unwrap_or(self.cfg.initial_rto_ns)
            .clamp(self.cfg.min_rto_ns, self.cfg.max_rto_ns);
        let backed = base
            .saturating_mul(1u64 << self.backoff.min(self.cfg.backoff_cap))
            .min(self.cfg.max_rto_ns);
        let span = backed / 1000 * self.cfg.jitter_permille as u64;
        let jitter = if span == 0 {
            0
        } else {
            let draw = splitmix64(self.cfg.seed ^ self.key ^ self.jitter_draws);
            self.jitter_draws += 1;
            draw % span
        };
        backed + jitter
    }

    /// Next data transmission to put on the wire, or `None` when the
    /// window is closed (or the flow is done). Arms the RTO on the
    /// first outstanding segment. Callers loop until `None` to fill
    /// the window.
    pub fn poll_send(&mut self, now: u64) -> Option<DataSeg> {
        if self.gave_up || self.is_complete() {
            return None;
        }
        if self.pending_fast_rtx {
            self.pending_fast_rtx = false;
            let seq = self.snd_una;
            self.tx_count[seq as usize] = self.tx_count[seq as usize].saturating_add(1);
            self.retransmits += 1;
            self.fast_retransmits += 1;
            if self.rto_at.is_none() {
                let rto = self.next_rto();
                self.rto_at = Some(now + rto);
            }
            return Some(DataSeg {
                seq,
                body_len: self.body_of(seq),
                fin: seq + 1 == self.total_segs,
                retransmit: true,
            });
        }
        let (eff, rate_bound) = self.cwnd_clamps();
        let window_end = self.snd_una.saturating_add(eff).min(self.total_segs);
        if self.snd_nxt >= window_end {
            if rate_bound && self.snd_nxt < self.total_segs {
                self.rate_limited_polls += 1;
            }
            return None;
        }
        let seq = self.snd_nxt;
        self.snd_nxt += 1;
        let rexmit = self.tx_count[seq as usize] > 0;
        self.tx_count[seq as usize] = self.tx_count[seq as usize].saturating_add(1);
        if rexmit {
            self.retransmits += 1;
        }
        if self.rto_at.is_none() {
            let rto = self.next_rto();
            self.rto_at = Some(now + rto);
        }
        Some(DataSeg {
            seq,
            body_len: self.body_of(seq),
            fin: seq + 1 == self.total_segs,
            retransmit: rexmit,
        })
    }

    /// Absorb a cumulative ACK. `seq` and `ts_echo` are the triggering
    /// data segment's index and echoed timestamp (the Karn rule: the
    /// RTT is sampled only when that segment was transmitted exactly
    /// once).
    pub fn on_ack(&mut self, ack: u32, seq: u32, ts_echo: u64, now: u64) -> AckOutcome {
        if self.gave_up || self.is_complete() {
            return AckOutcome::Ignored;
        }
        if (seq as usize) < self.tx_count.len()
            && self.tx_count[seq as usize] == 1
            && now >= ts_echo
        {
            self.est.on_sample(now - ts_echo);
        }
        if ack > self.snd_una {
            let advanced = ack - self.snd_una;
            self.snd_una = ack.min(self.total_segs);
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            self.backoff = 0;
            self.pending_fast_rtx = false;
            self.cwnd = self.cwnd.saturating_add(advanced).min(self.cfg.max_cwnd);
            if self.is_complete() {
                self.rto_at = None;
                return AckOutcome::Completed;
            }
            let rto = self.next_rto();
            self.rto_at = Some(now + rto);
            return AckOutcome::Advanced;
        }
        // Duplicate cumulative ACK: the receiver is stalled on
        // `snd_una`. Arm one fast retransmit at the threshold and
        // suppress further ones until the window moves again.
        self.dup_acks += 1;
        if self.dup_acks == self.cfg.dupack_threshold && self.snd_una < self.snd_nxt {
            self.pending_fast_rtx = true;
        }
        AckOutcome::Duplicate
    }

    /// The RTO deadline passed: back off and rewind (go-back-N), or
    /// give up when the oldest segment's retry budget is spent.
    pub fn on_rto(&mut self, now: u64) -> RtoOutcome {
        if self.gave_up || self.is_complete() || self.snd_una >= self.snd_nxt {
            self.rto_at = None;
            return RtoOutcome::Idle;
        }
        if self.tx_count[self.snd_una as usize] as u32 > self.cfg.max_retries {
            self.gave_up = true;
            self.rto_at = None;
            return RtoOutcome::GaveUp;
        }
        self.rto_fires += 1;
        self.backoff = (self.backoff + 1).min(self.cfg.backoff_cap);
        self.max_backoff = self.max_backoff.max(self.backoff as u64);
        self.snd_nxt = self.snd_una;
        self.cwnd = 1;
        self.dup_acks = 0;
        self.pending_fast_rtx = false;
        let rto = self.next_rto();
        self.rto_at = Some(now + rto);
        RtoOutcome::Retransmitting
    }

    /// Clamp the window to an RCP\*-style rate decoded from a TPP probe
    /// echo (bits per second). The signal is the paper's in-band
    /// feedback, not an oracle: zero grants are treated as "no
    /// information" and ignored.
    pub fn set_rate_bps(&mut self, rate_bps: u64) {
        if rate_bps == 0 {
            return;
        }
        self.rate_bps = Some(rate_bps);
        self.rate_updates += 1;
    }

    /// A switch on the path rebooted (boot-epoch change seen in a probe
    /// echo): rate grants predating the reboot are void, so drop the
    /// clamp and restart the window from its initial value.
    pub fn on_path_epoch_change(&mut self) {
        if self.gave_up || self.is_complete() {
            return;
        }
        self.rate_bps = None;
        self.cwnd = self.cfg.init_cwnd.max(1);
        self.backoff = 0;
        self.epoch_resets += 1;
    }

    /// Header for one transmission descriptor from
    /// [`poll_send`](Self::poll_send), stamped at `now`.
    pub fn data_hdr(&self, seg: DataSeg, now: u64) -> SegmentHdr {
        SegmentHdr {
            kind: KIND_DATA,
            flags: if seg.fin { FLAG_FIN } else { 0 } | if self.mining { FLAG_MINING } else { 0 },
            total_bytes: self.total_bytes,
            start_ns: self.start_ns,
            key: self.key,
            seq: seg.seq,
            ack: 0,
            ts: now,
            body_len: seg.body_len,
        }
    }
}

/// What one data arrival did at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxOutcome {
    /// Cumulative ACK to send back (next expected segment).
    pub ack: u32,
    /// Segments newly delivered in order by this arrival.
    pub delivered: u32,
    /// This arrival was a duplicate of delivered or buffered data.
    pub duplicate: bool,
    /// The flow is now fully delivered.
    pub complete: bool,
}

/// Receiver half of one flow: cumulative delivery plus an out-of-order
/// buffer, exactly-once.
///
/// The buffer is a sorted `Vec<u32>` of the segments held above
/// `rcv_next`. Its length is bounded by the sender's window
/// (`max_cwnd`), not by the receiver: the receiver buffers whatever
/// in-window segment arrives. An arrival that closes the gap at
/// `rcv_next` drains the in-order run from the front. A host receiving
/// flow after flow hands a finished receiver's buffer to the next one
/// ([`FlowReceiver::into_ooo_buffer`], [`FlowReceiver::reusing`]).
#[derive(Debug)]
pub struct FlowReceiver {
    total_segs: u32,
    rcv_next: u32,
    ooo: Vec<u32>,
    /// Segments delivered in order so far.
    pub delivered_segs: u64,
    /// Duplicate data arrivals absorbed.
    pub dup_segments: u64,
}

impl FlowReceiver {
    /// A receiver expecting `total_segs` segments.
    pub fn new(total_segs: u32) -> FlowReceiver {
        FlowReceiver::reusing(Vec::new(), total_segs)
    }

    /// [`FlowReceiver::new`], with the out-of-order segments kept in
    /// `ooo` — a buffer from [`FlowReceiver::into_ooo_buffer`]. Its
    /// contents are discarded, so the receiver behaves exactly as a
    /// fresh one; only a window deeper than the buffer's capacity
    /// allocates.
    pub fn reusing(mut ooo: Vec<u32>, total_segs: u32) -> FlowReceiver {
        ooo.clear();
        FlowReceiver {
            total_segs: total_segs.max(1),
            rcv_next: 0,
            ooo,
            delivered_segs: 0,
            dup_segments: 0,
        }
    }

    /// Give up the out-of-order buffer once the flow is over, for the
    /// next flow's [`FlowReceiver::reusing`].
    pub fn into_ooo_buffer(self) -> Vec<u32> {
        self.ooo
    }

    /// Whether everything has been delivered.
    pub fn is_complete(&self) -> bool {
        self.rcv_next == self.total_segs
    }

    /// Next expected segment (the cumulative ACK value).
    pub fn rcv_next(&self) -> u32 {
        self.rcv_next
    }

    /// Absorb one data segment. Every call yields an ACK (duplicates
    /// included — that is the dup-ACK signal); delivery is exactly
    /// once and in order. `_now` is unused: completion time is the
    /// caller's to record, from [`RxOutcome::complete`].
    pub fn on_data(&mut self, seq: u32, _now: u64) -> RxOutcome {
        let slot = self.ooo.binary_search(&seq);
        let duplicate = seq >= self.total_segs || seq < self.rcv_next || slot.is_ok();
        let mut delivered = 0;
        if duplicate {
            self.dup_segments += 1;
        } else if seq == self.rcv_next {
            // Every buffered segment lies above `rcv_next`, so the run
            // that now follows it in order is a prefix of the buffer.
            delivered = 1 + self
                .ooo
                .iter()
                .zip(seq + 1..)
                .take_while(|&(&held, want)| held == want)
                .count() as u32;
            self.ooo.drain(..delivered as usize - 1);
            self.rcv_next += delivered;
            self.delivered_segs += delivered as u64;
        } else if let Err(at) = slot {
            self.ooo.insert(at, seq);
        }
        let complete = self.is_complete();
        RxOutcome {
            ack: self.rcv_next,
            delivered,
            duplicate,
            complete,
        }
    }

    /// Header of the ACK answering a data segment `hdr` (echoes its
    /// `seq`/`ts` for Karn sampling and RTT).
    pub fn ack_hdr(&self, data: &SegmentHdr) -> SegmentHdr {
        data.ack_for(self.rcv_next)
    }
}

/// Aggregated transport counters of one app (or one whole run —
/// [`TransportStats::merge`] folds them). `tpp-obs` ingests this as
/// the `transport.*` metric family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Flows started.
    pub flows_started: u64,
    /// Flows fully acknowledged.
    pub flows_completed: u64,
    /// Flows abandoned after the retry budget.
    pub flows_given_up: u64,
    /// Data transmissions (including retransmits).
    pub segments_sent: u64,
    /// Retransmitted segments (RTO + fast).
    pub retransmits: u64,
    /// RTO expirations taken.
    pub rto_fires: u64,
    /// Fast retransmits taken.
    pub fast_retransmits: u64,
    /// Duplicate data arrivals at receivers.
    pub dup_segments_rx: u64,
    /// ACK frames sent by receivers.
    pub acks_sent: u64,
    /// Rate probes launched.
    pub probes_sent: u64,
    /// Rate grants absorbed from probe echoes.
    pub rate_updates: u64,
    /// Path-epoch resets absorbed.
    pub epoch_resets: u64,
    /// Polls where the RCP\* rate clamp closed the window.
    pub rate_limited_polls: u64,
    /// Deepest exponential-backoff rung any flow reached (max-merged,
    /// not summed — it is a ladder depth, not a count).
    pub max_backoff: u64,
}

impl TransportStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &TransportStats) {
        self.flows_started += other.flows_started;
        self.flows_completed += other.flows_completed;
        self.flows_given_up += other.flows_given_up;
        self.segments_sent += other.segments_sent;
        self.retransmits += other.retransmits;
        self.rto_fires += other.rto_fires;
        self.fast_retransmits += other.fast_retransmits;
        self.dup_segments_rx += other.dup_segments_rx;
        self.acks_sent += other.acks_sent;
        self.probes_sent += other.probes_sent;
        self.rate_updates += other.rate_updates;
        self.epoch_resets += other.epoch_resets;
        self.rate_limited_polls += other.rate_limited_polls;
        self.max_backoff = self.max_backoff.max(other.max_backoff);
    }

    /// Absorb a finished (or abandoned) sender's counters.
    pub fn absorb_sender(&mut self, s: &FlowSender) {
        self.retransmits += s.retransmits;
        self.rto_fires += s.rto_fires;
        self.fast_retransmits += s.fast_retransmits;
        self.rate_updates += s.rate_updates;
        self.epoch_resets += s.epoch_resets;
        self.rate_limited_polls += s.rate_limited_polls;
        self.max_backoff = self.max_backoff.max(s.max_backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> TransportConfig {
        TransportConfig {
            init_cwnd: 2,
            max_cwnd: 8,
            ..TransportConfig::default()
        }
    }

    fn sender(total_bytes: u32) -> FlowSender {
        FlowSender::new(cfg(), 0xAB, total_bytes, false, 1_000)
    }

    /// The largest flow a `u32` byte count names, at the default MSS:
    /// 3,050,403 segments, one retransmit counter each, a short last
    /// segment, and no `seq + 1` that wraps on the way to completion.
    #[test]
    fn largest_u32_flow_segments_and_completes() {
        let cfg = TransportConfig::default();
        let mss = cfg.mss as u32;
        let total_segs = segments_for(u32::MAX, cfg.mss);
        assert_eq!(total_segs, u32::MAX.div_ceil(mss));
        assert_eq!(total_segs, 3_050_403);
        let mut tx = FlowSender::new(cfg, 0xAB, u32::MAX, false, 0);
        assert_eq!(tx.total_segs(), total_segs);
        let first = tx.poll_send(0).expect("the first segment");
        assert_eq!(
            (first.seq, first.body_len as u32, first.fin),
            (0, mss, false)
        );

        // A cumulative ACK of everything but the last segment.
        let last = total_segs - 1;
        assert_eq!(tx.on_ack(last, 0, 0, 10), AckOutcome::Advanced);
        let fin = tx.poll_send(10).expect("the last segment");
        assert_eq!((fin.seq, fin.fin, fin.retransmit), (last, true, false));
        assert_eq!(fin.body_len, 1_279);
        let bytes = last as u64 * mss as u64 + fin.body_len as u64;
        assert_eq!(bytes, u32::MAX as u64, "the segments carry every byte");
        let hdr = tx.data_hdr(fin, 10);
        assert_eq!((hdr.total_bytes, hdr.seq), (u32::MAX, last));
        assert_eq!(tx.poll_send(10), None, "nothing past the last segment");
        assert_eq!(tx.on_ack(total_segs, last, 10, 20), AckOutcome::Completed);

        let mut rx = FlowReceiver::new(total_segs);
        assert!(rx.on_data(u32::MAX, 0).duplicate, "a seq past the flow");
        assert!(!rx.on_data(last, 0).duplicate, "the last segment buffers");
        assert_eq!(rx.rcv_next(), 0);
    }

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::from_host_id(3),
            EthernetAddress::from_host_id(9),
        )
    }

    /// The constructor `write_frame` replaced: encode the payload into a
    /// `Vec`, then copy it behind an Ethernet header. Kept here as the
    /// byte-equality reference.
    fn encode_then_build_frame(hdr: &SegmentHdr) -> Vec<u8> {
        let body = if hdr.kind == KIND_DATA {
            hdr.body_len as usize
        } else {
            0
        };
        let mut p = vec![0u8; HDR_LEN + body];
        p[0..2].copy_from_slice(&MAGIC);
        p[2] = hdr.kind;
        p[3] = hdr.flags;
        p[4..8].copy_from_slice(&hdr.total_bytes.to_be_bytes());
        p[8..16].copy_from_slice(&hdr.start_ns.to_be_bytes());
        p[16..24].copy_from_slice(&hdr.key.to_be_bytes());
        p[24..28].copy_from_slice(&hdr.seq.to_be_bytes());
        p[28..32].copy_from_slice(&hdr.ack.to_be_bytes());
        p[32..40].copy_from_slice(&hdr.ts.to_be_bytes());
        p[40..42].copy_from_slice(&hdr.body_len.to_be_bytes());
        let (dst, src) = macs();
        tpp_wire::ethernet::build_frame(dst, src, TRANSPORT_ETHERTYPE, &p)
    }

    #[test]
    fn header_roundtrip() {
        let hdr = SegmentHdr {
            kind: KIND_DATA,
            flags: FLAG_FIN | FLAG_MINING,
            total_bytes: 123_456,
            start_ns: 42,
            key: 0xDEAD_BEEF,
            seq: 7,
            ack: 0,
            ts: 9_999,
            body_len: 100,
        };
        let (dst, src) = macs();
        let mut frame = Vec::new();
        hdr.write_frame(dst, src, &mut frame);
        assert_eq!(frame.len(), hdr.frame_len());
        let p = &frame[ETHERNET_HEADER_LEN..];
        assert_eq!(p.len(), HDR_LEN + 100);
        assert_eq!(SegmentHdr::decode(p), Some(hdr));
        // The flow label convention lines up with the ECMP extractor.
        assert_eq!(&p[0..2], &MAGIC);
        assert_eq!(
            u64::from_be_bytes(p[16..24].try_into().unwrap()),
            0xDEAD_BEEF
        );
        assert_eq!(SegmentHdr::decode(&p[..HDR_LEN - 1]), None);
    }

    #[test]
    fn write_frame_matches_encode_then_build_frame() {
        let data = SegmentHdr {
            kind: KIND_DATA,
            flags: FLAG_FIN,
            total_bytes: 5_000,
            start_ns: 0x0102_0304_0506_0708,
            key: 0xA1B2_C3D4_E5F6_0718,
            seq: 3,
            ack: 0,
            ts: 77_000,
            body_len: 776,
        };
        // An ACK echoes `body_len` fields it does not carry a body for.
        let ack = SegmentHdr {
            kind: KIND_ACK,
            ack: 4,
            body_len: 0,
            ..data
        };
        let phantom_body_ack = SegmentHdr {
            body_len: 900,
            ..ack
        };
        let (dst, src) = macs();
        for hdr in [data, ack, phantom_body_ack] {
            // A recycled buffer arrives cleared but with stale capacity;
            // a dirty prefix shows the writer only appends.
            let mut buf = vec![0xEE; 5];
            buf.reserve(2_000);
            hdr.write_frame(dst, src, &mut buf);
            assert_eq!(&buf[..5], &[0xEE; 5]);
            assert_eq!(&buf[5..], &encode_then_build_frame(&hdr)[..], "{hdr:?}");
        }
        assert_eq!(ack.frame_len(), ETHERNET_HEADER_LEN + HDR_LEN);
    }

    #[test]
    fn lossless_fast_path_completes() {
        let mut s = sender(3 * 1408);
        let mut r = FlowReceiver::new(s.total_segs());
        let mut now = 1_000;
        let mut delivered = 0;
        while !s.is_complete() {
            while let Some(seg) = s.poll_send(now) {
                assert!(!seg.retransmit);
                now += 10_000;
                let out = r.on_data(seg.seq, now);
                delivered += out.delivered;
                let outcome = s.on_ack(out.ack, seg.seq, now - 10_000, now);
                assert_ne!(outcome, AckOutcome::Duplicate);
            }
        }
        assert_eq!(delivered, 3);
        assert!(r.is_complete());
        assert_eq!(s.retransmits, 0);
        assert!(s.srtt_ns().is_some());
        assert_eq!(s.rto_deadline(), None);
    }

    #[test]
    fn rto_rewinds_and_backs_off_to_cap() {
        let mut s = sender(10 * 1408);
        let mut now = 0;
        assert!(s.poll_send(now).is_some());
        assert!(s.poll_send(now).is_some());
        let mut gaps = Vec::new();
        for _ in 0..10 {
            let at = s.rto_deadline().expect("armed");
            now = at;
            assert_eq!(s.on_rto(now), RtoOutcome::Retransmitting);
            let seg = s.poll_send(now).expect("rewound");
            assert_eq!(seg.seq, 0, "go-back-N rewinds to snd_una");
            assert!(seg.retransmit);
            gaps.push(s.rto_deadline().unwrap() - now);
        }
        // Backoff grows then saturates at the cap (jitter keeps
        // deadlines from being exactly equal, so compare magnitudes).
        let c = cfg();
        let ceiling = c.max_rto_ns + c.max_rto_ns / 1000 * c.jitter_permille as u64;
        assert!(gaps.iter().all(|&g| g <= ceiling), "{gaps:?}");
        assert!(gaps[9] >= gaps[0], "{gaps:?}");
        assert_eq!(s.rto_fires, 10);
    }

    #[test]
    fn give_up_after_retry_budget() {
        let mut s = FlowSender::new(
            TransportConfig {
                max_retries: 3,
                ..cfg()
            },
            1,
            1408,
            false,
            0,
        );
        let mut now = 0;
        let mut fired = 0;
        loop {
            while s.poll_send(now).is_some() {}
            let Some(at) = s.rto_deadline() else { break };
            now = at;
            match s.on_rto(now) {
                RtoOutcome::Retransmitting => fired += 1,
                RtoOutcome::GaveUp => break,
                RtoOutcome::Idle => unreachable!(),
            }
        }
        assert!(s.gave_up());
        assert_eq!(fired, 3, "max_retries transmissions then give up");
        assert!(s.poll_send(now).is_none());
    }

    #[test]
    fn dup_acks_trigger_one_fast_retransmit() {
        let mut s = sender(8 * 1408);
        let now = 0;
        for _ in 0..2 {
            s.poll_send(now).unwrap();
        }
        // Three duplicate cumulative ACKs for segment 0.
        for i in 0..3 {
            assert_eq!(s.on_ack(0, 1, 0, now + i), AckOutcome::Duplicate);
        }
        let seg = s.poll_send(now).expect("fast retransmit armed");
        assert_eq!((seg.seq, seg.retransmit), (0, true));
        assert_eq!(s.fast_retransmits, 1);
        // Further dup ACKs are suppressed until the window advances.
        for i in 0..5 {
            s.on_ack(0, 1, 0, now + 10 + i);
        }
        let next = s.poll_send(now + 20);
        assert!(
            next.is_none_or(|g| !g.retransmit),
            "no second fast retransmit while stalled: {next:?}"
        );
    }

    #[test]
    fn rate_clamp_bounds_window_and_epoch_reset_clears_it() {
        let mut s = sender(64 * 1408);
        // Feed an RTT so the clamp has a horizon.
        s.est.on_sample(100_000); // 100 µs
                                  // 117 Mbit/s × 100 µs ≈ 1.4 KB ≈ 1 segment in flight.
        s.set_rate_bps(117_000_000);
        assert_eq!(s.effective_cwnd(), 1);
        let mut sent = 0;
        while s.poll_send(0).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 1, "window clamped to the granted rate");
        assert_eq!(
            s.rate_limited_polls, 1,
            "the closing poll was charged to the rate clamp"
        );
        s.on_path_epoch_change();
        assert_eq!(s.epoch_resets, 1);
        assert!(s.effective_cwnd() >= 2, "clamp cleared on epoch reset");
        assert_eq!(s.rate_updates, 1);
    }

    #[test]
    fn zero_rate_is_no_information() {
        let mut s = sender(1408);
        s.set_rate_bps(0);
        assert_eq!(s.rate_updates, 0);
        assert!(s.poll_send(0).is_some());
    }

    #[test]
    fn receiver_reorders_exactly_once() {
        let mut r = FlowReceiver::new(4);
        let a = r.on_data(1, 10);
        assert_eq!((a.ack, a.delivered, a.duplicate), (0, 0, false));
        let b = r.on_data(0, 20);
        assert_eq!((b.ack, b.delivered), (2, 2), "gap fill delivers both");
        let dup = r.on_data(1, 30);
        assert!(dup.duplicate);
        assert_eq!(dup.ack, 2);
        let c = r.on_data(3, 40);
        assert_eq!(c.ack, 2);
        let d = r.on_data(2, 50);
        assert!(d.complete);
        assert_eq!(d.ack, 4);
        assert_eq!(r.delivered_segs, 4);
        assert_eq!(r.dup_segments, 1);
        // Post-completion duplicates still re-ACK.
        let tomb = r.on_data(3, 60);
        assert!(tomb.duplicate && tomb.complete);
        assert_eq!(tomb.ack, 4);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut s = sender(4 * 1408);
        let seg = s.poll_send(0).unwrap();
        // Force a second transmission of seq 0 via RTO.
        let at = s.rto_deadline().unwrap();
        s.on_rto(at);
        let again = s.poll_send(at).unwrap();
        assert_eq!(again.seq, seg.seq);
        // An ACK triggered by the retransmitted segment: no RTT sample.
        s.on_ack(1, 0, 0, at + 500);
        assert_eq!(s.srtt_ns(), None, "Karn: ambiguous echo not sampled");
        // A first-transmission segment does sample.
        let seg1 = s.poll_send(at).unwrap();
        s.on_ack(2, seg1.seq, at, at + 700);
        assert_eq!(s.srtt_ns(), Some(700));
    }

    #[test]
    fn stats_merge_and_absorb() {
        let mut s = sender(1408);
        s.retransmits = 3;
        s.rto_fires = 2;
        s.rate_limited_polls = 4;
        s.max_backoff = 3;
        let mut a = TransportStats {
            flows_started: 1,
            max_backoff: 5,
            ..Default::default()
        };
        a.absorb_sender(&s);
        let mut b = TransportStats {
            max_backoff: 2,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.retransmits, 3);
        assert_eq!(b.rto_fires, 2);
        assert_eq!(b.flows_started, 1);
        assert_eq!(b.rate_limited_polls, 4);
        assert_eq!(b.max_backoff, 5, "ladder depth max-merges");
    }

    /// One step of a scripted sender drive (`reused_sender_matches_fresh`).
    fn drive_step(s: &mut FlowSender, op: (u8, u32, u32, u64), now: &mut u64) -> String {
        let (kind, a, b, dt) = op;
        *now += dt;
        let out = match kind {
            0..=2 => {
                let mut segs = Vec::new();
                while let Some(seg) = s.poll_send(*now) {
                    segs.push(seg);
                }
                format!("{segs:?}")
            }
            3..=5 => {
                let ts = now.saturating_sub(dt / 2 + 1);
                format!("{:?}", s.on_ack(a, b, ts, *now))
            }
            6 => {
                *now = s.rto_deadline().unwrap_or(*now).max(*now);
                format!("{:?}", s.on_rto(*now))
            }
            7 => {
                s.set_rate_bps(u64::from(a) * 1_000_000);
                String::new()
            }
            _ => {
                s.on_path_epoch_change();
                String::new()
            }
        };
        format!("{out} {:?} {:?}", s.rto_deadline(), s.effective_window())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A sender started on a recycled counter buffer — dirtied by a
        /// previous flow longer or shorter than the new one — answers a
        /// scripted drive exactly as a fresh sender: same descriptors,
        /// outcomes, deadlines, counters and final state.
        #[test]
        fn reused_sender_matches_fresh(
            prev_segs in 1u32..40,
            segs in 1u32..40,
            prev_ops in proptest::collection::vec((0u8..9, 0u32..42, 0u32..42, 0u64..3_000_000), 0..40),
            ops in proptest::collection::vec((0u8..9, 0u32..42, 0u32..42, 0u64..3_000_000), 1..120),
        ) {
            let bytes = |n: u32| n * 1408 - 700;
            let mut prev = FlowSender::new(cfg(), 0x11, bytes(prev_segs), true, 0);
            let mut now = 0;
            for &op in &prev_ops {
                drive_step(&mut prev, op, &mut now);
            }
            let buffer = prev.into_tx_buffer();
            let mut fresh = FlowSender::new(cfg(), 0xAB, bytes(segs), false, 1_000);
            let mut reused = FlowSender::reusing(buffer, cfg(), 0xAB, bytes(segs), false, 1_000);
            let (mut t_fresh, mut t_reused) = (1_000, 1_000);
            for &op in &ops {
                let a = drive_step(&mut fresh, op, &mut t_fresh);
                let b = drive_step(&mut reused, op, &mut t_reused);
                prop_assert_eq!(a, b, "step {:?}", op);
            }
            prop_assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
        }

        /// A receiver started on a recycled out-of-order buffer, left
        /// non-empty by an unfinished flow, absorbs an arrival sequence
        /// exactly as a fresh receiver: same outcomes and final state.
        #[test]
        fn reused_receiver_matches_fresh(
            prev_segs in 1u32..40,
            segs in 1u32..40,
            prev_arrivals in proptest::collection::vec(0u32..44, 0..60),
            arrivals in proptest::collection::vec(0u32..44, 1..120),
        ) {
            let buffer = dirty_ooo_buffer(prev_segs, &prev_arrivals);
            let mut fresh = FlowReceiver::new(segs);
            let mut reused = FlowReceiver::reusing(buffer, segs);
            for (now, &seq) in arrivals.iter().enumerate() {
                let now = now as u64;
                prop_assert_eq!(fresh.on_data(seq, now), reused.on_data(seq, now), "seq {}", seq);
            }
            prop_assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
        }

        /// The sorted-`Vec` out-of-order buffer against a `BTreeSet`
        /// model of it, on arrival orders built to stress it: every
        /// segment once in an order made of ascending and descending
        /// runs (a descending run closes a gap in one arrival), plus
        /// duplicates and segments past the end spliced in anywhere.
        #[test]
        fn ooo_buffer_matches_btreeset_model(
            prev_segs in 1u32..40,
            prev_arrivals in proptest::collection::vec(0u32..44, 0..60),
            segs in 1u32..40,
            run_of in proptest::collection::vec(0u32..6, 40..41),
            extras in proptest::collection::vec((0usize..200, 0u32..44), 0..40),
        ) {
            // Stable sort on a small run label: equal labels keep their
            // order (ascending runs), odd labels are walked backwards.
            let mut arrivals: Vec<u32> = (0..segs).collect();
            arrivals.sort_by_key(|&seq| {
                let run = run_of[seq as usize];
                (run, if run % 2 == 1 { u32::MAX - seq } else { seq })
            });
            for &(at, seq) in &extras {
                arrivals.insert(at % (arrivals.len() + 1), seq);
            }
            let buffer = dirty_ooo_buffer(prev_segs, &prev_arrivals);
            let mut rx = FlowReceiver::reusing(buffer, segs);
            let mut model = ModelReceiver::new(segs);
            for (now, &seq) in arrivals.iter().enumerate() {
                let now = now as u64;
                prop_assert_eq!(rx.on_data(seq, now), model.on_data(seq), "seq {}", seq);
                prop_assert_eq!(rx.rcv_next(), model.rcv_next);
                prop_assert_eq!(rx.dup_segments, model.dup_segments);
            }
            prop_assert!(rx.is_complete(), "every segment arrived");
            prop_assert_eq!(rx.delivered_segs, u64::from(segs));
        }
    }

    /// The out-of-order buffer a receiver of `total_segs` hands back
    /// after `arrivals`: non-empty whenever a gap was left open.
    fn dirty_ooo_buffer(total_segs: u32, arrivals: &[u32]) -> Vec<u32> {
        let mut prev = FlowReceiver::new(total_segs);
        for &seq in arrivals {
            prev.on_data(seq, 0);
        }
        prev.into_ooo_buffer()
    }

    /// Reference receiver: the out-of-order buffer as a `BTreeSet`.
    struct ModelReceiver {
        total_segs: u32,
        rcv_next: u32,
        ooo: std::collections::BTreeSet<u32>,
        dup_segments: u64,
    }

    impl ModelReceiver {
        fn new(total_segs: u32) -> ModelReceiver {
            ModelReceiver {
                total_segs: total_segs.max(1),
                rcv_next: 0,
                ooo: Default::default(),
                dup_segments: 0,
            }
        }

        fn on_data(&mut self, seq: u32) -> RxOutcome {
            let duplicate =
                seq >= self.total_segs || seq < self.rcv_next || self.ooo.contains(&seq);
            let mut delivered = 0;
            if duplicate {
                self.dup_segments += 1;
            } else if seq == self.rcv_next {
                self.rcv_next += 1;
                delivered += 1;
                while self.ooo.remove(&self.rcv_next) {
                    self.rcv_next += 1;
                    delivered += 1;
                }
            } else {
                self.ooo.insert(seq);
            }
            RxOutcome {
                ack: self.rcv_next,
                delivered,
                duplicate,
                complete: self.rcv_next == self.total_segs,
            }
        }
    }

    #[test]
    fn dirty_buffer_is_really_dirty() {
        let buffer = dirty_ooo_buffer(8, &[5, 2, 7]);
        assert_eq!(buffer, [2, 5, 7], "held in order, nothing delivered");
        let mut rx = FlowReceiver::reusing(buffer, 8);
        assert_eq!(rx.on_data(2, 0).delivered, 0, "the old contents are gone");
        assert_eq!(rx.on_data(0, 0).ack, 1);
        assert_eq!(rx.into_ooo_buffer(), [2]);
    }

    #[test]
    fn reusing_grows_and_zeroes_a_short_buffer() {
        let mut first = sender(2 * 1408);
        while first.poll_send(0).is_some() {}
        let buffer = first.into_tx_buffer();
        assert_eq!(buffer, [1, 1]);
        let mut longer = FlowSender::reusing(buffer, cfg(), 0xAB, 5 * 1408, false, 0);
        assert_eq!(longer.total_segs(), 5);
        assert!(longer.poll_send(0).is_some_and(|seg| !seg.retransmit));
        assert_eq!(longer.into_tx_buffer(), [1, 0, 0, 0, 0]);
    }

    #[test]
    fn backoff_ladder_depth_is_tracked() {
        let mut s = sender(4 * 1408);
        assert!(s.poll_send(0).is_some());
        for _ in 0..3 {
            let at = s.rto_deadline().unwrap();
            assert_eq!(s.on_rto(at), RtoOutcome::Retransmitting);
            assert!(s.poll_send(at).is_some());
        }
        assert_eq!(s.max_backoff, 3, "three consecutive RTOs climb 3 rungs");
        // An advancing ACK resets the live backoff but not the high-water
        // mark.
        let now = s.rto_deadline().unwrap() + 1;
        s.on_ack(1, 0, 0, now);
        assert_eq!(s.max_backoff, 3);
    }
}

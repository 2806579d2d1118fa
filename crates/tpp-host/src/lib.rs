//! # tpp-host — the programmable end-host side of TPP
//!
//! The paper's architecture splits every network task into "(a) a simple
//! program that executes on the ASIC, and (b) an expressive task
//! distributed across end-hosts". This crate is the toolkit for part (b):
//!
//! * [`probe::ProbeBuilder`] — compile a program once, then mint TPP
//!   frames (optionally piggy-backed on application payload) into
//!   buffers the caller owns;
//! * [`probe::echo_in_place`] — the receiver side of §2.2 Phase 1 ("the
//!   receiver simply echos a fully executed TPP back to the sender"),
//!   done on the delivered buffer itself;
//! * [`EchoReceiver`] — a ready-made host app that echoes TPPs and sinks
//!   data traffic, used as the receiver in the congestion-control
//!   experiments;
//! * [`pacing::PacedSender`] and [`pacing::TokenBucket`] — the rate
//!   limiter each RCP\* flow runs at the end-host (§2.2: "The
//!   implementation consists of a rate limiter and a rate controller at
//!   end-hosts for every flow");
//! * [`manager::ProbeManager`] — per-probe timeout, bounded retries
//!   with deterministic backoff, nonce-based reply dedup, and switch
//!   boot-epoch tracking (the end-host reliability layer);
//! * [`bonding::BondScheduler`] — an adaptive multi-NIC load balancer
//!   whose only link-quality signal is in-band TPP probe telemetry
//!   (per-path queue depth and utilization), with hysteresis and
//!   failover;
//! * [`telemetry`] — decode fully-executed TPPs into per-hop records;
//! * [`widequery`] — split a query too wide for one packet across a
//!   probe train and reassemble the echoes (§3.2's multi-packet rule);
//! * [`rtt::RttEstimator`] — smoothed RTT from probe echoes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bonding;
pub mod manager;
pub mod pacing;
pub mod probe;
pub mod rtt;
pub mod telemetry;
pub mod transport;
pub mod widequery;

pub use bonding::{BondConfig, BondScheduler, HealthEvent, PathHealth};
pub use manager::{ProbeDelivery, ProbeManager, ProbeStats, RetryPolicy, PROBE_TIMER_TOKEN};
pub use pacing::{PacedSender, TokenBucket};
pub use probe::parse_echo;
pub use probe::{echo_in_place, ProbeBuilder, DATA_ETHERTYPE};
pub use rtt::RttEstimator;
pub use telemetry::{decode_echo, split_hops, HopView, PathSample};
pub use transport::{
    segments_for, AckOutcome, DataSeg, FlowReceiver, FlowSender, RtoOutcome, RxOutcome, SegmentHdr,
    TransportConfig, TransportStats, TRANSPORT_ETHERTYPE,
};
pub use widequery::{SegmentedCollector, SegmentedQuery, WideRow};

use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::ethernet::Frame;

/// splitmix64 — the seeded stream behind every random draw above the
/// simulator: RTO jitter, probe nonces and backoff, and the benchmark's
/// traffic matrices. `#[inline]` because callers in other crates draw
/// per segment and the workspace builds without LTO.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A receiver that echoes every executed TPP back to its sender and
/// counts received data bytes.
///
/// This is the entire receiver side of RCP\* and of telemetry probing:
/// all intelligence lives at the sender, the receiver only reflects
/// (§2.2 Phase 1).
#[derive(Debug, Default)]
pub struct EchoReceiver {
    /// Total non-TPP payload bytes received.
    pub data_bytes: u64,
    /// Number of TPPs echoed.
    pub tpps_echoed: u64,
    /// Number of data frames received.
    pub data_frames: u64,
}

impl HostApp for EchoReceiver {
    fn on_frame(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if echo_in_place(&mut frame, ctx.mac()) {
            self.tpps_echoed += 1;
            // Reflect out of the NIC the probe arrived on, so on a
            // multi-homed receiver the echo measures the same path.
            ctx.send_on(ctx.rx_port(), frame);
            return;
        }
        if let Ok(parsed) = Frame::new_checked(&frame[..]) {
            self.data_frames += 1;
            self.data_bytes += parsed.payload().len() as u64;
        }
        ctx.recycle_frame(frame);
    }
}

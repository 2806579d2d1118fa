//! Probe-driven NIC bonding over a multi-homed host pair.
//!
//! The paper's thesis is that a trivial in-network program plus an
//! expressive end-host task replaces bespoke control protocols. This
//! module applies it to link bonding: a host with several NICs, each
//! wired to a disjoint path, steers traffic using *only* what
//! `bonding_collect()` TPPs bring back — per-hop queue depth, TX
//! utilization, and switch boot epochs. No routing protocol, no
//! out-of-band health checks.
//!
//! [`BondSender`] runs one [`ProbeManager`] per path (distinct nonce
//! salts so streams never collide) and feeds a
//! [`tpp_host::BondScheduler`]: probe echoes update path weights,
//! probe timeouts and epoch changes trigger failover. Data frames are
//! sequenced, spread across paths by the scheduler, optionally
//! duplicated when the chosen path is suspect, and retransmitted from
//! a sender-side unacked buffer until the peer's ACK arrives.
//!
//! [`BondReceiver`] echoes probes on their arrival NIC, deduplicates
//! data by sequence number (so duplication and retransmission never
//! reach the application twice), and ACKs every copy — exactly-once
//! delivery end to end, over paths that flap, degrade, and reboot.

use std::collections::{BTreeMap, BTreeSet};

use tpp_host::{
    decode_echo, echo_in_place, parse_echo, BondConfig, BondScheduler, ProbeBuilder, ProbeDelivery,
    ProbeManager, RetryPolicy, DATA_ETHERTYPE,
};
use tpp_isa::programs;
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::ethernet::{write_header, EtherType, Frame, ETHERNET_HEADER_LEN};
use tpp_wire::EthernetAddress;

const WORDS_PER_HOP: usize = programs::BONDING_WORDS_PER_HOP;
/// Plain-data ethertype (distinct from TPP and from the probe's inner
/// payload ethertype).
const BOND_ETHERTYPE: EtherType = EtherType(0x0800);
const TIMER_PROBE: u64 = 1;
const TIMER_DATA: u64 = 2;
const TIMER_RTO: u64 = 3;
const DATA_MAGIC: &[u8; 4] = b"BOND";
const ACK_MAGIC: &[u8; 4] = b"BACK";

/// Timing and sizing for a [`BondSender`].
#[derive(Debug, Clone)]
pub struct BondSenderConfig {
    /// Peer MAC (the [`BondReceiver`]'s host).
    pub dst: EthernetAddress,
    /// Hops each probe must fit (2 × switches on the path: out + back).
    pub expected_hops: usize,
    /// One probe per path every this many ns, from t=0…
    pub probe_interval_ns: u64,
    /// A probe unanswered this long counts as a miss. Must comfortably
    /// exceed the path RTT or every probe is charged as lost.
    pub probe_timeout_ns: u64,
    /// …until this time (probing outlives the data flow so failback is
    /// observable).
    pub probe_stop_ns: u64,
    /// One data frame every this many ns…
    pub data_interval_ns: u64,
    /// …in `[data_start_ns, data_stop_ns)`.
    pub data_start_ns: u64,
    /// End of the data flow.
    pub data_stop_ns: u64,
    /// Payload size of each data frame (≥ 12 for magic + sequence).
    pub payload_bytes: usize,
    /// Retransmit an unacked frame after this long.
    pub rto_ns: u64,
    /// Scheduler tuning.
    pub bond: BondConfig,
}

/// The sending side of the bond: probing, scheduling, retransmission.
#[derive(Debug)]
pub struct BondSender {
    cfg: BondSenderConfig,
    probe: ProbeBuilder,
    /// One manager per path; salts keep their nonce streams disjoint.
    probes: Vec<ProbeManager>,
    /// Outstanding probe nonce → path it went down.
    nonce_path: BTreeMap<u64, usize>,
    /// The scheduler (public so benches can read its event log and
    /// per-path series).
    pub bond: BondScheduler,
    next_seq: u64,
    /// seq → retransmit deadline. The payload is a function of the
    /// sequence number, so a retransmission rebuilds it.
    unacked: BTreeMap<u64, u64>,
    /// Probes sent per path.
    pub probes_sent: Vec<u64>,
    /// Echoes decoded per path.
    pub echoes_received: Vec<u64>,
    /// Data frames (first copies) sent per path.
    pub data_sent: Vec<u64>,
    /// Redundant copies sent (degraded-path duplication).
    pub duplicates_sent: u64,
    /// RTO-driven retransmissions.
    pub retransmits: u64,
    /// Sequences acknowledged by the peer.
    pub acked: u64,
    /// `(first_send_t_ns, ack_latency_ns)` per acked sequence, in ack
    /// order.
    pub ack_latencies: Vec<(u64, u64)>,
    /// Boot-epoch changes observed via probes.
    pub epoch_changes: u64,
    first_send: BTreeMap<u64, u64>,
}

impl BondSender {
    /// A sender for `cfg.bond.paths` NICs (NIC *i* ⇔ path *i*).
    pub fn new(cfg: BondSenderConfig) -> Self {
        assert!(cfg.payload_bytes >= 12, "payload must fit magic + seq");
        let n = cfg.bond.paths;
        let program = programs::bonding_collect();
        let probes = (0..n)
            .map(|p| {
                // One probe per interval; the next supersedes it, so no
                // retries — a timeout is itself the signal we're after.
                ProbeManager::new(RetryPolicy {
                    timeout_ns: cfg.probe_timeout_ns,
                    max_retries: 0,
                    jitter_permille: 0,
                })
                .with_port(p as u16)
                .with_salt(p as u64 + 1)
            })
            .collect();
        BondSender {
            probe: ProbeBuilder::stack(&program, cfg.expected_hops),
            probes,
            nonce_path: BTreeMap::new(),
            bond: BondScheduler::new(cfg.bond.clone()),
            next_seq: 0,
            unacked: BTreeMap::new(),
            probes_sent: vec![0; n],
            echoes_received: vec![0; n],
            data_sent: vec![0; n],
            duplicates_sent: 0,
            retransmits: 0,
            acked: 0,
            ack_latencies: Vec::new(),
            epoch_changes: 0,
            first_send: BTreeMap::new(),
            cfg,
        }
    }

    /// Data sequences sent (each delivered exactly once on success).
    pub fn sequences_sent(&self) -> u64 {
        self.next_seq
    }

    /// Sequences not yet acknowledged.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Data frame `seq`, built into a pooled buffer.
    fn data_frame(&self, seq: u64, ctx: &mut HostCtx<'_>) -> Vec<u8> {
        let len = ETHERNET_HEADER_LEN + self.cfg.payload_bytes;
        let mut frame = ctx.alloc_frame(len);
        write_header(&mut frame, self.cfg.dst, ctx.mac(), BOND_ETHERTYPE);
        frame.extend_from_slice(DATA_MAGIC);
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.resize(len, 0);
        frame
    }

    /// Send `seq` down the scheduler's current pick (plus a redundant
    /// copy when that path is suspect). Returns the picked path.
    fn transmit(&mut self, seq: u64, ctx: &mut HostCtx<'_>) -> usize {
        let path = self.bond.pick();
        let frame = self.data_frame(seq, ctx);
        ctx.send_on(path as u16, frame);
        if let Some(dup) = self.bond.duplicate_target(path) {
            let copy = self.data_frame(seq, ctx);
            ctx.send_on(dup as u16, copy);
            self.duplicates_sent += 1;
        }
        path
    }

    fn send_probe_round(&mut self, ctx: &mut HostCtx<'_>) {
        let stamp = ctx.now().to_be_bytes();
        for path in 0..self.probes.len() {
            let nonce = self.probes[path].track_probe(
                &self.probe,
                self.cfg.dst,
                &stamp,
                DATA_ETHERTYPE.0,
                ctx,
            );
            self.nonce_path.insert(nonce, path);
            self.probes_sent[path] += 1;
        }
    }

    fn send_data(&mut self, ctx: &mut HostCtx<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = self.transmit(seq, ctx);
        self.data_sent[path] += 1;
        self.first_send.insert(seq, ctx.now());
        self.unacked.insert(seq, ctx.now() + self.cfg.rto_ns);
    }

    fn resend_due(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let due: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, deadline)| **deadline <= now)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            // Re-pick: a retransmission should use the *current* best
            // path, not the one that just lost the frame.
            self.transmit(seq, ctx);
            self.retransmits += 1;
            self.unacked.insert(seq, now + self.cfg.rto_ns);
        }
    }

    fn on_probe_echo(&mut self, frame: &[u8], ctx: &mut HostCtx<'_>) {
        let Some(nonce) = ProbeManager::frame_nonce(frame) else {
            return;
        };
        let Some(&path) = self.nonce_path.get(&nonce) else {
            return;
        };
        match self.probes[path].on_frame(frame, ctx) {
            // Telemetry stays valid when stale: the sample carries its
            // own stamp. (The loss was already charged on expiry; one
            // late echo then counts as a hit toward recovery, which is
            // exactly what "the path answered" means.)
            ProbeDelivery::Fresh { .. } | ProbeDelivery::Late { .. } => {}
            ProbeDelivery::Duplicate { .. } | ProbeDelivery::NotAProbe => return,
        }
        self.nonce_path.remove(&nonce);
        let Some(sample) = decode_echo(frame, ctx.mac(), WORDS_PER_HOP) else {
            return;
        };
        self.echoes_received[path] += 1;
        let mut epoch_changed = false;
        let mut worst_queue = 0u64;
        let mut worst_util = 0u64;
        for hop in sample.hops() {
            let Some([switch_id, epoch, queue, util]) = hop.array() else {
                continue;
            };
            if self.probes[path].note_epoch(switch_id, epoch) {
                epoch_changed = true;
            }
            worst_queue = worst_queue.max(queue as u64);
            worst_util = worst_util.max(util as u64);
        }
        // Everything is stamped with arrival time — the instant the
        // scheduler actually learns it — so the health-event log is
        // monotone even when echoes come back out of order.
        if epoch_changed {
            self.epoch_changes += 1;
            self.bond.on_epoch_change(ctx.now(), path);
        } else {
            self.bond
                .on_sample(ctx.now(), path, worst_queue, worst_util);
        }
    }
}

impl HostApp for BondSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(0, TIMER_PROBE);
        ctx.set_timer(self.cfg.data_start_ns, TIMER_DATA);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        if ProbeManager::is_timer(token) {
            // Tokens carry the arming manager's port: route the wake-up
            // to that one manager only, so each fire re-arms at most one
            // replacement (fanning out would multiply timer events).
            let path = ProbeManager::timer_port(token) as usize;
            if path < self.probes.len() {
                for _ in 0..self.probes[path].on_timer(ctx) {
                    // Keep the nonce→path entry: if the echo still shows
                    // up (`Late`), it's a valid sample and a recovery
                    // hit. The manager's own dedup window bounds how
                    // long that can happen.
                    self.bond.on_probe_loss(ctx.now(), path);
                }
            }
            return;
        }
        match token {
            TIMER_PROBE => {
                if ctx.now() >= self.cfg.probe_stop_ns {
                    return;
                }
                self.send_probe_round(ctx);
                ctx.set_timer(self.cfg.probe_interval_ns, TIMER_PROBE);
            }
            TIMER_DATA => {
                if ctx.now() >= self.cfg.data_stop_ns {
                    return;
                }
                self.send_data(ctx);
                if self.unacked.len() == 1 {
                    // First outstanding frame arms the RTO scan.
                    ctx.set_timer(self.cfg.rto_ns, TIMER_RTO);
                }
                ctx.set_timer(self.cfg.data_interval_ns, TIMER_DATA);
            }
            TIMER_RTO => {
                self.resend_due(ctx);
                // Keep scanning while anything is in flight; stop when
                // the flow is over and fully acked, so the run can go
                // quiescent.
                if !self.unacked.is_empty() {
                    ctx.set_timer(self.cfg.rto_ns, TIMER_RTO);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if parse_echo(&frame, ctx.mac()).is_some() {
            self.on_probe_echo(&frame, ctx);
        } else if let Ok(parsed) = Frame::new_checked(&frame[..]) {
            let payload = parsed.payload();
            if payload.len() >= 12 && &payload[0..4] == ACK_MAGIC {
                let seq = u64::from_be_bytes(payload[4..12].try_into().expect("8"));
                if self.unacked.remove(&seq).is_some() {
                    self.acked += 1;
                    let sent = self.first_send.get(&seq).copied().unwrap_or(ctx.now());
                    self.ack_latencies
                        .push((sent, ctx.now().saturating_sub(sent)));
                }
            }
        }
        ctx.recycle_frame(frame);
    }
}

/// The receiving side: echoes probes, dedups data, ACKs every copy.
#[derive(Debug, Default)]
pub struct BondReceiver {
    /// Sequences delivered to the "application", in delivery order —
    /// exactly once each.
    pub delivered: Vec<u64>,
    seen: BTreeSet<u64>,
    /// Redundant copies (duplication or retransmission) suppressed
    /// before the application saw them.
    pub duplicates_suppressed: u64,
    /// ACK frames sent (one per copy received, duplicates included —
    /// re-ACKing is what lets the sender stop retransmitting).
    pub acks_sent: u64,
    /// TPP probes echoed.
    pub tpps_echoed: u64,
    /// Data copies received per arrival NIC.
    pub rx_per_port: BTreeMap<u16, u64>,
}

impl HostApp for BondReceiver {
    fn on_frame(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if echo_in_place(&mut frame, ctx.mac()) {
            self.tpps_echoed += 1;
            // Echo on the arrival NIC so the probe measures one path
            // both ways.
            ctx.send_on(ctx.rx_port(), frame);
            return;
        }
        if let Some((seq, src)) = bond_data(&frame) {
            let port = ctx.rx_port();
            *self.rx_per_port.entry(port).or_insert(0) += 1;
            if self.seen.insert(seq) {
                self.delivered.push(seq);
            } else {
                self.duplicates_suppressed += 1;
            }
            // ACK every copy, on its arrival NIC: the original ACK may
            // have been lost with its path.
            let mut ack = ctx.alloc_frame(ETHERNET_HEADER_LEN + 12);
            write_header(&mut ack, src, ctx.mac(), BOND_ETHERTYPE);
            ack.extend_from_slice(ACK_MAGIC);
            ack.extend_from_slice(&seq.to_be_bytes());
            ctx.send_on(port, ack);
            self.acks_sent += 1;
        }
        ctx.recycle_frame(frame);
    }
}

/// `(sequence, sender)` of a bond data frame; `None` for anything else.
fn bond_data(frame: &[u8]) -> Option<(u64, EthernetAddress)> {
    let parsed = Frame::new_checked(frame).ok()?;
    let payload = parsed.payload();
    if payload.len() < 12 || &payload[0..4] != DATA_MAGIC {
        return None;
    }
    let seq = u64::from_be_bytes(payload[4..12].try_into().expect("8"));
    Some((seq, parsed.src_addr()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::{bonded_diamond_with, time, BondedDiamondParams, RunLimit, SimConfig};

    fn sender_cfg(paths: usize) -> BondSenderConfig {
        BondSenderConfig {
            dst: EthernetAddress::from_host_id(1),
            expected_hops: 4,
            probe_interval_ns: time::micros(50),
            probe_timeout_ns: time::micros(300),
            probe_stop_ns: time::millis(5),
            data_interval_ns: time::micros(20),
            data_start_ns: time::micros(500),
            data_stop_ns: time::millis(4),
            payload_bytes: 500,
            rto_ns: time::micros(400),
            bond: BondConfig {
                paths,
                ..BondConfig::default()
            },
        }
    }

    #[test]
    fn clean_bond_delivers_every_sequence_exactly_once() {
        let (mut sim, d) = bonded_diamond_with(
            SimConfig::new(),
            BondedDiamondParams::default(),
            Box::new(BondSender::new(sender_cfg(2))),
            Box::new(BondReceiver::default()),
        );
        sim.run(RunLimit::Quiescent {
            limit_ns: time::millis(20),
        });
        let rx = sim.host_app::<BondReceiver>(d.receiver);
        let delivered = rx.delivered.clone();
        let suppressed = rx.duplicates_suppressed;
        let tx = sim.host_app::<BondSender>(d.sender);
        let sent = tx.sequences_sent();
        assert!(sent > 100, "flow actually ran: {sent}");
        assert_eq!(delivered.len() as u64, sent, "every sequence arrived");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), delivered.len(), "no duplicate delivery");
        assert_eq!(suppressed, 0, "clean network: nothing to suppress");
        assert_eq!(tx.unacked_len(), 0, "fully acked");
        assert!(tx.echoes_received.iter().all(|&e| e > 0));
        // Both paths carried data.
        assert!(tx.data_sent.iter().all(|&d| d > 0), "{:?}", tx.data_sent);
    }
}

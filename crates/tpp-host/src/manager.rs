//! Reliable probe delivery over an unreliable network.
//!
//! TPPs ride ordinary packets, and §2.2's position is that reliability is
//! an *end-host* concern: "the TPP layer is free to implement its own
//! reliability semantics". [`ProbeManager`] is that layer — a small state
//! machine every probing app embeds:
//!
//! * **Nonces.** Each tracked probe gets an 8-byte nonce appended after
//!   the TPP section (it extends the inner payload, so switches and the
//!   echo path carry it untouched). Echoes are matched back to their
//!   probe by nonce, which makes duplicated or stale echoes detectable.
//! * **Timeout + bounded retries.** A probe whose echo does not arrive
//!   within the policy timeout is re-sent (the identical frame, same
//!   nonce) up to [`RetryPolicy::max_retries`] times with exponential
//!   backoff and deterministic per-nonce jitter, then reported expired.
//! * **Boot-epoch tracking.** Hosts that read `Switch:BootEpoch` feed it
//!   to [`ProbeManager::note_epoch`]; a change means the switch rebooted
//!   and lost SRAM, so cached state about it must be re-seeded.
//!
//! Everything is deterministic: nonces derive from the host id and a
//! counter, jitter derives from the nonce, and retries are driven by the
//! simulator's timer — no wall clock, no entropy.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tpp_netsim::HostCtx;
use tpp_telemetry::{SharedSink, TraceEvent, TraceEventKind, TraceSink};

use tpp_wire::EthernetAddress;

use crate::probe::{parse_echo, ProbeBuilder};

/// Length of the nonce appended to tracked probe frames.
pub const NONCE_LEN: usize = 8;

/// Timer token a port-0 manager arms via [`HostCtx::set_timer`]. Apps
/// route tokens matching [`ProbeManager::is_timer`] to
/// [`ProbeManager::on_timer`]; it is deliberately large so it cannot
/// collide with small app-defined tokens. A manager bound to NIC `p`
/// (see [`ProbeManager::with_port`]) XORs `p` into bits 32..48 so that
/// apps running one manager per path can route each wake-up to exactly
/// one manager ([`ProbeManager::timer_port`]) — fanning a shared token
/// out to every manager would let each re-arm per fire and multiply
/// timer events.
pub const PROBE_TIMER_TOKEN: u64 = 0x5052_4f42_4d47_0001; // "PROBMG"+1

/// Bit span of [`PROBE_TIMER_TOKEN`] that carries the manager's port.
const TIMER_PORT_MASK: u64 = 0xFFFF_u64 << 32;

/// How many delivered nonces are remembered for duplicate detection.
const COMPLETED_MEMORY: usize = 1024;

/// Retry behavior for tracked probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Time to wait for the first echo before re-sending.
    pub timeout_ns: u64,
    /// Re-sends after the initial transmission; 0 means a single shot
    /// whose loss is reported as a timeout.
    pub max_retries: u32,
    /// Deterministic jitter added to each deadline, as a per-mille
    /// fraction of the backoff interval (250 = up to +25%). Spreads
    /// retries from hosts that probe in lockstep.
    pub jitter_permille: u16,
}

impl RetryPolicy {
    /// Backoff interval for a given attempt: `timeout * 2^attempt` plus
    /// per-(nonce, attempt) jitter. The shift is capped so pathological
    /// retry counts cannot overflow.
    fn backoff_of(policy: RetryPolicy, nonce: u64, attempt: u32) -> u64 {
        let base = policy.timeout_ns.saturating_mul(1 << attempt.min(16));
        let span = base / 1000 * u64::from(policy.jitter_permille);
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(nonce ^ u64::from(attempt)) % span
        };
        base + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ns: 50_000_000,
            max_retries: 4,
            jitter_permille: 250,
        }
    }
}

/// Classification of an incoming frame by [`ProbeManager::on_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeDelivery {
    /// Not an echoed TPP for this host (or not nonce-tracked).
    NotAProbe,
    /// First echo of an outstanding probe: process it.
    Fresh {
        /// The probe's nonce.
        nonce: u64,
    },
    /// First echo of a probe that already expired (retries exhausted).
    /// Still exactly-once — later copies come back `Duplicate` — but the
    /// app may have started recovering. Apps for which stale data is
    /// still valid (e.g. periodic telemetry) treat this like `Fresh`;
    /// state machines that acted on the expiry drop it.
    Late {
        /// The probe's nonce.
        nonce: u64,
    },
    /// An echo whose nonce is not outstanding — a duplicated, stale, or
    /// already-answered probe. Drop it.
    Duplicate {
        /// The echo's nonce.
        nonce: u64,
    },
}

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probes tracked (initial transmissions).
    pub sent: u64,
    /// Re-transmissions after a timeout.
    pub retries: u64,
    /// Probes abandoned after exhausting retries.
    pub timeouts: u64,
    /// Fresh echoes delivered to the app.
    pub delivered: u64,
    /// Duplicate/stale echoes suppressed.
    pub duplicates: u64,
    /// Echoes that arrived after their probe expired (first copies).
    pub late: u64,
    /// Boot-epoch changes observed via [`ProbeManager::note_epoch`].
    pub epoch_mismatches: u64,
}

#[derive(Debug)]
struct Outstanding {
    frame: Vec<u8>,
    attempt: u32,
    deadline_ns: u64,
}

/// Per-probe timeout/retry/dedup engine. See the module docs.
#[derive(Debug, Default)]
pub struct ProbeManager {
    policy: RetryPolicy,
    /// NIC all tracked probes (and retries) transmit on; 0 unless set
    /// with [`ProbeManager::with_port`]. Bonding apps run one manager
    /// per path.
    port: u16,
    /// Extra nonce-stream discriminator (see
    /// [`ProbeManager::with_salt`]); 0 keeps the historical nonces.
    salt: u64,
    nonce_counter: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    expired: BTreeSet<u64>,
    completed: BTreeSet<u64>,
    completed_order: VecDeque<u64>,
    epochs: BTreeMap<u32, u32>,
    armed_until: Option<u64>,
    trace: Option<SharedSink>,
    stats: ProbeStats,
}

/// splitmix64 — the standard 64-bit finalizer; deterministic and cheap.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Put a pooled copy of a retained probe frame on the wire.
fn send_copy(port: u16, frame: &[u8], ctx: &mut HostCtx<'_>) {
    let mut wire = ctx.alloc_frame(frame.len());
    wire.extend_from_slice(frame);
    ctx.send_on(port, wire);
}

impl ProbeManager {
    /// A manager with the given policy and no trace sink.
    pub fn new(policy: RetryPolicy) -> Self {
        ProbeManager {
            policy,
            ..ProbeManager::default()
        }
    }

    /// Attach a sink; the manager records `ProbeRetry`, `ProbeTimeout`
    /// and `EpochMismatch` trace events into it.
    pub fn set_trace(&mut self, sink: SharedSink) {
        self.trace = Some(sink);
    }

    /// Send all tracked probes (and their retries) out of NIC `port` of
    /// a multi-homed host instead of port 0.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Mix `salt` into the nonce stream. Two managers on the *same host*
    /// (one per bonded path) must use distinct salts so their nonces
    /// never collide; the default salt 0 preserves the single-manager
    /// nonce sequence.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// The NIC this manager transmits on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Counters.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Probes currently awaiting an echo.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// True when `token` is a manager service timer (any port).
    pub fn is_timer(token: u64) -> bool {
        (token ^ PROBE_TIMER_TOKEN) & !TIMER_PORT_MASK == 0
    }

    /// The NIC port encoded in a service-timer token (meaningful only
    /// when [`ProbeManager::is_timer`] holds). Multi-manager apps use it
    /// to route the wake-up to the one manager that armed it.
    pub fn timer_port(token: u64) -> u16 {
        (((token ^ PROBE_TIMER_TOKEN) & TIMER_PORT_MASK) >> 32) as u16
    }

    /// This manager's own service-timer token.
    fn timer_token(&self) -> u64 {
        PROBE_TIMER_TOKEN ^ ((self.port as u64) << 32)
    }

    /// The nonce carried by a tracked frame (its trailing 8 bytes).
    pub fn frame_nonce(frame: &[u8]) -> Option<u64> {
        let tail = frame.len().checked_sub(NONCE_LEN)?;
        let mut b = [0u8; NONCE_LEN];
        b.copy_from_slice(&frame[tail..]);
        Some(u64::from_be_bytes(b))
    }

    /// Append a nonce to `frame`, send it, and track it for retry.
    /// Returns the nonce.
    ///
    /// Build `frame` into a buffer from [`HostCtx::alloc_frame`] with
    /// [`NONCE_LEN`] bytes of capacity to spare and nothing here touches
    /// the allocator: the nonce fits, the wire copy comes from the pool,
    /// and the retained copy goes back to it once the probe is answered
    /// or given up on.
    pub fn track(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) -> u64 {
        self.nonce_counter += 1;
        // host_id+1 keeps host 0's nonces distinct from a raw counter;
        // the salt (shifted clear of the counter bits) separates
        // same-host managers. Salt 0 reproduces the historical stream.
        let nonce = splitmix64(
            ((ctx.host_id().0 as u64 + 1) << 40) ^ (self.salt << 20) ^ self.nonce_counter,
        );
        frame.extend_from_slice(&nonce.to_be_bytes());
        let deadline_ns = ctx.now() + self.backoff(nonce, 0);
        send_copy(self.port, &frame, ctx);
        self.outstanding.insert(
            nonce,
            Outstanding {
                frame,
                attempt: 0,
                deadline_ns,
            },
        );
        self.stats.sent += 1;
        self.arm(deadline_ns, ctx);
        nonce
    }

    /// Mint one probe of `probe` for `dst` into a pooled buffer sized for
    /// the nonce, and [`track`](Self::track) it. Returns the nonce.
    pub fn track_probe(
        &mut self,
        probe: &ProbeBuilder,
        dst: EthernetAddress,
        payload: &[u8],
        inner_ethertype: u16,
        ctx: &mut HostCtx<'_>,
    ) -> u64 {
        let mut frame = ctx.alloc_frame(probe.frame_len(payload.len()) + NONCE_LEN);
        probe.write_frame(dst, ctx.mac(), payload, inner_ethertype, &mut frame);
        self.track(frame, ctx)
    }

    /// Classify an incoming frame. `Fresh` is returned exactly once per
    /// tracked probe; duplicated and stale echoes come back `Duplicate`.
    pub fn on_frame(&mut self, frame: &[u8], ctx: &mut HostCtx<'_>) -> ProbeDelivery {
        if parse_echo(frame, ctx.mac()).is_none() {
            return ProbeDelivery::NotAProbe;
        }
        let Some(nonce) = Self::frame_nonce(frame) else {
            return ProbeDelivery::NotAProbe;
        };
        if let Some(o) = self.outstanding.remove(&nonce) {
            ctx.recycle_frame(o.frame);
            self.remember_completed(nonce);
            self.stats.delivered += 1;
            return ProbeDelivery::Fresh { nonce };
        }
        if self.expired.remove(&nonce) {
            self.remember_completed(nonce);
            self.stats.late += 1;
            return ProbeDelivery::Late { nonce };
        }
        if self.completed.contains(&nonce) {
            self.stats.duplicates += 1;
            return ProbeDelivery::Duplicate { nonce };
        }
        // An echoed TPP for us without a nonce we issued — e.g. an app's
        // untracked probe. Let the app look at it.
        ProbeDelivery::NotAProbe
    }

    /// Service the retry clock: re-send due probes, expire exhausted
    /// ones. Returns the nonces that gave up (the app decides whether to
    /// re-issue a fresh probe). Call from `on_timer` when
    /// [`ProbeManager::is_timer`] matches.
    pub fn on_timer(&mut self, ctx: &mut HostCtx<'_>) -> Vec<u64> {
        self.armed_until = None;
        let now = ctx.now();
        let due: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.deadline_ns <= now)
            .map(|(n, _)| *n)
            .collect();
        let mut expired = Vec::new();
        for nonce in due {
            let o = self.outstanding.get_mut(&nonce).expect("due nonce");
            if o.attempt < self.policy.max_retries {
                o.attempt += 1;
                let attempt = o.attempt;
                let backoff = RetryPolicy::backoff_of(self.policy, nonce, attempt);
                o.deadline_ns = now + backoff;
                send_copy(self.port, &o.frame, ctx);
                self.stats.retries += 1;
                self.emit(ctx.now(), 0, TraceEventKind::ProbeRetry { nonce, attempt });
            } else {
                let retries = o.attempt;
                if let Some(o) = self.outstanding.remove(&nonce) {
                    ctx.recycle_frame(o.frame);
                }
                self.expired.insert(nonce);
                // Bound the expired set the same way as the completed
                // one: echoes older than the memory window are dropped
                // as duplicates at worst.
                if self.expired.len() > COMPLETED_MEMORY {
                    let oldest = self.expired.iter().next().copied();
                    if let Some(old) = oldest {
                        self.expired.remove(&old);
                    }
                }
                self.stats.timeouts += 1;
                self.emit(
                    ctx.now(),
                    0,
                    TraceEventKind::ProbeTimeout { nonce, retries },
                );
                expired.push(nonce);
            }
        }
        if let Some(next) = self.outstanding.values().map(|o| o.deadline_ns).min() {
            self.arm(next, ctx);
        }
        expired
    }

    /// Record a switch's boot epoch as read from `Switch:BootEpoch`.
    /// Returns `true` when it differs from the last recorded value — the
    /// switch rebooted, and any cached state about it is stale.
    pub fn note_epoch(&mut self, switch_id: u32, epoch: u32, ctx: &mut HostCtx<'_>) -> bool {
        match self.epochs.insert(switch_id, epoch) {
            Some(prev) if prev != epoch => {
                self.stats.epoch_mismatches += 1;
                self.emit(
                    ctx.now(),
                    switch_id,
                    TraceEventKind::EpochMismatch {
                        expected: prev,
                        observed: epoch,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// The last epoch recorded for `switch_id`, if any.
    pub fn epoch(&self, switch_id: u32) -> Option<u32> {
        self.epochs.get(&switch_id).copied()
    }

    fn backoff(&self, nonce: u64, attempt: u32) -> u64 {
        RetryPolicy::backoff_of(self.policy, nonce, attempt)
    }

    /// Arm the service timer for `deadline_ns` unless an earlier or
    /// equal wake-up is already pending. Timers cannot be cancelled, so
    /// a stale early wake-up simply finds nothing due and re-arms.
    fn arm(&mut self, deadline_ns: u64, ctx: &mut HostCtx<'_>) {
        if self.armed_until.is_some_and(|t| t <= deadline_ns) {
            return;
        }
        self.armed_until = Some(deadline_ns);
        let delay = deadline_ns.saturating_sub(ctx.now()).max(1);
        ctx.set_timer(delay, self.timer_token());
    }

    fn remember_completed(&mut self, nonce: u64) {
        if self.completed.insert(nonce) {
            self.completed_order.push_back(nonce);
            if self.completed_order.len() > COMPLETED_MEMORY {
                if let Some(old) = self.completed_order.pop_front() {
                    self.completed.remove(&old);
                }
            }
        }
    }

    fn emit(&mut self, t_ns: u64, switch_id: u32, kind: TraceEventKind) {
        if let Some(sink) = &mut self.trace {
            sink.record(TraceEvent {
                t_ns,
                switch_id,
                seq: 0,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EchoReceiver;
    use tpp_asic::AsicConfig;
    use tpp_isa::assemble;
    use tpp_netsim::RunLimit;
    use tpp_netsim::{time, Endpoint, HostApp, NetworkBuilder};

    /// Sends one tracked probe; counts fresh and duplicate echoes and
    /// expirations.
    struct Tracker {
        dst: EthernetAddress,
        mgr: ProbeManager,
        fresh: u32,
        dup: u32,
        expired: u32,
    }

    impl Tracker {
        fn new(dst: EthernetAddress, policy: RetryPolicy) -> Self {
            Tracker {
                dst,
                mgr: ProbeManager::new(policy),
                fresh: 0,
                dup: 0,
                expired: 0,
            }
        }
    }

    impl HostApp for Tracker {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let program = assemble("PUSH [Switch:SwitchID]").unwrap();
            let probe = ProbeBuilder::stack(&program, 2);
            self.mgr.track_probe(&probe, self.dst, &[], 0, ctx);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
            if ProbeManager::is_timer(token) {
                self.expired += self.mgr.on_timer(ctx).len() as u32;
            }
        }

        fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
            match self.mgr.on_frame(&frame, ctx) {
                ProbeDelivery::Fresh { .. } | ProbeDelivery::Late { .. } => self.fresh += 1,
                ProbeDelivery::Duplicate { .. } => self.dup += 1,
                ProbeDelivery::NotAProbe => {}
            }
            ctx.recycle_frame(frame);
        }
    }

    fn two_hosts(policy: RetryPolicy) -> (tpp_netsim::Simulator, tpp_netsim::HostId) {
        let mut net = NetworkBuilder::new();
        let s = net.add_switch(AsicConfig::with_ports(1, 2));
        let h0 = net.add_host(
            Box::new(Tracker::new(EthernetAddress::from_host_id(1), policy)),
            1_000_000,
        );
        let h1 = net.add_host(Box::new(EchoReceiver::default()), 1_000_000);
        net.connect(Endpoint::host(h0), Endpoint::switch(s, 0), time::micros(1));
        net.connect(Endpoint::host(h1), Endpoint::switch(s, 1), time::micros(1));
        let mut sim = net.build();
        sim.populate_l2();
        (sim, h0)
    }

    #[test]
    fn clean_network_delivers_fresh_exactly_once() {
        let (mut sim, h0) = two_hosts(RetryPolicy::default());
        sim.run(RunLimit::Until(time::secs(1)));
        let t = sim.host_app::<Tracker>(h0);
        assert_eq!(t.fresh, 1);
        assert_eq!(t.dup, 0);
        assert_eq!(t.expired, 0);
        assert_eq!(t.mgr.stats().retries, 0);
        assert_eq!(t.mgr.outstanding(), 0);
        // Two buffers were ever allocated — the retained probe and its
        // wire copy — and both are back in the pool: the retained one on
        // the echo, the wire copy (echoed in place) from `on_frame`.
        assert_eq!(sim.frame_pool_stats(), (0, 2, 2));
    }

    #[test]
    fn total_loss_exhausts_retries_then_expires() {
        let policy = RetryPolicy {
            timeout_ns: time::millis(10),
            max_retries: 2,
            jitter_permille: 100,
        };
        let (mut sim, h0) = two_hosts(policy);
        // Lose everything the host transmits.
        let hep = Endpoint::host(h0);
        assert_eq!(sim.set_link_loss(hep, 1000), 1000);
        sim.run(RunLimit::Until(time::secs(2)));
        let t = sim.host_app::<Tracker>(h0);
        assert_eq!(t.fresh, 0);
        assert_eq!(t.expired, 1);
        assert_eq!(t.mgr.stats().retries, 2, "bounded retries");
        assert_eq!(t.mgr.stats().timeouts, 1);
        assert_eq!(t.mgr.outstanding(), 0);
        // Each retry's wire copy reuses the buffer the lossy link just
        // ate, and expiry hands the retained frame back too.
        assert_eq!(sim.frame_pool_stats(), (2, 2, 4));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let mgr = ProbeManager::new(RetryPolicy {
            timeout_ns: 1_000,
            max_retries: 8,
            jitter_permille: 250,
        });
        let b0 = mgr.backoff(42, 0);
        let b1 = mgr.backoff(42, 1);
        let b2 = mgr.backoff(42, 2);
        assert!((1_000..=1_250).contains(&b0));
        assert!((2_000..=2_500).contains(&b1));
        assert!((4_000..=5_000).contains(&b2));
        assert_eq!(b1, mgr.backoff(42, 1), "same inputs, same jitter");
        assert_ne!(
            mgr.backoff(42, 1) - 2_000,
            mgr.backoff(43, 1) - 2_000,
            "different nonces jitter differently"
        );
    }

    #[test]
    fn frame_nonce_reads_trailing_bytes() {
        let mut frame = vec![0u8; 20];
        frame.extend_from_slice(&0xdead_beef_cafe_f00du64.to_be_bytes());
        assert_eq!(
            ProbeManager::frame_nonce(&frame),
            Some(0xdead_beef_cafe_f00d)
        );
        assert_eq!(ProbeManager::frame_nonce(&[1, 2, 3]), None);
    }
}

//! §3.2.3 / §2.2 — concurrent writers and the CSTORE consistency story.
//!
//! "With multiple concurrent writers to a shared switch memory, one might
//! wonder if there could be race conditions that are hard to detect.
//! While this is a legitimate concern for network tasks such as
//! accounting, we found that congestion control does not require such
//! strong notions of consistency. Nevertheless, we support a conditional
//! store instruction to provide a stronger (linearizable) notion of
//! consistency for memory updates."
//!
//! [`CounterTask`] is exactly the "accounting" task that *does* need it:
//! each host increments a shared per-switch counter N times. In
//! [`CounterWriteMode::Racy`] mode the read-modify-write round trip is
//! plain `PUSH` + `STORE`, and concurrent hosts lose updates. In
//! [`CounterWriteMode::Linearizable`] mode the write is a `CSTORE`
//! conditioned on the value read, retried on conflict — and no update is
//! ever lost. Experiment E8 quantifies the difference.
//!
//! Reliability is layered on top with [`ProbeManager`] (timeouts,
//! bounded retries, nonce dedup) plus a per-writer *sequence guard* in
//! the increment program itself:
//!
//! ```text
//! CEXEC  [Seq[w]] == s-1     ; halt if op s already ran (duplicate)
//! STORE  [Seq[w]] := s       ; consume the sequence number
//! CSTORE [counter] c -> c+1  ; the increment; old value -> packet
//! STORE  [Res[w]]  := old    ; record the outcome durably
//! ```
//!
//! A retried or duplicated probe finds `Seq[w] == s` and halts, so op
//! `s` executes at most once no matter how many copies the network
//! delivers. When every echo for op `s` is lost, a recovery read of
//! `(counter, Seq[w], Res[w])` tells the host whether the increment
//! applied (`Res[w] == c`), making increments exactly-once even under
//! loss + reordering + duplication. `Switch:BootEpoch` rides along in
//! every read so a switch reboot (which wipes the cells) is detected and
//! the guard state re-seeded.
//!
//! All probes are gated with `CEXEC` on the target switch ID, so the same
//! program is correct on any multi-hop path (only the target switch
//! executes the access). The `CEXEC` operand blocks sit at high packet-
//! memory offsets (word 8+) so stack pushes never clobber them.

use tpp_host::{parse_echo, ProbeBuilder, ProbeDelivery, ProbeManager, RetryPolicy};
#[cfg(test)]
use tpp_isa::VirtAddr;
use tpp_isa::{assemble, Assembler, SymbolTable};
use tpp_netsim::{HostApp, HostCtx};
use tpp_wire::EthernetAddress;

/// How the counter's write half is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterWriteMode {
    /// `STORE` of locally-computed value: lost updates under concurrency.
    Racy,
    /// `CSTORE` conditioned on the read value, retried on conflict.
    Linearizable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Waiting for a read echo; `recover` carries the unresolved op
    /// `(s, cond)` when this read is resolving an ambiguous increment.
    AwaitRead {
        recover: Option<(u32, u32)>,
    },
    /// Racy mode: waiting for the unconditional STORE's echo.
    AwaitWrite {
        value_written: u32,
    },
    /// Linearizable mode: waiting for guarded increment op `s` with
    /// condition `cond`.
    AwaitOp {
        seq: u32,
        cond: u32,
    },
    Done,
}

const TIMER_KICK: u64 = 1;

/// Initial value of the CSTORE old-value slot; still present in the echo
/// only when the seq guard halted the program (op already consumed).
const OLD_SENTINEL: u32 = 0xffff_ffff;

/// A host that performs `goal` increments of a shared switch counter.
#[derive(Debug)]
pub struct CounterTask {
    dst: EthernetAddress,
    mode: CounterWriteMode,
    target_switch: u32,
    counter_word: usize,
    counter_addr_text: String,
    seq_addr_text: String,
    res_addr_text: String,
    goal: u32,
    phase: Phase,
    /// Sequence number of the next increment op (1-based; the per-writer
    /// seq cell starts at 0).
    next_seq: u32,
    probes: ProbeManager,
    /// Increments completed.
    pub completed: u32,
    /// CSTORE conflicts encountered (linearizable mode only).
    pub conflicts: u64,
    /// Probe round-trips used.
    pub round_trips: u64,
}

impl CounterTask {
    /// Increment `Switch:Scratch[word]` at `target_switch` `goal` times,
    /// probing along the path to `dst`.
    pub fn new(
        dst: EthernetAddress,
        target_switch: u32,
        word: usize,
        goal: u32,
        mode: CounterWriteMode,
    ) -> Self {
        CounterTask {
            dst,
            mode,
            target_switch,
            counter_word: word,
            counter_addr_text: format!("Switch:Scratch[{word}]"),
            seq_addr_text: String::new(),
            res_addr_text: String::new(),
            goal,
            phase: Phase::Idle,
            next_seq: 1,
            probes: ProbeManager::new(RetryPolicy {
                timeout_ns: 50_000_000,
                max_retries: 3,
                jitter_permille: 250,
            }),
            completed: 0,
            conflicts: 0,
            round_trips: 0,
        }
    }

    /// True once `goal` increments have been applied.
    pub fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The reliability layer's counters (retries, timeouts, dedup hits).
    pub fn probe_stats(&self) -> tpp_host::ProbeStats {
        self.probes.stats()
    }

    fn asm(&self) -> Assembler {
        Assembler::with_symbols(SymbolTable::new())
    }

    fn gate_init(&self) -> [u32; 2] {
        [0xffff_ffff, self.target_switch]
    }

    /// `CEXEC` gate + read of counter, guard cells, and boot epoch.
    /// Stack pushes land at words 0..4; the gate block lives at 8..10.
    fn send_read(&mut self, recover: Option<(u32, u32)>, ctx: &mut HostCtx<'_>) {
        let program = assemble(&format!(
            "CEXEC [Switch:SwitchID], [Packet:8]\n\
             PUSH [{counter}]\nPUSH [{seq}]\nPUSH [{res}]\nPUSH [Switch:BootEpoch]",
            counter = self.counter_addr_text,
            seq = self.seq_addr_text,
            res = self.res_addr_text,
        ))
        .expect("static program");
        let mut init = vec![0u32; 10];
        init[8..10].copy_from_slice(&self.gate_init());
        let probe = ProbeBuilder::stack(&program, 1).init_memory(&init);
        self.probes.track_probe(&probe, self.dst, &[], 0, ctx);
        self.phase = Phase::AwaitRead { recover };
    }

    /// Racy write: gate + unconditional `STORE` of `value`.
    fn send_write(&mut self, value: u32, ctx: &mut HostCtx<'_>) {
        let program = self
            .asm()
            .assemble(&format!(
                "CEXEC [Switch:SwitchID], [Packet:8]\nSTORE [{}], [Packet:2]",
                self.counter_addr_text
            ))
            .expect("static program");
        let mut init = vec![0u32; 10];
        init[2] = value;
        init[8..10].copy_from_slice(&self.gate_init());
        let probe = ProbeBuilder::stack(&program, 1).init_memory(&init);
        self.probes.track_probe(&probe, self.dst, &[], 0, ctx);
        self.phase = Phase::AwaitWrite {
            value_written: value,
        };
    }

    /// Linearizable increment op `s`: seq guard, `CSTORE cond -> cond+1`,
    /// durable outcome record (module docs). Every transmission of op
    /// `s` carries the same `(s, cond)`, so at most one copy executes.
    fn send_op(&mut self, s: u32, cond: u32, ctx: &mut HostCtx<'_>) {
        let program = self
            .asm()
            .assemble(&format!(
                "CEXEC [Switch:SwitchID], [Packet:8]\n\
                 CEXEC [{seq}], [Packet:10]\n\
                 STORE [{seq}], [Packet:2]\n\
                 CSTORE [{counter}], [Packet:4]\n\
                 STORE [{res}], [Packet:6]",
                seq = self.seq_addr_text,
                counter = self.counter_addr_text,
                res = self.res_addr_text,
            ))
            .expect("static program");
        let mut init = vec![0u32; 12];
        init[2] = s;
        init[4] = cond;
        init[5] = cond.wrapping_add(1);
        init[6] = OLD_SENTINEL;
        init[8..10].copy_from_slice(&self.gate_init());
        init[10] = 0xffff_ffff;
        init[11] = s - 1;
        let probe = ProbeBuilder::stack(&program, 1).init_memory(&init);
        self.probes.track_probe(&probe, self.dst, &[], 0, ctx);
        self.phase = Phase::AwaitOp { seq: s, cond };
    }

    fn advance(&mut self, ctx: &mut HostCtx<'_>) {
        if self.completed >= self.goal {
            self.phase = Phase::Done;
            return;
        }
        self.send_read(None, ctx);
    }

    /// An op is resolved: count it, bump the sequence, continue.
    fn resolve_op(&mut self, s: u32, applied: bool, ctx: &mut HostCtx<'_>) {
        if applied {
            self.completed += 1;
        } else {
            self.conflicts += 1;
        }
        self.next_seq = s + 1;
        self.advance(ctx);
    }
}

impl HostApp for CounterTask {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Per-writer guard cells above the shared counter word: hosts
        // never collide because host ids are unique.
        let w = ctx.host_id().0;
        self.seq_addr_text = format!("Switch:Scratch[{}]", self.counter_word + 1 + 2 * w);
        self.res_addr_text = format!("Switch:Scratch[{}]", self.counter_word + 2 + 2 * w);
        ctx.set_timer(1, TIMER_KICK);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        if token == TIMER_KICK {
            self.advance(ctx);
            return;
        }
        if ProbeManager::is_timer(token) {
            let expired = self.probes.on_timer(ctx);
            if expired.is_empty() || self.done() {
                return;
            }
            // The current probe exhausted its retries. Reads and racy
            // writes are idempotent — re-issue them. An increment op's
            // fate is unknown, so resolve it with a recovery read.
            match self.phase {
                Phase::AwaitRead { recover } => self.send_read(recover, ctx),
                Phase::AwaitWrite { value_written } => self.send_write(value_written, ctx),
                Phase::AwaitOp { seq, cond } => self.send_read(Some((seq, cond)), ctx),
                Phase::Idle | Phase::Done => {}
            }
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        self.on_echo(&frame, ctx);
        ctx.recycle_frame(frame);
    }
}

impl CounterTask {
    fn on_echo(&mut self, frame: &[u8], ctx: &mut HostCtx<'_>) {
        match self.probes.on_frame(frame, ctx) {
            ProbeDelivery::Fresh { .. } => {}
            // Duplicated, stale, or foreign frames carry no new
            // information, and a late echo races the recovery read that
            // its expiry already triggered — the read supersedes it.
            ProbeDelivery::Late { .. }
            | ProbeDelivery::Duplicate { .. }
            | ProbeDelivery::NotAProbe => return,
        }
        let Some(tpp) = parse_echo(frame, ctx.mac()) else {
            return;
        };
        self.round_trips += 1;
        let memory = tpp.memory_words();
        let stack = tpp.stack_words();
        match self.phase {
            Phase::AwaitRead { recover } => {
                // The gated pushes ran only on the target switch:
                // [counter, seq, res, epoch].
                let [counter_val, seq_val, res_val, epoch] = stack[..] else {
                    // Short stack: the probe never executed cleanly.
                    self.send_read(recover, ctx);
                    return;
                };
                let mut recover = recover;
                if self.probes.note_epoch(self.target_switch, epoch, ctx) {
                    // The switch rebooted: counter and guard cells are
                    // wiped. Re-seed the sequence space from the state
                    // the read just observed and forget any pre-reboot
                    // op — its fate is unknowable now.
                    self.next_seq = seq_val + 1;
                    recover = None;
                }
                if let Some((s, cond)) = recover {
                    if seq_val >= s {
                        // Op `s` executed exactly once; the durable
                        // outcome cell says whether it applied.
                        self.resolve_op(s, res_val == cond, ctx);
                    } else {
                        // Never executed (copies may still be in
                        // flight): re-issue the identical op — the seq
                        // guard makes extra copies harmless.
                        self.send_op(s, cond, ctx);
                    }
                    return;
                }
                match self.mode {
                    CounterWriteMode::Racy => self.send_write(counter_val.wrapping_add(1), ctx),
                    CounterWriteMode::Linearizable => self.send_op(self.next_seq, counter_val, ctx),
                }
            }
            Phase::AwaitWrite { .. } => {
                // Fire-and-forget store: count it and move on. (This is
                // precisely why updates get lost.)
                self.completed += 1;
                self.advance(ctx);
            }
            Phase::AwaitOp { seq, cond } => {
                let Some(&old) = memory.get(6) else {
                    self.send_read(Some((seq, cond)), ctx);
                    return;
                };
                if old == cond {
                    // The CSTORE matched: increment applied.
                    self.resolve_op(seq, true, ctx);
                } else if old == OLD_SENTINEL {
                    // Seq guard halted: an earlier copy of op `seq`
                    // already consumed it — ask the switch what happened.
                    self.send_read(Some((seq, cond)), ctx);
                } else {
                    // Conflict: another writer got in first. The op ran
                    // (seq consumed) but did not apply.
                    self.resolve_op(seq, false, ctx);
                }
            }
            Phase::Idle | Phase::Done => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_host::EchoReceiver;
    use tpp_isa::Stat;
    use tpp_netsim::RunLimit;
    use tpp_netsim::{dumbbell, time, DumbbellParams, Simulator};

    const COUNTER_WORD: usize = 4;
    const TARGET_SWITCH: u32 = 1; // dumbbell left switch

    fn counter_addr() -> VirtAddr {
        VirtAddr(0x8000 + (COUNTER_WORD as u16) * 4)
    }

    fn run(
        n_hosts: usize,
        goal: u32,
        mode: CounterWriteMode,
    ) -> (Simulator, tpp_netsim::Dumbbell, u32) {
        let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = (0..n_hosts)
            .map(|i| {
                let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
                (
                    Box::new(CounterTask::new(
                        dst,
                        TARGET_SWITCH,
                        COUNTER_WORD,
                        goal,
                        mode,
                    )) as Box<dyn HostApp>,
                    Box::new(EchoReceiver::default()) as Box<dyn HostApp>,
                )
            })
            .collect();
        let (mut sim, bell) = dumbbell(
            DumbbellParams {
                n_pairs: n_hosts,
                bottleneck_kbps: 100_000, // uncongested for this task
                ..Default::default()
            },
            apps,
        );
        sim.run(RunLimit::Until(time::secs(30)));
        let value = sim
            .switch(bell.left)
            .global_sram()
            .word(counter_addr().word_index())
            .unwrap();
        (sim, bell, value)
    }

    #[test]
    fn single_writer_is_exact_either_way() {
        for mode in [CounterWriteMode::Racy, CounterWriteMode::Linearizable] {
            let (sim, bell, value) = run(1, 20, mode);
            let task = sim.host_app::<CounterTask>(bell.senders[0]);
            assert!(task.done(), "task incomplete in {mode:?}");
            assert_eq!(value, 20, "mode {mode:?}");
        }
    }

    #[test]
    fn concurrent_racy_writers_lose_updates() {
        let (sim, bell, value) = run(3, 30, CounterWriteMode::Racy);
        for s in &bell.senders {
            assert!(sim.host_app::<CounterTask>(*s).done());
        }
        // 90 increments issued; interleaved read-modify-write must lose
        // some (hosts probe in near-lockstep through the same switch).
        assert!(value < 90, "no lost updates despite racing: {value}");
        assert!(value >= 30, "sanity: at least one host's worth applied");
    }

    #[test]
    fn cstore_makes_concurrent_writers_exact() {
        let (sim, bell, value) = run(3, 30, CounterWriteMode::Linearizable);
        let mut conflicts = 0;
        for s in &bell.senders {
            let task = sim.host_app::<CounterTask>(*s);
            assert!(task.done());
            conflicts += task.conflicts;
        }
        assert_eq!(value, 90, "CSTORE must not lose updates");
        assert!(conflicts > 0, "the race was real: conflicts were detected");
    }

    #[test]
    fn gate_prevents_other_switches_from_executing() {
        // After a run, the *right* switch's counter word must be
        // untouched: the CEXEC gate kept the access on switch 1 only.
        let (sim, bell, _) = run(2, 10, CounterWriteMode::Linearizable);
        assert_eq!(
            sim.switch(bell.right)
                .global_sram()
                .word(counter_addr().word_index())
                .unwrap(),
            0
        );
        // (Also a sanity check that the stat symbol we gate on exists.)
        assert_eq!(Stat::SwitchId.addr(), VirtAddr(0));
    }
}

//! The observability plane must be exact and invisible.
//!
//! Two families of invariants:
//!
//! 1. **Attribution is exact.** The per-stage cycle charges the profiler
//!    records (parser, tables, TCPU, MMU) sum to precisely the span
//!    total it reports, for arbitrary TPP frames — and the attribution
//!    is identical with the decode cache on and off, since a cached
//!    program must *charge* what its execution costs in the model, not
//!    what the shortcut cost.
//! 2. **Sampling is invisible.** Enabling the profiler (sample every
//!    packet) must not change a single forwarded byte, register, or
//!    conformance verdict: the observability plane reads the pipeline,
//!    never steers it.
//!
//! And the two instruments do not interfere: a switch with a trace sink
//! and the profiler both on traces exactly like a trace-only twin and
//! profiles exactly like a profile-only twin.

use proptest::prelude::*;
use tpp_asic::{
    Asic, AsicConfig, FlowAction, FlowEntry, FlowMatch, ProfStage, ProfileConfig, StripAction,
};
use tpp_bench::conformance::{default_corpus_dir, load_corpus, run_case};
use tpp_bench::testgen::{asic_pair, regs_match, tpp_frame};
use tpp_telemetry::{DropKind, SharedSink, TraceEventKind};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::tpp::{AddressingMode, TppBuilder};
use tpp_wire::EthernetAddress;

/// Sum of the four ingress-stage histogram totals (the scheduler stage
/// is charged on dequeue and excluded from the span total).
fn ingress_stage_sum(p: &tpp_asic::PipelineProfile) -> u64 {
    [
        ProfStage::Parser,
        ProfStage::Tables,
        ProfStage::Tcpu,
        ProfStage::Mmu,
    ]
    .iter()
    .map(|&s| p.stage(s).sum())
    .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-stage charges sum exactly to the profiled total, frame by
    /// frame and in aggregate, with caches on and off.
    #[test]
    fn stage_attribution_sums_to_total(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        repeats in 1usize..4,
    ) {
        let (mut cached, mut uncached) = asic_pair();
        cached.enable_profiling(ProfileConfig::default());
        uncached.enable_profiling(ProfileConfig::default());
        let frame = tpp_frame(1, 9, &words, &mem);
        for round in 0..repeats {
            for asic in [&mut cached, &mut uncached] {
                asic.handle_frame(frame.clone(), 0, round as u64);
                let span = asic.profile().expect("profiled").last_span();
                prop_assert_eq!(
                    span.parser_cycles + span.tables_cycles
                        + span.tcpu_cycles + span.mmu_cycles,
                    span.total_cycles(),
                    "span stages must sum to span total"
                );
                asic.dequeue(1);
            }
        }
        for asic in [&cached, &uncached] {
            let p = asic.profile().expect("profiled");
            // sample_every=1: every packet lands in the stage
            // histograms, so aggregate totals must reconcile too.
            prop_assert_eq!(ingress_stage_sum(p), p.total_cycles());
            prop_assert_eq!(p.packets(), p.sampled());
        }
        // Cached and uncached pipelines charge identical cycles: the
        // attribution models the table walk, not the shortcut.
        let (pc, pu) = (
            cached.profile().expect("profiled"),
            uncached.profile().expect("profiled"),
        );
        prop_assert_eq!(pc.total_cycles(), pu.total_cycles());
        for stage in ProfStage::ALL {
            prop_assert_eq!(
                pc.stage(stage).sum(),
                pu.stage(stage).sum(),
                "stage {} diverged between caches on/off", stage.name()
            );
        }
        prop_assert_eq!(
            pc.opcode_breakdown().collect::<Vec<_>>(),
            pu.opcode_breakdown().collect::<Vec<_>>()
        );
    }

    /// A profiled ASIC forwards bit-identically to an unprofiled one:
    /// same outcomes, same egress bytes, same TPP-visible registers.
    #[test]
    fn profiling_never_changes_forwarding(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        dsts in proptest::collection::vec(0u32..4, 1..6),
    ) {
        let (mut profiled, _) = asic_pair();
        let (mut plain, _) = asic_pair();
        profiled.enable_profiling(ProfileConfig::default());
        for (i, &dst) in dsts.iter().enumerate() {
            let frame = tpp_frame(dst, 9, &words, &mem);
            let out_a = profiled.handle_frame(frame.clone(), 0, i as u64);
            let out_b = plain.handle_frame(frame, 0, i as u64);
            prop_assert_eq!(out_a, out_b, "outcome diverged under profiling");
            for port in 0..profiled.num_ports() as u16 {
                prop_assert_eq!(
                    profiled.dequeue(port),
                    plain.dequeue(port),
                    "egress bytes diverged on port {}", port
                );
            }
        }
        regs_match(&profiled, &plain);
    }
}

/// A switch for the twin-observer property. TPPs arriving on port 1 are
/// dropped at the edge and those on port 2 unwrapped; port 0 is trusted.
/// Every route leaves by port 3, whose 300-byte queues overflow on the
/// second plain frame.
fn observed_asic() -> Asic {
    let mut asic = Asic::new(AsicConfig::with_ports(7, 4).queue_limit_bytes(300));
    asic.set_ingress_tpp_filter(1, Some(StripAction::Drop));
    asic.set_ingress_tpp_filter(2, Some(StripAction::Unwrap));
    provision(&mut asic);
    asic
}

/// The tables a reboot wipes: host 1 by L2, and a TCAM entry dropping
/// EtherType 0x0802.
fn provision(asic: &mut Asic) {
    asic.l2_mut().insert(EthernetAddress::from_host_id(1), 3);
    asic.install_flow(FlowEntry {
        id: 1,
        version: 1,
        priority: 10,
        pattern: FlowMatch {
            ethertype: Some(0x0802),
            ..Default::default()
        },
        action: FlowAction::Drop,
    });
}

/// Apply one step of a twin-observer run to `asic`: `kind` picks the
/// pipeline path (see the arms), `arg` sizes a runt frame.
fn observed_step(asic: &mut Asic, (kind, arg): (u8, u8), now_ns: u64, tpp: &[u8]) {
    let to = |dst: u32, ethertype: u16, payload: &[u8]| {
        let [dst, src] = [dst, 9].map(EthernetAddress::from_host_id);
        build_frame(dst, src, EtherType(ethertype), payload)
    };
    let wrapped = || {
        let tpp = TppBuilder::new(AddressingMode::Stack).payload(b"inner");
        to(1, EtherType::TPP.0, &tpp.inner_ethertype(0x0800).build())
    };
    let (frame, port) = match kind % 10 {
        0 => (tpp.to_vec(), 0),                 // the TCPU runs it
        1 => (vec![0; (arg % 14) as usize], 0), // parse error
        2 => (tpp.to_vec(), 1),                 // edge drop
        3 => (tpp.to_vec(), 2),                 // nothing to unwrap
        4 => (wrapped(), 2),                    // unwrapped, forwarded
        5 => (to(77, 0x0800, &[0; 200]), 0),    // no route
        6 => (to(1, 0x0802, &[0; 200]), 0),     // flow drop
        7 => (to(1, 0x0800, &[0; 200]), 0),     // queued, or queue full
        8 => {
            asic.dequeue(3);
            return;
        }
        _ => {
            asic.reset(now_ns);
            return provision(asic);
        }
    };
    asic.handle_frame(frame, port, now_ns);
}

/// Step kinds that take every path [`observed_step`] has, each drop
/// reason included; they run ahead of the random steps.
const EVERY_PATH: [u8; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 7, 8, 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tracing and profiling one switch at once changes neither: the
    /// event stream equals a trace-only twin's and the profile a
    /// profile-only twin's.
    #[test]
    fn trace_and_profile_do_not_interfere(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        steps in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let [mut both, mut traced, mut profiled] = [(); 3].map(|_| observed_asic());
        let [both_sink, traced_sink] = [(); 2].map(|_| SharedSink::new(1 << 12));
        both.set_trace_sink(Some(Box::new(both_sink.clone())));
        traced.set_trace_sink(Some(Box::new(traced_sink.clone())));
        both.enable_profiling(ProfileConfig::default());
        profiled.enable_profiling(ProfileConfig::default());

        let tpp = tpp_frame(1, 9, &words, &mem);
        let script = EVERY_PATH.iter().map(|&kind| (kind, 0)).chain(steps);
        for (i, step) in script.enumerate() {
            for asic in [&mut both, &mut traced, &mut profiled] {
                observed_step(asic, step, 100 * i as u64, &tpp);
            }
        }

        let events = both_sink.events();
        prop_assert_eq!(&events, &traced_sink.events());
        // `Debug` prints every field — counters, the open and last spans,
        // stage histograms, reservoirs with their RNG state, the opcode
        // mix — so equal strings mean equal profiles.
        prop_assert_eq!(
            format!("{:?}", both.profile().expect("profiled")),
            format!("{:?}", profiled.profile().expect("profiled"))
        );

        // The script reached every transition the property is about.
        let drops: Vec<DropKind> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Drop { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        for reason in [
            DropKind::ParseError,
            DropKind::EdgeFiltered,
            DropKind::NoRoute,
            DropKind::FlowDrop,
            DropKind::QueueFull,
        ] {
            prop_assert!(drops.contains(&reason), "no {:?} drop", reason);
        }
        let unwrap_failed = events.windows(2).any(|w| {
            matches!(w[0].kind, TraceEventKind::EdgeFilter { action: "unwrap", .. })
                && matches!(w[1].kind, TraceEventKind::Drop { reason: DropKind::EdgeFiltered, .. })
        });
        prop_assert!(unwrap_failed, "no failed unwrap");
        for name in ["dequeue", "switch_reboot"] {
            prop_assert!(events.iter().any(|e| e.kind.name() == name), "no {}", name);
        }
    }
}

/// Replaying the committed conformance corpus is unaffected by the
/// profiler: `run_case` (which runs its own unprofiled three-way
/// comparison) must keep passing while a profiled replay of the same
/// frames forwards byte-identically to an unprofiled one.
#[test]
fn corpus_replay_identical_with_profiling() {
    let corpus = load_corpus(&default_corpus_dir()).expect("committed corpus loads");
    assert!(!corpus.is_empty(), "corpus must not be empty");
    for (name, case) in corpus {
        run_case(&case).unwrap_or_else(|e| panic!("corpus case {name} failed: {e}"));
        let (mut profiled, _) = asic_pair();
        let (mut plain, _) = asic_pair();
        profiled.enable_profiling(ProfileConfig::default());
        let frame = case.frame();
        let out_a = profiled.handle_frame(frame.clone(), 0, 0);
        let out_b = plain.handle_frame(frame, 0, 0);
        assert_eq!(out_a, out_b, "corpus case {name}: outcome diverged");
        for port in 0..profiled.num_ports() as u16 {
            assert_eq!(
                profiled.dequeue(port),
                plain.dequeue(port),
                "corpus case {name}: egress bytes diverged on port {port}"
            );
        }
        regs_match(&profiled, &plain);
    }
}

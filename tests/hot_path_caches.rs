//! The hot-path shortcuts must be semantically invisible.
//!
//! An ASIC with the decoded-program cache on must behave bit-identically
//! to one with it off (`AsicConfig::without_decode_cache()`): same
//! outcomes, same forwarded bytes, same TPP-readable registers. Every
//! frame is fed more than once so the cache actually serves hits, and
//! programs include undecodable words so the cached `BadInstruction` halt
//! position is exercised too.
//!
//! The shared ASIC-pair/frame builders live in `tpp_bench::testgen`,
//! reused by the robustness tests and the conformance fuzz loop.

use proptest::prelude::*;
use tpp_bench::testgen::{asic_pair, regs_match, step_both, tpp_frame};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary instruction words — valid or not — executed repeatedly
    /// produce identical results with the decode cache on and off.
    #[test]
    fn decode_cache_matches_fresh_decode(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        repeats in 2usize..5,
    ) {
        let frame = tpp_frame(1, 9, &words, &mem);
        let (mut cached, mut uncached) = asic_pair();
        // Repeats make the second and later rounds cache hits; the TPP
        // mutates in flight, so each round replays the same ingress
        // bytes rather than the mutated ones.
        for round in 0..repeats {
            step_both(&mut cached, &mut uncached, &frame, round as u64);
        }
        regs_match(&cached, &uncached);
        let (hits, _) = cached.decode_cache_stats();
        prop_assert!(
            words.is_empty() || hits >= (repeats as u64) - 1,
            "repeated program should hit the decode cache"
        );
    }

    /// Same-program runs — the batches a switch sees when it drains an
    /// event window, served by the last-hit memo and the straight-line
    /// loop — are bit-identical to fresh per-frame decoding for arbitrary
    /// programs (valid or not — cached `BadInstruction` halt positions
    /// included) under arbitrary run lengths: same outcomes, same egress
    /// bytes, same TPP-visible registers.
    #[test]
    fn batched_dispatch_matches_per_frame(
        words_a in proptest::collection::vec(any::<u32>(), 0..12),
        words_b in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        pattern in proptest::collection::vec(any::<bool>(), 4..24),
    ) {
        // Two programs interleaved by `pattern`: runs of the same
        // program exercise the memo (byte-compare fast path), switches
        // between them the slot probe behind it.
        let frame_a = tpp_frame(1, 9, &words_a, &mem);
        let frame_b = tpp_frame(2, 9, &words_b, &mem);
        let (mut cached, mut uncached) = asic_pair();
        for (i, pick_a) in pattern.iter().enumerate() {
            let frame = if *pick_a { &frame_a } else { &frame_b };
            step_both(&mut cached, &mut uncached, frame, i as u64);
        }
        regs_match(&cached, &uncached);
    }
}

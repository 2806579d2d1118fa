//! Decoded-program cache: the decode-once/execute-many half of the hot
//! path.
//!
//! The paper's applications (RCP\*, microburst detection, the ndb probes)
//! stamp the *identical* instruction program on every packet of a flow, yet
//! the baseline TCPU re-decodes every word of every packet at every hop.
//! This cache keys a decoded program on a hash of its raw instruction
//! bytes, verified by an exact byte compare, so `Instruction::decode` runs
//! once per distinct program instead of once per instruction per packet.
//!
//! Correctness: the cache stores the lowered prefix (every switch address
//! already resolved to its `memmap::Reg`) *and* the index of the
//! first undecodable word (`bad_at`), which together reproduce exactly what
//! per-packet decoding would observe at each pc — including the
//! `BadInstruction` halt. A hash collision falls back to the interner,
//! which compares bytes exactly too, and replaces the slot, so execution
//! semantics are bit-identical with the cache on or off.
//!
//! Three layers, front to back: a last-hit memo (one byte compare), the
//! direct-mapped slots (hash, then byte compare), and a
//! [`ProgramInterner`] that every miss resolves through, so a program
//! evicted from its slot is decoded and allocated once, not once per
//! miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use crate::tcpu::{lower, Op};

/// FNV-1a offset basis. Public (with [`FNV_PRIME`] and
/// [`program_hash`]) so conformance tests can *construct* colliding
/// programs algebraically and prove the exact-byte verification, rather
/// than hoping a fuzzer stumbles on a 64-bit collision.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (see [`FNV_OFFSET`]).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The cache's key function: FNV-1a over the raw instruction bytes,
/// folded in 8-byte chunks. The byte-at-a-time variant serializes one
/// 64-bit multiply per byte, which costs more than the decode it replaces
/// on short programs; folding a word per round cuts the dependency chain
/// 8×. Collisions don't matter for correctness — the cache verifies with
/// an exact byte compare.
///
/// Public so directed tests can derive second preimages: for two
/// 16-byte programs with 8-byte chunks `(a1, a2)` and `(b1, b2)`,
/// `hash = ((OFFSET ^ c1)·P ^ c2)·P`, so picking any `b1 ≠ a1` and
/// `b2 = (OFFSET ^ a1)·P ^ a2 ^ (OFFSET ^ b1)·P` collides.
pub fn program_hash(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold a [`program_hash`]'s high half into its low half before taking
/// low bits as an index. FNV's last step is a multiply, which carries
/// entropy upwards only: unfolded, the low bits of the hash depend on the
/// low byte of each 8-byte chunk alone, so programs that share those
/// bytes (every two-word program with the same first byte) share a slot.
fn fold(hash: u64) -> u64 {
    hash ^ (hash >> 32)
}

/// One cached program: the raw bytes it was decoded from (for exact-match
/// verification) and the lowered result.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    hash: u64,
    bytes: Vec<u8>,
    /// Instructions that decoded cleanly, lowered, front to back.
    pub(crate) ops: Vec<Op>,
    /// Index of the first word that failed to decode, if any. Execution
    /// must halt with `BadInstruction` there, exactly as a fresh
    /// per-packet decode would.
    pub bad_at: Option<usize>,
}

impl DecodedProgram {
    /// Decode and lower `bytes` (big-endian instruction words) into a
    /// program, with one allocation for the ops. Pure function of the
    /// bytes, so two decodes of the same bytes — on any switch — are
    /// interchangeable; that is what lets the interner share one `Arc`'d
    /// copy fleet-wide.
    fn decode(hash: u64, bytes: &[u8]) -> Self {
        let mut ops = Vec::new();
        let bad_at = lower(bytes, &mut ops);
        DecodedProgram {
            hash,
            bytes: bytes.to_vec(),
            ops,
            bad_at,
        }
    }

    /// Approximate resident bytes of this decoded program.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.bytes.capacity()
            + self.ops.capacity() * std::mem::size_of::<Op>()
    }
}

/// A pool of decoded TPP programs: fleet-wide when the simulator hands
/// one handle to every switch's [`DecodeCache`], private to one cache
/// otherwise (a standalone ASIC). The paper's applications stamp the
/// identical program on every packet of a flow; without the interner each
/// switch decodes (and stores) its own copy, so a program crossing a
/// k=8 fat tree is decoded up to 80 times and resident 80 times. The
/// interner keeps exactly one `Arc`'d [`DecodedProgram`] per distinct
/// byte string: a cache miss on one switch is served by the decode
/// another switch already did.
///
/// Sharing is semantically invisible: decoding is a pure function of the
/// program bytes, verified here by the same hash + exact-byte-compare
/// discipline the per-switch cache uses. The interner is `Clone`
/// (a handle to shared state) and thread-safe, so the sharded simulator
/// can hand one handle to switches on different worker threads.
#[derive(Debug, Clone, Default)]
pub struct ProgramInterner {
    inner: Arc<Mutex<InternerInner>>,
}

/// Hasher for a map whose keys are already [`program_hash`] values: it
/// passes the key through, [`fold`]ed for the low bits hashbrown picks a
/// bucket from, instead of running SipHash over a hash.
#[derive(Debug, Default, Clone, Copy)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the interner's keys are u64 program hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        fold(self.0)
    }
}

#[derive(Debug, Default)]
struct InternerInner {
    by_hash: HashMap<u64, Vec<Arc<DecodedProgram>>, BuildHasherDefault<PassThroughHasher>>,
    shared: u64,
    decoded: u64,
}

impl ProgramInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one shared decode of `bytes`: returns the existing `Arc` when
    /// any cache already interned these exact bytes, otherwise decodes
    /// once and registers the result.
    pub(crate) fn intern(&self, hash: u64, bytes: &[u8]) -> Arc<DecodedProgram> {
        let mut inner = self.inner.lock().expect("interner lock");
        if let Some(hit) = inner
            .by_hash
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|p| p.bytes == bytes))
            .cloned()
        {
            inner.shared += 1;
            return hit;
        }
        let program = Arc::new(DecodedProgram::decode(hash, bytes));
        inner.by_hash.entry(hash).or_default().push(program.clone());
        inner.decoded += 1;
        program
    }

    /// `(shared, decoded)`: misses served by an existing fleet-wide decode
    /// vs. programs that genuinely had to be decoded.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("interner lock");
        (inner.shared, inner.decoded)
    }

    /// Distinct programs currently interned.
    pub fn distinct_programs(&self) -> usize {
        let inner = self.inner.lock().expect("interner lock");
        inner.by_hash.values().map(Vec::len).sum()
    }

    /// Approximate resident bytes of the interned program bodies (the
    /// fleet-shared state that per-switch accounting must not double
    /// count).
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("interner lock");
        inner
            .by_hash
            .values()
            .flat_map(|bucket| bucket.iter())
            .map(|p| p.approx_bytes())
            .sum()
    }
}

/// A small direct-mapped cache of decoded TPP programs, with a last-hit
/// memo in front: a burst of packets carrying the identical program (the
/// common case once the netsim batches same-instant arrivals per switch)
/// is served by one byte compare against the previously served slot,
/// skipping even the hash.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    slots: Vec<Option<Arc<DecodedProgram>>>,
    mask: usize,
    /// Slot that served the previous lookup.
    last: usize,
    hits: u64,
    misses: u64,
    /// Program pool every miss resolves through, so a program evicted
    /// from its slot is decoded (and allocated) once, not once per miss:
    /// the fleet's when one was installed, otherwise a private one
    /// created on the first miss.
    interner: Option<ProgramInterner>,
    /// True when `interner` is the fleet's, whose program bodies are
    /// accounted once fleet-wide rather than at this cache.
    fleet_interner: bool,
}

impl DecodeCache {
    /// A cache with `slots` entries, rounded up to a power of two (minimum
    /// one slot).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        DecodeCache {
            slots: vec![None; n],
            mask: n - 1,
            last: 0,
            hits: 0,
            misses: 0,
            interner: None,
            fleet_interner: false,
        }
    }

    /// Route this cache's misses through a fleet-wide interner: a program
    /// any other switch already decoded is shared instead of re-decoded.
    /// Local hit/miss accounting is unchanged (an interner-served fill is
    /// still a local miss); the sharing shows up in the interner's own
    /// [`ProgramInterner::stats`].
    pub(crate) fn set_interner(&mut self, interner: ProgramInterner) {
        self.interner = Some(interner);
        self.fleet_interner = true;
    }

    /// Look up the program encoded by `bytes`, decoding and inserting it on
    /// miss or collision. Always returns a program whose execution is
    /// bit-identical to decoding `bytes` fresh.
    pub fn lookup(&mut self, bytes: &[u8]) -> &Arc<DecodedProgram> {
        if matches!(&self.slots[self.last], Some(p) if p.bytes == bytes) {
            self.hits += 1;
            return self.slots[self.last].as_ref().expect("matched above");
        }
        let hash = program_hash(bytes);
        let idx = fold(hash) as usize & self.mask;
        self.last = idx;
        let hit = matches!(&self.slots[idx], Some(p) if p.hash == hash && p.bytes == bytes);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            let interner = self.interner.get_or_insert_with(ProgramInterner::new);
            self.slots[idx] = Some(interner.intern(hash, bytes));
        }
        self.slots[idx].as_ref().expect("slot filled above")
    }

    /// The program the last [`lookup`](Self::lookup) served, if any.
    pub(crate) fn last_served(&self) -> Option<&DecodedProgram> {
        self.slots[self.last].as_deref()
    }

    /// `(hits, misses)`: programs served from the cache vs. programs that
    /// had to be decoded (cold slot or collision).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate resident bytes of this cache: its slot array, plus the
    /// program bodies of a private interner. A fleet interner's bodies
    /// are shared state, accounted once via
    /// [`ProgramInterner::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let private_bodies = match &self.interner {
            Some(interner) if !self.fleet_interner => interner.approx_bytes(),
            _ => 0,
        };
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<Option<Arc<DecodedProgram>>>()
            + private_bodies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_to_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    #[test]
    fn second_lookup_hits() {
        let mut cache = DecodeCache::new(8);
        let bytes = words_to_bytes(&[0x0000_0000, 0x6000_0007]); // NOP, PUSHI 7
        let p = cache.lookup(&bytes);
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.bad_at, None);
        assert_eq!(cache.stats(), (0, 1));
        cache.lookup(&bytes);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn programs_sharing_their_first_byte_spread_over_the_slots() {
        // PUSHI i; NOP — 64 two-word programs, one 8-byte hash chunk
        // each, all starting with the PUSHI opcode byte.
        let mut cache = DecodeCache::new(64);
        for i in 0..64 {
            cache.lookup(&words_to_bytes(&[0x6000_0000 | i, 0]));
        }
        let occupied = cache.slots.iter().filter(|slot| slot.is_some()).count();
        assert!(
            occupied >= 32,
            "64 programs landed in {occupied} of 64 slots"
        );
    }

    #[test]
    fn bad_word_position_is_cached() {
        let mut cache = DecodeCache::new(8);
        // NOP, then an undefined opcode (0x1f << 27), then a NOP that a
        // fresh decode would never reach.
        let bytes = words_to_bytes(&[0x0000_0000, 0xf800_0000, 0x0000_0000]);
        let p = cache.lookup(&bytes);
        assert_eq!(p.ops.len(), 1);
        assert_eq!(p.bad_at, Some(1));
    }

    #[test]
    fn lowering_allocates_once_and_stops_at_the_bad_word() {
        let add = 0x4000_0000; // ADD
        let mut cache = DecodeCache::new(8);
        let p = cache.lookup(&words_to_bytes(&[add; 10]));
        assert_eq!((p.ops.len(), p.ops.capacity(), p.bad_at), (10, 10, None));
        let mut words = [add; 10];
        words[4] = 0xffff_ffff;
        let p = cache.lookup(&words_to_bytes(&words));
        assert_eq!((p.ops.len(), p.ops.capacity(), p.bad_at), (4, 10, Some(4)));
    }

    /// Two distinct 16-byte programs whose chunked FNV-1a hashes are
    /// equal, built from the hash algebra (see [`program_hash`]).
    fn colliding_programs() -> (Vec<u8>, Vec<u8>) {
        // Program A: PUSHI 1, PUSHI 2 — two 8-byte chunks a1, a2.
        let a = words_to_bytes(&[0x6000_0001, 0x0000_0000, 0x6000_0002, 0x0000_0000]);
        let a1 = u64::from_le_bytes(a[0..8].try_into().unwrap());
        let a2 = u64::from_le_bytes(a[8..16].try_into().unwrap());
        // Program B: flip a bit in the first chunk, then solve the
        // second chunk so the folded hash comes out identical.
        let b1 = a1 ^ (1 << 17);
        let b2 = (FNV_OFFSET ^ a1).wrapping_mul(FNV_PRIME)
            ^ a2
            ^ (FNV_OFFSET ^ b1).wrapping_mul(FNV_PRIME);
        let mut b = Vec::with_capacity(16);
        b.extend_from_slice(&b1.to_le_bytes());
        b.extend_from_slice(&b2.to_le_bytes());
        (a, b)
    }

    #[test]
    fn constructed_fnv_collision_is_rejected_by_byte_compare() {
        let (a, b) = colliding_programs();
        assert_ne!(a, b, "distinct programs");
        assert_eq!(
            program_hash(&a),
            program_hash(&b),
            "hashes must collide by construction"
        );
        // Same hash means same direct-mapped slot at any cache size, so
        // B lands exactly where A sits; only the exact byte compare can
        // tell them apart.
        let mut cache = DecodeCache::new(64);
        let pa_len = cache.lookup(&a).ops.len();
        assert_eq!(pa_len, 4, "program A decodes fully");
        let pb = cache.lookup(&b);
        assert_eq!(pb.bytes, b, "collision re-decoded, not served as A");
        assert_eq!(
            cache.stats(),
            (0, 2),
            "the colliding lookup must count as a miss"
        );
        // And the slot now faithfully serves B.
        cache.lookup(&b);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn memo_serves_bursts_and_survives_replacement() {
        // One slot forces every distinct program to collide, so the memo
        // is the only thing separating a burst from a re-decode.
        let mut cache = DecodeCache::new(1);
        let a = words_to_bytes(&[0x6000_0001]); // PUSHI 1
        let b = words_to_bytes(&[0x6000_0002]); // PUSHI 2
        for _ in 0..3 {
            cache.lookup(&a);
        }
        assert_eq!(cache.stats(), (2, 1));
        // B evicts A from the shared slot; the memo must not serve A's
        // decode for B's bytes.
        assert_eq!(cache.lookup(&b).bytes, b);
        assert_eq!(cache.stats(), (2, 2));
        // And a re-lookup of A after eviction is a genuine miss again.
        assert_eq!(cache.lookup(&a).bytes, a);
        assert_eq!(cache.stats(), (2, 3));
    }

    #[test]
    fn interner_shares_one_decode_across_caches() {
        let interner = ProgramInterner::new();
        let mut cache_a = DecodeCache::new(8);
        let mut cache_b = DecodeCache::new(8);
        cache_a.set_interner(interner.clone());
        cache_b.set_interner(interner.clone());
        let bytes = words_to_bytes(&[0x0000_0000, 0x6000_0007]); // NOP, PUSHI 7
        let pa = cache_a.lookup(&bytes).clone();
        let pb = cache_b.lookup(&bytes).clone();
        assert!(Arc::ptr_eq(&pa, &pb), "both caches share one decode");
        assert_eq!(interner.stats(), (1, 1), "one decode, one shared fill");
        assert_eq!(interner.distinct_programs(), 1);
        // Local accounting is unchanged: each cache saw a cold miss.
        assert_eq!(cache_a.stats(), (0, 1));
        assert_eq!(cache_b.stats(), (0, 1));
        assert!(interner.approx_bytes() > 0);
    }

    #[test]
    fn evicted_programs_come_back_from_a_private_interner() {
        // One slot: A and B evict each other, so every lookup is a miss.
        let mut cache = DecodeCache::new(1);
        let empty = cache.approx_bytes();
        let a = words_to_bytes(&[0x6000_0001]); // PUSHI 1
        let b = words_to_bytes(&[0x6000_0002]); // PUSHI 2
        let first = cache.lookup(&a).clone();
        cache.lookup(&b);
        assert!(Arc::ptr_eq(&first, cache.lookup(&a)), "not decoded again");
        assert_eq!(cache.stats(), (0, 3));
        let private = cache.interner.clone().expect("created by the first miss");
        assert_eq!(private.stats(), (1, 2));
        // Private bodies are this cache's memory; a fleet interner's are not.
        assert_eq!(cache.approx_bytes(), empty + private.approx_bytes());
        cache.set_interner(ProgramInterner::new());
        assert_eq!(cache.approx_bytes(), empty);
    }

    #[test]
    fn interner_keeps_colliding_programs_distinct() {
        let (a, b) = colliding_programs();
        let interner = ProgramInterner::new();
        let mut cache = DecodeCache::new(64);
        cache.set_interner(interner.clone());
        assert_eq!(cache.lookup(&a).bytes, a);
        assert_eq!(cache.lookup(&b).bytes, b, "collision still byte-verified");
        assert_eq!(interner.distinct_programs(), 2);
        assert_eq!(interner.stats(), (0, 2), "both were genuine decodes");
    }

    #[test]
    fn collision_replaces_slot_and_stays_correct() {
        // One slot: every distinct program collides.
        let mut cache = DecodeCache::new(1);
        let a = words_to_bytes(&[0x6000_0001]); // PUSHI 1
        let b = words_to_bytes(&[0x6000_0002]); // PUSHI 2
        assert_eq!(cache.lookup(&a).ops.len(), 1);
        let pb = cache.lookup(&b);
        assert_eq!(pb.bytes, b, "collision must re-decode the new program");
        assert_eq!(cache.stats(), (0, 2));
        cache.lookup(&b);
        assert_eq!(cache.stats(), (1, 2));
    }
}

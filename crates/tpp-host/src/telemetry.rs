//! Decoding fully-executed TPPs into per-hop telemetry.
//!
//! §2.1: "the end-host knows exactly how to interpret values in the
//! packet to obtain a detailed breakdown" — the interpretation key is the
//! program itself: a stack-mode program that pushes `k` words per hop
//! turns the stack into `hop` consecutive `k`-word records.

use tpp_wire::tpp::{TppPacket, WORD_SIZE};
use tpp_wire::EthernetAddress;

/// One hop's worth of words, in program push order — a view of the
/// packet memory they were pushed into, read big-endian on access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopView<'a> {
    /// 0-based hop index along the path.
    pub hop: usize,
    bytes: &'a [u8],
}

impl<'a> HopView<'a> {
    /// The `i`-th word the program recorded at this hop.
    ///
    /// # Panics
    /// Panics when `i` is not below the words-per-hop the sample was
    /// split with, like indexing a slice.
    pub fn word(&self, i: usize) -> u32 {
        let at = i * WORD_SIZE;
        u32::from_be_bytes(self.bytes[at..at + WORD_SIZE].try_into().expect("one word"))
    }

    /// The words the program recorded at this hop, in push order.
    pub fn words(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.bytes
            .chunks_exact(WORD_SIZE)
            .map(|w| u32::from_be_bytes(w.try_into().expect("one word")))
    }

    /// The first `N` words as an array to destructure, or `None` when
    /// the hop recorded fewer.
    pub fn array<const N: usize>(&self) -> Option<[u32; N]> {
        (N * WORD_SIZE <= self.bytes.len()).then(|| std::array::from_fn(|i| self.word(i)))
    }
}

/// A decoded path sample: every hop's record, viewed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSample<'a> {
    /// `memory[0..sp]`: `hop_count` records of `hop_len` bytes.
    stack: &'a [u8],
    hop_len: usize,
}

impl<'a> PathSample<'a> {
    /// Total hops the TPP executed on.
    pub fn hop_count(&self) -> usize {
        self.stack.len() / self.hop_len
    }

    /// Per-hop records in path order.
    pub fn hops(&self) -> impl ExactSizeIterator<Item = HopView<'a>> + 'a {
        self.stack
            .chunks_exact(self.hop_len)
            .enumerate()
            .map(|(hop, bytes)| HopView { hop, bytes })
    }

    /// The record of hop `i`, if the path was that long.
    pub fn hop(&self, i: usize) -> Option<HopView<'a>> {
        self.hops().nth(i)
    }

    /// Convenience: the `i`-th word of every hop (e.g. all queue sizes
    /// when the program pushes the queue size `i`-th).
    pub fn column(&self, i: usize) -> impl Iterator<Item = u32> + 'a {
        self.hops().map(move |h| h.word(i))
    }
}

/// Split an executed stack-mode TPP into per-hop records of
/// `words_per_hop` words, without copying them out of the packet.
///
/// Returns `None` when the stack length is not an exact multiple of
/// `words_per_hop` or disagrees with the hop counter — which means the
/// packet was corrupted, the program faulted mid-hop, or the caller's
/// `words_per_hop` is wrong. Callers treat `None` as a lost sample.
pub fn split_hops<'a>(tpp: &TppPacket<&'a [u8]>, words_per_hop: usize) -> Option<PathSample<'a>> {
    if words_per_hop == 0 {
        return None;
    }
    let sample = PathSample {
        stack: tpp.stack_bytes(),
        hop_len: words_per_hop * WORD_SIZE,
    };
    (sample.stack.len().is_multiple_of(sample.hop_len) && sample.hop_count() == tpp.hop() as usize)
        .then_some(sample)
}

/// One-call receive path: if `frame` is an echoed TPP for `my_mac`,
/// decode it into per-hop records of `words_per_hop` words.
///
/// This is what a telemetry app calls in its `on_frame` when the hop
/// records are all it needs; anything that is not a well-formed echo of
/// the expected shape comes back as `None` and is simply not a sample.
/// Apps that also read the probe's inner payload call
/// [`parse_echo`](crate::parse_echo) once and [`split_hops`] on the
/// result.
pub fn decode_echo(
    frame: &[u8],
    my_mac: EthernetAddress,
    words_per_hop: usize,
) -> Option<PathSample<'_>> {
    let tpp = crate::probe::parse_echo(frame, my_mac)?;
    split_hops(&tpp, words_per_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_wire::tpp::{AddressingMode, TppBuilder};

    fn executed_tpp(stack: &[u32], hop: u8, capacity_words: usize) -> Vec<u8> {
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0])
            .memory_words(capacity_words)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        for w in stack {
            tpp.push_word(*w).unwrap();
        }
        tpp.set_hop(hop);
        bytes
    }

    #[test]
    fn splits_into_hop_records() {
        // 2 words/hop over 3 hops: (id, queue) pairs.
        let bytes = executed_tpp(&[1, 10, 2, 20, 3, 30], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        assert_eq!(sample.hop_count(), 3);
        let hop1 = sample.hop(1).unwrap();
        assert_eq!(hop1.hop, 1);
        assert_eq!(hop1.words().collect::<Vec<_>>(), vec![2, 20]);
        assert_eq!(hop1.array(), Some([2, 20]));
        assert_eq!(hop1.array::<3>(), None);
        assert!(sample.hop(3).is_none());
        assert_eq!(sample.column(1).collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn rejects_partial_hops() {
        let bytes = executed_tpp(&[1, 10, 2], 2, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 2).is_none(), "stack not a multiple");
    }

    #[test]
    fn rejects_hop_counter_mismatch() {
        // 4 words at 2/hop = 2 hops, but counter says 3 (a fault skipped
        // pushes on some hop).
        let bytes = executed_tpp(&[1, 10, 2, 20], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 2).is_none());
    }

    #[test]
    fn rejects_zero_words_per_hop() {
        let bytes = executed_tpp(&[], 0, 4);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 0).is_none());
    }

    #[test]
    fn empty_path_is_valid() {
        let bytes = executed_tpp(&[], 0, 4);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        assert_eq!(sample.hop_count(), 0);
        assert_eq!(sample.hops().len(), 0);
    }
}

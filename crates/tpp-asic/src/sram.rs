//! Checked control-plane views over switch SRAM.
//!
//! The original accessors on [`Asic`](crate::Asic) indexed straight into
//! the backing `Vec<u32>` and panicked on an out-of-range word — fine for
//! tests, hostile to control-plane code that computes addresses from
//! packet contents. These views return `Result` instead, and carry the
//! bounds so errors are self-describing. TPP-visible accesses are *not*
//! routed through here: the TCPU's MMU has its own fault model
//! ([`MmuFault`](crate::MmuFault)) matching §3.2.1's address map.

use std::fmt;

use crate::tables::PortId;

/// A failed control-plane SRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SramError {
    /// The word index is beyond the SRAM region.
    OutOfBounds {
        /// The requested word index.
        word: usize,
        /// The region's size in words.
        len: usize,
    },
    /// The port does not exist on this ASIC.
    NoSuchPort {
        /// The requested port.
        port: PortId,
        /// How many ports the ASIC has.
        num_ports: usize,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramError::OutOfBounds { word, len } => {
                write!(
                    f,
                    "SRAM word {word} out of bounds (region holds {len} words)"
                )
            }
            SramError::NoSuchPort { port, num_ports } => {
                write!(f, "port {port} does not exist (ASIC has {num_ports} ports)")
            }
        }
    }
}

impl std::error::Error for SramError {}

/// A read-only view of an SRAM region.
#[derive(Debug, Clone, Copy)]
pub struct SramView<'a> {
    words: &'a [u32],
}

impl<'a> SramView<'a> {
    pub(crate) fn new(words: &'a [u32]) -> Self {
        SramView { words }
    }

    /// Read one word.
    pub fn word(&self, word: usize) -> Result<u32, SramError> {
        self.words.get(word).copied().ok_or(SramError::OutOfBounds {
            word,
            len: self.words.len(),
        })
    }

    /// The region size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the region has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The whole region as a slice (bulk reads, e.g. snapshotting).
    pub fn words(&self) -> &'a [u32] {
        self.words
    }
}

/// A mutable view of an SRAM region.
#[derive(Debug)]
pub struct SramViewMut<'a> {
    words: &'a mut [u32],
}

impl<'a> SramViewMut<'a> {
    pub(crate) fn new(words: &'a mut [u32]) -> Self {
        SramViewMut { words }
    }

    /// Read one word.
    pub fn word(&self, word: usize) -> Result<u32, SramError> {
        self.words.get(word).copied().ok_or(SramError::OutOfBounds {
            word,
            len: self.words.len(),
        })
    }

    /// Write one word.
    pub fn set_word(&mut self, word: usize, value: u32) -> Result<(), SramError> {
        let len = self.words.len();
        match self.words.get_mut(word) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(SramError::OutOfBounds { word, len }),
        }
    }

    /// The region size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the region has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_view_bounds() {
        let data = [1u32, 2, 3];
        let view = SramView::new(&data);
        assert_eq!(view.word(0), Ok(1));
        assert_eq!(view.word(2), Ok(3));
        assert_eq!(
            view.word(3),
            Err(SramError::OutOfBounds { word: 3, len: 3 })
        );
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
    }

    #[test]
    fn write_view_bounds() {
        let mut data = [0u32; 2];
        let mut view = SramViewMut::new(&mut data);
        assert_eq!(view.set_word(1, 42), Ok(()));
        assert_eq!(view.word(1), Ok(42));
        assert_eq!(
            view.set_word(2, 1),
            Err(SramError::OutOfBounds { word: 2, len: 2 })
        );
        assert_eq!(data, [0, 42]);
    }

    #[test]
    fn errors_render() {
        let e = SramError::OutOfBounds { word: 9, len: 4 };
        assert!(e.to_string().contains("word 9"));
        let e = SramError::NoSuchPort {
            port: 7,
            num_ports: 2,
        };
        assert!(e.to_string().contains("port 7"));
    }
}

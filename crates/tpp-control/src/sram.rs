//! Scratch-SRAM partitioning between concurrent network tasks.
//!
//! A first-fit free-list allocator over the two writable namespaces
//! (global SRAM at `0x8000+`, per-link SRAM at `0x4000+`). Allocations
//! are per *task name* and live as long as the allocator. The
//! allocator never hands out overlapping words — the isolation guarantee
//! §3.2 assigns to the control-plane agent.

use std::collections::BTreeMap;

use tpp_isa::{Namespace, VirtAddr};

/// Which writable namespace an allocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Global scratch SRAM (`0x8000..`), one instance per switch.
    Global,
    /// Per-link scratch SRAM (`0x4000..`), one instance per port.
    PerLink,
}

impl Region {
    fn base(self) -> u16 {
        match self {
            Region::Global => Namespace::GlobalSram.base().0,
            Region::PerLink => Namespace::LinkSram.base().0,
        }
    }
}

/// One task's allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Owning task.
    pub task: String,
    /// Namespace.
    pub region: Region,
    /// First word index.
    pub start_word: usize,
    /// Length in words.
    pub words: usize,
}

impl Allocation {
    /// The virtual address of word `i` of this allocation.
    pub fn addr(&self, i: usize) -> VirtAddr {
        assert!(
            i < self.words,
            "index {i} outside allocation of {} words",
            self.words
        );
        VirtAddr(self.region.base() + ((self.start_word + i) * 4) as u16)
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous free words in the region.
    OutOfMemory {
        /// Words requested.
        requested: usize,
        /// Largest free extent available.
        largest_free: usize,
    },
    /// A zero-word allocation was requested.
    ZeroSize,
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of SRAM: requested {requested} words, largest free extent {largest_free}"
            ),
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit free-list allocator over both scratch regions.
#[derive(Debug)]
pub struct SramAllocator {
    /// Free extents per region: start word → length.
    free: BTreeMap<(u8, usize), usize>,
    allocations: Vec<Allocation>,
}

fn region_key(region: Region) -> u8 {
    match region {
        Region::Global => 0,
        Region::PerLink => 1,
    }
}

impl SramAllocator {
    /// An allocator over `global_words` of global SRAM and `link_words`
    /// of per-link SRAM (use the ASIC's configured sizes).
    pub fn new(global_words: usize, link_words: usize) -> Self {
        let mut free = BTreeMap::new();
        if global_words > 0 {
            free.insert((region_key(Region::Global), 0), global_words);
        }
        if link_words > 0 {
            free.insert((region_key(Region::PerLink), 0), link_words);
        }
        SramAllocator {
            free,
            allocations: Vec::new(),
        }
    }

    /// An allocator matching [`tpp_asic::AsicConfig`] defaults.
    pub fn for_default_asic() -> Self {
        SramAllocator::new(0x8000 / 4, 0x1000 / 4)
    }

    /// Allocate `words` contiguous words in `region` for `task`.
    pub fn alloc(
        &mut self,
        task: &str,
        region: Region,
        words: usize,
    ) -> Result<Allocation, AllocError> {
        if words == 0 {
            return Err(AllocError::ZeroSize);
        }
        let key = region_key(region);
        let mut chosen = None;
        let mut largest = 0usize;
        for (&(r, start), &len) in &self.free {
            if r != key {
                continue;
            }
            largest = largest.max(len);
            if len >= words {
                chosen = Some((start, len));
                break;
            }
        }
        let Some((start, len)) = chosen else {
            return Err(AllocError::OutOfMemory {
                requested: words,
                largest_free: largest,
            });
        };
        self.free.remove(&(key, start));
        if len > words {
            self.free.insert((key, start + words), len - words);
        }
        let allocation = Allocation {
            task: task.to_string(),
            region,
            start_word: start,
            words,
        };
        self.allocations.push(allocation.clone());
        Ok(allocation)
    }

    /// All live allocations.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Total free words in a region.
    #[cfg(test)]
    fn free_words(&self, region: Region) -> usize {
        let key = region_key(region);
        self.free
            .iter()
            .filter(|((r, _), _)| *r == key)
            .map(|(_, l)| l)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_addressable() {
        let mut alloc = SramAllocator::new(16, 8);
        let a = alloc.alloc("rcp", Region::PerLink, 2).unwrap();
        let b = alloc.alloc("ndb", Region::PerLink, 2).unwrap();
        let c = alloc.alloc("rcp", Region::Global, 4).unwrap();
        assert_eq!(a.addr(0), VirtAddr(0x4000));
        assert_eq!(a.addr(1), VirtAddr(0x4004));
        assert_eq!(b.addr(0), VirtAddr(0x4008));
        assert_eq!(c.addr(0), VirtAddr(0x8000));
        assert_eq!(alloc.free_words(Region::PerLink), 4);
        assert_eq!(alloc.free_words(Region::Global), 12);
    }

    #[test]
    fn out_of_memory_reports_largest_extent() {
        let mut alloc = SramAllocator::new(0, 4);
        alloc.alloc("a", Region::PerLink, 3).unwrap();
        match alloc.alloc("b", Region::PerLink, 2) {
            Err(AllocError::OutOfMemory {
                requested: 2,
                largest_free: 1,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            alloc.alloc("b", Region::Global, 1),
            Err(AllocError::OutOfMemory {
                largest_free: 0,
                ..
            })
        ));
    }

    #[test]
    fn zero_size_rejected() {
        let mut alloc = SramAllocator::new(4, 4);
        assert_eq!(
            alloc.alloc("a", Region::Global, 0),
            Err(AllocError::ZeroSize)
        );
    }

    #[test]
    fn rcp_and_ndb_coexist_without_overlap() {
        // The §3.2 example: RCP and ndb run concurrently; their words
        // must never overlap.
        let mut alloc = SramAllocator::for_default_asic();
        let rcp_rate = alloc.alloc("rcp", Region::PerLink, 1).unwrap();
        let rcp_ts = alloc.alloc("rcp", Region::PerLink, 1).unwrap();
        let ndb = alloc.alloc("ndb", Region::PerLink, 2).unwrap();
        let words: Vec<usize> = alloc
            .allocations()
            .iter()
            .flat_map(|a| (a.start_word..a.start_word + a.words).collect::<Vec<_>>())
            .collect();
        let unique: std::collections::HashSet<_> = words.iter().collect();
        assert_eq!(unique.len(), words.len(), "overlap detected");
        assert_eq!(rcp_rate.addr(0), VirtAddr(0x4000));
        assert_eq!(rcp_ts.addr(0), VirtAddr(0x4004));
        assert_eq!(ndb.addr(0), VirtAddr(0x4008));
    }
}

//! Conventional VA→PA page mappings (4 KB pages).
//!
//! Each page of a pool is individually mapped to a physical frame by the
//! virtual memory manager in the conventional way (paper §2.1.3, Figure 2).
//! The TLB caches these mappings; the *Parallel* POLB refill additionally
//! walks this table to find the physical frame (paper §4.2, Figure 7).

use poat_core::hash::IntMap;
use poat_core::{PhysAddr, VirtAddr, PAGE_BYTES};

/// A per-process page table.
///
/// ```
/// use poat_core::{PhysAddr, VirtAddr};
/// use poat_nvm::PageTable;
///
/// let mut pt = PageTable::new();
/// pt.map(VirtAddr::new(0x5000), PhysAddr::new(0x1000));
/// assert_eq!(pt.translate(VirtAddr::new(0x5123)), Some(PhysAddr::new(0x1123)));
/// assert_eq!(pt.translate(VirtAddr::new(0x9000)), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// virtual page number → physical frame base.
    entries: IntMap<u64, PhysAddr>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps the page containing `va` to the frame based at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `va` or `frame` is not page-aligned, or if the page is
    /// already mapped (double-mapping is a VM-manager bug).
    pub fn map(&mut self, va: VirtAddr, frame: PhysAddr) {
        assert_eq!(va.page_offset(), 0, "virtual page must be aligned");
        assert_eq!(frame.page_offset(), 0, "frame must be aligned");
        let prev = self.entries.insert(va.page_number(), frame);
        assert!(prev.is_none(), "page {va} double-mapped");
    }

    /// Removes the mapping for the page containing `va`, returning the
    /// frame it mapped to.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        self.entries.remove(&va.page_number())
    }

    /// Translates a virtual address to a physical address.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.entries
            .get(&va.page_number())
            .map(|frame| frame.offset(va.page_offset()))
    }

    /// The physical frame backing the page containing `va`.
    pub fn frame_of(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.entries.get(&va.page_number()).copied()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over every `(virtual page number, frame base)` mapping,
    /// in arbitrary order. This is how the simulator builds its flat
    /// replay-time lookup structure without going through the hashed
    /// `translate` path once per op.
    pub fn mappings(&self) -> impl Iterator<Item = (u64, PhysAddr)> + '_ {
        self.entries.iter().map(|(&page, &frame)| (page, frame))
    }

    /// Iterates over the frames backing the pages of `[base, base+len)`.
    pub fn frames_in(&self, base: VirtAddr, len: u64) -> impl Iterator<Item = PhysAddr> + '_ {
        let first = base.page_number();
        let last = (base.raw() + len.max(1) - 1) / PAGE_BYTES;
        (first..=last).filter_map(move |p| self.entries.get(&p).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_preserves_offset() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(2 * PAGE_BYTES), PhysAddr::new(7 * PAGE_BYTES));
        let got = pt.translate(VirtAddr::new(2 * PAGE_BYTES + 99)).unwrap();
        assert_eq!(got, PhysAddr::new(7 * PAGE_BYTES + 99));
    }

    #[test]
    fn unmapped_is_none() {
        let pt = PageTable::new();
        assert!(pt.translate(VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x1000));
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x2000));
    }

    #[test]
    fn unmap_then_remap() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x3000));
        assert_eq!(pt.unmap(VirtAddr::new(0x1000)), Some(PhysAddr::new(0x3000)));
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x4000));
        assert_eq!(
            pt.frame_of(VirtAddr::new(0x1fff)),
            Some(PhysAddr::new(0x4000))
        );
    }

    #[test]
    fn frames_in_range() {
        let mut pt = PageTable::new();
        for i in 0..4u64 {
            pt.map(
                VirtAddr::new(i * PAGE_BYTES),
                PhysAddr::new((10 + i) * PAGE_BYTES),
            );
        }
        let frames: Vec<_> = pt
            .frames_in(VirtAddr::new(PAGE_BYTES), 2 * PAGE_BYTES)
            .collect();
        assert_eq!(
            frames,
            vec![
                PhysAddr::new(11 * PAGE_BYTES),
                PhysAddr::new(12 * PAGE_BYTES)
            ]
        );
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! Flat replay-time VA→PA lookup.
//!
//! The translation the core models are defined against is: page-table
//! hit → mapped frame; miss → identity-mapped into a distinct "volatile
//! DRAM" region (bit 47 set), so the runtime's volatile globals and
//! translation table never alias pool frames. It runs once per replayed
//! memory op, so it does not go through [`PageTable`]'s general-purpose
//! hash map, which must also support mapping and unmapping. [`PageMap`]
//! is the dedicated fast path: the page table is frozen for the whole
//! replay (the machine state is captured before simulation starts), so
//! the mappings are copied once into an open-addressed table with a
//! cheap multiplicative hash, sized for a ≤50% load factor. Lookups are
//! one multiply, a shift, and on average about one probe.

use poat_core::VirtAddr;
use poat_nvm::PageTable;

/// Fibonacci-hashing multiplier (2^64 / φ); spreads consecutive page
/// numbers across the table's high bits.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An immutable, open-addressed snapshot of a [`PageTable`], answering
/// [`PageMap::phys_of`] with the exact same values as
/// `PageTable::translate` (plus the volatile identity fallback) over
/// the snapshotted table.
#[derive(Clone, Debug)]
pub struct PageMap {
    /// Slot-index mask; `slots.len()` is a power of two.
    mask: u64,
    /// `(page number + 1, frame base)`; key 0 marks an empty slot (the
    /// +1 keeps page number 0 representable).
    slots: Vec<(u64, u64)>,
}

impl PageMap {
    /// Snapshots `pt` into a flat probe table.
    pub fn new(pt: &PageTable) -> Self {
        let capacity = (pt.len() * 2).next_power_of_two().max(8);
        let mask = capacity as u64 - 1;
        let mut slots = vec![(0u64, 0u64); capacity];
        for (page, frame) in pt.mappings() {
            let mut i = (Self::hash(page) & mask) as usize;
            while slots[i].0 != 0 {
                i = (i + 1) & mask as usize;
            }
            slots[i] = (page + 1, frame.raw());
        }
        PageMap { mask, slots }
    }

    #[inline]
    fn hash(page: u64) -> u64 {
        page.wrapping_mul(HASH_MUL) >> 32
    }

    /// Translates `va`; unmapped addresses identity-map into the
    /// volatile region (bit 47 set).
    #[inline]
    pub fn phys_of(&self, va: VirtAddr) -> u64 {
        let page = va.page_number();
        let key = page + 1;
        let mut i = (Self::hash(page) & self.mask) as usize;
        loop {
            let (k, frame) = self.slots[i];
            if k == key {
                return frame + va.page_offset();
            }
            if k == 0 {
                return va.raw() | (1 << 47);
            }
            i = (i + 1) & self.mask as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_core::{PhysAddr, PAGE_BYTES};

    /// The HashMap-backed reference translation `PageMap` must match:
    /// page-table hit → mapped frame, miss → identity-mapped into the
    /// distinct volatile region.
    fn phys_of(pt: &PageTable, va: VirtAddr) -> u64 {
        match pt.translate(va) {
            Some(pa) => pa.raw(),
            None => va.raw() | (1 << 47),
        }
    }

    #[test]
    fn empty_table_identity_maps_everything() {
        let map = PageMap::new(&PageTable::new());
        let pt = PageTable::new();
        for va in [0u64, 0x123, 0x7FFF_FFFF_F000, (1 << 47) - 1] {
            let va = VirtAddr::new(va);
            assert_eq!(map.phys_of(va), phys_of(&pt, va));
        }
    }

    #[test]
    fn matches_the_reference_translation() {
        // A page table with scattered mappings (including page 0), probed
        // with mapped, unmapped-adjacent, and far-away addresses: the
        // snapshot must agree with the HashMap-backed reference
        // byte-for-byte, offsets included.
        let mut pt = PageTable::new();
        let mut x: u64 = 0x51ED;
        let mut pages = Vec::new();
        pt.map(VirtAddr::new(0), PhysAddr::new(77 * PAGE_BYTES));
        pages.push(0u64);
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = 1 + (x % (1 << 30));
            if pt.translate(VirtAddr::new(page * PAGE_BYTES)).is_none() {
                pt.map(
                    VirtAddr::new(page * PAGE_BYTES),
                    PhysAddr::new((1000 + i) * PAGE_BYTES),
                );
                pages.push(page);
            }
        }
        let map = PageMap::new(&pt);
        for &page in &pages {
            for off in [0u64, 1, 63, 64, 4095] {
                let va = VirtAddr::new(page * PAGE_BYTES + off);
                assert_eq!(map.phys_of(va), phys_of(&pt, va), "mapped {va}");
                // The next page over is (almost always) unmapped; either
                // way the two paths must agree.
                let adj = VirtAddr::new((page + 1) * PAGE_BYTES + off);
                assert_eq!(map.phys_of(adj), phys_of(&pt, adj), "adjacent {adj}");
            }
        }
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = VirtAddr::new(x % (1 << 47));
            assert_eq!(map.phys_of(va), phys_of(&pt, va), "random probe {i}");
        }
    }
}

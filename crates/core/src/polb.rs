//! The Persistent Object Look-aside Buffer (paper §4.1).
//!
//! The POLB is a small, fully-associative, CAM-tagged cache of recent
//! ObjectID translations held inside the core. One [`Polb`] models both
//! designs; its [`PolbDesign`] fixes only what an entry tags and what it
//! holds:
//!
//! * *Pipelined* — tag: pool id, data: 64-bit *virtual* base address of
//!   the pool. One entry covers the entire pool. The translated virtual
//!   address is then sent through the TLB and L1D as usual (Figure 6a).
//! * *Parallel* — tag: the upper 52 bits of the ObjectID (pool id and
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
use crate::config::PolbDesign;
use crate::oid::ObjectId;
use crate::stats::PolbStats;
use poat_telemetry::events::{self, EventKind};
use poat_telemetry::LocalCounter;

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    data: u64,
    last_use: u64,
}

/// A fully-associative, true-LRU POLB of either design.
///
/// `translate` returns the full translated address on a hit (a virtual
/// address under *Pipelined*, a physical one under *Parallel*) and records
/// a hit or miss in [`Polb::stats`]. After a miss, the pipeline walks the
/// POT and calls `fill` with the base produced by the walk, mirroring the
/// hardware refill path.
///
/// Besides the per-instance [`PolbStats`] consumed by the simulators, every
/// event also feeds a local tally of the process-wide `core.polb.*`
/// counters (summed over every POLB instance and both designs), which
/// publishes when the POLB drops, so the lookup path does no atomic.
///
/// *Pipelined*: pool id → virtual base address (Figure 6a).
///
/// ```
/// use poat_core::{ObjectId, PolbDesign, PoolId};
/// use poat_core::polb::Polb;
///
/// let pool = PoolId::new(1).unwrap();
/// let mut polb = Polb::new(PolbDesign::Pipelined, 4);
/// let oid = ObjectId::new(pool, 0x80);
/// assert_eq!(polb.translate(oid), None);
/// polb.fill(oid, 0x7000_0000);
/// assert_eq!(polb.translate(oid), Some(0x7000_0080));
/// // Any other offset in the same pool hits on the same entry.
/// assert_eq!(polb.translate(ObjectId::new(pool, 0x2000)), Some(0x7000_2000));
/// assert_eq!(polb.stats().hits, 2);
/// ```
///
/// *Parallel*: upper 52 ObjectID bits → physical frame (Figure 6b).
///
/// ```
/// use poat_core::{ObjectId, PolbDesign, PoolId};
/// use poat_core::polb::Polb;
///
/// let pool = PoolId::new(1).unwrap();
/// let mut polb = Polb::new(PolbDesign::Parallel, 4);
/// let oid = ObjectId::new(pool, 0x1080);
/// polb.fill(oid, 0x40_0000); // physical frame backing page 1 of the pool
/// assert_eq!(polb.translate(oid), Some(0x40_0080));
/// // A different page of the same pool misses: entries are per page.
/// assert_eq!(polb.translate(ObjectId::new(pool, 0x2080)), None);
/// ```
#[derive(Clone, Debug)]
pub struct Polb {
    design: PolbDesign,
    entries: Vec<Entry>,
    capacity: usize,
    tick: u64,
    stats: PolbStats,
    tele_hits: LocalCounter,
    tele_misses: LocalCounter,
    tele_fills: LocalCounter,
    tele_evictions: LocalCounter,
}

impl Polb {
    /// Creates a `design` POLB with `entries` CAM entries (0 disables the
    /// buffer).
    pub fn new(design: PolbDesign, entries: usize) -> Self {
        let registry = poat_telemetry::global();
        Polb {
            design,
            entries: Vec::with_capacity(entries),
            capacity: entries,
            tick: 0,
            stats: PolbStats::default(),
            tele_hits: registry.counter("core.polb.hits").local(),
            tele_misses: registry.counter("core.polb.misses").local(),
            tele_fills: registry.counter("core.polb.fills").local(),
            tele_evictions: registry.counter("core.polb.evictions").local(),
        }
    }

    /// The CAM tag `oid` matches on: its pool id (*Pipelined*) or its
    /// page tag (*Parallel*).
    #[inline]
    fn tag(&self, oid: ObjectId) -> u64 {
        match self.design {
            PolbDesign::Pipelined => oid.pool_raw() as u64,
            PolbDesign::Parallel => oid.page_tag(),
        }
    }

    /// Looks up `oid`, returning the translated raw address on a hit.
    pub fn translate(&mut self, oid: ObjectId) -> Option<u64> {
        let tag = self.tag(oid);
        self.tick += 1;
        let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) else {
            self.stats.misses += 1;
            self.tele_misses.inc();
            events::emit(EventKind::PolbMiss, oid.pool_raw(), 0);
            return None;
        };
        e.last_use = self.tick;
        self.stats.hits += 1;
        self.tele_hits.inc();
        events::emit(EventKind::PolbHit, oid.pool_raw(), 0);
        Some(match self.design {
            PolbDesign::Pipelined => e.data + oid.offset() as u64,
            PolbDesign::Parallel => e.data + (oid.offset() as u64 % PAGE_BYTES),
        })
    }

    /// Installs a translation for `oid`.
    ///
    /// For the *Pipelined* design `base` is the virtual base address of the
    /// pool; for the *Parallel* design it is the physical base address of
    /// the 4 KB frame backing `oid`'s page.
    pub fn fill(&mut self, oid: ObjectId, base: u64) {
        if self.design == PolbDesign::Parallel {
            debug_assert_eq!(base % PAGE_BYTES, 0, "Parallel POLB data is a frame base");
        }
        if self.capacity == 0 {
            return;
        }
        let tag = self.tag(oid);
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            e.data = base;
            e.last_use = self.tick;
            return;
        }
        let entry = Entry {
            tag,
            data: base,
            last_use: self.tick,
        };
        self.tele_fills.inc();
        events::emit(EventKind::PolbFill, oid.pool_raw(), 0);
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return;
        }
        // Evict the true-LRU victim.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_use)
            .map(|(i, _)| i)
            .expect("invariant: capacity > 0 implies entries non-empty at eviction");
        let victim_tag = std::mem::replace(&mut self.entries[victim], entry).tag;
        self.tele_evictions.inc();
        // Pipelined tags *are* pool ids; page tags carry the pool id in
        // their upper 32 bits (52-bit tag = 32-bit pool id + 20-bit
        // page-in-pool).
        let victim_pool = match self.design {
            PolbDesign::Pipelined => victim_tag,
            PolbDesign::Parallel => victim_tag >> 20,
        };
        events::emit(EventKind::PolbEvict, victim_pool as u32, 0);
    }

    /// Hit/miss counters accumulated by `translate`.
    pub fn stats(&self) -> &PolbStats {
        &self.stats
    }

    /// Number of entries the buffer can hold (0 = no POLB present).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::PoolId;

    fn pool(n: u32) -> PoolId {
        PoolId::new(n).unwrap()
    }

    #[test]
    fn pipelined_hit_and_miss_counting() {
        let mut polb = Polb::new(PolbDesign::Pipelined, 2);
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
        let mut polb = Polb::new(PolbDesign::Pipelined, 2);
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
        let mut polb = Polb::new(PolbDesign::Pipelined, 0);
        let oid = ObjectId::new(pool(1), 0);
        polb.fill(oid, 0x1000);
        assert!(polb.translate(oid).is_none());
        assert_eq!(polb.capacity(), 0);
    }

    #[test]
    fn pipelined_one_entry_per_pool() {
        let mut polb = Polb::new(PolbDesign::Pipelined, 1);
        let a = ObjectId::new(pool(1), 0x10_0000);
        let b = ObjectId::new(pool(1), 0x20_0000);
        polb.fill(a, 0x1000_0000);
        // Pages far apart in the same pool still hit: the entry covers the pool.
        assert_eq!(polb.translate(b), Some(0x1020_0000));
    }

    #[test]
    fn parallel_one_entry_per_page() {
        let mut polb = Polb::new(PolbDesign::Parallel, 8);
        let page0 = ObjectId::new(pool(1), 0x10);
        let page1 = ObjectId::new(pool(1), 0x1010);
        polb.fill(page0, 0x8000);
        assert_eq!(polb.translate(page0), Some(0x8010));
        assert!(polb.translate(page1).is_none(), "different page misses");
        polb.fill(page1, 0xA000);
        assert_eq!(polb.translate(page1), Some(0xA010));
    }

    #[test]
    fn fill_updates_existing_entry() {
        let mut polb = Polb::new(PolbDesign::Pipelined, 2);
        let oid = ObjectId::new(pool(1), 0);
        polb.fill(oid, 0x1000);
        polb.fill(oid, 0x9000); // pool re-mapped
        assert_eq!(polb.translate(oid), Some(0x9000));
    }
}

//! The Persistent Object Table (paper §4.2, Figure 7).
//!
//! The POT tracks the current pool mappings of a process: pool id →
//! virtual base address. It is the backing store behind the POLB, the same
//! way the page table backs the TLB. It is designed around the paper's
//! assumptions:
//!
//! * pools are file-like, so hundreds-to-thousands of mappings suffice —
//!   the default table holds 16384 entries (256 KB);
//! * look-up is a hardware walk modeled after the x86 page-table walk: the
//!   pool id is hashed to an index and **linear probing** resolves
//!   collisions;
//! * pool id 0 marks an invalid (never-allocated) entry, so the table can
//!   be initialized by zeroing;
//! * encountering an invalid entry during a walk means the translation is
//!   missing and an exception must be raised (the OS may abort the program
//!   or let a signal handler map the pool).
//!
//! Walk cost on the host is a tracked hot path: the
//! `translation/pot_walk_*` benchmarks pin it at paper size (16384
//! entries, 1000 pools) in the committed `BENCH_<n>.json` baseline
//! (docs/BENCHMARKS.md).

use std::fmt;

use crate::addr::VirtAddr;
use crate::oid::PoolId;

/// Errors raised by POT operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PotError {
    /// The table has no free slot for a new mapping.
    Full,
    /// The pool is already mapped; `insert` refuses to double-map.
    AlreadyMapped(PoolId),
}

impl fmt::Display for PotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PotError::Full => write!(f, "persistent object table is full"),
            PotError::AlreadyMapped(p) => write!(f, "pool {p} is already mapped"),
        }
    }
}

impl std::error::Error for PotError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Never used; terminates probe chains.
    Empty,
    /// Previously held a mapping that was removed; probe chains continue
    /// through it but inserts may reuse it.
    Tombstone,
    /// A live mapping.
    Live { pool: PoolId, base: VirtAddr },
}

/// Outcome of a hardware POT walk, including the number of probes the walk
/// performed (each probe is one table-entry read in real hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation, or `None` if the walk hit an invalid entry
    /// (translation missing ⇒ exception, paper §4.2).
    pub base: Option<VirtAddr>,
    /// Number of entries examined by linear probing.
    pub probes: u32,
}

/// The Persistent Object Table.
///
/// ```
/// use poat_core::{Pot, PoolId, VirtAddr};
///
/// let mut pot = Pot::new(64);
/// let p = PoolId::new(42).unwrap();
/// pot.insert(p, VirtAddr::new(0x5000_0000)).unwrap();
/// assert_eq!(pot.lookup(p), Some(VirtAddr::new(0x5000_0000)));
/// assert_eq!(pot.lookup(PoolId::new(7).unwrap()), None);
/// ```
#[derive(Clone)]
pub struct Pot {
    slots: Vec<Slot>,
    live: usize,
    walks: u64,
    total_probes: u64,
    /// Local tallies of the `core.pot.*` series, published on drop (a
    /// clone starts them at zero, so a copied table never counts twice).
    tele_walks: poat_telemetry::LocalCounter,
    tele_probe_len: poat_telemetry::LocalHistogram,
    tele_occupancy: poat_telemetry::Gauge,
}

impl Pot {
    /// Creates a POT with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "POT must have at least one entry");
        let registry = poat_telemetry::global();
        let tele_occupancy = registry.gauge("core.pot.occupancy");
        // A fresh table has zero live entries; without this, the gauge
        // keeps the last value published by a *previous* Pot until the
        // first insert/remove, reporting stale occupancy.
        tele_occupancy.set(0);
        Pot {
            slots: vec![Slot::Empty; entries],
            live: 0,
            walks: 0,
            total_probes: 0,
            tele_walks: registry.counter("core.pot.walks").local(),
            tele_probe_len: registry.histogram("core.pot.probe_len").local(),
            tele_occupancy,
        }
    }

    /// The hash function the hardware walker applies to a pool id.
    ///
    /// A Fibonacci-style multiplicative hash: cheap to realize in hardware
    /// (one multiply) and well-distributed for sequential pool ids.
    fn hash(&self, pool: PoolId) -> usize {
        let h = (pool.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.slots.len()
    }

    /// Maps `pool` at `base`.
    ///
    /// # Errors
    ///
    /// [`PotError::AlreadyMapped`] if the pool has a live entry, or
    /// [`PotError::Full`] if probing wraps without finding a free slot.
    pub fn insert(&mut self, pool: PoolId, base: VirtAddr) -> Result<(), PotError> {
        let start = self.hash(pool);
        let n = self.slots.len();
        let mut first_free = None;
        for i in 0..n {
            let idx = (start + i) % n;
            match self.slots[idx] {
                Slot::Empty => {
                    let idx = first_free.unwrap_or(idx);
                    self.slots[idx] = Slot::Live { pool, base };
                    self.live += 1;
                    self.tele_occupancy.set(self.live as u64);
                    return Ok(());
                }
                Slot::Tombstone => {
                    first_free.get_or_insert(idx);
                }
                Slot::Live { pool: p, .. } if p == pool => {
                    return Err(PotError::AlreadyMapped(pool));
                }
                Slot::Live { .. } => {}
            }
        }
        if let Some(idx) = first_free {
            self.slots[idx] = Slot::Live { pool, base };
            self.live += 1;
            self.tele_occupancy.set(self.live as u64);
            return Ok(());
        }
        Err(PotError::Full)
    }

    /// Performs a hardware walk for `pool`, recording probe statistics.
    ///
    /// The walk starts at the hashed index and probes linearly. A live
    /// matching entry yields the translation; an `Empty` slot means the
    /// mapping does not exist (the caller raises an exception).
    pub fn walk(&mut self, pool: PoolId) -> WalkResult {
        self.walks += 1;
        let start = self.hash(pool);
        let n = self.slots.len();
        let mut result = WalkResult {
            base: None,
            probes: n as u32,
        };
        for i in 0..n {
            let idx = (start + i) % n;
            match self.slots[idx] {
                Slot::Empty => {
                    result.probes = i as u32 + 1;
                    break;
                }
                Slot::Live { pool: p, base } if p == pool => {
                    result.base = Some(base);
                    result.probes = i as u32 + 1;
                    break;
                }
                _ => {}
            }
        }
        self.total_probes += result.probes as u64;
        self.tele_walks.inc();
        self.tele_probe_len.record(result.probes as u64);
        // Close the PotWalkBegin the translation unit opened (no-op while
        // event tracing is disabled); the probe count rides in `arg`.
        poat_telemetry::events::emit(
            poat_telemetry::events::EventKind::PotWalkEnd,
            pool.raw(),
            result.probes,
        );
        result
    }

    /// Looks up a pool without touching walk statistics (software view).
    pub fn lookup(&self, pool: PoolId) -> Option<VirtAddr> {
        let start = self.hash(pool);
        let n = self.slots.len();
        for i in 0..n {
            match self.slots[(start + i) % n] {
                Slot::Empty => return None,
                Slot::Live { pool: p, base } if p == pool => return Some(base),
                _ => {}
            }
        }
        None
    }

    /// Unmaps a pool, returning its base address if it was mapped.
    pub fn remove(&mut self, pool: PoolId) -> Option<VirtAddr> {
        let start = self.hash(pool);
        let n = self.slots.len();
        for i in 0..n {
            let idx = (start + i) % n;
            match self.slots[idx] {
                Slot::Empty => return None,
                Slot::Live { pool: p, base } if p == pool => {
                    self.slots[idx] = Slot::Tombstone;
                    self.live -= 1;
                    self.tele_occupancy.set(self.live as u64);
                    return Some(base);
                }
                _ => {}
            }
        }
        None
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no live mappings.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of hardware walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Mean probes per walk (1.0 = perfect hashing), or 0 if no walks ran.
    pub fn mean_probes(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.total_probes as f64 / self.walks as f64
        }
    }

    /// The memory footprint of the table in bytes (16 B per entry: 4 B pool
    /// id + padding + 8 B base address), as sized in the paper (§5.1:
    /// 16384 entries ⇒ 256 KB).
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * 16
    }
}

impl fmt::Debug for Pot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pot")
            .field("capacity", &self.slots.len())
            .field("live", &self.live)
            .field("walks", &self.walks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: u32) -> PoolId {
        PoolId::new(n).unwrap()
    }

    #[test]
    fn insert_walk_lookup() {
        let mut pot = Pot::new(16);
        pot.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        let r = pot.walk(pool(1));
        assert_eq!(r.base, Some(VirtAddr::new(0x1000)));
        assert!(r.probes >= 1);
        assert_eq!(pot.lookup(pool(1)), Some(VirtAddr::new(0x1000)));
    }

    #[test]
    fn missing_translation_is_none() {
        let mut pot = Pot::new(16);
        assert_eq!(pot.walk(pool(9)).base, None);
        assert_eq!(pot.lookup(pool(9)), None);
    }

    #[test]
    fn double_map_rejected() {
        let mut pot = Pot::new(16);
        pot.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        assert_eq!(
            pot.insert(pool(1), VirtAddr::new(0x2000)),
            Err(PotError::AlreadyMapped(pool(1)))
        );
    }

    #[test]
    fn fills_to_capacity_then_full() {
        let mut pot = Pot::new(8);
        for i in 1..=8 {
            pot.insert(pool(i), VirtAddr::new(i as u64 * 0x1000))
                .unwrap();
        }
        assert_eq!(pot.len(), 8);
        assert_eq!(
            pot.insert(pool(9), VirtAddr::new(0x9000)),
            Err(PotError::Full)
        );
        // Every mapping still resolvable despite collisions.
        for i in 1..=8 {
            assert_eq!(pot.lookup(pool(i)), Some(VirtAddr::new(i as u64 * 0x1000)));
        }
    }

    #[test]
    fn remove_leaves_probe_chains_intact() {
        let mut pot = Pot::new(4);
        for i in 1..=4 {
            pot.insert(pool(i), VirtAddr::new(i as u64)).unwrap();
        }
        // Remove one in the middle of a (possibly) shared chain.
        assert_eq!(pot.remove(pool(2)), Some(VirtAddr::new(2)));
        assert_eq!(pot.lookup(pool(2)), None);
        for i in [1u32, 3, 4] {
            assert_eq!(
                pot.lookup(pool(i)),
                Some(VirtAddr::new(i as u64)),
                "pool {i}"
            );
        }
        // Tombstone is reusable.
        pot.insert(pool(7), VirtAddr::new(7)).unwrap();
        assert_eq!(pot.lookup(pool(7)), Some(VirtAddr::new(7)));
    }

    #[test]
    fn walk_counts_probes() {
        let mut pot = Pot::new(16);
        for i in 1..=12 {
            pot.insert(pool(i), VirtAddr::new(i as u64)).unwrap();
        }
        for i in 1..=12 {
            assert!(pot.walk(pool(i)).base.is_some());
        }
        assert_eq!(pot.walks(), 12);
        assert!(pot.mean_probes() >= 1.0);
    }

    #[test]
    fn paper_footprint() {
        let pot = Pot::new(16384);
        assert_eq!(pot.footprint_bytes(), 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Pot::new(0);
    }
}

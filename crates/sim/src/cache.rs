//! Set-associative cache models and the three-level hierarchy.
//!
//! Write-back, write-allocate, true-LRU caches over 64-byte lines. The
//! hierarchy returns the *total* access latency: the sum of the level
//! latencies down to the hitting level, plus main memory on a full miss
//! (3 / 11 / 38 / 158 cycles with the Table 4 defaults).
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `memory/cache_*` benchmarks pin both the MRU
//! way-hint hit path and the full miss/evict path in the committed
//! `BENCH_<n>.json` baseline (docs/BENCHMARKS.md).

use crate::config::{CacheLevelConfig, MemoryConfig};

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1] (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// One set-associative, true-LRU cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    tick: u64,
    stats: CacheStats,
    /// Per-set index of the most recently touched way. Purely a lookup
    /// accelerator for the dominant same-line-again case: a stale hint is
    /// harmless because the full-scan path below stays authoritative.
    mru: Vec<u32>,
}

impl Cache {
    /// Builds a cache from its level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    cfg.ways as usize
                ];
                sets as usize
            ],
            tick: 0,
            stats: CacheStats::default(),
            mru: vec![0; sets as usize],
        }
    }

    /// Accesses the line with number `line` (address / 64); returns whether
    /// it hit, allocating it on a miss.
    pub fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        let idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[idx];
        // MRU fast path: the way this set hit last time.
        let hint = self.mru[idx] as usize;
        if let Some(w) = set.get_mut(hint) {
            if w.valid && w.tag == tag {
                w.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        if let Some((i, w)) = set
            .iter_mut()
            .enumerate()
            .find(|(_, w)| w.valid && w.tag == tag)
        {
            w.last_use = self.tick;
            self.mru[idx] = i as u32;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let (i, victim) = set
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.last_use } else { 0 })
            .expect("invariant: associativity >= 1, so every set has a way");
        victim.tag = tag;
        victim.valid = true;
        victim.last_use = self.tick;
        self.mru[idx] = i as u32;
        false
    }

    /// Installs a line without touching hit/miss counters (prefetch).
    pub fn prefetch(&mut self, line: u64) {
        self.tick += 1;
        let idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[idx];
        if set.iter().any(|w| w.valid && w.tag == tag) {
            return;
        }
        let tick = self.tick;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("invariant: associativity >= 1, so every set has a way");
        victim.tag = tag;
        victim.valid = true;
        victim.last_use = tick;
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Statistics across the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1D counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
}

/// The L1D/L2/L3 + memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    l1_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    memory_latency: u64,
    next_line_prefetch: bool,
    prefetches: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from the memory configuration.
    pub fn new(cfg: &MemoryConfig) -> Self {
        MemoryHierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3.latency,
            memory_latency: cfg.memory_latency,
            next_line_prefetch: cfg.next_line_prefetch,
            prefetches: 0,
        }
    }

    /// Accesses the line containing physical address `pa`, returning the
    /// total latency in cycles.
    pub fn access(&mut self, pa: u64) -> u64 {
        let line = pa / 64;
        let mut latency = self.l1_latency;
        if self.l1d.access(line) {
            return latency;
        }
        if self.next_line_prefetch {
            self.prefetches += 1;
            self.l1d.prefetch(line + 1);
            self.l2.prefetch(line + 1);
            self.l3.prefetch(line + 1);
        }
        latency += self.l2_latency;
        if self.l2.access(line) {
            return latency;
        }
        latency += self.l3_latency;
        if self.l3.access(line) {
            return latency;
        }
        latency + self.memory_latency
    }

    /// The L1-hit latency (the pipelined, stall-free case).
    pub fn l1_latency(&self) -> u64 {
        self.l1_latency
    }

    /// Next-line prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Counters for all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&MemoryConfig::default())
    }

    #[test]
    fn latencies_accumulate_down_the_hierarchy() {
        let mut h = hierarchy();
        assert_eq!(
            h.access(0x1000),
            3 + 8 + 27 + 120,
            "cold miss goes to memory"
        );
        assert_eq!(h.access(0x1000), 3, "now L1-resident");
        assert_eq!(h.access(0x1008), 3, "same line");
        assert_eq!(h.access(0x1040), 158, "next line misses");
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hierarchy();
        h.access(0);
        // 32KB 8-way: 64 sets. Touch 8 more lines mapping to set 0 to evict.
        for i in 1..=8u64 {
            h.access(i * 64 * 64);
        }
        let lat = h.access(0);
        assert_eq!(lat, 3 + 8, "evicted from L1 but still in L2");
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = Cache::new(CacheLevelConfig {
            capacity: 2 * 64,
            ways: 2,
            latency: 1,
        });
        // 1 set, 2 ways.
        assert!(!c.access(0));
        assert!(!c.access(1));
        assert!(c.access(0)); // refresh 0 → 1 is LRU
        assert!(!c.access(2)); // evicts 1
        assert!(c.access(0));
        assert!(!c.access(1), "1 was evicted");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut h = hierarchy();
        h.access(0);
        h.access(0);
        let s = h.stats();
        assert_eq!(s.l1d.hits, 1);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(s.l1d.miss_rate(), 0.5);
    }

    #[test]
    fn distinct_addresses_do_not_alias() {
        let mut h = hierarchy();
        // Fill a few thousand distinct lines; all must miss exactly once.
        for i in 0..4000u64 {
            h.access(i * 64);
        }
        assert_eq!(h.stats().l1d.misses, 4000);
        assert_eq!(h.stats().l1d.hits, 0);
    }

    /// Plain linear-scan true-LRU with no MRU way hint: the semantics
    /// `Cache` must preserve.
    struct ReferenceCache {
        sets: Vec<Vec<Way>>,
        tick: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn access(&mut self, line: u64) -> bool {
            self.tick += 1;
            let idx = (line % self.sets.len() as u64) as usize;
            let tag = line / self.sets.len() as u64;
            let set = &mut self.sets[idx];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use } else { 0 })
                .unwrap();
            victim.tag = tag;
            victim.valid = true;
            victim.last_use = self.tick;
            false
        }
    }

    #[test]
    fn mru_fast_path_matches_reference_lru() {
        // 4 sets × 4 ways, hammered with a mix of line-local runs, a hot
        // working set larger than one set, and scattered lines: exercises
        // the hint hit, hint misses that still hit on scan, fills, and
        // LRU evictions. Every per-access outcome must match.
        let cfg = CacheLevelConfig {
            capacity: 16 * 64,
            ways: 4,
            latency: 1,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = ReferenceCache {
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        last_use: 0
                    };
                    4
                ];
                4
            ],
            tick: 0,
            stats: CacheStats::default(),
        };
        let mut x: u64 = 0xDEAD;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = match i % 4 {
                0 | 1 => i / 9,     // line-local runs
                2 => x % 24,        // hot set bigger than capacity
                _ => x % (1 << 20), // scattered
            };
            assert_eq!(
                cache.access(line),
                reference.access(line),
                "access {i} diverged"
            );
        }
        assert_eq!(cache.stats(), reference.stats);
        assert!(reference.stats.hits > 0 && reference.stats.misses > 16);
    }
}

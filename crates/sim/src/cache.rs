//! Set-associative cache models and the three-level hierarchy.
//!
//! Write-back, write-allocate, true-LRU caches over 64-byte lines. The
//! hierarchy returns the *total* access latency: the sum of the level
//! latencies down to the hitting level, plus main memory on a full miss
//! (3 / 11 / 38 / 158 cycles with the Table 4 defaults).
//!
//! Each set is an LRU stack in the sense of Mattson et al., "Evaluation
//! Techniques for Storage Hierarchies" (IBM Systems Journal, 1970): its
//! tags are kept in recency order, most recently used first. An LRU
//! set's contents depend only on that order, so no access timestamp is
//! kept: the common hit is one compare against the front slot, and the
//! victim on a miss is always the last slot.
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `memory/cache_*` benchmarks pin both the
//! front-of-set hit path and the full miss/evict path in the committed
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

/// Looks `key` up in `run`, a recency-ordered run of keys (most recently
/// used first), and returns whether it was there. A hit moves the key to
/// the front. A miss installs it at the front and drops the last slot:
/// an empty one while the run fills, and the LRU key after that. Keys are
/// non-zero, since 0 marks an empty slot; so empty slots only ever trail
/// the filled ones.
///
/// A set holds at most 16 ways, where this scan beats a hash index; the
/// fully associative TLB and POLB use [`poat_core::lru::Lru`] instead.
#[inline]
fn lru_touch(run: &mut [u64], key: u64) -> bool {
    if run.first() == Some(&key) {
        return true;
    }
    match run.iter().position(|&k| k == key) {
        Some(i) => {
            run[..=i].rotate_right(1);
            true
        }
        None => {
            if let Some(last) = run.last_mut() {
                *last = key;
                run.rotate_right(1);
            }
            false
        }
    }
}

/// One set-associative, true-LRU cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    /// Set-major tags: set `s` owns `tags[s * ways..][..ways]`, a
    /// [`lru_touch`] run. A stored tag is the line's tag + 1, so 0 marks
    /// an empty slot.
    tags: Vec<u64>,
    ways: usize,
    /// log2 of the set count: the set index is the line's low bits and
    /// the tag the rest.
    set_bits: u32,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set, or if the
    /// set count is not a power of two.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two, got {sets}"
        );
        let ways = cfg.ways as usize;
        Cache {
            tags: vec![0; sets as usize * ways],
            ways,
            set_bits: sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The recency-ordered set that line number `line` maps to, and the
    /// tag it is stored under there.
    fn set_of(&mut self, line: u64) -> (&mut [u64], u64) {
        let idx = (line & ((1 << self.set_bits) - 1)) as usize;
        let tag = (line >> self.set_bits) + 1;
        (&mut self.tags[idx * self.ways..][..self.ways], tag)
    }

    /// Accesses the line with number `line` (address / 64, so below
    /// 2^58); returns whether it hit, allocating it on a miss.
    pub fn access(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_of(line);
        let hit = lru_touch(set, tag);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Installs a line without touching hit/miss counters (prefetch). A
    /// line that is already present keeps its place in the recency order.
    pub fn prefetch(&mut self, line: u64) {
        let (set, tag) = self.set_of(line);
        if !set.contains(&tag) {
            lru_touch(set, tag);
        }
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

    #[derive(Clone, Copy)]
    struct Way {
        tag: u64,
        valid: bool,
        last_use: u64,
    }

    /// Timestamped linear-scan true-LRU with `%`/`/` set indexing: the
    /// semantics the recency-ordered `Cache` must preserve.
    struct ReferenceCache {
        sets: Vec<Vec<Way>>,
        tick: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(cfg: CacheLevelConfig) -> Self {
            let way = Way {
                tag: 0,
                valid: false,
                last_use: 0,
            };
            ReferenceCache {
                sets: vec![vec![way; cfg.ways as usize]; cfg.sets() as usize],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        /// The set `line` maps to and its tag there.
        fn set_of(&mut self, line: u64) -> (&mut Vec<Way>, u64) {
            let n = self.sets.len() as u64;
            (&mut self.sets[(line % n) as usize], line / n)
        }

        /// Fills the LRU way (an invalid way first) with `tag`.
        fn install(set: &mut [Way], tag: u64, tick: u64) {
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use } else { 0 })
                .unwrap();
            *victim = Way {
                tag,
                valid: true,
                last_use: tick,
            };
        }

        fn access(&mut self, line: u64) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_of(line);
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.last_use = tick;
                self.stats.hits += 1;
                return true;
            }
            Self::install(set, tag, tick);
            self.stats.misses += 1;
            false
        }

        fn prefetch(&mut self, line: u64) {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_of(line);
            if !set.iter().any(|w| w.valid && w.tag == tag) {
                Self::install(set, tag, tick);
            }
        }
    }

    /// A line stream for a `sets` × `ways` cache: line-local runs, a hot
    /// group of four sets with more distinct lines than ways (fills, hits
    /// at every depth of the stack, LRU evictions), and scattered lines.
    fn line_stream(sets: u64, ways: u64, n: u64, seed: u64) -> impl Iterator<Item = u64> {
        let mut x = seed;
        (0..n).map(move |i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match i % 4 {
                0 | 1 => i / 9,
                2 => (x >> 33) % 4 + sets * ((x >> 40) % (2 * ways + 1)),
                _ => (x >> 20) % (1 << 30),
            }
        })
    }

    #[test]
    fn recency_stack_matches_reference_lru() {
        // The three Table 4 levels (64×8, 512×8, 8192×16 sets × ways), a
        // direct-mapped cache and a fully associative one. Every
        // per-access outcome must match.
        for (sets, ways) in [(64, 8), (512, 8), (8192, 16), (64, 1), (1, 8)] {
            let cfg = CacheLevelConfig {
                capacity: sets * ways * 64,
                ways: ways as u32,
                latency: 1,
            };
            let mut cache = Cache::new(cfg);
            let mut reference = ReferenceCache::new(cfg);
            for (i, line) in line_stream(sets, ways, 20_000, 0xDEAD).enumerate() {
                assert_eq!(
                    cache.access(line),
                    reference.access(line),
                    "{sets}x{ways}: access {i} diverged"
                );
            }
            assert_eq!(cache.stats(), reference.stats, "{sets}x{ways}");
            let s = reference.stats;
            assert!(s.hits > 1000 && s.misses > 1000, "{sets}x{ways}: {s:?}");
        }
    }

    #[test]
    fn prefetching_hierarchy_matches_reference_lru() {
        // `MemoryHierarchy::access` with next-line prefetch, against the
        // same walk over three reference levels. The hot group aims at
        // four L2 sets, so it misses L1 and L2 and hits in L3.
        let mem = MemoryConfig {
            next_line_prefetch: true,
            ..MemoryConfig::default()
        };
        let mut h = MemoryHierarchy::new(&mem);
        let mut levels = [mem.l1d, mem.l2, mem.l3].map(|c| (ReferenceCache::new(c), c.latency));
        let mut prefetches = 0;
        for (i, line) in line_stream(512, 8, 40_000, 0xBEEF).enumerate() {
            let mut expected = 0;
            let mut served = false;
            for level in 0..3 {
                expected += levels[level].1;
                if levels[level].0.access(line) {
                    served = true;
                    break;
                }
                if level == 0 {
                    prefetches += 1;
                    levels.iter_mut().for_each(|(c, _)| c.prefetch(line + 1));
                }
            }
            if !served {
                expected += mem.memory_latency;
            }
            assert_eq!(h.access(line * 64), expected, "access {i} diverged");
        }
        let [l1d, l2, l3] = levels.map(|(c, _)| c.stats);
        assert_eq!(h.stats(), HierarchyStats { l1d, l2, l3 });
        assert_eq!(h.prefetches(), prefetches);
        assert!(l1d.hits > 0 && l2.hits > 0 && l3.hits > 0 && l3.misses > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        Cache::new(CacheLevelConfig {
            capacity: 3 * 8 * 64,
            ways: 8,
            latency: 1,
        });
    }
}

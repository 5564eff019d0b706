//! Data TLB model: fully associative, true-LRU over 4 KB page numbers.
//!
//! The entries sit in a [`Lru`] index, the structure the POLB uses: a
//! hash from page number to slot plus a recency list. A repeat of the
//! most recently used page is one compare; any other hit, and a miss
//! with its eviction of the least recently used page, costs O(1)
//! instead of a scan over all 64 entries.
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `memory/tlb_*` benchmarks pin both the
//! front-entry hit path and the miss-and-evict path in the committed
//! `BENCH_<n>.json` baseline (docs/BENCHMARKS.md).

use poat_core::lru::Lru;

/// Hit/miss counters for the TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations that required a page walk.
    pub misses: u64,
}

/// A fully associative D-TLB (Table 4: 64 entries, 30-cycle miss penalty
/// charged by the core models).
#[derive(Clone, Debug)]
pub struct Tlb {
    /// The resident page numbers, in recency order.
    pages: Lru,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    pub fn new(entries: usize) -> Self {
        Tlb {
            pages: Lru::new(entries),
            stats: TlbStats::default(),
        }
    }

    /// Looks up the page containing virtual address `va`; returns whether
    /// the translation hit, installing it on a miss.
    #[inline]
    pub fn access(&mut self, va: u64) -> bool {
        let page = va >> 12;
        let hit = self.pages.touch(page).is_some();
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if self.pages.capacity() > 0 {
                self.pages.insert(page);
            }
        }
        hit
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(0x1000));
        assert!(tlb.access(0x1FFF));
        assert!(!tlb.access(0x2000));
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.access(0x1000);
        tlb.access(0x2000);
        tlb.access(0x1000); // refresh
        tlb.access(0x3000); // evicts 0x2000
        assert!(tlb.access(0x1000));
        assert!(!tlb.access(0x2000));
    }

    #[test]
    fn stats_accumulate() {
        let mut tlb = Tlb::new(2);
        tlb.access(0x1000);
        tlb.access(0x1100);
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut tlb = Tlb::new(0);
        tlb.access(0x1000);
        assert!(!tlb.access(0x1000));
    }

    /// Timestamped linear-scan true-LRU: the semantics the
    /// recency-ordered `Tlb` must preserve.
    struct ReferenceTlb {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        tick: u64,
        stats: TlbStats,
    }

    impl ReferenceTlb {
        fn access(&mut self, va: u64) -> bool {
            self.tick += 1;
            let page = va >> 12;
            let tick = self.tick;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                e.1 = tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if self.entries.len() < self.capacity {
                self.entries.push((page, tick));
            } else if let Some(victim) = self.entries.iter_mut().min_by_key(|(_, t)| *t) {
                *victim = (page, tick);
            }
            false
        }
    }

    #[test]
    fn recency_stack_matches_reference_lru() {
        // The Table 4 TLB (64 entries), a larger and a small one, a
        // single entry and none, under page-local runs with periodic
        // strides and revisits: fills, hits at every depth, LRU
        // evictions, and re-touches of evicted pages. Every per-access
        // outcome must match.
        for capacity in [128, 64, 8, 1, 0] {
            let mut tlb = Tlb::new(capacity);
            let mut reference = ReferenceTlb {
                entries: Vec::new(),
                capacity,
                tick: 0,
                stats: TlbStats::default(),
            };
            let hot = 2 * capacity.max(1) as u64;
            let mut x: u64 = 0x9E37;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let va = match i % 4 {
                    0 | 1 => (i / 7) * 4096 + (x % 4096), // page-local runs
                    2 => ((x >> 33) % hot) * 4096,        // hot pages over the slots
                    _ => x % (1 << 30),                   // scattered
                };
                assert_eq!(
                    tlb.access(va),
                    reference.access(va),
                    "{capacity} entries: access {i} diverged"
                );
            }
            assert_eq!(tlb.stats(), reference.stats, "{capacity} entries");
            let s = reference.stats;
            if capacity == 0 {
                assert_eq!(s.hits, 0, "no entry, no hit");
            } else {
                assert!(
                    s.hits > 1000 && s.misses > 1000,
                    "{capacity} entries: {s:?}"
                );
            }
        }
    }
}

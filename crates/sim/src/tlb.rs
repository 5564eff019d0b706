//! Data TLB model: fully associative, true-LRU over 4 KB page numbers.
//!
//! `access` runs once per replayed memory op, so its host cost bounds
//! replay throughput: the `memory/tlb_*` benchmarks pin both the MRU
//! entry-hint hit path and the full-scan miss path in the committed
//! `BENCH_<n>.json` baseline (docs/BENCHMARKS.md).

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
    entries: Vec<(u64, u64)>, // (page number, last use)
    capacity: usize,
    tick: u64,
    stats: TlbStats,
    /// Index of the most recently touched entry. Purely a lookup
    /// accelerator: memory accesses repeat pages heavily, so the common
    /// case resolves without scanning the whole (64-entry) array. Any
    /// stale value is harmless — the slow path below is the authority.
    mru: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    pub fn new(entries: usize) -> Self {
        Tlb {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            tick: 0,
            stats: TlbStats::default(),
            mru: 0,
        }
    }

    /// Looks up the page containing virtual address `va`; returns whether
    /// the translation hit, installing it on a miss.
    pub fn access(&mut self, va: u64) -> bool {
        self.tick += 1;
        let page = va >> 12;
        let tick = self.tick;
        // MRU fast path: same page as the previous access.
        if let Some(e) = self.entries.get_mut(self.mru) {
            if e.0 == page {
                e.1 = tick;
                self.stats.hits += 1;
                return true;
            }
        }
        if let Some((i, e)) = self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(_, (p, _))| *p == page)
        {
            e.1 = tick;
            self.mru = i;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((page, tick));
            self.mru = self.entries.len() - 1;
        } else {
            let (i, victim) = self
                .entries
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .expect("invariant: capacity > 0, checked in new()");
            *victim = (page, tick);
            self.mru = i;
        }
        false
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

    /// Plain linear-scan true-LRU, with no MRU fast path: the semantics
    /// `Tlb` must preserve.
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
            } else {
                *self.entries.iter_mut().min_by_key(|(_, t)| *t).unwrap() = (page, tick);
            }
            false
        }
    }

    #[test]
    fn mru_fast_path_matches_reference_lru() {
        // A page-local access pattern with periodic strides and revisits:
        // exercises the fast path, fills, LRU evictions, and re-touches
        // of evicted pages. Every per-access outcome must match.
        let mut tlb = Tlb::new(8);
        let mut reference = ReferenceTlb {
            entries: Vec::new(),
            capacity: 8,
            tick: 0,
            stats: TlbStats::default(),
        };
        let mut x: u64 = 0x9E37;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = match i % 4 {
                0 | 1 => (i / 7) * 4096 + (x % 4096), // page-local runs
                2 => (x % 16) * 4096,                 // 16 hot pages over 8 slots
                _ => x % (1 << 30),                   // scattered
            };
            assert_eq!(tlb.access(va), reference.access(va), "access {i} diverged");
        }
        assert_eq!(tlb.stats(), reference.stats);
        assert!(reference.stats.hits > 0 && reference.stats.misses > 8);
    }
}

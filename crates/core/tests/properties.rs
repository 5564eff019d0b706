//! Property-based tests for the translation structures.

use std::collections::HashMap;

use poat_core::lru::Lru;
use poat_core::polb::Polb;
use poat_core::stats::PolbStats;
use poat_core::{ObjectId, PolbDesign, PoolId, Pot, VirtAddr, PAGE_BYTES};
use proptest::prelude::*;

fn pool_id() -> impl Strategy<Value = PoolId> {
    (1u32..5000).prop_map(|p| PoolId::new(p).expect("non-zero"))
}

/// A reference true-LRU POLB: `(tag, data)` entries in recency order,
/// least recently used first.
struct LruModel {
    design: PolbDesign,
    capacity: usize,
    entries: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl LruModel {
    fn tag(&self, oid: ObjectId) -> u64 {
        match self.design {
            PolbDesign::Pipelined => oid.pool_raw() as u64,
            PolbDesign::Parallel => oid.page_tag(),
        }
    }

    /// Moves the entry tagged `tag` to the most-recent end; returns it.
    fn touch(&mut self, tag: u64) -> Option<&mut (u64, u64)> {
        let i = self.entries.iter().position(|e| e.0 == tag)?;
        let e = self.entries.remove(i);
        self.entries.push(e);
        self.entries.last_mut()
    }

    fn translate(&mut self, oid: ObjectId) -> Option<u64> {
        let Some(&mut (_, data)) = self.touch(self.tag(oid)) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        Some(match self.design {
            PolbDesign::Pipelined => data + oid.offset() as u64,
            PolbDesign::Parallel => data + oid.offset() as u64 % PAGE_BYTES,
        })
    }

    fn fill(&mut self, oid: ObjectId, data: u64) {
        let tag = self.tag(oid);
        if self.capacity == 0 {
            return;
        }
        if let Some(e) = self.touch(tag) {
            e.1 = data;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((tag, data));
    }
}

proptest! {
    #[test]
    fn objectid_roundtrips(pool in pool_id(), off in any::<u32>()) {
        let oid = ObjectId::new(pool, off);
        prop_assert_eq!(oid.pool(), Some(pool));
        prop_assert_eq!(oid.offset(), off);
        prop_assert_eq!(ObjectId::from_raw(oid.raw()), oid);
        prop_assert!(!oid.is_null());
    }

    #[test]
    fn objectid_page_tag_consistent_with_offset(pool in pool_id(), off in any::<u32>()) {
        let oid = ObjectId::new(pool, off);
        // Same page ⇒ same tag; different page within pool ⇒ different tag.
        let same_page = ObjectId::new(pool, (off & !0xFFF) | (!off & 0xFFF));
        prop_assert_eq!(oid.page_tag(), same_page.page_tag());
        if off >= 4096 {
            let other_page = ObjectId::new(pool, off - 4096);
            prop_assert_ne!(oid.page_tag(), other_page.page_tag());
        }
    }

    /// The pipelined POLB agrees with a reference map for every
    /// fill/translate sequence, modulo capacity evictions:
    /// a hit must always return the reference translation.
    #[test]
    fn pipelined_polb_hits_are_always_correct(
        cap in 1usize..16,
        ops in prop::collection::vec((1u32..12, 0u32..4096, any::<bool>()), 1..200),
    ) {
        let mut polb = Polb::new(PolbDesign::Pipelined, cap);
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (pool_raw, off, is_fill) in ops {
            let pool = PoolId::new(pool_raw).expect("non-zero");
            let oid = ObjectId::new(pool, off);
            let base = (pool_raw as u64) << 32;
            if is_fill {
                polb.fill(oid, base);
                reference.insert(pool_raw, base);
            } else if let Some(got) = polb.translate(oid) {
                let want = reference.get(&pool_raw).copied().map(|b| b + off as u64);
                prop_assert_eq!(Some(got), want, "stale or fabricated translation");
            }
        }
        prop_assert!(polb.stats().lookups() >= 1 || polb.stats().hits == 0);
    }

    /// The parallel POLB never returns a translation for the wrong page.
    #[test]
    fn parallel_polb_translations_match_their_page(
        cap in 1usize..16,
        fills in prop::collection::vec((1u32..8, 0u32..16), 1..64),
        probes in prop::collection::vec((1u32..8, 0u32..65536), 1..64),
    ) {
        let mut polb = Polb::new(PolbDesign::Parallel, cap);
        let mut frames: HashMap<u64, u64> = HashMap::new();
        for (i, (pool_raw, page)) in fills.iter().enumerate() {
            let oid = ObjectId::new(PoolId::new(*pool_raw).expect("non-zero"), page * 4096);
            let frame = (i as u64 + 1) * 0x10_000;
            polb.fill(oid, frame);
            frames.insert(oid.page_tag(), frame);
        }
        for (pool_raw, off) in probes {
            let oid = ObjectId::new(PoolId::new(pool_raw).expect("non-zero"), off);
            if let Some(pa) = polb.translate(oid) {
                let frame = frames.get(&oid.page_tag());
                prop_assert_eq!(Some(pa & !0xFFF), frame.copied(), "wrong frame");
                prop_assert_eq!(pa & 0xFFF, off as u64 & 0xFFF, "page offset mangled");
            }
        }
    }

    /// The POLB of either design is exactly a true-LRU cache: every
    /// translate/fill sequence hits and misses where a reference LRU
    /// list does, returns the reference's address on every hit, and
    /// ends with the reference's hit and miss counts.
    #[test]
    fn polb_matches_a_reference_lru(
        design in prop_oneof![Just(PolbDesign::Pipelined), Just(PolbDesign::Parallel)],
        cap in prop_oneof![0usize..=8, Just(32usize), Just(128usize)],
        ops in prop::collection::vec(
            (any::<bool>(), any::<u32>(), 0u32..4, 0u32..4096, 1u64..1024),
            1..1200,
        ),
    ) {
        let mut polb = Polb::new(design, cap);
        let mut model = LruModel { design, capacity: cap, entries: Vec::new(), hits: 0, misses: 0 };
        // 4 pools up to 8 entries; past that, a quarter more pools than
        // entries, so even Pipelined (one entry per pool) evicts.
        let pools = if cap <= 8 { 4 } else { cap as u32 + cap as u32 / 4 };
        for (is_fill, pool_pick, page, off, data) in ops {
            let pool = PoolId::new(1 + pool_pick % pools).expect("non-zero");
            let oid = ObjectId::new(pool, page * PAGE_BYTES as u32 + off);
            if is_fill {
                // Frame-aligned data suits both designs.
                let data = data * PAGE_BYTES;
                polb.fill(oid, data);
                model.fill(oid, data);
            } else {
                prop_assert_eq!(polb.translate(oid), model.translate(oid), "{:?} {:?}", design, oid);
            }
        }
        prop_assert_eq!(polb.capacity(), cap);
        prop_assert_eq!(*polb.stats(), PolbStats { hits: model.hits, misses: model.misses });
    }

    /// `Lru` is a true-LRU list: each touch hits exactly when the key is
    /// resident, an insert evicts the least recently used key only once
    /// every slot is in use and hands the newcomer that key's slot, and
    /// a resident key keeps its slot. Key spaces run from half the
    /// capacity (no eviction) to twice it (eviction on most misses).
    #[test]
    fn lru_matches_a_reference_list(
        cap in prop_oneof![0usize..=8, Just(32usize), Just(128usize)],
        span_pct in prop_oneof![Just(50u64), Just(100u64), Just(125u64), Just(200u64)],
        picks in prop::collection::vec(any::<u64>(), 1..1500),
    ) {
        let mut lru = Lru::new(cap);
        prop_assert_eq!(lru.capacity(), cap);
        // Most recently used first.
        let mut reference: Vec<u64> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let span = (cap as u64 * span_pct / 100).max(1);
        for pick in picks {
            // Spread the keys so they differ in their high bits too.
            let key = (pick % span).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let resident = reference.iter().position(|&k| k == key);
            match lru.touch(key) {
                Some(slot) => {
                    let at = resident.expect("a hit is resident");
                    prop_assert_eq!(slot_of.get(&key), Some(&slot));
                    reference.remove(at);
                    reference.insert(0, key);
                }
                None => {
                    prop_assert!(resident.is_none(), "{key:#x} resident but missed");
                    if cap == 0 {
                        continue;
                    }
                    let (slot, evicted) = lru.insert(key);
                    let expect = (reference.len() == cap).then(|| reference.pop().expect("full"));
                    prop_assert_eq!(evicted, expect);
                    match evicted {
                        Some(old) => prop_assert_eq!(slot_of.remove(&old), Some(slot)),
                        None => prop_assert_eq!(slot, slot_of.len(), "slots fill in order"),
                    }
                    prop_assert!(slot < cap);
                    slot_of.insert(key, slot);
                    reference.insert(0, key);
                }
            }
        }
    }

    /// The POT behaves like a map for arbitrary insert/remove/walk mixes,
    /// as long as it never overfills.
    #[test]
    fn pot_is_a_map(
        ops in prop::collection::vec((1u32..64, 0u8..3), 1..300),
    ) {
        let mut pot = Pot::new(128);
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (pool_raw, op) in ops {
            let pool = PoolId::new(pool_raw).expect("non-zero");
            match op {
                0 => {
                    let base = (pool_raw as u64 + 7) << 20;
                    match pot.insert(pool, VirtAddr::new(base)) {
                        Ok(()) => {
                            prop_assert!(!reference.contains_key(&pool_raw));
                            reference.insert(pool_raw, base);
                        }
                        Err(_) => prop_assert!(reference.contains_key(&pool_raw)),
                    }
                }
                1 => {
                    let got = pot.remove(pool).map(|v| v.raw());
                    prop_assert_eq!(got, reference.remove(&pool_raw));
                }
                _ => {
                    let got = pot.walk(pool).base.map(|v| v.raw());
                    prop_assert_eq!(got, reference.get(&pool_raw).copied());
                }
            }
            prop_assert_eq!(pot.len(), reference.len());
        }
    }
}

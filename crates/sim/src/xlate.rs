//! The core-side translation unit: POLB backed by a hardware POT walk.
//!
//! This wires the `poat-core` structures into a timing model: each
//! `nvld`/`nvst` consults the POLB; a miss triggers the fixed-latency POT
//! walk (plus a page-table walk for the *Parallel* design, which must
//! produce a physical frame — paper §4.2, Figure 7).

use poat_core::polb::Polb;
use poat_core::{ObjectId, PolbDesign, Pot, TranslationConfig, TranslationStats, VirtAddr};
use poat_nvm::PageTable;
use poat_pmem::MachineState;
use poat_telemetry::events::{self, EventKind, TraceDesign};
use poat_telemetry::profile;

/// Outcome of translating one ObjectID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslateOutcome {
    /// Translation succeeded; `extra_cycles` is the added latency (POLB
    /// access and/or walk penalties).
    Ok {
        /// Added latency in cycles.
        extra_cycles: u64,
    },
    /// No POT mapping: the access faults to the OS (paper §4.2). The
    /// simulator counts it and charges the walk that discovered it.
    Fault {
        /// Cycles spent discovering the fault.
        extra_cycles: u64,
    },
}

/// POLB + POT translation hardware for one core.
pub struct TranslationUnit {
    cfg: TranslationConfig,
    polb: Polb,
    pot: Pot,
    page_table: PageTable,
    stats: TranslationStats,
}

impl std::fmt::Debug for TranslationUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranslationUnit")
            .field("design", &self.cfg.design)
            .field("polb_entries", &self.polb.capacity())
            .field("polb_stats", self.polb.stats())
            .field("pot_len", &self.pot.len())
            .field("page_table_len", &self.page_table.len())
            .finish()
    }
}

impl TranslationUnit {
    /// Builds the unit for a given configuration and end-of-run machine
    /// state (POT contents + page table) exported by the runtime.
    pub fn new(cfg: TranslationConfig, state: &MachineState) -> Self {
        TranslationUnit {
            cfg,
            polb: Polb::new(cfg.design, cfg.polb_entries),
            pot: state.pot.clone(),
            page_table: state.page_table.clone(),
            stats: TranslationStats::default(),
        }
    }

    /// The configured design.
    pub fn design(&self) -> PolbDesign {
        self.cfg.design
    }

    /// Issues one `nvld` or `nvst` (`kind`) at `cycle`, the core's
    /// `instr`-th instruction: records the access event, translates in
    /// the `xlate` profile scope and returns the added latency. A fault
    /// costs the walk that discovered it, like a successful translation.
    pub(crate) fn issue(
        &mut self,
        kind: EventKind,
        instr: u64,
        cycle: u64,
        oid: ObjectId,
        va: VirtAddr,
    ) -> u64 {
        let design = match self.cfg.design {
            PolbDesign::Pipelined => TraceDesign::Pipelined,
            PolbDesign::Parallel => TraceDesign::Parallel,
        };
        events::begin_access(kind, design, instr, cycle, oid.pool_raw());
        let _xlate_prof = profile::hot_scope("xlate");
        match self.translate(oid, va) {
            TranslateOutcome::Ok { extra_cycles } | TranslateOutcome::Fault { extra_cycles } => {
                extra_cycles
            }
        }
    }

    /// Translates `oid`, whose runtime-recorded virtual address is `va`
    /// (used by the Parallel refill path to find the physical frame).
    pub fn translate(&mut self, oid: ObjectId, va: VirtAddr) -> TranslateOutcome {
        if self.cfg.ideal {
            return TranslateOutcome::Ok { extra_cycles: 0 };
        }
        if self.polb.translate(oid).is_some() {
            let extra = self.cfg.hit_latency_cycles();
            self.stats.translation_cycles += extra;
            return TranslateOutcome::Ok {
                extra_cycles: extra,
            };
        }
        // POLB miss: hardware POT walk. A fault discovered *by* the POT
        // walk charges only the POT-walk share (`fault_penalty_cycles`);
        // the Parallel design's page-table walk runs — and its latency
        // elapses — only once the POT has produced a base to walk from.
        let _walk_prof = profile::hot_scope("pot_walk");
        self.stats.pot_walks += 1;
        let hit = self.cfg.hit_latency_cycles();
        let fault_extra = hit + self.cfg.fault_penalty_cycles();
        // The walk discovers faults too, so the begin event precedes the
        // pool validity check; `Pot::walk` emits the matching end event,
        // stamped after the modeled POT-walk latency has elapsed.
        events::emit(EventKind::PotWalkBegin, oid.pool_raw(), 0);
        events::advance_cycle(fault_extra);
        let Some(pool) = oid.pool() else {
            self.stats.exceptions += 1;
            self.stats.translation_cycles += fault_extra;
            events::emit(EventKind::Fault, oid.pool_raw(), 0);
            return TranslateOutcome::Fault {
                extra_cycles: fault_extra,
            };
        };
        let walk = self.pot.walk(pool);
        let Some(base) = walk.base else {
            self.stats.exceptions += 1;
            self.stats.translation_cycles += fault_extra;
            events::emit(EventKind::Fault, oid.pool_raw(), walk.probes);
            return TranslateOutcome::Fault {
                extra_cycles: fault_extra,
            };
        };
        let extra = hit + self.cfg.miss_penalty_cycles();
        events::advance_cycle(extra.saturating_sub(fault_extra));
        self.stats.translation_cycles += extra;
        match self.cfg.design {
            PolbDesign::Pipelined => self.polb.fill(oid, base.raw()),
            PolbDesign::Parallel => {
                // The POT yields a virtual base; the page-table walk (whose
                // latency is folded into `pot_page_walk_cycles`) yields the
                // frame for the *accessed page*. No frame means the page
                // is unmapped: surface the fault instead of caching a
                // garbage translation that every later access would "hit".
                let Some(frame) = self.page_table.frame_of(va) else {
                    self.stats.exceptions += 1;
                    events::emit(EventKind::PageWalk, oid.pool_raw(), 0);
                    events::emit(EventKind::Fault, oid.pool_raw(), walk.probes);
                    return TranslateOutcome::Fault {
                        extra_cycles: extra,
                    };
                };
                events::emit(EventKind::PageWalk, oid.pool_raw(), 1);
                self.polb.fill(oid, frame.raw());
            }
        }
        TranslateOutcome::Ok {
            extra_cycles: extra,
        }
    }

    /// Accumulated statistics, with the POLB counters folded in.
    pub fn stats(&self) -> TranslationStats {
        let mut s = self.stats;
        s.polb = *self.polb.stats();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_pmem::{Runtime, RuntimeConfig};

    fn state_with_pool() -> (MachineState, ObjectId) {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        (rt.machine_state(), oid)
    }

    fn va_of(state: &MachineState, oid: ObjectId) -> VirtAddr {
        let base = state.pot.lookup(oid.pool().unwrap()).unwrap();
        base.offset(oid.offset() as u64)
    }

    #[test]
    fn pipelined_miss_then_hit_latencies() {
        let (state, oid) = state_with_pool();
        let va = va_of(&state, oid);
        let mut tu = TranslationUnit::new(TranslationConfig::default(), &state);
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok {
                extra_cycles: 3 + 30
            },
            "cold access: POLB access + POT walk"
        );
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok { extra_cycles: 3 },
            "warm access: POLB hit"
        );
        let s = tu.stats();
        assert_eq!(s.polb.misses, 1);
        assert_eq!(s.polb.hits, 1);
        assert_eq!(s.pot_walks, 1);
        assert_eq!(s.exceptions, 0);
    }

    #[test]
    fn parallel_hit_is_free_but_miss_is_60() {
        let (state, oid) = state_with_pool();
        let va = va_of(&state, oid);
        let cfg = TranslationConfig::for_design(PolbDesign::Parallel);
        let mut tu = TranslationUnit::new(cfg, &state);
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok { extra_cycles: 60 }
        );
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok { extra_cycles: 0 }
        );
    }

    #[test]
    fn parallel_needs_refill_per_page() {
        let (state, oid) = state_with_pool();
        let cfg = TranslationConfig::for_design(PolbDesign::Parallel);
        let mut tu = TranslationUnit::new(cfg, &state);
        let va = va_of(&state, oid);
        tu.translate(oid, va);
        // Same pool, different page: misses again under Parallel.
        let oid2 = ObjectId::new(oid.pool().unwrap(), oid.offset() + 8192);
        let va2 = va_of(&state, oid2);
        assert!(matches!(
            tu.translate(oid2, va2),
            TranslateOutcome::Ok { extra_cycles: 60 }
        ));
        assert_eq!(tu.stats().polb.misses, 2);
    }

    #[test]
    fn unmapped_pool_faults() {
        let (state, _) = state_with_pool();
        let mut tu = TranslationUnit::new(TranslationConfig::default(), &state);
        let bogus = ObjectId::new(poat_core::PoolId::new(999).unwrap(), 0);
        // Pipelined's miss penalty *is* the POT walk, so the fault costs
        // the same as a successful miss: POLB access + POT walk.
        assert_eq!(
            tu.translate(bogus, VirtAddr::new(0)),
            TranslateOutcome::Fault {
                extra_cycles: 3 + 30
            }
        );
        assert_eq!(tu.stats().exceptions, 1);
    }

    #[test]
    fn parallel_pot_fault_charges_pot_walk_only() {
        let (state, _) = state_with_pool();
        let cfg = TranslationConfig::for_design(PolbDesign::Parallel);
        let mut tu = TranslationUnit::new(cfg, &state);
        let bogus = ObjectId::new(poat_core::PoolId::new(999).unwrap(), 0);
        // The POT walk faults, so the page-table walk never runs: the
        // fault costs the 30-cycle POT share, not the 60-cycle combined
        // miss penalty.
        assert_eq!(
            tu.translate(bogus, VirtAddr::new(0)),
            TranslateOutcome::Fault { extra_cycles: 30 }
        );
        let s = tu.stats();
        assert_eq!(s.exceptions, 1);
        assert_eq!(s.translation_cycles, 30);
    }

    #[test]
    fn parallel_unmapped_page_surfaces_fault() {
        let (state, oid) = state_with_pool();
        let cfg = TranslationConfig::for_design(PolbDesign::Parallel);
        let mut tu = TranslationUnit::new(cfg, &state);
        // The pool is in the POT, but the recorded VA hits no page-table
        // entry: the refill must fault (full miss penalty — the page walk
        // ran and came up empty), not silently cache a garbage frame.
        let nowhere = VirtAddr::new(u64::MAX - 0xFFFF);
        assert_eq!(
            tu.translate(oid, nowhere),
            TranslateOutcome::Fault { extra_cycles: 60 }
        );
        assert_eq!(tu.stats().exceptions, 1);
        // Nothing was installed: a later well-mapped access misses again
        // (rather than "hitting" the bogus entry) and then succeeds.
        let va = va_of(&state, oid);
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok { extra_cycles: 60 }
        );
        assert_eq!(tu.stats().polb.misses, 2);
        assert_eq!(tu.stats().polb.hits, 0);
    }

    #[test]
    fn ideal_mode_is_free() {
        let (state, oid) = state_with_pool();
        let va = va_of(&state, oid);
        let mut tu = TranslationUnit::new(TranslationConfig::default().idealized(), &state);
        assert_eq!(
            tu.translate(oid, va),
            TranslateOutcome::Ok { extra_cycles: 0 }
        );
        assert_eq!(tu.stats().polb.lookups(), 0, "ideal bypasses the POLB");
    }
}

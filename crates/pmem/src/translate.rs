//! Software ObjectID translation — the baseline the paper accelerates.
//!
//! This reproduces NVML's `oid_direct` strategy (paper §2.1.3, Figure 3):
//! a **last-value predictor** (`most_recent_pool_id` /
//! `most_recent_base_addr` globals) in front of a hash table
//! (`OIDTranslationMap`). A predictor hit costs ≈17 dynamic instructions;
//! a full look-up costs ≈97 (Table 2). [`SoftTranslator::translate`] both
//! performs the translation and *emits* those instructions — including the
//! real loads and stores of the predictor globals and of the probed table
//! entries — into the trace, so the baseline's extra working set is visible
//! to the cache model.

use poat_core::{ObjectId, PoolId, VirtAddr};
use poat_telemetry::events::{self, EventKind, TraceDesign};

use crate::costs;
use crate::error::PmemError;
use crate::trace::{OpId, Trace, TraceOp};

/// Counters for the software translation path (drives Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XlatStats {
    /// `oid_direct` invocations.
    pub calls: u64,
    /// Calls resolved by the last-value predictor.
    pub predictor_hits: u64,
    /// Calls that searched the hash table.
    pub predictor_misses: u64,
    /// Total dynamic instructions emitted inside `oid_direct`.
    pub instructions: u64,
    /// Total hash-table probes across all misses.
    pub probes: u64,
}

impl XlatStats {
    /// Mean instructions per `oid_direct` call (Table 2, columns 2–3).
    pub fn mean_instructions(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.instructions as f64 / self.calls as f64
        }
    }

    /// Last-value-predictor miss rate (Table 2, column 4).
    pub fn predictor_miss_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.predictor_misses as f64 / self.calls as f64
        }
    }

    /// Publishes these counters into the global telemetry registry as the
    /// labeled `pmem.xlat.*` series. The harness labels each workload run,
    /// so the metrics snapshot carries the exact values Table 2 derives
    /// its means and miss rates from (see `docs/METRICS.md`).
    pub fn publish(&self, labels: &[(&str, &str)]) {
        poat_telemetry::global().add_labeled(
            &[
                ("pmem.xlat.calls", self.calls),
                ("pmem.xlat.predictor_hits", self.predictor_hits),
                ("pmem.xlat.predictor_misses", self.predictor_misses),
                ("pmem.xlat.instructions", self.instructions),
                ("pmem.xlat.probes", self.probes),
            ],
            labels,
        );
    }
}

/// Local tallies of the process-wide `pmem.oid_direct.*` series,
/// published when the translator drops (a clone starts them at zero);
/// see `docs/METRICS.md`.
#[derive(Clone, Debug)]
struct XlatTelemetry {
    calls: poat_telemetry::LocalCounter,
    predictor_hits: poat_telemetry::LocalCounter,
    predictor_misses: poat_telemetry::LocalCounter,
    instructions: poat_telemetry::LocalCounter,
    probe_len: poat_telemetry::LocalHistogram,
}

impl XlatTelemetry {
    fn new() -> Self {
        let r = poat_telemetry::global();
        XlatTelemetry {
            calls: r.counter("pmem.oid_direct.calls").local(),
            predictor_hits: r.counter("pmem.oid_direct.predictor_hits").local(),
            predictor_misses: r.counter("pmem.oid_direct.predictor_misses").local(),
            instructions: r.counter("pmem.oid_direct.instructions").local(),
            probe_len: r.histogram("pmem.oid_direct.probe_len").local(),
        }
    }
}

/// The software translation state: predictor globals + open-addressed map.
#[derive(Clone, Debug)]
pub struct SoftTranslator {
    slots: Vec<Option<(PoolId, VirtAddr)>>,
    predictor: Option<(PoolId, VirtAddr)>,
    predictor_enabled: bool,
    stats: XlatStats,
    telemetry: XlatTelemetry,
}

impl SoftTranslator {
    /// Creates a translator whose hash table has `slots` entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        Self::with_predictor(slots, true)
    }

    /// Creates a translator with the last-value predictor optionally
    /// disabled (the ablation of NVML's key software optimization: every
    /// `oid_direct` takes the full hash-table path).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_predictor(slots: usize, predictor_enabled: bool) -> Self {
        assert!(slots > 0, "translation table needs at least one slot");
        SoftTranslator {
            slots: vec![None; slots],
            predictor: None,
            predictor_enabled,
            stats: XlatStats::default(),
            telemetry: XlatTelemetry::new(),
        }
    }

    fn hash(&self, pool: PoolId) -> usize {
        let h = (pool.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.slots.len()
    }

    /// Registers a pool mapping (called by `pool_create`/`pool_open`).
    ///
    /// # Errors
    ///
    /// [`PmemError::XlatTableFull`] if the table — sized from
    /// `RuntimeConfig` — has no free slot; the caller surfaces this as
    /// a configuration error instead of aborting as NVML would.
    pub fn insert(&mut self, pool: PoolId, base: VirtAddr) -> Result<(), PmemError> {
        let start = self.hash(pool);
        let n = self.slots.len();
        for i in 0..n {
            let idx = (start + i) % n;
            match self.slots[idx] {
                None => {
                    self.slots[idx] = Some((pool, base));
                    return Ok(());
                }
                Some((p, _)) if p == pool => {
                    self.slots[idx] = Some((pool, base));
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(PmemError::XlatTableFull)
    }

    /// Removes a pool mapping (called by `pool_close`).
    pub fn remove(&mut self, pool: PoolId) {
        // Rebuild without the entry: removal is rare (pool close) and this
        // keeps every remaining probe chain valid without tombstones.
        let entries: Vec<(PoolId, VirtAddr)> = self
            .slots
            .iter()
            .flatten()
            .copied()
            .filter(|(p, _)| *p != pool)
            .collect();
        for s in &mut self.slots {
            *s = None;
        }
        for (p, b) in entries {
            self.insert(p, b).expect(
                "invariant: reinserting fewer entries into the same-size table cannot overflow",
            );
        }
        if matches!(self.predictor, Some((p, _)) if p == pool) {
            self.predictor = None;
        }
    }

    /// Looks up a pool without emitting any trace (internal bookkeeping).
    pub fn peek(&self, pool: PoolId) -> Option<VirtAddr> {
        let start = self.hash(pool);
        let n = self.slots.len();
        for i in 0..n {
            match self.slots[(start + i) % n] {
                None => return None,
                Some((p, base)) if p == pool => return Some(base),
                _ => {}
            }
        }
        None
    }

    /// `oid_direct(oid)`: translates and emits the instruction cost into
    /// `trace`. Returns the virtual address and the id of the trace op the
    /// translated address depends on (for dependency threading).
    ///
    /// `dep` is the producer of the ObjectID being translated, if any; the
    /// translation's compare against the predictor globals depends on it.
    ///
    /// Returns `None` if the pool is not in the map (not opened) — the
    /// caller turns that into an error, as the paper's API would.
    pub fn translate(
        &mut self,
        oid: ObjectId,
        dep: Option<OpId>,
        trace: &mut Trace,
    ) -> Option<(VirtAddr, OpId)> {
        let pool = oid.pool()?;
        self.stats.calls += 1;
        self.telemetry.calls.inc();
        // Software translation runs at trace-generation time, before any
        // cycle model exists; the trace position stands in for both clocks.
        let at = trace.position();
        events::begin_access(
            EventKind::SoftCall,
            TraceDesign::Software,
            at,
            at,
            pool.raw(),
        );
        let mut insns = 0u64;

        // Prologue + validity check, then the two predictor-global loads.
        trace.push(TraceOp::Exec {
            n: costs::HIT_PRE_EXEC,
        });
        insns += costs::HIT_PRE_EXEC as u64;
        let g0 = trace.push(TraceOp::Load {
            va: costs::GLOBALS_VA,
            dep,
        });
        let g1 = trace.push(TraceOp::Load {
            va: costs::GLOBALS_VA.offset(8),
            dep,
        });
        let _ = g0;
        insns += 2;

        if let Some((p, base)) = self.predictor.filter(|_| self.predictor_enabled) {
            if p == pool {
                trace.push(TraceOp::Exec {
                    n: costs::HIT_POST_EXEC,
                });
                insns += costs::HIT_POST_EXEC as u64;
                self.stats.predictor_hits += 1;
                self.stats.instructions += insns;
                self.telemetry.predictor_hits.inc();
                self.telemetry.instructions.add(insns);
                events::emit(EventKind::SoftPredictorHit, pool.raw(), 0);
                return Some((base.offset(oid.offset() as u64), g1));
            }
        }
        self.stats.predictor_misses += 1;
        self.telemetry.predictor_misses.inc();

        // Full look-up: hash, probe chain, predictor update.
        trace.push(TraceOp::Exec {
            n: costs::MISS_HASH_EXEC,
        });
        insns += costs::MISS_HASH_EXEC as u64;

        let start = self.hash(pool);
        let n = self.slots.len();
        let mut found = None;
        let mut last_probe_op = g1;
        let probes_before = self.stats.probes;
        for i in 0..n {
            let idx = (start + i) % n;
            let entry_va = costs::XLAT_TABLE_VA.offset(idx as u64 * costs::XLAT_ENTRY_BYTES);
            last_probe_op = trace.push(TraceOp::Load { va: entry_va, dep });
            trace.push(TraceOp::Load {
                va: entry_va.offset(8),
                dep,
            });
            trace.push(TraceOp::Exec {
                n: costs::PROBE_EXEC,
            });
            insns += costs::PROBE_LOADS as u64 + costs::PROBE_EXEC as u64;
            self.stats.probes += 1;
            match self.slots[idx] {
                None => break,
                Some((p, base)) if p == pool => {
                    found = Some(base);
                    break;
                }
                _ => {}
            }
        }

        let probes = self.stats.probes - probes_before;
        self.telemetry.probe_len.record(probes);
        events::emit(EventKind::SoftPredictorMiss, pool.raw(), probes as u32);

        let base = match found {
            Some(b) => b,
            None => {
                self.stats.instructions += insns;
                self.telemetry.instructions.add(insns);
                events::emit(EventKind::Fault, pool.raw(), probes as u32);
                return None;
            }
        };

        trace.push(TraceOp::Exec {
            n: costs::MISS_UPDATE_EXEC,
        });
        trace.push(TraceOp::Store {
            va: costs::GLOBALS_VA,
            dep: None,
        });
        trace.push(TraceOp::Store {
            va: costs::GLOBALS_VA.offset(8),
            dep: None,
        });
        trace.push(TraceOp::Exec {
            n: costs::MISS_POST_EXEC,
        });
        insns += costs::MISS_UPDATE_EXEC as u64
            + costs::MISS_UPDATE_STORES as u64
            + costs::MISS_POST_EXEC as u64;

        if self.predictor_enabled {
            self.predictor = Some((pool, base));
        }
        self.stats.instructions += insns;
        self.telemetry.instructions.add(insns);
        Some((base.offset(oid.offset() as u64), last_probe_op))
    }

    /// Translation statistics.
    pub fn stats(&self) -> XlatStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: u32) -> PoolId {
        PoolId::new(n).unwrap()
    }

    #[test]
    fn hit_path_costs_17_instructions() {
        let mut x = SoftTranslator::new(64);
        x.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        let mut t = Trace::new();
        // Warm the predictor with one miss, then measure a hit.
        x.translate(ObjectId::new(pool(1), 0), None, &mut t)
            .unwrap();
        let before = x.stats().instructions;
        let (va, _) = x
            .translate(ObjectId::new(pool(1), 0x20), None, &mut t)
            .unwrap();
        assert_eq!(va, VirtAddr::new(0x1020));
        assert_eq!(x.stats().instructions - before, 17);
        assert_eq!(x.stats().predictor_hits, 1);
    }

    #[test]
    fn miss_path_costs_about_97_instructions() {
        let mut x = SoftTranslator::new(64);
        for i in 1..=8 {
            x.insert(pool(i), VirtAddr::new(i as u64 * 0x1000)).unwrap();
        }
        let mut t = Trace::new();
        // Alternate pools so every call misses the predictor.
        let mut total = 0u64;
        let calls = 20;
        for i in 0..calls {
            let p = pool((i % 8) + 1);
            let before = x.stats().instructions;
            x.translate(ObjectId::new(p, 0), None, &mut t).unwrap();
            total += x.stats().instructions - before;
        }
        let mean = total as f64 / calls as f64;
        assert!(
            (70.0..115.0).contains(&mean),
            "miss-path mean {mean} out of Table 2 range"
        );
        assert_eq!(x.stats().predictor_misses, calls as u64);
    }

    #[test]
    fn unknown_pool_returns_none() {
        let mut x = SoftTranslator::new(16);
        let mut t = Trace::new();
        assert!(x
            .translate(ObjectId::new(pool(5), 0), None, &mut t)
            .is_none());
        assert!(x.translate(ObjectId::NULL, None, &mut t).is_none());
    }

    #[test]
    fn predictor_tracks_last_pool() {
        let mut x = SoftTranslator::new(16);
        x.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        x.insert(pool(2), VirtAddr::new(0x2000)).unwrap();
        let mut t = Trace::new();
        let a = ObjectId::new(pool(1), 0);
        let b = ObjectId::new(pool(2), 0);
        x.translate(a, None, &mut t); // miss
        x.translate(a, None, &mut t); // hit
        x.translate(b, None, &mut t); // miss
        x.translate(b, None, &mut t); // hit
        x.translate(a, None, &mut t); // miss
        let s = x.stats();
        assert_eq!(s.predictor_hits, 2);
        assert_eq!(s.predictor_misses, 3);
        assert!((s.predictor_miss_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn remove_then_translate_fails() {
        let mut x = SoftTranslator::new(16);
        x.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        x.insert(pool(2), VirtAddr::new(0x2000)).unwrap();
        x.remove(pool(1));
        let mut t = Trace::new();
        assert!(x
            .translate(ObjectId::new(pool(1), 0), None, &mut t)
            .is_none());
        assert!(x
            .translate(ObjectId::new(pool(2), 0), None, &mut t)
            .is_some());
    }

    #[test]
    fn emits_real_table_loads() {
        let mut x = SoftTranslator::new(16);
        x.insert(pool(3), VirtAddr::new(0x3000)).unwrap();
        let mut t = Trace::new();
        x.translate(ObjectId::new(pool(3), 0), None, &mut t);
        let touches_table = t.ops().any(|op| match op {
            TraceOp::Load { va, .. } => va.raw() >= costs::XLAT_TABLE_VA.raw(),
            _ => false,
        });
        assert!(touches_table, "miss path must load hash-table entries");
    }

    #[test]
    fn reinsert_updates_base() {
        let mut x = SoftTranslator::new(16);
        x.insert(pool(1), VirtAddr::new(0x1000)).unwrap();
        x.insert(pool(1), VirtAddr::new(0x9000)).unwrap();
        assert_eq!(x.peek(pool(1)), Some(VirtAddr::new(0x9000)));
    }
}

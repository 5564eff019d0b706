//! Simulation outputs and errors.

use std::fmt;

use poat_core::TranslationStats;

use crate::cache::HierarchyStats;
use crate::tlb::TlbStats;

/// Errors from configuring or running a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The *Parallel* POLB design is not implemented for the out-of-order
    /// core: ObjectIDs in the LSQ would defeat memory disambiguation
    /// (paper §4.3 declines to build it for the same reason).
    ParallelOnOutOfOrder,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ParallelOnOutOfOrder => write!(
                f,
                "the Parallel POLB design is not supported on the out-of-order core"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of replaying one trace on one core model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Total execution time in core cycles.
    pub cycles: u64,
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Translation-hardware counters (zero for BASE runs, which have no
    /// `nvld`/`nvst`).
    pub translation: TranslationStats,
    /// Cache-hierarchy counters.
    pub cache: HierarchyStats,
    /// D-TLB counters.
    pub tlb: TlbStats,
    /// Loads satisfied by store-to-load forwarding (out-of-order core).
    pub store_forwards: u64,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to `baseline` (baseline cycles / ours).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Accumulates another shard's counters into this result.
    ///
    /// Sharded replay (docs/BENCHMARKS.md) splits one trace into
    /// chunk-aligned slices, replays each with one chunk of functional
    /// warmup, and folds the per-shard measured windows back together
    /// in shard order. Every field of [`SimResult`] is a sum over ops,
    /// so the merge is plain addition; `cycles` in particular adds up
    /// because each shard reports only its own window's clock advance
    /// (the warmup window is snapshot-subtracted, see
    /// [`SimResult::delta_since`]).
    pub fn absorb(&mut self, other: &SimResult) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.translation.merge(&other.translation);
        self.cache.l1d.hits += other.cache.l1d.hits;
        self.cache.l1d.misses += other.cache.l1d.misses;
        self.cache.l2.hits += other.cache.l2.hits;
        self.cache.l2.misses += other.cache.l2.misses;
        self.cache.l3.hits += other.cache.l3.hits;
        self.cache.l3.misses += other.cache.l3.misses;
        self.tlb.hits += other.tlb.hits;
        self.tlb.misses += other.tlb.misses;
        self.store_forwards += other.store_forwards;
    }

    /// Counter advance since `earlier`, a snapshot taken mid-replay.
    ///
    /// Warmed sharded replay (see `simulate_inorder_ops_warm`) snapshots
    /// every counter at the warmup/measure boundary and reports the
    /// measured window as `final.delta_since(&snapshot)`. Every field is
    /// monotone over the replay loop — the sums by construction, and
    /// `cycles` because both cores only ever advance their clock — so
    /// the subtraction is exact; `saturating_sub` merely keeps an
    /// inconsistent snapshot from wrapping.
    pub fn delta_since(&self, earlier: &SimResult) -> SimResult {
        let mut d = SimResult {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            translation: self.translation,
            cache: self.cache,
            tlb: self.tlb,
            store_forwards: self.store_forwards.saturating_sub(earlier.store_forwards),
        };
        d.translation.polb.hits = d
            .translation
            .polb
            .hits
            .saturating_sub(earlier.translation.polb.hits);
        d.translation.polb.misses = d
            .translation
            .polb
            .misses
            .saturating_sub(earlier.translation.polb.misses);
        d.translation.pot_walks = d
            .translation
            .pot_walks
            .saturating_sub(earlier.translation.pot_walks);
        d.translation.exceptions = d
            .translation
            .exceptions
            .saturating_sub(earlier.translation.exceptions);
        d.translation.translation_cycles = d
            .translation
            .translation_cycles
            .saturating_sub(earlier.translation.translation_cycles);
        d.cache.l1d.hits = d.cache.l1d.hits.saturating_sub(earlier.cache.l1d.hits);
        d.cache.l1d.misses = d.cache.l1d.misses.saturating_sub(earlier.cache.l1d.misses);
        d.cache.l2.hits = d.cache.l2.hits.saturating_sub(earlier.cache.l2.hits);
        d.cache.l2.misses = d.cache.l2.misses.saturating_sub(earlier.cache.l2.misses);
        d.cache.l3.hits = d.cache.l3.hits.saturating_sub(earlier.cache.l3.hits);
        d.cache.l3.misses = d.cache.l3.misses.saturating_sub(earlier.cache.l3.misses);
        d.tlb.hits = d.tlb.hits.saturating_sub(earlier.tlb.hits);
        d.tlb.misses = d.tlb.misses.saturating_sub(earlier.tlb.misses);
        d
    }

    /// Publishes this result into the global telemetry registry as the
    /// labeled `sim.result.*` series (one set per label combination).
    ///
    /// The snapshot written by `repro --metrics` therefore carries the
    /// *same* numbers the text tables and JSON artifacts are rendered
    /// from — the registry is just another view of this struct, so the
    /// two cannot diverge. Labels must be in a stable order; the harness
    /// uses `artifact`, then workload identifiers, then `design`.
    pub fn publish(&self, labels: &[(&str, &str)]) {
        let registry = poat_telemetry::global();
        for (name, value) in self.series() {
            registry
                .counter(&poat_telemetry::labeled(name, labels))
                .add(value);
        }
    }

    /// Every published quantity under its `sim.result.*` name — the one
    /// list [`publish`](Self::publish) and the serve catalog's stored
    /// metrics both derive from.
    pub fn series(&self) -> [(&'static str, u64); 16] {
        [
            ("sim.result.cycles", self.cycles),
            ("sim.result.instructions", self.instructions),
            ("sim.result.polb_hits", self.translation.polb.hits),
            ("sim.result.polb_misses", self.translation.polb.misses),
            ("sim.result.pot_walks", self.translation.pot_walks),
            ("sim.result.exceptions", self.translation.exceptions),
            (
                "sim.result.translation_cycles",
                self.translation.translation_cycles,
            ),
            ("sim.result.l1d_hits", self.cache.l1d.hits),
            ("sim.result.l1d_misses", self.cache.l1d.misses),
            ("sim.result.l2_hits", self.cache.l2.hits),
            ("sim.result.l2_misses", self.cache.l2.misses),
            ("sim.result.l3_hits", self.cache.l3.hits),
            ("sim.result.l3_misses", self.cache.l3.misses),
            ("sim.result.tlb_hits", self.tlb.hits),
            ("sim.result.tlb_misses", self.tlb.misses),
            ("sim.result.store_forwards", self.store_forwards),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let a = SimResult {
            cycles: 100,
            instructions: 200,
            ..Default::default()
        };
        let b = SimResult {
            cycles: 50,
            instructions: 200,
            ..Default::default()
        };
        assert_eq!(a.ipc(), 2.0);
        assert_eq!(b.speedup_over(&a), 2.0);
        assert_eq!(SimResult::default().ipc(), 0.0);
    }

    #[test]
    fn absorb_sums_every_field() {
        // Build a result with every field distinct, absorb it twice into
        // a default, and check each field tripled against the original —
        // a field missed by `absorb` would stay at its first-copy value.
        let mut r = SimResult {
            cycles: 1,
            instructions: 2,
            ..Default::default()
        };
        r.translation.polb.hits = 3;
        r.translation.polb.misses = 4;
        r.translation.pot_walks = 5;
        r.translation.exceptions = 6;
        r.translation.translation_cycles = 7;
        r.cache.l1d.hits = 8;
        r.cache.l1d.misses = 9;
        r.cache.l2.hits = 10;
        r.cache.l2.misses = 11;
        r.cache.l3.hits = 12;
        r.cache.l3.misses = 13;
        r.tlb.hits = 14;
        r.tlb.misses = 15;
        r.store_forwards = 16;

        let mut total = r;
        total.absorb(&r);
        total.absorb(&r);
        assert_eq!(total.cycles, 3);
        assert_eq!(total.instructions, 6);
        assert_eq!(total.translation.polb.hits, 9);
        assert_eq!(total.translation.polb.misses, 12);
        assert_eq!(total.translation.pot_walks, 15);
        assert_eq!(total.translation.exceptions, 18);
        assert_eq!(total.translation.translation_cycles, 21);
        assert_eq!(total.cache.l1d.hits, 24);
        assert_eq!(total.cache.l1d.misses, 27);
        assert_eq!(total.cache.l2.hits, 30);
        assert_eq!(total.cache.l2.misses, 33);
        assert_eq!(total.cache.l3.hits, 36);
        assert_eq!(total.cache.l3.misses, 39);
        assert_eq!(total.tlb.hits, 42);
        assert_eq!(total.tlb.misses, 45);
        assert_eq!(total.store_forwards, 48);
    }

    #[test]
    fn delta_since_subtracts_every_field() {
        // Mirror the absorb test: with every field distinct, the delta
        // of a tripled result since a single copy must be exactly twice
        // the original in each field.
        let mut r = SimResult {
            cycles: 1,
            instructions: 2,
            ..Default::default()
        };
        r.translation.polb.hits = 3;
        r.translation.polb.misses = 4;
        r.translation.pot_walks = 5;
        r.translation.exceptions = 6;
        r.translation.translation_cycles = 7;
        r.cache.l1d.hits = 8;
        r.cache.l1d.misses = 9;
        r.cache.l2.hits = 10;
        r.cache.l2.misses = 11;
        r.cache.l3.hits = 12;
        r.cache.l3.misses = 13;
        r.tlb.hits = 14;
        r.tlb.misses = 15;
        r.store_forwards = 16;

        let mut total = r;
        total.absorb(&r);
        total.absorb(&r);
        let d = total.delta_since(&r);
        let mut twice = SimResult::default();
        twice.absorb(&r);
        twice.absorb(&r);
        assert_eq!(d, twice);
    }

    #[test]
    fn error_displays() {
        assert!(!SimError::ParallelOnOutOfOrder.to_string().is_empty());
    }
}

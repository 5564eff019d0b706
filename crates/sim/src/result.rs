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

    /// Publishes this result into the global telemetry registry as the
    /// labeled `sim.result.*` series (one set per label combination).
    ///
    /// The snapshot written by `repro --metrics` therefore carries the
    /// *same* numbers the text tables and JSON artifacts are rendered
    /// from — the registry is just another view of this struct, so the
    /// two cannot diverge. Labels must be in a stable order; the harness
    /// uses `artifact`, then workload identifiers, then `design`.
    pub fn publish(&self, labels: &[(&str, &str)]) {
        poat_telemetry::global().add_labeled(&self.series(), labels);
    }

    /// Every published quantity under its `sim.result.*` name — the one
    /// list [`publish`](Self::publish) derives from.
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
    fn error_displays() {
        assert!(!SimError::ParallelOnOutOfOrder.to_string().is_empty());
    }
}

//! Simulator configuration (paper Table 4).

use poat_core::TranslationConfig;
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles, charged when the access *hits* at this
    /// level (latencies accumulate down the hierarchy).
    pub latency: u64,
}

impl CacheLevelConfig {
    /// Number of sets for 64-byte lines. [`crate::cache::Cache::new`]
    /// requires a power of two, since the set index is the line number's
    /// low bits; Table 4's levels have 64, 512 and 8,192.
    pub fn sets(&self) -> u64 {
        self.capacity / 64 / self.ways as u64
    }
}

/// The memory subsystem (Table 4, "Cache" and "Memory" rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1 data cache: 8-way 32 KB, 3 cycles.
    pub l1d: CacheLevelConfig,
    /// L2: 8-way 256 KB, 8 cycles.
    pub l2: CacheLevelConfig,
    /// L3: 16-way 8 MB, 27 cycles.
    pub l3: CacheLevelConfig,
    /// Main-memory (battery-backed-DRAM NVM) access latency in cycles.
    pub memory_latency: u64,
    /// D-TLB entries (fully associative model).
    pub dtlb_entries: usize,
    /// Fixed TLB-miss (page-walk) penalty in cycles, as charged by Sniper.
    pub tlb_miss_penalty: u64,
    /// Fixed CLWB completion latency in cycles (pessimistic, §5.1).
    pub clwb_latency: u64,
    /// Next-line prefetch on an L1D miss (ablation knob; the paper's
    /// Table 4 machine is modeled without one, so the default is off).
    pub next_line_prefetch: bool,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1d: CacheLevelConfig {
                capacity: 32 << 10,
                ways: 8,
                latency: 3,
            },
            l2: CacheLevelConfig {
                capacity: 256 << 10,
                ways: 8,
                latency: 8,
            },
            l3: CacheLevelConfig {
                capacity: 8 << 20,
                ways: 16,
                latency: 27,
            },
            memory_latency: 120,
            dtlb_entries: 64,
            tlb_miss_penalty: 30,
            clwb_latency: 100,
            next_line_prefetch: false,
        }
    }
}

/// Core parameters (Table 4, "In-order/Out-of-order Processor" rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Branch misprediction penalty in cycles.
    pub branch_misp_penalty: u64,
    /// Out-of-order issue width.
    pub issue_width: u32,
    /// Re-order buffer entries.
    pub rob_size: u32,
    /// Load-queue entries.
    pub lq_size: u32,
    /// Store-queue entries.
    pub sq_size: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            branch_misp_penalty: 8,
            issue_width: 4,
            rob_size: 128,
            lq_size: 48,
            sq_size: 32,
        }
    }
}

/// Complete configuration for one simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Memory subsystem parameters.
    pub mem: MemoryConfig,
    /// POLB/POT translation hardware parameters.
    pub translation: TranslationConfig,
}

impl SimConfig {
    /// Table 4 configuration with the given translation hardware.
    pub fn with_translation(translation: TranslationConfig) -> Self {
        SimConfig {
            translation,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.mem.l1d.capacity, 32 << 10);
        assert_eq!(c.mem.l1d.latency, 3);
        assert_eq!(c.mem.l2.latency, 8);
        assert_eq!(c.mem.l3.latency, 27);
        assert_eq!(c.mem.memory_latency, 120);
        assert_eq!(c.mem.dtlb_entries, 64);
        assert_eq!(c.mem.clwb_latency, 100);
        assert_eq!(c.core.issue_width, 4);
        assert_eq!(c.core.rob_size, 128);
        assert_eq!(c.core.lq_size, 48);
        assert_eq!(c.core.sq_size, 32);
        assert_eq!(c.core.branch_misp_penalty, 8);
    }

    #[test]
    fn set_counts() {
        let c = MemoryConfig::default();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 8192);
    }
}

//! Counters for the translation hardware.

use serde::{Deserialize, Serialize};

/// Hit/miss counters for a POLB (Tables 8 and 9 of the paper report these
/// as miss rates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolbStats {
    /// Look-ups that found a valid matching entry.
    pub hits: u64,
    /// Look-ups that required a POT walk.
    pub misses: u64,
}

impl PolbStats {
    /// Total look-ups performed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in [0, 1]; 0 when no look-ups were performed.
    ///
    /// ```
    /// use poat_core::stats::PolbStats;
    /// let s = PolbStats { hits: 3, misses: 1 };
    /// assert_eq!(s.miss_rate(), 0.25);
    /// ```
    pub fn miss_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Aggregate statistics for a full translation unit (POLB + POT) over a
/// simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslationStats {
    /// POLB counters.
    pub polb: PolbStats,
    /// Hardware POT walks triggered by POLB misses.
    pub pot_walks: u64,
    /// Walks that found no mapping and raised an exception.
    pub exceptions: u64,
    /// Total cycles charged to translation (POLB access + walk penalties).
    pub translation_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_empty_is_zero() {
        assert_eq!(PolbStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_fraction() {
        let s = PolbStats { hits: 9, misses: 1 };
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(s.lookups(), 10);
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! The hand-rolled benchmark runner: warmup, iteration calibration,
//! sampling, and outlier rejection — fully offline, no criterion.
//!
//! The measurement protocol per benchmark (docs/BENCHMARKS.md):
//!
//! 1. **Calibrate** — double the per-sample iteration count until one
//!    sample takes at least the target sample time, so `Instant`
//!    resolution and loop overhead are amortized away for cheap bodies.
//! 2. **Warm up** — run the calibrated sample repeatedly for the warmup
//!    window, untimed, so caches/branch predictors (and the structures
//!    under test) reach steady state.
//! 3. **Sample** — time a fixed number of samples at the calibrated
//!    iteration count.
//! 4. **Summarize** — reject high-side outliers and reduce to
//!    median/p10/p90 via [`crate::stats::summarize`].
//!
//! Iteration counts are pinned per benchmark *within* a run, but a
//! committed baseline and a later run may calibrate differently on
//! different hosts — which is why the comparator works on per-iteration
//! medians, never on sample counts or totals.

use std::time::{Duration, Instant};

use crate::report::{BenchRecord, BenchReport, BudgetRecord, BuildMeta};
use crate::stats;

/// Tuning knobs for one runner instance.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Untimed warmup per benchmark.
    pub warmup: Duration,
    /// Minimum elapsed time one timing sample must cover; the calibrator
    /// grows the iteration count until a sample reaches this.
    pub target_sample: Duration,
    /// Timing samples to collect per benchmark.
    pub samples: usize,
    /// Hard cap on iterations per sample (runaway guard for
    /// sub-nanosecond bodies).
    pub max_iters: u64,
}

impl BenchOptions {
    /// CI preset: small windows, enough to smoke-test every benchmark
    /// body and exercise the comparator, not enough for a stable
    /// baseline.
    pub fn smoke() -> Self {
        BenchOptions {
            warmup: Duration::from_millis(10),
            target_sample: Duration::from_millis(1),
            samples: 10,
            max_iters: 1 << 22,
        }
    }

    /// Baseline preset: what `scripts/bench.sh` uses for the committed
    /// `BENCH_<n>.json` files.
    pub fn committed() -> Self {
        BenchOptions {
            warmup: Duration::from_millis(100),
            target_sample: Duration::from_millis(10),
            samples: 30,
            max_iters: 1 << 26,
        }
    }
}

/// Callback run after each benchmark completes (see [`Runner::on_record`]).
pub type Progress = Box<dyn FnMut(&BenchRecord)>;

/// Collects [`BenchRecord`]s as benchmarks run; finished with
/// [`Runner::into_report`].
pub struct Runner {
    opts: BenchOptions,
    records: Vec<BenchRecord>,
    budgets: Vec<BudgetRecord>,
    filter: Option<String>,
    dry_run: bool,
    progress: Option<Progress>,
}

impl Runner {
    /// Creates a runner with the given options.
    pub fn new(opts: BenchOptions) -> Self {
        Runner {
            opts,
            records: Vec::new(),
            budgets: Vec::new(),
            filter: None,
            dry_run: false,
            progress: None,
        }
    }

    /// In dry-run mode benchmark bodies never execute: each selected
    /// benchmark records a zeroed placeholder (so ids can be listed)
    /// and budget subjects are skipped entirely.
    pub fn set_dry_run(&mut self, dry: bool) {
        self.dry_run = dry;
    }

    /// Only benchmarks whose `group/name` id contains `needle` run;
    /// budget checks are filtered the same way.
    pub fn set_filter(&mut self, needle: Option<String>) {
        self.filter = needle;
    }

    /// Registers a callback invoked after each benchmark completes
    /// (the `bench-run` binary prints a progress line from it; the
    /// library itself never prints).
    pub fn on_record(&mut self, f: impl FnMut(&BenchRecord) + 'static) {
        self.progress = Some(Box::new(f));
    }

    fn selected(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|n| id.contains(n))
    }

    /// Runs one benchmark. `ops_per_iter` declares how many logical
    /// operations one call of `body` performs (for ops/s); `body` is the
    /// measured unit and should end in `std::hint::black_box` on its
    /// results so the work is not optimized away.
    pub fn bench(&mut self, group: &str, name: &str, ops_per_iter: u64, body: impl FnMut()) {
        self.bench_inner(group, name, ops_per_iter, None, body);
    }

    /// [`Runner::bench`] for bodies with a known payload size:
    /// `bytes_per_iter / ops_per_iter` is recorded as the benchmark's
    /// B/op figure (the trace-encoding family reports its measured
    /// footprint this way).
    pub fn bench_bytes(
        &mut self,
        group: &str,
        name: &str,
        ops_per_iter: u64,
        bytes_per_iter: u64,
        body: impl FnMut(),
    ) {
        self.bench_inner(group, name, ops_per_iter, Some(bytes_per_iter), body);
    }

    fn bench_inner(
        &mut self,
        group: &str,
        name: &str,
        ops_per_iter: u64,
        bytes_per_iter: Option<u64>,
        mut body: impl FnMut(),
    ) {
        let id = format!("{group}/{name}");
        if !self.selected(&id) {
            return;
        }
        if self.dry_run {
            self.records.push(BenchRecord {
                id,
                median_ns: 0.0,
                p10_ns: 0.0,
                p90_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
                samples: 0,
                outliers_dropped: 0,
                iters: 0,
                ops_per_iter,
                ops_per_sec: 0.0,
                bytes_per_op: bytes_per_iter.map(|b| b as f64 / ops_per_iter.max(1) as f64),
            });
            return;
        }

        // 1. Calibrate the per-sample iteration count.
        let mut iters: u64 = 1;
        loop {
            let elapsed = time_iters(&mut body, iters);
            if elapsed >= self.opts.target_sample || iters >= self.opts.max_iters {
                break;
            }
            // Jump straight to the projected count when the measurement
            // is trustworthy; otherwise double.
            iters = if elapsed > Duration::from_micros(50) {
                let scale = self.opts.target_sample.as_secs_f64() / elapsed.as_secs_f64();
                ((iters as f64 * scale * 1.2) as u64)
                    .clamp(iters + 1, iters.saturating_mul(8).min(self.opts.max_iters))
            } else {
                iters.saturating_mul(2).min(self.opts.max_iters)
            };
        }

        // 2. Warm up, untimed.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.opts.warmup {
            time_iters(&mut body, iters);
        }

        // 3. Sample.
        let mut samples_ns = Vec::with_capacity(self.opts.samples);
        for _ in 0..self.opts.samples {
            let elapsed = time_iters(&mut body, iters);
            samples_ns.push(elapsed.as_secs_f64() * 1e9 / iters as f64);
        }

        // 4. Summarize.
        let s = stats::summarize(&samples_ns);
        let ops_per_sec = if s.median_ns > 0.0 {
            ops_per_iter as f64 / (s.median_ns * 1e-9)
        } else {
            0.0
        };
        let record = BenchRecord {
            id,
            median_ns: s.median_ns,
            p10_ns: s.p10_ns,
            p90_ns: s.p90_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
            samples: s.samples_kept,
            outliers_dropped: s.outliers_dropped,
            iters,
            ops_per_iter,
            ops_per_sec,
            bytes_per_op: bytes_per_iter.map(|b| b as f64 / ops_per_iter.max(1) as f64),
        };
        if let Some(cb) = &mut self.progress {
            cb(&record);
        }
        self.records.push(record);
    }

    /// Runs `body` exactly once against a wall-clock budget (the
    /// Figure-9 quick-matrix check). No warmup, no sampling: budget
    /// subjects are whole pipelines where a single run is already
    /// seconds long and the question is "did it stay inside its box",
    /// not "what is its distribution".
    pub fn budget(&mut self, name: &str, budget: Duration, body: impl FnOnce()) {
        let id = format!("budget/{name}");
        if !self.selected(&id) {
            return;
        }
        if self.dry_run {
            self.budgets.push(BudgetRecord {
                id,
                wall_ns: 0,
                budget_ns: budget.as_nanos() as u64,
                within_budget: true,
            });
            return;
        }
        let t0 = Instant::now();
        body();
        let wall = t0.elapsed();
        self.budgets.push(BudgetRecord {
            id,
            wall_ns: wall.as_nanos() as u64,
            budget_ns: budget.as_nanos() as u64,
            within_budget: wall <= budget,
        });
    }

    /// Finishes the run, stamping provenance and the runner mode.
    pub fn into_report(self, mode: &str) -> BenchReport {
        BenchReport {
            schema_version: crate::report::BENCH_SCHEMA_VERSION,
            mode: mode.to_string(),
            build: BuildMeta::collect(),
            records: self.records,
            budgets: self.budgets,
        }
    }
}

/// Times `iters` calls of `body` with one `Instant` pair.
fn time_iters(body: &mut impl FnMut(), iters: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        body();
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> BenchOptions {
        BenchOptions {
            warmup: Duration::from_micros(100),
            target_sample: Duration::from_micros(100),
            samples: 6,
            max_iters: 1 << 16,
        }
    }

    #[test]
    fn runner_produces_sane_record() {
        let mut r = Runner::new(tiny_opts());
        let mut x = 0u64;
        r.bench("unit", "wrapping_add", 1, move || {
            x = std::hint::black_box(x.wrapping_add(3));
        });
        let report = r.into_report("smoke");
        assert_eq!(report.records.len(), 1);
        let rec = &report.records[0];
        assert_eq!(rec.id, "unit/wrapping_add");
        assert!(rec.median_ns > 0.0);
        assert!(rec.p10_ns <= rec.median_ns && rec.median_ns <= rec.p90_ns);
        assert!(rec.ops_per_sec > 0.0);
        assert!(rec.iters >= 1);
        assert_eq!(rec.bytes_per_op, None);
    }

    #[test]
    fn filter_skips_unmatched_benchmarks() {
        let mut r = Runner::new(tiny_opts());
        r.set_filter(Some("keep".into()));
        r.bench("unit", "keep_me", 1, || {
            std::hint::black_box(1u64);
        });
        r.bench("unit", "skip_me", 1, || {
            std::hint::black_box(2u64);
        });
        r.budget("skipped_budget", Duration::from_secs(1), || {});
        let report = r.into_report("smoke");
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].id, "unit/keep_me");
        assert!(report.budgets.is_empty());
    }

    #[test]
    fn budget_records_pass_and_fail() {
        let mut r = Runner::new(tiny_opts());
        r.budget("instant", Duration::from_secs(60), || {});
        r.budget("blown", Duration::from_nanos(1), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let report = r.into_report("smoke");
        assert!(report.budget("budget/instant").unwrap().within_budget);
        let blown = report.budget("budget/blown").unwrap();
        assert!(!blown.within_budget);
        assert!(blown.wall_ns > blown.budget_ns);
    }

    #[test]
    fn bytes_per_op_is_derived() {
        let mut r = Runner::new(tiny_opts());
        r.bench_bytes("unit", "bytes", 100, 350, || {
            std::hint::black_box(0u64);
        });
        let report = r.into_report("smoke");
        assert_eq!(report.records[0].bytes_per_op, Some(3.5));
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-bench — the offline benchmark harness and perf trajectory
//!
//! This crate is the repository's enforceable performance backbone
//! (docs/BENCHMARKS.md):
//!
//! * [`runner`] — a hand-rolled, fully offline benchmark runner
//!   (calibration → warmup → fixed-count sampling → outlier rejection);
//!   no criterion dependency, so the measurement protocol is pinned in
//!   this repo rather than in a vendored stub.
//! * [`stats`] — the order-statistics kernel (median/percentiles,
//!   one-sided Tukey outlier fence).
//! * [`suite`] — the hot-path benchmark definitions: POLB look-ups,
//!   POT walks, cache/TLB hierarchy (including the PR-5 MRU fast
//!   paths), trace encode/decode, `oid_direct`, in-order/OoO replay,
//!   and the Figure-9 quick-matrix wall-clock budget.
//! * [`report`] — the schema-versioned `BENCH_<n>.json` layout.
//! * [`mod@compare`] — the regression comparator the CI gate and release
//!   runs use against the last committed baseline.
//!
//! Binaries: `bench-run` (measure, write a report) and `bench-compare`
//! (diff two reports, non-zero exit on regression). `scripts/bench.sh`
//! drives both; `scripts/ci.sh` runs a smoke pass per commit.

#![warn(missing_docs)]

pub mod compare;
pub mod report;
pub mod runner;
pub mod stats;
pub mod suite;

pub use compare::{compare, Comparison, DeltaKind, DEFAULT_THRESHOLD_PCT};
pub use report::{BenchRecord, BenchReport, BudgetRecord, BuildMeta, BENCH_SCHEMA_VERSION};
pub use runner::{BenchOptions, Runner};

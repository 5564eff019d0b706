// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-harness — regenerating the paper's evaluation
//!
//! One runner per table/figure of the MICRO'17 evaluation (§6):
//!
//! | artifact | runner | output |
//! |----------|--------|--------|
//! | Table 2 | [`experiments::table2`] | `oid_direct` instruction counts & predictor miss rate |
//! | Figure 9(a) | [`experiments::main_matrix`] | in-order OPT/BASE speedups (Pipelined, Parallel, ideal) |
//! | Figure 9(b) | [`experiments::main_matrix`] | out-of-order speedups (Pipelined, ideal) |
//! | Table 8 | [`experiments::main_matrix`] | POLB miss rates |
//! | §1 headline | [`experiments::main_matrix`] | dynamic-instruction reduction |
//! | Figure 10 | [`experiments::fig10`] | `_NTX` speedups (durability overhead removed) |
//! | Figure 11 | [`experiments::fig11`] | POLB-size sensitivity |
//! | Table 9 | [`experiments::fig11`] | POLB miss rates across sizes |
//! | Figure 12 | [`experiments::fig12`] | POT-walk-penalty sensitivity |
//!
//! Beyond the paper's artifacts, [`ablations`] adds four design-choice
//! studies (`repro ablations`): the last-value predictor, the POLB access
//! latency, a next-line prefetcher, and POT occupancy (§8 future work).
//! [`crash_sweep`] runs deterministic crash-point campaigns over the
//! microbenchmarks (`repro crash-sweep`), crashing each workload at every
//! persist boundary and scoring recovery.
//!
//! The `repro` binary drives them:
//!
//! ```text
//! repro all            # every table and figure at paper scale
//! repro fig9a --quick  # one artifact at smoke-test scale
//! repro all --json out.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod artifact;
pub mod crash_sweep;
pub mod csv;
pub mod experiments;
pub mod hud;
pub mod notify;
pub mod report;
pub mod runner;
pub mod timeline;

pub use runner::{run_micro, run_tpcc, simulate, Core, Scale, WorkloadRun};

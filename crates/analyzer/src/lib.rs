// SPDX-License-Identifier: MIT OR Apache-2.0
//! `poat-analyzer`: an offline static-analysis pass that enforces the
//! POAT simulator's architectural invariants.
//!
//! The simulator's fidelity rests on invariants `rustc` cannot see:
//! every cycle/instruction cost must come from the centralized cost
//! model (`crates/pmem/src/costs.rs` — the paper's 17/97-instruction
//! software path and 30/60-cycle POT-walk penalties), every `unsafe`
//! must justify its soundness, every telemetry event and metric must
//! actually be emitted, and `docs/METRICS.md` must describe exactly
//! what the code publishes. This crate checks those invariants as a
//! CI gate (`poat-analyze --deny-warnings`).
//!
//! Design constraints:
//!
//! * **Fully offline and dependency-free.** No `syn`, no `serde` —
//!   the vendored stubs stay stubs. A ~300-line lexer
//!   ([`lexer`]) is sufficient for token-stream rules.
//! * **Machine-readable output.** `file:line: severity[rule] message`
//!   text, or `--json`.
//! * **No suppressions.** Every finding is reported at its rule's own
//!   severity. There is no allowlist file and no in-source attribute:
//!   a finding is fixed in the code, or the rule is fixed and gains a
//!   fixture case.
//!
//! The rules themselves are documented in [`rules`] and, with their
//! paper rationale, in `docs/ANALYZER.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod ir;
pub mod lexer;
pub mod rules;

pub use diag::{Diagnostic, Severity};
pub use engine::{run, SourceFile, Workspace};
pub use rules::{all_rules, Rule};

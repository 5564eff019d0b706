// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-pmem — the NVML-style persistent-object runtime
//!
//! A from-scratch reimplementation of the reduced NVM-Library interface the
//! paper builds on (Table 1): pools, a persistent allocator, software
//! ObjectID translation (`oid_direct` with a last-value predictor in front
//! of a hash map), durability (`persist` = clwb + sfence), and write-ahead
//! undo-log transactions with crash recovery.
//!
//! Beyond being a working persistent-memory library over the simulated NVM
//! of `poat-nvm`, the runtime doubles as the **trace front-end** of the
//! evaluation (the role Pin plays in the paper, §5.1): every API call emits
//! its dynamic instructions into a [`trace::Trace`] that `poat-sim`'s
//! in-order and out-of-order core models replay. Switching
//! [`TranslationMode`] regenerates the program the way recompiling against
//! the hardware-accelerated library would (BASE ↔ OPT), and switching off
//! failure safety produces the `_NTX` variants.
//!
//! ## Example: a persistent linked list node (paper Figure 4)
//!
//! ```
//! use poat_pmem::{Runtime, RuntimeConfig};
//!
//! # fn main() -> Result<(), poat_pmem::PmemError> {
//! let mut rt = Runtime::new(RuntimeConfig::default());
//! let pool = rt.pool_create("list", 1 << 16)?;
//!
//! // node { value: u64, next: OID }
//! let node = rt.pmalloc(pool, 16)?;
//! let head = rt.deref(node, None)?;
//! rt.write_u64_at(&head, 0, 42)?;                       // value
//! rt.write_u64_at(&head, 8, poat_core::ObjectId::NULL.raw())?; // next
//! rt.persist(node, 16)?;
//!
//! let (value, _) = rt.read_u64_at(&head, 0)?;
//! assert_eq!(value, 42);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `mmap` module opts back in with a
// scoped `allow` for the two read-only mapping syscalls it wraps (every
// unsafe block there carries a SAFETY justification; see docs/ANALYZER.md
// rule R2). Everything else in the crate still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod costs;
pub mod error;
pub mod faultpoint;
pub mod fnv;
pub mod inspect;
pub mod log;
#[allow(unsafe_code)]
pub mod mmap;
pub mod pool;
pub mod runtime;
pub mod trace;
pub mod trace_io;
pub mod translate;

pub use error::PmemError;
pub use faultpoint::{CrashPoint, InjectMode, PointOutcome};
pub use inspect::PoolReport;
pub use poat_nvm::{BoundaryKind, FaultPlan};
pub use pool::PoolMode;
pub use runtime::{MachineState, PRef, Runtime, RuntimeConfig, RuntimeStats, TranslationMode};
pub use trace::{ChunkBounds, OpId, Trace, TraceOp, TraceSummary};
pub use translate::XlatStats;

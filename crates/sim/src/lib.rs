// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-sim — the cycle-level timing simulator
//!
//! Stands in for the extended Sniper 6.1 of the paper (§5.1): trace-driven
//! timing models of the Table 4 machine, replaying the dynamic instruction
//! stream that the `poat-pmem` runtime records.
//!
//! * [`cache::MemoryHierarchy`] — L1D/L2/L3 write-back LRU caches over a
//!   64-byte line, with Table 4 latencies (3/8/27 cycles + 120 to memory).
//! * [`tlb::Tlb`] — 64-entry D-TLB with a fixed 30-cycle miss penalty.
//! * [`xlate::TranslationUnit`] — the POLB (Pipelined or Parallel) backed
//!   by the hardware POT walk, built from `poat-core`.
//! * [`inorder::simulate_inorder`] — five-stage in-order pipeline (§4.5).
//! * [`ooo::simulate_ooo`] — instruction-window-centric out-of-order model
//!   (4-wide, 128-entry ROB, 48/32 LQ/SQ) with dependency-aware
//!   memory-level parallelism (§4.4). Rejects the Parallel POLB design,
//!   as the paper does (§4.3).
//!
//! ## Example
//!
//! ```
//! use poat_pmem::{Runtime, RuntimeConfig};
//! use poat_sim::{simulate_inorder, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::new(RuntimeConfig::opt());
//! let pool = rt.pool_create("data", 1 << 16)?;
//! let oid = rt.pmalloc(pool, 64)?;
//! rt.take_trace(); // measure only the loop below
//! for i in 0..100 {
//!     rt.write_u64(oid, i)?;
//! }
//! let result = simulate_inorder(&rt.take_trace(), &rt.machine_state(), &SimConfig::default())?;
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub(crate) mod completion;
pub mod config;
pub mod inorder;
pub mod ooo;
pub mod pagemap;
pub mod result;
pub mod tlb;
pub mod xlate;

pub use config::{CoreConfig, MemoryConfig, SimConfig};
pub use inorder::{simulate_inorder, simulate_inorder_ops};
pub use ooo::{simulate_ooo, simulate_ooo_ops};
pub use result::{SimError, SimResult};

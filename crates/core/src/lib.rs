// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-core — the hardware translation layer
//!
//! This crate models the primary contribution of *"Hardware Supported
//! Persistent Object Address Translation"* (MICRO'17): interpreting
//! **ObjectIDs** as a persistent address space that sits on top of virtual
//! memory, translated in hardware by two cooperating structures:
//!
//! * the [`polb::Polb`] — a small, CAM-organized **Persistent Object
//!   Look-aside Buffer** inside the core (analogous to a TLB), and
//! * the [`pot::Pot`] — the **Persistent Object Table**, an in-memory,
//!   linearly-probed hash table walked by hardware on a POLB miss
//!   (analogous to a page table).
//!
//! Two microarchitectural designs are modeled (paper §4.1); a
//! [`PolbDesign`] selects one, fixing what a POLB entry tags and holds:
//!
//! | design | POLB tag | POLB data | placed | miss handling |
//! |--------|----------|-----------|--------|---------------|
//! | *Pipelined* | pool id (32 b) | virtual base address | AGEN stage, before TLB + L1D | POT walk |
//! | *Parallel*  | upper 52 b of ObjectID (pool id + page-in-pool) | physical frame number | in parallel with the VIPT L1D | POT walk **+ page-table walk** |
//!
//! ## Example
//!
//! ```
//! use poat_core::{ObjectId, PolbDesign, PoolId, VirtAddr};
//! use poat_core::polb::Polb;
//! use poat_core::pot::Pot;
//!
//! let mut pot = Pot::new(1024);
//! let pool = PoolId::new(7).unwrap();
//! pot.insert(pool, VirtAddr::new(0x7000_0000)).unwrap();
//!
//! let mut polb = Polb::new(PolbDesign::Pipelined, 32);
//! let oid = ObjectId::new(pool, 0x10);
//! // First access misses the POLB and is filled from the POT.
//! assert!(polb.translate(oid).is_none());
//! let base = pot.lookup(pool).unwrap();
//! polb.fill(oid, base.raw());
//! assert_eq!(polb.translate(oid), Some(VirtAddr::new(0x7000_0010).raw()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod hash;
pub mod lru;
pub mod oid;
pub mod polb;
pub mod pot;
pub mod stats;

pub use addr::{PhysAddr, VirtAddr, CACHE_LINE_BYTES, PAGE_BYTES};
pub use config::{PolbDesign, TranslationConfig};
pub use oid::{ObjectId, PoolId};
pub use pot::{Pot, PotError};
pub use stats::TranslationStats;

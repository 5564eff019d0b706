// SPDX-License-Identifier: MIT OR Apache-2.0
//! The durable run catalog behind `repro serve`: an append-only store
//! of job-lifecycle events (`POATCAT1`) that survives the process, so
//! submitted runs and their results accumulate across restarts.
//!
//! The catalog is a second [`LogPayload`](crate::LogPayload) on the
//! ledger's [`Log`](crate::Log) (SNIPPETS.md §1: one store, hydrate on
//! boot, persist every event). Frames, checksums, recovery and media
//! are shared, so one scanner and one crash sweep
//! (`tests/crash_sweep.rs`) cover both payloads. It keeps its own file
//! and magic: the frame has no payload tag, so in one file every
//! ledger reader would have to skip job events.
//!
//! * [`record`] — one [`CatalogRecord`] event per append: `Submitted`
//!   when the server takes a job, then a terminal `Completed` (with the
//!   run's `sim.result.*` metrics) or `Failed` (with the error text).
//! * [`store`] — [`Catalog`] hydrates the event stream into a job table
//!   on open and folds each appended event into it, exposing
//!   submission, lookup, and the `repro catalog query` filters.
//!
//! Single-writer: the serve process opens the catalog read-write;
//! observers (`repro jobs`, `repro catalog query`) use
//! [`open_file_read_only`], which never repairs a torn tail — that tail
//! may be the writer's in-flight append, not damage.
//!
//! Telemetry: `catalog.records.*` / `catalog.torn.tails` from the
//! shared log, `catalog.jobs.*` from the facade (docs/METRICS.md).

pub mod record;
pub mod store;

pub use record::{CatalogRecord, JobSpec, JobStatus, CATALOG_SCHEMA_VERSION};
pub use store::{open_file, open_file_read_only, Catalog, JobRow, QueryFilter};

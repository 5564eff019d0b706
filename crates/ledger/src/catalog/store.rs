// SPDX-License-Identifier: MIT OR Apache-2.0
//! The catalog store facade: an event log plus the job table it folds
//! into.
//!
//! [`Catalog`] owns a [`Log`] of [`CatalogRecord`] events and *hydrates
//! on boot*: opening the store replays every recovered event through
//! [`JobRow`] fold logic, so the in-memory job table is always exactly
//! the table the durable stream implies — there is no separate row
//! store to drift out of sync. Mutations append an event first (durable
//! when the append returns, courtesy of the medium's persist ordering —
//! the same tail-word commit discipline the run ledger uses, swept by
//! `tests/crash_sweep.rs`), then fold it into the table.
//!
//! This file is in the analyzer's R7/R8 persist-ordering scope: any
//! direct persistent-media stores added here must follow the
//! persist-before-commit discipline and carry `// faultpoint:` sweep
//! annotations. Today every durable byte goes through
//! [`Log::append`], which inherits the swept medium paths.

use std::collections::BTreeMap;
use std::path::Path;

use poat_telemetry::global;

use super::record::{CatalogRecord, JobSpec, JobStatus};
use crate::{FileMedium, LedgerError, Log, Medium, ReadOnlyMedium, ScanReport};

/// The folded state of one job: its spec plus the latest lifecycle
/// event's payload.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRow {
    /// Stable job identifier (assigned at submission).
    pub job_id: u64,
    /// What the job runs.
    pub spec: JobSpec,
    /// Latest lifecycle stage seen for this job.
    pub status: JobStatus,
    /// When the job was submitted (Unix seconds).
    pub submitted_unix_secs: u64,
    /// When the terminal event landed (Unix seconds; 0 while running).
    pub finished_unix_secs: u64,
    /// Run duration in microseconds (0 while running).
    pub elapsed_micros: u64,
    /// Error text (non-empty only on [`JobStatus::Failed`]).
    pub error: String,
    /// Result metrics (non-empty only on [`JobStatus::Completed`]).
    pub metrics: BTreeMap<String, u64>,
}

/// Field filters for `repro catalog query`: `None` matches everything,
/// `Some` requires equality on that field.
#[derive(Clone, Debug, Default)]
pub struct QueryFilter {
    /// Match on the job's workload selector (e.g. `BST:RANDOM`).
    pub workload: Option<String>,
    /// Match on the design label (e.g. `pipelined`).
    pub design: Option<String>,
    /// Match on the scale label (`quick` / `full`).
    pub scale: Option<String>,
    /// Match on the status label (`running` / `completed` / `failed`).
    pub status: Option<String>,
}

impl QueryFilter {
    /// Whether `row` satisfies every `Some` field of the filter.
    pub fn matches(&self, row: &JobRow) -> bool {
        self.workload
            .as_deref()
            .is_none_or(|w| row.spec.workload == w)
            && self.design.as_deref().is_none_or(|d| row.spec.design == d)
            && self.scale.as_deref().is_none_or(|s| row.spec.scale == s)
            && self
                .status
                .as_deref()
                .is_none_or(|s| row.status.label() == s)
    }
}

/// A run catalog open on some [`Medium`]: the durable event log plus
/// the hydrated job table.
pub struct Catalog<M: Medium> {
    log: Log<M, CatalogRecord>,
    jobs: BTreeMap<u64, JobRow>,
}

/// Folds one event into the job table (the hydration step and the
/// post-append step share this, so boot and runtime can never disagree).
fn fold(jobs: &mut BTreeMap<u64, JobRow>, ev: &CatalogRecord) {
    let fresh = JobRow {
        job_id: ev.job_id,
        spec: ev.spec.clone(),
        status: JobStatus::Submitted,
        submitted_unix_secs: ev.timestamp_unix_secs,
        finished_unix_secs: 0,
        elapsed_micros: 0,
        error: String::new(),
        metrics: BTreeMap::new(),
    };
    let status = ev.status;
    if status == JobStatus::Submitted {
        jobs.insert(ev.job_id, fresh);
        return;
    }
    // A terminal event whose submission was torn away still names its
    // spec, so the row can be reconstructed.
    let row = jobs.entry(ev.job_id).or_insert(fresh);
    row.status = status;
    row.finished_unix_secs = ev.timestamp_unix_secs;
    row.elapsed_micros = ev.elapsed_micros;
    row.error = ev.error.clone();
    row.metrics = ev.metrics.clone();
}

impl<M: Medium> Catalog<M> {
    /// Opens the catalog on `medium` as [`Log::open`] does and hydrates
    /// the job table from the recovered event stream.
    ///
    /// # Errors
    ///
    /// As [`Log::open`]: bad magic or medium failures; torn tails are
    /// recovered around, not errors.
    pub fn open(medium: M) -> Result<Self, LedgerError> {
        let log = Log::open(medium)?;
        let mut jobs = BTreeMap::new();
        for frame in log.records() {
            fold(&mut jobs, &frame.data);
        }
        global()
            .gauge("catalog.jobs.hydrated")
            .set(jobs.len() as u64);
        Ok(Catalog { log, jobs })
    }

    /// The smallest job id not yet present in the table (ids start at 1).
    pub fn next_job_id(&self) -> u64 {
        self.jobs.keys().next_back().map(|id| id + 1).unwrap_or(1)
    }

    /// Durably appends `event` and folds it into the job table. The
    /// event is on the medium when this returns; a crash after that
    /// point replays it on the next boot.
    ///
    /// # Errors
    ///
    /// As [`Log::append`] (medium failures, read-only store).
    pub fn append_event(&mut self, event: CatalogRecord) -> Result<u64, LedgerError> {
        let seq = self.log.append(event.clone())?;
        let counter = match event.status {
            JobStatus::Submitted => "catalog.jobs.running",
            JobStatus::Completed => "catalog.jobs.completed",
            JobStatus::Failed => "catalog.jobs.failed",
        };
        global().counter(counter).inc();
        fold(&mut self.jobs, &event);
        Ok(seq)
    }

    /// All jobs, ascending by id.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRow> {
        self.jobs.values()
    }

    /// The job with id `job_id`, if the stream has seen it.
    pub fn job(&self, job_id: u64) -> Option<&JobRow> {
        self.jobs.get(&job_id)
    }

    /// Jobs matching `filter`, ascending by id.
    pub fn query(&self, filter: &QueryFilter) -> Vec<&JobRow> {
        self.jobs.values().filter(|r| filter.matches(r)).collect()
    }

    /// What the opening scan found (recovered count, torn tail).
    pub fn scan_report(&self) -> &ScanReport {
        self.log.scan_report()
    }
}

/// Opens the catalog file at `path` read-write (creating it, and its
/// parent directory, when missing). Single writer only — the serve
/// process.
///
/// # Errors
///
/// File I/O failures and the scan errors of [`Catalog::open`].
pub fn open_file(path: &Path) -> Result<Catalog<FileMedium>, LedgerError> {
    Catalog::open(FileMedium::open(path)?)
}

/// Opens the catalog file at `path` read-only, for observers
/// (`repro jobs`, `repro catalog query`) polling while a serve process
/// may be appending: see [`ReadOnlyMedium`].
///
/// # Errors
///
/// File I/O failures other than the file not existing, and the scan
/// errors of [`Catalog::open`].
pub fn open_file_read_only(path: &Path) -> Result<Catalog<ReadOnlyMedium>, LedgerError> {
    Catalog::open(ReadOnlyMedium::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            design: "pipelined".into(),
            scale: "quick".into(),
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("poat_catalog_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("catalog.poatcat")
    }

    #[test]
    fn query_filters_compose() {
        let path = temp_path("query");
        let _ = std::fs::remove_file(&path);
        let mut cat = open_file(&path).unwrap();
        for ev in [
            CatalogRecord::submitted(1, spec("LL:ALL"), 100),
            CatalogRecord::submitted(2, spec("BST:RANDOM"), 101),
            CatalogRecord::completed(2, spec("BST:RANDOM"), 104, 9, BTreeMap::new()),
        ] {
            cat.append_event(ev).unwrap();
        }
        assert_eq!(cat.next_job_id(), 3);
        let all = cat.query(&QueryFilter::default());
        assert_eq!(all.len(), 2);
        let bst = cat.query(&QueryFilter {
            workload: Some("BST:RANDOM".into()),
            ..QueryFilter::default()
        });
        assert_eq!(bst.len(), 1);
        assert_eq!(bst[0].job_id, 2);
        let done = cat.query(&QueryFilter {
            status: Some("completed".into()),
            ..QueryFilter::default()
        });
        assert_eq!(done.len(), 1);
        let none = cat.query(&QueryFilter {
            workload: Some("BST:RANDOM".into()),
            status: Some("running".into()),
            ..QueryFilter::default()
        });
        assert!(none.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_only_observer_sees_the_stream_without_mutating_it() {
        let path = temp_path("ro");
        let _ = std::fs::remove_file(&path);
        let event = || CatalogRecord::submitted(1, spec("LL:ALL"), 100);
        open_file(&path).unwrap().append_event(event()).unwrap();
        // A torn tail (simulating a racing writer's in-flight frame)...
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xCD; 9]);
        std::fs::write(&path, &bytes).unwrap();
        // ...is visible to the observer but NOT truncated away.
        let mut cat = open_file_read_only(&path).unwrap();
        assert_eq!(cat.jobs().count(), 1);
        assert_eq!(cat.scan_report().torn_tail_bytes, 9);
        let append = cat.append_event(event());
        assert!(matches!(append, Err(LedgerError::Corrupt(_))));
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after, bytes, "read-only open must not repair the medium");
        std::fs::remove_file(&path).unwrap();
    }
}

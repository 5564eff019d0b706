// SPDX-License-Identifier: MIT OR Apache-2.0
//! The catalog event payload: one job-lifecycle event per record, and
//! its LEB128 encoding.
//!
//! A catalog stream is a sequence of *events*, not rows: `Submitted`
//! when the server takes a job, then exactly one terminal `Completed`
//! (with the run's `sim.result.*` metrics) or `Failed` (with the error
//! text). The store in [`super::store`] folds the event stream into the
//! current job table on boot — the Revaer runtime-persistence shape
//! (persist every event, hydrate on boot) rather than update-in-place,
//! so a crash can never half-update a row.
//!
//! Encoding reuses the ledger's codec verbatim (LEB128 varints,
//! length-prefixed strings, front-coded sorted metric names); see
//! [`crate::codec`].

use std::collections::BTreeMap;

use crate::codec::{put_map, put_str, put_varint, Cursor};
use crate::{LedgerError, LogPayload};

/// Version of the catalog payload layout; bump on breaking change.
pub const CATALOG_SCHEMA_VERSION: u64 = 1;

/// What a submitted job asks for: one cell of the workload × design ×
/// scale experiment space, in the same spelling the batch `repro` CLI
/// accepts (`LL:ALL`, `pipelined`, `quick`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload selector, `MICRO:PATTERN` (e.g. `BST:RANDOM`).
    pub workload: String,
    /// Design label (`pipelined`, `parallel`, `ideal`).
    pub design: String,
    /// Experiment scale (`quick` or `full`).
    pub scale: String,
}

impl JobSpec {
    /// Renders the spec the way the CLI accepts it back
    /// (`workload design scale`).
    pub fn display(&self) -> String {
        format!("{} {} {}", self.workload, self.design, self.scale)
    }
}

/// The lifecycle stage a catalog event records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobStatus {
    /// The server accepted the job and began executing it.
    #[default]
    Submitted = 0,
    /// The run finished; the event carries its metrics.
    Completed = 1,
    /// The run failed; the event carries the error text.
    Failed = 2,
}

impl JobStatus {
    fn from_code(code: u64) -> Result<Self, LedgerError> {
        match code {
            0 => Ok(JobStatus::Submitted),
            1 => Ok(JobStatus::Completed),
            2 => Ok(JobStatus::Failed),
            _ => Err(LedgerError::Corrupt("unknown job status code")),
        }
    }

    /// Lower-case label used by the CLI and query filters.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Submitted => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
        }
    }
}

/// One decoded catalog event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CatalogRecord {
    /// The job this event belongs to (assigned at submission, stable
    /// across its lifecycle events).
    pub job_id: u64,
    /// Which lifecycle stage this event records.
    pub status: JobStatus,
    /// Wall-clock seconds since the Unix epoch when the event was cut.
    pub timestamp_unix_secs: u64,
    /// What the job runs.
    pub spec: JobSpec,
    /// Run duration in microseconds (terminal events only; 0 otherwise).
    pub elapsed_micros: u64,
    /// Error text (only on [`JobStatus::Failed`]; empty otherwise).
    pub error: String,
    /// Result metrics, `sim.result.*` names (only on
    /// [`JobStatus::Completed`]; empty otherwise).
    pub metrics: BTreeMap<String, u64>,
}

impl CatalogRecord {
    /// Builds the event recording that `job_id` started executing.
    pub fn submitted(job_id: u64, spec: JobSpec, timestamp_unix_secs: u64) -> Self {
        CatalogRecord {
            job_id,
            status: JobStatus::Submitted,
            timestamp_unix_secs,
            spec,
            ..CatalogRecord::default()
        }
    }

    /// Builds the terminal success event with the run's metrics.
    pub fn completed(
        job_id: u64,
        spec: JobSpec,
        timestamp_unix_secs: u64,
        elapsed_micros: u64,
        metrics: BTreeMap<String, u64>,
    ) -> Self {
        CatalogRecord {
            job_id,
            status: JobStatus::Completed,
            timestamp_unix_secs,
            spec,
            elapsed_micros,
            metrics,
            ..CatalogRecord::default()
        }
    }

    /// Builds the terminal failure event with the error text.
    pub fn failed(job_id: u64, spec: JobSpec, timestamp_unix_secs: u64, error: String) -> Self {
        CatalogRecord {
            job_id,
            status: JobStatus::Failed,
            timestamp_unix_secs,
            spec,
            error,
            ..CatalogRecord::default()
        }
    }
}

impl LogPayload for CatalogRecord {
    const MAGIC: &'static [u8; 8] = b"POATCAT1";
    const METRIC_RECORDS_APPENDED: &'static str = "catalog.records.appended";
    const METRIC_BYTES_APPENDED: &'static str = "catalog.bytes.appended";
    const METRIC_RECORDS_RECOVERED: &'static str = "catalog.records.recovered";
    const METRIC_TORN_TAILS: &'static str = "catalog.torn.tails";

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_varint(&mut out, CATALOG_SCHEMA_VERSION);
        put_varint(&mut out, self.job_id);
        put_varint(&mut out, self.status as u64);
        put_varint(&mut out, self.timestamp_unix_secs);
        put_varint(&mut out, self.elapsed_micros);
        put_str(&mut out, &self.spec.workload);
        put_str(&mut out, &self.spec.design);
        put_str(&mut out, &self.spec.scale);
        put_str(&mut out, &self.error);
        put_map(&mut out, &self.metrics, |o, v| put_varint(o, *v));
        out
    }

    /// Fields are read in encoding order (struct-literal fields evaluate
    /// top to bottom).
    fn decode(bytes: &[u8]) -> Result<Self, LedgerError> {
        let mut cur = Cursor::new(bytes);
        let version = cur.varint()?;
        if version > CATALOG_SCHEMA_VERSION {
            return Err(LedgerError::BadVersion(version));
        }
        let ev = CatalogRecord {
            job_id: cur.varint()?,
            status: JobStatus::from_code(cur.varint()?)?,
            timestamp_unix_secs: cur.varint()?,
            elapsed_micros: cur.varint()?,
            spec: JobSpec {
                workload: cur.string()?,
                design: cur.string()?,
                scale: cur.string()?,
            },
            error: cur.string()?,
            metrics: cur.map(Cursor::varint)?,
        };
        if cur.pos != bytes.len() {
            return Err(LedgerError::Corrupt("trailing bytes after payload"));
        }
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            workload: "BST:RANDOM".into(),
            design: "pipelined".into(),
            scale: "quick".into(),
        }
    }

    #[test]
    fn unknown_status_is_rejected() {
        let mut bad_status = Vec::new();
        put_varint(&mut bad_status, CATALOG_SCHEMA_VERSION);
        put_varint(&mut bad_status, 1); // job_id
        put_varint(&mut bad_status, 9); // status code out of range
        assert!(matches!(
            CatalogRecord::decode(&bad_status),
            Err(LedgerError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = CatalogRecord::submitted(1, spec(), 1_700_000_000).encode();
        encoded.push(0);
        assert!(matches!(
            CatalogRecord::decode(&encoded),
            Err(LedgerError::Corrupt("trailing bytes after payload"))
        ));
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-ledger
//!
//! The repository's durable run ledger: an append-only log of one
//! record per `repro`/bench run, so the metric trajectory survives the
//! process instead of being clobbered by the next `results_full.json`;
//! `repro report` queries it, `bench-compare --ledger` reads baselines
//! out of it, and the crash-point sweep injects faults *into* it — the
//! ledger dogfoods the same `crates/pmem` write/persist primitives the
//! paper's runtime exposes to applications.
//!
//! ## On-disk format (`POATLGR1`)
//!
//! The byte stream starts with an 8-byte magic and is followed by
//! self-delimiting record frames, in the same LEB128/columnar discipline
//! as the `POATTRC3` trace format:
//!
//! ```text
//! magic "POATLGR1" (8 B)
//! frame*:  payload len (u32 LE) | seq (u64 LE) | FNV-1a64 of payload (u64 LE)
//!          payload (len B, LEB128-encoded fields; see `record`)
//! ```
//!
//! Counter/gauge/histogram names inside a payload are sorted and
//! front-coded (shared-prefix length + suffix), which compresses the
//! dot-separated metric namespace by roughly 3× — see
//! [`record::RecordData`].
//!
//! ## Recovery contract
//!
//! [`Ledger::open`] scans frames sequentially and accepts a record only
//! while (a) the frame header is sane, (b) the whole payload is present,
//! (c) the checksum matches, (d) the sequence number is exactly
//! `previous + 1`, and (e) the payload decodes. The first violation ends
//! the scan: everything before it is recovered, everything after it is a
//! *torn tail* and is truncated away so the next append cannot land
//! behind garbage. Observers open through [`ReadOnlyMedium`], which the
//! scan never writes: a torn tail is reported and left in place. On a
//! [`PmemMedium`] the tail-length word is persisted strictly after the
//! record bytes, so a crash mid-append simply leaves the record
//! invisible — `tests/crash_sweep.rs` asserts that no fully-persisted
//! record is ever lost and no torn tail is ever served.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod medium;
pub mod record;

use poat_pmem::fnv::fnv1a64;
use poat_telemetry::global;

pub use medium::{FileMedium, Medium, PmemMedium, ReadOnlyMedium};
pub use record::{HistStat, RecordData};

use std::fmt;

/// Frame header bytes: payload length (u32) + seq (u64) + checksum (u64).
pub const FRAME_HEADER_BYTES: u64 = 4 + 8 + 8;

/// The 8-byte magic opening every ledger stream.
const MAGIC: &[u8; 8] = b"POATLGR1";

/// Upper bound on one payload; larger lengths are treated as corruption
/// (a torn length field must not make the scanner allocate gigabytes).
pub const MAX_PAYLOAD_BYTES: u32 = 16 << 20;

/// The little-endian integer in `bytes` (at most eight of them).
fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// Errors opening, appending to, or decoding a ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// The stream does not start with the `POATLGR1` magic.
    BadMagic,
    /// A payload declared a schema version newer than this binary.
    BadVersion(u64),
    /// A structurally impossible payload (bad varint, string, or count).
    Corrupt(&'static str),
    /// An underlying file I/O failure.
    Io(std::io::Error),
    /// An underlying persistent-memory runtime failure.
    Pmem(poat_pmem::PmemError),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadMagic => write!(f, "not a poat ledger (bad magic)"),
            LedgerError::BadVersion(v) => {
                write!(f, "ledger record schema {v} is newer than this binary")
            }
            LedgerError::Corrupt(what) => write!(f, "corrupt ledger record: {what}"),
            LedgerError::Io(e) => write!(f, "i/o: {e}"),
            LedgerError::Pmem(e) => write!(f, "pmem: {e}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

impl From<poat_pmem::PmemError> for LedgerError {
    fn from(e: poat_pmem::PmemError) -> Self {
        LedgerError::Pmem(e)
    }
}

/// One recovered run-ledger record: its sequence number plus the
/// decoded payload.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRecord {
    /// 1-based, strictly consecutive sequence number.
    pub seq: u64,
    /// The decoded record payload.
    pub data: RecordData,
}

impl LedgerRecord {
    /// Stable run identifier derived from the sequence number
    /// (`run000007`); artifact files are suffixed with it.
    pub fn run_id(&self) -> String {
        run_id(self.seq)
    }
}

/// Formats a sequence number as the canonical run id (`run000007`).
pub fn run_id(seq: u64) -> String {
    format!("run{seq:06}")
}

/// What [`Ledger::open`] found while scanning the medium.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Fully-persisted records recovered.
    pub recovered: usize,
    /// Bytes of torn/garbage tail rejected (0 on a clean stream).
    pub torn_tail_bytes: u64,
    /// Human-readable reason the scan stopped early, if it did.
    pub torn_reason: Option<String>,
}

/// The run ledger open on some [`Medium`]: the recovered records plus
/// the append position.
pub struct Ledger<M: Medium> {
    medium: M,
    records: Vec<LedgerRecord>,
    scan: ScanReport,
    /// Logical length of the valid region (next append offset).
    valid_len: u64,
}

impl<M: Medium> Ledger<M> {
    /// Opens the ledger on `medium`, scanning and validating every
    /// record per the crate-level recovery contract. On a
    /// [writable](Medium::writable) medium an empty stream is formatted
    /// with the magic and a torn tail is truncated away, so subsequent
    /// appends are readable; a read-only medium is never written.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadMagic`] when the stream is non-empty but does
    /// not start with `POATLGR1`; medium errors pass through. Torn or
    /// corrupt *tails* are not errors — they are reported in
    /// [`scan_report`](Self::scan_report) and skipped.
    pub fn open(mut medium: M) -> Result<Self, LedgerError> {
        let writable = medium.writable();
        let len = medium.len()?;
        if len == 0 {
            if writable {
                medium.append(MAGIC)?;
            }
            return Ok(Ledger {
                medium,
                records: Vec::new(),
                scan: ScanReport::default(),
                valid_len: if writable { 8 } else { 0 },
            });
        }
        if len < 8 {
            return Err(LedgerError::BadMagic);
        }
        let mut magic = [0u8; 8];
        medium.read_at(0, &mut magic)?;
        if &magic != MAGIC {
            return Err(LedgerError::BadMagic);
        }
        let mut records = Vec::new();
        let mut pos = 8u64;
        // The first violation ends the scan and makes the rest a torn tail.
        let torn_reason = loop {
            if pos == len {
                break None;
            }
            if pos + FRAME_HEADER_BYTES > len {
                break Some("frame header truncated".to_string());
            }
            let mut header = [0u8; FRAME_HEADER_BYTES as usize];
            medium.read_at(pos, &mut header)?;
            let [payload_len, seq, crc] = [&header[..4], &header[4..12], &header[12..]].map(le);
            if payload_len == 0 || payload_len > MAX_PAYLOAD_BYTES as u64 {
                break Some(format!("implausible payload length {payload_len}"));
            }
            if pos + FRAME_HEADER_BYTES + payload_len > len {
                break Some("payload truncated".to_string());
            }
            let expected_seq = records.len() as u64 + 1;
            if seq != expected_seq {
                break Some(format!(
                    "sequence break (got {seq}, expected {expected_seq})"
                ));
            }
            let mut payload = vec![0u8; payload_len as usize];
            medium.read_at(pos + FRAME_HEADER_BYTES, &mut payload)?;
            if fnv1a64(&payload) != crc {
                break Some("checksum mismatch".to_string());
            }
            match RecordData::decode(&payload) {
                Ok(data) => records.push(LedgerRecord { seq, data }),
                Err(e) => break Some(format!("payload undecodable: {e}")),
            }
            pos += FRAME_HEADER_BYTES + payload_len;
        };
        let scan = ScanReport {
            recovered: records.len(),
            torn_tail_bytes: len - pos,
            torn_reason,
        };
        if scan.torn_tail_bytes > 0 && writable {
            medium.truncate(pos)?;
            global().counter("ledger.torn.tails").inc();
        }
        global()
            .counter("ledger.records.recovered")
            .add(records.len() as u64);
        Ok(Ledger {
            medium,
            records,
            scan,
            valid_len: pos,
        })
    }

    /// Appends one record durably (the medium persists before this
    /// returns) and returns its assigned sequence number.
    ///
    /// # Errors
    ///
    /// Medium write/persist failures — including the injected crashes the
    /// fault-sweep arms, which surface as [`LedgerError::Pmem`] — and
    /// [`LedgerError::Corrupt`] on a [`ReadOnlyMedium`].
    pub fn append(&mut self, data: RecordData) -> Result<u64, LedgerError> {
        let seq = self.records.len() as u64 + 1;
        let payload = data.encode();
        debug_assert!(payload.len() as u64 <= MAX_PAYLOAD_BYTES as u64);
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.medium.append(&frame)?;
        self.valid_len += frame.len() as u64;
        global().counter("ledger.records.appended").inc();
        global()
            .counter("ledger.bytes.appended")
            .add(frame.len() as u64);
        self.records.push(LedgerRecord { seq, data });
        Ok(seq)
    }

    /// All recovered + appended records, ascending by sequence number.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// The record with sequence number `seq`.
    pub fn get(&self, seq: u64) -> Option<&LedgerRecord> {
        self.records.iter().find(|r| r.seq == seq)
    }

    /// What the opening scan found (recovered count, torn tail).
    pub fn scan_report(&self) -> &ScanReport {
        &self.scan
    }

    /// Logical bytes of the valid region (magic + accepted frames).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Consumes the ledger, returning the medium (tests re-open it).
    pub fn into_medium(self) -> M {
        self.medium
    }
}

/// Opens the ledger file at `path` (creating it, and its parent
/// directory, when missing).
///
/// # Errors
///
/// File I/O failures and the scan errors of [`Ledger::open`].
pub fn open_file(path: &std::path::Path) -> Result<Ledger<FileMedium>, LedgerError> {
    Ledger::open(FileMedium::open(path)?)
}

/// Opens the ledger file at `path` read-only, for observers
/// (`repro report`, `bench-compare --ledger`): see [`ReadOnlyMedium`].
///
/// # Errors
///
/// File I/O failures other than the file not existing, and the scan
/// errors of [`Ledger::open`].
pub fn open_file_read_only(path: &std::path::Path) -> Result<Ledger<ReadOnlyMedium>, LedgerError> {
    Ledger::open(ReadOnlyMedium::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn sample_record(n: u64) -> RecordData {
        let hist = HistStat {
            count: 10,
            sum: 1000,
            max: 400,
            p50: 90,
            p90: 300,
            p99: 400,
        };
        RecordData {
            timestamp_unix_secs: 1_700_000_000 + n,
            elapsed_micros: 123_456,
            command: "fig9a".to_string(),
            scale: "quick".to_string(),
            git_revision: "deadbeef".to_string(),
            counters: BTreeMap::from([
                ("sim.result.polb_misses".to_string(), 100 + n),
                ("sim.result.polb_hits".to_string(), 9000 + n),
            ]),
            gauges: BTreeMap::from([("core.polb.entries".to_string(), 32)]),
            histograms: BTreeMap::from([("span.pot_walk.nanos".to_string(), hist)]),
            extra: Vec::new(),
        }
    }

    /// A fresh ledger file holding `n` sample records, and its length
    /// after each append.
    fn ledger_with(tag: &str, n: u64) -> (PathBuf, Vec<u64>) {
        let dir = std::env::temp_dir().join(format!("poat_ledger_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.poatlgr");
        let _ = std::fs::remove_file(&path);
        let mut l = open_file(&path).unwrap();
        let lens = (0..n)
            .map(|i| {
                l.append(sample_record(i)).unwrap();
                l.valid_len()
            })
            .collect();
        (path, lens)
    }

    #[test]
    fn append_reopen_roundtrip() {
        let (path, _) = ledger_with("rt", 2);
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2);
        assert_eq!(l.scan_report().torn_tail_bytes, 0);
        assert_eq!(l.records().len(), 2);
        assert_eq!(l.records()[0].seq, 1);
        assert_eq!(l.records()[1].data, sample_record(1));
        assert_eq!(l.records()[1].run_id(), "run000002");
        let first = &l.records()[0].data;
        assert_eq!(first.metric("sim.result.polb_misses"), Some(100));
        assert_eq!(first.metric("span.pot_walk.nanos:p90"), Some(300));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_rejected_and_truncated() {
        let (path, lens) = ledger_with("torn", 2);
        // Simulate a torn append: a partial frame of garbage at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&path, &bytes).unwrap();
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2, "intact prefix recovered");
        assert_eq!(l.scan_report().torn_tail_bytes, 13);
        assert!(l.scan_report().torn_reason.is_some());
        drop(l);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, lens[1], "torn tail truncated away");
        // And the ledger keeps working after truncation.
        let mut l = open_file(&path).unwrap();
        assert_eq!(l.append(sample_record(2)).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_cut_inside_a_record_is_ignored_on_recovery() {
        // A crash mid-append leaves a *prefix* of a real frame, not
        // appended garbage: the header may be fully intact while the
        // payload is cut short. Recovery must keep every whole record
        // before the cut and drop the partial frame.
        let (path, lens) = ledger_with("midcut", 3);
        // Cut inside the third frame's payload (header intact, payload
        // short) — the hardest case: length and checksum fields parse
        // but the payload bytes run out.
        let cut = lens[1] + (lens[2] - lens[1]) / 2;
        assert!(cut > lens[1] + FRAME_HEADER_BYTES && cut < lens[2]);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 2, "whole records survive");
        assert_eq!(l.scan_report().torn_tail_bytes, cut - lens[1]);
        assert_eq!(l.records()[1].data, sample_record(1), "prefix byte-exact");
        drop(l);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, lens[1], "repair truncates to the last whole record");
        // The sequence continues from the surviving prefix.
        let mut l = open_file(&path).unwrap();
        assert_eq!(l.append(sample_record(3)).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_only_observer_sees_the_stream_without_mutating_it() {
        let (path, _) = ledger_with("ro", 1);
        // A torn tail (simulating a racing writer's in-flight frame)...
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xCD; 9]);
        std::fs::write(&path, &bytes).unwrap();
        // ...is reported to the observer but NOT truncated away.
        let mut l = open_file_read_only(&path).unwrap();
        assert_eq!(l.records().len(), 1);
        assert_eq!(l.records()[0].data, sample_record(0));
        assert_eq!(l.scan_report().torn_tail_bytes, 9);
        let append = l.append(sample_record(1));
        assert!(matches!(append, Err(LedgerError::Corrupt(_))));
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after, bytes, "read-only open must not repair the medium");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let (path, _) = ledger_with("crc", 1);
        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let l = open_file(&path).unwrap();
        assert_eq!(l.scan_report().recovered, 0);
        let reason = l.scan_report().torn_reason.as_deref().unwrap();
        assert!(reason.contains("checksum"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ledger_file_is_bad_magic() {
        let (path, _) = ledger_with("magic", 0);
        std::fs::write(&path, b"definitely not a ledger").unwrap();
        match open_file(&path) {
            Err(LedgerError::BadMagic) => {}
            other => panic!("expected BadMagic, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

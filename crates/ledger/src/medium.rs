// SPDX-License-Identifier: MIT OR Apache-2.0
//! Storage media the run ledger lives on: a plain file, or a region
//! inside a `poat-pmem` pool — plus the read-only file every observer
//! opens.
//!
//! Both expose the same linear byte space to the scanner ([`Medium`]),
//! so there is exactly one recovery code path. The interesting
//! implementation is [`PmemMedium`]: it stores the ledger inside a
//! persistent-memory object and orders its persists so that a crash
//! anywhere inside an append leaves the previously-committed prefix
//! intact — the record bytes are persisted *before* the tail-length word
//! that makes them visible, which is the same commit discipline the
//! runtime's undo log uses. Because every write goes through
//! [`poat_pmem::Runtime::write_bytes_at`] / `persist`, the crash-point
//! sweep can enumerate and inject faults at every `clwb`/`fence` of a
//! ledger append (see `tests/crash_sweep.rs`).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use poat_core::ObjectId;
use poat_pmem::Runtime;

use crate::LedgerError;

/// A linear, append-only byte space with durable appends and positioned
/// reads — what [`crate::Ledger`] scans and extends.
pub trait Medium {
    /// Current logical length in bytes.
    ///
    /// # Errors
    ///
    /// Underlying medium failures.
    fn len(&mut self) -> Result<u64, LedgerError>;

    /// True when the medium holds no bytes yet.
    ///
    /// # Errors
    ///
    /// Underlying medium failures.
    fn is_empty(&mut self) -> Result<bool, LedgerError> {
        Ok(self.len()? == 0)
    }

    /// Fills `buf` from logical offset `off`.
    ///
    /// # Errors
    ///
    /// Reads past [`len`](Self::len) or underlying medium failures.
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), LedgerError>;

    /// Appends `data` at the end; the bytes are durable when this
    /// returns.
    ///
    /// # Errors
    ///
    /// Underlying medium failures — on a [`PmemMedium`] this includes
    /// injected crashes from an armed fault plan.
    fn append(&mut self, data: &[u8]) -> Result<(), LedgerError>;

    /// Shrinks the logical length to `len` (drops a torn tail).
    ///
    /// # Errors
    ///
    /// Underlying medium failures.
    fn truncate(&mut self, len: u64) -> Result<(), LedgerError>;

    /// Whether the opening scan may write: format an empty medium with
    /// the magic and truncate a torn tail. Only [`ReadOnlyMedium`] says
    /// no.
    fn writable(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// File medium
// ---------------------------------------------------------------------------

/// A ledger stored in an ordinary file; appends are made durable with
/// `sync_data`.
pub struct FileMedium {
    file: File,
}

impl FileMedium {
    /// Opens (creating if missing, along with the parent directory) the
    /// file at `path`.
    ///
    /// # Errors
    ///
    /// File open/create failures.
    pub fn open(path: &Path) -> Result<Self, LedgerError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileMedium { file })
    }
}

impl Medium for FileMedium {
    fn len(&mut self) -> Result<u64, LedgerError> {
        Ok(self.file.metadata()?.len())
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), LedgerError> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn append(&mut self, data: &[u8]) -> Result<(), LedgerError> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)?;
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), LedgerError> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// A ledger file opened for reading only, backing every observer
/// (`repro report`, `bench-compare --ledger`). A missing file reads as
/// an empty ledger and is not created; every write fails, and the scan,
/// seeing [`Medium::writable`] false, never attempts one — a torn tail
/// is reported but left in place, because it may be a live writer's
/// in-flight append rather than damage.
pub struct ReadOnlyMedium {
    file: Option<FileMedium>,
}

impl ReadOnlyMedium {
    /// Opens the file at `path` for reading, if it exists.
    ///
    /// # Errors
    ///
    /// File open failures other than the file not existing.
    pub fn open(path: &Path) -> Result<Self, LedgerError> {
        match File::open(path) {
            Ok(file) => Ok(ReadOnlyMedium {
                file: Some(FileMedium { file }),
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(ReadOnlyMedium { file: None }),
            Err(e) => Err(e.into()),
        }
    }
}

impl Medium for ReadOnlyMedium {
    fn len(&mut self) -> Result<u64, LedgerError> {
        self.file.as_mut().map_or(Ok(0), Medium::len)
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), LedgerError> {
        match &mut self.file {
            Some(m) => m.read_at(off, buf),
            None => Err(LedgerError::Corrupt("read from an absent log")),
        }
    }

    fn append(&mut self, _data: &[u8]) -> Result<(), LedgerError> {
        Err(LedgerError::Corrupt("log opened read-only"))
    }

    fn truncate(&mut self, _len: u64) -> Result<(), LedgerError> {
        Err(LedgerError::Corrupt("log opened read-only"))
    }

    fn writable(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Persistent-memory medium
// ---------------------------------------------------------------------------

/// Byte offset of the tail-length word inside the backing object.
const TAIL_WORD_OFF: u32 = 0;
/// Byte offset where the logical byte space starts (after the tail word).
const DATA_OFF: u32 = 8;

/// A ledger region inside a `poat-pmem` object.
///
/// Object layout: a `u64` *tail word* at offset 0 holding the logical
/// length, then the logical bytes from offset 8. An append writes and
/// persists the record bytes first, then writes and persists the tail
/// word — so the record becomes visible atomically, and a crash between
/// the two persists leaves the ledger exactly as before the append.
pub struct PmemMedium<'rt> {
    rt: &'rt mut Runtime,
    oid: ObjectId,
    capacity: u64,
}

impl<'rt> PmemMedium<'rt> {
    /// Attaches to the ledger object `oid` (freshly `pmalloc`ed or
    /// recovered). `capacity` is the object's byte size; appends beyond
    /// it fail. A fresh object must be zero-filled (pmalloc guarantees
    /// this), which reads as an empty medium.
    pub fn attach(rt: &'rt mut Runtime, oid: ObjectId, capacity: u64) -> Self {
        PmemMedium { rt, oid, capacity }
    }

    fn tail(&mut self) -> Result<u64, LedgerError> {
        let r = self.rt.deref(self.oid, None)?;
        let (tail, _) = self.rt.read_u64_at(&r, TAIL_WORD_OFF)?;
        Ok(tail)
    }

    fn set_tail(&mut self, tail: u64) -> Result<(), LedgerError> {
        let r = self.rt.deref(self.oid, None)?;
        self.rt.write_u64_at(&r, TAIL_WORD_OFF, tail)?;
        // faultpoint: ledger crash-sweep (tail-word commit publish)
        self.rt.persist(self.oid, 8)?;
        Ok(())
    }
}

impl Medium for PmemMedium<'_> {
    fn len(&mut self) -> Result<u64, LedgerError> {
        self.tail()
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), LedgerError> {
        let tail = self.tail()?;
        if off + buf.len() as u64 > tail {
            return Err(LedgerError::Corrupt("read past persisted tail"));
        }
        let r = self.rt.deref(self.oid, None)?;
        self.rt.read_bytes_at(&r, DATA_OFF + off as u32, buf)?;
        Ok(())
    }

    fn append(&mut self, data: &[u8]) -> Result<(), LedgerError> {
        let tail = self.tail()?;
        let new_tail = tail + data.len() as u64;
        if DATA_OFF as u64 + new_tail > self.capacity {
            return Err(LedgerError::Corrupt("ledger region full"));
        }
        let r = self.rt.deref(self.oid, None)?;
        self.rt.write_bytes_at(&r, DATA_OFF + tail as u32, data)?;
        // Record bytes first: persist [0, DATA_OFF + new_tail) — this
        // covers the (still-old) tail word too, which is harmless, and
        // crucially fences the record bytes before the commit below.
        // faultpoint: ledger crash-sweep (record bytes durable before tail)
        self.rt.persist(self.oid, DATA_OFF as u64 + new_tail)?;
        // Commit: advance the tail word and persist it.
        self.set_tail(new_tail)?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), LedgerError> {
        // The tail word is authoritative: shrinking it drops the tail.
        self.set_tail(len)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open_file;

    #[test]
    fn file_medium_reports_len_and_reads_back() {
        let name = format!("poat_ledger_fm_{}.poatlgr", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        let mut m = FileMedium::open(&path).unwrap();
        assert!(m.is_empty().unwrap());
        m.append(b"POATLGR1abc").unwrap();
        assert_eq!(m.len().unwrap(), 11);
        let mut buf = [0u8; 3];
        m.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        m.truncate(8).unwrap();
        assert_eq!(m.len().unwrap(), 8);
        drop(m);
        let _ = open_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}

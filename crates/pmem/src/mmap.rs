// SPDX-License-Identifier: MIT OR Apache-2.0
//! Read-only file mappings for zero-copy trace replay.
//!
//! [`Mapping`] is the byte provider under `trace_io`'s memory-mapped
//! trace reader: on Unix it wraps a `PROT_READ`/`MAP_PRIVATE` `mmap(2)`
//! of the whole file, so the trace columns are borrowed straight out of
//! the page cache and the process never stages a second whole-column
//! buffer. On Unix a failed `mmap` is an error, not a fallback:
//! [`Mapping::open`] returns it, and `MmapTrace::open` surfaces it as
//! `TraceDecodeError::Io`. Other platforms read the file into one owned
//! buffer instead — same API, same single-copy peak, just without the
//! page-cache sharing.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate root is `#![deny(unsafe_code)]` with a scoped `allow` here);
//! the surface is deliberately tiny — map, borrow bytes, unmap on drop.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    // Direct bindings against the C library std already links on Unix;
    // the workspace is hermetic (no `libc` crate), so the two syscall
    // wrappers are declared by hand.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only view of a whole file: memory-mapped on Unix, an owned
/// in-memory copy elsewhere. Either way, [`Mapping::bytes`] is the
/// entire file content.
#[derive(Debug)]
pub enum Mapping {
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(unix)]
    Mapped {
        /// Base address returned by `mmap`.
        ptr: *mut std::ffi::c_void,
        /// Mapped length in bytes (= file length at open).
        len: usize,
    },
    /// The content as an owned buffer: zero-length files, files on
    /// non-Unix platforms, and bytes handed to `MmapTrace::from_owned`.
    Owned(Vec<u8>),
}

#[cfg(unix)]
#[allow(unsafe_code)]
// SAFETY: a `Mapped` region is PROT_READ + MAP_PRIVATE — immutable for
// the mapping's lifetime and private to this process — so sharing the
// base pointer across threads is no different from sharing a `&[u8]`.
unsafe impl Send for Mapping {}

#[cfg(unix)]
#[allow(unsafe_code)]
// SAFETY: same argument as `Send` — the mapping is read-only, so
// concurrent `bytes()` borrows never race with a write.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only.
    ///
    /// # Errors
    ///
    /// Propagates failures opening the file, any `mmap` failure on
    /// Unix, and read failures on other platforms.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Mapping> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            // mmap rejects zero-length mappings; an empty buffer is the
            // same observable thing.
            return Ok(Mapping::Owned(Vec::new()));
        }
        Self::map_file(&file, len)
    }

    #[cfg(unix)]
    fn map_file(file: &File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a live, readable file descriptor for the whole
        // call; addr=NULL lets the kernel pick placement; PROT_READ +
        // MAP_PRIVATE cannot alias any Rust-visible mutable state.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping::Mapped { ptr, len })
    }

    #[cfg(not(unix))]
    fn map_file(file: &File, len: usize) -> io::Result<Mapping> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Mapping::Owned(buf))
    }

    /// The full file content.
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: `ptr` is the base of a live mapping exactly `len`
            // bytes long (unmapped only in `drop`) and PROT_READ, so the
            // slice is valid, initialized, and immutable while borrowed.
            Mapping::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Mapping::Owned(buf) => buf,
        }
    }

    /// Whether this view is a real memory mapping (`false` for an owned
    /// buffer) — observability for tests and the replay HUD.
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapping::Mapped { .. } => true,
            Mapping::Owned(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match self {
            #[cfg(unix)]
            // SAFETY: `ptr`/`len` came from a successful `mmap` of
            // exactly `len` bytes and are unmapped exactly once (drop
            // runs once and nothing else unmaps).
            Mapping::Mapped { ptr, len } => unsafe {
                let _ = sys::munmap(*ptr, *len);
            },
            Mapping::Owned(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join(format!("poat-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(100_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let m = Mapping::open(&path).unwrap();
        assert_eq!(m.bytes(), &payload[..]);
        #[cfg(unix)]
        assert!(m.is_mapped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let dir = std::env::temp_dir().join(format!("poat-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let m = Mapping::open(&path).unwrap();
        assert!(m.bytes().is_empty());
        assert!(!m.is_mapped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mapping::open("/nonexistent/poat-mmap-test").is_err());
    }
}

//! Trace serialization: save a recorded instruction stream to disk and
//! replay it later without re-running the workload ("record once,
//! simulate many" — the workflow trace-driven simulators live by).
//!
//! There is one on-disk layout, `POATTRC3`: the in-memory columnar
//! encoding (see the [`crate::trace`] module docs) split into
//! independently decodable, checksummed chunks. [`save_chunked`] streams
//! it to a file chunk by chunk, straight out of the trace's columns, so
//! writing never stages a second whole-file copy. [`MmapTrace::open`]
//! memory-maps the file, verifies only chunk framing, lengths, and
//! checksums up front (the structural pass), and decodes ops lazily out
//! of the mapping with op-level validation fused into first touch — no
//! second whole-column buffer ever exists. [`MmapTrace::to_trace`]
//! materializes an owned [`Trace`] for callers that need one.
//!
//! ```text
//! magic "POATTRC3" (8 B) | chunk count (u64 LE) | total ops (u64 LE)
//! per chunk:
//!   ops (varint) | payload len (varint)
//!   prev_va (varint) | prev_oid (varint)       -- delta bases at entry
//!   checksum (u64 LE, FNV-1a over the four varints ++ tags ++ payload)
//!   tag spine (ops bytes) | payload (payload-len bytes)
//! ```
//!
//! Each chunk header carries the delta-decoder snapshot at its start (a
//! [`crate::trace::ChunkBounds`]), so any chunk decodes without replaying
//! the stream before it. This is the eyros discipline (SNIPPETS.md §2)
//! applied to a columnar stream: offsets and lengths up front, bulk bytes
//! addressed in place, so a memory-mapped file needs no second
//! whole-column buffer. DESIGN.md §5a specifies the layout byte by byte.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::fnv::Fnv1a64;
use crate::mmap::Mapping;
use crate::trace::{get_varint, put_varint, CheckedOps, Trace, TraceCorruption, TraceOp};

/// Magic of the chunked, memory-mappable layout (see [`save_chunked`]).
const MAGIC_CHUNKED: &[u8; 8] = b"POATTRC3";
/// Fixed part of the chunked header: magic + chunk count + total ops.
const CHUNKED_HEADER_BYTES: usize = 8 + 8 + 8;

/// Default ops per chunk for [`save_chunked`]: big enough that chunk
/// headers are noise (< 0.01% of the file), small enough that lazy
/// validation works through the file one bounded chunk at a time. File
/// chunks are a storage unit only: replay always covers the whole trace,
/// however the file was chunked.
pub const DEFAULT_CHUNK_OPS: usize = 1 << 20;

/// Errors decoding a serialized trace.
#[derive(Debug)]
pub enum TraceDecodeError {
    /// The magic header did not match.
    BadMagic,
    /// The input ended before the header or columns were complete.
    Truncated,
    /// A tag byte carries flag bits undefined for its kind.
    BadTag(u8),
    /// The columns are internally inconsistent (bad varint, dangling
    /// dependency backreference, or leftover payload bytes).
    Corrupt(TraceCorruption),
    /// A chunk's stored checksum does not match its bytes (the index
    /// is the zero-based chunk).
    ChecksumMismatch(usize),
    /// An underlying I/O failure (file read/write).
    Io(std::io::Error),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not a poat trace (bad magic)"),
            TraceDecodeError::Truncated => write!(f, "trace truncated"),
            TraceDecodeError::BadTag(t) => write!(f, "bad op tag {t:#04x}"),
            TraceDecodeError::Corrupt(c) => write!(f, "corrupt trace: {c:?}"),
            TraceDecodeError::ChecksumMismatch(i) => {
                write!(f, "chunk {i} checksum mismatch")
            }
            TraceDecodeError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceDecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceDecodeError {
    fn from(e: std::io::Error) -> Self {
        TraceDecodeError::Io(e)
    }
}

impl From<TraceCorruption> for TraceDecodeError {
    fn from(c: TraceCorruption) -> Self {
        match c {
            TraceCorruption::Truncated => TraceDecodeError::Truncated,
            TraceCorruption::BadTag(t) => TraceDecodeError::BadTag(t),
            other => TraceDecodeError::Corrupt(other),
        }
    }
}

/// Writes `trace` in the chunked layout to `out`, one chunk at a time
/// straight from the trace's columns; returns the bytes written.
fn write_chunked(
    trace: &Trace,
    ops_per_chunk: usize,
    out: &mut impl Write,
) -> std::io::Result<u64> {
    let (tags, data) = trace.encoded_columns();
    let bounds = trace.chunk_bounds(ops_per_chunk);
    let mut header = [0u8; CHUNKED_HEADER_BYTES];
    header[..8].copy_from_slice(MAGIC_CHUNKED);
    header[8..16].copy_from_slice(&(bounds.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(tags.len() as u64).to_le_bytes());
    out.write_all(&header)?;
    let mut written = header.len();
    let mut chunk_header = Vec::with_capacity(48);
    for b in &bounds {
        let chunk_tags = &tags[b.first_op as usize..b.first_op as usize + b.ops];
        let chunk_data = &data[b.payload_off..b.payload_off + b.payload_len];
        chunk_header.clear();
        put_varint(&mut chunk_header, b.ops as u64);
        put_varint(&mut chunk_header, b.payload_len as u64);
        put_varint(&mut chunk_header, b.prev_va);
        put_varint(&mut chunk_header, b.prev_oid);
        let checksum = Fnv1a64::default()
            .update(&chunk_header)
            .update(chunk_tags)
            .update(chunk_data)
            .finish();
        chunk_header.extend_from_slice(&checksum.to_le_bytes());
        out.write_all(&chunk_header)?;
        out.write_all(chunk_tags)?;
        out.write_all(chunk_data)?;
        written += chunk_header.len() + chunk_tags.len() + chunk_data.len();
    }
    Ok(written as u64)
}

/// Serializes a trace into the chunked layout in memory (the byte-exact
/// content [`save_chunked`] writes).
pub fn to_chunked_bytes(trace: &Trace, ops_per_chunk: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHUNKED_HEADER_BYTES + trace.encoded_bytes());
    write_chunked(trace, ops_per_chunk, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Writes a trace to a file in the chunked, memory-mappable layout,
/// streaming chunk by chunk (peak transient memory is one chunk's
/// header, never a second copy of the columns).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_chunked(
    trace: &Trace,
    path: impl AsRef<Path>,
    ops_per_chunk: usize,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let written = write_chunked(trace, ops_per_chunk, &mut f)?;
    poat_telemetry::global()
        .counter("pmem.trace.saved_bytes")
        .add(written);
    Ok(())
}

/// One chunk's resolved location within the mapped file.
#[derive(Clone, Copy, Debug)]
struct ChunkRegion {
    /// Absolute op id of the chunk's first op.
    first_op: u64,
    /// Op (= tag byte) count.
    ops: usize,
    /// Byte offset of the tag spine within the file.
    tag_off: usize,
    /// Byte offset of the payload within the file.
    payload_off: usize,
    /// Payload byte length.
    payload_len: usize,
    /// Delta base for virtual addresses at chunk entry.
    prev_va: u64,
    /// Delta base for ObjectIDs at chunk entry.
    prev_oid: u64,
}

/// A trace opened zero-copy from its on-disk bytes: ops decode lazily,
/// straight out of the mapping.
///
/// Opening performs only the **structural pass** — magic, chunk
/// framing, column lengths, and per-chunk checksums are verified with
/// typed errors, without decoding (or copying) a single op. Op-level
/// validation (varints, flag bits, dependency backreferences) is fused
/// into [`MmapTrace::checked_ops`] and happens per chunk on first
/// touch; a chunk that streams through cleanly is remembered as
/// validated ([`MmapTrace::chunk_validated`]).
#[derive(Debug)]
pub struct MmapTrace {
    map: Mapping,
    chunks: Vec<ChunkRegion>,
    total_ops: usize,
    validated: Vec<AtomicBool>,
}

impl MmapTrace {
    /// Memory-maps `path` and runs the structural pass.
    ///
    /// # Errors
    ///
    /// I/O failures, plus every framing defect as its own
    /// [`TraceDecodeError`]: a torn chunk header is `Truncated`, an
    /// overlong varint length is `Corrupt(BadVarint)`, a chunk whose
    /// declared extent overruns the file is `Truncated`, a checksum
    /// mismatch is `ChecksumMismatch`, and bytes after the last chunk
    /// are `Corrupt(TrailingData)`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceDecodeError> {
        let map = Mapping::open(path)?;
        let this = Self::from_mapping(map)?;
        poat_telemetry::global()
            .counter("pmem.trace.mapped_bytes")
            .add(this.map.bytes().len() as u64);
        Ok(this)
    }

    /// Runs the structural pass over an in-memory byte buffer (the unit
    /// tests and fuzzers go through this; [`MmapTrace::open`] is this
    /// plus a real mapping).
    ///
    /// # Errors
    ///
    /// Same surface as [`MmapTrace::open`], minus I/O.
    pub fn from_owned(bytes: Vec<u8>) -> Result<Self, TraceDecodeError> {
        Self::from_mapping(Mapping::Owned(bytes))
    }

    fn from_mapping(map: Mapping) -> Result<Self, TraceDecodeError> {
        let chunks = Self::structural_pass(map.bytes())?;
        let total_ops = chunks.iter().map(|c| c.ops).sum();
        let validated = chunks.iter().map(|_| AtomicBool::new(false)).collect();
        Ok(MmapTrace {
            map,
            chunks,
            total_ops,
            validated,
        })
    }

    /// Chunk framing, lengths, and checksums — no op decoding.
    fn structural_pass(bytes: &[u8]) -> Result<Vec<ChunkRegion>, TraceDecodeError> {
        if bytes.len() < 8 {
            return Err(TraceDecodeError::Truncated);
        }
        if &bytes[..8] != MAGIC_CHUNKED {
            return Err(TraceDecodeError::BadMagic);
        }
        if bytes.len() < CHUNKED_HEADER_BYTES {
            return Err(TraceDecodeError::Truncated);
        }
        let chunk_count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let total_ops = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        let mut chunks = Vec::new();
        let mut off = CHUNKED_HEADER_BYTES;
        let mut first_op = 0u64;
        for chunk in 0..chunk_count {
            // A header varint that runs off the file end is a torn
            // header (Truncated); an overlong encoding is BadVarint.
            let read_field = |off: &mut usize| -> Result<u64, TraceDecodeError> {
                get_varint(bytes, off).map_err(TraceDecodeError::from)
            };
            let fields_start = off;
            let ops = read_field(&mut off)?;
            let payload_len = read_field(&mut off)?;
            let prev_va = read_field(&mut off)?;
            let prev_oid = read_field(&mut off)?;
            let fields = &bytes[fields_start..off];
            let checksum_end = off
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(TraceDecodeError::Truncated)?;
            let checksum =
                u64::from_le_bytes(bytes[off..checksum_end].try_into().expect("8-byte slice"));
            off = checksum_end;
            let remaining = (bytes.len() - off) as u64;
            let extent = ops
                .checked_add(payload_len)
                .ok_or(TraceDecodeError::Truncated)?;
            if extent > remaining {
                return Err(TraceDecodeError::Truncated);
            }
            let (ops, payload_len) = (ops as usize, payload_len as usize);
            let region = ChunkRegion {
                first_op,
                ops,
                tag_off: off,
                payload_off: off + ops,
                payload_len,
                prev_va,
                prev_oid,
            };
            let tags = &bytes[region.tag_off..region.tag_off + region.ops];
            let data = &bytes[region.payload_off..region.payload_off + region.payload_len];
            let digest = Fnv1a64::default().update(fields).update(tags).update(data);
            if digest.finish() != checksum {
                return Err(TraceDecodeError::ChecksumMismatch(chunk as usize));
            }
            off = region.payload_off + region.payload_len;
            first_op += region.ops as u64;
            chunks.push(region);
        }
        if off != bytes.len() {
            return Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData));
        }
        if first_op < total_ops {
            return Err(TraceDecodeError::Truncated);
        }
        if first_op > total_ops {
            return Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData));
        }
        Ok(chunks)
    }

    /// Total op count (summed over chunks; structural, no decoding).
    pub fn len(&self) -> usize {
        self.total_ops
    }

    /// Whether the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// Number of chunks in the mapping.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether chunk `i`'s payload has been fully decoded (and thereby
    /// validated) by a previous [`MmapTrace::checked_ops`] pass.
    pub fn chunk_validated(&self, i: usize) -> bool {
        self.validated
            .get(i)
            .map(|v| v.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Whether the bytes come from a real memory mapping (`false` for
    /// [`MmapTrace::from_owned`] buffers, empty files, and non-Unix
    /// platforms).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Streams every op, decoding lazily out of the mapping with full
    /// op-level validation fused in (the lazy counterpart of
    /// [`Trace::from_encoded`]'s eager pass). The iterator is fused
    /// after the first error.
    pub fn checked_ops(&self) -> MmapOps<'_> {
        MmapOps {
            trace: self,
            chunk: 0,
            cur: None,
            failed: false,
        }
    }

    /// Materializes the mapped trace into an owned, eagerly validated
    /// [`Trace`] (the bit-identity reference path).
    ///
    /// # Errors
    ///
    /// The first op-level defect found in any chunk.
    pub fn to_trace(&self) -> Result<Trace, TraceDecodeError> {
        let mut t = Trace::new();
        for op in self.checked_ops() {
            t.push(op?);
        }
        Ok(t)
    }

    fn chunk_decoder(&self, i: usize) -> CheckedOps<'_> {
        let bytes = self.map.bytes();
        let c = &self.chunks[i];
        CheckedOps::resume(
            &bytes[c.tag_off..c.tag_off + c.ops],
            &bytes[c.payload_off..c.payload_off + c.payload_len],
            c.first_op,
            c.prev_va,
            c.prev_oid,
        )
    }
}

/// Lazy, validating op stream over an [`MmapTrace`] (see
/// [`MmapTrace::checked_ops`]).
#[derive(Debug)]
pub struct MmapOps<'a> {
    trace: &'a MmapTrace,
    chunk: usize,
    cur: Option<CheckedOps<'a>>,
    failed: bool,
}

impl Iterator for MmapOps<'_> {
    type Item = Result<TraceOp, TraceDecodeError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(cur) = &mut self.cur {
                match cur.next() {
                    Some(Ok(op)) => return Some(Ok(op)),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e.into()));
                    }
                    None => {
                        // Chunk streamed through cleanly: first-touch
                        // validation of its payload is complete.
                        self.trace.validated[self.chunk].store(true, Ordering::Relaxed);
                        self.chunk += 1;
                        self.cur = None;
                    }
                }
            }
            if self.cur.is_none() {
                if self.chunk >= self.trace.chunks.len() {
                    return None;
                }
                self.cur = Some(self.trace.chunk_decoder(self.chunk));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.trace.total_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use crate::trace::TraceOp;
    use poat_core::{ObjectId, VirtAddr};
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        rt.tx_begin(pool).unwrap();
        rt.tx_add_range(oid, 16).unwrap();
        rt.write_u64(oid, 9).unwrap();
        rt.tx_end().unwrap();
        rt.branch(true);
        rt.exec(7);
        rt.take_trace()
    }

    /// An arbitrary *valid* op: deps are generated as backreferences
    /// relative to the op's position, so they always point at an earlier
    /// op (the `Trace::push` contract; forward deps are normalized away
    /// and so would not survive a round-trip comparison).
    fn arb_ops() -> impl Strategy<Value = Vec<TraceOp>> {
        prop::collection::vec(
            (
                0u8..8,
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
            ),
            0..200,
        )
        .prop_map(|raw| {
            let mut ops = Vec::with_capacity(raw.len());
            for (tag, a, b, n, d) in raw {
                let id = ops.len() as u64;
                let dep = if d % 3 == 0 || id == 0 {
                    None
                } else {
                    Some(id - 1 - (d % id.min(16)))
                };
                let op = match tag {
                    0 => TraceOp::Exec { n: n.max(1) },
                    1 => TraceOp::Load {
                        va: VirtAddr::new(a),
                        dep,
                    },
                    2 => TraceOp::Store {
                        va: VirtAddr::new(a),
                        dep,
                    },
                    3 => TraceOp::NvLoad {
                        oid: ObjectId::from_raw(b),
                        va: VirtAddr::new(a),
                        dep,
                    },
                    4 => TraceOp::NvStore {
                        oid: ObjectId::from_raw(b),
                        va: VirtAddr::new(a),
                        dep,
                    },
                    5 => TraceOp::Clwb {
                        va: VirtAddr::new(a),
                    },
                    6 => TraceOp::Fence,
                    _ => TraceOp::Branch {
                        mispredicted: n % 2 == 0,
                    },
                };
                ops.push(op);
            }
            ops
        })
    }

    #[test]
    fn chunked_roundtrip_via_mmap() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("poat-trace-chunk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poattrc3");
        // Tiny chunks so the sample trace actually splits.
        save_chunked(&t, &path, 8).unwrap();
        let m = MmapTrace::open(&path).unwrap();
        assert_eq!(m.len(), t.len());
        assert!(m.num_chunks() > 1, "sample trace spans chunks");
        #[cfg(unix)]
        assert!(m.is_mapped());
        let decoded: Result<Vec<TraceOp>, _> = m.checked_ops().collect();
        assert_eq!(decoded.unwrap(), t.ops().collect::<Vec<_>>());
        assert_eq!(m.to_trace().unwrap(), t);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retired_flat_magic_is_rejected() {
        let dir = std::env::temp_dir().join(format!("poat-trace-flat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poattrc");
        // The retired flat layout: magic, op count, payload length.
        let mut bytes = b"POATTRC2".to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MmapTrace::open(&path),
            Err(TraceDecodeError::BadMagic)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_validation_happens_on_first_touch() {
        let t = sample_trace();
        let m = MmapTrace::from_owned(to_chunked_bytes(&t, 8)).unwrap();
        assert!(m.num_chunks() >= 2);
        assert!(
            (0..m.num_chunks()).all(|i| !m.chunk_validated(i)),
            "the structural pass decodes no payload"
        );
        // Touch just past the first chunk: it completes and is marked
        // validated; later chunks stay untouched.
        let first_chunk_ops = 8;
        let _: Vec<_> = m.checked_ops().take(first_chunk_ops + 1).collect();
        assert!(m.chunk_validated(0));
        assert!(!m.chunk_validated(m.num_chunks() - 1));
        // A full pass validates everything.
        let _: Vec<_> = m.checked_ops().collect();
        assert!((0..m.num_chunks()).all(|i| m.chunk_validated(i)));
    }

    #[test]
    fn chunked_framing_defects_get_typed_errors() {
        let t = sample_trace();
        let good = to_chunked_bytes(&t, 8);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::BadMagic)
        ));

        // Torn fixed header.
        assert!(matches!(
            MmapTrace::from_owned(good[..12].to_vec()),
            Err(TraceDecodeError::Truncated)
        ));

        // Torn chunk header: cut inside the first chunk's varints.
        assert!(matches!(
            MmapTrace::from_owned(good[..CHUNKED_HEADER_BYTES + 1].to_vec()),
            Err(TraceDecodeError::Truncated)
        ));

        // Oversized varint length: replace the first chunk's `ops`
        // varint with an 11-byte overlong encoding.
        let mut bad = good[..CHUNKED_HEADER_BYTES].to_vec();
        bad.extend_from_slice(&[0x80; 11]);
        bad.extend_from_slice(&good[CHUNKED_HEADER_BYTES..]);
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::Corrupt(TraceCorruption::BadVarint))
        ));

        // Flipped payload byte: the chunk checksum catches it in the
        // structural pass.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::ChecksumMismatch(_))
        ));

        // Trailing garbage after the last chunk.
        let mut bad = good.clone();
        bad.push(0x00);
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData))
        ));

        // Chunk lengths that overflow u64 when summed.
        let mut bad = good[..CHUNKED_HEADER_BYTES].to_vec();
        for field in [u64::MAX, u64::MAX, 0, 0] {
            put_varint(&mut bad, field);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::Truncated)
        ));

        // Chunk extent overrunning the file.
        let mut bad = good.clone();
        bad.truncate(good.len() - 2);
        assert!(matches!(
            MmapTrace::from_owned(bad),
            Err(TraceDecodeError::Truncated | TraceDecodeError::ChecksumMismatch(_))
        ));

        // The pristine bytes still open.
        assert!(MmapTrace::from_owned(good).is_ok());
    }

    #[test]
    fn a_backref_of_u64_max_in_a_mapped_file_is_bad_dep() {
        // One well-framed chunk: a Fence, then a Load whose address
        // delta is 0 and whose backreference is the varint of u64::MAX.
        let tags = [6u8, 1 | 1 << 3];
        let mut data = vec![0];
        data.extend([0xFF; 9]);
        data.push(0x01);
        let mut bytes = MAGIC_CHUNKED.to_vec();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(tags.len() as u64).to_le_bytes());
        let mut fields = Vec::new();
        for field in [tags.len() as u64, data.len() as u64, 0, 0] {
            put_varint(&mut fields, field);
        }
        let checksum = Fnv1a64::default()
            .update(&fields)
            .update(&tags)
            .update(&data)
            .finish();
        bytes.extend_from_slice(&fields);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&tags);
        bytes.extend_from_slice(&data);

        let dir = std::env::temp_dir().join(format!("poat-trace-baddep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poattrc3");
        std::fs::write(&path, &bytes).unwrap();
        let m = MmapTrace::open(&path).expect("the framing is valid");
        let decoded: Vec<_> = m.checked_ops().collect();
        assert!(matches!(decoded[0], Ok(TraceOp::Fence)), "{decoded:?}");
        assert!(
            matches!(
                decoded[1..],
                [Err(TraceDecodeError::Corrupt(TraceCorruption::BadDep))]
            ),
            "{decoded:?}"
        );
        assert!(!m.chunk_validated(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_total_ops_mismatch_rejected() {
        let t = sample_trace();
        let mut bytes = to_chunked_bytes(&t, 8);
        // Inflate the declared total op count.
        let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        bytes[16..24].copy_from_slice(&(declared + 1).to_le_bytes());
        assert!(matches!(
            MmapTrace::from_owned(bytes.clone()),
            Err(TraceDecodeError::Truncated)
        ));
        // Deflate it.
        bytes[16..24].copy_from_slice(&(declared - 1).to_le_bytes());
        assert!(matches!(
            MmapTrace::from_owned(bytes),
            Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Each cut re-runs the structural pass, so the case count is
        /// lower than the other properties'.
        #[test]
        fn every_proper_prefix_is_rejected(ops in arb_ops(), per in 1usize..32) {
            let t: Trace = ops.iter().copied().collect();
            let bytes = to_chunked_bytes(&t, per);
            for cut in 0..bytes.len() {
                prop_assert!(
                    MmapTrace::from_owned(bytes[..cut].to_vec()).is_err(),
                    "a {cut}-byte prefix of {} bytes opened", bytes.len()
                );
            }
        }
    }

    proptest! {
        #[test]
        fn chunked_traces_roundtrip_via_mmap(ops in arb_ops(), per in 1usize..64) {
            let t: Trace = ops.iter().copied().collect();
            let m = MmapTrace::from_owned(to_chunked_bytes(&t, per)).unwrap();
            prop_assert_eq!(m.len(), t.len());
            // `to_trace` re-pushes every decoded op: the decoded stream
            // is the recorded one, and re-pushing it (coalescing
            // included) reproduces the trace.
            let decoded = m.to_trace().unwrap();
            prop_assert!(t.ops().eq(decoded.ops()));
            prop_assert_eq!(t.summary(), decoded.summary());
            prop_assert_eq!(decoded, t);
        }

        /// Mutate each framing field of a valid file and assert the
        /// exact typed error from the mmap structural pass.
        #[test]
        fn chunked_framing_mutations_get_exact_errors(
            ops in arb_ops(),
            per in 1usize..32,
            field in 0usize..4,
            delta in 1u64..255,
        ) {
            let mut t: Trace = ops.iter().copied().collect();
            if t.is_empty() {
                // Framing mutations need at least one chunk to mutate.
                t.push(TraceOp::Fence);
            }
            let good = to_chunked_bytes(&t, per);
            let mut bytes = good.clone();
            let expect = match field {
                0 => {
                    bytes[(delta as usize) % 8] ^= 0xFF;
                    "BadMagic"
                }
                1 => {
                    // Torn chunk header: cut inside the first chunk header.
                    bytes.truncate(CHUNKED_HEADER_BYTES + (delta as usize) % 4);
                    "Truncated"
                }
                2 => {
                    // Flip a byte anywhere in the first chunk's extent:
                    // its checksum must catch it.
                    let at = CHUNKED_HEADER_BYTES
                        + 12
                        + (delta as usize) % (bytes.len() - CHUNKED_HEADER_BYTES - 12);
                    bytes[at] = bytes[at].wrapping_add(1);
                    "Checksum"
                }
                _ => {
                    bytes.extend(std::iter::repeat_n(0xAAu8, delta as usize % 16 + 1));
                    "TrailingData"
                }
            };
            let got = match MmapTrace::from_owned(bytes) {
                Err(TraceDecodeError::BadMagic) => "BadMagic",
                Err(TraceDecodeError::Truncated) => "Truncated",
                Err(TraceDecodeError::ChecksumMismatch(_)) => "Checksum",
                Err(TraceDecodeError::Corrupt(TraceCorruption::TrailingData)) => "TrailingData",
                Err(_) => "other",
                Ok(_) => "ok",
            };
            // A byte flip may land in a chunk-header varint instead of
            // the checksummed extent; framing errors are acceptable
            // there, silent success or a panic never is.
            if expect == "Checksum" {
                prop_assert!(
                    got == "Checksum" || got == "Truncated" || got == "TrailingData",
                    "got {}", got
                );
            } else {
                prop_assert_eq!(got, expect);
            }
        }
    }
}

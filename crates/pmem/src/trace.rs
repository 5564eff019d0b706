//! The dynamic instruction trace the runtime emits.
//!
//! The paper uses Pin as a front-end for Sniper: the workload executes
//! natively and the simulator replays its instruction stream against a
//! timing model (§5.1). We reproduce that structure: the workloads run
//! natively in Rust against the [`crate::Runtime`], which emits one
//! [`TraceOp`] per dynamic instruction (batching non-memory instructions),
//! and `poat-sim`'s core models replay the trace.
//!
//! Memory operations carry an optional **dependency edge** (`dep`): the
//! index of the earlier operation that produced the address being accessed.
//! Pointer-chasing chains (a linked-list traversal, a tree descent, the
//! probe chain inside `oid_direct`) are serialized through these edges,
//! which is what lets the out-of-order core model extract realistic —
//! rather than unbounded — memory-level parallelism. This is why, as in the
//! paper, hardware translation helps an in-order core more than an
//! out-of-order core.
//!
//! # Compact columnar encoding
//!
//! Full-scale traces run to hundreds of millions of dynamic ops, and the
//! harness fans simulations out over a worker pool, so the in-memory
//! representation is the scaling bottleneck of the whole pipeline. A
//! [`Trace`] therefore does **not** store `Vec<TraceOp>` (~40 B per op);
//! it stores two byte columns targeting ≲ 12 B per op in the worst case
//! and ~3-6 B on real workloads:
//!
//! * **tag spine** — one `u8` per op: the op kind in the low 3 bits,
//!   kind-specific flags in the high 5 (small `Exec` batch sizes,
//!   dep-present, branch outcome);
//! * **payload column** — LEB128 varints, in op order: addresses are
//!   **delta-encoded** against the previous address in the stream
//!   (zigzag, so both directions stay short), ObjectIDs against the
//!   previous ObjectID, and dependency edges as **backreferences**
//!   (`id − dep`) — deps are pointer-chase producers, so they are almost
//!   always a handful of ops back.
//!
//! Both recording ([`Trace::push`]) and replay ([`Trace::ops`], a
//! streaming iterator) work directly on this encoding; the `TraceOp` enum
//! exists only as the item type flowing between the two, never as a
//! materialized vector. See `DESIGN.md` ("Trace encoding") for the exact
//! byte layout and its bytes-per-op accounting.

use poat_core::{ObjectId, VirtAddr};

/// Index of an operation within a [`Trace`]; usable as a dependency target.
pub type OpId = u64;

/// One dynamic instruction (or batch of non-memory instructions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `n` back-to-back non-memory instructions (ALU, moves, compares).
    Exec {
        /// Number of instructions in the batch.
        n: u32,
    },
    /// A regular load through a virtual address.
    Load {
        /// Accessed virtual address.
        va: VirtAddr,
        /// Producer of the address (pointer-chasing edge), if any.
        dep: Option<OpId>,
    },
    /// A regular store through a virtual address.
    Store {
        /// Accessed virtual address.
        va: VirtAddr,
        /// Producer of the address, if any.
        dep: Option<OpId>,
    },
    /// `nvld`: a load addressed by ObjectID, translated in hardware.
    NvLoad {
        /// The ObjectID operand.
        oid: ObjectId,
        /// The virtual address the POLB/POT translation resolves to
        /// (recorded so cache behavior can be replayed exactly).
        va: VirtAddr,
        /// Producer of the ObjectID, if any.
        dep: Option<OpId>,
    },
    /// `nvst`: a store addressed by ObjectID, translated in hardware.
    NvStore {
        /// The ObjectID operand.
        oid: ObjectId,
        /// The translated virtual address.
        va: VirtAddr,
        /// Producer of the ObjectID, if any.
        dep: Option<OpId>,
    },
    /// `clwb`: initiate write-back of the line containing `va`.
    Clwb {
        /// Line address being written back.
        va: VirtAddr,
    },
    /// `sfence`: order preceding write-backs.
    Fence,
    /// A conditional branch.
    Branch {
        /// Whether the branch mispredicted (charged the Table 4 penalty).
        mispredicted: bool,
    },
}

impl TraceOp {
    /// Number of dynamic instructions this op represents.
    pub fn instructions(&self) -> u64 {
        match self {
            TraceOp::Exec { n } => *n as u64,
            _ => 1,
        }
    }

    /// Whether this op accesses memory through the data cache.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            TraceOp::Load { .. }
                | TraceOp::Store { .. }
                | TraceOp::NvLoad { .. }
                | TraceOp::NvStore { .. }
        )
    }

    /// Whether this is an ObjectID-addressed (`nvld`/`nvst`) access.
    pub fn is_persistent_access(&self) -> bool {
        matches!(self, TraceOp::NvLoad { .. } | TraceOp::NvStore { .. })
    }
}

/// Aggregate counts over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Regular loads.
    pub loads: u64,
    /// Regular stores.
    pub stores: u64,
    /// `nvld` count.
    pub nvloads: u64,
    /// `nvst` count.
    pub nvstores: u64,
    /// `clwb` count.
    pub clwbs: u64,
    /// `sfence` count.
    pub fences: u64,
    /// Branch count.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
}

impl TraceSummary {
    fn account(&mut self, op: &TraceOp) {
        self.instructions += op.instructions();
        match op {
            TraceOp::Load { .. } => self.loads += 1,
            TraceOp::Store { .. } => self.stores += 1,
            TraceOp::NvLoad { .. } => self.nvloads += 1,
            TraceOp::NvStore { .. } => self.nvstores += 1,
            TraceOp::Clwb { .. } => self.clwbs += 1,
            TraceOp::Fence => self.fences += 1,
            TraceOp::Branch { mispredicted } => {
                self.branches += 1;
                if *mispredicted {
                    self.mispredictions += 1;
                }
            }
            TraceOp::Exec { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

/// Op kinds, stored in the low 3 bits of a tag byte. Every 3-bit value is
/// a defined kind; corruption shows up as undefined *flag* bits instead.
const K_EXEC: u8 = 0;
const K_LOAD: u8 = 1;
const K_STORE: u8 = 2;
const K_NVLOAD: u8 = 3;
const K_NVSTORE: u8 = 4;
const K_CLWB: u8 = 5;
const K_FENCE: u8 = 6;
const K_BRANCH: u8 = 7;

/// Flag bit (shifted into the high 5 bits of the tag): a dependency edge
/// follows in the payload (memory ops) / the branch mispredicted.
const F_BIT0: u8 = 1 << 3;
/// Largest `Exec` batch size representable inline in the tag's flag bits.
const EXEC_INLINE_MAX: u32 = 31;

/// Ways a raw encoded trace (from disk) can be malformed. Traces built
/// through [`Trace::push`] are valid by construction; this is the error
/// surface of [`Trace::from_encoded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCorruption {
    /// The payload column ended before the tag spine was fully decoded.
    Truncated,
    /// A tag byte carries flag bits undefined for its kind.
    BadTag(u8),
    /// A dependency backreference points before op 0.
    BadDep,
    /// A varint field is overlong or overflows its target width.
    BadVarint,
    /// Payload bytes remain after the last op decoded.
    TrailingData,
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn put_svarint(buf: &mut Vec<u8>, v: u64) {
    // Zigzag over the wrapping difference: small deltas in either
    // direction encode in one or two bytes.
    let s = v as i64;
    put_varint(buf, ((s << 1) ^ (s >> 63)) as u64);
}

pub(crate) fn get_varint(data: &[u8], off: &mut usize) -> Result<u64, TraceCorruption> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*off).ok_or(TraceCorruption::Truncated)?;
        *off += 1;
        if shift == 63 && b > 1 {
            return Err(TraceCorruption::BadVarint);
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceCorruption::BadVarint);
        }
    }
}

fn get_svarint(data: &[u8], off: &mut usize) -> Result<u64, TraceCorruption> {
    let z = get_varint(data, off)?;
    Ok(((z >> 1) as i64 ^ -((z & 1) as i64)) as u64)
}

/// Shared decoder state: the delta bases the encoder and every decoder
/// (streaming iterator, validator) advance in lockstep.
#[derive(Clone, Copy, Debug, Default)]
struct DeltaState {
    prev_va: u64,
    prev_oid: u64,
}

impl DeltaState {
    /// Decodes the op with index `id` whose tag is `tag`, consuming
    /// payload bytes from `data` at `*off`.
    fn decode(
        &mut self,
        tag: u8,
        data: &[u8],
        off: &mut usize,
        id: u64,
    ) -> Result<TraceOp, TraceCorruption> {
        let kind = tag & 0x07;
        let flags = tag >> 3;
        let op = match kind {
            K_EXEC => {
                let n = if flags == 0 {
                    let v = get_varint(data, off)?;
                    u32::try_from(v).map_err(|_| TraceCorruption::BadVarint)?
                } else {
                    flags as u32
                };
                TraceOp::Exec { n }
            }
            K_LOAD | K_STORE | K_NVLOAD | K_NVSTORE => {
                if flags > 1 {
                    return Err(TraceCorruption::BadTag(tag));
                }
                let oid = if kind == K_NVLOAD || kind == K_NVSTORE {
                    let o = self.prev_oid.wrapping_add(get_svarint(data, off)?);
                    self.prev_oid = o;
                    Some(ObjectId::from_raw(o))
                } else {
                    None
                };
                let va = self.prev_va.wrapping_add(get_svarint(data, off)?);
                self.prev_va = va;
                let dep = if flags & 1 != 0 {
                    let back = get_varint(data, off)?;
                    // backref is encoded as (id - dep - 1); dep must land
                    // in [0, id).
                    let dep = id.checked_sub(back + 1).ok_or(TraceCorruption::BadDep)?;
                    Some(dep)
                } else {
                    None
                };
                let va = VirtAddr::new(va);
                match (kind, oid) {
                    (K_LOAD, _) => TraceOp::Load { va, dep },
                    (K_STORE, _) => TraceOp::Store { va, dep },
                    (K_NVLOAD, Some(oid)) => TraceOp::NvLoad { oid, va, dep },
                    (K_NVSTORE, Some(oid)) => TraceOp::NvStore { oid, va, dep },
                    // kind is one of the four memory kinds and oid is
                    // Some exactly for the Nv kinds.
                    _ => unreachable!("oid presence tracks the kind"),
                }
            }
            K_CLWB => {
                if flags != 0 {
                    return Err(TraceCorruption::BadTag(tag));
                }
                let va = self.prev_va.wrapping_add(get_svarint(data, off)?);
                self.prev_va = va;
                TraceOp::Clwb {
                    va: VirtAddr::new(va),
                }
            }
            K_FENCE => {
                if flags != 0 {
                    return Err(TraceCorruption::BadTag(tag));
                }
                TraceOp::Fence
            }
            K_BRANCH => {
                if flags > 1 {
                    return Err(TraceCorruption::BadTag(tag));
                }
                TraceOp::Branch {
                    mispredicted: flags & 1 != 0,
                }
            }
            // kind is 3 bits; all eight values are matched above.
            _ => unreachable!("3-bit kind"),
        };
        Ok(op)
    }
}

// ---------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------

/// A recorded dynamic instruction stream, stored compactly (see the
/// module docs for the encoding).
///
/// ```
/// use poat_core::VirtAddr;
/// use poat_pmem::trace::{Trace, TraceOp};
///
/// let mut t = Trace::new();
/// let a = t.push(TraceOp::Load { va: VirtAddr::new(0x1000), dep: None });
/// t.push(TraceOp::Load { va: VirtAddr::new(0x2000), dep: Some(a) });
/// t.push(TraceOp::Exec { n: 5 });
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.summary().instructions, 7);
/// assert!(t.encoded_bytes() <= 12 * t.len());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// One tag byte per op (the spine); `tags.len()` is the op count.
    tags: Vec<u8>,
    /// Varint payload bytes, in op order.
    data: Vec<u8>,
    /// Aggregate counts, maintained incrementally by `push`.
    summary: TraceSummary,
    /// Encoder delta bases (mirrored by every decoder).
    state: DeltaState,
    /// `(payload offset, n)` of the trailing op iff it is an `Exec`
    /// batch — enables in-place coalescing of adjacent batches.
    last_exec: Option<(usize, u32)>,
    /// `Some` inside an untraced phase (`Runtime::untraced`).
    untraced: Option<Untraced>,
}

/// What an untraced phase keeps of the ops it leaves out: how many
/// entries they would have added, so software-translation events keep
/// the trace positions they are stamped with (see [`Trace::position`]).
#[derive(Clone, Copy, Debug)]
struct Untraced {
    /// Entries left out so far.
    ops: u64,
    /// `n` of the trailing entry iff it is an `Exec` batch, which the
    /// next batch would have coalesced into.
    exec: Option<u32>,
}

impl Untraced {
    /// Counts `op` as [`Trace::push`] would have stored it.
    fn count(&mut self, op: TraceOp) {
        match op {
            TraceOp::Exec { n: 0 } => {}
            TraceOp::Exec { n } => {
                let merged = self.exec.and_then(|last| last.checked_add(n));
                if merged.is_none() {
                    self.ops += 1;
                }
                self.exec = Some(merged.unwrap_or(n));
            }
            _ => {
                self.ops += 1;
                self.exec = None;
            }
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        // The encoding is canonical for a given op sequence, so byte
        // equality is op-sequence equality.
        self.tags == other.tags && self.data == other.data
    }
}

impl Eq for Trace {}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op, returning its [`OpId`].
    ///
    /// Two normalizations keep the stream canonical and the replay models
    /// well-defined:
    ///
    /// * adjacent `Exec` batches coalesce (the returned id is the merged
    ///   batch's), and **empty batches (`n == 0`) are dropped** — a
    ///   zero-length batch has no dynamic effect, and letting it occupy a
    ///   slot once underflowed the out-of-order model's dispatch clock.
    ///   The returned id is the previous op's (empty batches cannot be
    ///   dependency targets);
    /// * a `dep` that does not reference an *earlier* op (`dep >= id`) is
    ///   normalized to `None`: a producer must precede its consumer, and
    ///   the replay models already treated such edges as ready-at-zero.
    ///
    /// Inside an untraced phase (`Runtime::untraced`) nothing is encoded,
    /// the encoder state stays as it was, and the id is [`OpId::MAX`],
    /// which no later push keeps as a dependency.
    pub fn push(&mut self, op: TraceOp) -> OpId {
        if let Some(untraced) = &mut self.untraced {
            untraced.count(op);
            return OpId::MAX;
        }
        let id = self.tags.len() as OpId;
        match op {
            TraceOp::Exec { n: 0 } => return id.saturating_sub(1),
            TraceOp::Exec { n } => {
                if let Some((off, last_n)) = self.last_exec {
                    if let Some(sum) = last_n.checked_add(n) {
                        // Re-encode the trailing batch in place.
                        self.data.truncate(off);
                        let tag = Self::encode_exec(&mut self.data, sum);
                        // invariant: last_exec is Some only when tags is
                        // non-empty (set right after a push).
                        *self
                            .tags
                            .last_mut()
                            .expect("invariant: last_exec implies non-empty spine") = tag;
                        self.last_exec = Some((off, sum));
                        self.summary.instructions += n as u64;
                        return id - 1;
                    }
                }
                let off = self.data.len();
                let tag = Self::encode_exec(&mut self.data, n);
                self.tags.push(tag);
                self.last_exec = Some((off, n));
                self.summary.instructions += n as u64;
            }
            TraceOp::Load { va, dep } => {
                self.encode_mem(K_LOAD, None, va.raw(), dep, id);
            }
            TraceOp::Store { va, dep } => {
                self.encode_mem(K_STORE, None, va.raw(), dep, id);
            }
            TraceOp::NvLoad { oid, va, dep } => {
                self.encode_mem(K_NVLOAD, Some(oid.raw()), va.raw(), dep, id);
            }
            TraceOp::NvStore { oid, va, dep } => {
                self.encode_mem(K_NVSTORE, Some(oid.raw()), va.raw(), dep, id);
            }
            TraceOp::Clwb { va } => {
                self.tags.push(K_CLWB);
                put_svarint(&mut self.data, va.raw().wrapping_sub(self.state.prev_va));
                self.state.prev_va = va.raw();
                self.last_exec = None;
            }
            TraceOp::Fence => {
                self.tags.push(K_FENCE);
                self.last_exec = None;
            }
            TraceOp::Branch { mispredicted } => {
                self.tags
                    .push(K_BRANCH | if mispredicted { F_BIT0 } else { 0 });
                self.last_exec = None;
            }
        }
        self.summary.account(&self.normalized(op, id));
        id
    }

    /// The op as it will be decoded back (deps normalized), for summary
    /// accounting. Exec ops are accounted inline by `push`.
    fn normalized(&self, op: TraceOp, id: OpId) -> TraceOp {
        let norm = |dep: Option<OpId>| dep.filter(|&d| d < id);
        match op {
            TraceOp::Load { va, dep } => TraceOp::Load { va, dep: norm(dep) },
            TraceOp::Store { va, dep } => TraceOp::Store { va, dep: norm(dep) },
            TraceOp::NvLoad { oid, va, dep } => TraceOp::NvLoad {
                oid,
                va,
                dep: norm(dep),
            },
            TraceOp::NvStore { oid, va, dep } => TraceOp::NvStore {
                oid,
                va,
                dep: norm(dep),
            },
            // Exec batches are accounted by the coalescing arms; emit a
            // zero-instruction stand-in so `account` adds nothing twice.
            TraceOp::Exec { .. } => TraceOp::Exec { n: 0 },
            other => other,
        }
    }

    fn encode_exec(data: &mut Vec<u8>, n: u32) -> u8 {
        if (1..=EXEC_INLINE_MAX).contains(&n) {
            K_EXEC | ((n as u8) << 3)
        } else {
            put_varint(data, n as u64);
            K_EXEC
        }
    }

    fn encode_mem(&mut self, kind: u8, oid: Option<u64>, va: u64, dep: Option<OpId>, id: OpId) {
        let dep = dep.filter(|&d| d < id);
        self.tags
            .push(kind | if dep.is_some() { F_BIT0 } else { 0 });
        if let Some(o) = oid {
            put_svarint(&mut self.data, o.wrapping_sub(self.state.prev_oid));
            self.state.prev_oid = o;
        }
        put_svarint(&mut self.data, va.wrapping_sub(self.state.prev_va));
        self.state.prev_va = va;
        if let Some(d) = dep {
            put_varint(&mut self.data, id - d - 1);
        }
        self.last_exec = None;
    }

    /// Streams the ops in program order, decoding on the fly; nothing is
    /// materialized. The iterator is exact-sized ([`Trace::len`] items).
    pub fn ops(&self) -> Ops<'_> {
        Ops {
            tags: &self.tags,
            data: &self.data,
            pos: 0,
            off: 0,
            state: DeltaState::default(),
        }
    }

    /// Number of trace entries (batches count once).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Where the next op lands: [`len`](Self::len), plus the entries an
    /// untraced phase has left out so far.
    pub(crate) fn position(&self) -> u64 {
        self.tags.len() as u64 + self.untraced.map_or(0, |u| u.ops)
    }

    /// Starts (`on`) or ends an untraced phase; returns whether one was
    /// active. Only `Runtime::untraced` and `Runtime::take_trace` call
    /// this, so no public path can leave recording off.
    pub(crate) fn set_untraced(&mut self, on: bool) -> bool {
        let was = self.untraced.is_some();
        self.untraced = match (on, self.untraced) {
            (false, _) => None,
            (true, Some(u)) => Some(u),
            (true, None) => Some(Untraced {
                ops: 0,
                exec: self.last_exec.map(|(_, n)| n),
            }),
        };
        was
    }

    /// Bytes of encoded trace data held in memory (tag spine + payload).
    /// Divide by [`Trace::len`] for the bytes-per-op figure the encoding
    /// is budgeted against (≤ 12 B/op; see `DESIGN.md`).
    pub fn encoded_bytes(&self) -> usize {
        self.tags.len() + self.data.len()
    }

    /// Aggregate counts (maintained incrementally; O(1)).
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// The raw encoded columns — `(tag spine, payload)` — for
    /// serialization and offline tooling (`trace_io` writes them
    /// verbatim; the bench suite measures `from_encoded` validation
    /// over them). The byte layout is specified in DESIGN.md §5a,
    /// including a worked single-op example.
    pub fn encoded_columns(&self) -> (&[u8], &[u8]) {
        (&self.tags, &self.data)
    }

    /// Reassembles a trace from its raw encoded columns (the inverse of
    /// `Trace::encoded_columns`), validating the whole stream eagerly:
    /// every varint, flag combination, and dependency backreference is
    /// checked, and the summary and encoder state are rebuilt, so later
    /// streaming via [`Trace::ops`] cannot fail.
    ///
    /// # Errors
    ///
    /// [`TraceCorruption`] describing the first malformed byte sequence.
    pub fn from_encoded(tags: Vec<u8>, data: Vec<u8>) -> Result<Self, TraceCorruption> {
        let mut state = DeltaState::default();
        let mut summary = TraceSummary::default();
        let mut off = 0usize;
        let mut last_exec = None;
        for (id, &tag) in tags.iter().enumerate() {
            let before = off;
            let op = state.decode(tag, &data, &mut off, id as u64)?;
            summary.account(&op);
            last_exec = match op {
                TraceOp::Exec { n } => Some((before, n)),
                _ => None,
            };
        }
        if off != data.len() {
            return Err(TraceCorruption::TrailingData);
        }
        Ok(Trace {
            tags,
            data,
            summary,
            state,
            last_exec,
            untraced: None,
        })
    }
}

/// Byte-exact bounds of one chunk of a trace's encoded columns, plus the
/// delta-decoder snapshot needed to decode that chunk independently of
/// everything before it.
///
/// Produced by [`Trace::chunk_bounds`] for `trace_io`'s chunked on-disk
/// format: each chunk header persists one of these, so a memory-mapped
/// reader can decode any chunk without replaying the whole stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkBounds {
    /// Absolute [`OpId`] of the chunk's first op.
    pub first_op: OpId,
    /// Number of ops (= tag bytes) in the chunk.
    pub ops: usize,
    /// Byte offset of the chunk's payload within the payload column.
    pub payload_off: usize,
    /// Byte length of the chunk's payload.
    pub payload_len: usize,
    /// Delta base for virtual addresses at the chunk start.
    pub prev_va: u64,
    /// Delta base for ObjectIDs at the chunk start.
    pub prev_oid: u64,
}

impl Trace {
    /// Splits the trace into chunk-aligned bounds of at most
    /// `ops_per_chunk` ops each (the last chunk may be shorter), in one
    /// streaming pass over the encoding.
    ///
    /// The result depends only on the trace contents and
    /// `ops_per_chunk`, so a chunked file's layout is reproducible. An
    /// empty trace yields no chunks; `ops_per_chunk` is clamped to at
    /// least 1.
    pub fn chunk_bounds(&self, ops_per_chunk: usize) -> Vec<ChunkBounds> {
        let per = ops_per_chunk.max(1);
        let mut bounds = Vec::with_capacity(self.tags.len().div_ceil(per));
        let mut state = DeltaState::default();
        let mut off = 0usize;
        let mut chunk_start = 0usize;
        let mut chunk_payload_off = 0usize;
        let mut chunk_state = state;
        for (id, &tag) in self.tags.iter().enumerate() {
            if id - chunk_start == per {
                bounds.push(ChunkBounds {
                    first_op: chunk_start as OpId,
                    ops: per,
                    payload_off: chunk_payload_off,
                    payload_len: off - chunk_payload_off,
                    prev_va: chunk_state.prev_va,
                    prev_oid: chunk_state.prev_oid,
                });
                chunk_start = id;
                chunk_payload_off = off;
                chunk_state = state;
            }
            let _ = state
                .decode(tag, &self.data, &mut off, id as u64)
                // invariant: the columns were produced by `push` or
                // validated by `from_encoded`, so every op decodes.
                .expect("invariant: trace columns are validated at construction");
        }
        if chunk_start < self.tags.len() {
            bounds.push(ChunkBounds {
                first_op: chunk_start as OpId,
                ops: self.tags.len() - chunk_start,
                payload_off: chunk_payload_off,
                payload_len: off - chunk_payload_off,
                prev_va: chunk_state.prev_va,
                prev_oid: chunk_state.prev_oid,
            });
        }
        bounds
    }
}

/// Streaming *checked* decoder over raw encoded columns: every varint,
/// flag combination, and dependency backreference is validated as it is
/// decoded, and trailing payload bytes surface as one final error item.
///
/// This is the lazy counterpart of [`Trace::from_encoded`]: where
/// `from_encoded` validates the whole stream up front (and later
/// iteration cannot fail), `CheckedOps` fuses validation into first
/// touch, which is what lets the memory-mapped reader in `trace_io`
/// decode a chunk without ever materializing a second copy of its
/// columns. The iterator is fused: after yielding an `Err` it yields
/// `None` forever.
#[derive(Clone, Debug)]
pub struct CheckedOps<'a> {
    tags: &'a [u8],
    data: &'a [u8],
    pos: usize,
    off: usize,
    base_id: OpId,
    state: DeltaState,
    failed: bool,
    trailing_checked: bool,
}

impl<'a> CheckedOps<'a> {
    /// Checked decode of complete columns from the stream start.
    pub fn new(tags: &'a [u8], data: &'a [u8]) -> Self {
        Self::resume(tags, data, 0, 0, 0)
    }

    /// Checked decode of a chunk cut mid-stream: `base_id` is the
    /// absolute [`OpId`] of the first op and `prev_va`/`prev_oid` are
    /// the delta bases at the chunk start (see [`ChunkBounds`]).
    pub fn resume(
        tags: &'a [u8],
        data: &'a [u8],
        base_id: OpId,
        prev_va: u64,
        prev_oid: u64,
    ) -> Self {
        CheckedOps {
            tags,
            data,
            pos: 0,
            off: 0,
            base_id,
            state: DeltaState { prev_va, prev_oid },
            failed: false,
            trailing_checked: false,
        }
    }
}

impl Iterator for CheckedOps<'_> {
    type Item = Result<TraceOp, TraceCorruption>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let Some(&tag) = self.tags.get(self.pos) else {
            // Spine exhausted: any payload bytes left over are garbage.
            if !self.trailing_checked {
                self.trailing_checked = true;
                if self.off != self.data.len() {
                    self.failed = true;
                    return Some(Err(TraceCorruption::TrailingData));
                }
            }
            return None;
        };
        let id = self.base_id + self.pos as u64;
        match self.state.decode(tag, self.data, &mut self.off, id) {
            Ok(op) => {
                self.pos += 1;
                Some(Ok(op))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Streaming decoder over a [`Trace`] (see [`Trace::ops`]).
#[derive(Clone, Debug)]
pub struct Ops<'a> {
    tags: &'a [u8],
    data: &'a [u8],
    pos: usize,
    off: usize,
    state: DeltaState,
}

impl Iterator for Ops<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        let &tag = self.tags.get(self.pos)?;
        let op = self
            .state
            .decode(tag, self.data, &mut self.off, self.pos as u64)
            // invariant: the columns were produced by `push` or validated
            // by `from_encoded`, so every op decodes.
            .expect("invariant: trace columns are validated at construction");
        self.pos += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.tags.len() - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Ops<'_> {}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        let mut t = Trace::new();
        for op in iter {
            t.push(op);
        }
        t
    }
}

impl Extend<TraceOp> for Trace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceOp;
    type IntoIter = Ops<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    #[test]
    fn design_5a_worked_example_bytes() {
        // DESIGN.md §5a's worked single-op example, pinned byte for
        // byte: if this test breaks, the encoding changed and the doc
        // must be updated in the same commit.
        let pool3 = poat_core::PoolId::new(3).unwrap();
        let mut t = Trace::new();
        for _ in 0..7 {
            t.push(TraceOp::Fence); // ids 0..=6
        }
        t.push(TraceOp::Load {
            va: va(0x7F33_2000_1000),
            dep: None,
        }); // id 7: leaves prev_va = 0x7F33_2000_1000
        t.push(TraceOp::NvLoad {
            oid: ObjectId::new(pool3, 0x40),
            va: va(0x7F33_2000_1000),
            dep: None,
        }); // id 8: leaves prev_oid = 0x3_0000_0040
        let (tags_before, data_before) = {
            let (tg, d) = t.encoded_columns();
            (tg.len(), d.len())
        };
        let id = t.push(TraceOp::NvLoad {
            oid: ObjectId::new(pool3, 0x80),
            va: va(0x7F33_2000_1040),
            dep: Some(7),
        });
        assert_eq!(id, 9);
        let (tags, data) = t.encoded_columns();
        assert_eq!(tags[tags_before..], [0x0B], "tag: flags=00001, kind=011");
        assert_eq!(
            data[data_before..],
            [0x80, 0x01, 0x80, 0x01, 0x01],
            "oid delta +64, va delta +64 (zigzag 128 each), dep backref 1"
        );
    }

    fn collect(t: &Trace) -> Vec<TraceOp> {
        t.ops().collect()
    }

    #[test]
    fn push_returns_sequential_ids() {
        let mut t = Trace::new();
        let a = t.push(TraceOp::Load {
            va: va(1),
            dep: None,
        });
        let b = t.push(TraceOp::Store {
            va: va(2),
            dep: Some(a),
        });
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(
            collect(&t),
            vec![
                TraceOp::Load {
                    va: va(1),
                    dep: None
                },
                TraceOp::Store {
                    va: va(2),
                    dep: Some(0)
                },
            ]
        );
    }

    #[test]
    fn exec_batches_coalesce() {
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: 3 });
        t.push(TraceOp::Exec { n: 4 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.summary().instructions, 7);
        assert_eq!(collect(&t), vec![TraceOp::Exec { n: 7 }]);
        t.push(TraceOp::Fence);
        t.push(TraceOp::Exec { n: 1 });
        assert_eq!(t.len(), 3, "fence breaks coalescing");
    }

    #[test]
    fn exec_coalesces_across_inline_boundary() {
        // 20 + 20 = 40 crosses the 31-instruction inline-tag limit, so
        // the merged batch must be re-encoded with a payload varint.
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: 20 });
        t.push(TraceOp::Exec { n: 20 });
        assert_eq!(t.len(), 1);
        assert_eq!(collect(&t), vec![TraceOp::Exec { n: 40 }]);
        // And a large batch followed by a small one merges in place.
        t.push(TraceOp::Exec { n: 2 });
        assert_eq!(collect(&t), vec![TraceOp::Exec { n: 42 }]);
        assert_eq!(t.summary().instructions, 42);
    }

    #[test]
    fn exec_overflow_splits_batches() {
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: u32::MAX });
        t.push(TraceOp::Exec { n: 5 });
        assert_eq!(t.len(), 2, "u32 overflow starts a new batch");
        assert_eq!(t.summary().instructions, u32::MAX as u64 + 5);
    }

    #[test]
    fn untraced_phase_encodes_nothing_but_counts_positions() {
        // Every op kind, empty and overflowing Exec batches, and coalescing
        // into the batch the recorded prefix ends with.
        let ops = [
            TraceOp::Exec { n: 4 },
            TraceOp::Exec { n: 0 },
            TraceOp::Load {
                va: va(64),
                dep: Some(0),
            },
            TraceOp::Exec { n: u32::MAX },
            TraceOp::Exec { n: 1 },
            TraceOp::Exec { n: 2 },
            TraceOp::Clwb { va: va(64) },
            TraceOp::Fence,
            TraceOp::Branch { mispredicted: true },
            TraceOp::NvStore {
                oid: ObjectId::new(poat_core::PoolId::new(1).unwrap(), 8),
                va: va(72),
                dep: None,
            },
        ];
        let mut recorded = Trace::new();
        recorded.push(TraceOp::Store {
            va: va(8),
            dep: None,
        });
        recorded.push(TraceOp::Exec { n: 2 });
        let mut untraced = recorded.clone();
        assert!(!untraced.set_untraced(true));
        for op in ops {
            recorded.push(op);
            assert_eq!(untraced.push(op), OpId::MAX);
            assert_eq!(untraced.position(), recorded.len() as u64, "after {op:?}");
        }
        assert!(untraced.set_untraced(false));
        assert_eq!(untraced.len(), 2, "nothing encoded");
        assert_eq!(untraced.summary().instructions, 3);
        // The encoder state is the prefix's: the next batch coalesces
        // into its trailing Exec, and addresses delta against its store.
        untraced.push(TraceOp::Exec { n: 1 });
        untraced.push(TraceOp::Load {
            va: va(16),
            dep: Some(0),
        });
        let mut expect = Trace::new();
        expect.push(TraceOp::Store {
            va: va(8),
            dep: None,
        });
        expect.push(TraceOp::Exec { n: 3 });
        expect.push(TraceOp::Load {
            va: va(16),
            dep: Some(0),
        });
        assert_eq!(untraced, expect);
    }

    #[test]
    fn empty_exec_batches_are_dropped() {
        let mut t = Trace::new();
        assert_eq!(t.push(TraceOp::Exec { n: 0 }), 0, "no-op on empty trace");
        assert!(t.is_empty());
        let a = t.push(TraceOp::Load {
            va: va(8),
            dep: None,
        });
        assert_eq!(t.push(TraceOp::Exec { n: 0 }), a, "returns previous id");
        assert_eq!(t.len(), 1);
        let b = t.push(TraceOp::Load {
            va: va(16),
            dep: Some(a),
        });
        assert_eq!(b, 1, "ids unaffected by dropped batches");
        assert_eq!(t.summary().instructions, 2);
    }

    #[test]
    fn forward_deps_normalize_to_none() {
        // A dep must reference an earlier op; self/forward references are
        // recorded as None (the models treated them as ready-at-zero).
        let mut t = Trace::new();
        t.push(TraceOp::Load {
            va: va(8),
            dep: Some(0), // self-reference at id 0
        });
        t.push(TraceOp::Store {
            va: va(16),
            dep: Some(99), // forward reference
        });
        assert_eq!(
            collect(&t),
            vec![
                TraceOp::Load {
                    va: va(8),
                    dep: None
                },
                TraceOp::Store {
                    va: va(16),
                    dep: None
                },
            ]
        );
    }

    #[test]
    fn summary_counts_every_kind() {
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: 10 });
        t.push(TraceOp::Load {
            va: va(1),
            dep: None,
        });
        t.push(TraceOp::Store {
            va: va(2),
            dep: None,
        });
        t.push(TraceOp::NvLoad {
            oid: ObjectId::NULL,
            va: va(3),
            dep: None,
        });
        t.push(TraceOp::NvStore {
            oid: ObjectId::NULL,
            va: va(4),
            dep: None,
        });
        t.push(TraceOp::Clwb { va: va(5) });
        t.push(TraceOp::Fence);
        t.push(TraceOp::Branch { mispredicted: true });
        t.push(TraceOp::Branch {
            mispredicted: false,
        });
        let s = t.summary();
        assert_eq!(s.instructions, 18);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.nvloads, 1);
        assert_eq!(s.nvstores, 1);
        assert_eq!(s.clwbs, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.branches, 2);
        assert_eq!(s.mispredictions, 1);
        // The incremental summary matches a recomputation from the stream.
        let mut recomputed = TraceSummary::default();
        for op in t.ops() {
            recomputed.account(&op);
        }
        assert_eq!(s, recomputed);
    }

    #[test]
    fn op_classification() {
        assert!(TraceOp::Load {
            va: va(0),
            dep: None
        }
        .is_memory());
        assert!(TraceOp::NvStore {
            oid: ObjectId::NULL,
            va: va(0),
            dep: None
        }
        .is_persistent_access());
        assert!(!TraceOp::Fence.is_memory());
        assert_eq!(TraceOp::Exec { n: 9 }.instructions(), 9);
        assert_eq!(TraceOp::Fence.instructions(), 1);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = vec![TraceOp::Exec { n: 2 }, TraceOp::Fence]
            .into_iter()
            .collect();
        assert_eq!(t.summary().instructions, 3);
    }

    #[test]
    fn roundtrip_every_kind_with_extreme_values() {
        let ops = vec![
            TraceOp::Exec { n: 1 },
            TraceOp::Load {
                va: va(u64::MAX),
                dep: None,
            },
            TraceOp::Store {
                va: va(0),
                dep: Some(1),
            },
            TraceOp::NvLoad {
                oid: ObjectId::from_raw(u64::MAX),
                va: va(0x7FFF_FFFF_FFFF),
                dep: Some(0),
            },
            TraceOp::NvStore {
                oid: ObjectId::from_raw(0),
                va: va(1),
                dep: Some(3),
            },
            TraceOp::Clwb { va: va(1 << 47) },
            TraceOp::Fence,
            TraceOp::Branch { mispredicted: true },
            TraceOp::Exec { n: u32::MAX },
        ];
        let t: Trace = ops.iter().copied().collect();
        assert_eq!(collect(&t), ops);
    }

    #[test]
    fn bytes_per_op_stays_in_budget() {
        // A pointer-chase-like stream: nearby addresses, near deps.
        let mut t = Trace::new();
        let mut prev = None;
        for i in 0..1000u64 {
            t.push(TraceOp::Exec { n: 4 });
            prev = Some(t.push(TraceOp::Load {
                va: va(0x2000_0000_0000 + i * 64),
                dep: prev,
            }));
        }
        assert!(
            t.encoded_bytes() <= 12 * t.len(),
            "{} bytes for {} ops",
            t.encoded_bytes(),
            t.len()
        );
    }

    #[test]
    fn from_encoded_validates() {
        let mut t = Trace::new();
        t.push(TraceOp::Load {
            va: va(0x1000),
            dep: None,
        });
        t.push(TraceOp::Exec { n: 100 });
        let (tags, data) = t.encoded_columns();
        let rebuilt = Trace::from_encoded(tags.to_vec(), data.to_vec()).unwrap();
        assert_eq!(rebuilt, t);
        assert_eq!(rebuilt.summary(), t.summary());

        // Truncated payload.
        let r = Trace::from_encoded(tags.to_vec(), data[..data.len() - 1].to_vec());
        assert_eq!(r, Err(TraceCorruption::Truncated));
        // Trailing payload.
        let mut fat = data.to_vec();
        fat.push(0);
        assert_eq!(
            Trace::from_encoded(tags.to_vec(), fat),
            Err(TraceCorruption::TrailingData)
        );
        // Undefined flag bits on a Fence.
        assert_eq!(
            Trace::from_encoded(vec![K_FENCE | F_BIT0], Vec::new()),
            Err(TraceCorruption::BadTag(K_FENCE | F_BIT0))
        );
        // A dep backreference before op 0.
        assert_eq!(
            Trace::from_encoded(vec![K_LOAD | F_BIT0], vec![0, 5]),
            Err(TraceCorruption::BadDep)
        );
        // An overlong varint.
        assert_eq!(
            Trace::from_encoded(vec![K_LOAD], vec![0x80; 11]),
            Err(TraceCorruption::BadVarint)
        );
    }

    #[test]
    fn from_encoded_continues_coalescing() {
        let mut t = Trace::new();
        t.push(TraceOp::Fence);
        t.push(TraceOp::Exec { n: 3 });
        let (tags, data) = t.encoded_columns();
        let mut rebuilt = Trace::from_encoded(tags.to_vec(), data.to_vec()).unwrap();
        rebuilt.push(TraceOp::Exec { n: 4 });
        assert_eq!(rebuilt.len(), 2, "trailing batch still coalesces");
        assert_eq!(
            rebuilt.ops().last(),
            Some(TraceOp::Exec { n: 7 }),
            "merged across from_encoded"
        );
    }

    /// A mixed-kind stream with deltas and deps crossing any chunk cut.
    fn mixed_trace(n: u64) -> Trace {
        let mut t = Trace::new();
        let mut prev = None;
        for i in 0..n {
            t.push(TraceOp::Exec { n: 2 });
            prev = Some(t.push(TraceOp::Load {
                va: va(0x2000_0000_0000 + (i % 17) * 4096 + i * 8),
                dep: prev,
            }));
            if i % 5 == 0 {
                t.push(TraceOp::NvStore {
                    oid: ObjectId::from_raw(0x3_0000_0000 + i * 64),
                    va: va(0x7F00_0000_0000 + i * 256),
                    dep: prev,
                });
                t.push(TraceOp::Clwb {
                    va: va(0x7F00_0000_0000 + i * 256),
                });
                t.push(TraceOp::Fence);
            }
            if i % 7 == 0 {
                t.push(TraceOp::Branch {
                    mispredicted: i % 14 == 0,
                });
            }
        }
        t
    }

    #[test]
    fn chunk_bounds_cover_the_trace_exactly() {
        let t = mixed_trace(200);
        for per in [1, 7, 64, 1000] {
            let bounds = t.chunk_bounds(per);
            assert_eq!(bounds.iter().map(|b| b.ops).sum::<usize>(), t.len());
            assert_eq!(
                bounds.iter().map(|b| b.payload_len).sum::<usize>(),
                t.encoded_bytes() - t.len()
            );
            let mut expect_op = 0u64;
            let mut expect_off = 0usize;
            for b in &bounds {
                assert_eq!(b.first_op, expect_op);
                assert_eq!(b.payload_off, expect_off);
                assert!(b.ops <= per.max(1));
                expect_op += b.ops as u64;
                expect_off += b.payload_len;
            }
        }
        assert!(Trace::new().chunk_bounds(8).is_empty());
    }

    #[test]
    fn checked_ops_matches_unchecked_decode() {
        let t = mixed_trace(80);
        let (tags, data) = t.encoded_columns();
        let checked: Result<Vec<TraceOp>, TraceCorruption> = CheckedOps::new(tags, data).collect();
        assert_eq!(checked.unwrap(), t.ops().collect::<Vec<_>>());
    }

    #[test]
    fn checked_ops_resumes_from_chunk_snapshots() {
        let t = mixed_trace(90);
        let whole: Vec<TraceOp> = t.ops().collect();
        let (tags, data) = t.encoded_columns();
        let mut decoded = Vec::new();
        for b in t.chunk_bounds(29) {
            let chunk_tags = &tags[b.first_op as usize..b.first_op as usize + b.ops];
            let chunk_data = &data[b.payload_off..b.payload_off + b.payload_len];
            let co = CheckedOps::resume(chunk_tags, chunk_data, b.first_op, b.prev_va, b.prev_oid);
            for r in co {
                decoded.push(r.unwrap());
            }
        }
        assert_eq!(decoded, whole);
    }

    #[test]
    fn checked_ops_surfaces_errors_and_fuses() {
        // Trailing payload garbage.
        let t = mixed_trace(10);
        let (tags, data) = t.encoded_columns();
        let mut fat = data.to_vec();
        fat.push(0x00);
        let results: Vec<_> = CheckedOps::new(tags, &fat).collect();
        assert_eq!(
            results.last(),
            Some(&Err(TraceCorruption::TrailingData)),
            "trailing garbage is the final item"
        );
        assert_eq!(results.len(), t.len() + 1);

        // Truncated payload: fused after the first error.
        let cut = &data[..data.len() - 1];
        let mut it = CheckedOps::new(tags, cut);
        let mut saw_err = false;
        for r in it.by_ref() {
            if r.is_err() {
                assert_eq!(r, Err(TraceCorruption::Truncated));
                saw_err = true;
            } else {
                assert!(!saw_err, "no items after the first error");
            }
        }
        assert!(saw_err);
        assert_eq!(it.next(), None, "fused");

        // Undefined flag bits.
        let bad: Vec<_> = CheckedOps::new(&[K_FENCE | F_BIT0], &[]).collect();
        assert_eq!(bad, vec![Err(TraceCorruption::BadTag(K_FENCE | F_BIT0))]);
    }

    #[test]
    fn pushing_after_iteration_keeps_deltas_consistent() {
        let mut t = Trace::new();
        t.push(TraceOp::Load {
            va: va(0x5000),
            dep: None,
        });
        let _ = collect(&t);
        t.push(TraceOp::Load {
            va: va(0x5008),
            dep: None,
        });
        assert_eq!(
            collect(&t)[1],
            TraceOp::Load {
                va: va(0x5008),
                dep: None
            }
        );
    }
}

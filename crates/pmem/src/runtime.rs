//! The persistent-object runtime (the paper's Table 1 API).
//!
//! [`Runtime`] is the process-level library state: the open-pool table, the
//! software translation structures (predictor + hash map), the hardware
//! POT image, and the instruction trace being emitted. It supports two
//! code-generation modes:
//!
//! * [`TranslationMode::Software`] — the BASE configurations: every
//!   dereference calls `oid_direct` (emitting its ≈17/≈97-instruction
//!   cost), after which field accesses are regular loads/stores at the
//!   translated virtual address.
//! * [`TranslationMode::Hardware`] — the OPT configurations: dereferences
//!   are free and every field access is a single `nvld`/`nvst` that the
//!   simulated POLB/POT translate.
//!
//! Failure safety (undo logging + `persist`) can be disabled to produce the
//! `_NTX` configurations of the paper (Table 7).

use poat_core::hash::IntMap;
use poat_core::{ObjectId, PoolId, Pot, VirtAddr, CACHE_LINE_BYTES, PAGE_BYTES};
use poat_nvm::{BoundaryKind, FaultPlan, NvMemory, PageTable};

use crate::costs;
use crate::error::PmemError;
use crate::pool::{header, OpenPool, PoolDirectory, PoolMode, POOL_MAGIC};
use crate::trace::{OpId, Trace, TraceOp};
use crate::translate::{SoftTranslator, XlatStats};

/// How ObjectID dereferences are compiled (paper Table 7: BASE vs OPT).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslationMode {
    /// BASE: software `oid_direct` before every dereference.
    Software,
    /// OPT: hardware `nvld`/`nvst` per access.
    Hardware,
}

/// Construction parameters for a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// NVM device capacity in bytes.
    pub nvm_capacity: u64,
    /// Seed for the process' address-space randomization.
    pub aslr_seed: u64,
    /// BASE (software) or OPT (hardware) translation.
    pub mode: TranslationMode,
    /// Whether `persist` and the transaction API are active. When false
    /// (the `_NTX` configurations) they become no-ops and pools are created
    /// without a log area.
    pub failure_safety: bool,
    /// Per-pool undo-log area size in bytes (ignored when `failure_safety`
    /// is false).
    pub pool_log_bytes: u64,
    /// Hardware POT capacity (paper default: 16384 entries).
    pub pot_entries: usize,
    /// Software translation-map capacity.
    pub xlat_slots: usize,
    /// Whether `oid_direct` uses the last-value predictor (disable for
    /// the predictor ablation; BASE then pays the full look-up always).
    pub last_value_predictor: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            nvm_capacity: 2 << 30,
            aslr_seed: 1,
            mode: TranslationMode::Software,
            failure_safety: true,
            pool_log_bytes: 8192,
            pot_entries: 16384,
            xlat_slots: 16384,
            last_value_predictor: true,
        }
    }
}

impl RuntimeConfig {
    /// The BASE configuration (software translation, failure safety on).
    pub fn base() -> Self {
        Self::default()
    }

    /// The OPT configuration (hardware translation, failure safety on).
    pub fn opt() -> Self {
        RuntimeConfig {
            mode: TranslationMode::Hardware,
            ..Self::default()
        }
    }

    /// Disables failure safety (the `_NTX` variants).
    pub fn without_failure_safety(mut self) -> Self {
        self.failure_safety = false;
        self
    }
}

/// Counters over a runtime's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Pools created.
    pub pools_created: u64,
    /// Pools re-opened.
    pub pools_opened: u64,
    /// Successful `pmalloc`/`tx_pmalloc` calls.
    pub pmallocs: u64,
    /// Successful `pfree` calls (including deferred transactional frees).
    pub pfrees: u64,
    /// Transactions begun.
    pub tx_begun: u64,
    /// Transactions committed.
    pub tx_committed: u64,
    /// Transactions aborted (explicitly or by recovery).
    pub tx_aborted: u64,
    /// `persist` calls executed.
    pub persists: u64,
    /// Undo records applied (aborts + recovery).
    pub undo_applied: u64,
    /// Crash-recovery passes executed.
    pub recoveries: u64,
    /// Pools whose interrupted creation was rolled back by recovery.
    pub creations_rolled_back: u64,
}

/// In-flight transaction bookkeeping (volatile; the durable state is the
/// pool's log area).
#[derive(Clone, Debug)]
pub(crate) struct TxState {
    /// Pool whose log area holds this transaction's records.
    pub pool: PoolId,
    /// Ranges snapshotted by `tx_add_range` (persisted at commit).
    pub data_records: Vec<(ObjectId, u32)>,
    /// Frees deferred to commit.
    pub frees: Vec<ObjectId>,
    /// Next free byte in the log area.
    pub tail: u32,
}

/// A dereferenced persistent object: the handle through which fields are
/// read and written.
///
/// In software mode a `PRef` is the result of an `oid_direct` call (the
/// translated address); in hardware mode it is just the ObjectID (the
/// translation happens inside each `nvld`/`nvst`). Either way, the workload
/// code is identical — which is the programmability point of the paper.
#[derive(Clone, Copy, Debug)]
pub struct PRef {
    pub(crate) oid: ObjectId,
    pub(crate) va: VirtAddr,
    pub(crate) dep: Option<OpId>,
    /// True for handle-based library-internal references (the pool base is
    /// already in a register, as NVML's `pop` pointer is), which access
    /// memory with plain loads/stores in *both* modes — no `oid_direct`
    /// and no `nvld`/`nvst`.
    pub(crate) direct: bool,
}

impl PRef {
    /// The ObjectID this handle refers to.
    pub fn oid(&self) -> ObjectId {
        self.oid
    }

    /// The translated virtual address (for diagnostics).
    pub fn va(&self) -> VirtAddr {
        self.va
    }
}

/// Exported machine state the timing simulator needs alongside a trace.
#[derive(Clone, Debug)]
pub struct MachineState {
    /// The hardware POT image at end of run (pool → virtual base).
    pub pot: Pot,
    /// The page table (virtual page → physical frame).
    pub page_table: PageTable,
}

/// The persistent-object runtime. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Runtime {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) mem: NvMemory,
    pub(crate) dir: PoolDirectory,
    pub(crate) open: IntMap<u32, OpenPool>,
    pub(crate) pot: Pot,
    pub(crate) xlat: SoftTranslator,
    pub(crate) trace: Trace,
    pub(crate) stats: RuntimeStats,
    pub(crate) tx: Option<TxState>,
    aslr_epoch: u64,
}

impl Runtime {
    /// Creates a runtime over a fresh NVM device.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let mem = NvMemory::new(cfg.nvm_capacity, cfg.aslr_seed);
        Runtime {
            pot: Pot::new(cfg.pot_entries),
            xlat: SoftTranslator::with_predictor(cfg.xlat_slots, cfg.last_value_predictor),
            mem,
            dir: PoolDirectory::new(),
            open: IntMap::default(),
            trace: Trace::new(),
            stats: RuntimeStats::default(),
            tx: None,
            aslr_epoch: 0,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Pool management (paper Table 1, "Pool Management")
    // ------------------------------------------------------------------

    /// Effective per-pool log-area size for the current configuration.
    fn log_bytes(&self) -> u64 {
        if self.cfg.failure_safety {
            self.cfg.pool_log_bytes
        } else {
            0
        }
    }

    /// `pool_create(name, size)`: creates and maps a pool.
    ///
    /// `size` is rounded up to whole pages and must leave room for the
    /// header, the log area, and at least one allocation.
    ///
    /// # Errors
    ///
    /// [`PmemError::PoolExists`] if the name is taken, or
    /// [`PmemError::Nvm`] if memory runs out.
    pub fn pool_create(&mut self, name: &str, size: u64) -> Result<PoolId, PmemError> {
        self.pool_create_with_mode(name, size, PoolMode::ReadWrite)
    }

    /// `pool_create(name, size, mode)` with the Table 1 `mode` argument:
    /// a pool created [`PoolMode::ReadOnly`] can be initialized here (the
    /// header format is part of creation) but rejects all subsequent
    /// writes, allocations, and transactions.
    ///
    /// # Errors
    ///
    /// As [`pool_create`](Self::pool_create).
    pub fn pool_create_with_mode(
        &mut self,
        name: &str,
        size: u64,
        mode: PoolMode,
    ) -> Result<PoolId, PmemError> {
        if self.dir.contains(name) {
            return Err(PmemError::PoolExists(name.to_owned()));
        }
        let min = header::SIZE_BYTES as u64 + self.log_bytes() + 64;
        let size = size.max(min).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let (base, frames) = self.mem.map_new(size)?;
        let id = self.dir.register(name, size, frames, mode);
        // Map read-write during creation so the header can be formatted;
        // the requested mode takes effect below.
        self.install_mapping(id, base, size, self.log_bytes(), PoolMode::ReadWrite)?;
        self.trace.push(TraceOp::Exec {
            n: costs::POOL_OPEN_EXEC,
        });

        // Format the header through the pool handle (direct path): this
        // cost is identical in BASE and OPT, as in NVML. Two-phase
        // creation commit: every field is made durable first, then the
        // magic is written and persisted on its own. Frames arrive
        // zeroed, so until the second persist the pool reads as
        // unformatted (magic 0) and recovery rolls the creation back —
        // no torn mixture of the two states is ever observable.
        let h = self.direct_ref(id, 0)?;
        self.write_u64_at(&h, header::SIZE, size)?;
        self.write_u64_at(&h, header::ROOT_OFF, 0)?;
        self.write_u64_at(&h, header::ROOT_SIZE, 0)?;
        let data_start = header::SIZE_BYTES as u64 + self.log_bytes();
        self.write_u64_at(&h, header::BUMP, data_start)?;
        self.write_u64_at(&h, header::FREE_HEAD, 0)?;
        self.write_u64_at(&h, header::LOG_BYTES, self.log_bytes())?;
        // faultpoint: crash-sweep pool-create (header fields durable before magic)
        self.raw_persist_direct(id, 0, header::SIZE_BYTES as u64)?;
        self.write_u64_at(&h, header::MAGIC, POOL_MAGIC)?;
        // faultpoint: crash-sweep pool-create (magic publish)
        self.raw_persist_direct(id, header::MAGIC, 8)?;
        self.open.get_mut(&id.raw()).expect("just installed").mode = mode;
        self.stats.pools_created += 1;
        Ok(id)
    }

    /// `pool_open(name)`: reopens a previously created pool, mapping it at
    /// a (new, randomized) base. Idempotent if already open.
    ///
    /// # Errors
    ///
    /// [`PmemError::PoolNotFound`] if the name was never created.
    pub fn pool_open(&mut self, name: &str) -> Result<PoolId, PmemError> {
        let meta = self
            .dir
            .by_name(name)
            .ok_or_else(|| PmemError::PoolNotFound(name.to_owned()))?
            .clone();
        if self.open.contains_key(&meta.id.raw()) {
            return Ok(meta.id);
        }
        let base = self.mem.map_frames(&meta.frames)?;
        // The log-area size is read from the durable header, not the
        // current config: a pool created with logging keeps its log area.
        // Permissions are re-checked against the directory (Table 1).
        self.install_mapping(meta.id, base, meta.size, 0, meta.mode)?;
        let h = self.direct_ref(meta.id, 0)?;
        let (magic, _) = self.read_u64_at(&h, header::MAGIC)?;
        if magic != POOL_MAGIC {
            // The magic is persisted last during creation (two-phase
            // commit), so a missing magic means the creation never
            // committed. Undo the partial install and report it;
            // recovery rolls such pools back entirely.
            self.open.remove(&meta.id.raw());
            self.pot.remove(meta.id);
            self.xlat.remove(meta.id);
            self.mem.unmap(base)?;
            return Err(PmemError::PoolUnformatted(name.to_owned()));
        }
        let (log_bytes, _) = self.read_u64_at(&h, header::LOG_BYTES)?;
        self.open
            .get_mut(&meta.id.raw())
            .expect("just installed")
            .log_bytes = log_bytes;
        self.trace.push(TraceOp::Exec {
            n: costs::POOL_OPEN_EXEC,
        });
        self.stats.pools_opened += 1;
        Ok(meta.id)
    }

    fn install_mapping(
        &mut self,
        id: PoolId,
        base: VirtAddr,
        size: u64,
        log_bytes: u64,
        mode: PoolMode,
    ) -> Result<(), PmemError> {
        self.open.insert(
            id.raw(),
            OpenPool {
                id,
                base,
                size,
                log_bytes,
                mode,
            },
        );
        // Both tables are sized from `RuntimeConfig`; running out means
        // the configuration cannot hold another open pool. Undo the
        // partial install so the runtime stays consistent.
        if self.pot.insert(id, base).is_err() {
            self.open.remove(&id.raw());
            return Err(PmemError::XlatTableFull);
        }
        if let Err(e) = self.xlat.insert(id, base) {
            self.pot.remove(id);
            self.open.remove(&id.raw());
            return Err(e);
        }
        Ok(())
    }

    /// `pool_close(pool)`: unmaps the pool from the address space. Its
    /// contents stay durable and it can be re-opened later.
    ///
    /// # Errors
    ///
    /// [`PmemError::PoolNotOpen`] if it is not open, or
    /// [`PmemError::NestedTransaction`] if a transaction is using it.
    pub fn pool_close(&mut self, pool: PoolId) -> Result<(), PmemError> {
        if matches!(&self.tx, Some(tx) if tx.pool == pool) {
            return Err(PmemError::NestedTransaction);
        }
        let p = self
            .open
            .remove(&pool.raw())
            .ok_or(PmemError::PoolNotOpen(ObjectId::new(pool, 0)))?;
        self.mem.unmap(p.base)?;
        self.pot.remove(pool);
        self.xlat.remove(pool);
        Ok(())
    }

    /// Permanently deletes a pool: closes it if open, removes it from the
    /// durable directory, and releases its NVM frames (the `pmempool rm`
    /// operation). The pool's id is never reused; every ObjectID into it
    /// becomes permanently invalid.
    ///
    /// # Errors
    ///
    /// [`PmemError::PoolNotFound`] if no pool has this name;
    /// [`PmemError::NestedTransaction`] if an active transaction logs into
    /// it.
    pub fn pool_delete(&mut self, name: &str) -> Result<(), PmemError> {
        let meta = self
            .dir
            .by_name(name)
            .ok_or_else(|| PmemError::PoolNotFound(name.to_owned()))?
            .clone();
        if self.open.contains_key(&meta.id.raw()) {
            self.pool_close(meta.id)?;
        }
        let meta = self.dir.unregister(name).expect("checked above");
        self.mem.release_frames(&meta.frames);
        Ok(())
    }

    /// `pool_root(pool, size)`: returns the pool's root object, allocating
    /// it on first use.
    ///
    /// # Errors
    ///
    /// Propagates allocation and access failures.
    pub fn pool_root(&mut self, pool: PoolId, size: u64) -> Result<ObjectId, PmemError> {
        let h = self.direct_ref(pool, 0)?;
        let (off, _) = self.read_u64_at(&h, header::ROOT_OFF)?;
        if off != 0 {
            return Ok(ObjectId::new(pool, off as u32));
        }
        let root = self.pmalloc(pool, size)?;
        let h = self.direct_ref(pool, 0)?;
        self.write_u64_at(&h, header::ROOT_OFF, root.offset() as u64)?;
        self.write_u64_at(&h, header::ROOT_SIZE, size)?;
        // faultpoint: crash-sweep root-install (root off/size published together)
        self.raw_persist_direct(pool, 0, header::SIZE_BYTES as u64)?;
        Ok(root)
    }

    // ------------------------------------------------------------------
    // Dereference + typed access (the data path being accelerated)
    // ------------------------------------------------------------------

    pub(crate) fn pool_of(&self, oid: ObjectId) -> Result<OpenPool, PmemError> {
        let pool = oid.pool().ok_or(PmemError::InvalidObjectId(oid))?;
        self.open
            .get(&pool.raw())
            .copied()
            .ok_or(PmemError::PoolNotOpen(oid))
    }

    /// Dereferences an ObjectID, producing a handle for field accesses.
    ///
    /// In software (BASE) mode this emits the `oid_direct` instruction
    /// cost; in hardware (OPT) mode it is free. `dep` names the trace op
    /// that produced the ObjectID (e.g. the load of a `next` field), so the
    /// out-of-order model sees the true pointer-chasing critical path.
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] for NULL or out-of-pool references,
    /// [`PmemError::PoolNotOpen`] if the pool is not mapped.
    pub fn deref(&mut self, oid: ObjectId, dep: Option<OpId>) -> Result<PRef, PmemError> {
        let p = self.pool_of(oid)?;
        if (oid.offset() as u64) >= p.size {
            return Err(PmemError::InvalidObjectId(oid));
        }
        match self.cfg.mode {
            TranslationMode::Hardware => Ok(PRef {
                oid,
                va: p.base.offset(oid.offset() as u64),
                dep,
                direct: false,
            }),
            TranslationMode::Software => {
                let (va, xdep) = self
                    .xlat
                    .translate(oid, dep, &mut self.trace)
                    .ok_or(PmemError::PoolNotOpen(oid))?;
                Ok(PRef {
                    oid,
                    va,
                    dep: Some(xdep),
                    direct: false,
                })
            }
        }
    }

    /// A library-internal reference reached through an in-register pool
    /// handle (NVML's `pop` pointer): plain loads/stores, no translation,
    /// in both modes. Used by the allocator and pool-header code.
    pub(crate) fn direct_ref(&mut self, pool: PoolId, offset: u32) -> Result<PRef, PmemError> {
        let p = self.pool_of(ObjectId::new(pool, 0))?;
        if (offset as u64) >= p.size {
            return Err(PmemError::InvalidObjectId(ObjectId::new(pool, offset)));
        }
        Ok(PRef {
            oid: ObjectId::new(pool, offset),
            va: p.base.offset(offset as u64),
            dep: None,
            direct: true,
        })
    }

    fn check_range(&self, r: &PRef, off: u32, len: u32) -> Result<ObjectId, PmemError> {
        let p = self.pool_of(r.oid)?;
        let end = r.oid.offset() as u64 + off as u64 + len as u64;
        if end > p.size {
            return Err(PmemError::InvalidObjectId(r.oid));
        }
        Ok(ObjectId::new(p.id, r.oid.offset() + off))
    }

    pub(crate) fn check_writable(&self, oid: ObjectId) -> Result<(), PmemError> {
        let p = self.pool_of(oid)?;
        if p.mode == PoolMode::ReadOnly {
            return Err(PmemError::ReadOnlyPool(p.id.raw()));
        }
        Ok(())
    }

    fn emit_access(
        &mut self,
        oid: ObjectId,
        va: VirtAddr,
        dep: Option<OpId>,
        store: bool,
        direct: bool,
    ) -> OpId {
        let hardware = !direct && self.cfg.mode == TranslationMode::Hardware;
        let op = match (hardware, store) {
            (true, false) => TraceOp::NvLoad { oid, va, dep },
            (true, true) => TraceOp::NvStore { oid, va, dep },
            (false, false) => TraceOp::Load { va, dep },
            (false, true) => TraceOp::Store { va, dep },
        };
        self.trace.push(op)
    }

    /// Reads the `u64` field at byte offset `off` of the object.
    ///
    /// Returns the value and the id of the emitted load, for threading as a
    /// dependency into subsequent dereferences.
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] if the access leaves the pool.
    pub fn read_u64_at(&mut self, r: &PRef, off: u32) -> Result<(u64, OpId), PmemError> {
        let oid = self.check_range(r, off, 8)?;
        let va = r.va.offset(off as u64);
        let v = self.mem.read_u64(va)?;
        let id = self.emit_access(oid, va, r.dep, false, r.direct);
        Ok((v, id))
    }

    /// Writes the `u64` field at byte offset `off` of the object.
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] if the access leaves the pool.
    pub fn write_u64_at(&mut self, r: &PRef, off: u32, v: u64) -> Result<OpId, PmemError> {
        self.check_writable(r.oid)?;
        let oid = self.check_range(r, off, 8)?;
        let va = r.va.offset(off as u64);
        self.mem.write_u64(va, v)?;
        Ok(self.emit_access(oid, va, r.dep, true, r.direct))
    }

    /// Reads `buf.len()` bytes starting at offset `off`, emitting one
    /// memory operation per 8 bytes (the word-copy loop a compiler emits).
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] if the access leaves the pool.
    pub fn read_bytes_at(&mut self, r: &PRef, off: u32, buf: &mut [u8]) -> Result<OpId, PmemError> {
        let oid = self.check_range(r, off, buf.len() as u32)?;
        let va = r.va.offset(off as u64);
        self.mem.read(va, buf)?;
        let mut last = 0;
        for w in 0..(buf.len() as u64).div_ceil(8) {
            last = self.emit_access(
                oid.add((w * 8) as u32),
                va.offset(w * 8),
                r.dep,
                false,
                r.direct,
            );
        }
        Ok(last)
    }

    /// Writes `data` starting at offset `off` (one op per 8 bytes).
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] if the access leaves the pool.
    pub fn write_bytes_at(&mut self, r: &PRef, off: u32, data: &[u8]) -> Result<OpId, PmemError> {
        self.check_writable(r.oid)?;
        let oid = self.check_range(r, off, data.len() as u32)?;
        let va = r.va.offset(off as u64);
        self.mem.write(va, data)?;
        let mut last = 0;
        for w in 0..(data.len() as u64).div_ceil(8) {
            last = self.emit_access(
                oid.add((w * 8) as u32),
                va.offset(w * 8),
                r.dep,
                true,
                r.direct,
            );
        }
        Ok(last)
    }

    /// Convenience: dereference + read a `u64` in one call.
    ///
    /// # Errors
    ///
    /// See [`deref`](Self::deref) and [`read_u64_at`](Self::read_u64_at).
    pub fn read_u64(&mut self, oid: ObjectId) -> Result<u64, PmemError> {
        let r = self.deref(oid, None)?;
        Ok(self.read_u64_at(&r, 0)?.0)
    }

    /// Convenience: dereference + write a `u64` in one call.
    ///
    /// # Errors
    ///
    /// See [`deref`](Self::deref) and [`write_u64_at`](Self::write_u64_at).
    pub fn write_u64(&mut self, oid: ObjectId, v: u64) -> Result<(), PmemError> {
        let r = self.deref(oid, None)?;
        self.write_u64_at(&r, 0, v)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability (paper Table 1, "Durability")
    // ------------------------------------------------------------------

    /// Emits clwb-per-line + fence for `[va, va+len)`.
    ///
    /// Every `clwb` and `fence` is one persist boundary of the armed
    /// [`FaultPlan`] (if any): when the plan trips, the simulated process
    /// "dies" here with [`PmemError::InjectedCrash`], which the
    /// crash-point sweep turns into a device crash + recovery.
    fn persist_lines(&mut self, va: VirtAddr, len: u64) -> Result<(), PmemError> {
        if self.mem.crash_pending() {
            return Err(PmemError::InjectedCrash);
        }
        let mut line = va.line_base();
        while line.raw() < va.raw() + len {
            self.mem.clwb(line)?;
            self.trace.push(TraceOp::Clwb { va: line });
            if self.mem.crash_pending() {
                return Err(PmemError::InjectedCrash);
            }
            line = line.offset(CACHE_LINE_BYTES);
        }
        self.mem.fence();
        self.trace.push(TraceOp::Fence);
        if self.mem.crash_pending() {
            return Err(PmemError::InjectedCrash);
        }
        Ok(())
    }

    /// Persist without the NTX gate — used internally for log records,
    /// which must be durable whenever failure safety is on. Translates
    /// the ObjectID like any dereference.
    pub(crate) fn raw_persist(&mut self, oid: ObjectId, len: u64) -> Result<(), PmemError> {
        if !self.cfg.failure_safety || len == 0 {
            return Ok(());
        }
        let r = self.deref(oid, None)?;
        self.persist_lines(r.va, len)
    }

    /// Persist through an already-dereferenced handle: the caller holds
    /// the translated pointer (as C library code does after writing), so
    /// no new translation is charged. NTX-gated like all persists.
    pub(crate) fn persist_at(&mut self, r: &PRef, off: u32, len: u64) -> Result<(), PmemError> {
        if !self.cfg.failure_safety || len == 0 {
            return Ok(());
        }
        self.check_range(r, off, len as u32)?;
        self.persist_lines(r.va.offset(off as u64), len)
    }

    /// Persist of handle-reachable metadata (pool header, allocator
    /// blocks): no translation, mirroring NVML persisting via `pop`.
    pub(crate) fn raw_persist_direct(
        &mut self,
        pool: PoolId,
        offset: u32,
        len: u64,
    ) -> Result<(), PmemError> {
        if !self.cfg.failure_safety || len == 0 {
            return Ok(());
        }
        let r = self.direct_ref(pool, offset)?;
        self.persist_lines(r.va, len)
    }

    /// `persist(oid, size)`: makes `[oid, oid+size)` durable (clwb per
    /// line + sfence). A no-op in the `_NTX` configurations.
    ///
    /// # Errors
    ///
    /// [`PmemError::InvalidObjectId`] / [`PmemError::PoolNotOpen`] as for
    /// any dereference.
    pub fn persist(&mut self, oid: ObjectId, size: u64) -> Result<(), PmemError> {
        if !self.cfg.failure_safety {
            return Ok(());
        }
        self.stats.persists += 1;
        self.raw_persist(oid, size)
    }

    // ------------------------------------------------------------------
    // Workload compute emission
    // ------------------------------------------------------------------

    /// Emits `n` non-memory instructions (the workload's own compute).
    pub fn exec(&mut self, n: u32) {
        if n > 0 {
            self.trace.push(TraceOp::Exec { n });
        }
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, mispredicted: bool) {
        self.trace.push(TraceOp::Branch { mispredicted });
    }

    // ------------------------------------------------------------------
    // Recording
    // ------------------------------------------------------------------

    /// Runs `f` without recording it. Memory, persistence, the POT, the
    /// software translator and every counter change exactly as they
    /// would, but no op `f` emits reaches the trace, whose encoder state
    /// `f` leaves as it found it. Every op id `f` sees is [`OpId::MAX`],
    /// which no later op keeps as a dependency. Software-translation
    /// events keep the trace positions they would have had.
    ///
    /// A workload's setup phase runs inside it (TPC-C population): the
    /// paper measures only what follows, so encoding setup would only be
    /// thrown away.
    pub fn untraced<R>(&mut self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        let outer = self.trace.set_untraced(true);
        let r = f(self);
        self.trace.set_untraced(outer);
        r
    }

    // ------------------------------------------------------------------
    // Crash / recovery
    // ------------------------------------------------------------------

    /// Simulates a power failure and a subsequent process restart.
    ///
    /// All volatile state is lost: unpersisted cache lines (randomly, per
    /// `crash_seed`), the address-space layout (pools re-mapped at new
    /// randomized bases), the predictor, POT, and POLB contents, and any
    /// in-flight transaction. Every pool in the durable directory is then
    /// re-opened and its undo log replayed ([`RuntimeStats::recoveries`]).
    pub fn crash_and_recover(mut self, crash_seed: u64) -> Result<Runtime, PmemError> {
        self.aslr_epoch += 1;
        let new_seed = self
            .cfg
            .aslr_seed
            .wrapping_mul(0x1234_5678_9ABC_DEF1)
            .wrapping_add(self.aslr_epoch);
        self.mem.crash(crash_seed, new_seed);
        let mut rt = Runtime {
            cfg: self.cfg.clone(),
            mem: self.mem,
            dir: self.dir,
            open: IntMap::default(),
            pot: Pot::new(self.cfg.pot_entries),
            xlat: SoftTranslator::with_predictor(
                self.cfg.xlat_slots,
                self.cfg.last_value_predictor,
            ),
            trace: Trace::new(),
            stats: self.stats,
            tx: None,
            aslr_epoch: self.aslr_epoch,
        };
        rt.recover()?;
        Ok(rt)
    }

    /// Reopens every pool and rolls back uncommitted transactions —
    /// and uncommitted pool *creations* (a pool whose header magic never
    /// became durable is unregistered and its frames released).
    pub(crate) fn recover(&mut self) -> Result<(), PmemError> {
        self.stats.recoveries += 1;
        let names: Vec<String> = self.dir.iter().map(|m| m.name.clone()).collect();
        for name in &names {
            match self.pool_open(name) {
                Ok(_) => {}
                Err(PmemError::PoolUnformatted(_)) => {
                    let meta = self.dir.unregister(name).expect("listed above");
                    self.mem.release_frames(&meta.frames);
                    self.stats.creations_rolled_back += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let mut pools: Vec<PoolId> = self
            .open
            .values()
            .filter(|p| p.log_bytes > 0)
            .map(|p| p.id)
            .collect();
        pools.sort();
        for pool in pools {
            self.apply_undo(pool)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection (crash-point sweep support)
    // ------------------------------------------------------------------

    /// Arms a [`FaultPlan`] on the underlying device. Subsequent persist
    /// boundaries count toward the plan; when it trips, the next persist
    /// returns [`PmemError::InjectedCrash`].
    pub fn arm_fault_plan(&mut self, plan: FaultPlan) {
        self.mem.arm_faults(plan);
    }

    /// Persist boundaries (clwb + fence) executed since the last arming.
    pub fn persist_boundaries(&self) -> u64 {
        self.mem.persist_boundaries()
    }

    /// The kind of every boundary seen since arming, in order (recorded
    /// only when the armed plan asked for it).
    pub fn boundary_kinds(&self) -> Vec<BoundaryKind> {
        self.mem.boundary_kinds().to_vec()
    }

    /// A pool's full current contents, read straight from the memory
    /// system with no trace traffic: state digests and diagnostics.
    ///
    /// # Errors
    ///
    /// [`PmemError::PoolNotOpen`] if the pool is not mapped.
    pub fn pool_bytes(&mut self, pool: PoolId) -> Result<Vec<u8>, PmemError> {
        let p = self.pool_of(ObjectId::new(pool, 0))?;
        let mut buf = vec![0u8; p.size as usize];
        self.mem.read(p.base, &mut buf)?;
        Ok(buf)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one. Inside
    /// [`untraced`](Self::untraced) the phase goes on.
    pub fn take_trace(&mut self) -> Trace {
        let untraced = self.trace.set_untraced(false);
        let trace = std::mem::take(&mut self.trace);
        self.trace.set_untraced(untraced);
        trace
    }

    /// Runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Software-translation counters (drives Table 2).
    pub fn xlat_stats(&self) -> XlatStats {
        self.xlat.stats()
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Whether a transaction is currently active.
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Exports the machine state the timing simulator needs.
    pub fn machine_state(&self) -> MachineState {
        MachineState {
            pot: self.pot.clone(),
            page_table: self.mem.page_table().clone(),
        }
    }

    /// Number of currently open pools.
    pub fn open_pools(&self) -> usize {
        self.open.len()
    }

    /// The ids of all currently open pools (unordered).
    pub fn open_pool_ids(&self) -> Vec<PoolId> {
        self.open.values().map(|p| p.id).collect()
    }

    /// The durable pool directory (read-only view).
    pub fn dir(&self) -> &PoolDirectory {
        &self.dir
    }

    /// The usable data capacity of an open pool (size minus header/log).
    pub fn pool_data_capacity(&self, pool: PoolId) -> Option<u64> {
        self.open
            .get(&pool.raw())
            .map(|p| p.size - p.data_start() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        rt.write_u64(oid, 0xFEED).unwrap();
        assert_eq!(rt.read_u64(oid).unwrap(), 0xFEED);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        rt.pool_create("p", 1 << 16).unwrap();
        assert!(matches!(
            rt.pool_create("p", 1 << 16),
            Err(PmemError::PoolExists(_))
        ));
    }

    #[test]
    fn open_unknown_pool_fails() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        assert!(matches!(
            rt.pool_open("nope"),
            Err(PmemError::PoolNotFound(_))
        ));
    }

    #[test]
    fn close_then_reopen_preserves_data() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 32).unwrap();
        rt.write_u64(oid, 7).unwrap();
        rt.pool_close(pool).unwrap();
        assert!(matches!(rt.read_u64(oid), Err(PmemError::PoolNotOpen(_))));
        let pool2 = rt.pool_open("p").unwrap();
        assert_eq!(pool2, pool, "pool id is stable across reopen");
        assert_eq!(rt.read_u64(oid).unwrap(), 7);
    }

    #[test]
    fn root_object_is_stable() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let r1 = rt.pool_root(pool, 128).unwrap();
        let r2 = rt.pool_root(pool, 128).unwrap();
        assert_eq!(r1, r2);
        rt.write_u64(r1, 5).unwrap();
        assert_eq!(rt.read_u64(r2).unwrap(), 5);
    }

    #[test]
    fn software_mode_emits_translation_then_loads() {
        let mut rt = Runtime::new(RuntimeConfig::base());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 16).unwrap();
        rt.take_trace();
        let r = rt.deref(oid, None).unwrap();
        let (_, _) = rt.read_u64_at(&r, 0).unwrap();
        let s = rt.trace().summary();
        assert!(s.loads >= 3, "predictor globals + data load, got {s:?}");
        assert_eq!(s.nvloads, 0);
    }

    #[test]
    fn hardware_mode_emits_single_nvld() {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 16).unwrap();
        rt.take_trace();
        let r = rt.deref(oid, None).unwrap();
        rt.read_u64_at(&r, 0).unwrap();
        let s = rt.trace().summary();
        assert_eq!(s.nvloads, 1);
        assert_eq!(s.loads, 0);
        assert_eq!(s.instructions, 1, "one nvld replaces the whole oid_direct");
    }

    #[test]
    fn bounds_checked_access() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 14).unwrap();
        let oid = rt.pmalloc(pool, 16).unwrap();
        let r = rt.deref(oid, None).unwrap();
        assert!(matches!(
            rt.read_u64_at(&r, u32::MAX - 16),
            Err(PmemError::InvalidObjectId(_))
        ));
    }

    #[test]
    fn null_deref_rejected() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        assert!(matches!(
            rt.deref(ObjectId::NULL, None),
            Err(PmemError::InvalidObjectId(_))
        ));
    }

    #[test]
    fn bytes_roundtrip_and_ops() {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        let r = rt.deref(oid, None).unwrap();
        rt.take_trace();
        rt.write_bytes_at(&r, 0, b"hello persistent!").unwrap();
        let mut buf = [0u8; 17];
        rt.read_bytes_at(&r, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello persistent!");
        let s = rt.trace().summary();
        assert_eq!(s.nvstores, 3, "17 bytes = 3 word stores");
        assert_eq!(s.nvloads, 3);
    }

    #[test]
    fn persist_is_noop_without_failure_safety() {
        let mut rt = Runtime::new(RuntimeConfig::base().without_failure_safety());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 16).unwrap();
        rt.write_u64(oid, 1).unwrap();
        rt.take_trace();
        rt.persist(oid, 8).unwrap();
        assert_eq!(rt.trace().summary().clwbs, 0);
        assert_eq!(rt.stats().persists, 0);
    }

    #[test]
    fn persist_emits_clwb_per_line_plus_fence() {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 256).unwrap();
        rt.take_trace();
        rt.persist(oid, 200).unwrap();
        let s = rt.trace().summary();
        assert!(s.clwbs >= 4, "200 bytes spans at least 4 lines: {s:?}");
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn machine_state_contains_pool_mapping() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let st = rt.machine_state();
        let base = st.pot.lookup(pool).unwrap();
        assert!(st.page_table.translate(base).is_some());
    }

    #[test]
    fn pool_delete_releases_everything() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let pool = rt.pool_create("gone", 1 << 14).unwrap();
        let oid = rt.pmalloc(pool, 16).unwrap();
        rt.write_u64(oid, 3).unwrap();
        rt.pool_delete("gone").unwrap();
        assert!(matches!(rt.read_u64(oid), Err(PmemError::PoolNotOpen(_))));
        assert!(matches!(
            rt.pool_open("gone"),
            Err(PmemError::PoolNotFound(_))
        ));
        assert!(matches!(
            rt.pool_delete("gone"),
            Err(PmemError::PoolNotFound(_))
        ));
        // The name is reusable; the id is not recycled.
        let again = rt.pool_create("gone", 1 << 14).unwrap();
        assert_ne!(again, pool);
        // And deleted pools never come back through crash recovery.
        let rt2 = rt.crash_and_recover(3).unwrap();
        assert_eq!(rt2.open_pools(), 1);
    }

    #[test]
    fn untraced_phase_records_what_taking_its_trace_would_leave() {
        // A setup phase: pool creation, a persisted write, compute, a
        // branch and a dereference. It hands on the object and the id
        // of its last load, as TPC-C hands its tables to the measured
        // transactions.
        fn setup(rt: &mut Runtime) -> (ObjectId, OpId) {
            let pool = rt.pool_create("p", 1 << 16).unwrap();
            let oid = rt.pmalloc(pool, 64).unwrap();
            let r = rt.deref(oid, None).unwrap();
            rt.write_u64_at(&r, 8, 0xC0FFEE).unwrap();
            rt.persist(oid, 16).unwrap();
            rt.exec(7);
            rt.branch(true);
            let (_, dep) = rt.read_u64_at(&r, 0).unwrap();
            (oid, dep)
        }
        // The measured phase: reads back through setup's dependency.
        fn measured(rt: &mut Runtime, (oid, dep): (ObjectId, OpId)) -> Trace {
            let r = rt.deref(oid, Some(dep)).unwrap();
            let (v, id) = rt.read_u64_at(&r, 8).unwrap();
            assert_eq!(v, 0xC0FFEE, "setup's write is visible");
            rt.exec(3);
            let r = rt.deref(oid, Some(id)).unwrap();
            rt.write_u64_at(&r, 16, v + 1).unwrap();
            rt.persist(oid, 24).unwrap();
            rt.take_trace()
        }
        for cfg in [RuntimeConfig::base(), RuntimeConfig::opt()] {
            let mut a = Runtime::new(cfg.clone());
            let handoff = a.untraced(setup);
            assert_eq!(handoff.1, OpId::MAX);
            assert!(a.trace().is_empty(), "{:?}: nothing recorded", cfg.mode);
            let untraced = measured(&mut a, handoff);

            let mut b = Runtime::new(cfg.clone());
            let handoff = setup(&mut b);
            assert!(!b.take_trace().is_empty());
            let taken = measured(&mut b, handoff);

            assert!(!untraced.is_empty());
            assert_eq!(untraced.encoded_columns(), taken.encoded_columns());
            assert_eq!(untraced.summary(), taken.summary());
            assert_eq!(a.xlat_stats(), b.xlat_stats(), "{:?}", cfg.mode);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn untraced_phases_nest_and_outlast_take_trace() {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        rt.exec(2);
        rt.untraced(|rt| {
            rt.exec(5);
            rt.untraced(|rt| rt.branch(false));
            rt.branch(true);
            assert_eq!(rt.take_trace().summary().instructions, 2);
            rt.exec(9);
        });
        assert!(rt.trace().is_empty(), "the whole scope went unrecorded");
        rt.branch(false);
        assert_eq!(rt.trace().summary().branches, 1, "recording resumed");
    }

    #[test]
    fn pools_remap_at_different_bases_across_runs() {
        let mut a = Runtime::new(RuntimeConfig {
            aslr_seed: 1,
            ..RuntimeConfig::default()
        });
        let mut b = Runtime::new(RuntimeConfig {
            aslr_seed: 2,
            ..RuntimeConfig::default()
        });
        let pa = a.pool_create("p", 1 << 16).unwrap();
        let pb = b.pool_create("p", 1 << 16).unwrap();
        assert_eq!(pa, pb);
        assert_ne!(
            a.machine_state().pot.lookup(pa),
            b.machine_state().pot.lookup(pb),
            "ASLR: same pool, different base"
        );
    }
}

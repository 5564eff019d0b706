//! Event-level translation tracing: a bounded, lock-free ring-buffer
//! recorder for the POLB/POT pipeline.
//!
//! Aggregate counters (the rest of this crate) answer *how many*; this
//! module answers *when*: every `nvld`/`nvst` issue, POLB hit/miss/
//! fill/evict, POT walk begin/end (with probe count), page-table walk,
//! translation fault, and software `oid_direct` call can be captured as a
//! [`TraceEvent`] stamped with instruction index, cycle, pool id, and
//! [`TraceDesign`]. The exporters in [`crate::timeline`] turn the captured
//! stream into Chrome Trace Format JSON and windowed CSV time series.
//!
//! ## Design
//!
//! * **Disabled is (nearly) free.** Every emission helper starts with one
//!   relaxed atomic load of a global flag; until [`install`] is called the
//!   simulator hot paths pay a load and a predictable branch, nothing else.
//! * **Lock-free ring.** The recorder is a fixed-capacity ring of atomic
//!   word groups (this crate forbids `unsafe`); writers claim a slot with
//!   one `fetch_add` and publish it with a release store of its sequence
//!   number. The ring retains the **last N** events — older ones are
//!   overwritten, which is exactly the flight-recorder behavior wanted for
//!   post-hoc debugging.
//! * **Torn reads are tolerated, not invented.** A reader validates the
//!   slot sequence before and after copying the payload and skips slots
//!   that changed underneath it, so a concurrent writer can hide an event
//!   but never fabricate one. Quiescent reads (the harness drains between
//!   runs) are exact.
//! * **Sampling is per *access*, not per event.** [`begin_access`] decides
//!   once per `nvld`/`nvst` (1-in-N of issues) and the decision sticks for
//!   every event the access produces, so sampled timelines keep whole
//!   miss→walk→fill chains instead of disconnected fragments.
//!   [`EventKind::Fault`] bypasses sampling: faults are always recorded
//!   and, when a flight-dump path is configured, dump the ring tail to
//!   disk automatically.
//!
//! Simulators run workloads on multiple threads, so the access context
//! (instruction index, cycle, design, sampling decision) lives in a
//! thread-local; emission sites deep in `poat-core` that only know the
//! pool id inherit the context set by the simulator's [`begin_access`].

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which translation hardware (or software path) produced an event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceDesign {
    /// No simulator context was active (e.g. direct unit-test calls).
    #[default]
    Unknown,
    /// The Pipelined POLB design (pool id → virtual base, Figure 6a).
    Pipelined,
    /// The Parallel POLB design (page tag → physical frame, Figure 6b).
    Parallel,
    /// The software `oid_direct` baseline (`crates/pmem/src/translate.rs`).
    Software,
}

impl TraceDesign {
    /// Stable wire encoding (4 bits of the packed slot word).
    fn to_u8(self) -> u8 {
        match self {
            TraceDesign::Unknown => 0,
            TraceDesign::Pipelined => 1,
            TraceDesign::Parallel => 2,
            TraceDesign::Software => 3,
        }
    }

    fn from_u8(v: u8) -> TraceDesign {
        match v {
            1 => TraceDesign::Pipelined,
            2 => TraceDesign::Parallel,
            3 => TraceDesign::Software,
            _ => TraceDesign::Unknown,
        }
    }

    /// Human-readable name, used as the Chrome-trace process name and in
    /// the timeline CSV `design` column.
    pub fn name(self) -> &'static str {
        match self {
            TraceDesign::Unknown => "unknown",
            TraceDesign::Pipelined => "pipelined",
            TraceDesign::Parallel => "parallel",
            TraceDesign::Software => "software",
        }
    }
}

/// What happened. The `arg` field of [`TraceEvent`] is kind-specific and
/// documented per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// An `nvld` issued (recorded by [`begin_access`]).
    NvLoad,
    /// An `nvst` issued (recorded by [`begin_access`]).
    NvStore,
    /// POLB lookup hit.
    PolbHit,
    /// POLB lookup missed.
    PolbMiss,
    /// A translation was installed in the POLB.
    PolbFill,
    /// A fill displaced a valid LRU victim; `pool` is the *victim's* pool.
    PolbEvict,
    /// A hardware POT walk started.
    PotWalkBegin,
    /// A hardware POT walk finished; `arg` = linear probes performed.
    PotWalkEnd,
    /// The Parallel refill path walked the page table; `arg` = 1 if a
    /// frame was found, 0 if the identity fallback was used.
    PageWalk,
    /// Translation fault (unmapped pool). Always recorded, never sampled
    /// out, and triggers the flight-recorder dump if one is configured.
    Fault,
    /// A software `oid_direct` call started (recorded by [`begin_access`]).
    SoftCall,
    /// The software last-value predictor hit.
    SoftPredictorHit,
    /// The software predictor missed; `arg` = hash-table probes.
    SoftPredictorMiss,
}

impl EventKind {
    fn to_u8(self) -> u8 {
        match self {
            EventKind::NvLoad => 0,
            EventKind::NvStore => 1,
            EventKind::PolbHit => 2,
            EventKind::PolbMiss => 3,
            EventKind::PolbFill => 4,
            EventKind::PolbEvict => 5,
            EventKind::PotWalkBegin => 6,
            EventKind::PotWalkEnd => 7,
            EventKind::PageWalk => 8,
            EventKind::Fault => 9,
            EventKind::SoftCall => 10,
            EventKind::SoftPredictorHit => 11,
            EventKind::SoftPredictorMiss => 12,
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::NvLoad,
            1 => EventKind::NvStore,
            2 => EventKind::PolbHit,
            3 => EventKind::PolbMiss,
            4 => EventKind::PolbFill,
            5 => EventKind::PolbEvict,
            6 => EventKind::PotWalkBegin,
            7 => EventKind::PotWalkEnd,
            8 => EventKind::PageWalk,
            9 => EventKind::Fault,
            10 => EventKind::SoftCall,
            11 => EventKind::SoftPredictorHit,
            12 => EventKind::SoftPredictorMiss,
            _ => return None,
        })
    }

    /// The snake_case event name used by both exporters (see
    /// `docs/TRACING.md` for the schema).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::NvLoad => "nvld",
            EventKind::NvStore => "nvst",
            EventKind::PolbHit => "polb_hit",
            EventKind::PolbMiss => "polb_miss",
            EventKind::PolbFill => "polb_fill",
            EventKind::PolbEvict => "polb_evict",
            EventKind::PotWalkBegin => "pot_walk_begin",
            EventKind::PotWalkEnd => "pot_walk_end",
            EventKind::PageWalk => "page_walk",
            EventKind::Fault => "fault",
            EventKind::SoftCall => "oid_direct",
            EventKind::SoftPredictorHit => "soft_predictor_hit",
            EventKind::SoftPredictorMiss => "soft_predictor_miss",
        }
    }
}

/// One captured event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (monotonic across threads and workloads).
    pub seq: u64,
    /// Instruction index of the enclosing access in its trace / run.
    pub instr: u64,
    /// Simulated cycle (hardware designs) or emitted-instruction count
    /// (the software baseline, which has no cycle clock of its own).
    pub cycle: u64,
    /// Pool id the event concerns (0 = none/unknown; for
    /// [`EventKind::PolbEvict`] this is the victim's pool).
    pub pool: u32,
    /// Which design's pipeline produced the event.
    pub design: TraceDesign,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (probe count, …), saturated to 20 bits.
    pub arg: u32,
}

/// Maximum value representable in the packed 20-bit `arg` field.
pub const MAX_ARG: u32 = (1 << 20) - 1;

/// One ring slot: sequence word plus three payload words. The sequence
/// word is zeroed while the payload is being replaced and published last
/// with release ordering, seqlock-style.
///
/// # Soundness audit (why this ring needs no `unsafe`)
///
/// The crate `#![forbid(unsafe_code)]`s, so the usual seqlock hazard —
/// a reader copying a non-atomic payload while a writer scribbles over
/// it, which is UB and needs `unsafe` plus fences to justify — cannot
/// arise here by construction: every payload word is its own atomic,
/// so all concurrent access is a data race only in the benign,
/// well-defined sense. What is left to audit is *logical* tearing
/// (an event assembled from two different writes) and these are the
/// arguments, backed by `tests/ring_stress.rs`:
///
/// 1. **A reader never returns a torn event.** `record` publishes in
///    the order `seq = 0` (release) → payload (relaxed) → `seq = i + 1`
///    (release); `events` reads `seq` (acquire), the payload, then
///    `seq` again (acquire) and discards the slot unless both loads saw
///    `i + 1`. The release/acquire pairing on the *second* check means:
///    if it still observes `i + 1`, the first store of any later write
///    (`seq = 0`) had not happened before the payload loads — the
///    payload words all came from the write that published `i + 1`.
/// 2. **A stalled writer cannot forge a current event.** Two writers
///    only ever share a slot across a full ring wrap (distinct
///    `fetch_add` tickets `i` and `i' = i + k·capacity`). Their
///    interleaved relaxed payload stores can leave a mixed payload in
///    memory, but the slot's final `seq` is one of `0`, `i + 1`, or
///    `i' + 1`, and a reader demands exactly `j + 1` for the unique
///    ticket `j` of that slot inside the live window `[head − cap,
///    head)` — a mix under the *older* generation's seq fails the
///    check and is skipped. The cost is bounded loss (the overwritten
///    newer event), never corruption; `events` documents the same
///    "skipped, not guessed" contract.
/// 3. **`clear` vs. a concurrent writer** is last-store-wins on `seq`:
///    the racing event either survives the drain or vanishes — both
///    acceptable for a drain; exactness is only promised when writers
///    are quiescent.
/// 4. **`head` is a ticket counter, not a publication word.** It is
///    advanced with relaxed `fetch_add` and read relaxed: it never
///    carries payload visibility (that is `seq`'s job, per point 1), it
///    only picks which window of tickets a reader attempts. A stale
///    `head` just means a slightly older window — the per-slot `seq`
///    check still rejects anything torn.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    instr: AtomicU64,
    cycle: AtomicU64,
    packed: AtomicU64,
}

fn pack(kind: EventKind, design: TraceDesign, pool: u32, arg: u32) -> u64 {
    ((pool as u64) << 32)
        | ((arg.min(MAX_ARG) as u64) << 12)
        | ((design.to_u8() as u64) << 8)
        | kind.to_u8() as u64
}

fn unpack(seq: u64, instr: u64, cycle: u64, packed: u64) -> Option<TraceEvent> {
    Some(TraceEvent {
        seq,
        instr,
        cycle,
        pool: (packed >> 32) as u32,
        design: TraceDesign::from_u8(((packed >> 8) & 0xF) as u8),
        kind: EventKind::from_u8((packed & 0xFF) as u8)?,
        arg: ((packed >> 12) & MAX_ARG as u64) as u32,
    })
}

/// The per-access context produced by [`EventRecorder::begin_access`]:
/// carries the sampling decision and the timestamp base for every event
/// the access emits. The global helpers keep one per thread.
#[derive(Clone, Copy, Debug)]
pub struct AccessCtx {
    /// Whether this access was selected by 1-in-N sampling.
    pub sampled: bool,
    /// Instruction index stamped on the access's events.
    pub instr: u64,
    /// Current cycle; advanced by [`advance_cycle`] as latency accrues.
    pub cycle: u64,
    /// Design stamped on the access's events.
    pub design: TraceDesign,
}

const IDLE_CTX: AccessCtx = AccessCtx {
    sampled: false,
    instr: 0,
    cycle: 0,
    design: TraceDesign::Unknown,
};

/// A bounded, lock-free ring buffer of [`TraceEvent`]s.
///
/// Construct standalone instances in tests; production code uses the
/// process-global instance via [`install`] and the free emission helpers.
#[derive(Debug)]
pub struct EventRecorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    issues: AtomicU64,
    sample: u64,
    flight: Mutex<Option<PathBuf>>,
    flight_dumps: AtomicU64,
}

impl EventRecorder {
    /// A recorder retaining the last `capacity` events, sampling 1-in-
    /// `sample` accesses (`0`/`1` = record every access).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, sample: u64) -> Self {
        assert!(capacity > 0, "event ring needs at least one slot");
        EventRecorder {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            issues: AtomicU64::new(0),
            sample: sample.max(1),
            flight: Mutex::new(None),
            flight_dumps: AtomicU64::new(0),
        }
    }

    /// Ring capacity (the N of "last N events").
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The configured 1-in-N sampling period.
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Total events ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Unconditionally appends one event, returning its sequence number.
    pub fn record(
        &self,
        kind: EventKind,
        design: TraceDesign,
        instr: u64,
        cycle: u64,
        pool: u32,
        arg: u32,
    ) -> u64 {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        // Invalidate, replace payload, publish: a reader that observes the
        // new sequence number also observes the matching payload.
        slot.seq.store(0, Ordering::Release);
        slot.instr.store(instr, Ordering::Relaxed);
        slot.cycle.store(cycle, Ordering::Relaxed);
        slot.packed
            .store(pack(kind, design, pool, arg), Ordering::Relaxed);
        slot.seq.store(i + 1, Ordering::Release);
        i
    }

    /// Starts one `nvld`/`nvst`/`oid_direct` access: takes the sampling
    /// decision, records the issue event if selected, and returns the
    /// context subsequent [`EventRecorder::emit`] calls should carry.
    pub fn begin_access(
        &self,
        kind: EventKind,
        design: TraceDesign,
        instr: u64,
        cycle: u64,
        pool: u32,
    ) -> AccessCtx {
        let n = self.issues.fetch_add(1, Ordering::Relaxed);
        let sampled = self.sample <= 1 || n.is_multiple_of(self.sample);
        if sampled {
            self.record(kind, design, instr, cycle, pool, 0);
        }
        AccessCtx {
            sampled,
            instr,
            cycle,
            design,
        }
    }

    /// Emits a follow-on event of the access described by `ctx`.
    ///
    /// Respects the access's sampling decision, except for
    /// [`EventKind::Fault`] which is always recorded and triggers the
    /// flight dump (if a path is configured).
    pub fn emit(&self, ctx: &AccessCtx, kind: EventKind, pool: u32, arg: u32) {
        if kind == EventKind::Fault {
            self.record(kind, ctx.design, ctx.instr, ctx.cycle, pool, arg);
            self.flight_dump();
            return;
        }
        if ctx.sampled {
            self.record(kind, ctx.design, ctx.instr, ctx.cycle, pool, arg);
        }
    }

    /// The surviving events, oldest first.
    ///
    /// Under concurrent writers a slot being overwritten mid-read is
    /// skipped (never returned torn); with writers quiescent the result is
    /// exact.
    pub fn events(&self) -> Vec<TraceEvent> {
        // Relaxed: `head` is only ever advanced with relaxed fetch_add
        // (it is a ticket counter, not a publication word), so an
        // Acquire here has no Release partner to synchronize with.
        // Slot visibility is carried entirely by the per-slot `seq`
        // Release/Acquire pair checked below.
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(head.min(cap) as usize);
        for i in head.saturating_sub(cap)..head {
            let slot = &self.slots[(i % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                continue; // overwritten or mid-write
            }
            let instr = slot.instr.load(Ordering::Relaxed);
            let cycle = slot.cycle.load(Ordering::Relaxed);
            let packed = slot.packed.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                continue; // changed underneath us: discard, don't guess
            }
            if let Some(ev) = unpack(i + 1, instr, cycle, packed) {
                out.push(ev);
            }
        }
        out
    }

    /// Invalidates every retained event (sequence numbers keep growing, so
    /// later [`EventRecorder::events`] calls only see newer records). The
    /// harness drains between runs to attribute events per workload.
    pub fn clear(&self) {
        for slot in &self.slots {
            slot.seq.store(0, Ordering::Release);
        }
    }

    /// Configures the flight-recorder dump: on every recorded
    /// [`EventKind::Fault`] the surviving ring tail is written to `path`
    /// as Chrome Trace Format JSON (last fault wins; see
    /// [`EventRecorder::flight_dumps`] for how many fired).
    pub fn set_flight_path(&self, path: impl Into<PathBuf>) {
        *self.flight.lock().unwrap() = Some(path.into());
    }

    /// Number of flight-recorder dumps successfully written.
    pub fn flight_dumps(&self) -> u64 {
        self.flight_dumps.load(Ordering::Relaxed)
    }

    /// Forces a flight-recorder dump immediately (the worker-pool stall
    /// watchdog uses this when a worker goes silent); a no-op when no
    /// flight path is configured.
    pub fn dump_flight_now(&self) {
        self.flight_dump();
    }

    fn flight_dump(&self) {
        let guard = self.flight.lock().unwrap();
        if let Some(path) = guard.as_ref() {
            let json = crate::timeline::chrome_trace_json(&self.events());
            if std::fs::write(path, json).is_ok() {
                self.flight_dumps.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Global recorder + thread-local access context
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<EventRecorder> = OnceLock::new();

thread_local! {
    static CTX: Cell<AccessCtx> = const { Cell::new(IDLE_CTX) };
}

/// Installs (or re-enables) the process-global recorder and returns it.
///
/// The first call fixes `capacity` and `sample` for the process lifetime;
/// later calls re-enable tracing but keep the original configuration.
pub fn install(capacity: usize, sample: u64) -> &'static EventRecorder {
    let rec = GLOBAL.get_or_init(|| EventRecorder::new(capacity, sample));
    ENABLED.store(true, Ordering::Relaxed);
    rec
}

/// The global recorder, if [`install`] has been called and tracing is
/// enabled.
pub fn installed() -> Option<&'static EventRecorder> {
    if is_enabled() {
        GLOBAL.get()
    } else {
        None
    }
}

/// Whether the global recorder is active. This is the one-load fast path
/// every emission helper takes first.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Pauses or resumes global recording (the recorder keeps its contents).
pub fn set_enabled(on: bool) {
    if !on || GLOBAL.get().is_some() {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

/// Starts one access on the global recorder and stores its context in the
/// calling thread. No-op (one relaxed load) when tracing is disabled.
#[inline]
pub fn begin_access(kind: EventKind, design: TraceDesign, instr: u64, cycle: u64, pool: u32) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = GLOBAL.get() {
        let ctx = rec.begin_access(kind, design, instr, cycle, pool);
        CTX.with(|c| c.set(ctx));
    }
}

/// Emits a follow-on event under the calling thread's current access
/// context. No-op (one relaxed load) when tracing is disabled.
#[inline]
pub fn emit(kind: EventKind, pool: u32, arg: u32) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = GLOBAL.get() {
        let ctx = CTX.with(|c| c.get());
        rec.emit(&ctx, kind, pool, arg);
    }
}

/// Advances the calling thread's access-context cycle by `delta`, so
/// events emitted after a modeled latency carry the post-latency cycle
/// (this is what gives POT-walk spans their duration).
#[inline]
pub fn advance_cycle(delta: u64) {
    if !is_enabled() {
        return;
    }
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.cycle = ctx.cycle.saturating_add(delta);
        c.set(ctx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let rec = EventRecorder::new(16, 1);
        let ctx = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, 10, 100, 7);
        rec.emit(&ctx, EventKind::PolbMiss, 7, 0);
        rec.emit(&ctx, EventKind::PotWalkEnd, 7, 3);
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::NvLoad);
        assert_eq!(evs[1].kind, EventKind::PolbMiss);
        assert_eq!(evs[2].kind, EventKind::PotWalkEnd);
        assert_eq!(evs[2].arg, 3);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(evs[0].instr, 10);
        assert_eq!(evs[0].cycle, 100);
        assert_eq!(evs[0].pool, 7);
        assert_eq!(evs[0].design, TraceDesign::Pipelined);
    }

    #[test]
    fn ring_wraparound_keeps_last_capacity_events() {
        let rec = EventRecorder::new(8, 1);
        for i in 0..20u64 {
            rec.record(EventKind::PolbHit, TraceDesign::Parallel, i, i, i as u32, 0);
        }
        assert_eq!(rec.recorded(), 20);
        let evs = rec.events();
        assert_eq!(evs.len(), 8, "ring retains exactly capacity events");
        // The survivors are the newest 8, in order: instr 12..=19.
        let instrs: Vec<u64> = evs.iter().map(|e| e.instr).collect();
        assert_eq!(instrs, (12..20).collect::<Vec<u64>>());
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let a = EventRecorder::new(1024, 4);
        let b = EventRecorder::new(1024, 4);
        for rec in [&a, &b] {
            for i in 0..100u64 {
                let ctx = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, i, i, 1);
                rec.emit(&ctx, EventKind::PolbHit, 1, 0);
            }
        }
        let ea = a.events();
        let eb = b.events();
        // 1-in-4 of 100 issues, two events per sampled access.
        assert_eq!(ea.len(), 50);
        let ia: Vec<u64> = ea.iter().map(|e| e.instr).collect();
        let ib: Vec<u64> = eb.iter().map(|e| e.instr).collect();
        assert_eq!(ia, ib, "same inputs, same sampled accesses");
        assert!(ia.iter().all(|i| i % 4 == 0), "every 4th issue selected");
    }

    #[test]
    fn unsampled_access_suppresses_followups_but_not_faults() {
        let rec = EventRecorder::new(64, 1000);
        // Burn the one sampled slot (issue 0), then use an unsampled access.
        let _ = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, 0, 0, 1);
        let ctx = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, 1, 1, 2);
        assert!(!ctx.sampled);
        rec.emit(&ctx, EventKind::PolbMiss, 2, 0);
        rec.emit(&ctx, EventKind::Fault, 2, 0);
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::NvLoad, EventKind::Fault]);
    }

    #[test]
    fn clear_drops_retained_events_but_keeps_counting() {
        let rec = EventRecorder::new(8, 1);
        rec.record(EventKind::PolbHit, TraceDesign::Unknown, 0, 0, 1, 0);
        rec.clear();
        assert!(rec.events().is_empty());
        rec.record(EventKind::PolbMiss, TraceDesign::Unknown, 1, 1, 1, 0);
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::PolbMiss);
        assert_eq!(evs[0].seq, 2, "sequence numbers survive clear");
    }

    #[test]
    fn arg_saturates_at_20_bits() {
        let rec = EventRecorder::new(4, 1);
        rec.record(
            EventKind::PotWalkEnd,
            TraceDesign::Pipelined,
            0,
            0,
            1,
            u32::MAX,
        );
        assert_eq!(rec.events()[0].arg, MAX_ARG);
    }

    #[test]
    fn flight_dump_writes_ring_tail_on_fault() {
        let dir = std::env::temp_dir().join(format!("poat-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let rec = EventRecorder::new(32, 1);
        rec.set_flight_path(&path);
        let ctx = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, 5, 50, 9);
        rec.emit(&ctx, EventKind::PolbMiss, 9, 0);
        rec.emit(&ctx, EventKind::Fault, 9, 0);
        assert_eq!(rec.flight_dumps(), 1);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"fault\""), "dump contains the fault event");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let rec = std::sync::Arc::new(EventRecorder::new(64, 1));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // Each thread writes self-consistent payloads:
                        // instr == cycle and pool == thread id.
                        rec.record(EventKind::PolbHit, TraceDesign::Parallel, i, i, t, 0);
                    }
                });
            }
        });
        for ev in rec.events() {
            assert_eq!(ev.instr, ev.cycle, "torn payload leaked");
            assert!(ev.pool < 4);
        }
    }
}

//! The in-order core model (paper §4.5).
//!
//! A five-stage scalar pipeline at one instruction per cycle with a
//! load-to-use stall model:
//!
//! * an L1 hit (3 cycles) is fully pipelined — it stalls the machine only
//!   if a *dependent* operation needs the value before it is ready (the
//!   trace carries those dependence edges);
//! * anything deeper than L1 stalls the pipe for the residual latency
//!   (a scalar in-order core has no memory-level parallelism);
//! * TLB misses charge the fixed page-walk penalty;
//! * `clwb` pessimistically stalls for its fixed completion latency
//!   (§5.1).
//!
//! `nvld`/`nvst` first pass the POLB:
//!
//! * *Pipelined*: the POLB access serializes in front of the TLB + L1D —
//!   it lengthens the load-to-use latency of every `nvld` (pointer chases
//!   feel it; independent work hides it), and a miss stalls the pipe for
//!   the POT walk.
//! * *Parallel*: the POLB is searched in parallel with the L1D — a hit
//!   adds nothing (and skips the TLB, since the POLB holds physical
//!   frames); a miss stalls for the combined POT + page-table walk.

use poat_core::VirtAddr;
use poat_pmem::{MachineState, Trace, TraceOp};
use poat_telemetry::events::{self, EventKind, TraceDesign};
use poat_telemetry::profile;

use crate::cache::MemoryHierarchy;
use crate::config::SimConfig;
use crate::pagemap::PageMap;
use crate::result::{SimError, SimResult};
use crate::tlb::Tlb;
use crate::xlate::{TranslateOutcome, TranslationUnit};

/// Replays a coalesced run of `n` same-line plain `Load`/`Store` ops
/// (all `dep: None`): the leading op takes the exact per-op path, and
/// the remaining `n - 1` are guaranteed TLB + L1 hits — the page and
/// line are resident because the leading access allocates on miss (see
/// the `batching` gate in [`simulate_inorder_ops`]) — applied as one
/// run-length batched model update each instead of `n - 1` scans.
#[allow(clippy::too_many_arguments)]
fn flush_plain_run(
    va: VirtAddr,
    is_store: bool,
    n: u64,
    cycles: &mut u64,
    complete: &mut Vec<u64>,
    tlb: &mut Tlb,
    hier: &mut MemoryHierarchy,
    pmap: &PageMap,
    tlb_miss_penalty: u64,
    l1: u64,
) {
    let _mem_prof = profile::hot_scope("cache_tlb");
    *cycles += 1;
    if !tlb.access(va.raw()) {
        *cycles += tlb_miss_penalty;
    }
    let pa = pmap.phys_of(va);
    let lat = hier.access(pa);
    if is_store {
        // Stores retire through the store buffer: the pipe does not
        // wait for the cache.
        complete.push(*cycles);
    } else {
        *cycles += lat - l1.min(lat);
        complete.push(*cycles + l1);
    }
    let m = n - 1;
    if m > 0 {
        let _tlb_hit = tlb.access_batched(va.raw(), m);
        let _total = hier.access_batched(pa, m);
        debug_assert!(_tlb_hit, "page resident after the leading access");
        debug_assert_eq!(_total, m * l1, "line L1-resident after the leading access");
        for _ in 0..m {
            *cycles += 1;
            complete.push(if is_store { *cycles } else { *cycles + l1 });
        }
    }
}

/// Replays `trace` on the in-order core, returning cycle and event counts.
///
/// Streams straight off the trace's compact encoding; equivalent to
/// `simulate_inorder_ops(trace.ops(), …)`.
///
/// # Errors
///
/// Currently infallible for the in-order core (both POLB designs are
/// supported); the `Result` mirrors [`crate::ooo::simulate_ooo`].
pub fn simulate_inorder(
    trace: &Trace,
    state: &MachineState,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_inorder_ops(trace.ops(), state, cfg)
}

/// Replays any stream of [`TraceOp`]s on the in-order core.
///
/// The ops are consumed one at a time — the model never materializes the
/// stream, so replay memory is O(ops) only for the per-op completion
/// times (8 B each), not the ops themselves.
///
/// # Errors
///
/// Currently infallible; the `Result` mirrors [`crate::ooo::simulate_ooo`].
pub fn simulate_inorder_ops(
    ops: impl IntoIterator<Item = TraceOp>,
    state: &MachineState,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_inorder_ops_impl(ops, 0, state, cfg, true)
}

/// [`simulate_inorder_ops`] with functional warmup: the first
/// `warmup_ops` ops replay through the full model but are excluded from
/// the returned counters (every counter is snapshotted at the boundary
/// and the measured window reported as the advance since it —
/// [`SimResult::delta_since`]).
///
/// This is how sharded replay keeps its microarchitectural state warm:
/// a shard's stream is prefixed with the ops preceding it in the trace,
/// so the measured window starts with caches/TLB/POLB in (approximately)
/// the state whole-trace replay would have reached, instead of cold.
///
/// # Errors
///
/// Currently infallible; the `Result` mirrors [`crate::ooo::simulate_ooo`].
pub fn simulate_inorder_ops_warm(
    ops: impl IntoIterator<Item = TraceOp>,
    warmup_ops: usize,
    state: &MachineState,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_inorder_ops_impl(ops, warmup_ops, state, cfg, true)
}

/// The actual model; `enable_batching` exists so the equivalence test can
/// replay the same trace with and without run-length batching and require
/// bit-identical results — production callers always pass `true`.
fn simulate_inorder_ops_impl(
    ops: impl IntoIterator<Item = TraceOp>,
    warmup_ops: usize,
    state: &MachineState,
    cfg: &SimConfig,
    enable_batching: bool,
) -> Result<SimResult, SimError> {
    let _replay_span = poat_telemetry::global().span(poat_telemetry::PHASE_TRACE_REPLAY);
    let mut hier = MemoryHierarchy::new(&cfg.mem);
    let mut tlb = Tlb::new(cfg.mem.dtlb_entries);
    let mut xlate = TranslationUnit::new(cfg.translation, state);
    let pmap = PageMap::new(&state.page_table);
    let l1 = cfg.mem.l1d.latency;
    let hit_extra = cfg.translation.hit_latency_cycles();
    let parallel_design = matches!(cfg.translation.design, poat_core::PolbDesign::Parallel);
    let tdesign = if parallel_design {
        TraceDesign::Parallel
    } else {
        TraceDesign::Pipelined
    };

    let mut ops = ops.into_iter();
    // Completion (value-ready) time of each op, for load-to-use stalls.
    // Grown as the stream is consumed; a dep outside the recorded range
    // (or on a non-memory op) reads as ready-at-zero.
    let mut complete: Vec<u64> = Vec::with_capacity(ops.size_hint().0);

    let mut cycles: u64 = 0;
    let mut instructions: u64 = 0;

    // Run-length batching of plain same-line `Load`/`Store` ops with no
    // dependence: after the run's leading access, the line is L1-resident
    // and its page is TLB-resident (both allocate on miss), so the rest of
    // the run is provably `n - 1` hits — one batched model update instead
    // of `n - 1` scans (`flush_plain_run`). Two degenerate geometries
    // break that residency guarantee and disable batching: a zero-entry
    // TLB (nothing is ever resident), and a single-set L1 with next-line
    // prefetch on (the prefetch triggered by the leading miss can evict
    // the run's own line).
    let batching = enable_batching
        && cfg.mem.dtlb_entries > 0
        && !(cfg.mem.next_line_prefetch && cfg.mem.l1d.sets() <= 1);
    let mut run: Option<(VirtAddr, bool, u64)> = None;
    let mut batch_runs: u64 = 0;
    let mut batch_ops: u64 = 0;
    macro_rules! flush_run {
        () => {
            if let Some((rva, rstore, n)) = run.take() {
                if n > 1 {
                    batch_runs += 1;
                    batch_ops += n - 1;
                }
                flush_plain_run(
                    rva,
                    rstore,
                    n,
                    &mut cycles,
                    &mut complete,
                    &mut tlb,
                    &mut hier,
                    &pmap,
                    cfg.mem.tlb_miss_penalty,
                    l1,
                );
            }
        };
    }

    // Warmup/measure boundary: after `warmup_ops` ops the counters are
    // snapshotted (with any pending batch run flushed first, so the
    // boundary falls between fully retired ops) and the measured window
    // is reported as the advance past the snapshot.
    let mut consumed: usize = 0;
    let mut warm_snapshot: Option<SimResult> = None;
    macro_rules! snapshot {
        () => {
            SimResult {
                cycles,
                instructions,
                translation: xlate.stats(),
                cache: hier.stats(),
                tlb: tlb.stats(),
                store_forwards: 0,
            }
        };
    }

    loop {
        if warmup_ops > 0 && consumed == warmup_ops && warm_snapshot.is_none() {
            flush_run!();
            warm_snapshot = Some(snapshot!());
        }
        // One sampling decision per replayed op, shared by the decode pull
        // below and every hot scope in the body.
        let _op_prof = profile::begin_op();
        let Some(op) = ({
            let _decode_prof = profile::hot_scope("replay_decode");
            ops.next()
        }) else {
            break;
        };
        consumed += 1;
        if batching {
            if let TraceOp::Load { va, dep: None } | TraceOp::Store { va, dep: None } = op {
                let is_store = matches!(op, TraceOp::Store { .. });
                instructions += 1;
                match &mut run {
                    Some((rva, rstore, n))
                        if *rstore == is_store && rva.raw() / 64 == va.raw() / 64 =>
                    {
                        *n += 1;
                    }
                    _ => {
                        flush_run!();
                        run = Some((va, is_store, 1));
                    }
                }
                continue;
            }
            // Anything else (a dep-carrying access, an nvld/nvst, exec,
            // branch, clwb, fence) ends the run before it is replayed, so
            // program order — and every `complete` index — is preserved.
            flush_run!();
        }
        instructions += op.instructions();
        let dep = match op {
            TraceOp::Load { dep, .. }
            | TraceOp::Store { dep, .. }
            | TraceOp::NvLoad { dep, .. }
            | TraceOp::NvStore { dep, .. } => dep,
            _ => None,
        };
        let mut done: u64 = 0;
        match op {
            TraceOp::Exec { n } => cycles += n as u64,
            TraceOp::Branch { mispredicted } => {
                cycles += 1;
                if mispredicted {
                    cycles += cfg.core.branch_misp_penalty;
                }
            }
            TraceOp::Load { va, .. } | TraceOp::NvLoad { va, .. } => {
                cycles += 1;
                // Address generation waits for the producing load.
                if let Some(d) = dep {
                    cycles = cycles.max(complete.get(d as usize).copied().unwrap_or(0));
                }
                let mut value_latency = l1;
                let is_nv = matches!(op, TraceOp::NvLoad { .. });
                if let TraceOp::NvLoad { oid, .. } = op {
                    events::begin_access(
                        EventKind::NvLoad,
                        tdesign,
                        instructions,
                        cycles,
                        oid.pool_raw(),
                    );
                    let _xlate_prof = profile::hot_scope("xlate");
                    let extra = match xlate.translate(oid, va) {
                        TranslateOutcome::Ok { extra_cycles }
                        | TranslateOutcome::Fault { extra_cycles } => extra_cycles,
                    };
                    if extra > hit_extra {
                        // POLB miss: the POT walk stalls the pipe.
                        cycles += extra;
                    } else {
                        // POLB hit: lengthens the load-to-use latency.
                        value_latency += extra;
                    }
                }
                let _mem_prof = profile::hot_scope("cache_tlb");
                // The Parallel POLB holds physical frames, so an nvld
                // hit skips the TLB.
                if !(is_nv && parallel_design) && !tlb.access(va.raw()) {
                    cycles += cfg.mem.tlb_miss_penalty;
                }
                let lat = hier.access(pmap.phys_of(va));
                // Beyond-L1 latency stalls a scalar in-order pipe.
                cycles += lat - l1.min(lat);
                done = cycles + value_latency;
            }
            TraceOp::Store { va, .. } | TraceOp::NvStore { va, .. } => {
                cycles += 1;
                if let Some(d) = dep {
                    cycles = cycles.max(complete.get(d as usize).copied().unwrap_or(0));
                }
                let is_nv = matches!(op, TraceOp::NvStore { .. });
                if let TraceOp::NvStore { oid, .. } = op {
                    events::begin_access(
                        EventKind::NvStore,
                        tdesign,
                        instructions,
                        cycles,
                        oid.pool_raw(),
                    );
                    let _xlate_prof = profile::hot_scope("xlate");
                    let extra = match xlate.translate(oid, va) {
                        TranslateOutcome::Ok { extra_cycles }
                        | TranslateOutcome::Fault { extra_cycles } => extra_cycles,
                    };
                    // Store addresses are buffered; only a POLB *miss*
                    // stalls (the POT walk blocks address generation).
                    cycles += extra.saturating_sub(hit_extra);
                }
                let _mem_prof = profile::hot_scope("cache_tlb");
                if !(is_nv && parallel_design) && !tlb.access(va.raw()) {
                    cycles += cfg.mem.tlb_miss_penalty;
                }
                // Stores retire through the store buffer: the cache is
                // updated but the pipe does not wait for it.
                hier.access(pmap.phys_of(va));
                done = cycles;
            }
            TraceOp::Clwb { va } => {
                cycles += cfg.mem.clwb_latency;
                let _mem_prof = profile::hot_scope("cache_tlb");
                hier.access(pmap.phys_of(va));
            }
            TraceOp::Fence => cycles += 1,
        }
        complete.push(done);
    }
    flush_run!();

    if batch_runs > 0 {
        let registry = poat_telemetry::global();
        registry.counter("sim.batch.runs").add(batch_runs);
        registry.counter("sim.batch.batched_ops").add(batch_ops);
    }

    // The scalar in-order pipe executes in program order; stores
    // complete before any later load issues, so forwarding never
    // shortens a latency here (`store_forwards` stays 0 in `snapshot!`).
    let total = snapshot!();
    Ok(match warm_snapshot {
        Some(at_boundary) => total.delta_since(&at_boundary),
        // A warmup longer than the stream leaves nothing measured.
        None if warmup_ops > 0 => total.delta_since(&total),
        None => total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_core::{PolbDesign, TranslationConfig};
    use poat_pmem::{Runtime, RuntimeConfig, TranslationMode};

    fn tiny_workload(mode: TranslationMode) -> (Trace, MachineState) {
        let mut rt = Runtime::new(RuntimeConfig {
            mode,
            ..RuntimeConfig::default()
        });
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        rt.take_trace();
        for i in 0..100 {
            let r = rt.deref(oid, None).unwrap();
            rt.write_u64_at(&r, (i % 8) * 8, i as u64).unwrap();
            let _ = rt.read_u64_at(&r, (i % 8) * 8).unwrap();
            rt.exec(5);
        }
        (rt.take_trace(), rt.machine_state())
    }

    #[test]
    fn exec_only_trace_is_one_ipc() {
        let (_, state) = tiny_workload(TranslationMode::Hardware);
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: 1000 });
        let r = simulate_inorder(&t, &state, &SimConfig::default()).unwrap();
        assert_eq!(r.cycles, 1000);
        assert_eq!(r.instructions, 1000);
        assert_eq!(r.ipc(), 1.0);
    }

    #[test]
    fn mispredicted_branch_costs_penalty() {
        let (_, state) = tiny_workload(TranslationMode::Hardware);
        let mut t = Trace::new();
        t.push(TraceOp::Branch {
            mispredicted: false,
        });
        t.push(TraceOp::Branch { mispredicted: true });
        let r = simulate_inorder(&t, &state, &SimConfig::default()).unwrap();
        assert_eq!(r.cycles, 1 + 1 + 8);
    }

    #[test]
    fn dependent_loads_stall_independent_do_not() {
        let (_, state) = tiny_workload(TranslationMode::Hardware);
        let base = 0x2000_0000_0000u64;
        // Warm a line, then measure same-line loads.
        let mut indep = Trace::new();
        indep.push(TraceOp::Load {
            va: VirtAddr::new(base),
            dep: None,
        });
        for _ in 0..10 {
            indep.push(TraceOp::Load {
                va: VirtAddr::new(base),
                dep: None,
            });
        }
        let r1 = simulate_inorder(&indep, &state, &SimConfig::default()).unwrap();

        let mut chain = Trace::new();
        let mut prev = chain.push(TraceOp::Load {
            va: VirtAddr::new(base),
            dep: None,
        });
        for _ in 0..10 {
            prev = chain.push(TraceOp::Load {
                va: VirtAddr::new(base),
                dep: Some(prev),
            });
        }
        let r2 = simulate_inorder(&chain, &state, &SimConfig::default()).unwrap();
        assert!(
            r2.cycles > r1.cycles + 15,
            "chained L1 hits pay load-to-use: {} vs {}",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn hardware_translation_beats_software_here() {
        let (base_trace, base_state) = tiny_workload(TranslationMode::Software);
        let (opt_trace, opt_state) = tiny_workload(TranslationMode::Hardware);
        let cfg = SimConfig::default();
        let base = simulate_inorder(&base_trace, &base_state, &cfg).unwrap();
        let opt = simulate_inorder(&opt_trace, &opt_state, &cfg).unwrap();
        assert!(
            opt.cycles < base.cycles,
            "OPT {} !< BASE {}",
            opt.cycles,
            base.cycles
        );
        assert!(opt.instructions < base.instructions);
        assert!(opt.translation.polb.lookups() > 0);
        assert_eq!(base.translation.polb.lookups(), 0);
    }

    #[test]
    fn parallel_design_runs_in_order() {
        let (trace, state) = tiny_workload(TranslationMode::Hardware);
        let cfg = SimConfig::with_translation(TranslationConfig::for_design(PolbDesign::Parallel));
        let r = simulate_inorder(&trace, &state, &cfg).unwrap();
        assert!(r.cycles > 0);
        assert!(r.translation.polb.hits > 0);
    }

    #[test]
    fn ideal_translation_is_fastest() {
        let (trace, state) = tiny_workload(TranslationMode::Hardware);
        let normal = simulate_inorder(&trace, &state, &SimConfig::default()).unwrap();
        let ideal_cfg = SimConfig::with_translation(TranslationConfig::default().idealized());
        let ideal = simulate_inorder(&trace, &state, &ideal_cfg).unwrap();
        assert!(ideal.cycles <= normal.cycles);
    }

    #[test]
    fn polb_hit_latency_hurts_pointer_chases_more_than_scans() {
        // Build two nvld traces over a warmed pool page: one chained, one
        // independent. The Pipelined hit latency should cost the chain
        // more.
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 512).unwrap();
        let r = rt.deref(oid, None).unwrap();
        rt.take_trace();
        let (_, mut dep) = rt.read_u64_at(&r, 0).unwrap();
        for i in 1..50u32 {
            let rr = rt.deref(oid, Some(dep)).unwrap();
            let (_, d) = rt.read_u64_at(&rr, (i % 32) * 8).unwrap();
            dep = d;
        }
        let chain = rt.take_trace();
        for i in 0..50u32 {
            let rr = rt.deref(oid, None).unwrap();
            rt.read_u64_at(&rr, (i % 32) * 8).unwrap();
        }
        let indep = rt.take_trace();
        let state = rt.machine_state();
        let cfg = SimConfig::default();
        let ideal_cfg = SimConfig::with_translation(TranslationConfig::default().idealized());
        let chain_cost = simulate_inorder(&chain, &state, &cfg).unwrap().cycles as i64
            - simulate_inorder(&chain, &state, &ideal_cfg).unwrap().cycles as i64;
        let indep_cost = simulate_inorder(&indep, &state, &cfg).unwrap().cycles as i64
            - simulate_inorder(&indep, &state, &ideal_cfg).unwrap().cycles as i64;
        assert!(
            chain_cost > indep_cost,
            "chain {chain_cost} vs indep {indep_cost}"
        );
    }

    #[test]
    fn clwb_charges_fixed_latency() {
        let (_, state) = tiny_workload(TranslationMode::Hardware);
        let mut t = Trace::new();
        t.push(TraceOp::Clwb {
            va: VirtAddr::new(0x2000_0000_0000),
        });
        t.push(TraceOp::Fence);
        let r = simulate_inorder(&t, &state, &SimConfig::default()).unwrap();
        assert_eq!(r.cycles, 100 + 1);
    }

    #[test]
    fn run_length_batching_is_cycle_exact() {
        // Replaying with run-length batching on must be bit-identical to
        // replaying with it off, across synthetic run-heavy traces and a
        // real software-translation workload (whose translation-table
        // lookups are exactly the plain same-line load runs the batcher
        // targets). Dependencies that reach *into* a batched run check
        // the per-op completion times the flush reconstructs.
        let (sw_trace, sw_state) = tiny_workload(TranslationMode::Software);

        let base = 0x4000_0000_0000u64;
        let mut synth = Trace::new();
        let mut last = None;
        for i in 0..200u64 {
            let line = base + (i / 7) * 64;
            let va = VirtAddr::new(line + (i % 8) * 8);
            last = Some(match i % 11 {
                0..=4 => synth.push(TraceOp::Load { va, dep: None }),
                5 | 6 => synth.push(TraceOp::Store { va, dep: None }),
                7 => synth.push(TraceOp::Load { va, dep: last }),
                8 => synth.push(TraceOp::Exec { n: 3 }),
                9 => synth.push(TraceOp::Branch {
                    mispredicted: i % 22 == 9,
                }),
                _ => synth.push(TraceOp::Fence),
            });
        }
        // A long pure run, then a dependent load reaching into it.
        let mut runs = Trace::new();
        let va = VirtAddr::new(base);
        let mut mid = 0;
        for i in 0..50 {
            let id = runs.push(TraceOp::Load { va, dep: None });
            if i == 25 {
                mid = id;
            }
        }
        runs.push(TraceOp::Load {
            va: VirtAddr::new(base + 8192),
            dep: Some(mid),
        });
        for _ in 0..50 {
            runs.push(TraceOp::Store { va, dep: None });
        }

        let cfg = SimConfig::default();
        let mut prefetch_cfg = SimConfig::default();
        prefetch_cfg.mem.next_line_prefetch = true;
        for (trace, state) in [
            (&sw_trace, &sw_state),
            (&synth, &sw_state),
            (&runs, &sw_state),
        ] {
            for cfg in [&cfg, &prefetch_cfg] {
                let batched = simulate_inorder_ops_impl(trace.ops(), 0, state, cfg, true).unwrap();
                let plain = simulate_inorder_ops_impl(trace.ops(), 0, state, cfg, false).unwrap();
                assert_eq!(batched, plain, "batching changed the model");
            }
        }
    }

    #[test]
    fn warm_replay_equals_whole_minus_prefix() {
        // The in-order core is a pure fold over ops, so replaying the
        // whole trace with a warmup snapshot at op k must equal the
        // whole-trace counters minus a standalone replay of ops[..k] —
        // the identity `delta_since` relies on.
        let (trace, state) = tiny_workload(TranslationMode::Hardware);
        let ops: Vec<TraceOp> = trace.ops().collect();
        let cfg = SimConfig::default();
        let k = ops.len() / 3;
        let whole = simulate_inorder_ops(ops.iter().copied(), &state, &cfg).unwrap();
        let prefix = simulate_inorder_ops(ops[..k].iter().copied(), &state, &cfg).unwrap();
        let warm = simulate_inorder_ops_warm(ops.iter().copied(), k, &state, &cfg).unwrap();
        assert_eq!(warm, whole.delta_since(&prefix));
        // Zero warmup is the plain replay; all-warmup measures nothing.
        let unwarmed = simulate_inorder_ops_warm(ops.iter().copied(), 0, &state, &cfg).unwrap();
        assert_eq!(unwarmed, whole);
        let empty =
            simulate_inorder_ops_warm(ops.iter().copied(), ops.len(), &state, &cfg).unwrap();
        assert_eq!(empty, SimResult::default());
    }

    #[test]
    fn repeated_same_line_loads_hit_l1_without_stall() {
        let (_, state) = tiny_workload(TranslationMode::Hardware);
        let mut t = Trace::new();
        let va = VirtAddr::new(0x3000_0000_0000);
        for _ in 0..10 {
            t.push(TraceOp::Load { va, dep: None });
        }
        let r = simulate_inorder(&t, &state, &SimConfig::default()).unwrap();
        // First access: TLB miss (30) + full memory miss (158-3). Rest: 1 cycle.
        assert_eq!(r.cycles, (1 + 30 + 155) + 9);
    }
}

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

use poat_pmem::{MachineState, Trace, TraceOp};
use poat_telemetry::events::EventKind;
use poat_telemetry::profile;

use crate::cache::MemoryHierarchy;
use crate::config::SimConfig;
use crate::pagemap::PageMap;
use crate::result::{SimError, SimResult};
use crate::tlb::Tlb;
use crate::xlate::TranslationUnit;

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
    let _replay_span = poat_telemetry::global().span(poat_telemetry::PHASE_TRACE_REPLAY);
    let mut hier = MemoryHierarchy::new(&cfg.mem);
    let mut tlb = Tlb::new(cfg.mem.dtlb_entries);
    let mut xlate = TranslationUnit::new(cfg.translation, state);
    let pmap = PageMap::new(&state.page_table);
    let l1 = cfg.mem.l1d.latency;
    let hit_extra = cfg.translation.hit_latency_cycles();
    let parallel_design = matches!(cfg.translation.design, poat_core::PolbDesign::Parallel);

    let mut ops = ops.into_iter();
    // Completion (value-ready) time of each op, for load-to-use stalls.
    // Grown as the stream is consumed; a dep outside the recorded range
    // (or on a non-memory op) reads as ready-at-zero.
    let mut complete: Vec<u64> = Vec::with_capacity(ops.size_hint().0);

    let mut cycles: u64 = 0;
    let mut instructions: u64 = 0;

    loop {
        // One sampling decision per replayed op, shared by the decode pull
        // below and every hot scope in the body.
        let _op_prof = profile::begin_op();
        let Some(op) = ({
            let _decode_prof = profile::hot_scope("replay_decode");
            ops.next()
        }) else {
            break;
        };
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
                    let extra = xlate.issue(EventKind::NvLoad, instructions, cycles, oid, va);
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
                if !(is_nv && parallel_design || tlb.access(va.raw())) {
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
                    let extra = xlate.issue(EventKind::NvStore, instructions, cycles, oid, va);
                    // Store addresses are buffered; only a POLB *miss*
                    // stalls (the POT walk blocks address generation).
                    cycles += extra.saturating_sub(hit_extra);
                }
                let _mem_prof = profile::hot_scope("cache_tlb");
                if !(is_nv && parallel_design || tlb.access(va.raw())) {
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

    // The scalar in-order pipe executes in program order; stores
    // complete before any later load issues, so forwarding never
    // shortens a latency here (`store_forwards` stays 0).
    Ok(SimResult {
        cycles,
        instructions,
        translation: xlate.stats(),
        cache: hier.stats(),
        tlb: tlb.stats(),
        store_forwards: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_core::{PolbDesign, TranslationConfig, VirtAddr};
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

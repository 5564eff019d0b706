//! The out-of-order core model (paper §4.4).
//!
//! An instruction-window-centric model in the spirit of Sniper's ROB core
//! model: instructions dispatch in program order at the issue width,
//! execute when their operands are ready, and retire in order. Cycle time
//! comes from the retirement of the last instruction. What the window
//! buys — and what the paper measures — is **memory-level parallelism**:
//! independent long-latency loads overlap, while dependency chains
//! (pointer chasing, and in BASE the `oid_direct` loads feeding the data
//! access) serialize. This is why hardware translation speeds up an
//! out-of-order core less than an in-order core (Figure 9b vs 9a).
//!
//! `nvld`/`nvst` use the *Pipelined* POLB in the address-generation stage,
//! so the LSQ only ever holds post-translation virtual addresses and
//! memory disambiguation is unchanged (§4.4): a store queue entry can
//! forward its data to *any* later load of the same word — including an
//! `nvst` forwarding to a regular load, the aliasing case §4.3 calls out.
//! A POLB miss stalls address generation (modeled as a dispatch stall)
//! for the POT walk. The *Parallel* design is rejected, as in the paper
//! (§4.3): ObjectIDs in the LSQ would break disambiguation, so the paper
//! declines to build it.

use std::collections::VecDeque;

use poat_core::PolbDesign;
use poat_pmem::{MachineState, Trace, TraceOp};
use poat_telemetry::events::EventKind;
use poat_telemetry::profile;

use crate::cache::MemoryHierarchy;
use crate::completion::CompletionWindow;
use crate::config::SimConfig;
use crate::pagemap::PageMap;
use crate::result::{SimError, SimResult};
use crate::tlb::Tlb;
use crate::xlate::TranslationUnit;

/// Replays `trace` on the out-of-order core.
///
/// Streams straight off the trace's compact encoding; equivalent to
/// `simulate_ooo_ops(trace.ops(), …)`.
///
/// # Errors
///
/// [`SimError::ParallelOnOutOfOrder`] if the translation configuration
/// selects the Parallel POLB design (unsupported by construction).
pub fn simulate_ooo(
    trace: &Trace,
    state: &MachineState,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_ooo_ops(trace.ops(), state, cfg)
}

/// Replays any stream of [`TraceOp`]s on the out-of-order core.
///
/// The ops are consumed one at a time and the model never materializes
/// the stream. Completion times are kept only while a later dependence
/// could still wait on them (about one ROB of ops), so replay memory
/// does not grow with the stream's length.
///
/// # Errors
///
/// [`SimError::ParallelOnOutOfOrder`] if the translation configuration
/// selects the Parallel POLB design (unsupported by construction).
pub fn simulate_ooo_ops(
    ops: impl IntoIterator<Item = TraceOp>,
    state: &MachineState,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    if cfg.translation.design == PolbDesign::Parallel {
        return Err(SimError::ParallelOnOutOfOrder);
    }

    let _replay_span = poat_telemetry::global().span(poat_telemetry::PHASE_TRACE_REPLAY);
    let mut hier = MemoryHierarchy::new(&cfg.mem);
    let mut tlb = Tlb::new(cfg.mem.dtlb_entries);
    let mut xlate = TranslationUnit::new(cfg.translation, state);
    let pmap = PageMap::new(&state.page_table);

    let width = cfg.core.issue_width.max(1) as u64;
    let rob_size = cfg.core.rob_size.max(1);
    let lq_size = cfg.core.lq_size.max(1) as usize;
    let sq_size = cfg.core.sq_size.max(1) as usize;
    let misp = cfg.core.branch_misp_penalty;
    let hit_extra = cfg.translation.hit_latency_cycles();

    let mut ops = ops.into_iter();
    // Completion times, for dependency resolution. Every read is
    // `(disp_cycle + 1).max(..)` and dispatch never moves back, so the
    // dispatch cycle + 1 of an op is the window's floor.
    let mut complete = CompletionWindow::new();

    let mut slot: u64 = 0; // next free dispatch slot (cycle * width + lane)
    let mut dispatch_block: u64 = 0; // earliest cycle dispatch may resume
    let mut rob: VecDeque<(u64, u32)> = VecDeque::new(); // (retire cycle, entries)
    let mut rob_occ: u32 = 0;
    let mut lq: VecDeque<u64> = VecDeque::new();
    let mut sq = StoreQueue::new();
    let mut forwarded: u64 = 0;
    let mut last_retire: u64 = 0;
    let mut last_mem_complete: u64 = 0;
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
        let k = op.instructions();
        instructions += k;
        // An Exec batch can exceed the ROB; it streams through, so its ROB
        // footprint is capped at the window size.
        let k_rob = k.min(rob_size as u64) as u32;

        // Structural hazards: ROB and load/store queues free entries at
        // retirement (in order, so their retire times are monotone).
        while rob_occ + k_rob > rob_size {
            let (r, c) = rob
                .pop_front()
                .expect("invariant: rob_occ > 0 implies the ROB deque is non-empty");
            rob_occ -= c;
            dispatch_block = dispatch_block.max(r);
        }
        let is_load = matches!(op, TraceOp::Load { .. } | TraceOp::NvLoad { .. });
        let is_store = matches!(op, TraceOp::Store { .. } | TraceOp::NvStore { .. });
        if is_load {
            while lq.len() >= lq_size {
                dispatch_block = dispatch_block.max(
                    lq.pop_front()
                        .expect("invariant: lq.len() >= lq_size >= 1 inside the loop"),
                );
            }
        }
        if is_store {
            while sq.len() >= sq_size {
                dispatch_block = dispatch_block.max(sq.pop_front());
            }
        }

        // Dispatch.
        let disp_cycle = (slot / width).max(dispatch_block);
        slot = slot.max(disp_cycle * width) + k;
        let dep = match op {
            TraceOp::Load { dep, .. }
            | TraceOp::Store { dep, .. }
            | TraceOp::NvLoad { dep, .. }
            | TraceOp::NvStore { dep, .. } => dep,
            _ => None,
        };
        let dep_ready = dep.map_or(0, |d| complete.get(d));
        let start = (disp_cycle + 1).max(dep_ready);

        // An nvld/nvst translates in address generation (§4.4): a POLB
        // miss blocks dispatch for the POT walk.
        let extra = match op {
            TraceOp::NvLoad { oid, va, .. } => {
                xlate.issue(EventKind::NvLoad, instructions, start, oid, va)
            }
            TraceOp::NvStore { oid, va, .. } => {
                xlate.issue(EventKind::NvStore, instructions, start, oid, va)
            }
            _ => 0,
        };
        if extra > hit_extra {
            dispatch_block = dispatch_block.max(start + extra);
        }

        // Execute.
        let done = match op {
            // `saturating_sub` guards the degenerate zero-width batch a
            // hand-built op stream can feed in (`Trace::push` drops them):
            // at slot 0 the subtraction would otherwise wrap.
            TraceOp::Exec { .. } => slot.saturating_sub(1) / width + 2,
            TraceOp::Branch { mispredicted } => {
                let done = start + 1;
                if mispredicted {
                    dispatch_block = dispatch_block.max(done + misp);
                }
                done
            }
            TraceOp::Load { va, .. } | TraceOp::NvLoad { va, .. } => {
                let _mem_prof = profile::hot_scope("cache_tlb");
                let t = if tlb.access(va.raw()) {
                    0
                } else {
                    cfg.mem.tlb_miss_penalty
                };
                // Store-to-load forwarding: a queued store to the same
                // word supplies the data without a cache access — the
                // hierarchy (counters and LRU state) is only touched on
                // the non-forwarded path. After translation the LSQ holds
                // a virtual address, so forwarding works across
                // instruction kinds (§4.4).
                match sq.forward(va.raw() / 8) {
                    Some(data_ready) => {
                        forwarded += 1;
                        start.max(data_ready) + extra + 1
                    }
                    None => start + extra + t + hier.access(pmap.phys_of(va)),
                }
            }
            TraceOp::Store { va, .. } | TraceOp::NvStore { va, .. } => {
                let _mem_prof = profile::hot_scope("cache_tlb");
                let t = if tlb.access(va.raw()) {
                    0
                } else {
                    cfg.mem.tlb_miss_penalty
                };
                hier.access(pmap.phys_of(va));
                start + extra + t + cfg.mem.l1d.latency
            }
            TraceOp::Clwb { va } => {
                let _mem_prof = profile::hot_scope("cache_tlb");
                hier.access(pmap.phys_of(va));
                start + cfg.mem.clwb_latency
            }
            TraceOp::Fence => {
                let s = start.max(last_mem_complete);
                dispatch_block = dispatch_block.max(s + 1);
                s + 1
            }
        };

        complete.push(done, disp_cycle + 1);
        if op.is_memory() || matches!(op, TraceOp::Clwb { .. }) {
            last_mem_complete = last_mem_complete.max(done);
        }
        // In-order retirement.
        last_retire = last_retire.max(done);
        rob.push_back((last_retire, k_rob));
        rob_occ += k_rob;
        if is_load {
            lq.push_back(last_retire);
        }
        if is_store {
            let word = match op {
                TraceOp::Store { va, .. } | TraceOp::NvStore { va, .. } => va.raw() / 8,
                _ => unreachable!("is_store implies a store op"),
            };
            sq.push(last_retire, word, done);
        }
    }

    Ok(SimResult {
        cycles: last_retire,
        instructions,
        translation: xlate.stats(),
        cache: hier.stats(),
        tlb: tlb.stats(),
        store_forwards: forwarded,
    })
}

/// Buckets in the store queue's presence filter.
const SQ_BUCKETS: usize = 256;

/// The store queue: the last `sq_size` stores, oldest first, as (retire
/// cycle, word address, data-ready cycle). The word address enables
/// store-to-load forwarding.
struct StoreQueue {
    entries: VecDeque<(u64, u64, u64)>,
    /// Queued stores per word-address bucket. A bucket at 0 proves that
    /// no queued store holds the word, so most loads skip the scan.
    present: [u32; SQ_BUCKETS],
}

impl StoreQueue {
    fn new() -> Self {
        StoreQueue {
            entries: VecDeque::new(),
            present: [0; SQ_BUCKETS],
        }
    }

    /// Fibonacci hashing: the top bits of `word` × 2^64/φ.
    fn bucket(word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SQ_BUCKETS.trailing_zeros())) as usize
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn push(&mut self, retire: u64, word: u64, data_ready: u64) {
        self.present[Self::bucket(word)] += 1;
        self.entries.push_back((retire, word, data_ready));
    }

    /// Frees the oldest entry; returns its retire cycle.
    fn pop_front(&mut self) -> u64 {
        let (retire, word, _) = self
            .entries
            .pop_front()
            .expect("invariant: only called while sq.len() >= sq_size >= 1");
        self.present[Self::bucket(word)] -= 1;
        retire
    }

    /// The data-ready cycle of the youngest queued store to `word`.
    fn forward(&self, word: u64) -> Option<u64> {
        if self.present[Self::bucket(word)] == 0 {
            return None;
        }
        self.entries
            .iter()
            .rev()
            .find(|&&(_, w, _)| w == word)
            .map(|&(_, _, data_ready)| data_ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::{simulate_inorder, simulate_inorder_ops};
    use poat_core::{TranslationConfig, VirtAddr};
    use poat_pmem::{Runtime, RuntimeConfig, TranslationMode};

    fn machine() -> MachineState {
        let mut rt = Runtime::new(RuntimeConfig::default());
        rt.pool_create("p", 1 << 16).unwrap();
        rt.machine_state()
    }

    #[test]
    fn parallel_design_rejected() {
        let state = machine();
        let cfg = SimConfig::with_translation(TranslationConfig::for_design(PolbDesign::Parallel));
        let t = Trace::new();
        assert_eq!(
            simulate_ooo(&t, &state, &cfg),
            Err(SimError::ParallelOnOutOfOrder)
        );
    }

    #[test]
    fn dispatch_width_bounds_ipc() {
        let state = machine();
        let mut t = Trace::new();
        t.push(TraceOp::Exec { n: 4000 });
        let r = simulate_ooo(&t, &state, &SimConfig::default()).unwrap();
        // 4-wide: 1000 dispatch cycles, small pipeline tail.
        assert!(r.cycles >= 1000 && r.cycles < 1010, "{}", r.cycles);
        assert!((r.ipc() - 4.0).abs() < 0.1);
    }

    #[test]
    fn independent_loads_overlap_dependent_loads_serialize() {
        let state = machine();
        let stride = 8192u64; // distinct lines and pages
        let base = 0x2000_0000_0000u64;
        let cfg = SimConfig::default();

        let mut indep = Trace::new();
        for i in 0..32 {
            indep.push(TraceOp::Load {
                va: VirtAddr::new(base + i * stride),
                dep: None,
            });
        }
        let r_indep = simulate_ooo(&indep, &state, &cfg).unwrap();

        let mut chain = Trace::new();
        let mut prev = None;
        for i in 0..32 {
            prev = Some(chain.push(TraceOp::Load {
                va: VirtAddr::new(base + i * stride),
                dep: prev,
            }));
        }
        let r_chain = simulate_ooo(&chain, &state, &cfg).unwrap();

        assert!(
            r_chain.cycles > 3 * r_indep.cycles,
            "chain {} vs indep {}",
            r_chain.cycles,
            r_indep.cycles
        );
    }

    #[test]
    fn ooo_hides_latency_better_than_inorder() {
        // A BASE-style software-translation workload with independent work
        // between accesses: the OoO core should close part of the gap.
        let mut rt = Runtime::new(RuntimeConfig {
            mode: TranslationMode::Software,
            ..RuntimeConfig::default()
        });
        let pool = rt.pool_create("p", 1 << 18).unwrap();
        let mut oids = Vec::new();
        for _ in 0..64 {
            oids.push(rt.pmalloc(pool, 64).unwrap());
        }
        rt.take_trace();
        for &oid in &oids {
            let r = rt.deref(oid, None).unwrap();
            let _ = rt.read_u64_at(&r, 0).unwrap();
            rt.exec(12);
        }
        let trace = rt.take_trace();
        let state = rt.machine_state();
        let cfg = SimConfig::default();
        let ino = simulate_inorder(&trace, &state, &cfg).unwrap();
        let ooo = simulate_ooo(&trace, &state, &cfg).unwrap();
        assert!(
            ooo.cycles < ino.cycles,
            "ooo {} < ino {}",
            ooo.cycles,
            ino.cycles
        );
        assert_eq!(ooo.instructions, ino.instructions);
    }

    #[test]
    fn fence_serializes_clwbs() {
        let state = machine();
        let cfg = SimConfig::default();
        let base = 0x2000_0000_0000u64;
        // Two clwbs + fence: clwbs overlap each other, fence waits for both.
        let mut t = Trace::new();
        t.push(TraceOp::Clwb {
            va: VirtAddr::new(base),
        });
        t.push(TraceOp::Clwb {
            va: VirtAddr::new(base + 64),
        });
        t.push(TraceOp::Fence);
        t.push(TraceOp::Exec { n: 1 });
        let r = simulate_ooo(&t, &state, &cfg).unwrap();
        // Both clwbs complete ≈ cycle 101-102; fence after; well under 200
        // (serial execution would be > 200).
        assert!(r.cycles > 100 && r.cycles < 120, "{}", r.cycles);
    }

    #[test]
    fn rob_limits_memory_parallelism() {
        let state = machine();
        let base = 0x2000_0000_0000u64;
        let mut t = Trace::new();
        for i in 0..512u64 {
            t.push(TraceOp::Load {
                va: VirtAddr::new(base + i * 8192),
                dep: None,
            });
        }
        let narrow = SimConfig {
            core: crate::config::CoreConfig {
                rob_size: 8,
                lq_size: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let wide = SimConfig::default();
        let r_narrow = simulate_ooo(&t, &state, &narrow).unwrap();
        let r_wide = simulate_ooo(&t, &state, &wide).unwrap();
        assert!(
            r_narrow.cycles > 2 * r_wide.cycles,
            "narrow {} wide {}",
            r_narrow.cycles,
            r_wide.cycles
        );
    }

    #[test]
    fn stores_forward_to_loads_of_every_kind() {
        // After translation the LSQ holds virtual addresses, so a queued
        // store forwards to a later load of the same word whatever their
        // kinds (§4.4), `nvst` to a regular load included (§4.3). The
        // forwarded load takes its data from the store queue: the cache
        // hierarchy (counters and LRU state) ends as the store alone left
        // it, and the load finishes before the same load replayed cold.
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 64).unwrap();
        let va = rt.deref(oid, None).unwrap().va();
        let state = rt.machine_state();
        let cfg = SimConfig::default();
        let stores = [
            ("Store", TraceOp::Store { va, dep: None }),
            ("NvStore", TraceOp::NvStore { oid, va, dep: None }),
        ];
        let loads = [
            ("Load", TraceOp::Load { va, dep: None }),
            ("NvLoad", TraceOp::NvLoad { oid, va, dep: None }),
        ];
        for (store_kind, store) in stores {
            let store_only = simulate_ooo_ops([store], &state, &cfg).unwrap();
            assert_eq!(store_only.store_forwards, 0);
            for (load_kind, load) in loads {
                let row = format!("{store_kind} -> {load_kind}");
                let fwd = simulate_ooo_ops([store, load], &state, &cfg).unwrap();
                let cold = simulate_ooo_ops([load], &state, &cfg).unwrap();
                assert_eq!(fwd.store_forwards, 1, "{row}: the load must forward");
                assert_eq!(
                    fwd.cache, store_only.cache,
                    "{row}: the forwarded load touched the cache"
                );
                assert!(
                    fwd.cycles < cold.cycles,
                    "{row}: {} !< cold {}",
                    fwd.cycles,
                    cold.cycles
                );
            }
        }
    }

    #[test]
    fn zero_length_exec_first_op_is_harmless() {
        // `rt.exec(0)` must not underflow the dispatch clock when it is
        // the first thing a trace would record. The runtime drops it, the
        // trace drops it at push, and the model guards the raw-stream case.
        let state = machine();
        let cfg = SimConfig::default();

        let mut rt = Runtime::new(RuntimeConfig::opt());
        rt.exec(0);
        rt.exec(3);
        let t = rt.take_trace();
        let r = simulate_ooo(&t, &state, &cfg).unwrap();
        assert_eq!(r.instructions, 3);

        // Trace::push drops the empty batch outright.
        let mut t2 = Trace::new();
        t2.push(TraceOp::Exec { n: 0 });
        assert!(t2.is_empty());

        // And even a hand-built stream that bypasses Trace entirely must
        // not wrap `slot - 1` in the Exec arm.
        let r3 = super::simulate_ooo_ops(
            [TraceOp::Exec { n: 0 }, TraceOp::Exec { n: 4 }],
            &state,
            &cfg,
        )
        .unwrap();
        assert_eq!(r3.instructions, 4);
    }

    #[test]
    fn dependence_across_zero_length_filler_is_exact() {
        // A cold load, 1000 empty `Exec` ops (a raw stream: `Trace::push`
        // drops them), then a load that depends on the first. Neither
        // core's clock moves across the filler, so the first load's
        // completion time must survive it on both: a history of a fixed
        // number of ops would lose it.
        let state = machine();
        let cfg = SimConfig::default();
        let va = VirtAddr::new(0x2000_0000_0000);
        let first = TraceOp::Load { va, dep: None };
        let last = TraceOp::Load { va, dep: Some(0) };
        let padded = || {
            std::iter::once(first)
                .chain(std::iter::repeat_n(TraceOp::Exec { n: 0 }, 1000))
                .chain(std::iter::once(last))
        };
        let independent = TraceOp::Load { va, dep: None };

        let inorder = simulate_inorder_ops([first, last], &state, &cfg).unwrap();
        assert_eq!(
            simulate_inorder_ops(padded(), &state, &cfg).unwrap(),
            inorder
        );
        let without_dep = simulate_inorder_ops([first, independent], &state, &cfg).unwrap();
        assert!(inorder.cycles > without_dep.cycles, "the dependence stalls");

        let ooo = simulate_ooo_ops([first, last], &state, &cfg).unwrap();
        assert_eq!(simulate_ooo_ops(padded(), &state, &cfg).unwrap(), ooo);
        let without_dep = simulate_ooo_ops([first, independent], &state, &cfg).unwrap();
        assert!(ooo.cycles > without_dep.cycles, "the dependence stalls");
    }

    #[test]
    fn polb_hit_cost_is_small_on_ooo() {
        let mut rt = Runtime::new(RuntimeConfig::opt());
        let pool = rt.pool_create("p", 1 << 16).unwrap();
        let oid = rt.pmalloc(pool, 4096).unwrap();
        rt.take_trace();
        for i in 0..64u32 {
            let r = rt.deref(oid, None).unwrap();
            let _ = rt.read_u64_at(&r, (i % 32) * 8).unwrap();
            rt.exec(4);
        }
        let trace = rt.take_trace();
        let state = rt.machine_state();
        let normal = simulate_ooo(&trace, &state, &SimConfig::default()).unwrap();
        let ideal = simulate_ooo(
            &trace,
            &state,
            &SimConfig::with_translation(TranslationConfig::default().idealized()),
        )
        .unwrap();
        assert!(normal.cycles >= ideal.cycles);
        let overhead = normal.cycles as f64 / ideal.cycles as f64;
        assert!(
            overhead < 2.0,
            "POLB-hit overhead should be modest: {overhead}"
        );
    }
}

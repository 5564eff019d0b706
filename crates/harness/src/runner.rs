//! Workload execution + simulation plumbing shared by all experiments.

use std::sync::atomic::{AtomicUsize, Ordering};

use poat_core::{PolbDesign, TranslationConfig};
use poat_pmem::{
    ChunkBounds, MachineState, Runtime, RuntimeConfig, Trace, TraceSummary, XlatStats,
};
use poat_sim::{simulate_inorder, simulate_ooo, SimConfig, SimResult};
use poat_workloads::{ExpConfig, Micro, Pattern, Tpcc, TpccConfig, TpccPattern};

/// Scale knob for every experiment: `full` reproduces the paper's exact
/// workload sizes; `quick` shrinks operation counts (~10×) and the TPC-C
/// database so the whole suite runs in seconds (used by tests and smoke
/// runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-exact workload sizes (Table 5; TPC-C at 10% cardinality with
    /// the full 1000 transactions — see EXPERIMENTS.md).
    Full,
    /// ~10× smaller microbenchmarks, ~100× smaller TPC-C.
    Quick,
}

impl Scale {
    /// Operation count for a microbenchmark at this scale.
    pub fn ops(self, bench: Micro) -> usize {
        match self {
            Scale::Full => bench.ops(),
            Scale::Quick => (bench.ops() / 10).max(50),
        }
    }

    /// TPC-C cardinality scale factor.
    pub fn tpcc_scale(self) -> f64 {
        match self {
            // 10% of spec cardinality: trees reach their steady-state
            // depth, per-transaction work matches the full database, and
            // population stays tractable in simulation (see EXPERIMENTS.md).
            Scale::Full => 0.1,
            Scale::Quick => 0.005,
        }
    }

    /// TPC-C transaction count.
    pub fn tpcc_transactions(self) -> u64 {
        match self {
            Scale::Full => 1000,
            Scale::Quick => 50,
        }
    }

    /// The scale's name as it appears in run manifests and CLI flags
    /// (`--scale quick`).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    /// The scale a [`label`](Scale::label) names.
    pub fn parse(label: &str) -> Option<Scale> {
        [Scale::Full, Scale::Quick]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

/// The product of executing one workload natively: its dynamic trace and
/// the machine state the timing models replay against.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Human-readable `bench/pattern/config` identity of the run; used as
    /// the `run` label scoping this run's span series (docs/METRICS.md).
    pub label: String,
    /// The dynamic instruction trace.
    pub trace: Trace,
    /// POT + page-table state for the simulator.
    pub state: MachineState,
    /// Software-translation counters (meaningful for BASE runs).
    pub xlat: XlatStats,
    /// Trace-wide instruction/op counts.
    pub summary: TraceSummary,
    /// Pools the workload created.
    pub pools: u64,
}

/// Deterministic per-(bench, pattern, config) seed, so BASE and OPT runs
/// of the same workload see identical keys and pool layouts.
fn seed_for(bench: Micro, pattern: Pattern) -> u64 {
    let b = bench.abbrev().bytes().fold(0u64, |a, c| a * 31 + c as u64);
    let p = match pattern {
        Pattern::All => 1,
        Pattern::Each => 2,
        Pattern::Random => 3,
    };
    b * 1000 + p
}

/// Runs a microbenchmark natively and captures its trace.
///
/// # Panics
///
/// Panics on runtime errors — experiment inputs are fixed, so failures
/// are bugs, not recoverable conditions.
pub fn run_micro(bench: Micro, pattern: Pattern, config: ExpConfig, scale: Scale) -> WorkloadRun {
    run_micro_custom(bench, pattern, config, scale, |_| {})
}

/// [`run_micro`] with a hook to tweak the runtime configuration (used by
/// the ablation experiments, e.g. disabling the last-value predictor).
///
/// # Panics
///
/// Panics on runtime errors (see [`run_micro`]).
pub fn run_micro_custom(
    bench: Micro,
    pattern: Pattern,
    config: ExpConfig,
    scale: Scale,
    tweak: impl FnOnce(&mut RuntimeConfig),
) -> WorkloadRun {
    run_micro_seeded(bench, pattern, config, scale, 0, tweak)
}

/// [`run_micro_custom`] with a seed salt: a non-zero salt re-randomizes
/// the workload keys, ASLR layout, and branch outcomes, for studying
/// sensitivity of the results to the random inputs.
///
/// # Panics
///
/// Panics on runtime errors (see [`run_micro`]).
pub fn run_micro_seeded(
    bench: Micro,
    pattern: Pattern,
    config: ExpConfig,
    scale: Scale,
    salt: u64,
    tweak: impl FnOnce(&mut RuntimeConfig),
) -> WorkloadRun {
    let seed = seed_for(bench, pattern) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut cfg = config.runtime_config(seed);
    tweak(&mut cfg);
    let mut rt = Runtime::new(cfg);
    let label = format!("{bench}/{pattern}/{config}");
    let _scope = poat_telemetry::run_scope(&label);
    let exec_span = poat_telemetry::global().span(poat_telemetry::PHASE_WORKLOAD_EXEC);
    let report = bench
        .run_ops(&mut rt, pattern, seed, scale.ops(bench))
        .unwrap_or_else(|e| panic!("{bench}/{pattern}/{config}: {e}"));
    drop(exec_span);
    let trace = rt.take_trace();
    let run = WorkloadRun {
        label,
        summary: trace.summary(),
        state: rt.machine_state(),
        xlat: rt.xlat_stats(),
        pools: report.pools,
        trace,
    };
    publish_workload(&run);
    run
}

/// Feeds a finished workload run into the aggregate `harness.workload.*`
/// and `harness.trace.*` counters the harness uses for per-experiment
/// throughput and trace-footprint numbers.
fn publish_workload(run: &WorkloadRun) {
    let registry = poat_telemetry::global();
    registry.counter("harness.workload.runs").inc();
    registry
        .counter("harness.workload.instructions")
        .add(run.summary.instructions);
    registry
        .counter("harness.trace.ops")
        .add(run.trace.len() as u64);
    registry
        .counter("harness.trace.bytes")
        .add(run.trace.encoded_bytes() as u64);
}

/// Runs TPC-C natively and captures the trace of its transactions, the
/// phase the paper measures. Population runs untraced inside
/// [`Tpcc::setup`], under the `workload_setup` span.
///
/// # Panics
///
/// Panics on runtime errors (see [`run_micro`]).
pub fn run_tpcc(pattern: TpccPattern, config: ExpConfig, scale: Scale) -> WorkloadRun {
    let seed = 0x7C0C + matches!(pattern, TpccPattern::Each) as u64;
    let mut rt = Runtime::new(config.runtime_config(seed));
    let cfg = TpccConfig {
        scale: scale.tpcc_scale(),
        seed,
    };
    let label = format!("TPCC/{pattern}/{config}");
    let _scope = poat_telemetry::run_scope(&label);
    let setup_span = poat_telemetry::global().span(poat_telemetry::PHASE_WORKLOAD_SETUP);
    let mut tpcc = Tpcc::setup(&mut rt, pattern, cfg)
        .unwrap_or_else(|e| panic!("tpcc setup {pattern}/{config}: {e}"));
    drop(setup_span);
    // Population still calls the software translator; subtract its
    // counts so Table 2-style stats cover the measured phase only.
    let setup_xlat = rt.xlat_stats();
    let exec_span = poat_telemetry::global().span(poat_telemetry::PHASE_WORKLOAD_EXEC);
    tpcc.run(&mut rt, scale.tpcc_transactions())
        .unwrap_or_else(|e| panic!("tpcc run {pattern}/{config}: {e}"));
    drop(exec_span);
    let trace = rt.take_trace();
    let mut xlat = rt.xlat_stats();
    xlat.calls -= setup_xlat.calls;
    xlat.instructions -= setup_xlat.instructions;
    xlat.predictor_hits -= setup_xlat.predictor_hits;
    xlat.predictor_misses -= setup_xlat.predictor_misses;
    xlat.probes -= setup_xlat.probes;
    let run = WorkloadRun {
        label,
        summary: trace.summary(),
        state: rt.machine_state(),
        xlat,
        pools: rt.open_pools() as u64,
        trace,
    };
    publish_workload(&run);
    run
}

/// Which core model to replay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Core {
    /// Five-stage in-order pipeline.
    InOrder,
    /// 4-wide out-of-order (ROB model).
    OutOfOrder,
}

/// Replays a run on the given core with the given translation hardware.
///
/// # Panics
///
/// Panics if the combination is unsupported (Parallel on out-of-order).
pub fn simulate(run: &WorkloadRun, core: Core, translation: TranslationConfig) -> SimResult {
    simulate_with(run, core, SimConfig::with_translation(translation))
}

/// [`simulate`] with a full simulator configuration (cache/prefetch
/// knobs for ablations).
///
/// Always replays the whole trace in one pass, so the result is the
/// model's own number at every scale and every `--workers` width.
///
/// # Panics
///
/// Panics if the combination is unsupported (Parallel on out-of-order).
pub fn simulate_with(run: &WorkloadRun, core: Core, cfg: SimConfig) -> SimResult {
    // Simulations fan out over a thread pool; scoping by the run's label
    // keeps this run's span samples out of every other run's
    // distribution (the unscoped series still aggregates all of them).
    let _scope = poat_telemetry::run_scope(&run.label);
    let _sim_span = poat_telemetry::global().span(poat_telemetry::PHASE_POLB_SIM);
    match core {
        Core::InOrder => simulate_inorder(&run.trace, &run.state, &cfg),
        Core::OutOfOrder => simulate_ooo(&run.trace, &run.state, &cfg),
    }
    .expect("unsupported core/design combination")
}

/// Ops per chunk of the sharded replay earlier releases used for long
/// traces. The runner never shards; kept for bench-e2e, which still
/// reports shard geometry, until a benchmark change drops it.
pub const SHARD_OPS: usize = 1 << 19;

/// Trace length from which the runner would shard a replay: the runner
/// never shards, so no trace reaches it. Kept for bench-e2e until a
/// benchmark change drops it.
pub const SHARD_MIN_OPS: usize = usize::MAX;

/// The span shard `k` covered under the retired sharded replay (its own
/// chunk prefixed by the whole previous chunk as warmup), plus that
/// warmup length in ops. The runner never shards; kept for bench-e2e
/// until a benchmark change drops it.
pub fn warm_shard_span(bounds: &[ChunkBounds], k: usize) -> (ChunkBounds, usize) {
    if k == 0 {
        return (bounds[0], 0);
    }
    let (prev, cur) = (bounds[k - 1], bounds[k]);
    let span = ChunkBounds {
        first_op: prev.first_op,
        ops: prev.ops + cur.ops,
        payload_off: prev.payload_off,
        payload_len: cur.payload_off + cur.payload_len - prev.payload_off,
        prev_va: prev.prev_va,
        prev_oid: prev.prev_oid,
    };
    (span, prev.ops)
}

/// The three translation configurations Figure 9 compares.
pub fn pipelined() -> TranslationConfig {
    TranslationConfig::for_design(PolbDesign::Pipelined)
}

/// Table 4 Parallel-design configuration.
pub fn parallel() -> TranslationConfig {
    TranslationConfig::for_design(PolbDesign::Parallel)
}

/// Zero-overhead translation (the red dots of Figure 9).
pub fn ideal() -> TranslationConfig {
    TranslationConfig::default().idealized()
}

/// Runs tasks on a small worker pool, preserving input order of results.
///
/// Parallelism is still bounded — at most `max_workers` tasks are live at
/// once and each returns only its small result — but the compact trace
/// encoding (a few bytes per op instead of the old 40 B enum) leaves the
/// matrix CPU-bound rather than memory-bound at this width. The pool's
/// `pool.*` gauges and HUD lines carry the label `map` (docs/METRICS.md).
///
/// # Panics
///
/// Re-raises the first panic a task raised, once every worker has
/// stopped.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::collections::VecDeque;
    use std::sync::Mutex;

    let n = inputs.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(inputs.into_iter().enumerate().collect());
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results_mutex = Mutex::new(&mut results);
    let workers = max_workers.max(1).min(n.max(1));
    let monitor = crate::hud::PoolMonitor::new("map", workers, n as u64);
    let panicked = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queue, results_mutex, monitor, f) = (&queue, &results_mutex, &monitor, &f);
                s.spawn(move || loop {
                    let next = queue.lock().unwrap().pop_front();
                    let Some((i, item)) = next else { break };
                    let task_started = monitor.begin(w);
                    let r = f(item);
                    monitor.end(w, task_started);
                    results_mutex.lock().unwrap()[i] = Some(r);
                })
            })
            .collect();
        if crate::hud::interval().is_some() {
            s.spawn(|| monitor.run_watchdog());
        }
        let mut panicked = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panicked.get_or_insert(payload);
            }
        }
        monitor.finish();
        panicked
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("worker completed every task"))
        .collect()
}

/// `repro --workers N` override; 0 means "not set, use the host width".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent worker pool to `workers` threads (`None`
/// restores the host-derived default). Pools run whole cells, and every
/// replay covers its whole trace, so pool width never affects results,
/// only wall-clock; the exactness test replays at several widths
/// through this knob.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// Default worker count: physical parallelism, loosely capped to bound
/// memory (or the [`set_worker_override`] width when one is set). The
/// cap was 8 when traces were ~40 B/op enum vectors; the compact
/// encoding cut per-run footprint ~3-6×, so the pool now scales to
/// wide machines.
pub fn default_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(24),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_pmem::fnv::Fnv1a64;

    #[test]
    fn base_and_opt_runs_differ_only_in_codegen() {
        let base = run_micro(Micro::Ll, Pattern::All, ExpConfig::Base, Scale::Quick);
        let opt = run_micro(Micro::Ll, Pattern::All, ExpConfig::Opt, Scale::Quick);
        assert!(base.summary.nvloads == 0 && opt.summary.nvloads > 0);
        assert!(base.summary.instructions > opt.summary.instructions);
        assert_eq!(base.pools, opt.pools, "same workload shape");
    }

    #[test]
    fn simulate_runs_all_supported_combos() {
        let opt = run_micro(Micro::Bst, Pattern::Random, ExpConfig::Opt, Scale::Quick);
        let a = simulate(&opt, Core::InOrder, pipelined());
        let b = simulate(&opt, Core::InOrder, parallel());
        let c = simulate(&opt, Core::InOrder, ideal());
        let d = simulate(&opt, Core::OutOfOrder, pipelined());
        assert!(c.cycles <= a.cycles && c.cycles <= b.cycles);
        assert!(d.cycles < a.cycles, "OoO is faster than in-order");
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn parallel_on_ooo_panics() {
        let opt = run_micro(Micro::Ll, Pattern::All, ExpConfig::Opt, Scale::Quick);
        let _ = simulate(&opt, Core::OutOfOrder, parallel());
    }

    /// FNV-1a over a run's encoded trace columns, its summary and its
    /// translation counts.
    fn run_digest(run: &WorkloadRun) -> u64 {
        let (tags, data) = run.trace.encoded_columns();
        let TraceSummary {
            instructions,
            loads,
            stores,
            nvloads,
            nvstores,
            clwbs,
            fences,
            branches,
            mispredictions,
        } = run.summary;
        let XlatStats {
            calls,
            predictor_hits,
            predictor_misses,
            instructions: xlat_instructions,
            probes,
        } = run.xlat;
        [
            instructions,
            loads,
            stores,
            nvloads,
            nvstores,
            clwbs,
            fences,
            branches,
            mispredictions,
            calls,
            predictor_hits,
            predictor_misses,
            xlat_instructions,
            probes,
        ]
        .iter()
        .fold(Fnv1a64::default().update(tags).update(data), |h, v| {
            h.update(&v.to_le_bytes())
        })
        .finish()
    }

    #[test]
    fn tpcc_measured_traces_are_pinned() {
        // How population executes must not move a byte or a count of
        // the measured transactions' trace.
        let pinned = [
            (TpccPattern::All, ExpConfig::Base, 0xbd3e_6291_c8e2_420f),
            (TpccPattern::All, ExpConfig::Opt, 0x8fa6_9908_8566_964d),
            (TpccPattern::Each, ExpConfig::Base, 0x2d2e_5699_12fb_547e),
            (TpccPattern::Each, ExpConfig::Opt, 0x0312_8c20_2086_2f69),
        ];
        for (pattern, config, want) in pinned {
            let run = run_tpcc(pattern, config, Scale::Quick);
            assert_eq!(run_digest(&run), want, "{}", run.label);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), 4, |x: i32| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_reraises_a_task_panic() {
        parallel_map((0..4).collect(), 1, |x: i32| {
            assert!(x != 1, "boom");
            x
        });
    }

    /// A synthetic run longer than [`SHARD_OPS`]: a plain load/store/exec
    /// mix over a spread of pages, wrapped around the machine state of a
    /// real (quick) run.
    fn big_synthetic_run() -> WorkloadRun {
        use poat_core::VirtAddr;
        use poat_pmem::TraceOp;

        let seed_run = run_micro(Micro::Ll, Pattern::All, ExpConfig::Opt, Scale::Quick);
        let mut trace = Trace::new();
        let mut x: u64 = 0xC0FFEE;
        for i in 0..(SHARD_OPS as u64 + 10_000) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = VirtAddr::new((x % (1 << 28)) & !0x7);
            match i % 5 {
                0 | 1 => trace.push(TraceOp::Load { va, dep: None }),
                2 => trace.push(TraceOp::Store { va, dep: None }),
                3 => trace.push(TraceOp::Exec {
                    n: 1 + (x % 4) as u32,
                }),
                _ => trace.push(TraceOp::Load {
                    va,
                    // A backref up to 100 000 ops back, across the
                    // `SHARD_OPS` boundary as well.
                    dep: Some(i.saturating_sub(x % 100_000)),
                }),
            };
        }
        WorkloadRun {
            label: "synthetic/big".to_string(),
            summary: trace.summary(),
            state: seed_run.state.clone(),
            xlat: seed_run.xlat,
            pools: seed_run.pools,
            trace,
        }
    }

    #[test]
    fn full_scale_replay_is_exact_at_every_width() {
        let run = big_synthetic_run();
        let cfg = SimConfig::with_translation(pipelined());
        let inorder = simulate_inorder(&run.trace, &run.state, &cfg).unwrap();
        let ooo = simulate_ooo(&run.trace, &run.state, &cfg).unwrap();
        for width in [1usize, 8] {
            set_worker_override(Some(width));
            let got = (
                simulate(&run, Core::InOrder, pipelined()),
                simulate(&run, Core::OutOfOrder, pipelined()),
            );
            set_worker_override(None);
            assert_eq!(got.0, inorder, "in-order at {width} workers");
            assert_eq!(got.1, ooo, "out-of-order at {width} workers");
        }
    }

    #[test]
    fn tpcc_run_produces_trace() {
        let run = run_tpcc(TpccPattern::All, ExpConfig::Opt, Scale::Quick);
        assert!(run.summary.instructions > 0);
        assert!(run.summary.nvloads > 0);
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! The hot-path benchmark suite: what `bench-run` measures and
//! `BENCH_<n>.json` commits.
//!
//! One benchmark per hot path the ROADMAP's speed claims rest on —
//! POLB look-ups (both designs), the hardware POT walk, the cache/TLB
//! hierarchy including the front-of-set hit paths, trace encode/decode (the
//! canned mix encodes at ~2.6 B/op; recorded workload traces measure
//! 3.3–3.8 B/op), software `oid_direct`, full in-order/OoO replay,
//! and the static analyzer's lex + IR/CFG throughput over the
//! workspace (the CI gate's own cost) — plus the wall-clock budget
//! check for the quick-scale Figure-9 matrix. Benchmark ids (`group/name`) are the comparator's
//! join key: renaming one shows up as MISSING + added, so treat ids as
//! a stable public interface (docs/BENCHMARKS.md).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use poat_core::polb::Polb;
use poat_core::{ObjectId, PolbDesign, PoolId, Pot, VirtAddr};
use poat_harness::artifact::first_difference;
use poat_harness::experiments::{self, MainResults};
use poat_harness::Scale;
use poat_pmem::{Runtime, RuntimeConfig, Trace, TraceOp};
use poat_sim::cache::MemoryHierarchy;
use poat_sim::tlb::Tlb;
use poat_sim::{simulate_inorder, simulate_ooo, SimConfig};
use poat_workloads::{ExpConfig, Micro, Pattern};

use crate::report::BenchReport;
use crate::runner::Runner;

/// Wall-clock budget for one full quick-scale Figure-9/Table-8 matrix
/// (`experiments::main_matrix(Scale::Quick)`): every workload executed
/// natively under BASE and OPT, then replayed on both cores across the
/// translation designs. Measured ~2.4 s (release) on the baseline
/// host; the budget carries ~12× headroom so it trips on structural
/// blow-ups (an accidentally quadratic model, paper-scale ops leaking
/// into the quick path), not on machine variance.
pub const FIG9_QUICK_BUDGET: Duration = Duration::from_secs(30);

/// Wall-clock budget for one full-scale (paper-exact) Figure-9/Table-8
/// matrix. Full scale is ~10× the quick microbenchmark ops and ~20× the
/// TPC-C transactions, so this check costs seconds to tens of seconds —
/// it is therefore **opt-in** via [`FULL_BUDGET_ENV`] rather than part
/// of every `bench-run`. `scripts/ci.sh` sets the variable for one
/// filtered run, so every CI run pins the full-matrix cost and checks
/// `results_full.json` (docs/BENCHMARKS.md). Sized from a measured
/// ~45 s on the 1-core baseline host with generous structural headroom.
pub const FIG9_FULL_BUDGET: Duration = Duration::from_secs(1800);

/// Environment variable that opts the full-scale matrix budget into a
/// bench run (any non-empty value other than `0`). Checked at
/// registration time by [`register`].
pub const FULL_BUDGET_ENV: &str = "POAT_BENCH_FULL_BUDGET";

/// The committed full-scale artifact (`repro all --json
/// results_full.json`) whose `"main"` entry the full budget pass checks.
const FULL_RESULTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_full.json");

/// Where a freshly computed full-scale main matrix first differs from
/// the `"main"` entry of the committed results file `committed` (its
/// JSON text), or `None` when every row matches.
fn full_results_mismatch(main: &MainResults, committed: &str) -> Option<String> {
    let committed: serde_json::Value = match serde_json::from_str(committed) {
        Ok(v) => v,
        Err(e) => return Some(format!("it does not parse: {e}")),
    };
    let Some(committed_main) = committed.get("main") else {
        return Some("it has no \"main\" entry".to_string());
    };
    let fresh = serde_json::to_value(main).expect("MainResults serializes");
    first_difference(committed_main, &fresh).map(|d| format!("main.{d}"))
}

/// Whether the [`FULL_BUDGET_ENV`] opt-in is active for this process.
pub fn full_budget_requested() -> bool {
    std::env::var(FULL_BUDGET_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// `pool(n)`, panicking only on the reserved id 0.
fn pool(n: u32) -> PoolId {
    PoolId::new(n).expect("non-zero pool id")
}

/// A deterministic synthetic op mix for the trace-encoding benchmarks:
/// pointer-chasing loads with dependency edges, persistent accesses
/// with small oid/address strides, exec batches, clwb/fence pairs, and
/// branches — the same shape (and therefore roughly the same B/op) as
/// a recorded workload trace.
fn canned_ops(n: usize, seed: u64) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    let mut va: u64 = 0x7F33_2000_0000;
    let mut oid = ObjectId::new(pool(3), 0x40);
    let mut last_load: Option<u64> = None;
    while ops.len() < n {
        match ops.len() % 8 {
            0 => ops.push(TraceOp::Exec {
                n: rng.gen_range(1u32..8),
            }),
            1 | 5 => {
                va = va.wrapping_add(rng.gen_range(8u64..256) & !7);
                last_load = Some(ops.len() as u64);
                ops.push(TraceOp::Load {
                    va: VirtAddr::new(va),
                    dep: None,
                });
            }
            2 => ops.push(TraceOp::NvLoad {
                oid,
                va: VirtAddr::new(va),
                dep: last_load,
            }),
            3 => {
                oid = oid.add(rng.gen_range(8u32..128) & !7);
                ops.push(TraceOp::NvStore {
                    oid,
                    va: VirtAddr::new(va),
                    dep: last_load,
                });
            }
            4 => ops.push(TraceOp::Store {
                va: VirtAddr::new(va),
                dep: last_load,
            }),
            6 => ops.push(TraceOp::Clwb {
                va: VirtAddr::new(va),
            }),
            _ => {
                if ops.len() % 16 == 7 {
                    ops.push(TraceOp::Fence);
                } else {
                    ops.push(TraceOp::Branch {
                        mispredicted: rng.gen_range(0u32..10) == 0,
                    });
                }
            }
        }
    }
    ops
}

fn encode(ops: &[TraceOp]) -> Trace {
    let mut t = Trace::new();
    for &op in ops {
        t.push(op);
    }
    t
}

/// Registers the translation-structure benchmarks: POLB hit paths for
/// both designs, the miss path, and hardware POT walks.
fn translation_benches(r: &mut Runner) {
    // POLB hit-path look-up, both designs, 32 entries (paper default).
    let mut pipe = Polb::new(PolbDesign::Pipelined, 32);
    let mut par = Polb::new(PolbDesign::Parallel, 32);
    for i in 1..=32u32 {
        let o = ObjectId::new(pool(i), 0);
        pipe.fill(o, (i as u64) << 32);
        par.fill(o, (i as u64) << 12);
    }
    let oids: Vec<ObjectId> = (1..=32u32).map(|i| ObjectId::new(pool(i), 64)).collect();
    let n = oids.len() as u64;
    {
        let oids = oids.clone();
        r.bench("translation", "polb_pipelined_hit", n, move || {
            for &o in &oids {
                std::hint::black_box(pipe.translate(o));
            }
        });
    }
    {
        let oids = oids.clone();
        r.bench("translation", "polb_parallel_hit", n, move || {
            for &o in &oids {
                std::hint::black_box(par.translate(o));
            }
        });
    }
    {
        // Misses against a filled CAM: every look-up scans and fails.
        let mut pipe = Polb::new(PolbDesign::Pipelined, 32);
        for i in 1..=32u32 {
            pipe.fill(ObjectId::new(pool(i), 0), (i as u64) << 32);
        }
        let miss_oids: Vec<ObjectId> = (1000..1032u32)
            .map(|i| ObjectId::new(pool(i), 64))
            .collect();
        r.bench("translation", "polb_pipelined_miss", n, move || {
            for &o in &miss_oids {
                std::hint::black_box(pipe.translate(o));
            }
        });
    }

    // POT hardware walk at paper size (16384 entries, 1000 pools mapped).
    let mut pot = Pot::new(16384);
    for i in 1..=1000u32 {
        pot.insert(pool(i), VirtAddr::new((i as u64) << 32))
            .expect("pot has free capacity");
    }
    r.bench("translation", "pot_walk_hit", 1000, move || {
        for i in 1..=1000u32 {
            std::hint::black_box(pot.walk(pool(i)));
        }
    });
    let mut pot_miss = Pot::new(16384);
    for i in 1..=1000u32 {
        pot_miss
            .insert(pool(i), VirtAddr::new((i as u64) << 32))
            .expect("pot has free capacity");
    }
    r.bench("translation", "pot_walk_miss", 1000, move || {
        for i in 2000..3000u32 {
            std::hint::black_box(pot_miss.walk(pool(i)));
        }
    });
}

/// Registers the cache/TLB hierarchy benchmarks. The `*_mru_hit` ids
/// predate the recency-ordered sets and are kept so the trajectory
/// still joins; they time a hit on the front (most recently used) slot.
fn memory_benches(r: &mut Runner) {
    const ACCESSES: u64 = 64;

    // Same line over and over: a hit on the front of its L1 set.
    let mut h = MemoryHierarchy::new(&SimConfig::default().mem);
    h.access(0x1000); // warm the line
    r.bench("memory", "cache_l1_mru_hit", ACCESSES, move || {
        for _ in 0..ACCESSES {
            std::hint::black_box(h.access(0x1000));
        }
    });

    // A new line every access, far beyond L3 capacity: the full
    // L1→L2→L3→memory miss path with LRU victim selection.
    let mut h = MemoryHierarchy::new(&SimConfig::default().mem);
    let mut pa: u64 = 0;
    r.bench(
        "memory",
        "cache_hierarchy_miss_stream",
        ACCESSES,
        move || {
            for _ in 0..ACCESSES {
                pa = pa.wrapping_add(64 * 8191) & ((1 << 34) - 1);
                std::hint::black_box(h.access(pa));
            }
        },
    );

    // Same page repeatedly: a hit on the TLB's front entry.
    let mut tlb = Tlb::new(64);
    tlb.access(0x5000);
    r.bench("memory", "tlb_mru_hit", ACCESSES, move || {
        for _ in 0..ACCESSES {
            std::hint::black_box(tlb.access(0x5000));
        }
    });

    // Stride through 1024 pages with 64 entries: every access misses
    // and evicts (the full-scan + LRU replacement path).
    let mut tlb = Tlb::new(64);
    let mut page: u64 = 0;
    r.bench("memory", "tlb_miss_stream", ACCESSES, move || {
        for _ in 0..ACCESSES {
            page = (page + 1) % 1024;
            std::hint::black_box(tlb.access(page << 12));
        }
    });
}

/// Registers the trace encode/decode benchmarks (DESIGN.md §5a).
fn trace_benches(r: &mut Runner) {
    const OPS: usize = 4096;
    let ops = canned_ops(OPS, 0xBEEF);
    let reference = encode(&ops);
    let encoded_bytes = reference.encoded_bytes() as u64;
    let decoded_len = reference.len() as u64;

    {
        let ops = ops.clone();
        r.bench_bytes(
            "trace",
            "encode_push",
            decoded_len,
            encoded_bytes,
            move || {
                std::hint::black_box(encode(&ops));
            },
        );
    }
    {
        let t = reference.clone();
        r.bench_bytes(
            "trace",
            "decode_stream",
            decoded_len,
            encoded_bytes,
            move || {
                let mut count = 0usize;
                for op in t.ops() {
                    count += usize::from(std::hint::black_box(op).is_memory());
                }
                std::hint::black_box(count);
            },
        );
    }
    {
        // Full eager validation from raw columns (`Trace::from_encoded`,
        // the one way to build a trace from untrusted column bytes).
        let (tags, data) = reference.encoded_columns();
        let (tags, data) = (tags.to_vec(), data.to_vec());
        r.bench_bytes(
            "trace",
            "validate_from_encoded",
            decoded_len,
            encoded_bytes,
            move || {
                let t = Trace::from_encoded(tags.clone(), data.clone())
                    .expect("canned trace is well-formed");
                std::hint::black_box(t.len());
            },
        );
    }
}

/// Registers the software-translation (`oid_direct`) benchmarks —
/// the BASE-config cost the paper's hardware removes.
fn runtime_benches(r: &mut Runner) {
    const DEREFS: u64 = 64;
    let mut rt = Runtime::new(RuntimeConfig::base());
    let pools: Vec<_> = (0..32)
        .map(|i| {
            rt.pool_create(&format!("bench{i}"), 1 << 16)
                .expect("pool_create at bench scale")
        })
        .collect();
    let hit_oid = ObjectId::new(pools[0], 64);
    {
        r.bench("runtime", "oid_direct_predictor_hit", DEREFS, move || {
            for _ in 0..DEREFS {
                std::hint::black_box(rt.deref(hit_oid, None).expect("mapped oid"));
            }
            rt.take_trace(); // keep the recorded trace from accumulating
        });
    }
    let mut rt = Runtime::new(RuntimeConfig::base());
    let pools: Vec<_> = (0..32)
        .map(|i| {
            rt.pool_create(&format!("bench{i}"), 1 << 16)
                .expect("pool_create at bench scale")
        })
        .collect();
    let alternating: Vec<ObjectId> = (0..DEREFS as usize)
        .map(|i| ObjectId::new(pools[i % 32], 64))
        .collect();
    r.bench("runtime", "oid_direct_predictor_miss", DEREFS, move || {
        for &o in &alternating {
            std::hint::black_box(rt.deref(o, None).expect("mapped oid"));
        }
        rt.take_trace();
    });
}

/// Registers the end-to-end replay benchmarks: a representative OPT
/// trace (BST, RANDOM) replayed on both core models.
fn replay_benches(r: &mut Runner) {
    let run =
        poat_harness::runner::run_micro(Micro::Bst, Pattern::Random, ExpConfig::Opt, Scale::Quick);
    let ops = run.trace.len() as u64;
    let cfg = SimConfig::default();
    {
        let (trace, state) = (run.trace.clone(), run.state.clone());
        r.bench("replay", "inorder_bst_random", ops, move || {
            std::hint::black_box(
                simulate_inorder(&trace, &state, &cfg).expect("supported core/design combination"),
            );
        });
    }
    let (trace, state) = (run.trace, run.state);
    r.bench("replay", "ooo_bst_random", ops, move || {
        std::hint::black_box(
            simulate_ooo(&trace, &state, &cfg).expect("supported core/design combination"),
        );
    });
}

/// Registers the static-analyzer throughput benchmarks: lexing and
/// IR+CFG construction over the real workspace sources. The analyzer
/// runs on every CI pass, so its own cost is tracked here like any
/// other hot path; `bytes_per_iter` is the total source footprint, so
/// the B/op column reads as average file size and regressions show up
/// as ns/file drift.
fn analyzer_benches(r: &mut Runner) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = poat_analyzer::Workspace::load(&root)
        .expect("workspace sources readable from the source tree");
    let texts: Vec<String> = ws.rust_files().map(|f| f.text.clone()).collect();
    let files = texts.len() as u64;
    let bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    {
        let texts = texts.clone();
        r.bench_bytes("analyzer", "lex_workspace", files, bytes, move || {
            for t in &texts {
                std::hint::black_box(poat_analyzer::lexer::lex(t));
            }
        });
    }
    let lexed: Vec<_> = texts.iter().map(|t| poat_analyzer::lexer::lex(t)).collect();
    r.bench_bytes("analyzer", "ir_cfg_workspace", files, bytes, move || {
        for l in &lexed {
            for f in poat_analyzer::ir::functions(&l.tokens) {
                std::hint::black_box(poat_analyzer::cfg::Cfg::build(&f));
            }
        }
    });
}

/// Registers every benchmark in the suite, plus (optionally) the
/// Figure-9 quick-matrix wall-clock budget check.
///
/// # Panics
///
/// When the opt-in full-scale pass computes a main matrix that differs
/// from the committed `results_full.json`, naming the first row that
/// differs: a stale full-scale artifact fails the run.
pub fn register(r: &mut Runner, include_budget: bool) {
    translation_benches(r);
    memory_benches(r);
    trace_benches(r);
    runtime_benches(r);
    replay_benches(r);
    analyzer_benches(r);
    if include_budget {
        r.budget("fig9_quick_matrix", FIG9_QUICK_BUDGET, || {
            std::hint::black_box(experiments::main_matrix(Scale::Quick));
        });
        if full_budget_requested() {
            r.budget("fig9_full_matrix", FIG9_FULL_BUDGET, || {
                let main = experiments::main_matrix(Scale::Full);
                let committed = std::fs::read_to_string(FULL_RESULTS_PATH)
                    .unwrap_or_else(|e| panic!("reading {FULL_RESULTS_PATH}: {e}"));
                if let Some(diff) = full_results_mismatch(&main, &committed) {
                    panic!(
                        "results_full.json is stale: {diff}; regenerate it with \
                         `repro all --csv results_csv --json results_full.json`"
                    );
                }
            });
        }
    }
}

/// Publishes the run's aggregate footprint into the global telemetry
/// registry (`bench.*` — docs/METRICS.md), so a bench pass shows up in
/// metrics snapshots like every other subsystem.
pub fn publish_metrics(report: &BenchReport, wall: Duration) {
    let registry = poat_telemetry::global();
    registry
        .counter("bench.suite.benchmarks")
        .add(report.records.len() as u64);
    registry
        .gauge("bench.suite.wall_nanos")
        .set(wall.as_nanos() as u64);
    for b in &report.budgets {
        let name = b.id.strip_prefix("budget/").unwrap_or(&b.id);
        registry
            .gauge(&poat_telemetry::labeled(
                "bench.budget.wall_nanos",
                &[("budget", name)],
            ))
            .set(b.wall_ns);
    }
}

/// Runs the full suite with the given options: registers everything,
/// measures, publishes `bench.*` telemetry, and returns the report.
/// The optional `progress` callback receives each finished record.
pub fn run_suite(
    opts: crate::runner::BenchOptions,
    mode: &str,
    filter: Option<String>,
    include_budget: bool,
    progress: Option<crate::runner::Progress>,
) -> BenchReport {
    let t0 = Instant::now();
    let mut r = Runner::new(opts);
    r.set_filter(filter);
    if let Some(p) = progress {
        r.on_record(p);
    }
    register(&mut r, include_budget);
    let report = r.into_report(mode);
    publish_metrics(&report, t0.elapsed());
    report
}

/// Enumerates the suite's benchmark (and budget) ids without running
/// any benchmark body — `bench-run --list`.
pub fn list_suite(include_budget: bool) -> BenchReport {
    let mut r = Runner::new(crate::runner::BenchOptions::smoke());
    r.set_dry_run(true);
    register(&mut r, include_budget);
    r.into_report("list")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_ops_encode_within_budget() {
        let ops = canned_ops(4096, 0xBEEF);
        let t = encode(&ops);
        assert!(t.len() > 3500, "coalescing should not collapse the mix");
        let bpo = t.encoded_bytes() as f64 / t.len() as f64;
        assert!(
            bpo <= 12.0,
            "canned mix must respect the DESIGN.md budget, got {bpo:.2}"
        );
        // Deterministic: same seed, same bytes.
        assert_eq!(t, encode(&canned_ops(4096, 0xBEEF)));
    }

    #[test]
    fn full_results_mismatch_names_the_first_differing_row() {
        let row = |bench: &str, pattern: &str, pipelined| experiments::SpeedupRow {
            bench: bench.to_string(),
            pattern: pattern.to_string(),
            pipelined,
            parallel: Some(1.25),
            ideal: 3.0,
        };
        let main = |bst_random| MainResults {
            fig9a: vec![row("LL", "ALL", 1.5), row("BST", "RANDOM", bst_random)],
            fig9b: Vec::new(),
            table8: Vec::new(),
            instrs: Vec::new(),
        };
        let committed = {
            let mut top = std::collections::BTreeMap::new();
            top.insert("main", serde_json::to_value(&main(2.3)).unwrap());
            serde_json::to_string_pretty(&top).unwrap()
        };
        assert_eq!(full_results_mismatch(&main(2.3), &committed), None);
        assert_eq!(
            full_results_mismatch(&main(2.24), &committed).as_deref(),
            Some("main.fig9a[1 BST/RANDOM].pipelined: committed 2.3, fresh 2.24")
        );
        assert_eq!(
            full_results_mismatch(&main(2.3), "{}").as_deref(),
            Some("it has no \"main\" entry")
        );
    }

    #[test]
    fn suite_smoke_filtered_runs_quickly_and_reports() {
        // One cheap benchmark end-to-end through the real registration
        // path: proves ids are stable and the runner wiring works.
        let opts = crate::runner::BenchOptions {
            warmup: Duration::from_micros(200),
            target_sample: Duration::from_micros(200),
            samples: 5,
            max_iters: 1 << 16,
        };
        let report = run_suite(opts, "smoke", Some("tlb_mru_hit".into()), false, None);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].id, "memory/tlb_mru_hit");
        assert!(report.records[0].median_ns > 0.0);
        assert!(report.budgets.is_empty());
    }
}

//! Isolated per-layer passes of the traced run.
//!
//! Each pass drives one layer by itself over the workload's recorded
//! traces, inside its own span, so a slower end-to-end number can be
//! traced to the layer that lost the time. All passes use the Table 4
//! machine with Pipelined translation, the configuration every core
//! model supports.

use std::hint::black_box;
use std::path::Path;

use poat_core::{ObjectId, VirtAddr};
use poat_harness::runner::{self, pipelined, Core, WorkloadRun, SHARD_MIN_OPS, SHARD_OPS};
use poat_pmem::trace_io::{self, MmapTrace};
use poat_pmem::TraceOp;
use poat_sim::cache::MemoryHierarchy;
use poat_sim::pagemap::PageMap;
use poat_sim::tlb::Tlb;
use poat_sim::xlate::TranslationUnit;
use poat_sim::{simulate_inorder, simulate_ooo, SimConfig, SimResult};

use crate::spans::Tracer;
use crate::workload::CHUNK_OPS;
use crate::Metric;

/// Per-core totals of the replay passes.
#[derive(Clone, Copy, Debug, Default)]
struct CoreTotals {
    direct_s: f64,
    runner_s: f64,
    direct_cycles: u64,
    runner_cycles: u64,
}

/// Sums over every trace of the workload.
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    ops: u64,
    decode_s: f64,
    mem_accesses: u64,
    cache_tlb_s: f64,
    l1d_hits: u64,
    l1d_misses: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    nv_accesses: u64,
    xlate_s: f64,
    polb_hits: u64,
    polb_misses: u64,
    pot_walks: u64,
    inorder: CoreTotals,
    ooo: CoreTotals,
    replayed_ops: u64,
    shards: u64,
    save_s: f64,
    saved_bytes: u64,
    open_s: f64,
    checked_decode_s: f64,
    chunks: u64,
    chunks_validated: u64,
}

/// Runs every layer pass over `runs` and returns the layer metrics.
/// `dir` holds the trace files of the trace-I/O pass.
///
/// # Errors
///
/// A trace file that cannot be written, mapped or decoded.
pub fn layer_pass(runs: &[WorkloadRun], t: &mut Tracer, dir: &Path) -> Result<Vec<Metric>, String> {
    let cfg = SimConfig::with_translation(pipelined());
    let mut s = Totals::default();
    for (i, run) in runs.iter().enumerate() {
        s.ops += run.trace.len() as u64;
        s.decode_s += t
            .span("trace.decode", |_| run.trace.ops().map(black_box).count())
            .1;
        cache_tlb_pass(run, &cfg, t, &mut s);
        xlate_pass(run, &cfg, t, &mut s);
        for core in [Core::InOrder, Core::OutOfOrder] {
            replay_pass(run, core, &cfg, t, &mut s);
        }
        trace_io_pass(run, &dir.join(format!("layer-{i}.poattrc")), t, &mut s)?;
    }
    Ok(metrics(&s))
}

/// Unbatched TLB + cache hierarchy accesses over a pre-extracted vector
/// of the trace's data addresses.
fn cache_tlb_pass(run: &WorkloadRun, cfg: &SimConfig, t: &mut Tracer, s: &mut Totals) {
    let vas: Vec<VirtAddr> = run
        .trace
        .ops()
        .filter_map(|op| match op {
            TraceOp::Load { va, .. }
            | TraceOp::Store { va, .. }
            | TraceOp::NvLoad { va, .. }
            | TraceOp::NvStore { va, .. } => Some(va),
            _ => None,
        })
        .collect();
    let ((cache, tlb), secs) = t.span("cache_tlb", |_| {
        let mut hier = MemoryHierarchy::new(&cfg.mem);
        let mut tlb = Tlb::new(cfg.mem.dtlb_entries);
        let pmap = PageMap::new(&run.state.page_table);
        for &va in &vas {
            black_box(tlb.access(va.raw()));
            black_box(hier.access(pmap.phys_of(va)));
        }
        (hier.stats(), tlb.stats())
    });
    s.mem_accesses += vas.len() as u64;
    s.cache_tlb_s += secs;
    s.l1d_hits += cache.l1d.hits;
    s.l1d_misses += cache.l1d.misses;
    s.tlb_hits += tlb.hits;
    s.tlb_misses += tlb.misses;
}

/// POLB + POT translation of a pre-extracted `(oid, va)` vector of the
/// trace's `nvld`/`nvst` operands.
fn xlate_pass(run: &WorkloadRun, cfg: &SimConfig, t: &mut Tracer, s: &mut Totals) {
    let operands: Vec<(ObjectId, VirtAddr)> = run
        .trace
        .ops()
        .filter_map(|op| match op {
            TraceOp::NvLoad { oid, va, .. } | TraceOp::NvStore { oid, va, .. } => Some((oid, va)),
            _ => None,
        })
        .collect();
    if operands.is_empty() {
        return;
    }
    let (stats, secs) = t.span("xlate", |_| {
        let mut unit = TranslationUnit::new(cfg.translation, &run.state);
        for &(oid, va) in &operands {
            black_box(unit.translate(oid, va));
        }
        unit.stats()
    });
    s.nv_accesses += operands.len() as u64;
    s.xlate_s += secs;
    s.polb_hits += stats.polb.hits;
    s.polb_misses += stats.polb.misses;
    s.pot_walks += stats.pot_walks;
}

/// A direct whole-trace replay and a `runner::simulate` replay of the
/// same trace on one core, plus the runner's shard geometry.
fn replay_pass(run: &WorkloadRun, core: Core, cfg: &SimConfig, t: &mut Tracer, s: &mut Totals) {
    let (direct, direct_s) = match core {
        Core::InOrder => t.span("inorder.direct", |_| {
            simulate_inorder(&run.trace, &run.state, cfg)
        }),
        Core::OutOfOrder => t.span("ooo.direct", |_| simulate_ooo(&run.trace, &run.state, cfg)),
    };
    let direct: SimResult = direct.expect("both cores support the Pipelined design");
    let (sharded, runner_s) = t.span("runner.simulate", |_| {
        runner::simulate(run, core, cfg.translation)
    });
    let totals = match core {
        Core::InOrder => &mut s.inorder,
        Core::OutOfOrder => &mut s.ooo,
    };
    totals.direct_s += direct_s;
    totals.runner_s += runner_s;
    totals.direct_cycles += direct.cycles;
    totals.runner_cycles += sharded.cycles;

    // The split `runner::simulate_sharded` makes: each shard after the
    // first also replays its predecessor chunk as warmup.
    let len = run.trace.len();
    let bounds = if len >= SHARD_MIN_OPS {
        run.trace.chunk_bounds(SHARD_OPS)
    } else {
        Vec::new()
    };
    if bounds.len() >= 2 {
        s.shards += bounds.len() as u64;
        s.replayed_ops += (0..bounds.len())
            .map(|k| runner::warm_shard_span(&bounds, k).0.ops as u64)
            .sum::<u64>();
    } else {
        s.replayed_ops += len as u64;
    }
}

/// Chunked save, memory-mapped open, and a validating decode of every op.
fn trace_io_pass(
    run: &WorkloadRun,
    path: &Path,
    t: &mut Tracer,
    s: &mut Totals,
) -> Result<(), String> {
    let (saved, secs) = t.span("trace_io.save", |_| {
        trace_io::save_chunked(&run.trace, path, CHUNK_OPS)
    });
    saved.map_err(|e| format!("save {}: {e}", path.display()))?;
    s.save_s += secs;
    s.saved_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    let (map, secs) = t.span("mmap.open", |_| MmapTrace::open(path));
    let map = map.map_err(|e| format!("open {}: {e}", path.display()))?;
    s.open_s += secs;
    let (decoded, secs) = t.span("mmap.decode", |_| {
        map.checked_ops().try_for_each(|op| {
            op.map(|op| {
                black_box(op);
            })
        })
    });
    decoded.map_err(|e| format!("decode {}: {e}", path.display()))?;
    s.checked_decode_s += secs;
    s.chunks += map.num_chunks() as u64;
    s.chunks_validated += (0..map.num_chunks())
        .filter(|&i| map.chunk_validated(i))
        .count() as u64;
    drop(map);
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn metrics(s: &Totals) -> Vec<Metric> {
    let ops = s.ops as f64;
    let ns_per_op = |secs: f64| ratio(secs * 1e9, ops);
    // Replay time the isolated passes do not account for: pipeline
    // bookkeeping, dependency tracking, and batching. An estimate — the
    // isolated passes run without the replay's interleaving.
    let residual = |direct_s: f64| ns_per_op(direct_s - s.decode_s - s.xlate_s - s.cache_tlb_s);
    let err_pct = |c: &CoreTotals| {
        ratio(
            c.runner_cycles as f64 - c.direct_cycles as f64,
            c.direct_cycles as f64,
        ) * 100.0
    };
    let m = Metric::new;
    vec![
        m("trace.decode_ns_per_op", ns_per_op(s.decode_s), "ns"),
        m("cache_tlb.accesses", s.mem_accesses as f64, "count"),
        m(
            "cache_tlb.ns_per_access",
            ratio(s.cache_tlb_s * 1e9, s.mem_accesses as f64),
            "ns",
        ),
        m(
            "cache_tlb.l1d_miss_ratio",
            ratio(s.l1d_misses as f64, (s.l1d_hits + s.l1d_misses) as f64),
            "ratio",
        ),
        m(
            "cache_tlb.tlb_miss_ratio",
            ratio(s.tlb_misses as f64, (s.tlb_hits + s.tlb_misses) as f64),
            "ratio",
        ),
        m("xlate.accesses", s.nv_accesses as f64, "count"),
        m(
            "xlate.ns_per_access",
            ratio(s.xlate_s * 1e9, s.nv_accesses as f64),
            "ns",
        ),
        m(
            "xlate.polb_miss_ratio",
            ratio(s.polb_misses as f64, (s.polb_hits + s.polb_misses) as f64),
            "ratio",
        ),
        m("xlate.pot_walks", s.pot_walks as f64, "count"),
        m("inorder.ns_per_op", ns_per_op(s.inorder.direct_s), "ns"),
        m(
            "inorder.residual_ns_per_op",
            residual(s.inorder.direct_s),
            "ns",
        ),
        m("ooo.ns_per_op", ns_per_op(s.ooo.direct_s), "ns"),
        m("ooo.residual_ns_per_op", residual(s.ooo.direct_s), "ns"),
        m("runner.replay_s", s.inorder.runner_s + s.ooo.runner_s, "s"),
        m("runner.shards", s.shards as f64, "count"),
        m(
            "runner.replayed_ops_ratio",
            ratio(s.replayed_ops as f64, 2.0 * ops),
            "ratio",
        ),
        m(
            "runner.shard_overhead_ratio_inorder",
            ratio(s.inorder.runner_s, s.inorder.direct_s),
            "ratio",
        ),
        m(
            "runner.shard_overhead_ratio_ooo",
            ratio(s.ooo.runner_s, s.ooo.direct_s),
            "ratio",
        ),
        m(
            "runner.shard_cycle_err_pct_inorder",
            err_pct(&s.inorder),
            "%",
        ),
        m("runner.shard_cycle_err_pct_ooo", err_pct(&s.ooo), "%"),
        m("trace_io.save_s", s.save_s, "s"),
        m(
            "trace_io.save_mb_per_s",
            ratio(s.saved_bytes as f64 / 1e6, s.save_s),
            "MB/s",
        ),
        m("mmap.open_s", s.open_s, "s"),
        m(
            "mmap.checked_decode_ns_per_op",
            ns_per_op(s.checked_decode_s),
            "ns",
        ),
        m(
            "mmap.chunks_validated_ratio",
            ratio(s.chunks_validated as f64, s.chunks as f64),
            "ratio",
        ),
    ]
}

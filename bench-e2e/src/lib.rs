//! # poat-bench-e2e — the end-to-end benchmark
//!
//! Times four workloads through the public API of the reproduction
//! (`poat-workloads`, `poat-pmem`, `poat-sim`, `poat-harness`), from
//! outside the program. Per workload:
//!
//! 1. set-up (recording the traces the iterations start from), repeated
//!    at least three times;
//! 2. one untimed warmup iteration, which fixes the reference results
//!    every later iteration is checked against;
//! 3. the **timed pass**, tracing off: closed-loop iterations (one
//!    client, one worker thread) for the requested seconds — every
//!    end-to-end metric comes from here;
//! 4. the **traced pass**: iterations alternate between untraced and
//!    traced, with spans around every layer call, followed by isolated
//!    per-layer passes ([`layers`]) — every per-layer metric comes from
//!    here.
//!
//! See `E2E.md` next to this crate for the workloads, the metric map and
//! how to run it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use poat_bench::stats::{median, percentile};
use poat_harness::report::geomean;
use poat_harness::runner::{self, pipelined, Core};
use poat_sim::SimResult;
use poat_workloads::{ExpConfig, TpccPattern};

pub mod layers;
pub mod spans;
pub mod workload;

use spans::Tracer;
use workload::{Fixture, Outcome, Spec, Tally, Workload};

/// Directory, relative to the working directory, for span files and the
/// round trip's scratch trace files.
const OUT_DIR: &str = "target/bench-e2e";

/// Set-up runs at least this often per workload, and until it has taken
/// [`SETUP_MIN_S`] in total; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Seconds of set-up to measure at least, so short set-ups get more
/// repetitions.
const SETUP_MIN_S: f64 = 1.0;

/// Timed iterations run even when `seconds` has already elapsed.
const MIN_TIMED_ITERATIONS: usize = 3;

/// Paper speedups of TPC-C EACH with Pipelined translation (Figure 9):
/// in-order, then out-of-order.
const PAPER_TPCC_EACH: [f64; 2] = [1.17, 1.12];

/// One reported number. `value` is `None` where it cannot be measured
/// on this host or is undefined for the workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `wall_s` or `xlate.ns_per_access`.
    pub name: &'static str,
    /// The measured value.
    pub value: Option<f64>,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: Some(value),
            unit,
        }
    }
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Input seed; 0 reproduces `repro`'s inputs.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Quick-scale inputs, one set-up, one iteration per pass.
    pub smoke: bool,
    /// Run the timed pass.
    pub timed: bool,
    /// Run the traced pass.
    pub traced: bool,
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Op accounting over every iteration, warmup included.
    pub tally: Tally,
    /// End-to-end metrics (timed pass only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced pass only).
    pub per_layer: Vec<Metric>,
    /// Further numbers for the human-readable report.
    pub details: Vec<Metric>,
    /// Self time per span name over the traced pass, in ns.
    pub self_times: Vec<(&'static str, u64)>,
    /// The Chrome-trace file written by the traced pass.
    pub spans_file: Option<PathBuf>,
}

/// Runs one workload.
///
/// # Errors
///
/// An I/O failure of the benchmark's own files, or a layer pass that
/// could not save, map or decode a trace.
pub fn run(workload: Workload, settings: &Settings) -> Result<Report, String> {
    // One client and one worker: at most two threads (the benchmark and a
    // sharded replay's pool) on a two-core host.
    runner::set_worker_override(Some(1));
    let rss_reset = reset_peak_rss();
    let dir = Path::new(OUT_DIR).join(format!("work-{}-{}", std::process::id(), workload.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let report = run_in(workload, settings, &dir, rss_reset);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(workload: Workload, s: &Settings, dir: &Path, rss_reset: bool) -> Result<Report, String> {
    let mut t = Tracer::new(workload.name(), s.traced);
    let (reps, min_s) = if s.smoke {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_MIN_S)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut record_s = Vec::new();
    let mut fixture = None;
    while setup_s.len() < reps || setup_s.iter().sum::<f64>() < min_s {
        drop(fixture.take()); // hold one set of traces at a time
        let (fx, secs) = t.span("setup", |t| workload::setup(workload, s.smoke, s.seed, t));
        setup_s.push(secs);
        record_s.push(fx.record_s);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("set-up ran at least once");

    t.set_on(false);
    let warmup = fx.iteration(&mut t, dir);
    if fx.reference.is_empty() {
        fx.reference = warmup
            .iter()
            .map(|o| o.clone().unwrap_or_default())
            .collect();
    }
    let mut tally = Tally::default();
    tally.check(&warmup, &fx.reference, &fx);

    let seconds = Duration::from_secs_f64(s.seconds);
    let min_iterations = if s.smoke { 1 } else { MIN_TIMED_ITERATIONS };
    let mut report = Report {
        workload,
        tally: Tally::default(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        details: Vec::new(),
        self_times: Vec::new(),
        spans_file: None,
    };

    if s.timed {
        let mut wall = Vec::new();
        let mut rate = Vec::new();
        let start = Instant::now();
        while wall.len() < min_iterations || start.elapsed() < seconds {
            let (outcomes, secs) = t.span("iteration", |t| fx.iteration(t, dir));
            tally.check(&outcomes, &fx.reference, &fx);
            wall.push(secs);
            rate.push(retired(&outcomes) as f64 / secs / 1e6);
        }
        let peak = if rss_reset { peak_rss_mb() } else { None };
        report.end_to_end = vec![
            Metric::new("wall_s", median(&wall), "s"),
            Metric::new("sim_minstr_per_s", median(&rate), "Minstr/s"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric {
                name: "peak_rss_mb",
                value: peak,
                unit: "MB",
            },
        ];
        report.details.extend([
            Metric::new("wall_s.q1", percentile(&wall, 25.0), "s"),
            Metric::new("wall_s.q3", percentile(&wall, 75.0), "s"),
            Metric::new("wall_s.samples", wall.len() as f64, "count"),
            Metric::new("setup_s.samples", setup_s.len() as f64, "count"),
        ]);
    }

    if s.traced {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let start = Instant::now();
        while plain.is_empty() || traced.is_empty() || start.elapsed() < seconds {
            let on = plain.len() > traced.len();
            t.set_on(on);
            let (outcomes, secs) = t.span("iteration", |t| fx.iteration(t, dir));
            tally.check(&outcomes, &fx.reference, &fx);
            if on { &mut traced } else { &mut plain }.push(secs);
        }
        t.set_on(true);
        let (layer_metrics, _) = t.span("layers", |t| layers::layer_pass(&fx.runs, t, dir));
        report.per_layer = workload_metrics(&fx, &record_s);
        report.per_layer.extend(layer_metrics?);
        report.per_layer.extend(model_metrics(&fx.reference));
        report.per_layer.push(Metric::new(
            "bench.trace_overhead_ratio",
            median(&traced) / median(&plain),
            "ratio",
        ));
        report.details.extend(speedups(&fx));
        report.self_times = spans::self_time_by_name(t.spans());
        let path = Path::new(OUT_DIR).join(format!("spans-{}.json", workload.name()));
        std::fs::write(&path, spans::chrome_trace_json(t.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.spans_file = Some(path);
    }

    report
        .details
        .push(Metric::new("fail_ratio", tally.fail_ratio(), "ratio"));
    report.tally = tally;
    Ok(report)
}

/// Simulated instructions retired by an iteration's successful ops.
fn retired(outcomes: &[Outcome]) -> u64 {
    outcomes.iter().flatten().map(|r| r.instructions).sum()
}

/// The workloads layer: cost and size of recording one set of traces.
fn workload_metrics(fx: &Fixture, record_s: &[f64]) -> Vec<Metric> {
    let exec_s = median(record_s);
    let instructions: u64 = fx.runs.iter().map(|r| r.summary.instructions).sum();
    let ops: usize = fx.runs.iter().map(|r| r.trace.len()).sum();
    let bytes: usize = fx.runs.iter().map(|r| r.trace.encoded_bytes()).sum();
    let calls: u64 = fx.runs.iter().map(|r| r.xlat.calls).sum();
    vec![
        Metric::new("workloads.exec_s", exec_s, "s"),
        Metric::new(
            "workloads.ns_per_instr",
            exec_s * 1e9 / instructions as f64,
            "ns",
        ),
        Metric::new("workloads.trace_ops", ops as f64, "count"),
        Metric::new("workloads.bytes_per_op", bytes as f64 / ops as f64, "B"),
        Metric::new("pmem_xlat.calls", calls as f64, "count"),
    ]
}

/// Deterministic simulated outputs of one iteration: a change that only
/// speeds up the simulator leaves them bit-identical.
fn model_metrics(reference: &[SimResult]) -> Vec<Metric> {
    let instructions: u64 = reference.iter().map(|r| r.instructions).sum();
    let cycles: u64 = reference.iter().map(|r| r.cycles).sum();
    vec![
        Metric::new("model.instructions", instructions as f64, "count"),
        Metric::new("model.cycles", cycles as f64, "count"),
        Metric::new(
            "model.ipc",
            instructions as f64 / cycles.max(1) as f64,
            "ratio",
        ),
    ]
}

/// OPT/BASE speedups with Pipelined translation (geomean over the
/// workload's BASE/OPT pairs), the TPC-C EACH error against the paper,
/// and the software translator's predictor hit ratio.
fn speedups(fx: &Fixture) -> Vec<Metric> {
    let specs = fx.workload.specs();
    let cycles = |spec: Spec, core: Core| {
        fx.jobs
            .iter()
            .position(|j| specs[j.run] == spec && j.core == core && j.cfg == pipelined())
            .map(|i| fx.reference[i].cycles as f64)
    };
    let mut out = Vec::new();
    for (core, paper, names) in [
        (
            Core::InOrder,
            PAPER_TPCC_EACH[0],
            [
                "model.speedup_inorder_pipelined",
                "model.paper_err_pct_inorder",
            ],
        ),
        (
            Core::OutOfOrder,
            PAPER_TPCC_EACH[1],
            ["model.speedup_ooo_pipelined", "model.paper_err_pct_ooo"],
        ),
    ] {
        let pairs: Vec<(Spec, f64)> = specs
            .iter()
            .filter(|s| s.config() == ExpConfig::Opt)
            .filter_map(|&opt| {
                let base = cycles(opt.with_config(ExpConfig::Base), core)?;
                Some((opt, base / cycles(opt, core)?))
            })
            .collect();
        let speedup =
            (!pairs.is_empty()).then(|| geomean(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()));
        let tpcc_each = Spec::Tpcc(TpccPattern::Each, ExpConfig::Opt);
        let paper_err = pairs
            .iter()
            .find(|p| p.0 == tpcc_each)
            .map(|p| (p.1 / paper - 1.0) * 100.0);
        out.push(Metric {
            name: names[0],
            value: speedup,
            unit: "x",
        });
        out.push(Metric {
            name: names[1],
            value: paper_err,
            unit: "%",
        });
    }
    let (hits, misses) = fx.runs.iter().fold((0, 0), |(h, m), r| {
        (h + r.xlat.predictor_hits, m + r.xlat.predictor_misses)
    });
    out.push(Metric {
        name: "pmem_xlat.predictor_hit_ratio",
        value: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        unit: "ratio",
    });
    out
}

/// Resets the kernel's peak-RSS mark for this process; `false` where
/// `/proc` does not offer it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The machine-readable result line: op accounting and every metric the
/// run measured.
pub fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .map(|m| {
            let value = match m.value {
                Some(v) if v.is_finite() => v.to_string(),
                _ => "null".to_string(),
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

/// The human-readable report of one workload run.
pub fn render(report: &Report, settings: &Settings) -> String {
    let mut out = format!(
        "== {} (seed {}) — closed loop, 1 client, 1 worker ==\n",
        report.workload.name(),
        settings.seed
    );
    let row = |out: &mut String, m: &Metric| {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        out.push_str(&format!("  {:<40} {:>18} {}\n", m.name, value, m.unit));
    };
    if !report.end_to_end.is_empty() {
        out.push_str("end-to-end, timed pass (tracing off):\n");
        report.end_to_end.iter().for_each(|m| row(&mut out, m));
    }
    if !report.per_layer.is_empty() {
        out.push_str("per-layer, traced pass:\n");
        report.per_layer.iter().for_each(|m| row(&mut out, m));
    }
    out.push_str("details:\n");
    report.details.iter().for_each(|m| row(&mut out, m));
    out.push_str(&format!(
        "  ops: {} attempted, {} failed{}\n",
        report.tally.attempted,
        report.tally.failed,
        report
            .tally
            .first_failure
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    ));
    if !report.self_times.is_empty() {
        let total: u64 = report.self_times.iter().map(|s| s.1).sum();
        out.push_str("self time by span, traced pass:\n");
        for (name, ns) in &report.self_times {
            out.push_str(&format!(
                "  {:<40} {:>12.3} s {:>6.1}%\n",
                name,
                *ns as f64 / 1e9,
                *ns as f64 * 100.0 / total.max(1) as f64
            ));
        }
    }
    if let Some(path) = &report.spans_file {
        out.push_str(&format!("spans: {}\n", path.display()));
    }
    out
}

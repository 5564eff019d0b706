// SPDX-License-Identifier: MIT OR Apache-2.0
//! `repro` — regenerate the MICRO'17 tables and figures.
//!
//! ```text
//! repro <artifact> [--quick] [--workers N] [--json PATH] [--csv DIR]
//!                  [--metrics PATH] [--trace PATH] [--trace-sample N]
//!                  [--timeline DIR] [--profile] [--flame PATH]
//!                  [--hud SECS] [--ledger PATH] [--no-ledger]
//! repro report [--ledger PATH] [--last N] [--metric NAME] [--diff A:B]
//!
//! artifacts: table2 | fig9a | fig9b | table8 | instrs | fig10
//!            | fig11 | table9 | fig12 | ablations | seeds | all
//! ```
//!
//! `--metrics PATH` writes the full telemetry snapshot (every counter,
//! gauge and histogram accumulated during the run, plus a run manifest)
//! as versioned JSON — see `docs/METRICS.md` for the schema. `--trace`
//! and `--timeline` enable event-level tracing — see `docs/TRACING.md`.
//! Every run also appends one record to the durable run ledger
//! (`repro report` queries it), `--profile`/`--flame` drive the
//! span-tree profiler, and `--hud` the worker-pool HUD — see
//! `docs/OBSERVABILITY.md`.

use std::collections::BTreeMap;
use std::time::Instant;

use poat_harness::artifact::write_artifact;
use poat_harness::experiments::{
    self, fig10_text, fig11_text, fig12_text, fig9a_text, fig9b_text, instrs_text, table2_text,
    table8_text, table9_text,
};
use poat_harness::report::TextTable;
use poat_harness::Scale;
use poat_harness::{ablations, csv, jobs, serve, timeline};
use poat_telemetry::events;

const USAGE: &str = "usage: repro <table2|fig9a|fig9b|table8|instrs|fig10|fig11|table9|fig12|ablations|seeds|all> \
[--quick] [--workers N] [--json PATH] [--csv DIR] [--metrics PATH] [--trace PATH] [--trace-sample N] [--timeline DIR] \
[--profile] [--flame PATH] [--hud SECS] [--ledger PATH] [--no-ledger]\n       \
repro report [--ledger PATH] [--last N] [--metric NAME] [--command FILTER] [--diff A:B]\n       \
repro crash-sweep [--scale quick|full] [--workload BENCH:PATTERN] [--inject clean|torn|drop-clwb|all] \
[--max-points N] [--replay POINT:SEED] [--metrics PATH] [--trace PATH] [--trace-sample N] \
[--ledger PATH] [--no-ledger]\n       \
repro trace-roundtrip [--scale quick|full] [--workload BENCH:PATTERN] [--dir DIR]\n       \
repro serve [--spool DIR] [--catalog PATH] [--poll-ms N] [--drain] [--idle-exit SECS] [--workers N]\n       \
repro submit WORKLOAD DESIGN SCALE [--spool DIR]\n       \
repro jobs [--spool DIR] [--catalog PATH]\n       \
repro catalog query [--catalog PATH] [--workload W] [--design D] [--scale S] [--status S] [--metric NAME]";

/// Where runs land unless `--ledger`/`--no-ledger` says otherwise.
const DEFAULT_LEDGER: &str = ".poat/ledger.poatlgr";
/// Where `repro serve`/`submit`/`jobs` spool job specs by default.
const DEFAULT_SPOOL: &str = ".poat/spool";
/// Where the serve-mode run catalog lives by default.
const DEFAULT_CATALOG: &str = ".poat/catalog.poatcat";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn help() -> ! {
    println!(
        "{USAGE}\n\n\
         Regenerates the paper's tables and figures (docs/EXPERIMENTS.md).\n\n\
         artifacts:\n  \
         table2     oid_direct instruction counts & predictor miss rate\n  \
         fig9a      in-order OPT/BASE speedups (Pipelined, Parallel, ideal)\n  \
         fig9b      out-of-order speedups (Pipelined, ideal)\n  \
         table8     POLB miss rates\n  \
         instrs     dynamic-instruction reduction\n  \
         fig10      _NTX speedups (durability overhead removed)\n  \
         fig11      POLB-size sensitivity\n  \
         table9     POLB miss rates across sizes\n  \
         fig12      POT-walk-penalty sensitivity\n  \
         ablations  design-choice studies\n  \
         seeds      seed-sensitivity study\n  \
         all        everything above\n\n\
         crash-sweep (EXPERIMENTS.md):\n  \
         crashes each workload at every persist boundary, recovers, and\n  \
         verifies the recovery invariants; non-zero exit on any violation.\n  \
         --scale quick|full       workload sizing (default: quick)\n  \
         --workload BENCH:PATTERN sweep one workload only (e.g. LL:ALL)\n  \
         --inject MODE            clean | torn | drop-clwb | all\n                           \
         (default: clean+torn; drop-clwb is the negative control)\n  \
         --max-points N           evenly-spaced sample of N points per workload\n  \
         --replay POINT:SEED      re-execute one crash point deterministically\n                           \
         (requires --workload; combine with --trace)\n\n\
         report (docs/OBSERVABILITY.md):\n  \
         queries the durable run ledger; every repro/bench run appends\n  \
         one record (manifest, counters, gauges, histogram summaries).\n  \
         --ledger PATH            ledger file (default: .poat/ledger.poatlgr)\n  \
         --last N                 only the newest N records\n  \
         --command FILTER         only records whose command contains FILTER\n  \
         --metric NAME            print NAME per record (histograms as\n                           \
         name:p50/p90/p99/mean/count/sum/max) and\n                           \
         the delta between the two newest records\n  \
         --diff A:B               diff two records (run ids or seq numbers)\n\n\
         trace-roundtrip:\n  \
         records workload traces, saves each as a chunked POATTRC3 file,\n  \
         maps it back, and replays both copies on both core models;\n  \
         non-zero exit if any SimResult differs or the encoding exceeds\n  \
         its bytes-per-op budget.\n  \
         --scale quick|full       workload sizing (default: quick)\n  \
         --workload BENCH:PATTERN check one workload only (default: a spread)\n  \
         --dir DIR                where to write the .poattrc files\n                           \
         (default: a temp directory, removed afterwards)\n\n\
         serve mode (docs/OBSERVABILITY.md):\n  \
         serve    watch the spool, execute submitted jobs on the worker\n           \
         pool, and record every lifecycle event in the durable\n           \
         run catalog (POATCAT1; survives restarts and crashes)\n  \
         submit   enqueue one run: WORKLOAD (BENCH:PATTERN, e.g. LL:ALL),\n           \
         DESIGN (pipelined|parallel|ideal), SCALE (quick|full)\n  \
         jobs     spool depth + every catalog job + a summary line\n  \
         catalog query  filter historical jobs; --metric NAME projects\n           \
         one sim.result.* value per job\n  \
         --spool DIR              job spool (default: .poat/spool)\n  \
         --catalog PATH           catalog file (default: .poat/catalog.poatcat)\n  \
         --poll-ms N              idle poll interval (default: 200)\n  \
         --drain                  exit once the spool is empty\n  \
         --idle-exit SECS         exit after SECS without new work\n  \
         --workload/--design/--scale/--status  query filters (exact match)\n\n\
         options:\n  \
         --quick            ~10x smaller workloads (smoke-test scale)\n  \
         --workers N        worker-pool width for the experiment matrix and\n                     \
         sharded full-scale replay (default: host cores,\n                     \
         capped at 24; results are identical at any width)\n  \
         --json PATH        write every artifact's rows as JSON\n  \
         --csv DIR          write per-artifact CSV files into DIR\n  \
         --metrics PATH     write the telemetry snapshot (docs/METRICS.md)\n  \
         --trace PATH       record translation events; write a Chrome Trace\n                     \
         Format JSON (load in Perfetto; docs/TRACING.md)\n  \
         --trace-sample N   trace every Nth access only (default: all)\n  \
         --timeline DIR     per-workload windowed timelines as CSV into DIR\n  \
         --profile          span-tree profiler: per-phase self-time table\n                     \
         (sampled per --trace-sample; docs/OBSERVABILITY.md)\n  \
         --flame PATH       write a collapsed-stack flamegraph (inferno\n                     \
         format; implies --profile)\n  \
         --hud SECS         live worker-pool HUD: a progress line every\n                     \
         SECS seconds plus the stall watchdog\n  \
         --ledger PATH      append this run's record to the ledger at PATH\n                     \
         (default: .poat/ledger.poatlgr; see `repro report`)\n  \
         --no-ledger        skip the ledger append\n  \
         -h, --help         this help"
    );
    std::process::exit(0);
}

/// The value following `flag`, or a targeted error (exit 2).
fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: missing value for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

/// Wall-clock seconds since the Unix epoch (for ledger records).
fn unix_now_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Appends one record for this run to the ledger at `path`, returning
/// the assigned run id. Ledger failures degrade to a warning — a broken
/// ledger must not lose an hour-long experiment run.
fn append_to_ledger(path: &str, snapshot: &poat_telemetry::MetricsSnapshot) -> Option<String> {
    let data = poat_ledger::RecordData::from_snapshot(snapshot, unix_now_secs());
    match poat_ledger::open_file(std::path::Path::new(path)) {
        Ok(mut ledger) => match ledger.append(data) {
            Ok(seq) => {
                let id = poat_ledger::run_id(seq);
                eprintln!(
                    "ledger: appended {id} ({} records in {path})",
                    ledger.records().len()
                );
                Some(id)
            }
            Err(e) => {
                eprintln!("warning: ledger append to {path} failed: {e}");
                None
            }
        },
        Err(e) => {
            eprintln!("warning: opening ledger {path} failed: {e}");
            None
        }
    }
}

/// Renders the span-tree profile: one row per path (indented by depth),
/// self vs total time, and per-invocation self-time percentiles.
fn profile_text(snap: &poat_telemetry::profile::ProfileSnapshot) -> String {
    let mut t = TextTable::new(
        "Span-tree profile (wall-clock; self excludes children; ns percentiles per invocation)",
        &[
            "Phase", "Count", "Total ms", "Self ms", "Self %", "p50", "p90", "p99",
        ],
    );
    let root_total = snap.root_total_nanos().max(1);
    for p in &snap.paths {
        t.row(vec![
            format!("{}{}", "  ".repeat(p.depth), p.name),
            p.count.to_string(),
            format!("{:.2}", p.total_nanos as f64 / 1e6),
            format!("{:.2}", p.self_nanos as f64 / 1e6),
            format!("{:.1}", 100.0 * p.self_nanos as f64 / root_total as f64),
            p.self_p50.to_string(),
            p.self_p90.to_string(),
            p.self_p99.to_string(),
        ]);
    }
    t.render()
}

/// Parses a `--diff` operand: a `run000007`-style id or a bare
/// sequence number.
fn parse_run_ref(s: &str) -> Option<u64> {
    s.strip_prefix("run").unwrap_or(s).parse().ok()
}

/// Prints the metric-level diff between two ledger records: the named
/// metric when one was given, otherwise the largest relative changes.
fn print_record_diff(
    a: &poat_ledger::LedgerRecord,
    b: &poat_ledger::LedgerRecord,
    metric: Option<&str>,
) {
    let delta_text = |va: u64, vb: u64| {
        let d = vb as i128 - va as i128;
        let rel = if va > 0 {
            format!(" ({:+.1}%)", 100.0 * d as f64 / va as f64)
        } else {
            String::new()
        };
        format!("{d:+}{rel}")
    };
    println!(
        "diff {} ({} @ {}) -> {} ({} @ {})",
        a.run_id(),
        a.data.command,
        a.data.timestamp_unix_secs,
        b.run_id(),
        b.data.command,
        b.data.timestamp_unix_secs
    );
    if let Some(name) = metric {
        match (a.data.metric(name), b.data.metric(name)) {
            (Some(va), Some(vb)) => {
                println!("{name}: {va} -> {vb}  {}", delta_text(va, vb));
            }
            (va, vb) => {
                eprintln!(
                    "error: metric `{name}` missing ({}: {va:?}, {}: {vb:?})",
                    a.run_id(),
                    b.run_id()
                );
                std::process::exit(1);
            }
        }
        return;
    }
    let mut changed: Vec<(String, u64, u64, f64)> = Vec::new();
    let mut names: Vec<String> = a.data.metric_names();
    names.extend(b.data.metric_names());
    names.sort();
    names.dedup();
    let total = names.len();
    for name in names {
        let (va, vb) = (
            a.data.metric(&name).unwrap_or(0),
            b.data.metric(&name).unwrap_or(0),
        );
        if va != vb {
            let rel = (vb as f64 - va as f64).abs() / (va.max(1) as f64);
            changed.push((name, va, vb, rel));
        }
    }
    changed.sort_by(|x, y| y.3.total_cmp(&x.3));
    const SHOW: usize = 20;
    for (name, va, vb, _) in changed.iter().take(SHOW) {
        println!("{name}: {va} -> {vb}  {}", delta_text(*va, *vb));
    }
    println!(
        "{} of {} metrics changed{}",
        changed.len(),
        total,
        if changed.len() > SHOW {
            format!(" (showing the {SHOW} largest relative changes)")
        } else {
            String::new()
        }
    );
}

/// The `repro report` entry point: lists, filters, and diffs the durable
/// run ledger (docs/OBSERVABILITY.md).
fn report_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut ledger_path = DEFAULT_LEDGER.to_string();
    let mut last: Option<usize> = None;
    let mut metric: Option<String> = None;
    let mut command_filter: Option<String> = None;
    let mut diff: Option<(u64, u64)> = None;
    let bad = |flag: &str, v: &str| -> ! {
        eprintln!("error: bad value `{v}` for {flag}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--ledger" => ledger_path = value_of("--ledger", &mut args),
            "--last" => {
                let v = value_of("--last", &mut args);
                last = Some(v.parse().unwrap_or_else(|_| bad("--last", &v)));
            }
            "--metric" => metric = Some(value_of("--metric", &mut args)),
            "--command" => command_filter = Some(value_of("--command", &mut args)),
            "--diff" => {
                let v = value_of("--diff", &mut args);
                let parsed = v
                    .split_once(':')
                    .and_then(|(x, y)| Some((parse_run_ref(x)?, parse_run_ref(y)?)));
                diff = Some(parsed.unwrap_or_else(|| bad("--diff", &v)));
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // Read-only: a report must not create the file, or repair a torn
    // tail that may be a concurrent run's in-flight append.
    let ledger = poat_ledger::open_file_read_only(std::path::Path::new(&ledger_path))
        .unwrap_or_else(|e| {
            eprintln!("error: opening ledger {ledger_path}: {e}");
            std::process::exit(1);
        });
    let scan = ledger.scan_report();
    if scan.torn_tail_bytes > 0 {
        eprintln!(
            "warning: ignoring a torn tail of {} bytes ({})",
            scan.torn_tail_bytes,
            scan.torn_reason.as_deref().unwrap_or("unknown"),
        );
    }

    if let Some((a, b)) = diff {
        let (ra, rb) = (
            ledger.get(a).unwrap_or_else(|| {
                eprintln!("error: no record with sequence {a} in {ledger_path}");
                std::process::exit(1);
            }),
            ledger.get(b).unwrap_or_else(|| {
                eprintln!("error: no record with sequence {b} in {ledger_path}");
                std::process::exit(1);
            }),
        );
        print_record_diff(ra, rb, metric.as_deref());
        std::process::exit(0);
    }

    let filtered: Vec<&poat_ledger::LedgerRecord> = ledger
        .records()
        .iter()
        .filter(|r| {
            command_filter
                .as_deref()
                .map_or(true, |f| r.data.command.contains(f))
        })
        .collect();
    let shown = match last {
        Some(n) => &filtered[filtered.len().saturating_sub(n)..],
        None => &filtered[..],
    };

    match &metric {
        Some(name) => {
            let mut t = TextTable::new(
                &format!("{name} by run ({ledger_path})"),
                &["Run", "Command", "Scale", "Timestamp", name],
            );
            for r in shown {
                t.row(vec![
                    r.run_id(),
                    r.data.command.clone(),
                    r.data.scale.clone(),
                    r.data.timestamp_unix_secs.to_string(),
                    r.data
                        .metric(name)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                ]);
            }
            println!("{}", t.render());
            if let [.., prev, newest] = shown {
                if let (Some(va), Some(vb)) = (prev.data.metric(name), newest.data.metric(name)) {
                    let d = vb as i128 - va as i128;
                    let rel = if va > 0 {
                        format!(" ({:+.2}%)", 100.0 * d as f64 / va as f64)
                    } else {
                        String::new()
                    };
                    println!("delta {} -> {}: {d:+}{rel}", prev.run_id(), newest.run_id());
                }
            }
        }
        None => {
            let mut t = TextTable::new(
                &format!("Run ledger ({ledger_path})"),
                &[
                    "Run",
                    "Command",
                    "Scale",
                    "Timestamp",
                    "Elapsed s",
                    "Revision",
                    "Metrics",
                ],
            );
            for r in shown {
                t.row(vec![
                    r.run_id(),
                    r.data.command.clone(),
                    r.data.scale.clone(),
                    r.data.timestamp_unix_secs.to_string(),
                    format!("{:.1}", r.data.elapsed_micros as f64 / 1e6),
                    r.data.git_revision.chars().take(12).collect(),
                    (r.data.counters.len() + r.data.gauges.len() + r.data.histograms.len())
                        .to_string(),
                ]);
            }
            println!("{}", t.render());
        }
    }
    println!("{} records in {ledger_path}", ledger.records().len());
    std::process::exit(0);
}

/// Renders the phase-latency percentile table from the metrics registry
/// (the `span.<phase>.nanos` histograms; estimates — see docs/METRICS.md).
fn phase_latency_text(snapshot: &poat_telemetry::MetricsSnapshot) -> String {
    let mut t = TextTable::new(
        "Phase latency percentiles (ns, log2-bucket estimates)",
        &["Phase", "Run", "Count", "Mean", "p50", "p90", "p99", "Max"],
    );
    let mut any = false;
    for (name, h) in &snapshot.histograms {
        let Some(rest) = name.strip_prefix("span.") else {
            continue;
        };
        // `span.<phase>.nanos` aggregates the whole process; the
        // run-scoped `span.<phase>.nanos{run=<label>}` series carry one
        // workload run each (see docs/METRICS.md).
        let Some(pos) = rest.find(".nanos") else {
            continue;
        };
        let phase = &rest[..pos];
        let run = match &rest[pos + ".nanos".len()..] {
            "" => "all",
            suffix => match suffix
                .strip_prefix("{run=")
                .and_then(|s| s.strip_suffix('}'))
            {
                Some(label) => label,
                None => continue,
            },
        };
        if h.count == 0 {
            continue;
        }
        any = true;
        t.row(vec![
            phase.to_string(),
            run.to_string(),
            h.count.to_string(),
            format!("{:.0}", h.mean),
            h.p50.to_string(),
            h.p90.to_string(),
            h.p99.to_string(),
            h.max.to_string(),
        ]);
    }
    if any {
        t.render()
    } else {
        String::new()
    }
}

/// Runs one artifact block, publishing its wall-clock and simulated
/// instruction throughput as `harness.experiment.*{artifact=...}` gauges.
fn timed<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let registry = poat_telemetry::global();
    let instructions = registry.counter("harness.workload.instructions");
    let before = instructions.get();
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    let labels = [("artifact", name)];
    registry
        .gauge(&poat_telemetry::labeled(
            "harness.experiment.wall_nanos",
            &labels,
        ))
        .set(elapsed.as_nanos() as u64);
    let delta = instructions.get().saturating_sub(before);
    if delta > 0 && elapsed.as_secs_f64() > 0.0 {
        registry
            .gauge(&poat_telemetry::labeled(
                "harness.experiment.instructions_per_sec",
                &labels,
            ))
            .set((delta as f64 / elapsed.as_secs_f64()) as u64);
    }
    out
}

/// Installs the event recorder for `--trace` and returns the path the
/// flight-recorder tail will be dumped to on a translation fault.
fn install_tracing(trace_path: &str, trace_sample: u64) {
    let rec = events::install(1 << 20, trace_sample);
    rec.set_flight_path(std::path::PathBuf::from(format!(
        "{trace_path}.flight.json"
    )));
    events::set_enabled(true);
}

/// Writes the Chrome Trace Format JSON for the events recorded so far.
fn write_trace(path: &str) {
    let rec = events::installed().expect("recorder installed above");
    let evs = rec.events();
    std::fs::write(path, poat_telemetry::timeline::chrome_trace_json(&evs))
        .expect("write chrome trace");
    eprintln!(
        "trace written to {path} ({} events, 1-in-{} sampling) — open in Perfetto",
        evs.len(),
        rec.sample()
    );
}

/// The `repro crash-sweep` entry point: parses the subcommand's own
/// flags, runs a sweep campaign (or a single `--replay` cell), and exits
/// non-zero iff a clean/torn recovery-invariant violation was found.
fn crash_sweep_main(mut args: impl Iterator<Item = String>) -> ! {
    use poat_harness::crash_sweep;
    use poat_pmem::InjectMode;

    let mut scale = Scale::Quick;
    let mut inject: Option<Vec<InjectMode>> = None;
    let mut workload: Option<(poat_workloads::Micro, poat_workloads::Pattern)> = None;
    let mut max_points: Option<usize> = None;
    let mut replay: Option<(u64, u64)> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_sample: u64 = 1;
    let mut metrics_path: Option<String> = None;
    let mut ledger_path: Option<String> = Some(DEFAULT_LEDGER.to_string());
    let bad = |flag: &str, v: &str| -> ! {
        eprintln!("error: bad value `{v}` for {flag}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--quick" => scale = Scale::Quick,
            "--scale" => {
                let v = value_of("--scale", &mut args);
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    _ => bad("--scale", &v),
                };
            }
            "--workload" => {
                let v = value_of("--workload", &mut args);
                workload =
                    Some(crash_sweep::parse_workload(&v).unwrap_or_else(|| bad("--workload", &v)));
            }
            "--inject" => {
                let v = value_of("--inject", &mut args);
                inject = Some(crash_sweep::parse_inject(&v).unwrap_or_else(|| bad("--inject", &v)));
            }
            "--max-points" => {
                let v = value_of("--max-points", &mut args);
                max_points = Some(v.parse().unwrap_or_else(|_| bad("--max-points", &v)));
            }
            "--replay" => {
                let v = value_of("--replay", &mut args);
                let parsed = v
                    .split_once(':')
                    .and_then(|(p, s)| Some((p.parse().ok()?, s.parse().ok()?)));
                replay = Some(parsed.unwrap_or_else(|| bad("--replay", &v)));
            }
            "--trace" => trace_path = Some(value_of("--trace", &mut args)),
            "--trace-sample" => {
                let v = value_of("--trace-sample", &mut args);
                trace_sample = v.parse().unwrap_or_else(|_| bad("--trace-sample", &v));
            }
            "--metrics" => metrics_path = Some(value_of("--metrics", &mut args)),
            "--ledger" => ledger_path = Some(value_of("--ledger", &mut args)),
            "--no-ledger" => ledger_path = None,
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &trace_path {
        install_tracing(path, trace_sample);
    }
    poat_telemetry::global().reset();
    let started = Instant::now();

    let mut opts = poat_harness::crash_sweep::SweepOptions::for_scale(scale);
    if let Some(modes) = inject {
        opts.modes = modes;
    }
    opts.workload = workload;
    opts.max_points = max_points;

    let exit_code = if let Some((point, seed)) = replay {
        let Some((bench, pattern)) = opts.workload else {
            eprintln!("error: --replay requires --workload BENCH:PATTERN\n{USAGE}");
            std::process::exit(2);
        };
        let mode = opts.modes.first().copied().unwrap_or_default();
        match crash_sweep::replay(bench, pattern, scale, point, seed, mode) {
            Ok(out) => {
                println!(
                    "replay {}/{} point {point} seed {seed} [{}]: tripped={} undo_applied={} digest={:016x}",
                    bench.abbrev(),
                    pattern.label(),
                    mode.label(),
                    out.tripped,
                    out.undo_applied,
                    out.digest
                );
                for v in &out.violations {
                    println!("VIOLATION: {v}");
                }
                i32::from(!out.violations.is_empty() && mode != InjectMode::DropClwb)
            }
            Err(e) => {
                eprintln!("error: replay failed: {e}");
                1
            }
        }
    } else {
        match crash_sweep::sweep(&opts) {
            Ok(reports) => {
                println!("{}", crash_sweep::sweep_text(&reports));
                i32::from(crash_sweep::total_violations(&reports) > 0)
            }
            Err(e) => {
                eprintln!("error: crash sweep failed: {e}");
                1
            }
        }
    };

    if let Some(path) = &trace_path {
        write_trace(path);
    }
    if metrics_path.is_some() || ledger_path.is_some() {
        let manifest = poat_telemetry::RunManifest::collect("crash-sweep", scale.label(), started);
        let snapshot = poat_telemetry::global().snapshot(manifest);
        let run_id = ledger_path
            .as_deref()
            .and_then(|path| append_to_ledger(path, &snapshot));
        if let Some(path) = &metrics_path {
            write_artifact(
                "metrics snapshot",
                path,
                run_id.as_deref(),
                &snapshot.to_json_string(),
            );
        }
    }
    eprintln!(
        "[crash-sweep @ {scale:?}] completed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    std::process::exit(exit_code);
}

/// The `repro trace-roundtrip` entry point: for each selected workload,
/// records the trace, saves it, maps it back, and replays the original
/// and the reloaded copy on both core models, requiring bit-identical
/// `SimResult`s — the end-to-end proof that the compact on-disk encoding
/// is lossless where it matters. Also enforces the ≤ 12 B/op in-memory
/// budget the encoding is designed to (DESIGN.md). Exits non-zero on any
/// divergence.
fn trace_roundtrip_main(mut args: impl Iterator<Item = String>) -> ! {
    use poat_harness::{crash_sweep, runner};
    use poat_pmem::trace_io::{self, MmapTrace};
    use poat_workloads::{ExpConfig, Micro, Pattern};

    const MAX_BYTES_PER_OP: usize = 12;

    let mut scale = Scale::Quick;
    let mut workload: Option<(Micro, Pattern)> = None;
    let mut dir: Option<std::path::PathBuf> = None;
    let bad = |flag: &str, v: &str| -> ! {
        eprintln!("error: bad value `{v}` for {flag}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--quick" => scale = Scale::Quick,
            "--scale" => {
                let v = value_of("--scale", &mut args);
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    _ => bad("--scale", &v),
                };
            }
            "--workload" => {
                let v = value_of("--workload", &mut args);
                workload =
                    Some(crash_sweep::parse_workload(&v).unwrap_or_else(|| bad("--workload", &v)));
            }
            "--dir" => dir = Some(std::path::PathBuf::from(value_of("--dir", &mut args))),
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let (out_dir, cleanup) = match dir {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("poat-trace-roundtrip-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&out_dir).expect("create trace output directory");

    let cells: Vec<(Micro, Pattern)> = match workload {
        Some(w) => vec![w],
        // A spread across data structures and access patterns.
        None => vec![
            (Micro::Ll, Pattern::Each),
            (Micro::Bst, Pattern::Random),
            (Micro::Sps, Pattern::All),
        ],
    };

    let started = Instant::now();
    let mut failures = 0u32;
    for (bench, pattern) in cells {
        let run = runner::run_micro(bench, pattern, ExpConfig::Opt, scale);
        let ops = run.trace.len();
        let bytes = run.trace.encoded_bytes();
        let path = out_dir.join(format!(
            "{}-{}.poattrc",
            bench.abbrev(),
            pattern.label().to_lowercase()
        ));
        trace_io::save_chunked(&run.trace, &path, trace_io::DEFAULT_CHUNK_OPS).expect("save trace");
        let loaded = MmapTrace::open(&path)
            .and_then(|m| m.to_trace())
            .unwrap_or_else(|e| {
                eprintln!("error: reloading {} failed: {e}", path.display());
                std::process::exit(1);
            });

        let mut cell_ok = loaded == run.trace;
        if !cell_ok {
            eprintln!("MISMATCH {bench}/{pattern}: reloaded trace differs from recorded trace");
        }
        let reloaded_run = poat_harness::WorkloadRun {
            label: format!("{}-reloaded", run.label),
            trace: loaded,
            state: run.state.clone(),
            xlat: run.xlat,
            summary: run.summary,
            pools: run.pools,
        };
        for core in [runner::Core::InOrder, runner::Core::OutOfOrder] {
            let a = runner::simulate(&run, core, runner::pipelined());
            let b = runner::simulate(&reloaded_run, core, runner::pipelined());
            if a != b {
                eprintln!("MISMATCH {bench}/{pattern} on {core:?}: {a:?}\n  vs reloaded {b:?}");
                cell_ok = false;
            }
        }
        let bpo = bytes as f64 / ops.max(1) as f64;
        if ops > 0 && bytes > MAX_BYTES_PER_OP * ops {
            eprintln!(
                "BUDGET {bench}/{pattern}: {bpo:.2} B/op exceeds the {MAX_BYTES_PER_OP} B/op budget"
            );
            cell_ok = false;
        }
        println!(
            "{:>4}/{:<6} {:>9} ops  {:>10} bytes  {bpo:>5.2} B/op  {}",
            bench.abbrev(),
            pattern.label(),
            ops,
            bytes,
            if cell_ok { "ok" } else { "FAILED" }
        );
        failures += u32::from(!cell_ok);
    }
    if cleanup {
        let _ = std::fs::remove_dir_all(&out_dir);
    }
    eprintln!(
        "[trace-roundtrip @ {scale:?}] completed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    std::process::exit(i32::from(failures > 0));
}

/// The `repro serve` entry point: runs the serve loop until the
/// configured exit condition (docs/OBSERVABILITY.md, serve mode).
fn serve_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut opts = serve::ServeOptions {
        spool: std::path::PathBuf::from(DEFAULT_SPOOL),
        catalog: std::path::PathBuf::from(DEFAULT_CATALOG),
        ..serve::ServeOptions::default()
    };
    let bad = |flag: &str, v: &str| -> ! {
        eprintln!("error: bad value `{v}` for {flag}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--spool" => opts.spool = std::path::PathBuf::from(value_of("--spool", &mut args)),
            "--catalog" => {
                opts.catalog = std::path::PathBuf::from(value_of("--catalog", &mut args));
            }
            "--poll-ms" => {
                let v = value_of("--poll-ms", &mut args);
                opts.poll_ms = v
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| bad("--poll-ms", &v));
            }
            "--drain" => opts.drain = true,
            "--idle-exit" => {
                let v = value_of("--idle-exit", &mut args);
                opts.idle_exit_secs = Some(v.parse().unwrap_or_else(|_| bad("--idle-exit", &v)));
            }
            "--workers" => {
                let v = value_of("--workers", &mut args);
                let n: usize = v.parse().ok().filter(|n| *n > 0).unwrap_or_else(|| {
                    eprintln!("error: --workers expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
                poat_harness::runner::set_worker_override(Some(n));
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match serve::serve(&opts) {
        Ok(summary) => {
            eprintln!(
                "serve: {} claimed, {} completed, {} failed",
                summary.claimed, summary.completed, summary.failed
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            std::process::exit(1);
        }
    }
}

/// The `repro submit` entry point: validates one job spec and drops it
/// into the spool atomically.
fn submit_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut spool = std::path::PathBuf::from(DEFAULT_SPOOL);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--spool" => spool = std::path::PathBuf::from(value_of("--spool", &mut args)),
            other if other.starts_with('-') => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [workload, design, scale] = positional.as_slice() else {
        eprintln!(
            "error: submit expects WORKLOAD DESIGN SCALE (got {} operand(s))\n{USAGE}",
            positional.len()
        );
        std::process::exit(2);
    };
    let spec = serve::validate_spec(workload, design, scale).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match serve::submit(&spool, &spec) {
        Ok(path) => {
            println!("submitted {} -> {}", spec.display(), path.display());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: submitting to {}: {e}", spool.display());
            std::process::exit(1);
        }
    }
}

/// The `repro jobs` entry point: spool depth + catalog job table.
fn jobs_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut spool = std::path::PathBuf::from(DEFAULT_SPOOL);
    let mut catalog = std::path::PathBuf::from(DEFAULT_CATALOG);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--spool" => spool = std::path::PathBuf::from(value_of("--spool", &mut args)),
            "--catalog" => catalog = std::path::PathBuf::from(value_of("--catalog", &mut args)),
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match jobs::jobs_text(&spool, &catalog) {
        Ok(text) => {
            println!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The `repro catalog query` entry point: filtered historical jobs.
fn catalog_main(mut args: impl Iterator<Item = String>) -> ! {
    match args.next().as_deref() {
        Some("query") => {}
        Some("-h") | Some("--help") => help(),
        other => {
            eprintln!(
                "error: expected `repro catalog query`, got `catalog {}`\n{USAGE}",
                other.unwrap_or("")
            );
            std::process::exit(2);
        }
    }
    let mut catalog = std::path::PathBuf::from(DEFAULT_CATALOG);
    let mut filter = poat_ledger::catalog::QueryFilter::default();
    let mut metric: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--catalog" => catalog = std::path::PathBuf::from(value_of("--catalog", &mut args)),
            "--workload" => filter.workload = Some(value_of("--workload", &mut args)),
            "--design" => filter.design = Some(value_of("--design", &mut args)),
            "--scale" => filter.scale = Some(value_of("--scale", &mut args)),
            "--status" => filter.status = Some(value_of("--status", &mut args)),
            "--metric" => metric = Some(value_of("--metric", &mut args)),
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match jobs::query_text(&catalog, &filter, metric.as_deref()) {
        Ok(text) => {
            println!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Library status lines (serve progress, artifact writes) land on
    // stderr; stdout stays machine-parseable.
    poat_harness::notify::set_sink(Box::new(|line| eprintln!("{line}")));
    let mut args = std::env::args().skip(1);
    let Some(artifact) = args.next() else { usage() };
    if matches!(artifact.as_str(), "-h" | "--help" | "help") {
        help();
    }
    if artifact == "crash-sweep" {
        crash_sweep_main(args);
    }
    if artifact == "trace-roundtrip" {
        trace_roundtrip_main(args);
    }
    if artifact == "report" {
        report_main(args);
    }
    if artifact == "serve" {
        serve_main(args);
    }
    if artifact == "submit" {
        submit_main(args);
    }
    if artifact == "jobs" {
        jobs_main(args);
    }
    if artifact == "catalog" {
        catalog_main(args);
    }
    let mut scale = Scale::Full;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_sample: u64 = 1;
    let mut timeline_dir: Option<std::path::PathBuf> = None;
    let mut profile_on = false;
    let mut flame_path: Option<String> = None;
    let mut hud_secs: Option<u64> = None;
    let mut ledger_path: Option<String> = Some(DEFAULT_LEDGER.to_string());
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => help(),
            "--quick" => scale = Scale::Quick,
            "--workers" => {
                let v = value_of("--workers", &mut args);
                let n: usize = v.parse().ok().filter(|n| *n > 0).unwrap_or_else(|| {
                    eprintln!("error: --workers expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
                poat_harness::runner::set_worker_override(Some(n));
            }
            "--json" => json_path = Some(value_of("--json", &mut args)),
            "--csv" => {
                let d = std::path::PathBuf::from(value_of("--csv", &mut args));
                std::fs::create_dir_all(&d).expect("create csv output directory");
                csv_dir = Some(d);
            }
            "--metrics" => metrics_path = Some(value_of("--metrics", &mut args)),
            "--trace" => trace_path = Some(value_of("--trace", &mut args)),
            "--trace-sample" => {
                let v = value_of("--trace-sample", &mut args);
                trace_sample = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --trace-sample expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--timeline" => {
                let d = std::path::PathBuf::from(value_of("--timeline", &mut args));
                std::fs::create_dir_all(&d).expect("create timeline output directory");
                timeline_dir = Some(d);
            }
            "--profile" => profile_on = true,
            "--flame" => {
                flame_path = Some(value_of("--flame", &mut args));
                profile_on = true;
            }
            "--hud" => {
                let v = value_of("--hud", &mut args);
                let secs: u64 = v.parse().ok().filter(|s| *s > 0).unwrap_or_else(|| {
                    eprintln!("error: --hud expects a positive number of seconds, got `{v}`");
                    std::process::exit(2);
                });
                hud_secs = Some(secs);
            }
            "--ledger" => ledger_path = Some(value_of("--ledger", &mut args)),
            "--no-ledger" => ledger_path = None,
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if profile_on {
        poat_telemetry::profile::set_sample(trace_sample);
        poat_telemetry::profile::set_enabled(true);
    }
    if let Some(secs) = hud_secs {
        poat_harness::hud::set_sink(Box::new(|line: &str| eprintln!("{line}")));
        poat_harness::hud::set_interval(Some(std::time::Duration::from_secs(secs)));
    }

    if trace_path.is_some() || timeline_dir.is_some() {
        let rec = events::install(1 << 20, trace_sample);
        // Auto-dump the flight-recorder tail next to the trace (or into
        // the timeline directory) if a translation fault fires.
        let flight = match (&trace_path, &timeline_dir) {
            (Some(p), _) => std::path::PathBuf::from(format!("{p}.flight.json")),
            (None, Some(d)) => d.join("flight.json"),
            (None, None) => unreachable!("guarded by the enclosing if"),
        };
        rec.set_flight_path(flight);
        events::set_enabled(true);
    }

    // Start from zeroed metrics so the snapshot describes exactly this run.
    poat_telemetry::global().reset();
    let started = Instant::now();
    let mut json: BTreeMap<String, serde_json::Value> = BTreeMap::new();

    let wants = |k: &str| artifact == k || artifact == "all";
    let mut matched = false;

    if wants("table2") {
        matched = true;
        let rows = timed("table2", || experiments::table2(scale));
        println!("{}", table2_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::table2(dir, &rows).expect("write table2 csv");
        }
        json.insert(
            "table2".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }
    if wants("fig9a") || wants("fig9b") || wants("table8") || wants("instrs") {
        matched = true;
        let main = timed("main_matrix", || experiments::main_matrix(scale));
        if wants("fig9a") {
            println!("{}", fig9a_text(&main.fig9a));
        }
        if wants("fig9b") {
            println!("{}", fig9b_text(&main.fig9b));
        }
        if wants("table8") {
            println!("{}", table8_text(&main.table8));
        }
        if wants("instrs") {
            println!("{}", instrs_text(&main.instrs));
        }
        if let Some(dir) = &csv_dir {
            csv::main_results(dir, &main).expect("write fig9/table8 csvs");
        }
        json.insert(
            "main".into(),
            serde_json::to_value(&main).expect("serialize"),
        );
    }
    if wants("fig10") {
        matched = true;
        let rows = timed("fig10", || experiments::fig10(scale));
        println!("{}", fig10_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::fig10(dir, &rows).expect("write fig10 csv");
        }
        json.insert(
            "fig10".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }
    if wants("fig11") || wants("table9") {
        matched = true;
        let rows = timed("fig11", || experiments::fig11(scale));
        if wants("fig11") {
            println!("{}", fig11_text(&rows));
        }
        if wants("table9") {
            println!("{}", table9_text(&rows));
        }
        if let Some(dir) = &csv_dir {
            csv::fig11(dir, &rows).expect("write fig11/table9 csvs");
        }
        json.insert(
            "fig11".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }
    if wants("fig12") {
        matched = true;
        let rows = timed("fig12", || experiments::fig12(scale));
        println!("{}", fig12_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::fig12(dir, &rows).expect("write fig12 csv");
        }
        json.insert(
            "fig12".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }
    if wants("seeds") {
        matched = true;
        let rows = timed("seeds", || experiments::seeds(scale, 5));
        println!("{}", experiments::seeds_text(&rows));
        json.insert(
            "seeds".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }
    if wants("ablations") {
        matched = true;
        let r = timed("ablations", || ablations::all(scale));
        println!("{}", ablations::all_text(&r));
        if let Some(dir) = &csv_dir {
            csv::ablations(dir, &r).expect("write ablation csvs");
        }
        json.insert(
            "ablations".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }
    if !matched {
        usage();
    }

    // The Chrome trace snapshots the artifact run's events; it must be
    // written before the timeline pass, which clears the ring per run.
    if let Some(path) = &trace_path {
        write_trace(path);
    }
    if let Some(dir) = &timeline_dir {
        let rows = timed("timeline", || timeline::collect(scale));
        println!("{}", timeline::text(&rows));
        timeline::write_csvs(dir, &rows).expect("write timeline csvs");
        eprintln!("timelines written to {}", dir.display());
    }

    // The profile publishes into the registry *before* the snapshot is
    // cut, so the metrics file and the ledger record both carry the
    // per-phase `profile.*` counters.
    let profile_snap = if profile_on {
        poat_telemetry::profile::set_enabled(false);
        let snap = poat_telemetry::profile::snapshot();
        snap.publish(poat_telemetry::global());
        Some(snap)
    } else {
        None
    };

    let manifest = poat_telemetry::RunManifest::collect(&artifact, scale.label(), started);
    let snapshot = poat_telemetry::global().snapshot(manifest.clone());
    let phases = phase_latency_text(&snapshot);
    if !phases.is_empty() {
        println!("{phases}");
    }
    if let Some(prof) = &profile_snap {
        if prof.is_empty() {
            eprintln!("profile: nothing recorded (no profiled scopes ran)");
        } else {
            println!("{}", profile_text(prof));
            let (self_sum, root_total) = (prof.total_self_nanos(), prof.root_total_nanos());
            eprintln!(
                "profile: self-times cover {self_sum} of {root_total} root ns ({:.3}%)",
                100.0 * self_sum as f64 / root_total.max(1) as f64
            );
        }
        if let Some(path) = &flame_path {
            std::fs::write(path, prof.collapsed()).expect("write collapsed-stack flamegraph");
            eprintln!(
                "flamegraph written to {path} ({} stacks, collapsed format — \
                 feed to inferno-flamegraph)",
                prof.collapsed().lines().count()
            );
        }
    }

    let run_id = ledger_path
        .as_deref()
        .and_then(|path| append_to_ledger(path, &snapshot));

    if let Some(path) = json_path {
        json.insert(
            "manifest".into(),
            serde_json::to_value(&manifest).expect("serialize manifest"),
        );
        let contents = serde_json::to_string_pretty(&json).expect("serialize results");
        write_artifact("results", &path, run_id.as_deref(), &contents);
    }
    if let Some(path) = metrics_path {
        write_artifact(
            "metrics snapshot",
            &path,
            run_id.as_deref(),
            &snapshot.to_json_string(),
        );
    }
    eprintln!(
        "[{artifact} @ {scale:?}] completed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! `repro` — regenerate the MICRO'17 tables and figures.
//!
//! `repro --help` lists every artifact, subcommand and flag; it is
//! generated from the [`CMDS`] table, which also drives the one
//! argument parser ([`parse`]). The `--metrics` snapshot schema is in
//! `docs/METRICS.md`, `--trace`/`--timeline` in `docs/TRACING.md`, and
//! the run ledger (`repro report`), the profiler, the HUD and serve mode
//! in `docs/OBSERVABILITY.md`.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use poat_harness::artifact::write_artifact;
use poat_harness::experiments::{
    self, fig10_text, fig11_text, fig12_text, fig9a_text, fig9b_text, instrs_text, table2_text,
    table8_text, table9_text,
};
use poat_harness::report::TextTable;
use poat_harness::{ablations, crash_sweep, csv, jobs, runner, serve, timeline, Scale};
use poat_telemetry::{events, MetricsSnapshot};

/// Where runs land unless `--ledger`/`--no-ledger` says otherwise.
const DEFAULT_LEDGER: &str = ".poat/ledger.poatlgr";

/// Every artifact `repro ARTIFACT` regenerates, with its help line.
const ARTIFACTS: &[(&str, &str)] = &[
    ("table2", "oid_direct instruction counts, predictor misses"),
    ("fig9a", "in-order speedups (Pipelined, Parallel, ideal)"),
    ("fig9b", "out-of-order speedups (Pipelined, ideal)"),
    ("table8", "POLB miss rates"),
    ("instrs", "dynamic-instruction reduction"),
    ("fig10", "_NTX speedups (durability overhead removed)"),
    ("fig11", "POLB-size sensitivity"),
    ("table9", "POLB miss rates across sizes"),
    ("fig12", "POT-walk-penalty sensitivity"),
    ("ablations", "design-choice studies"),
    ("seeds", "seed-sensitivity study"),
    ("all", "everything above"),
];

/// One subcommand: its invocation (the word that selects it, then any
/// operands), a one-line summary, and its flags as (`"--name VALUE"`,
/// help) pairs — a flag written with a VALUE takes one.
struct Cmd {
    head: &'static str,
    about: &'static str,
    flags: &'static [(&'static str, &'static str)],
}

/// Every subcommand. The first runs the artifact its first argument
/// names (one of [`ARTIFACTS`]).
const CMDS: &[Cmd] = &[
    Cmd {
        head: "ARTIFACT",
        about: "regenerate one artifact, or all of them (docs/EXPERIMENTS.md)",
        flags: &[
            ("--quick", "~10x smaller workloads (smoke-test scale)"),
            ("--workers N", "worker-pool width (default: cores, max 24)"),
            ("--json PATH", "write every artifact's rows as JSON"),
            ("--csv DIR", "write per-artifact CSV files into DIR"),
            ("--metrics PATH", "the telemetry snapshot (docs/METRICS.md)"),
            ("--trace PATH", "write translation events as a Chrome trace"),
            ("--trace-sample N", "trace/profile every Nth access only"),
            ("--timeline DIR", "per-workload timeline CSVs into DIR"),
            ("--profile", "print the span-tree profile's self times"),
            ("--flame PATH", "write a flamegraph (implies --profile)"),
            ("--hud SECS", "print pool progress every SECS seconds"),
            ("--ledger PATH", "ledger (default: .poat/ledger.poatlgr)"),
            ("--no-ledger", "skip the ledger append"),
        ],
    },
    Cmd {
        head: "report",
        about: "list, filter and diff the run ledger (docs/OBSERVABILITY.md)",
        flags: &[
            ("--ledger PATH", "ledger (default: .poat/ledger.poatlgr)"),
            ("--last N", "only the newest N records"),
            ("--metric NAME", "NAME per record, with the last delta"),
            ("--command FILTER", "only commands containing FILTER"),
            ("--diff A:B", "diff records A and B (run id or sequence)"),
        ],
    },
    Cmd {
        head: "crash-sweep",
        about: "crash each workload at every persist boundary; verify recovery",
        flags: &[
            ("--quick", "same as --scale quick"),
            ("--scale quick|full", "workload sizing (default: quick)"),
            ("--workload BENCH:PATTERN", "one workload only, e.g. LL:ALL"),
            ("--inject clean|torn|drop-clwb|all", "default: clean+torn"),
            ("--max-points N", "N evenly spaced points per workload"),
            ("--replay POINT:SEED", "rerun one crash point of --workload"),
            ("--trace PATH", "write translation events as a Chrome trace"),
            ("--trace-sample N", "trace every Nth access only"),
            ("--metrics PATH", "the telemetry snapshot (docs/METRICS.md)"),
            ("--ledger PATH", "ledger (default: .poat/ledger.poatlgr)"),
            ("--no-ledger", "skip the ledger append"),
        ],
    },
    Cmd {
        head: "trace-roundtrip",
        about: "save, map and replay traces; fail on a SimResult change or >12 B/op",
        flags: &[
            ("--quick", "same as --scale quick"),
            ("--scale quick|full", "workload sizing (default: quick)"),
            ("--workload BENCH:PATTERN", "check one workload only"),
            ("--dir DIR", "keep the trace files in DIR"),
        ],
    },
    Cmd {
        head: "serve",
        about: "run spooled jobs on the worker pool, recording each in the catalog",
        flags: &[
            ("--spool DIR", "job spool (default: .poat/spool)"),
            ("--catalog PATH", "catalog (default: .poat/catalog.poatcat)"),
            ("--poll-ms N", "idle poll interval (default: 200)"),
            ("--drain", "exit once the spool is empty"),
            ("--idle-exit SECS", "exit after SECS without new work"),
            ("--workers N", "worker-pool width (default: cores, max 24)"),
        ],
    },
    Cmd {
        head: "submit WORKLOAD DESIGN SCALE",
        about: "enqueue one run, e.g. `LL:ALL pipelined|parallel|ideal quick|full`",
        flags: &[("--spool DIR", "job spool (default: .poat/spool)")],
    },
    Cmd {
        head: "jobs",
        about: "spool depth, every catalog job, and a summary line",
        flags: &[
            ("--spool DIR", "job spool (default: .poat/spool)"),
            ("--catalog PATH", "catalog (default: .poat/catalog.poatcat)"),
        ],
    },
    Cmd {
        head: "catalog query",
        about: "the catalog's jobs, filtered by exact match",
        flags: &[
            ("--catalog PATH", "catalog (default: .poat/catalog.poatcat)"),
            ("--workload W", "only jobs of workload W"),
            ("--design D", "only jobs of design D"),
            ("--scale S", "only jobs at scale S"),
            ("--status S", "only jobs with status S"),
            ("--metric NAME", "project one sim.result.* value per job"),
        ],
    },
];

impl Cmd {
    /// The word that selects the subcommand.
    fn name(&self) -> &'static str {
        self.head.split(' ').next().unwrap_or_default()
    }

    /// The flag `arg` names, and whether it takes a value.
    fn flag(&self, arg: &str) -> Option<(&'static str, bool)> {
        self.flags.iter().find_map(|&(spec, _)| {
            let (name, value) = spec.split_once(' ').unwrap_or((spec, ""));
            (name == arg).then_some((name, !value.is_empty()))
        })
    }
}

/// One usage line per subcommand.
fn usage() -> String {
    let line = |c: &Cmd| {
        c.flags
            .iter()
            .fold(c.head.to_string(), |l, (f, _)| l + " [" + f + "]")
    };
    let lines: Vec<String> = CMDS.iter().map(line).collect();
    format!("usage: repro {}", lines.join("\n       repro "))
}

/// `repro --help`: the usage, the artifacts, then every subcommand's
/// summary and flags.
fn help_text() -> String {
    let mut out = format!(
        "{}\n\nRegenerates the paper's tables and figures (docs/EXPERIMENTS.md).\n\
         -h or --help anywhere, or `repro help`, prints this help.\n\nARTIFACT:\n",
        usage()
    );
    for (name, about) in ARTIFACTS {
        out += &format!("  {name:<10} {about}\n");
    }
    for cmd in CMDS {
        out += &format!("\nrepro {}: {}\n", cmd.head, cmd.about);
        for (flag, help) in cmd.flags {
            out += &format!("  {flag:<25} {help}\n");
        }
    }
    out
}

/// Why a subcommand stopped; `main` prints it and exits.
enum Fail {
    /// Bad input — an argument, or an output that cannot be written:
    /// exit 2.
    Input(String),
    /// A failed run: exit 1.
    Run(String),
}

impl Fail {
    /// The exit-2 failure of `doing` (`writing`, `creating`) `path`.
    fn io<E: Display>(doing: &'static str, path: impl Display) -> impl FnOnce(E) -> Fail {
        move |e| Fail::Input(format!("{doing} {path}: {e}"))
    }
}

/// One subcommand's command line: its flags in the order given (a
/// switch's value is empty) and its operands.
struct Args<'a> {
    cmd: &'static Cmd,
    flags: Vec<(&'static str, &'a str)>,
    operands: Vec<&'a str>,
}

/// The one argument loop: splits `args` into `cmd`'s flags and operands.
fn parse<'a>(cmd: &'static Cmd, args: &'a [String]) -> Result<Args<'a>, Fail> {
    let (mut flags, mut operands) = (Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') && cmd.head.contains(' ') {
            operands.push(arg.as_str());
            continue;
        }
        let (name, takes_value) = cmd
            .flag(arg)
            .ok_or_else(|| Fail::Input(format!("unknown argument `{arg}`")))?;
        let value = if takes_value {
            args.next()
                .ok_or_else(|| Fail::Input(format!("missing value for {name}")))?
        } else {
            ""
        };
        flags.push((name, value));
    }
    Ok(Args {
        cmd,
        flags,
        operands,
    })
}

impl Args<'_> {
    /// Where `name` was last given. Positions order flags that override
    /// each other; `None` sorts first.
    fn pos(&self, name: &str) -> Option<usize> {
        debug_assert!(
            self.cmd.flag(name).is_some(),
            "`{name}` is not a flag of `repro {}`",
            self.cmd.head
        );
        self.flags.iter().rposition(|(n, _)| *n == name)
    }

    /// The last value given for `name`, read by `parse`: `None` when the
    /// flag is absent, the bad-value error when `parse` rejects it.
    fn get<T>(&self, name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<Option<T>, Fail> {
        let Some(i) = self.pos(name) else {
            return Ok(None);
        };
        let value = self.flags[i].1;
        parse(value)
            .map(Some)
            .ok_or_else(|| Fail::Input(format!("bad value `{value}` for {name}")))
    }
}

/// Any `FromStr` value: text, a path, a count.
fn parsed<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// A number above zero.
fn positive<T: FromStr + Default + PartialOrd>(s: &str) -> Option<T> {
    parsed(s).filter(|n| *n > T::default())
}

/// `A:B`, each side read by `side`.
fn pair<T>(s: &str, side: impl Fn(&str) -> Option<T>) -> Option<(T, T)> {
    let (a, b) = s.split_once(':')?;
    Some((side(a)?, side(b)?))
}

/// `--scale`, unless a `--quick` follows it; quick by default.
fn sweep_scale(args: &Args) -> Result<Scale, Fail> {
    let scale = args.get("--scale", Scale::parse)?;
    Ok(match scale {
        Some(s) if args.pos("--scale") > args.pos("--quick") => s,
        _ => Scale::Quick,
    })
}

/// Appends one record for this run to the ledger at `path`, returning
/// the assigned run id. Ledger failures degrade to a warning — a broken
/// ledger must not lose an hour-long experiment run.
fn append_to_ledger(path: &str, snapshot: &MetricsSnapshot) -> Option<String> {
    let data = poat_ledger::RecordData::from_snapshot(snapshot, serve::unix_now_secs());
    match poat_ledger::open_file(Path::new(path)) {
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

/// Starts a run: when tracing to `trace` or writing timelines into
/// `timeline`, installs the event recorder, whose flight-recorder tail a
/// translation fault dumps next to the trace (or into the timeline
/// directory); then zeroes the metrics so the snapshot describes
/// exactly this run.
fn start_run(trace: Option<&str>, timeline: Option<&Path>, sample: u64) -> Instant {
    let flight = trace.map(|p| PathBuf::from(format!("{p}.flight.json")));
    if let Some(flight) = flight.or_else(|| timeline.map(|d| d.join("flight.json"))) {
        events::install(1 << 20, sample).set_flight_path(flight);
        events::set_enabled(true);
    }
    poat_telemetry::global().reset();
    Instant::now()
}

/// Ends a run: cuts the telemetry snapshot, appends it to the ledger
/// and writes it to `--metrics`; returns it with the run's ledger id.
fn finish_run(
    args: &Args,
    command: &str,
    scale: Scale,
    started: Instant,
) -> Result<(MetricsSnapshot, Option<String>), Fail> {
    let manifest = poat_telemetry::RunManifest::collect(command, scale.label(), started);
    let snapshot = poat_telemetry::global().snapshot(manifest);
    let ledger: Option<String> = args.get("--ledger", parsed)?;
    let run_id = if args.pos("--no-ledger") > args.pos("--ledger") {
        None
    } else {
        append_to_ledger(ledger.as_deref().unwrap_or(DEFAULT_LEDGER), &snapshot)
    };
    if let Some(path) = args.get::<String>("--metrics", parsed)? {
        let json = snapshot.to_json_string();
        write_artifact("metrics snapshot", &path, run_id.as_deref(), &json)
            .map_err(|e| Fail::Input(e.to_string()))?;
    }
    Ok((snapshot, run_id))
}

/// Writes the Chrome Trace Format JSON for the events recorded so far.
fn write_trace(path: &str) -> Result<(), Fail> {
    let rec = events::installed().expect("invariant: start_run installed the recorder");
    let evs = rec.events();
    std::fs::write(path, poat_telemetry::timeline::chrome_trace_json(&evs))
        .map_err(Fail::io("writing", path))?;
    eprintln!(
        "trace written to {path} ({} events, 1-in-{} sampling) — open in Perfetto",
        evs.len(),
        rec.sample()
    );
    Ok(())
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

/// `vb - va`, with the relative change to `decimals` places when `va`
/// is non-zero: `+12 (+3.4%)`.
fn delta(va: u64, vb: u64, decimals: usize) -> String {
    let d = vb as i128 - va as i128;
    match va {
        0 => format!("{d:+}"),
        _ => format!("{d:+} ({:+.*}%)", decimals, 100.0 * d as f64 / va as f64),
    }
}

/// Prints the metric-level diff between two ledger records: the named
/// metric when one was given, otherwise the largest relative changes.
fn print_record_diff(
    a: &poat_ledger::LedgerRecord,
    b: &poat_ledger::LedgerRecord,
    metric: Option<&str>,
) -> Result<(), Fail> {
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
        return match (a.data.metric(name), b.data.metric(name)) {
            (Some(va), Some(vb)) => {
                println!("{name}: {va} -> {vb}  {}", delta(va, vb, 1));
                Ok(())
            }
            (va, vb) => Err(Fail::Run(format!(
                "metric `{name}` missing ({}: {va:?}, {}: {vb:?})",
                a.run_id(),
                b.run_id()
            ))),
        };
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
        println!("{name}: {va} -> {vb}  {}", delta(*va, *vb, 1));
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
    Ok(())
}

/// The `repro report` entry point: lists, filters, and diffs the durable
/// run ledger (docs/OBSERVABILITY.md).
fn report_main(args: &Args) -> Result<ExitCode, Fail> {
    let ledger_path = args
        .get("--ledger", parsed)?
        .unwrap_or_else(|| DEFAULT_LEDGER.to_string());
    let last: Option<usize> = args.get("--last", parsed)?;
    let metric: Option<String> = args.get("--metric", parsed)?;
    let command_filter: Option<String> = args.get("--command", parsed)?;
    let diff = args.get("--diff", |v| pair(v, parse_run_ref))?;

    // Read-only: a report must not create the file, or repair a torn
    // tail that may be a concurrent run's in-flight append.
    let ledger = poat_ledger::open_file_read_only(Path::new(&ledger_path))
        .map_err(|e| Fail::Run(format!("opening ledger {ledger_path}: {e}")))?;
    let scan = ledger.scan_report();
    if scan.torn_tail_bytes > 0 {
        eprintln!(
            "warning: ignoring a torn tail of {} bytes ({})",
            scan.torn_tail_bytes,
            scan.torn_reason.as_deref().unwrap_or("unknown"),
        );
    }

    if let Some((a, b)) = diff {
        let record = |seq| {
            ledger
                .get(seq)
                .ok_or_else(|| Fail::Run(format!("no record with sequence {seq} in {ledger_path}")))
        };
        print_record_diff(record(a)?, record(b)?, metric.as_deref())?;
        return Ok(ExitCode::SUCCESS);
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
                    let (p, n) = (prev.run_id(), newest.run_id());
                    println!("delta {p} -> {n}: {}", delta(va, vb, 2));
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
    Ok(ExitCode::SUCCESS)
}

/// Renders the phase-latency percentile table from the metrics registry
/// (the `span.<phase>.nanos` histograms; estimates — see docs/METRICS.md).
fn phase_latency_text(snapshot: &MetricsSnapshot) -> String {
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

/// The `repro crash-sweep` entry point: runs a sweep campaign (or a
/// single `--replay` cell), and exits non-zero iff a clean/torn
/// recovery-invariant violation was found.
fn crash_sweep_main(args: &Args) -> Result<ExitCode, Fail> {
    use poat_pmem::InjectMode;

    let scale = sweep_scale(args)?;
    let mut opts = crash_sweep::SweepOptions::for_scale(scale);
    if let Some(modes) = args.get("--inject", crash_sweep::parse_inject)? {
        opts.modes = modes;
    }
    opts.workload = args.get("--workload", crash_sweep::parse_workload)?;
    opts.max_points = args.get("--max-points", parsed)?;
    let replay = args.get("--replay", |v| pair(v, parsed::<u64>))?;
    if replay.is_some() && opts.workload.is_none() {
        return Err(Fail::Input(
            "--replay requires --workload BENCH:PATTERN".into(),
        ));
    }
    let trace_path: Option<String> = args.get("--trace", parsed)?;
    let trace_sample = args.get("--trace-sample", positive)?.unwrap_or(1);

    let started = start_run(trace_path.as_deref(), None, trace_sample);
    // A failed run still writes its trace and ledger record.
    let outcome = match opts.workload.zip(replay) {
        Some(((bench, pattern), (point, seed))) => {
            let mode = opts.modes.first().copied().unwrap_or_default();
            crash_sweep::replay(bench, pattern, scale, point, seed, mode)
                .map(|out| {
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
                    !out.violations.is_empty() && mode != InjectMode::DropClwb
                })
                .map_err(|e| Fail::Run(format!("replay failed: {e}")))
        }
        None => crash_sweep::sweep(&opts)
            .map(|reports| {
                println!("{}", crash_sweep::sweep_text(&reports));
                crash_sweep::total_violations(&reports) > 0
            })
            .map_err(|e| Fail::Run(format!("crash sweep failed: {e}"))),
    };

    if let Some(path) = &trace_path {
        write_trace(path)?;
    }
    finish_run(args, "crash-sweep", scale, started)?;
    eprintln!(
        "[crash-sweep @ {scale:?}] completed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::from(u8::from(outcome?)))
}

/// The `repro trace-roundtrip` entry point: for each selected workload,
/// records the trace, saves it, maps it back, and replays the original
/// and the reloaded copy on both core models, requiring bit-identical
/// `SimResult`s — the end-to-end proof that the compact on-disk encoding
/// is lossless where it matters. Also enforces the ≤ 12 B/op in-memory
/// budget the encoding is designed to (DESIGN.md). Exits non-zero on any
/// divergence.
fn trace_roundtrip_main(args: &Args) -> Result<ExitCode, Fail> {
    use poat_pmem::trace_io::{self, MmapTrace};
    use poat_workloads::{ExpConfig, Micro, Pattern};

    const MAX_BYTES_PER_OP: usize = 12;

    let scale = sweep_scale(args)?;
    let workload = args.get("--workload", crash_sweep::parse_workload)?;
    let dir: Option<PathBuf> = args.get("--dir", parsed)?;
    let cleanup = dir.is_none();
    let out_dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("poat-trace-roundtrip-{}", std::process::id()))
    });
    std::fs::create_dir_all(&out_dir).map_err(Fail::io("creating", out_dir.display()))?;

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
        trace_io::save_chunked(&run.trace, &path, trace_io::DEFAULT_CHUNK_OPS)
            .map_err(Fail::io("writing", path.display()))?;
        let loaded = MmapTrace::open(&path)
            .and_then(|m| m.to_trace())
            .map_err(|e| Fail::Run(format!("reloading {} failed: {e}", path.display())))?;

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
    Ok(ExitCode::from(u8::from(failures > 0)))
}

/// The `repro serve` entry point: runs the serve loop until the
/// configured exit condition (docs/OBSERVABILITY.md, serve mode).
fn serve_main(args: &Args) -> Result<ExitCode, Fail> {
    let defaults = serve::ServeOptions::default();
    let opts = serve::ServeOptions {
        spool: args.get("--spool", parsed)?.unwrap_or(defaults.spool),
        catalog: args.get("--catalog", parsed)?.unwrap_or(defaults.catalog),
        poll_ms: args.get("--poll-ms", positive)?.unwrap_or(defaults.poll_ms),
        drain: args.pos("--drain").is_some(),
        idle_exit_secs: args.get("--idle-exit", parsed)?,
    };
    runner::set_worker_override(args.get("--workers", positive)?);
    let summary = serve::serve(&opts).map_err(|e| Fail::Run(format!("serve: {e}")))?;
    eprintln!(
        "serve: {} claimed, {} completed, {} failed",
        summary.claimed, summary.completed, summary.failed
    );
    Ok(ExitCode::SUCCESS)
}

/// The `repro submit` entry point: validates one job spec and drops it
/// into the spool atomically.
fn submit_main(args: &Args) -> Result<ExitCode, Fail> {
    let [workload, design, scale] = args.operands[..] else {
        return Err(Fail::Input(format!(
            "submit expects WORKLOAD DESIGN SCALE (got {} operand(s))",
            args.operands.len()
        )));
    };
    let spec = serve::validate_spec(workload, design, scale).map_err(Fail::Input)?;
    let spool = args.get("--spool", parsed)?;
    let spool = spool.unwrap_or_else(|| serve::ServeOptions::default().spool);
    let file = serve::submit(&spool, &spec)
        .map_err(|e| Fail::Run(format!("submitting to {}: {e}", spool.display())))?;
    println!("submitted {} -> {}", spec.display(), file.display());
    Ok(ExitCode::SUCCESS)
}

/// The `repro jobs` entry point: spool depth + catalog job table.
fn jobs_main(args: &Args) -> Result<ExitCode, Fail> {
    let defaults = serve::ServeOptions::default();
    let spool = args.get("--spool", parsed)?.unwrap_or(defaults.spool);
    let catalog = args.get("--catalog", parsed)?.unwrap_or(defaults.catalog);
    println!("{}", jobs::jobs_text(&spool, &catalog).map_err(Fail::Run)?);
    Ok(ExitCode::SUCCESS)
}

/// The `repro catalog query` entry point: filtered historical jobs.
fn catalog_main(args: &Args) -> Result<ExitCode, Fail> {
    if args.operands != ["query"] {
        return Err(Fail::Input(format!(
            "expected `repro catalog query`, got `catalog {}`",
            args.operands.join(" ")
        )));
    }
    let catalog = args.get("--catalog", parsed)?;
    let catalog = catalog.unwrap_or_else(|| serve::ServeOptions::default().catalog);
    let filter = poat_ledger::catalog::QueryFilter {
        workload: args.get("--workload", parsed)?,
        design: args.get("--design", parsed)?,
        scale: args.get("--scale", parsed)?,
        status: args.get("--status", parsed)?,
    };
    let metric: Option<String> = args.get("--metric", parsed)?;
    let table = jobs::query_text(&catalog, &filter, metric.as_deref()).map_err(Fail::Run)?;
    println!("{table}");
    Ok(ExitCode::SUCCESS)
}

fn to_json(value: &impl serde::Serialize) -> serde_json::Value {
    serde_json::to_value(value).expect("invariant: results are plain data")
}

/// The `repro ARTIFACT` entry point: regenerates one artifact, or all of
/// them.
fn artifact_main(artifact: &str, args: &Args) -> Result<ExitCode, Fail> {
    let scale = args.pos("--quick").map_or(Scale::Full, |_| Scale::Quick);
    let workers = args.get("--workers", positive)?;
    let json_path: Option<String> = args.get("--json", parsed)?;
    let csv_dir: Option<PathBuf> = args.get("--csv", parsed)?;
    let trace_path: Option<String> = args.get("--trace", parsed)?;
    let trace_sample = args.get("--trace-sample", positive)?.unwrap_or(1);
    let timeline_dir: Option<PathBuf> = args.get("--timeline", parsed)?;
    let flame_path: Option<String> = args.get("--flame", parsed)?;
    let profile_on = args.pos("--profile").is_some() || flame_path.is_some();
    let hud_secs = args.get("--hud", positive)?;

    for dir in csv_dir.iter().chain(&timeline_dir) {
        std::fs::create_dir_all(dir).map_err(Fail::io("creating", dir.display()))?;
    }
    runner::set_worker_override(workers);
    if profile_on {
        poat_telemetry::profile::set_sample(trace_sample);
        poat_telemetry::profile::set_enabled(true);
    }
    if let Some(secs) = hud_secs {
        poat_harness::hud::set_sink(Box::new(|line: &str| eprintln!("{line}")));
        poat_harness::hud::set_interval(Some(std::time::Duration::from_secs(secs)));
    }
    let started = start_run(trace_path.as_deref(), timeline_dir.as_deref(), trace_sample);
    let mut json: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let wants = |k: &str| artifact == k || artifact == "all";

    if wants("table2") {
        let rows = timed("table2", || experiments::table2(scale));
        println!("{}", table2_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::table2(dir, &rows).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("table2".into(), to_json(&rows));
    }
    if wants("fig9a") || wants("fig9b") || wants("table8") || wants("instrs") {
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
            csv::main_results(dir, &main).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("main".into(), to_json(&main));
    }
    if wants("fig10") {
        let rows = timed("fig10", || experiments::fig10(scale));
        println!("{}", fig10_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::fig10(dir, &rows).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("fig10".into(), to_json(&rows));
    }
    if wants("fig11") || wants("table9") {
        let rows = timed("fig11", || experiments::fig11(scale));
        if wants("fig11") {
            println!("{}", fig11_text(&rows));
        }
        if wants("table9") {
            println!("{}", table9_text(&rows));
        }
        if let Some(dir) = &csv_dir {
            csv::fig11(dir, &rows).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("fig11".into(), to_json(&rows));
    }
    if wants("fig12") {
        let rows = timed("fig12", || experiments::fig12(scale));
        println!("{}", fig12_text(&rows));
        if let Some(dir) = &csv_dir {
            csv::fig12(dir, &rows).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("fig12".into(), to_json(&rows));
    }
    if wants("seeds") {
        let rows = timed("seeds", || experiments::seeds(scale, 5));
        println!("{}", experiments::seeds_text(&rows));
        json.insert("seeds".into(), to_json(&rows));
    }
    if wants("ablations") {
        let r = timed("ablations", || ablations::all(scale));
        println!("{}", ablations::all_text(&r));
        if let Some(dir) = &csv_dir {
            csv::ablations(dir, &r).map_err(Fail::io("writing", dir.display()))?;
        }
        json.insert("ablations".into(), to_json(&r));
    }

    // The Chrome trace snapshots the artifact run's events; it must be
    // written before the timeline pass, which clears the ring per run.
    if let Some(path) = &trace_path {
        write_trace(path)?;
    }
    if let Some(dir) = &timeline_dir {
        let rows = timed("timeline", || timeline::collect(scale));
        println!("{}", timeline::text(&rows));
        timeline::write_csvs(dir, &rows).map_err(Fail::io("writing", dir.display()))?;
        eprintln!("timelines written to {}", dir.display());
    }

    // The profile publishes into the registry *before* the snapshot is
    // cut, so the metrics file and the ledger record both carry the
    // per-phase `profile.*` counters.
    let profile_snap = profile_on.then(|| {
        poat_telemetry::profile::set_enabled(false);
        let snap = poat_telemetry::profile::snapshot();
        snap.publish(poat_telemetry::global());
        snap
    });

    let (snapshot, run_id) = finish_run(args, artifact, scale, started)?;
    if let Some(path) = json_path {
        json.insert("manifest".into(), to_json(&snapshot.manifest));
        let contents =
            serde_json::to_string_pretty(&json).expect("invariant: results are plain data");
        write_artifact("results", &path, run_id.as_deref(), &contents)
            .map_err(|e| Fail::Input(e.to_string()))?;
    }
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
            std::fs::write(path, prof.collapsed()).map_err(Fail::io("writing", path))?;
            eprintln!(
                "flamegraph written to {path} ({} stacks, collapsed format — \
                 feed to inferno-flamegraph)",
                prof.collapsed().lines().count()
            );
        }
    }
    eprintln!(
        "[{artifact} @ {scale:?}] completed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

/// The subcommand `first` selects: an artifact name or a subcommand's
/// word.
fn select(first: &str) -> Result<&'static Cmd, Fail> {
    if ARTIFACTS.iter().any(|(name, _)| *name == first) {
        return Ok(&CMDS[0]);
    }
    CMDS[1..]
        .iter()
        .find(|c| c.name() == first)
        .ok_or_else(|| Fail::Input(format!("unknown artifact `{first}`")))
}

/// Parses the command line and runs the subcommand it selects.
fn run(args: &[String]) -> Result<ExitCode, Fail> {
    let Some((first, rest)) = args.split_first() else {
        return Err(Fail::Input("missing artifact or subcommand".into()));
    };
    if first == "help" || args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{}", help_text());
        return Ok(ExitCode::SUCCESS);
    }
    let cmd = select(first)?;
    let args = parse(cmd, rest)?;
    match cmd.name() {
        "report" => report_main(&args),
        "crash-sweep" => crash_sweep_main(&args),
        "trace-roundtrip" => trace_roundtrip_main(&args),
        "serve" => serve_main(&args),
        "submit" => submit_main(&args),
        "jobs" => jobs_main(&args),
        "catalog" => catalog_main(&args),
        _ => artifact_main(first, &args),
    }
}

fn main() -> ExitCode {
    // Library status lines (serve progress, artifact writes) land on
    // stderr; stdout stays machine-parseable.
    poat_harness::notify::set_sink(Box::new(|line| eprintln!("{line}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (code, msg) = match run(&args) {
        Ok(code) => return code,
        Err(Fail::Input(msg)) => (2, format!("{msg}\n{}", usage())),
        Err(Fail::Run(msg)) => (1, msg),
    };
    eprintln!("error: {msg}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Asserts that `repro HEAD ARGS` is rejected with a message
    /// containing `needle`.
    fn rejects(cmd: &'static Cmd, args: &[&str], needle: &str) {
        let line = format!("repro {} {}", cmd.head, args.join(" "));
        match parse(cmd, &strings(args)) {
            Err(Fail::Input(msg)) => assert!(msg.contains(needle), "`{line}`: {msg}"),
            _ => panic!("`{line}` was not rejected with `{needle}`"),
        }
    }

    #[test]
    fn the_flag_table_drives_help_and_parsing() {
        let help = help_text();
        let flag_name = |spec: &str| spec.split(' ').next().unwrap().to_string();
        for cmd in CMDS {
            let head = format!("repro {}", cmd.head);
            assert!(help.contains(&head), "help lists `{head}`");
            for &(spec, _) in cmd.flags {
                assert!(help.contains(spec), "help documents `{spec}` for `{head}`");
                let name = flag_name(spec);
                if spec.contains(' ') {
                    rejects(cmd, &[&name], &format!("missing value for {name}"));
                }
            }
            for &(spec, _) in CMDS.iter().flat_map(|c| c.flags) {
                let name = flag_name(spec);
                if cmd.flag(&name).is_none() {
                    rejects(cmd, &[&name, "x"], &format!("unknown argument `{name}`"));
                }
            }
        }
        for (artifact, _) in ARTIFACTS {
            assert!(help.contains(artifact), "help lists `{artifact}`");
            assert!(
                matches!(select(artifact), Ok(cmd) if cmd.head == "ARTIFACT"),
                "`repro {artifact}` selects the artifact run"
            );
        }
        assert!(
            matches!(select("bogus"), Err(Fail::Input(msg)) if msg == "unknown artifact `bogus`")
        );
    }

    #[test]
    fn the_last_of_overriding_flags_wins() {
        let sweep = select("crash-sweep").ok().unwrap();
        let scale = |args: &[&str]| {
            let args = strings(args);
            sweep_scale(&parse(sweep, &args).ok().unwrap())
                .ok()
                .unwrap()
        };
        assert_eq!(scale(&[]), Scale::Quick);
        assert_eq!(scale(&["--scale", "full"]), Scale::Full);
        assert_eq!(scale(&["--scale", "full", "--quick"]), Scale::Quick);
        assert_eq!(scale(&["--quick", "--scale", "full"]), Scale::Full);
        assert_eq!(
            scale(&["--scale", "full", "--scale", "quick"]),
            Scale::Quick
        );

        let args = strings(&["--ledger", "a", "--no-ledger", "--ledger", "b"]);
        let args = parse(sweep, &args).ok().unwrap();
        assert!(args.pos("--no-ledger") < args.pos("--ledger"));
        assert_eq!(
            args.get("--ledger", parsed::<String>).ok().unwrap(),
            Some("b".into())
        );
    }
}

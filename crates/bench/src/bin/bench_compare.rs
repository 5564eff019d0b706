// SPDX-License-Identifier: MIT OR Apache-2.0
//! `bench-compare` — diff two `BENCH_<n>.json` reports and enforce the
//! perf trajectory (docs/BENCHMARKS.md).
//!
//! ```text
//! bench-compare OLD.json NEW.json [--threshold PCT] [--warn-only]
//! bench-compare --ledger PATH NEW.json [--threshold PCT] [--warn-only]
//! ```
//!
//! With `--ledger`, the baseline is the newest `bench-run` record in the
//! run ledger (its embedded report JSON) instead of a file on disk.
//!
//! Exit status: 0 when nothing failed (or `--warn-only` was given),
//! 1 on a regression / missing benchmark / blown budget, 2 on usage or
//! I/O errors.

use poat_bench::{compare, BenchReport, DEFAULT_THRESHOLD_PCT};

const USAGE: &str =
    "usage: bench-compare OLD.json NEW.json [--threshold PCT] [--warn-only]\n       \
bench-compare --ledger PATH NEW.json [--threshold PCT] [--warn-only]\n\n\
  OLD.json          committed baseline (e.g. the latest BENCH_<n>.json)\n\
  NEW.json          freshly measured report to judge\n\
  --ledger PATH     take the baseline from the newest bench-run record\n                    \
in the run ledger at PATH (docs/OBSERVABILITY.md)\n\
  --threshold PCT   median regression tolerance in percent (default 10)\n\
  --warn-only       report failures but exit 0 (the CI smoke pass)";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn load(path: &str) -> BenchReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    BenchReport::from_json_str(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")))
}

/// Pulls the baseline report out of the newest `bench-run` ledger
/// record's embedded JSON.
fn load_from_ledger(path: &str) -> BenchReport {
    let ledger = poat_ledger::open_file_read_only(std::path::Path::new(path))
        .unwrap_or_else(|e| die(&format!("opening ledger {path}: {e}")));
    let record = ledger
        .records()
        .iter()
        .rev()
        .find(|r| r.data.command == "bench-run" && !r.data.extra.is_empty())
        .unwrap_or_else(|| {
            die(&format!(
                "no bench-run record with a report in ledger {path}"
            ))
        });
    let text = std::str::from_utf8(&record.data.extra).unwrap_or_else(|_| {
        die(&format!(
            "{}: embedded report is not UTF-8",
            record.run_id()
        ))
    });
    let report = BenchReport::from_json_str(text).unwrap_or_else(|e| {
        die(&format!(
            "{}: parsing embedded report: {e}",
            record.run_id()
        ))
    });
    eprintln!(
        "baseline: {} from ledger {path} (mode {}, {} benchmarks)",
        record.run_id(),
        report.mode,
        report.records.len()
    );
    report
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD_PCT;
    let mut warn_only = false;
    let mut ledger: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--ledger" => {
                ledger = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing value for --ledger")),
                );
            }
            "--threshold" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("missing value for --threshold"));
                threshold = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| die(&format!("bad value `{v}` for --threshold")));
            }
            "--warn-only" => warn_only = true,
            other if other.starts_with('-') => die(&format!("unknown argument `{other}`")),
            _ => positional.push(a),
        }
    }
    let (old, new) = match (&ledger, positional.as_slice()) {
        (Some(path), [new_path]) => (load_from_ledger(path), load(new_path)),
        (None, [old_path, new_path]) => (load(old_path), load(new_path)),
        (Some(_), _) => die("--ledger expects exactly one report path (the new report)"),
        (None, _) => die("expected exactly two report paths"),
    };
    let cmp = compare(&old, &new, threshold);
    print!("{}", cmp.text());

    if cmp.failed() {
        if warn_only {
            eprintln!("bench-compare: failures above reported as warnings (--warn-only)");
        } else {
            std::process::exit(1);
        }
    }
}

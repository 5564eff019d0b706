//! `bench-e2e`: the end-to-end benchmark. See `E2E.md`.
//!
//! ```text
//! bench-e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--trace`, each workload runs the timed pass and then the
//! traced pass. The human-readable report goes to stderr; one JSON
//! result line per workload goes to stdout. The exit code is 1 if any op
//! failed, 2 on a usage or I/O error.

use std::process::ExitCode;

use poat_bench_e2e::workload::Workload;
use poat_bench_e2e::{json_line, render, run, Settings};

const USAGE: &str = "usage: bench-e2e [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\nworkloads: fig9_quick tpcc_full polb_sweep \
                     trace_roundtrip";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Settings), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut settings = Settings {
        seed: 0,
        seconds: 12.0,
        smoke: false,
        timed: true,
        traced: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            settings.smoke = true;
            settings.seconds = 0.0;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => match value.as_str() {
                "0" => (settings.timed, settings.traced) = (true, false),
                "1" => (settings.timed, settings.traced) = (false, true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads, settings))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, settings) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in workloads {
        match run(workload, &settings) {
            Ok(report) => {
                eprint!("{}", render(&report, &settings));
                println!("{}", json_line(&report));
                all_correct &= report.tally.failed == 0;
            }
            Err(e) => {
                eprintln!("bench-e2e: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

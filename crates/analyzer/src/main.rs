// SPDX-License-Identifier: MIT OR Apache-2.0
//! `poat-analyze`: the CLI for the POAT static-analysis pass.
//!
//! ```text
//! poat-analyze [--root DIR] [--json] [--deny-warnings] [--list-rules]
//!              [--explain RULE]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (errors always; warnings only
//! under `--deny-warnings`), `2` usage or I/O error. `--explain` exits
//! `0` after printing the rule's catalogue entry and rationale, or `2`
//! for an unknown rule id.

use poat_analyzer::{all_rules, Severity, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    deny_warnings: bool,
    list_rules: bool,
    explain: Option<String>,
}

const USAGE: &str = "\
usage: poat-analyze [--root DIR] [--json] [--deny-warnings] [--list-rules] [--explain RULE]

Static-analysis gate for the POAT workspace; see docs/ANALYZER.md.
  --root DIR        workspace root to analyze (default: .)
  --json            emit findings as JSON
  --deny-warnings   exit non-zero on warnings, not just errors
  --list-rules      print the rule catalogue and exit
  --explain RULE    print one rule's catalogue entry and paper rationale,
                    then exit (0 on success, 2 for an unknown rule id)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        deny_warnings: false,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--json" => args.json = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a rule id")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("poat-analyze: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let rules = all_rules();
    if args.list_rules {
        for r in &rules {
            println!(
                "{:<24} {:<8} {}",
                r.id(),
                r.default_severity().to_string(),
                r.description()
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        // Same strings as --list-rules, plus the rationale paragraph.
        let Some(r) = rules.iter().find(|r| r.id() == id) else {
            eprintln!("poat-analyze: unknown rule `{id}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!(
            "{:<24} {:<8} {}\n\n{}",
            r.id(),
            r.default_severity().to_string(),
            r.description(),
            r.rationale()
        );
        return ExitCode::SUCCESS;
    }

    let ws = match Workspace::load(&args.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("poat-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = poat_analyzer::run(&ws, &rules);

    if args.json {
        print!("{}", poat_analyzer::diag::render_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
    }

    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if !args.json {
        let scanned = ws.files.len();
        if errors + warnings == 0 {
            eprintln!("poat-analyze: {scanned} files clean");
        } else {
            eprintln!(
                "poat-analyze: {errors} error(s), {warnings} warning(s) across {scanned} files"
            );
        }
    }
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

//! End-to-end CLI contract of the `repro` binary: bad input — a flag
//! value, an unknown artifact, an output that cannot be written — exits
//! 2 with a targeted error, and the ledger → `repro report` → flamegraph
//! loop closes — two runs make two queryable records and a non-empty
//! collapsed-stack export — and a stdout closed early only drops
//! output. The flag table itself (help, missing values, unknown flags)
//! is checked in-process by `main.rs`'s tests.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn help_exits_zero_with_the_usage() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: repro "));
}

#[test]
fn a_closed_stdout_drops_output_without_a_panic() {
    let dir = scratch("closed_stdout");
    let none = dir.join("none");
    let json = dir.join("r.json");
    for args in [
        vec!["--help"],
        vec!["report", "--ledger", none.to_str().unwrap()],
        vec!["table2", "--quick", "--no-ledger"],
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(&args);
        if args[0] == "table2" {
            cmd.arg("--json").arg(&json);
        }
        // The reader is gone before the first write: every write to
        // stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cmd.stdout(writer).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = args.join(" ");
        assert_eq!(out.status.code(), Some(0), "`repro {line}`:\n{stderr}");
        assert!(!stderr.contains("panicked"), "`repro {line}`:\n{stderr}");
    }
    assert!(json.is_file(), "table2 still writes its --json file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_flag_values_die_with_targeted_errors() {
    for (args, needle) in [
        (&["fig9a", "--flame"][..], "missing value for --flame"),
        (&["fig9a", "--hud", "0"][..], "bad value `0` for --hud"),
        (
            &["fig9a", "--trace-sample", "0"][..],
            "bad value `0` for --trace-sample",
        ),
        (&["report", "--last", "x"][..], "bad value `x` for --last"),
        (&["report", "--diff", "1"][..], "bad value `1` for --diff"),
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`repro {}` exits 2",
            args.join(" ")
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "`repro {}` error mentions `{needle}`",
            args.join(" ")
        );
    }
}

#[test]
fn unwritable_outputs_exit_2_naming_the_path() {
    let dir = scratch("unwritable");
    // A regular file where a directory is needed.
    let file = dir.join("F");
    std::fs::write(&file, "").unwrap();
    let under = |name: &str| file.join(name).to_str().unwrap().to_string();
    let missing = |name: &str| dir.join("missing").join(name).to_str().unwrap().to_string();
    let quick = ["table2", "--quick", "--no-ledger"];
    for (flag, path, doing) in [
        ("--csv", under("x"), "creating"),
        ("--timeline", under("x"), "creating"),
        ("--json", under("x.json"), "writing"),
        ("--metrics", missing("m.json"), "writing"),
        ("--trace", missing("t.json"), "writing"),
        ("--flame", missing("f"), "writing"),
        ("--dir", under("x"), "creating"),
    ] {
        let mut args: Vec<&str> = match flag {
            "--dir" => vec!["trace-roundtrip", "--workload", "LL:ALL"],
            _ => quick.to_vec(),
        };
        args.extend([flag, &path]);
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`repro {}` exits 2:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(&format!("error: {doing} {path}: ")),
            "`repro {}` names the path:\n{stderr}",
            args.join(" ")
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_artifact_is_rejected_before_any_side_effect() {
    let dir = scratch("unknown");
    let csv = dir.join("d");
    let out = repro(&["bogus", "--csv", csv.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown artifact `bogus`"));
    assert!(
        !csv.exists(),
        "the rejected run created its --csv directory"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_retired_serve_commands_are_unknown_artifacts() {
    let dir = scratch("retired");
    let (d, c) = (dir.to_str().unwrap(), dir.join("c"));
    let c = c.to_str().unwrap();
    // Each line's flags made its command return at once, so a parser
    // that still knew it would finish (or fail) here rather than hang.
    for args in [
        &["serve", "--drain", "--spool", d, "--catalog", c][..],
        &["submit", "LL:ALL", "pipelined", "quick", "--spool", d],
        &["jobs", "--spool", d, "--catalog", c],
        &["catalog", "query", "--catalog", c],
    ] {
        let line = format!("repro {}", args.join(" "));
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        let needle = format!("unknown artifact `{}`", args[0]);
        assert!(stderr.contains(&needle), "`{line}`: {stderr}");
        let created = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(created, 0, "`{line}` created files under {d}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_runs_make_two_ledger_records_and_a_flamegraph() {
    let dir = std::env::temp_dir().join("poat_args_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("ledger.poatlgr");
    let flame = dir.join("profile.folded");

    for _ in 0..2 {
        let out = repro(&[
            "fig9a",
            "--quick",
            "--ledger",
            ledger.to_str().unwrap(),
            "--flame",
            flame.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "repro failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The collapsed-stack export is inferno format: `a;b;c <nanos>`.
    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(!folded.trim().is_empty(), "flamegraph export is non-empty");
    for line in folded.lines() {
        let (stack, nanos) = line.rsplit_once(' ').expect("stack <value> lines");
        assert!(!stack.is_empty());
        nanos.parse::<u64>().expect("numeric self-time");
    }
    assert!(
        folded.lines().any(|l| l.contains(';')),
        "at least one multi-frame path (parent;child)"
    );

    let out = repro(&["report", "--ledger", ledger.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "repro report failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 records in"),
        "report sees both runs:\n{stdout}"
    );
    assert!(stdout.contains("run000001") && stdout.contains("run000002"));

    // A named metric is queryable and diffable across the two runs.
    let out = repro(&[
        "report",
        "--ledger",
        ledger.to_str().unwrap(),
        "--metric",
        "sim.result.polb_misses",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("delta run000001 -> run000002"),
        "metric view diffs the last two runs:\n{stdout}"
    );
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("poat_args_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro report` on `ledger`, which must succeed; returns its
/// stdout and stderr.
fn report(ledger: &std::path::Path) -> (String, String) {
    let out = repro(&["report", "--ledger", ledger.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "repro report failed:\n{stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

#[test]
fn report_on_a_missing_ledger_creates_nothing() {
    let dir = scratch("absent");
    let (stdout, _) = report(&dir.join("absent").join("x.poatlgr"));
    assert!(stdout.contains("0 records"));
    assert!(!dir.join("absent").exists(), "report created the directory");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_leaves_a_torn_tail_in_place() {
    let dir = scratch("torn");
    let ledger = dir.join("ledger.poatlgr");
    let rec = poat_ledger::RecordData::default();
    poat_ledger::open_file(&ledger)
        .unwrap()
        .append(rec)
        .unwrap();
    // Garbage past the last frame: to an observer this may be another
    // run's in-flight append, so it must survive the read.
    let mut bytes = std::fs::read(&ledger).unwrap();
    bytes.extend_from_slice(&[0xA5; 35]);
    std::fs::write(&ledger, &bytes).unwrap();
    let (stdout, stderr) = report(&ledger);
    assert!(stdout.contains("1 records in"));
    assert!(stderr.contains("torn tail of 35 bytes"));
    assert_eq!(
        std::fs::read(&ledger).unwrap(),
        bytes,
        "report wrote the ledger"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_oversized_length_in_the_ledger_is_a_torn_tail_not_a_panic() {
    // 41 bytes: the magic and one checksummed frame whose record
    // declares a `command` string of 2^64-1 bytes.
    let mut payload = vec![1, 0, 0]; // schema version, timestamp, elapsed
    poat_ledger::codec::put_varint(&mut payload, u64::MAX);
    let mut fixture = b"POATLGR1".to_vec();
    fixture.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    fixture.extend_from_slice(&1u64.to_le_bytes());
    fixture.extend_from_slice(&poat_pmem::fnv::fnv1a64(&payload).to_le_bytes());
    fixture.extend_from_slice(&payload);
    assert_eq!(fixture.len(), 41);

    let dir = scratch("oversized");
    let ledger = dir.join("ledger.poatlgr");
    std::fs::write(&ledger, &fixture).unwrap();
    let (stdout, stderr) = report(&ledger);
    assert!(stdout.contains("0 records") && stderr.contains("torn tail"));
    assert_eq!(std::fs::read(&ledger).unwrap(), fixture);

    // A run appending to the broken ledger still delivers its artifact.
    let json = dir.join("out.json");
    let (ledger, json) = (ledger.to_str().unwrap(), json.to_str().unwrap());
    let out = repro(&["table2", "--quick", "--ledger", ledger, "--json", json]);
    assert!(out.status.success(), "table2 on a crafted ledger failed");
    assert!(
        std::path::Path::new(json).exists(),
        "the run lost its --json"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

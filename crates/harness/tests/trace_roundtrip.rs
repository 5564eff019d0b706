//! `repro trace-roundtrip` end to end: record one quick workload, save it
//! as a trace file, map it back, and replay both copies. The command must
//! exit 0, report the cell `ok`, and leave a `POATTRC3` file in `--dir`.

use std::process::Command;

#[test]
fn trace_roundtrip_reports_ok_and_writes_a_chunked_file() {
    let dir = std::env::temp_dir().join(format!("poat_trace_roundtrip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "trace-roundtrip",
            "--scale",
            "quick",
            "--workload",
            "LL:EACH",
            "--dir",
        ])
        .arg(&dir)
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 1, "one row for the one workload:\n{stdout}");
    assert!(rows[0].ends_with(" ok"), "cell not ok: {}", rows[0]);

    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("--dir holds the trace")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "poattrc"))
        .collect();
    assert_eq!(files.len(), 1, "one trace file: {files:?}");
    let bytes = std::fs::read(&files[0]).expect("read trace file");
    assert!(
        bytes.starts_with(b"POATTRC3"),
        "{} is not a chunked trace",
        files[0].display()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

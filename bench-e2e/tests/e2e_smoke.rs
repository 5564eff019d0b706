//! Runs the benchmark binary on quick-scale inputs and checks its output
//! against `BENCHMARK.json`: every declared metric is printed with its
//! unit, and no op fails.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `bench-e2e` in `dir` and returns its exit success and the
/// parsed JSON result lines.
fn bench(dir: &Path, args: &[&str]) -> (bool, Vec<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench-e2e runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("every stdout line is JSON"))
        .collect();
    (out.status.success(), lines)
}

fn assert_metrics(result: &Value, declared: &Value, workload: &str) {
    for m in declared.as_array().expect("metric list") {
        let name = m["name"].as_str().expect("metric name");
        let got = result["metrics"]
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            got["unit"].as_str(),
            m["unit"].as_str(),
            "{workload}: unit of {name}"
        );
        assert!(
            got["value"].as_f64().is_some(),
            "{workload}: {name} has no value"
        );
    }
}

#[test]
fn smoke_run_prints_every_declared_metric_and_fails_nothing() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(
        workloads,
        ["fig9_quick", "tpcc_full", "polb_sweep", "trace_roundtrip"]
    );

    let dir = run_dir("smoke");
    let (ok, results) = bench(&dir, &["--smoke"]);
    assert!(ok, "smoke run exits 0");
    assert_eq!(
        results.len(),
        workloads.len(),
        "one result line per workload"
    );
    for (result, workload) in results.iter().zip(&workloads) {
        assert_eq!(result["correct"], Value::Bool(true), "{workload}");
        assert_eq!(
            result["failed"].as_u64(),
            Some(0),
            "{workload}: fail_ratio 0"
        );
        assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{workload}");
        assert_metrics(result, &spec["end_to_end"], workload);
        assert_metrics(result, &spec["per_layer"], workload);
        let spans = dir.join(format!("target/bench-e2e/spans-{workload}.json"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        let trace: Value = serde_json::from_str(&text).expect("span file is JSON");
        assert!(!trace["traceEvents"].as_array().expect("events").is_empty());
    }
}

#[test]
fn driver_flags_select_one_pass_of_one_workload() {
    let spec = benchmark_json();
    let dir = run_dir("driver");
    for (trace, declared, other) in [
        ("0", &spec["end_to_end"], &spec["per_layer"]),
        ("1", &spec["per_layer"], &spec["end_to_end"]),
    ] {
        let args = [
            "--smoke",
            "--workload",
            "trace_roundtrip",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
        ];
        let (ok, results) = bench(&dir, &args);
        assert!(ok);
        let [result] = results.as_slice() else {
            panic!("one result line, got {results:?}");
        };
        assert_metrics(result, declared, "trace_roundtrip");
        let printed = match &result["metrics"] {
            Value::Map(entries) => entries.len(),
            other => panic!("metrics is not an object: {other:?}"),
        };
        assert_eq!(printed, declared.as_array().expect("list").len());
        for m in other.as_array().expect("list") {
            let name = m["name"].as_str().expect("name");
            assert!(
                result["metrics"].get(name).is_none(),
                "--trace {trace} printed {name}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2() {
    let dir = run_dir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--seconds", "-1"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench-e2e runs")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}

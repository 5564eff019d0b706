// SPDX-License-Identifier: MIT OR Apache-2.0
//! Integration tests for the perf-trajectory machinery: lossless
//! `BENCH_<n>.json` round-trips and the regression comparator's
//! verdicts on injected deltas (docs/BENCHMARKS.md).

use poat_bench::{
    compare, BenchRecord, BenchReport, BudgetRecord, BuildMeta, DeltaKind, BENCH_SCHEMA_VERSION,
    DEFAULT_THRESHOLD_PCT,
};

fn record(id: &str, median_ns: f64) -> BenchRecord {
    BenchRecord {
        id: id.to_string(),
        median_ns,
        p10_ns: median_ns * 0.97,
        p90_ns: median_ns * 1.06,
        min_ns: median_ns * 0.95,
        max_ns: median_ns * 1.5,
        samples: 28,
        outliers_dropped: 2,
        iters: 4096,
        ops_per_iter: 64,
        ops_per_sec: 64.0 / (median_ns * 1e-9),
        bytes_per_op: None,
    }
}

fn report(records: Vec<BenchRecord>) -> BenchReport {
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        mode: "committed".to_string(),
        build: BuildMeta {
            git_revision: "deadbeef".to_string(),
            profile: "release".to_string(),
            host_parallelism: 8,
            worker_parallelism: Some(8),
        },
        records,
        budgets: vec![BudgetRecord {
            id: "budget/fig9_quick_matrix".to_string(),
            wall_ns: 4_200_000_000,
            budget_ns: 45_000_000_000,
            within_budget: true,
        }],
    }
}

#[test]
fn bench_json_roundtrip_is_lossless() {
    let mut original = report(vec![
        record("translation/polb_pipelined_hit", 41.5),
        record("trace/encode_push", 212.25),
    ]);
    // Exercise the optional field and fractional values explicitly.
    original.records[1].bytes_per_op = Some(3.47);
    let json = original.to_json_string();
    let parsed = BenchReport::from_json_str(&json).expect("own output must parse");
    assert_eq!(parsed, original);
    // And a second trip produces byte-identical JSON (stable ordering).
    assert_eq!(parsed.to_json_string(), json);
}

#[test]
fn from_json_rejects_newer_schema() {
    let mut newer = report(vec![record("a/b", 10.0)]);
    newer.schema_version = BENCH_SCHEMA_VERSION + 1;
    let json = newer.to_json_string();
    let err = BenchReport::from_json_str(&json).expect_err("future schema must be rejected");
    assert!(err.contains("schema"), "unhelpful error: {err}");
}

#[test]
fn comparator_flags_injected_regression() {
    let old = report(vec![
        record("translation/polb_pipelined_hit", 40.0),
        record("memory/tlb_mru_hit", 12.0),
    ]);
    let mut new = old.clone();
    // Inject a synthetic 50% slowdown on one hot path.
    new.records[0].median_ns = 60.0;
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(
        cmp.failed(),
        "a 50% slowdown must fail at the 10% threshold"
    );
    let d = &cmp.deltas[0];
    assert_eq!(d.kind, DeltaKind::Regression);
    assert!((d.delta_pct - 50.0).abs() < 1e-9);
    assert_eq!(cmp.deltas[1].kind, DeltaKind::Unchanged);
    assert!(cmp.text().contains("REGRESSION"));
}

#[test]
fn comparator_passes_improvement_and_noise() {
    let old = report(vec![
        record("translation/polb_pipelined_hit", 40.0),
        record("memory/tlb_mru_hit", 12.0),
    ]);
    let mut new = old.clone();
    new.records[0].median_ns = 20.0; // 2x faster
    new.records[1].median_ns = 12.5; // ~4% slower: inside the threshold
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(!cmp.failed());
    assert_eq!(cmp.deltas[0].kind, DeltaKind::Improvement);
    assert_eq!(cmp.deltas[1].kind, DeltaKind::Unchanged);
}

#[test]
fn comparator_fails_on_missing_benchmark() {
    let old = report(vec![
        record("translation/polb_pipelined_hit", 40.0),
        record("memory/tlb_mru_hit", 12.0),
    ]);
    let mut new = old.clone();
    new.records.remove(1);
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(cmp.failed(), "a silently dropped benchmark must fail");
    assert!(cmp
        .deltas
        .iter()
        .any(|d| d.id == "memory/tlb_mru_hit" && d.kind == DeltaKind::MissingInNew));
}

#[test]
fn comparator_reports_added_benchmarks_without_failing() {
    let old = report(vec![record("translation/polb_pipelined_hit", 40.0)]);
    let mut new = old.clone();
    new.records.push(record("replay/new_path", 900.0));
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(!cmp.failed());
    assert!(cmp
        .deltas
        .iter()
        .any(|d| d.id == "replay/new_path" && d.kind == DeltaKind::Added));
}

#[test]
fn comparator_fails_on_blown_budget() {
    let old = report(vec![record("a/b", 10.0)]);
    let mut new = old.clone();
    new.budgets[0].wall_ns = new.budgets[0].budget_ns + 1;
    new.budgets[0].within_budget = false;
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(cmp.failed());
    assert_eq!(cmp.blown_budgets.len(), 1);
    assert!(cmp.text().contains("BUDGET"));
}

#[test]
fn comparator_warns_on_debug_profile_and_host_mismatch() {
    let old = report(vec![record("a/b", 10.0)]);
    let mut new = old.clone();
    new.build.profile = "debug".to_string();
    new.build.host_parallelism = 4;
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(!cmp.failed(), "warnings alone must not fail the comparison");
    assert_eq!(cmp.warnings.len(), 2);
}

#[test]
fn comparator_warns_on_worker_width_mismatch_or_unrecorded_width() {
    let old = report(vec![record("a/b", 10.0)]);
    let mut new = old.clone();
    new.build.worker_parallelism = Some(24);
    let cmp = compare(&old, &new, DEFAULT_THRESHOLD_PCT);
    assert!(
        !cmp.failed(),
        "a width warning must not fail the comparison"
    );
    assert_eq!(cmp.warnings.len(), 1, "old 8 vs new 24 workers warns");

    // A pre-schema baseline (no recorded width) cannot be shown to
    // match, so it warns too — silently treating it as comparable hid
    // real cross-width comparisons.
    let mut legacy = old.clone();
    legacy.build.worker_parallelism = None;
    let cmp = compare(&legacy, &new, DEFAULT_THRESHOLD_PCT);
    assert_eq!(cmp.warnings.len(), 1, "got: {:?}", cmp.warnings);
    assert!(
        cmp.warnings[0].contains("unrecorded"),
        "got: {:?}",
        cmp.warnings
    );
    assert!(!cmp.failed());

    // Matching recorded widths stay silent.
    let cmp = compare(&old, &old, DEFAULT_THRESHOLD_PCT);
    assert!(cmp.warnings.is_empty(), "got: {:?}", cmp.warnings);
}

#[test]
fn report_without_worker_parallelism_still_parses() {
    // Committed baselines predating the field (BENCH_6/BENCH_7) must
    // keep loading; the field reads back as None.
    let mut json = report(vec![record("a/b", 10.0)]).to_json_string();
    assert!(json.contains("\"worker_parallelism\""), "field serializes");
    json = json.replace(",\n    \"worker_parallelism\": 8", "");
    assert!(
        !json.contains("worker_parallelism"),
        "the field was removed to mimic a pre-schema report"
    );
    let parsed = BenchReport::from_json_str(&json).expect("legacy layout parses");
    assert_eq!(parsed.build.worker_parallelism, None);
}

/// The newest `BENCH_<n>.json` at the repo root (highest `n`), the
/// same pick `scripts/ci.sh` and `scripts/bench.sh` make with
/// `ls | sort -V | tail -1`.
fn latest_committed_baseline() -> Option<std::path::PathBuf> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(root).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

#[test]
fn committed_baseline_in_repo_parses_and_matches_suite() {
    // The latest BENCH_<n>.json is committed at the repo root; it must
    // always parse under the current schema and cover the current
    // suite's ids, so a renamed benchmark cannot slip past the
    // comparator unnoticed.
    let text = match latest_committed_baseline().map(std::fs::read_to_string) {
        Some(Ok(t)) => t,
        // Tolerate the brief window in which the baseline has not been
        // minted yet (first run of scripts/bench.sh on a fresh clone).
        _ => return,
    };
    let baseline = BenchReport::from_json_str(&text).expect("committed baseline must parse");
    assert_eq!(baseline.schema_version, BENCH_SCHEMA_VERSION);
    let listing = poat_bench::suite::list_suite(true);
    for rec in &listing.records {
        assert!(
            baseline.record(&rec.id).is_some(),
            "suite benchmark {} is missing from the committed baseline; \
             re-run scripts/bench.sh",
            rec.id
        );
    }
}

/// `bench-compare --ledger` is a read-only observer of the run ledger.
#[test]
fn ledger_baseline_from_a_missing_path_creates_nothing() {
    let dir = std::env::temp_dir().join(format!("poat_compare_absent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("absent").join("ledger.poatlgr");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-compare"))
        .args(["--ledger".as_ref(), ledger.as_os_str(), "new.json".as_ref()])
        .output()
        .expect("run bench-compare");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no bench-run record with a report in ledger"));
    assert!(
        !dir.join("absent").exists(),
        "bench-compare created the directory"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

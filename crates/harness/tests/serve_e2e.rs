//! End-to-end contract for serve mode (docs/OBSERVABILITY.md): jobs
//! submitted concurrently and drained by `repro serve` produce results
//! byte-identical to the same cells executed via the batch library
//! path, the catalog survives a re-open with every job intact, and the
//! `repro jobs` / `repro catalog query` CLIs see what the server wrote.

use std::collections::BTreeMap;
use std::process::Command;

use poat_harness::runner::{self, Core};
use poat_harness::serve;
use poat_ledger::LogPayload;
use poat_workloads::ExpConfig;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// The batch-path ground truth for one serve job: the same
/// `run_micro` + `simulate` calls `repro` makes, projected into the
/// catalog's metric map.
fn batch_metrics(workload: &str, design: &str) -> BTreeMap<String, u64> {
    let (bench, pattern) = poat_harness::crash_sweep::parse_workload(workload).unwrap();
    let translation = match design {
        "parallel" => runner::parallel(),
        "ideal" => runner::ideal(),
        _ => runner::pipelined(),
    };
    let run = runner::run_micro(bench, pattern, ExpConfig::Opt, runner::Scale::Quick);
    serve::result_metrics(&runner::simulate(&run, Core::InOrder, translation))
}

#[test]
fn served_jobs_match_batch_runs_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("poat_serve_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spool = dir.join("spool");
    let catalog = dir.join("catalog.poatcat");
    let spool_s = spool.to_str().unwrap().to_string();
    let catalog_s = catalog.to_str().unwrap().to_string();

    // Two submissions racing from separate threads (the concurrent-
    // submission acceptance criterion): both must land atomically.
    let cells = [("LL:ALL", "pipelined"), ("BST:RANDOM", "ideal")];
    std::thread::scope(|s| {
        for (workload, design) in cells {
            let spool = spool.clone();
            s.spawn(move || {
                let spec = serve::validate_spec(workload, design, "quick").unwrap();
                serve::submit(&spool, &spec).unwrap();
            });
        }
    });
    assert_eq!(serve::pending_specs(&spool).unwrap().len(), 2);

    // Drain them through the real binary.
    let out = repro(&[
        "serve",
        "--spool",
        &spool_s,
        "--catalog",
        &catalog_s,
        "--drain",
    ]);
    assert!(
        out.status.success(),
        "serve failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(serve::pending_specs(&spool).unwrap().is_empty());
    assert!(serve::running_specs(&spool).unwrap().is_empty());

    // Re-open the catalog cold (a fresh process boot) and compare every
    // job's metrics against an independently computed batch run.
    let cat = poat_ledger::catalog::open_file_read_only(&catalog).unwrap();
    let jobs: Vec<_> = cat.jobs().collect();
    assert_eq!(jobs.len(), 2, "both jobs recorded");
    for job in &jobs {
        assert_eq!(
            job.status,
            poat_ledger::catalog::JobStatus::Completed,
            "{job:?}"
        );
        let expected = batch_metrics(&job.spec.workload, &job.spec.design);
        assert_eq!(
            job.metrics,
            expected,
            "served metrics for {} diverge from the batch path",
            job.spec.display()
        );
        // Byte-identical in the strict sense: the durable encodings of
        // the metric maps match, not just their parsed views.
        let served = poat_ledger::catalog::CatalogRecord::completed(
            job.job_id,
            job.spec.clone(),
            job.finished_unix_secs,
            job.elapsed_micros,
            job.metrics.clone(),
        );
        let rebuilt = poat_ledger::catalog::CatalogRecord::completed(
            job.job_id,
            job.spec.clone(),
            job.finished_unix_secs,
            job.elapsed_micros,
            expected,
        );
        assert_eq!(served.encode(), rebuilt.encode());
    }

    // The observer CLIs see the same state.
    let out = repro(&["jobs", "--spool", &spool_s, "--catalog", &catalog_s]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 pending, 0 running, 2 completed, 0 failed"),
        "jobs summary:\n{stdout}"
    );

    let out = repro(&[
        "catalog",
        "query",
        "--catalog",
        &catalog_s,
        "--workload",
        "BST:RANDOM",
        "--metric",
        "sim.result.cycles",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 job(s) matched"), "query:\n{stdout}");
    let cycles = batch_metrics("BST:RANDOM", "ideal")["sim.result.cycles"];
    assert!(
        stdout.contains(&cycles.to_string()),
        "query projects the served cycle count {cycles}:\n{stdout}"
    );

    // A second serve session over the same catalog appends, never
    // clobbers: ids continue after the existing jobs.
    let spec = serve::validate_spec("SPS:ALL", "pipelined", "quick").unwrap();
    serve::submit(&spool, &spec).unwrap();
    let out = repro(&[
        "serve",
        "--spool",
        &spool_s,
        "--catalog",
        &catalog_s,
        "--drain",
    ]);
    assert!(out.status.success());
    let cat = poat_ledger::catalog::open_file_read_only(&catalog).unwrap();
    assert_eq!(cat.jobs().count(), 3);
    assert_eq!(cat.job(3).unwrap().spec.workload, "SPS:ALL");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_and_missing_values_cover_the_serve_surface() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "repro serve",
        "repro submit",
        "repro jobs",
        "repro catalog query",
        "--spool DIR",
        "--catalog PATH",
        "--drain",
        "--idle-exit SECS",
        "--status S",
    ] {
        assert!(stdout.contains(needle), "help documents `{needle}`");
    }

    for (args, needle) in [
        (&["serve", "--spool"][..], "missing value for --spool"),
        (
            &["serve", "--idle-exit"][..],
            "missing value for --idle-exit",
        ),
        (
            &["serve", "--poll-ms", "0"][..],
            "bad value `0` for --poll-ms",
        ),
        (&["jobs", "--catalog"][..], "missing value for --catalog"),
        (
            &["catalog", "query", "--metric"][..],
            "missing value for --metric",
        ),
        (&["catalog", "list"][..], "expected `repro catalog query`"),
        (
            &["submit", "LL:ALL", "pipelined"][..],
            "submit expects WORKLOAD DESIGN SCALE",
        ),
        (
            &["submit", "LL:ALL", "warp", "quick"][..],
            "unknown design `warp`",
        ),
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
            "`repro {}` error mentions `{needle}`, got:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! `repro serve` — the always-on run service: a filesystem job spool,
//! an async job queue feeding the worker pool, and the durable run
//! catalog recording every job's lifecycle.
//!
//! ## Job lifecycle
//!
//! 1. **Submit** (`repro submit WORKLOAD DESIGN SCALE`): the spec is
//!    written to `<spool>/pending/` via temp-file + rename, so the
//!    server only ever sees complete spec files — submission is atomic
//!    and works from any process, no socket required.
//! 2. **Claim**: the serve loop renames pending specs into
//!    `<spool>/running/` (rename doubles as the claim lock), assigns
//!    each a job id, and appends a `Submitted` event to the catalog.
//! 3. **Execute**: claimed jobs fan out over the existing worker pool
//!    ([`crate::runner::parallel_map_labeled`], so the HUD and `pool.*`
//!    metrics cover serve traffic too); each job runs the same
//!    deterministic `run_micro` + `simulate` path as batch `repro` —
//!    full-scale traces take the PR-9 sharded replay automatically —
//!    and therefore produces byte-identical results to a batch run of
//!    the same cell.
//! 4. **Record**: a terminal `Completed` (with the run's `sim.result.*`
//!    metrics) or `Failed` (with the error) event is appended durably,
//!    then the spec file is removed. Crash-recovery follows from the
//!    ordering: a spec still in `running/` at boot means no terminal
//!    event is durable, so it is simply moved back to `pending/` and
//!    re-executed (runs are deterministic, so the retry converges).
//!
//! Telemetry: `queue.*` counters/gauges (docs/METRICS.md).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use poat_ledger::catalog::{CatalogRecord, JobSpec};
use poat_telemetry::global;
use poat_workloads::ExpConfig;

use crate::notify;
use crate::runner::{self, Core, Scale};

/// Design labels a job spec may name, in CLI spelling.
pub const DESIGNS: [&str; 3] = ["pipelined", "parallel", "ideal"];

/// How the serve loop runs.
pub struct ServeOptions {
    /// Spool directory (holds `pending/` and `running/`).
    pub spool: PathBuf,
    /// Catalog file the lifecycle events are appended to.
    pub catalog: PathBuf,
    /// Idle sleep between spool polls, in milliseconds.
    pub poll_ms: u64,
    /// Exit once the spool is empty (after processing what is there).
    pub drain: bool,
    /// Exit after this many seconds without new work.
    pub idle_exit_secs: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            spool: PathBuf::from(".poat/spool"),
            catalog: PathBuf::from(".poat/catalog.poatcat"),
            poll_ms: 200,
            drain: false,
            idle_exit_secs: None,
        }
    }
}

/// What one serve session did (printed on exit and asserted by tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs claimed from the spool.
    pub claimed: u64,
    /// Jobs that completed and recorded metrics.
    pub completed: u64,
    /// Jobs that recorded a failure.
    pub failed: u64,
}

/// Validates a submission's fields against the grammar batch `repro`
/// accepts, returning the normalized spec.
///
/// # Errors
///
/// A human-readable description of the first invalid field.
pub fn validate_spec(workload: &str, design: &str, scale: &str) -> Result<JobSpec, String> {
    let (bench, pattern) = crate::crash_sweep::parse_workload(workload).ok_or_else(|| {
        format!("unknown workload `{workload}` (expected BENCH:PATTERN, e.g. LL:ALL)")
    })?;
    if !DESIGNS.contains(&design) {
        return Err(format!(
            "unknown design `{design}` (expected one of {})",
            DESIGNS.join(", ")
        ));
    }
    if scale != "quick" && scale != "full" {
        return Err(format!("unknown scale `{scale}` (expected quick or full)"));
    }
    Ok(JobSpec {
        workload: format!("{}:{}", bench.abbrev(), pattern.label()),
        design: design.to_string(),
        scale: scale.to_string(),
    })
}

/// The `pending/` directory of a spool.
pub fn pending_dir(spool: &Path) -> PathBuf {
    spool.join("pending")
}

/// The `running/` directory of a spool.
pub fn running_dir(spool: &Path) -> PathBuf {
    spool.join("running")
}

/// Wall-clock seconds since the Unix epoch (for catalog events).
pub fn unix_now_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

static SUBMIT_NONCE: AtomicU64 = AtomicU64::new(0);

/// Atomically drops `spec` into the spool's pending directory (temp
/// file + rename, so the server never reads a half-written spec) and
/// returns the spec-file path.
///
/// # Errors
///
/// Directory-creation or file I/O failures.
pub fn submit(spool: &Path, spec: &JobSpec) -> std::io::Result<PathBuf> {
    let pending = pending_dir(spool);
    std::fs::create_dir_all(&pending)?;
    let nonce = SUBMIT_NONCE.fetch_add(1, Ordering::Relaxed);
    let name = format!(
        "job-{:011}-{:08}-{nonce:04}.spec",
        unix_now_secs(),
        std::process::id()
    );
    let tmp = pending.join(format!("{name}.tmp"));
    let contents = format!(
        "workload={}\ndesign={}\nscale={}\n",
        spec.workload, spec.design, spec.scale
    );
    std::fs::write(&tmp, contents)?;
    let dest = pending.join(&name);
    std::fs::rename(&tmp, &dest).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(dest)
}

/// Parses a spool spec file (`key=value` lines; see [`submit`]).
///
/// # Errors
///
/// I/O failures, unknown keys, or missing fields — all described for
/// the catalog's `Failed` event.
pub fn read_spec(path: &Path) -> Result<JobSpec, String> {
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut spec = JobSpec::default();
    for line in contents.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("malformed spec line `{line}`"));
        };
        match key {
            "workload" => spec.workload = value.to_string(),
            "design" => spec.design = value.to_string(),
            "scale" => spec.scale = value.to_string(),
            other => return Err(format!("unknown spec key `{other}`")),
        }
    }
    validate_spec(&spec.workload, &spec.design, &spec.scale)
}

/// Spec files waiting in `pending/`, sorted by name (submission order —
/// names embed the submission timestamp).
///
/// # Errors
///
/// Directory-read failures (a missing directory reads as empty).
pub fn pending_specs(spool: &Path) -> std::io::Result<Vec<PathBuf>> {
    list_specs(&pending_dir(spool))
}

/// Spec files claimed into `running/`, sorted by name.
///
/// # Errors
///
/// Directory-read failures (a missing directory reads as empty).
pub fn running_specs(spool: &Path) -> std::io::Result<Vec<PathBuf>> {
    list_specs(&running_dir(spool))
}

fn list_specs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("spec") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Runs one job spec through the same deterministic path batch `repro`
/// uses — `run_micro` at the spec's scale, then `simulate` on the
/// in-order core with the spec's translation design (full-scale traces
/// shard across the worker pool automatically) — and returns the run's
/// `sim.result.*` metrics.
///
/// # Errors
///
/// Invalid spec fields or a panicking simulation, described for the
/// catalog's `Failed` event.
pub fn execute_spec(spec: &JobSpec) -> Result<BTreeMap<String, u64>, String> {
    let spec = validate_spec(&spec.workload, &spec.design, &spec.scale)?;
    let (bench, pattern) =
        crate::crash_sweep::parse_workload(&spec.workload).expect("validated above");
    let scale = if spec.scale == "full" {
        Scale::Full
    } else {
        Scale::Quick
    };
    let translation = match spec.design.as_str() {
        "parallel" => runner::parallel(),
        "ideal" => runner::ideal(),
        _ => runner::pipelined(),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let run = runner::run_micro(bench, pattern, ExpConfig::Opt, scale);
        runner::simulate(&run, Core::InOrder, translation)
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("run panicked");
        format!("run panicked: {msg}")
    })?;
    Ok(result_metrics(&result))
}

/// Projects a [`poat_sim::SimResult`] into the catalog's metric map:
/// the same `sim.result.*` series `SimResult::publish` registers.
pub fn result_metrics(r: &poat_sim::SimResult) -> BTreeMap<String, u64> {
    r.series()
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// One claimed unit of work: the spec file (now in `running/`) and its
/// parse result.
struct ClaimedJob {
    path: PathBuf,
    parsed: Result<JobSpec, String>,
}

/// Claims every pending spec by renaming it into `running/`.
fn claim_batch(spool: &Path) -> std::io::Result<Vec<ClaimedJob>> {
    let running = running_dir(spool);
    std::fs::create_dir_all(&running)?;
    let mut batch = Vec::new();
    for path in pending_specs(spool)? {
        let dest = running.join(path.file_name().expect("spec files have names"));
        match std::fs::rename(&path, &dest) {
            Ok(()) => batch.push(ClaimedJob {
                parsed: read_spec(&dest),
                path: dest,
            }),
            // Lost a claim race (or the submitter removed it) — skip.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(batch)
}

/// Moves orphaned `running/` specs (a previous serve crashed mid-run)
/// back to `pending/`; their terminal events never became durable, so
/// re-execution is the correct — and, runs being deterministic,
/// convergent — recovery.
fn recover_orphans(spool: &Path) -> std::io::Result<u64> {
    let pending = pending_dir(spool);
    std::fs::create_dir_all(&pending)?;
    let mut recovered = 0;
    for path in running_specs(spool)? {
        let dest = pending.join(path.file_name().expect("spec files have names"));
        std::fs::rename(&path, &dest)?;
        recovered += 1;
    }
    Ok(recovered)
}

/// The serve loop: claim, record, execute, record, repeat — until the
/// configured exit condition (drain / idle timeout) fires.
///
/// # Errors
///
/// Catalog open/append failures and spool I/O failures. Job *failures*
/// are not errors — they are recorded as `Failed` events and counted in
/// the summary.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, String> {
    let mut cat = poat_ledger::catalog::open_file(&opts.catalog)
        .map_err(|e| format!("opening catalog {}: {e}", opts.catalog.display()))?;
    let scan = cat.scan_report();
    if scan.torn_tail_bytes > 0 {
        notify::emit(&format!(
            "serve: catalog recovery truncated a torn tail of {} bytes ({})",
            scan.torn_tail_bytes,
            scan.torn_reason.as_deref().unwrap_or("unknown")
        ));
    }
    let orphans = recover_orphans(&opts.spool).map_err(|e| format!("recovering spool: {e}"))?;
    if orphans > 0 {
        notify::emit(&format!(
            "serve: re-queued {orphans} orphaned running job(s) from a previous session"
        ));
    }
    notify::emit(&format!(
        "serve: watching {} ({} jobs in catalog {})",
        opts.spool.display(),
        cat.jobs().count(),
        opts.catalog.display()
    ));

    let registry = global();
    let mut summary = ServeSummary::default();
    let mut last_work = Instant::now();
    loop {
        let batch = claim_batch(&opts.spool).map_err(|e| format!("claiming jobs: {e}"))?;
        registry.gauge("queue.depth").set(
            pending_specs(&opts.spool)
                .map(|v| v.len() as u64)
                .unwrap_or(0),
        );
        if batch.is_empty() {
            if opts.drain {
                break;
            }
            if let Some(secs) = opts.idle_exit_secs {
                if last_work.elapsed() >= Duration::from_secs(secs) {
                    notify::emit(&format!("serve: idle for {secs}s, exiting"));
                    break;
                }
            }
            registry.counter("queue.polls.idle").inc();
            std::thread::sleep(Duration::from_millis(opts.poll_ms));
            continue;
        }
        last_work = Instant::now();
        summary.claimed += batch.len() as u64;
        registry
            .counter("queue.jobs.claimed")
            .add(batch.len() as u64);

        // Record every claim durably before executing anything: a crash
        // from here on leaves `Submitted` events whose specs sit in
        // `running/` and will be re-queued on the next boot.
        let mut work = Vec::new();
        for job in batch {
            let job_id = cat.next_job_id();
            match job.parsed {
                Ok(spec) => {
                    cat.append_event(CatalogRecord::submitted(
                        job_id,
                        spec.clone(),
                        unix_now_secs(),
                    ))
                    .map_err(|e| format!("recording submission: {e}"))?;
                    notify::emit(&format!("serve: job {job_id} claimed ({})", spec.display()));
                    work.push((job_id, spec, job.path));
                }
                Err(reason) => {
                    // An unparseable spec still gets a full, durable
                    // lifecycle so `repro jobs` can show what happened.
                    let spec = JobSpec::default();
                    cat.append_event(CatalogRecord::submitted(
                        job_id,
                        spec.clone(),
                        unix_now_secs(),
                    ))
                    .map_err(|e| format!("recording submission: {e}"))?;
                    cat.append_event(CatalogRecord::failed(
                        job_id,
                        spec,
                        unix_now_secs(),
                        reason.clone(),
                    ))
                    .map_err(|e| format!("recording failure: {e}"))?;
                    notify::emit(&format!("serve: job {job_id} rejected: {reason}"));
                    summary.failed += 1;
                    registry.counter("queue.jobs.failed").inc();
                    let _ = std::fs::remove_file(&job.path);
                }
            }
        }

        // Execute the batch on the worker pool (HUD + pool.* metrics
        // observe it under the `serve` label).
        let specs: Vec<(u64, JobSpec)> = work
            .iter()
            .map(|(id, spec, _)| (*id, spec.clone()))
            .collect();
        let results = runner::parallel_map_labeled(
            "serve",
            specs,
            runner::default_workers(),
            |(job_id, spec)| {
                let t0 = Instant::now();
                let outcome = execute_spec(&spec);
                (job_id, spec, outcome, t0.elapsed().as_micros() as u64)
            },
        );

        for ((job_id, spec, outcome, elapsed_micros), (_, _, path)) in
            results.into_iter().zip(work.iter())
        {
            match outcome {
                Ok(metrics) => {
                    cat.append_event(CatalogRecord::completed(
                        job_id,
                        spec.clone(),
                        unix_now_secs(),
                        elapsed_micros,
                        metrics,
                    ))
                    .map_err(|e| format!("recording completion: {e}"))?;
                    notify::emit(&format!(
                        "serve: job {job_id} completed in {:.2}s ({})",
                        elapsed_micros as f64 / 1e6,
                        spec.display()
                    ));
                    summary.completed += 1;
                    registry.counter("queue.jobs.completed").inc();
                }
                Err(reason) => {
                    cat.append_event(CatalogRecord::failed(
                        job_id,
                        spec.clone(),
                        unix_now_secs(),
                        reason.clone(),
                    ))
                    .map_err(|e| format!("recording failure: {e}"))?;
                    notify::emit(&format!("serve: job {job_id} failed: {reason}"));
                    summary.failed += 1;
                    registry.counter("queue.jobs.failed").inc();
                }
            }
            // The terminal event is durable; only now may the spec file
            // disappear (the reverse order could lose the job entirely).
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poat_spool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn validate_normalizes_case_and_rejects_garbage() {
        let spec = validate_spec("ll:all", "pipelined", "quick").unwrap();
        assert_eq!(spec.workload, "LL:ALL");
        assert!(validate_spec("LL", "pipelined", "quick").is_err());
        assert!(validate_spec("LL:ALL", "warp", "quick").is_err());
        assert!(validate_spec("LL:ALL", "pipelined", "medium").is_err());
    }

    #[test]
    fn submit_then_read_roundtrips_and_orders() {
        let spool = temp_spool("roundtrip");
        let a = submit(
            &spool,
            &validate_spec("LL:ALL", "pipelined", "quick").unwrap(),
        )
        .unwrap();
        let b = submit(
            &spool,
            &validate_spec("BST:RANDOM", "ideal", "quick").unwrap(),
        )
        .unwrap();
        let pending = pending_specs(&spool).unwrap();
        assert_eq!(pending, vec![a.clone(), b.clone()]);
        assert_eq!(read_spec(&a).unwrap().workload, "LL:ALL");
        assert_eq!(read_spec(&b).unwrap().design, "ideal");
        // No temp files linger.
        let stray = std::fs::read_dir(pending_dir(&spool))
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!stray);
        std::fs::remove_dir_all(&spool).unwrap();
    }

    #[test]
    fn malformed_specs_read_as_errors() {
        let spool = temp_spool("malformed");
        let pending = pending_dir(&spool);
        std::fs::create_dir_all(&pending).unwrap();
        let bad = pending.join("job-0-bad.spec");
        std::fs::write(&bad, "workload=LL:ALL\nflavor=mint\n").unwrap();
        assert!(read_spec(&bad).unwrap_err().contains("unknown spec key"));
        std::fs::write(&bad, "workload LL:ALL\n").unwrap();
        assert!(read_spec(&bad).unwrap_err().contains("malformed"));
        std::fs::remove_dir_all(&spool).unwrap();
    }

    #[test]
    fn orphan_recovery_requeues_running_specs() {
        let spool = temp_spool("orphans");
        let spec = validate_spec("LL:ALL", "pipelined", "quick").unwrap();
        let path = submit(&spool, &spec).unwrap();
        // Simulate a crash mid-run: the spec was claimed but never
        // finished.
        let running = running_dir(&spool);
        std::fs::create_dir_all(&running).unwrap();
        let claimed = running.join(path.file_name().unwrap());
        std::fs::rename(&path, &claimed).unwrap();
        assert!(pending_specs(&spool).unwrap().is_empty());
        assert_eq!(recover_orphans(&spool).unwrap(), 1);
        assert_eq!(pending_specs(&spool).unwrap().len(), 1);
        assert!(running_specs(&spool).unwrap().is_empty());
        std::fs::remove_dir_all(&spool).unwrap();
    }

    #[test]
    fn serve_drains_submitted_jobs_into_the_catalog() {
        let spool = temp_spool("drain");
        let catalog = spool.join("catalog.poatcat");
        submit(
            &spool,
            &validate_spec("LL:ALL", "pipelined", "quick").unwrap(),
        )
        .unwrap();
        submit(&spool, &validate_spec("LL:ALL", "ideal", "quick").unwrap()).unwrap();
        // And one hand-written junk spec that must fail, not wedge.
        let junk = pending_dir(&spool).join("job-9-junk.spec");
        std::fs::write(
            &junk,
            "workload=NOPE:NEVER\ndesign=pipelined\nscale=quick\n",
        )
        .unwrap();
        let summary = serve(&ServeOptions {
            spool: spool.clone(),
            catalog: catalog.clone(),
            drain: true,
            ..ServeOptions::default()
        })
        .unwrap();
        assert_eq!(summary.claimed, 3);
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.failed, 1);
        assert!(pending_specs(&spool).unwrap().is_empty());
        assert!(running_specs(&spool).unwrap().is_empty());
        let cat = poat_ledger::catalog::open_file_read_only(&catalog).unwrap();
        let done: Vec<_> = cat
            .jobs()
            .filter(|j| j.status == poat_ledger::catalog::JobStatus::Completed)
            .collect();
        assert_eq!(done.len(), 2);
        for j in done {
            assert!(j.metrics.contains_key("sim.result.cycles"));
            assert!(j.elapsed_micros > 0);
        }
        std::fs::remove_dir_all(&spool).unwrap();
    }
}

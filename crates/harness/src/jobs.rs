// SPDX-License-Identifier: MIT OR Apache-2.0
//! `repro jobs` and `repro catalog query` — the observer side of serve
//! mode.
//!
//! Both commands open the catalog read-only
//! ([`poat_ledger::catalog::open_file_read_only`]): a serve process may be
//! appending concurrently, and an observer must never repair what could
//! be the writer's in-flight frame. A missing catalog reads as empty,
//! so the commands work before the first serve session too.

use std::path::Path;

use poat_ledger::catalog::{open_file_read_only, JobRow, JobStatus, QueryFilter};

use crate::report::TextTable;
use crate::serve;

fn row_cells(j: &JobRow, value: String) -> Vec<String> {
    vec![
        format!("{:06}", j.job_id),
        j.spec.workload.clone(),
        j.spec.design.clone(),
        j.spec.scale.clone(),
        j.status.label().to_string(),
        if j.finished_unix_secs > 0 {
            format!("{:.2}", j.elapsed_micros as f64 / 1e6)
        } else {
            "-".to_string()
        },
        value,
    ]
}

fn detail_cell(j: &JobRow, metric: Option<&str>) -> String {
    match metric {
        Some(name) => j
            .metrics
            .get(name)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string()),
        None => match j.status {
            JobStatus::Failed => j.error.clone(),
            JobStatus::Completed => format!("{} metrics", j.metrics.len()),
            JobStatus::Submitted => String::new(),
        },
    }
}

/// Renders `repro jobs`: the spool depth, every catalog job, and a
/// greppable one-line summary.
///
/// # Errors
///
/// Spool directory-read failures or catalog scan errors.
pub fn jobs_text(spool: &Path, catalog: &Path) -> Result<String, String> {
    let pending = serve::pending_specs(spool)
        .map_err(|e| format!("reading spool {}: {e}", spool.display()))?
        .len();
    let cat = open_file_read_only(catalog)
        .map_err(|e| format!("opening catalog {}: {e}", catalog.display()))?;
    let mut t = TextTable::new(
        &format!("Jobs ({})", catalog.display()),
        &[
            "Job",
            "Workload",
            "Design",
            "Scale",
            "Status",
            "Elapsed s",
            "Detail",
        ],
    );
    let (mut running, mut completed, mut failed) = (0usize, 0usize, 0usize);
    for j in cat.jobs() {
        match j.status {
            JobStatus::Submitted => running += 1,
            JobStatus::Completed => completed += 1,
            JobStatus::Failed => failed += 1,
        }
        t.row(row_cells(j, detail_cell(j, None)));
    }
    Ok(format!(
        "{}\n{pending} pending, {running} running, {completed} completed, {failed} failed",
        t.render()
    ))
}

/// Renders `repro catalog query`: catalog jobs matching `filter`, with
/// `metric`'s value per job when one was named, and a greppable match
/// count.
///
/// # Errors
///
/// Catalog open/scan errors.
pub fn query_text(
    catalog: &Path,
    filter: &QueryFilter,
    metric: Option<&str>,
) -> Result<String, String> {
    let cat = open_file_read_only(catalog)
        .map_err(|e| format!("opening catalog {}: {e}", catalog.display()))?;
    let rows = cat.query(filter);
    let detail_header = metric.unwrap_or("Detail");
    let mut t = TextTable::new(
        &format!("Catalog query ({})", catalog.display()),
        &[
            "Job",
            "Workload",
            "Design",
            "Scale",
            "Status",
            "Elapsed s",
            detail_header,
        ],
    );
    for j in &rows {
        t.row(row_cells(j, detail_cell(j, metric)));
    }
    Ok(format!("{}\n{} job(s) matched", t.render(), rows.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_ledger::catalog::{CatalogRecord, JobSpec};
    use std::collections::BTreeMap;

    fn spec(workload: &str, design: &str) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            design: design.into(),
            scale: "quick".into(),
        }
    }

    fn seeded_catalog(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("poat_jobs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = dir.join("catalog.poatcat");
        let mut cat = poat_ledger::catalog::open_file(&catalog).unwrap();
        let ll = spec("LL:ALL", "pipelined");
        let metrics = BTreeMap::from([("sim.result.cycles".to_string(), 4242)]);
        for ev in [
            CatalogRecord::submitted(1, ll.clone(), 100),
            CatalogRecord::completed(1, ll, 101, 1_500_000, metrics),
            CatalogRecord::submitted(2, spec("BST:RANDOM", "ideal"), 102),
        ] {
            cat.append_event(ev).unwrap();
        }
        (dir, catalog)
    }

    #[test]
    fn jobs_text_counts_every_state() {
        let (dir, catalog) = seeded_catalog("counts");
        let text = jobs_text(&dir.join("spool"), &catalog).unwrap();
        assert!(text.contains("0 pending, 1 running, 1 completed, 0 failed"));
        assert!(text.contains("000001"));
        assert!(text.contains("1 metrics"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_text_filters_and_projects_metrics() {
        let (dir, catalog) = seeded_catalog("query");
        let all = query_text(&catalog, &QueryFilter::default(), None).unwrap();
        assert!(all.contains("2 job(s) matched"));
        let cycles = query_text(
            &catalog,
            &QueryFilter {
                workload: Some("LL:ALL".into()),
                ..QueryFilter::default()
            },
            Some("sim.result.cycles"),
        )
        .unwrap();
        assert!(cycles.contains("1 job(s) matched"));
        assert!(cycles.contains("4242"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_catalog_and_spool_read_as_empty() {
        let dir = std::env::temp_dir().join(format!("poat_jobs_none_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let text = jobs_text(&dir.join("spool"), &dir.join("catalog.poatcat")).unwrap();
        assert!(text.contains("0 pending, 0 running, 0 completed, 0 failed"));
    }
}

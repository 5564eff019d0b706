// SPDX-License-Identifier: MIT OR Apache-2.0
//! Output-artifact naming, crash-safe writes, and comparison against a
//! committed copy.
//!
//! Artifacts (`results_full.json`, metrics snapshots) are written twice
//! per ledgered run: once under a run-id-suffixed name that no later
//! run will touch, and once under the plain "latest" name scripts rely
//! on. Both writes go through a temp-file + rename so a crash mid-write
//! can never leave a torn JSON file at either name — rename within a
//! directory is atomic on POSIX. The versioned copy is the durable
//! record: a failure writing it is an error, while a failure refreshing
//! the latest copy only warns (the data is already safe under the
//! versioned name).

use std::io::Write;
use std::path::Path;

use serde_json::Value;

use crate::notify;

/// `results_full.json` + `run000007` → `results_full-run000007.json`:
/// the per-run artifact name that stops successive runs clobbering each
/// other (the plain name stays as the "latest" copy for scripts).
pub fn with_run_id(path: &str, run_id: &str) -> String {
    let p = Path::new(path);
    match (
        p.file_stem().and_then(|s| s.to_str()),
        p.extension().and_then(|e| e.to_str()),
    ) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}-{run_id}.{ext}"))
            .display()
            .to_string(),
        _ => format!("{path}-{run_id}"),
    }
}

/// Writes `contents` to `path` via a temp file in the same directory
/// followed by a rename, so readers (and crash recovery) only ever see
/// the old bytes or the new bytes — never a torn prefix.
///
/// # Errors
///
/// Temp-file creation/write/sync or rename failures; the temp file is
/// removed on failure.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let write_result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_data()?;
        Ok(())
    })();
    if let Err(e) = write_result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes an output artifact under its run-id name (when the run was
/// ledgered) plus the plain "latest" name scripts rely on. A failure
/// refreshing the latest copy degrades to a warning, because the
/// versioned copy is already durable.
///
/// # Errors
///
/// The primary (versioned, or plain if unledgered) write's failure, as
/// `writing PATH: <os error>`.
pub fn write_artifact(
    what: &str,
    path: &str,
    run_id: Option<&str>,
    contents: &str,
) -> std::io::Result<()> {
    let primary = run_id.map_or_else(|| path.to_string(), |id| with_run_id(path, id));
    write_atomic(&primary, contents)
        .map_err(|e| std::io::Error::new(e.kind(), format!("writing {primary}: {e}")))?;
    if run_id.is_none() {
        notify::emit(&format!("{what} written to {path}"));
        return Ok(());
    }
    match write_atomic(path, contents) {
        Ok(()) => notify::emit(&format!(
            "{what} written to {primary} (latest copy: {path})"
        )),
        Err(e) => notify::emit(&format!(
            "{what} written to {primary}; warning: refreshing latest copy {path} failed: {e}"
        )),
    }
    Ok(())
}

/// The first place a fresh artifact differs from its committed copy, as
/// a path with both values (`main.fig9a[3 BST/RANDOM].pipelined:
/// committed 2.3, fresh 2.24`), or `None` when the two are equal.
///
/// Array elements are named by index plus their string fields (a row's
/// `bench`/`pattern`), so the path names the row that moved. Map keys
/// missing on either side, and arrays of different lengths, are
/// differences too.
pub fn first_difference(committed: &Value, fresh: &Value) -> Option<String> {
    difference_at("", committed, fresh)
}

fn difference_at(path: &str, committed: &Value, fresh: &Value) -> Option<String> {
    let key_path = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (committed, fresh) {
        (Value::Map(c), Value::Map(f)) => c
            .iter()
            .find_map(|(k, cv)| match fresh.get(k) {
                Some(fv) => difference_at(&key_path(k), cv, fv),
                None => Some(format!("{}: missing from the fresh output", key_path(k))),
            })
            .or_else(|| {
                f.iter()
                    .find(|(k, _)| committed.get(k).is_none())
                    .map(|(k, _)| format!("{}: not in the committed copy", key_path(k)))
            }),
        (Value::Seq(c), Value::Seq(f)) => c
            .iter()
            .zip(f)
            .enumerate()
            .find_map(|(i, (cv, fv))| {
                difference_at(&format!("{path}[{}]", row_name(i, cv)), cv, fv)
            })
            .or_else(|| {
                (c.len() != f.len())
                    .then(|| format!("{path}: {} entries committed, {} fresh", c.len(), f.len()))
            }),
        _ => (committed != fresh).then(|| {
            let show = |v: &Value| serde_json::to_string(v).unwrap_or_default();
            format!(
                "{path}: committed {}, fresh {}",
                show(committed),
                show(fresh)
            )
        }),
    }
}

/// `3` for a plain element, `3 BST/RANDOM` for a row carrying string
/// fields.
fn row_name(index: usize, row: &Value) -> String {
    let Value::Map(fields) = row else {
        return index.to_string();
    };
    let names: Vec<&str> = fields.iter().filter_map(|(_, v)| v.as_str()).collect();
    if names.is_empty() {
        index.to_string()
    } else {
        format!("{index} {}", names.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_lands_before_the_extension() {
        assert_eq!(
            with_run_id("results_full.json", "run000007"),
            "results_full-run000007.json"
        );
        assert_eq!(
            with_run_id("out/deep/results.json", "run000001"),
            "out/deep/results-run000001.json"
        );
    }

    #[test]
    fn extensionless_paths_get_a_plain_suffix() {
        assert_eq!(with_run_id("results", "run000002"), "results-run000002");
        assert_eq!(
            with_run_id("out/results", "run000002"),
            "out/results-run000002"
        );
    }

    #[test]
    fn dotfile_names_are_not_mistaken_for_extensions() {
        // `.gitignore`-style names have no stem/extension split; the id
        // is appended whole rather than producing `-run....gitignore`.
        assert_eq!(with_run_id(".spoolrc", "run000003"), ".spoolrc-run000003");
        // A dotted directory plus a real extension still splits right.
        assert_eq!(
            with_run_id(".poat/ledger.poatlgr", "run000004"),
            ".poat/ledger-run000004.poatlgr"
        );
    }

    #[test]
    fn atomic_write_replaces_contents_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("poat_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path_s = path.to_str().unwrap();
        write_atomic(path_s, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(path_s, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_into_missing_directory_fails_cleanly() {
        let path = std::env::temp_dir()
            .join(format!("poat_artifact_missing_{}", std::process::id()))
            .join("nope")
            .join("artifact.json");
        assert!(write_atomic(path.to_str().unwrap(), "x").is_err());
    }

    #[test]
    fn first_difference_names_the_row_and_both_values() {
        let rows = |last: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"main":{{"fig9a":[{{"bench":"LL","pattern":"ALL","pipelined":1.5}},
                    {{"bench":"BST","pattern":"RANDOM","pipelined":{last}}}]}},"seeds":[1,2]}}"#
            ))
            .unwrap()
        };
        let (committed, fresh) = (rows("2.3"), rows("2.24"));
        assert_eq!(first_difference(&committed, &committed), None);
        assert_eq!(
            first_difference(&committed, &fresh).as_deref(),
            Some("main.fig9a[1 BST/RANDOM].pipelined: committed 2.3, fresh 2.24")
        );
        let shorter: Value = serde_json::from_str(r#"{"main":{"fig9a":[]},"seeds":[1]}"#).unwrap();
        assert_eq!(
            first_difference(&committed, &shorter).as_deref(),
            Some("main.fig9a: 2 entries committed, 0 fresh")
        );
        let extra: Value = serde_json::from_str(r#"{"extra":0}"#).unwrap();
        assert_eq!(
            first_difference(&committed, &extra).as_deref(),
            Some("main: missing from the fresh output")
        );
        let empty: Value = serde_json::from_str("{}").unwrap();
        assert_eq!(
            first_difference(&empty, &extra).as_deref(),
            Some("extra: not in the committed copy")
        );
    }

    #[test]
    fn write_artifact_survives_an_unwritable_latest_copy() {
        let dir = std::env::temp_dir().join(format!("poat_artifact_lat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The "latest" path is a directory: rename over it fails, but the
        // versioned write already happened, so this must succeed.
        let latest = dir.join("results.json");
        std::fs::create_dir_all(&latest).unwrap();
        write_artifact("results", latest.to_str().unwrap(), Some("run000009"), "{}").unwrap();
        let versioned = dir.join("results-run000009.json");
        assert_eq!(std::fs::read_to_string(&versioned).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Golden test for every quick-scale artifact: `repro all --quick` must
//! reproduce the committed `results_quick.json` exactly.
//!
//! The file is `repro all --quick --no-ledger --json` with its
//! `manifest` key removed (the manifest carries wall-clock time and the
//! git revision). Every simulated number the quick suite prints is
//! pinned here, so a change that moves one must re-commit the file and
//! say why. On a mismatch the test names the first path that differs;
//! the fresh output, already stripped of its manifest, is left at
//! `target/tmp/results_quick.json` to copy over the committed file.

use std::path::Path;
use std::process::Command;

use poat_harness::artifact::first_difference;
use serde_json::Value;

fn parse(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn quick_artifacts_match_the_committed_golden() {
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_quick.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--quick", "--no-ledger", "--json"])
        .arg(&fresh_path)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut fresh = parse(&fresh_path);
    let Value::Map(artifacts) = &mut fresh else {
        panic!("repro --json wrote a non-object");
    };
    artifacts.retain(|(key, _)| key != "manifest");
    let pretty = serde_json::to_string_pretty(&fresh).expect("render fresh results");
    std::fs::write(&fresh_path, pretty).expect("write stripped fresh results");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results_quick.json");
    if let Some(diff) = first_difference(&parse(&golden_path), &fresh) {
        panic!(
            "quick results differ from results_quick.json at {diff}\n\
             fresh output: {} (copy it over results_quick.json to accept \
             the new numbers, and say why in the change log)",
            fresh_path.display()
        );
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! Self-check: the workspace this analyzer ships in must itself be
//! clean — the same gate CI enforces with `poat-analyze
//! --deny-warnings`, run in-process so `cargo test` catches violations
//! without the extra binary invocation.

use poat_analyzer::{all_rules, run, Workspace};
use std::path::Path;

#[test]
fn workspace_is_clean_under_all_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 40,
        "workspace walk looks wrong: only {} files",
        ws.files.len()
    );
    assert!(ws.file("crates/telemetry/src/events.rs").is_some());
    assert!(ws.file("docs/METRICS.md").is_some());

    let diags = run(&ws, &all_rules());
    assert!(
        diags.is_empty(),
        "workspace must be clean; run `cargo run -p poat-analyzer --bin poat-analyze` for details:\n{}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );
}

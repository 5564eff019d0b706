// SPDX-License-Identifier: MIT OR Apache-2.0
//! Golden-diagnostic tests: the seeded fixture must produce exactly the
//! expected findings, in text and JSON, and its compliant twin none.

use poat_analyzer::{all_rules, run, Severity, Workspace};

const FIXTURE: &str = include_str!("fixtures/seeded_violations.rs");

/// The fixture is analyzed under a hot-path pseudo-path so every
/// path-scoped rule applies.
const PSEUDO_PATH: &str = "crates/sim/src/seeded.rs";

/// (rule, line) pairs the fixture must produce — keep in sync with
/// `fixtures/seeded_violations.rs`.
const EXPECTED: &[(&str, u32)] = &[
    ("magic-latency", 7),
    ("magic-latency", 8),
    ("unsafe-without-safety", 13),
    ("unwrap-in-hot-path", 18),
    ("unwrap-in-hot-path", 19),
    ("no-println-in-libs", 25),
];

fn fixture_ws() -> Workspace {
    Workspace::from_sources(vec![(PSEUDO_PATH.to_string(), FIXTURE.to_string())])
}

#[test]
fn seeded_fixture_produces_exactly_the_expected_findings() {
    let diags = run(&fixture_ws(), &all_rules());
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(got, EXPECTED, "diagnostics:\n{:#?}", diags);
    for d in &diags {
        assert_eq!(d.file, PSEUDO_PATH);
        assert_eq!(d.severity, Severity::Error, "all six rules default to deny");
        // The canonical rendering is machine-parseable: path:line: sev[rule] msg.
        let r = d.render();
        assert!(
            r.starts_with(&format!("{PSEUDO_PATH}:{}: error[{}] ", d.line, d.rule)),
            "{r}"
        );
    }
}

#[test]
fn json_output_lists_every_finding() {
    let diags = run(&fixture_ws(), &all_rules());
    let json = poat_analyzer::diag::render_json(&diags);
    for (rule, line) in EXPECTED {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "missing {rule} in {json}"
        );
        assert!(
            json.contains(&format!("\"line\": {line}")),
            "missing line {line}"
        );
    }
    assert!(json.contains(&format!("\"errors\": {}", EXPECTED.len())));
}

#[test]
fn clean_equivalent_source_produces_no_findings() {
    // The same shapes as the fixture, written the compliant way.
    let clean = r#"
pub fn charge(state: &mut State, cfg: &SimConfig) {
    state.miss_penalty = cfg.miss_penalty_cycles();
    state.cycles += cfg.hit_latency_cycles();
}

// SAFETY: `ptr` is non-null and exclusively owned by the caller.
pub fn poke(ptr: *mut u64) {
    unsafe { *ptr = 1 };
}

pub fn poke_ok(ptr: *mut u64) -> Result<Slot, Error> {
    let slot = lookup(ptr).ok_or(Error::Missing)?;
    let fine = follow(slot).expect("invariant: inserted by charge() above");
    Ok(fine)
}
"#;
    let ws = Workspace::from_sources(vec![(PSEUDO_PATH.to_string(), clean.to_string())]);
    let diags = run(&ws, &all_rules());
    assert!(diags.is_empty(), "{diags:#?}");
}

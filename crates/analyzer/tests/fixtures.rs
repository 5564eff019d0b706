// SPDX-License-Identifier: MIT OR Apache-2.0
//! Table-driven fixture corpus: every rule R1–R10 has known-bad /
//! known-good snippet pairs under `tests/fixtures/`, and each case
//! asserts the exact diagnostics (file, line, message fragment) the
//! rule must produce. Scope/exemption behavior is exercised by running
//! the same fixture under different pseudo-paths.

use poat_analyzer::Workspace;
use poat_analyzer::{all_rules, Diagnostic};

struct Case {
    name: &'static str,
    rule: &'static str,
    /// (pseudo-path, fixture content) pairs forming the workspace.
    files: &'static [(&'static str, &'static str)],
    /// Expected (file, line, message fragment), sorted by (file, line).
    expected: &'static [(&'static str, u32, &'static str)],
}

const R1_BAD: &str = include_str!("fixtures/r1_magic_latency_bad.rs");
const R1_OK: &str = include_str!("fixtures/r1_magic_latency_ok.rs");
const R2_BAD: &str = include_str!("fixtures/r2_unsafe_bad.rs");
const R2_OK: &str = include_str!("fixtures/r2_unsafe_ok.rs");
const R3_BAD: &str = include_str!("fixtures/r3_unwrap_bad.rs");
const R3_OK: &str = include_str!("fixtures/r3_unwrap_ok.rs");
const R4_CODE: &str = include_str!("fixtures/r4_telemetry_code.rs");
const R4_MD_BAD: &str = include_str!("fixtures/r4_metrics_bad.md");
const R4_MD_OK: &str = include_str!("fixtures/r4_metrics_ok.md");
const R4_EVENTS: &str = include_str!("fixtures/r4_events.rs");
const R4_EMITTER: &str = include_str!("fixtures/r4_emitter.rs");
const R5_BAD: &str = include_str!("fixtures/r5_println_bad.rs");
const R6_BAD: &str = include_str!("fixtures/r6_hygiene_bad.rs");
const R6_OK: &str = include_str!("fixtures/r6_hygiene_ok.rs");
const R7_BAD: &str = include_str!("fixtures/r7_persist_bad.rs");
const R7_OK: &str = include_str!("fixtures/r7_persist_ok.rs");
const R8_BAD: &str = include_str!("fixtures/r8_faultpoint_bad.rs");
const R8_OK: &str = include_str!("fixtures/r8_faultpoint_ok.rs");
const R9_BAD: &str = include_str!("fixtures/r9_atomics_bad.rs");
const R9_OK: &str = include_str!("fixtures/r9_atomics_ok.rs");
const R10_BAD: &str = include_str!("fixtures/r10_shared_telemetry_bad.rs");
const R10_OK: &str = include_str!("fixtures/r10_shared_telemetry_ok.rs");

const SIM: &str = "crates/sim/src/fixture.rs";
const XLATE: &str = "crates/sim/src/xlate.rs";
const PMEM_RT: &str = "crates/pmem/src/runtime.rs";
const CORE: &str = "crates/core/src/fixture.rs";
const EVENTS: &str = "crates/telemetry/src/events.rs";
const CODEC: &str = "crates/ledger/src/codec.rs";
const CLI: &str = "crates/harness/src/main.rs";
const METRICS: &str = "docs/METRICS.md";

const CASES: &[Case] = &[
    // --- R1 magic-latency ---
    Case {
        name: "r1-bad",
        rule: "magic-latency",
        files: &[(SIM, R1_BAD)],
        expected: &[
            (
                SIM,
                3,
                "bare literal `30` assigned to cost-like `miss_penalty`",
            ),
            (SIM, 4, "bare literal `97` assigned to cost-like `cycles`"),
            (SIM, 5, "bare literal `17` passed to advance_cycle()"),
        ],
    },
    Case {
        name: "r1-ok",
        rule: "magic-latency",
        files: &[(SIM, R1_OK)],
        expected: &[],
    },
    Case {
        name: "r1-exempt-paths",
        rule: "magic-latency",
        // The same bad content is exempt in the cost model itself and
        // out of scope elsewhere.
        files: &[
            ("crates/pmem/src/costs.rs", R1_BAD),
            ("crates/harness/src/fixture.rs", R1_BAD),
        ],
        expected: &[],
    },
    // --- R2 unsafe-without-safety ---
    Case {
        name: "r2-bad",
        rule: "unsafe-without-safety",
        files: &[(SIM, R2_BAD)],
        expected: &[(SIM, 3, "`unsafe` without a `// SAFETY:` comment")],
    },
    Case {
        name: "r2-ok",
        rule: "unsafe-without-safety",
        files: &[(SIM, R2_OK)],
        expected: &[],
    },
    // --- R3 unwrap-in-hot-path ---
    Case {
        name: "r3-bad",
        rule: "unwrap-in-hot-path",
        files: &[(SIM, R3_BAD)],
        expected: &[(SIM, 3, "unwrap"), (SIM, 4, "expect")],
    },
    Case {
        name: "r3-ok",
        rule: "unwrap-in-hot-path",
        files: &[(SIM, R3_OK)],
        expected: &[],
    },
    Case {
        name: "r3-durable-log-decoder",
        rule: "unwrap-in-hot-path",
        files: &[(CODEC, R3_BAD)],
        expected: &[(CODEC, 3, "unwrap"), (CODEC, 4, "expect")],
    },
    Case {
        name: "r3-cli",
        rule: "unwrap-in-hot-path",
        files: &[(CLI, R3_BAD)],
        expected: &[(CLI, 3, "unwrap"), (CLI, 4, "expect")],
    },
    Case {
        name: "r3-out-of-scope",
        rule: "unwrap-in-hot-path",
        files: &[("crates/harness/src/fixture.rs", R3_BAD)],
        expected: &[],
    },
    // --- R4 telemetry-drift ---
    Case {
        name: "r4-metrics-bad",
        rule: "telemetry-drift",
        files: &[(CORE, R4_CODE), (METRICS, R4_MD_BAD)],
        expected: &[
            (
                CORE,
                5,
                "metric `core.polb.ghost` is emitted here but missing",
            ),
            (
                METRICS,
                4,
                "`core.polb.phantom` is documented in docs/METRICS.md but never emitted",
            ),
        ],
    },
    Case {
        name: "r4-metrics-ok",
        rule: "telemetry-drift",
        files: &[(CORE, R4_CODE), (METRICS, R4_MD_OK)],
        expected: &[],
    },
    Case {
        name: "r4-events-bad",
        rule: "telemetry-drift",
        files: &[(EVENTS, R4_EVENTS), (SIM, R4_EMITTER)],
        expected: &[(EVENTS, 4, "EventKind::PolbHit has no emission site")],
    },
    // --- R5 no-println-in-libs ---
    Case {
        name: "r5-bad",
        rule: "no-println-in-libs",
        files: &[("crates/x/src/lib.rs", R5_BAD)],
        expected: &[
            ("crates/x/src/lib.rs", 3, "`println!` in library code"),
            ("crates/x/src/lib.rs", 4, "`dbg!` in library code"),
        ],
    },
    Case {
        name: "r5-main-exempt",
        rule: "no-println-in-libs",
        files: &[("crates/x/src/main.rs", R5_BAD)],
        expected: &[],
    },
    // --- R6 doc-attr-hygiene ---
    Case {
        name: "r6-bad",
        rule: "doc-attr-hygiene",
        files: &[("crates/y/src/lib.rs", R6_BAD)],
        expected: &[
            ("crates/y/src/lib.rs", 1, "SPDX-License-Identifier"),
            ("crates/y/src/lib.rs", 1, "missing_docs"),
        ],
    },
    Case {
        name: "r6-ok-and-non-roots",
        rule: "doc-attr-hygiene",
        files: &[
            ("crates/x/src/lib.rs", R6_OK),
            ("crates/y/src/other.rs", R6_BAD),
        ],
        expected: &[],
    },
    // --- R7 persist-before-commit ---
    Case {
        name: "r7-bad",
        rule: "persist-before-commit",
        files: &[(PMEM_RT, R7_BAD)],
        expected: &[
            (PMEM_RT, 10, "may publish unpersisted write(s)"),
            (PMEM_RT, 16, "not persisted on some path to function exit"),
        ],
    },
    Case {
        name: "r7-ok",
        rule: "persist-before-commit",
        files: &[(PMEM_RT, R7_OK)],
        expected: &[],
    },
    Case {
        name: "r7-out-of-scope",
        rule: "persist-before-commit",
        files: &[(SIM, R7_BAD)],
        expected: &[],
    },
    // --- R8 faultpoint-coverage ---
    Case {
        name: "r8-bad",
        rule: "faultpoint-coverage",
        files: &[(PMEM_RT, R8_BAD)],
        expected: &[
            (PMEM_RT, 7, "no `// faultpoint:` annotation"),
            (PMEM_RT, 11, "never polls crash_pending"),
        ],
    },
    Case {
        name: "r8-ok",
        rule: "faultpoint-coverage",
        files: &[(PMEM_RT, R8_OK)],
        expected: &[],
    },
    // --- R9 ordered-atomics ---
    Case {
        name: "r9-bad",
        rule: "ordered-atomics",
        files: &[("crates/telemetry/src/ring.rs", R9_BAD)],
        expected: &[
            (
                "crates/telemetry/src/ring.rs",
                6,
                "Relaxed `store` on publication word `seq`",
            ),
            (
                "crates/telemetry/src/ring.rs",
                7,
                "unpaired Acquire on `head`",
            ),
        ],
    },
    Case {
        name: "r9-ok",
        rule: "ordered-atomics",
        files: &[("crates/telemetry/src/ring.rs", R9_OK)],
        expected: &[],
    },
    // --- R10 shared-telemetry-in-hot-path ---
    Case {
        name: "r10-bad",
        rule: "shared-telemetry-in-hot-path",
        files: &[(XLATE, R10_BAD)],
        expected: &[
            (XLATE, 3, "`Counter` in per-event code"),
            (XLATE, 4, "`Histogram` in per-event code"),
            (XLATE, 7, "`Instant` in per-event code"),
            (XLATE, 8, "`span_timer` in per-event code"),
            (XLATE, 9, "`span(..)` in translation-model code"),
            (XLATE, 10, "`counter(..)` without `.local()`"),
            (XLATE, 11, "`histogram(..)` without `.local()`"),
            (XLATE, 13, "`counter(..)` without `.local()`"),
        ],
    },
    Case {
        name: "r10-ok",
        rule: "shared-telemetry-in-hot-path",
        files: &[(XLATE, R10_OK)],
        expected: &[],
    },
    Case {
        name: "r10-scope",
        rule: "shared-telemetry-in-hot-path",
        // The device model is translation-model code; the rest of the
        // simulator is per-event code whose replay loops may still open
        // a per-replay span, but make no inline counter or histogram
        // call; the rest of the NVM crate and the harness are neither.
        files: &[
            ("crates/nvm/src/device.rs", R10_BAD),
            ("crates/sim/src/inorder.rs", R10_BAD),
            ("crates/nvm/src/memory.rs", R10_BAD),
            ("crates/harness/src/runner.rs", R10_BAD),
        ],
        expected: &[
            ("crates/nvm/src/device.rs", 3, "`Counter`"),
            ("crates/nvm/src/device.rs", 4, "`Histogram`"),
            ("crates/nvm/src/device.rs", 7, "`Instant`"),
            ("crates/nvm/src/device.rs", 8, "`span_timer`"),
            ("crates/nvm/src/device.rs", 9, "`span(..)`"),
            ("crates/nvm/src/device.rs", 10, "`counter(..)`"),
            ("crates/nvm/src/device.rs", 11, "`histogram(..)`"),
            ("crates/nvm/src/device.rs", 13, "`counter(..)`"),
            ("crates/sim/src/inorder.rs", 3, "`Counter`"),
            ("crates/sim/src/inorder.rs", 4, "`Histogram`"),
            ("crates/sim/src/inorder.rs", 7, "`Instant`"),
            ("crates/sim/src/inorder.rs", 8, "`span_timer`"),
            ("crates/sim/src/inorder.rs", 10, "`counter(..)`"),
            ("crates/sim/src/inorder.rs", 11, "`histogram(..)`"),
            ("crates/sim/src/inorder.rs", 13, "`counter(..)`"),
        ],
    },
];

fn run_case(case: &Case) -> Vec<Diagnostic> {
    let rule = all_rules()
        .into_iter()
        .find(|r| r.id() == case.rule)
        .unwrap_or_else(|| panic!("{}: unknown rule {}", case.name, case.rule));
    let ws = Workspace::from_sources(
        case.files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect(),
    );
    let mut out = Vec::new();
    rule.check(&ws, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[test]
fn every_fixture_case_produces_exactly_its_expected_diagnostics() {
    for case in CASES {
        let got = run_case(case);
        assert_eq!(
            got.len(),
            case.expected.len(),
            "{}: expected {} diagnostic(s), got:\n{:#?}",
            case.name,
            case.expected.len(),
            got
        );
        for (d, (file, line, fragment)) in got.iter().zip(case.expected) {
            assert_eq!(&d.file, file, "{}: wrong file:\n{d:#?}", case.name);
            assert_eq!(d.line, *line, "{}: wrong line:\n{d:#?}", case.name);
            assert_eq!(d.rule, case.rule, "{}: wrong rule:\n{d:#?}", case.name);
            assert!(
                d.message.contains(fragment),
                "{}: message `{}` does not contain `{fragment}`",
                case.name,
                d.message
            );
        }
    }
}

#[test]
fn r7_diagnostic_names_the_unpersisted_writes_path_level() {
    // The acceptance-criterion mutation: pool_create minus its
    // field-persist. The diagnostic must name each write left
    // unpersisted on the path, so the fix site is obvious.
    let case = CASES.iter().find(|c| c.name == "r7-bad").unwrap();
    let got = run_case(case);
    let commit = got.iter().find(|d| d.line == 10).unwrap();
    assert!(
        commit.message.contains("`write_u64_at` at line 8"),
        "{}",
        commit.message
    );
    assert!(
        commit.message.contains("`write_u64_at` at line 9"),
        "{}",
        commit.message
    );
    assert!(commit.message.contains("pool_create"), "{}", commit.message);
    let branch = got.iter().find(|d| d.line == 16).unwrap();
    assert!(branch.message.contains("branchy"), "{}", branch.message);
}

#[test]
fn every_rule_has_at_least_one_fixture_case() {
    for rule in all_rules() {
        assert!(
            CASES.iter().any(|c| c.rule == rule.id()),
            "rule {} has no fixture case",
            rule.id()
        );
    }
}

// SPDX-License-Identifier: MIT OR Apache-2.0
//! The ten repo-specific rules.
//!
//! Each rule is a token-stream walker over the [`Workspace`]; see
//! `docs/ANALYZER.md` for the paper rationale behind every rule and
//! the conventions (e.g. `invariant:`-prefixed `expect` messages) they
//! recognize.

use crate::diag::{Diagnostic, Severity};
use crate::engine::{SourceFile, Workspace};
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// A single analysis rule.
pub trait Rule {
    /// Stable rule id, used in diagnostics and by `--explain`.
    fn id(&self) -> &'static str;
    /// The severity every finding of this rule carries.
    fn default_severity(&self) -> Severity;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Paper rationale for `--explain <rule>`: why this invariant
    /// matters to the reproduction, in a few sentences.
    fn rationale(&self) -> &'static str;
    /// Appends findings for the whole workspace.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// The full rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(MagicLatency),
        Box::new(UnsafeWithoutSafety),
        Box::new(UnwrapInHotPath),
        Box::new(TelemetryDrift),
        Box::new(NoPrintlnInLibs),
        Box::new(DocAttrHygiene),
        Box::new(PersistBeforeCommit),
        Box::new(FaultpointCoverage),
        Box::new(OrderedAtomics),
        Box::new(SharedTelemetryInHotPath),
    ]
}

fn diag(
    rule: &'static str,
    sev: Severity,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: sev,
        file: file.path.clone(),
        line,
        message,
    }
}

// ---------------------------------------------------------------------------
// R1: magic-latency
// ---------------------------------------------------------------------------

/// R1: bare numeric literals in cycle/instruction cost positions.
///
/// The paper's cost model (17/97-instruction software path, 30/60-cycle
/// POT-walk penalties) lives in `crates/pmem/src/costs.rs` and the
/// config defaults in `*/config.rs`; everywhere else in `sim`, `core`
/// and `pmem`, a literal `> 1` flowing into a cost-named position means
/// the model has been bypassed.
pub struct MagicLatency;

/// Whether an identifier names a cost/latency-like quantity.
fn costy_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("cycle")
        || lower.contains("latency")
        || lower.contains("penalty")
        || lower.contains("cost")
        || lower.contains("instr")
        || lower.ends_with("_lat")
}

fn int_type_ident(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

impl Rule for MagicLatency {
    fn id(&self) -> &'static str {
        "magic-latency"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "bare numeric literal in a cycle/instruction cost position; use crates/pmem/src/costs.rs or the config"
    }
    fn rationale(&self) -> &'static str {
        "The paper's evaluation hinges on exact cost constants: the 17/97-instruction \
         software translation paths and the 30/60-cycle POT-walk penalties. Those live \
         in crates/pmem/src/costs.rs and the design configs; a bare literal charged \
         anywhere else silently forks the cost model and invalidates every figure that \
         compares designs."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            let in_scope = ["crates/sim/src/", "crates/core/src/", "crates/pmem/src/"]
                .iter()
                .any(|p| f.path.starts_with(p));
            let exempt = f.path.ends_with("/costs.rs") || f.path.ends_with("/config.rs");
            if !in_scope || exempt {
                continue;
            }
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || f.in_test(t.line) {
                    continue;
                }
                // Pattern A: advance_cycle(<literal>) — charging
                // hand-written extra cycles instead of model-derived
                // ones.
                if t.text == "advance_cycle" {
                    if let (Some(p), Some(arg)) = (toks.get(i + 1), toks.get(i + 2)) {
                        if p.is_punct('(') && arg.kind == TokKind::Int {
                            if magic_value(arg) {
                                out.push(diag(
                                    self.id(),
                                    self.default_severity(),
                                    f,
                                    arg.line,
                                    format!(
                                        "bare literal `{}` passed to advance_cycle(); derive the cost from crates/pmem/src/costs.rs or the SimConfig",
                                        arg.text
                                    ),
                                ));
                            }
                            continue;
                        }
                    }
                }
                if !costy_ident(&t.text) {
                    continue;
                }
                // Pattern B: `<cost ident> = <literal>` or
                // `<cost ident> += <literal>`.
                let rhs = match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
                    (Some(eq), Some(v), _)
                        if eq.is_punct('=')
                            && !matches!(toks.get(i + 2), Some(n) if n.is_punct('=')) =>
                    {
                        // Exclude `==` (the token after `=` being `=`)
                        // and `<=`/`>=`/`!=` (those have the other
                        // punct *before* `=`, so `eq` would not
                        // directly follow the ident).
                        if v.kind == TokKind::Int {
                            Some(v)
                        } else {
                            None
                        }
                    }
                    (Some(plus), Some(eq), Some(v))
                        if plus.is_punct('+') && eq.is_punct('=') && v.kind == TokKind::Int =>
                    {
                        Some(v)
                    }
                    _ => None,
                };
                // Pattern C: struct-literal / const positions —
                // `<cost ident>: <literal>` and
                // `<cost ident>: <int type> = <literal>`.
                let rhs = rhs.or_else(|| match (toks.get(i + 1), toks.get(i + 2)) {
                    (Some(c), Some(v))
                        if c.is_punct(':')
                            && !matches!(toks.get(i + 2), Some(n) if n.is_punct(':'))
                            && v.kind == TokKind::Int =>
                    {
                        Some(v)
                    }
                    (Some(c), Some(ty))
                        if c.is_punct(':')
                            && ty.kind == TokKind::Ident
                            && int_type_ident(&ty.text) =>
                    {
                        match (toks.get(i + 3), toks.get(i + 4)) {
                            (Some(eq), Some(v)) if eq.is_punct('=') && v.kind == TokKind::Int => {
                                Some(v)
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                });
                if let Some(v) = rhs {
                    if magic_value(v) {
                        out.push(diag(
                            self.id(),
                            self.default_severity(),
                            f,
                            v.line,
                            format!(
                                "bare literal `{}` assigned to cost-like `{}`; hoist it into crates/pmem/src/costs.rs or the config",
                                v.text, t.text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `0` and `1` are structural (reset, unit step); anything larger in a
/// cost position is a modeling decision that belongs in the cost model.
fn magic_value(t: &Tok) -> bool {
    t.int_value.map(|v| v > 1).unwrap_or(true)
}

// ---------------------------------------------------------------------------
// R2: unsafe-without-safety
// ---------------------------------------------------------------------------

/// R2: every `unsafe` keyword must be preceded by a `// SAFETY:`
/// comment within the three lines above it (or on the same line).
pub struct UnsafeWithoutSafety;

impl Rule for UnsafeWithoutSafety {
    fn id(&self) -> &'static str {
        "unsafe-without-safety"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "`unsafe` block/fn/impl without a preceding `// SAFETY:` comment"
    }
    fn rationale(&self) -> &'static str {
        "The simulator models persistent memory, where a soundness bug does not just \
         crash — it fabricates translation results and corrupts the very state whose \
         durability we are measuring. Every `unsafe` must carry a `// SAFETY:` comment \
         stating the invariant that makes it sound, so reviews and future edits have \
         the proof obligation in front of them."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            for t in &f.lexed.tokens {
                if !t.is_ident("unsafe") {
                    continue;
                }
                let lo = t.line.saturating_sub(3);
                let justified = f.lexed.comments.iter().any(|c| {
                    c.line_end >= lo && c.line_end <= t.line && c.text.contains("SAFETY:")
                });
                if !justified {
                    out.push(diag(
                        self.id(),
                        self.default_severity(),
                        f,
                        t.line,
                        "`unsafe` without a `// SAFETY:` comment justifying soundness".into(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R3: unwrap-in-hot-path
// ---------------------------------------------------------------------------

/// R3: `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!`
/// forbidden in hot-path library code. An `expect` whose message starts
/// with `invariant: ` is exempt — it documents a structural invariant
/// rather than papering over an error path. Test regions are exempt.
pub struct UnwrapInHotPath;

/// The hot-path scope: the whole simulator plus the POLB/POT hardware
/// models and the software-translation path — and the code that reads
/// external input and must fail with typed errors: the ledger's decode
/// paths (codec, record payload, the frame scan) and the `repro` CLI.
fn hot_path(path: &str) -> bool {
    path.starts_with("crates/sim/src/")
        || [
            "crates/core/src/polb.rs",
            "crates/core/src/pot.rs",
            "crates/pmem/src/translate.rs",
            "crates/ledger/src/codec.rs",
            "crates/ledger/src/record.rs",
            "crates/ledger/src/lib.rs",
            "crates/harness/src/main.rs",
        ]
        .contains(&path)
}

impl Rule for UnwrapInHotPath {
    fn id(&self) -> &'static str {
        "unwrap-in-hot-path"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "unwrap()/expect()/panic! in hot-path library code (sim, core::polb, core::pot, pmem::translate), the ledger decoders and the repro CLI"
    }
    fn rationale(&self) -> &'static str {
        "The hot path (simulator loop, POLB/POT hardware models, software translation) \
         executes per memory access; a panic there aborts a multi-minute run and loses \
         the telemetry that would explain it. The ledger decoders and the repro CLI read \
         external input, where a crafted byte or a bad path must be a typed error. Errors \
         must propagate as values. \
         `expect(\"invariant: ...\")` is exempt because it documents a structural \
         invariant whose violation is a bug, not an error path."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            if !hot_path(&f.path) {
                continue;
            }
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || f.in_test(t.line) {
                    continue;
                }
                let preceded_by_dot = i > 0 && toks[i - 1].is_punct('.');
                let followed_by_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let followed_by_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                match t.text.as_str() {
                    "unwrap" if preceded_by_dot && followed_by_paren => {
                        out.push(diag(
                            self.id(),
                            self.default_severity(),
                            f,
                            t.line,
                            "`.unwrap()` on a hot path; return a typed error or use `.expect(\"invariant: …\")`"
                                .into(),
                        ));
                    }
                    "expect" if preceded_by_dot && followed_by_paren => {
                        let msg = toks.get(i + 2);
                        let documented = msg.is_some_and(|m| {
                            m.kind == TokKind::Str && m.text.starts_with("invariant:")
                        });
                        if !documented {
                            out.push(diag(
                                self.id(),
                                self.default_severity(),
                                f,
                                t.line,
                                "`.expect()` on a hot path without an `invariant: …` message documenting why it cannot fail"
                                    .into(),
                            ));
                        }
                    }
                    "panic" | "todo" | "unimplemented" if followed_by_bang => {
                        out.push(diag(
                            self.id(),
                            self.default_severity(),
                            f,
                            t.line,
                            format!(
                                "`{}!` in hot-path library code; return a typed error instead",
                                t.text
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4: telemetry-drift
// ---------------------------------------------------------------------------

/// R4: telemetry declarations, emission sites, and `docs/METRICS.md`
/// must agree.
///
/// Three checks:
/// 1. every `EventKind` variant declared in
///    `crates/telemetry/src/events.rs` is emitted somewhere outside the
///    telemetry crate (dead variants are modeling debt);
/// 2. every metric name in `docs/METRICS.md` exists in code;
/// 3. every metric name in code is documented in `docs/METRICS.md`.
///
/// "Metric name in code" means a string literal of shape
/// `seg.seg.seg…` (≥ 3 lowercase segments) in non-test library code,
/// plus the `span.<phase>.nanos`/`.count` pairs synthesized from the
/// `PHASE_*` constants. Docs names may use `<placeholder>` segments,
/// which match any single segment.
pub struct TelemetryDrift;

const EVENTS_PATH: &str = "crates/telemetry/src/events.rs";
const METRICS_DOC: &str = "docs/METRICS.md";

impl Rule for TelemetryDrift {
    fn id(&self) -> &'static str {
        "telemetry-drift"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "EventKind variants without emission sites, or docs/METRICS.md out of sync with the code"
    }
    fn rationale(&self) -> &'static str {
        "Every figure reproduction is read off the telemetry layer, so the event and \
         metric catalogue is part of the experiment's interface. An EventKind nobody \
         emits, or a metric name the code publishes but docs/METRICS.md does not list \
         (or vice versa), means the observability contract has drifted and downstream \
         analysis scripts are reading stale names."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        self.check_event_kinds(ws, out);
        self.check_metric_names(ws, out);
    }
}

impl TelemetryDrift {
    fn check_event_kinds(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(events) = ws.file(EVENTS_PATH) else {
            return;
        };
        let variants = parse_enum_variants(events, "EventKind");
        for (variant, decl_line) in &variants {
            let emitted = ws.rust_files().any(|f| {
                !f.path.starts_with("crates/telemetry/src/")
                    && f.lexed
                        .tokens
                        .iter()
                        .any(|t| t.is_ident(variant) && !f.in_test(t.line))
            });
            if !emitted {
                out.push(diag(
                    self.id(),
                    self.default_severity(),
                    events,
                    *decl_line,
                    format!(
                        "EventKind::{variant} has no emission site outside the telemetry crate; emit it or remove the variant"
                    ),
                ));
            }
        }
    }

    fn check_metric_names(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(doc) = ws.file(METRICS_DOC) else {
            return;
        };
        // Code side: metric-shaped string literals in non-test library
        // code, with their first occurrence location.
        let mut code: BTreeMap<String, (String, u32)> = BTreeMap::new();
        for f in ws.rust_files() {
            for t in &f.lexed.tokens {
                if t.kind == TokKind::Str && !f.in_test(t.line) && metric_shape(&t.text) {
                    code.entry(t.text.clone())
                        .or_insert_with(|| (f.path.clone(), t.line));
                }
            }
        }
        // Span metrics are built with format!("span.{phase}.nanos"),
        // so synthesize them from the PHASE_* constants.
        if let Some(lib) = ws.file("crates/telemetry/src/lib.rs") {
            let toks = &lib.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind == TokKind::Ident && t.text.starts_with("PHASE_") && !lib.in_test(t.line)
                {
                    // `pub const PHASE_X: &str = "phase";` — find the
                    // string within the next few tokens.
                    if let Some(s) = toks[i + 1..]
                        .iter()
                        .take(6)
                        .find(|n| n.kind == TokKind::Str)
                    {
                        for suffix in ["nanos", "count"] {
                            code.entry(format!("span.{}.{}", s.text, suffix))
                                .or_insert_with(|| (lib.path.clone(), t.line));
                        }
                    }
                }
            }
        }
        // Docs side: backticked names outside fenced code blocks.
        let docs = doc_metric_names(&doc.text);
        // Direction 1: every docs name exists in code.
        for (name, line) in &docs {
            let matched = code.keys().any(|c| doc_name_matches(name, c));
            if !matched {
                out.push(diag(
                    self.id(),
                    self.default_severity(),
                    doc,
                    *line,
                    format!(
                        "`{name}` is documented in docs/METRICS.md but never emitted by the code"
                    ),
                ));
            }
        }
        // Direction 2: every code name is documented.
        for (name, (path, line)) in &code {
            let documented = docs.iter().any(|(d, _)| doc_name_matches(d, name));
            if !documented {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: self.default_severity(),
                    file: path.clone(),
                    line: *line,
                    message: format!(
                        "metric `{name}` is emitted here but missing from docs/METRICS.md"
                    ),
                });
            }
        }
    }
}

/// Parses the unit variants of `enum <name>` from a file's token
/// stream. Returns `(variant, line)` pairs. Handles doc comments
/// (not tokens), attributes, and explicit discriminants (`= N`).
fn parse_enum_variants(f: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            // Find the `{`.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            j += 1;
            let mut depth = 1usize;
            let mut expect_variant = true;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct('{') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') {
                    depth -= 1;
                } else if depth == 1 {
                    if t.is_punct('#') {
                        // Skip the attribute `[…]`.
                        let mut adepth = 0usize;
                        j += 1;
                        while j < toks.len() {
                            if toks[j].is_punct('[') {
                                adepth += 1;
                            } else if toks[j].is_punct(']') {
                                adepth -= 1;
                                if adepth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if expect_variant && t.kind == TokKind::Ident {
                        out.push((t.text.clone(), t.line));
                        expect_variant = false;
                    } else if t.is_punct(',') {
                        expect_variant = true;
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    out
}

/// Whether a string literal looks like a metric name: at least three
/// dot-separated segments of `[a-z0-9_]+`.
fn metric_shape(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 3
        && segs.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Extracts metric names from `docs/METRICS.md`: inline backticked
/// spans outside fenced code blocks, with `{…}` label suffixes
/// stripped. Names containing `*` or other non-name characters are
/// ignored (prose globs); `<placeholder>` segments are kept for
/// wildcard matching.
fn doc_metric_names(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(len) = after.find('`') else {
                break;
            };
            let span = &after[..len];
            rest = &after[len + 1..];
            // Strip a `{…}` label suffix (both `{…}` and `{k=v,…}`).
            let name = match span.find('{') {
                Some(b) if span.ends_with('}') => &span[..b],
                Some(_) => continue, // unbalanced braces — prose
                None => span,
            };
            if doc_name_shape(name) && seen.insert(name.to_string()) {
                out.push((name.to_string(), idx as u32 + 1));
            }
        }
    }
    out
}

/// Docs-side name shape: ≥ 3 segments, each `[a-z0-9_]+` or a
/// `<placeholder>`.
fn doc_name_shape(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 3
        && segs.iter().all(|seg| {
            (seg.starts_with('<') && seg.ends_with('>') && seg.len() > 2)
                || (!seg.is_empty()
                    && seg
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        })
}

/// Whether a docs name (possibly with `<placeholder>` segments) matches
/// a concrete code name.
fn doc_name_matches(doc: &str, code: &str) -> bool {
    let d: Vec<&str> = doc.split('.').collect();
    let c: Vec<&str> = code.split('.').collect();
    d.len() == c.len()
        && d.iter()
            .zip(&c)
            .all(|(ds, cs)| (ds.starts_with('<') && ds.ends_with('>')) || ds == cs)
}

// ---------------------------------------------------------------------------
// R5: no-println-in-libs
// ---------------------------------------------------------------------------

/// R5: library code must not print; output goes through the telemetry
/// registry or the harness report layer. Binary roots (`main.rs`,
/// `src/bin/`) and test regions are exempt.
pub struct NoPrintlnInLibs;

impl Rule for NoPrintlnInLibs {
    fn id(&self) -> &'static str {
        "no-println-in-libs"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "println!/eprintln!/dbg! in library code; route output through telemetry or the report layer"
    }
    fn rationale(&self) -> &'static str {
        "Library crates feed the harness, whose stdout is machine-parsed (--json, CSV, \
         report tables). A stray println! in a library interleaves with that output and \
         corrupts it; diagnostics belong in the telemetry registry or in returned \
         values the binary layer chooses how to render."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            let is_bin = f.path.ends_with("/main.rs") || f.path.contains("/src/bin/");
            if is_bin {
                continue;
            }
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || f.in_test(t.line) {
                    continue;
                }
                let is_print_macro = matches!(
                    t.text.as_str(),
                    "println" | "print" | "eprintln" | "eprint" | "dbg"
                );
                if is_print_macro && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    out.push(diag(
                        self.id(),
                        self.default_severity(),
                        f,
                        t.line,
                        format!(
                            "`{}!` in library code; use the telemetry registry or return the text to the caller",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R6: doc-attr-hygiene
// ---------------------------------------------------------------------------

/// R6: crate hygiene. Every `lib.rs` crate root carries
/// `#![warn(missing_docs)]` (or stricter), and every crate root —
/// `lib.rs` and `main.rs` alike — starts with an SPDX license header
/// within its first five lines.
pub struct DocAttrHygiene;

fn is_crate_root(path: &str) -> Option<bool> {
    // Returns Some(is_lib) for crate roots, None otherwise.
    let lib =
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
    let bin =
        (path.starts_with("crates/") && path.ends_with("/src/main.rs")) || path == "src/main.rs";
    if lib {
        Some(true)
    } else if bin {
        Some(false)
    } else {
        None
    }
}

impl Rule for DocAttrHygiene {
    fn id(&self) -> &'static str {
        "doc-attr-hygiene"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "crate root missing #![warn(missing_docs)] or the SPDX license header"
    }
    fn rationale(&self) -> &'static str {
        "The repo is a reference reproduction: its public items are read as \
         documentation of the paper's mechanisms. #![warn(missing_docs)] on every \
         crate root keeps `cargo doc -D warnings` meaningful, and the SPDX header \
         keeps licensing auditable file-by-file."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            let Some(is_lib) = is_crate_root(&f.path) else {
                continue;
            };
            let has_spdx = f
                .lexed
                .comments
                .iter()
                .any(|c| c.line_start <= 5 && c.text.contains("SPDX-License-Identifier:"));
            if !has_spdx {
                out.push(diag(
                    self.id(),
                    self.default_severity(),
                    f,
                    1,
                    "crate root missing an `// SPDX-License-Identifier:` header in its first 5 lines"
                        .into(),
                ));
            }
            if is_lib && !has_missing_docs_lint(f) {
                out.push(diag(
                    self.id(),
                    self.default_severity(),
                    f,
                    1,
                    "library crate root missing `#![warn(missing_docs)]` (or deny/forbid)".into(),
                ));
            }
        }
    }
}

/// Scans for an inner attribute `#![warn|deny|forbid(… missing_docs …)]`.
fn has_missing_docs_lint(f: &SourceFile) -> bool {
    let toks = &f.lexed.tokens;
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct('#') && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('[') {
            let mut depth = 1usize;
            let mut j = i + 3;
            let mut level_ok = false;
            let mut has_lint = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if matches!(toks[j].text.as_str(), "warn" | "deny" | "forbid") {
                    level_ok = true;
                } else if toks[j].is_ident("missing_docs") {
                    has_lint = true;
                }
                j += 1;
            }
            if level_ok && has_lint {
                return true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R7: persist-before-commit (flow-sensitive)
// ---------------------------------------------------------------------------

/// The files whose writes land on (simulated) persistent media and are
/// therefore subject to the persist-ordering discipline: the pmem
/// runtime/undo-log/pool layers and the ledger's pmem medium.
const PERSIST_SCOPE: [&str; 4] = [
    "crates/pmem/src/runtime.rs",
    "crates/pmem/src/log.rs",
    "crates/pmem/src/pool.rs",
    "crates/ledger/src/medium.rs",
];

/// Callees that flush-and-fence: after one of these, previously issued
/// writes are durable.
const PERSIST_CALLEES: [&str; 6] = [
    "persist_lines",
    "raw_persist",
    "raw_persist_direct",
    "persist_at",
    "persist",
    "sync_data",
];

/// Callees that store to persistent media.
const WRITE_CALLEES: [&str; 5] = [
    "write_u64_at",
    "write_bytes_at",
    "write_u64",
    "write",
    "write_all",
];

/// Argument markers that make a write a *commit/publish* operation:
/// the pool MAGIC word, the undo-log STATUS word, and the ledger
/// tail word. Writing one of these makes earlier writes reachable
/// after a crash, so everything they cover must already be persisted.
const COMMIT_MARKERS: [&str; 3] = ["MAGIC", "STATUS", "TAIL_WORD_OFF"];

/// How one call event participates in the persist-ordering discipline.
#[derive(Clone, Copy, PartialEq)]
enum PersistEvent {
    /// Flush + fence: everything issued before is now durable.
    Persist,
    /// A plain store to persistent media.
    DataWrite,
    /// A store that commits/publishes (MAGIC/STATUS/tail word) — it
    /// must itself be persisted before function exit.
    CommitWrite,
    /// `set_tail(..)`: the ledger's commit helper, which persists the
    /// tail word internally. Checked as a commit point for the caller's
    /// pending writes but adds no obligation of its own.
    SelfPersistingCommit,
    /// Not interesting to this rule.
    Other,
}

fn classify_persist_event(ev: &crate::ir::CallEvent) -> PersistEvent {
    let c = ev.callee.as_str();
    if PERSIST_CALLEES.contains(&c) {
        return PersistEvent::Persist;
    }
    if c == "set_tail" {
        return PersistEvent::SelfPersistingCommit;
    }
    if WRITE_CALLEES.contains(&c) {
        if ev.args.iter().any(|a| COMMIT_MARKERS.contains(&a.as_str())) {
            return PersistEvent::CommitWrite;
        }
        return PersistEvent::DataWrite;
    }
    PersistEvent::Other
}

/// Dataflow state for R7: the writes that may still be sitting in the
/// cache (not yet covered by a flush+fence) along some path.
#[derive(Clone, PartialEq, Default)]
struct PersistState {
    /// Unpersisted plain writes: (line, callee).
    pending_data: BTreeSet<(u32, String)>,
    /// Unpersisted commit writes: (line, callee).
    pending_commit: BTreeSet<(u32, String)>,
}

struct PersistFlow;

impl crate::dataflow::Flow for PersistFlow {
    type State = PersistState;

    fn entry_state(&self) -> PersistState {
        PersistState::default()
    }

    fn transfer(&self, ev: &crate::ir::CallEvent, state: &mut PersistState) {
        match classify_persist_event(ev) {
            PersistEvent::Persist => {
                state.pending_data.clear();
                state.pending_commit.clear();
            }
            PersistEvent::DataWrite => {
                state.pending_data.insert((ev.line, ev.callee.clone()));
            }
            PersistEvent::CommitWrite => {
                state.pending_commit.insert((ev.line, ev.callee.clone()));
            }
            PersistEvent::SelfPersistingCommit | PersistEvent::Other => {}
        }
    }

    fn join(&self, into: &mut PersistState, from: &PersistState) -> bool {
        let before = (into.pending_data.len(), into.pending_commit.len());
        into.pending_data.extend(from.pending_data.iter().cloned());
        into.pending_commit
            .extend(from.pending_commit.iter().cloned());
        (into.pending_data.len(), into.pending_commit.len()) != before
    }
}

/// R7: flow-sensitive persist-before-commit.
///
/// Along **every** path through the pmem/ledger persistence layers, a
/// write to persistent media must be covered by a flush+fence
/// (`persist_lines` / `raw_persist*` / `persist_at` / `persist` /
/// `sync_data`) before any commit/publish write (pool `MAGIC`, log
/// `STATUS`, ledger tail word) makes it reachable, and every commit
/// write must itself be persisted before the function exits. This is
/// the static form of the bug class the PR-4 crash-point sweep found
/// dynamically (six instances).
pub struct PersistBeforeCommit;

impl Rule for PersistBeforeCommit {
    fn id(&self) -> &'static str {
        "persist-before-commit"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a path exists where a persistent-media write reaches a commit/publish (or function exit) without persist"
    }
    fn rationale(&self) -> &'static str {
        "Crash consistency is an ordering property: a commit write (pool MAGIC, log \
         STATUS, ledger tail word) makes earlier writes reachable after a crash, so \
         those writes must be clwb+fenced first, and the commit itself must be \
         persisted before the function returns success. PR 4's dynamic crash-point \
         sweep found six bugs of exactly this class; this rule re-derives them \
         statically over a per-function CFG so the class cannot regress between \
         sweeps."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        use crate::dataflow::solve;
        for f in ws.rust_files() {
            if !PERSIST_SCOPE.contains(&f.path.as_str()) {
                continue;
            }
            for func in crate::ir::functions(&f.lexed.tokens) {
                if f.in_test(func.line) {
                    continue;
                }
                let cfg = crate::cfg::Cfg::build(&func);
                let entry_states = solve(&cfg, &PersistFlow);
                let mut reported: BTreeSet<(u32, String)> = BTreeSet::new();
                // Re-walk each reachable block with its solved entry
                // state to report commits that may see unpersisted
                // writes, at the exact commit line.
                for (b, entry) in entry_states.iter().enumerate() {
                    let Some(entry) = entry else { continue };
                    let mut state = entry.clone();
                    for ev in &cfg.blocks[b].events {
                        let kind = classify_persist_event(ev);
                        if matches!(
                            kind,
                            PersistEvent::CommitWrite | PersistEvent::SelfPersistingCommit
                        ) && !state.pending_data.is_empty()
                        {
                            let pending: Vec<String> = state
                                .pending_data
                                .iter()
                                .map(|(l, c)| format!("`{c}` at line {l}"))
                                .collect();
                            let msg = format!(
                                "commit via `{}` in fn `{}` may publish unpersisted write(s): {} — \
                                 persist them (clwb+fence) before the commit",
                                ev.callee,
                                func.name,
                                pending.join(", ")
                            );
                            if reported.insert((ev.line, msg.clone())) {
                                out.push(diag(self.id(), self.default_severity(), f, ev.line, msg));
                            }
                        }
                        crate::dataflow::Flow::transfer(&PersistFlow, ev, &mut state);
                    }
                }
                // Commit writes still pending at function exit were
                // never themselves persisted on some path.
                if let Some(exit_state) = &entry_states[cfg.exit] {
                    for (line, callee) in &exit_state.pending_commit {
                        let msg = format!(
                            "commit write `{callee}` in fn `{}` is not persisted on some path to \
                             function exit — add a persist before returning",
                            func.name
                        );
                        if reported.insert((*line, msg.clone())) {
                            out.push(diag(self.id(), self.default_severity(), f, *line, msg));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R8: faultpoint-coverage
// ---------------------------------------------------------------------------

/// R8: every persist boundary in the pmem/ledger layers must be
/// reachable by the dynamic crash-point sweep.
///
/// Two facets: (a) any function that issues `clwb`/`fence` itself must
/// poll `crash_pending` (the sweep's injection hook) so a crash can be
/// simulated at that boundary; (b) every *call site* of the persist
/// family outside the family's own bodies must carry a
/// `// faultpoint: <justification>` comment within the two preceding
/// lines, tying the site to the sweep that covers it.
pub struct FaultpointCoverage;

/// Persist-family callees whose *call sites* must be annotated.
/// `sync_data` is excluded: file media flush through the OS and cannot
/// be fault-injected by the in-process sweep.
const FAULTPOINT_CALLEES: [&str; 5] = [
    "persist_lines",
    "raw_persist",
    "raw_persist_direct",
    "persist_at",
    "persist",
];

impl Rule for FaultpointCoverage {
    fn id(&self) -> &'static str {
        "faultpoint-coverage"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "persist boundary without a faultpoint: missing crash_pending poll or un-annotated persist call site"
    }
    fn rationale(&self) -> &'static str {
        "The crash-point sweep can only prove recovery at boundaries it can crash at. \
         A flush/fence path that never polls crash_pending is invisible to the sweep, \
         and a persist call site without a `// faultpoint:` annotation has no recorded \
         owner among the sweeps — both let dynamic coverage rot silently as the \
         persistence layer grows. Pangolin's lesson (PAPERS.md): fault-tolerance \
         guarantees are only as strong as the checking that enforces them."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            if !PERSIST_SCOPE.contains(&f.path.as_str()) {
                continue;
            }
            for func in crate::ir::functions(&f.lexed.tokens) {
                if f.in_test(func.line) {
                    continue;
                }
                let events = func.all_events();
                let is_family = FAULTPOINT_CALLEES.contains(&func.name.as_str());
                // Facet (a): flush/fence issuers must poll the
                // injection hook.
                let issues_flush = events
                    .iter()
                    .any(|e| e.callee == "clwb" || e.callee == "fence");
                let polls = events.iter().any(|e| e.callee == "crash_pending");
                if issues_flush && !polls {
                    out.push(diag(
                        self.id(),
                        self.default_severity(),
                        f,
                        func.line,
                        format!(
                            "fn `{}` issues clwb/fence but never polls crash_pending — the \
                             crash-point sweep cannot inject at this persist boundary",
                            func.name
                        ),
                    ));
                }
                if is_family {
                    continue; // family bodies delegate inward; call sites are the annotation points
                }
                // Facet (b): persist call sites carry a faultpoint
                // annotation within the two preceding lines.
                for ev in &events {
                    if !FAULTPOINT_CALLEES.contains(&ev.callee.as_str()) || f.in_test(ev.line) {
                        continue;
                    }
                    let lo = ev.line.saturating_sub(2);
                    let annotated = f.lexed.comments.iter().any(|c| {
                        c.line_end >= lo
                            && c.line_end <= ev.line
                            && c.text
                                .split_once("faultpoint:")
                                .is_some_and(|(_, tail)| !tail.trim().is_empty())
                    });
                    if !annotated {
                        out.push(diag(
                            self.id(),
                            self.default_severity(),
                            f,
                            ev.line,
                            format!(
                                "persist call `{}` in fn `{}` has no `// faultpoint:` annotation \
                                 naming the sweep that covers it",
                                ev.callee, func.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R9: ordered-atomics
// ---------------------------------------------------------------------------

/// R9: publication atomics must pair Release with Acquire.
///
/// For every atomic variable (grouped per file by receiver identifier),
/// the rule classifies its operations: a variable with both an
/// acquire-side (Acquire/SeqCst load or acquiring RMW) and a
/// release-side (Release/SeqCst store or releasing RMW) is a
/// *publication word* — `Relaxed` operations on it are flagged, because
/// a single relaxed access breaks the happens-before edge the seqlock
/// protocol needs. A variable with only one side is flagged as an
/// unpaired acquire/release: the fence it implies synchronizes with
/// nothing and either hides a missing store or taxes the hot path for
/// no ordering benefit.
pub struct OrderedAtomics;

const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation on a receiver.
struct AtomicOp {
    method: String,
    orderings: Vec<String>,
    line: u32,
}

/// Walks back from the `.` before a method call to the receiver
/// identifier, skipping over one `[index]` expression (e.g.
/// `self.buckets[i].fetch_add(..)` → `buckets`). Returns `None` when
/// the receiver is not attributable to a simple name.
fn receiver_ident(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut i = dot - 1;
    if toks[i].is_punct(']') {
        let mut depth = 1usize;
        while i > 0 {
            i -= 1;
            if toks[i].is_punct(']') {
                depth += 1;
            } else if toks[i].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if depth != 0 || i == 0 {
            return None;
        }
        i -= 1;
    }
    match toks[i].kind {
        // `self.0.fetch_add(..)` — tuple-struct field receiver.
        TokKind::Ident | TokKind::Int => Some(toks[i].text.clone()),
        _ => None,
    }
}

impl OrderedAtomics {
    fn collect(f: &SourceFile) -> BTreeMap<String, Vec<AtomicOp>> {
        let toks = &f.lexed.tokens;
        let mut vars: BTreeMap<String, Vec<AtomicOp>> = BTreeMap::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !ATOMIC_METHODS.contains(&t.text.as_str())
                || f.in_test(t.line)
                || i == 0
                || !toks[i - 1].is_punct('.')
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            // Orderings named inside the call's parentheses.
            let mut depth = 0usize;
            let mut orderings = Vec::new();
            for u in &toks[i + 1..] {
                if u.is_punct('(') {
                    depth += 1;
                } else if u.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.kind == TokKind::Ident && ORDERING_NAMES.contains(&u.text.as_str()) {
                    orderings.push(u.text.clone());
                }
            }
            if orderings.is_empty() {
                continue; // not an atomic op (e.g. Config::load, io write)
            }
            let Some(recv) = receiver_ident(toks, i - 1) else {
                continue;
            };
            vars.entry(recv).or_default().push(AtomicOp {
                method: t.text.clone(),
                orderings,
                line: t.line,
            });
        }
        vars
    }
}

fn acquire_side(op: &AtomicOp) -> bool {
    let rmw = op.method != "load" && op.method != "store";
    op.orderings.iter().any(|o| match o.as_str() {
        "Acquire" | "SeqCst" => op.method == "load" || rmw,
        "AcqRel" => rmw,
        _ => false,
    })
}

fn release_side(op: &AtomicOp) -> bool {
    let rmw = op.method != "load" && op.method != "store";
    op.orderings.iter().any(|o| match o.as_str() {
        "Release" | "SeqCst" => op.method == "store" || rmw,
        "AcqRel" => rmw,
        _ => false,
    })
}

impl Rule for OrderedAtomics {
    fn id(&self) -> &'static str {
        "ordered-atomics"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "publication atomics must pair Release/Acquire; no Relaxed on publication words, no one-sided fences"
    }
    fn rationale(&self) -> &'static str {
        "The telemetry ring is a seqlock: writers publish slots with Release stores to \
         the sequence word and readers validate with Acquire loads. One Relaxed access \
         on a publication word removes the happens-before edge and lets readers observe \
         torn payloads; an Acquire with no Release partner (or vice versa) synchronizes \
         with nothing — it either hides a missing store or charges the lock-free hot \
         path a fence for free. The pairing is checked per variable so purely-Relaxed \
         counters stay untouched."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            for (var, ops) in OrderedAtomics::collect(f) {
                let has_acq = ops.iter().any(acquire_side);
                let has_rel = ops.iter().any(release_side);
                if has_acq && has_rel {
                    // Publication word: every op must be ordered.
                    for op in &ops {
                        if op.orderings.iter().any(|o| o == "Relaxed") {
                            out.push(diag(
                                self.id(),
                                self.default_severity(),
                                f,
                                op.line,
                                format!(
                                    "Relaxed `{}` on publication word `{var}` — this word pairs \
                                     Release/Acquire elsewhere; a relaxed access breaks the \
                                     happens-before edge",
                                    op.method
                                ),
                            ));
                        }
                    }
                } else if has_acq || has_rel {
                    let (side, partner) = if has_acq {
                        ("Acquire", "Release store")
                    } else {
                        ("Release", "Acquire load")
                    };
                    for op in ops.iter().filter(|o| acquire_side(o) || release_side(o)) {
                        out.push(diag(
                            self.id(),
                            self.default_severity(),
                            f,
                            op.line,
                            format!(
                                "unpaired {side} on `{var}`: no {partner} on this word anywhere in \
                                 the file — the fence synchronizes with nothing (downgrade to \
                                 Relaxed or add the missing partner)",
                                ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R10: shared-telemetry-in-hot-path
// ---------------------------------------------------------------------------

/// R10: per-event code holds no shared telemetry handle and reads no
/// clock. In the simulator and the POLB/POT/`oid_direct`/NVM-device
/// models, non-test code may not name `Counter`, `Histogram`,
/// `SpanTimer`, `span_timer` or `Instant`, nor call
/// `counter(..)`/`histogram(..)` without turning the handle into a
/// tally with `.local()` at once; it counts through the owner-local
/// `LocalCounter`/`LocalHistogram` tallies instead. The five
/// translation-model files (`translation_model_path`) may also not open
/// a `span(..)`: only the cores' replay loops time whole replays.
pub struct SharedTelemetryInHotPath;

/// Files that model one translation or device access per call: apart
/// from constructors and end-of-run publishing, their code runs per
/// event.
fn translation_model_path(path: &str) -> bool {
    [
        "crates/sim/src/xlate.rs",
        "crates/core/src/polb.rs",
        "crates/core/src/pot.rs",
        "crates/pmem/src/translate.rs",
        "crates/nvm/src/device.rs",
    ]
    .contains(&path)
}

/// Files whose code runs per simulated event.
fn per_event_path(path: &str) -> bool {
    path.starts_with("crates/sim/src/") || translation_model_path(path)
}

const SHARED_TELEMETRY_TOKENS: [&str; 5] =
    ["Counter", "Histogram", "SpanTimer", "span_timer", "Instant"];

/// Index of the `)` closing the `(` at `open`, if any.
fn closing_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The shared-registry call per-event code makes at token `i`, if any:
/// a `.span(..)`, or a `.counter(..)`/`.histogram(..)` not followed at
/// once by `.local()`.
fn shared_registry_call(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    let method_call =
        i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !method_call {
        return None;
    }
    if t.is_ident("span") {
        return Some("span");
    }
    let name = if t.is_ident("counter") {
        "counter"
    } else if t.is_ident("histogram") {
        "histogram"
    } else {
        return None;
    };
    let local = closing_paren(toks, i + 1).is_some_and(|close| {
        toks.get(close + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(close + 2).is_some_and(|n| n.is_ident("local"))
            && toks.get(close + 3).is_some_and(|n| n.is_punct('('))
    });
    (!local).then_some(name)
}

impl Rule for SharedTelemetryInHotPath {
    fn id(&self) -> &'static str {
        "shared-telemetry-in-hot-path"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "shared Counter/Histogram handle, span or Instant in per-event code (sim, core::polb, core::pot, pmem::translate, nvm::device); use Counter::local()/Histogram::local()"
    }
    fn rationale(&self) -> &'static str {
        "Figures 11 and 12 replay millions of POLB look-ups and POT walks per sweep. A \
         wall-clock span around each POT walk cost ~260 ns on the host (two clock reads, \
         a run-scope lookup and about ten atomic read-modify-writes), and every shared \
         counter bump is another atomic: together they more than doubled the measured \
         translation cost of the polb_sweep benchmark. Per-event code counts into an \
         owner-local tally that publishes the exact total once, when its owner drops, and \
         leaves timing to phase spans around whole replays."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in ws.rust_files() {
            if !per_event_path(&f.path) {
                continue;
            }
            let model = translation_model_path(&f.path);
            let toks = &f.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || f.in_test(t.line) {
                    continue;
                }
                let message = if SHARED_TELEMETRY_TOKENS.contains(&t.text.as_str()) {
                    format!(
                        "`{}` in per-event code: count with an owner-local `Counter::local()`/`Histogram::local()` tally and time whole phases with `Registry::span`",
                        t.text
                    )
                } else if let Some(call) =
                    shared_registry_call(toks, i).filter(|&call| model || call != "span")
                {
                    if call == "span" {
                        "`span(..)` in translation-model code: every call here is one event; time whole replays with `Registry::span` in the core's replay loop".to_string()
                    } else {
                        format!(
                            "`{call}(..)` without `.local()` in per-event code: each use is a shared atomic per event; keep a `{call}(..).local()` tally in the owner"
                        )
                    }
                } else {
                    continue;
                };
                out.push(diag(self.id(), self.default_severity(), f, t.line, message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Behavioral good/bad coverage for every rule lives in the fixture
    // corpus (tests/fixtures.rs); only pure-helper tests remain here.

    #[test]
    fn enum_variant_parsing() {
        let f = SourceFile::new(
            "crates/telemetry/src/events.rs".into(),
            "/// Doc.\npub enum EventKind {\n    /// a\n    NvLoad = 0,\n    #[allow(dead_code)]\n    PolbHit,\n    Fault,\n}\n"
                .into(),
        );
        let v = parse_enum_variants(&f, "EventKind");
        let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["NvLoad", "PolbHit", "Fault"]);
    }

    #[test]
    fn telemetry_drift_placeholder_matching() {
        assert!(doc_name_matches(
            "span.<phase>.nanos",
            "span.pot_walk.nanos"
        ));
        assert!(!doc_name_matches(
            "span.<phase>.nanos",
            "span.pot_walk.count"
        ));
        assert!(!doc_name_matches("a.b.c", "a.b.c.d"));
        assert!(metric_shape("core.polb.hits"));
        assert!(!metric_shape("core.polb"));
        assert!(!metric_shape("a.B.c"));
        assert!(!metric_shape("span..nanos"));
    }
}

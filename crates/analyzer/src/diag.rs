// SPDX-License-Identifier: MIT OR Apache-2.0
//! Diagnostics: severities, findings, and text/JSON rendering.

use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never affects the exit code.
    Note,
    /// A warning; fails the run only under `--deny-warnings`.
    Warning,
    /// An error; always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// One finding from one rule at one source location.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `magic-latency`).
    pub rule: &'static str,
    /// The reporting rule's severity ([`crate::Rule::default_severity`]).
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-indexed line (0 for file-level findings such as a missing
    /// crate attribute).
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Renders the canonical single-line machine-readable form:
    /// `file:line: severity[rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}[{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a batch of diagnostics as a JSON document (hand-rolled — the
/// analyzer is dependency-free by design).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            json_escape(d.rule),
            d.severity,
            json_escape(&d.file),
            d.line,
            json_escape(&d.message)
        ));
        out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    out.push_str(&format!(
        "  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_forms() {
        let d = Diagnostic {
            rule: "magic-latency",
            severity: Severity::Warning,
            file: "crates/sim/src/xlate.rs".into(),
            line: 42,
            message: "bare literal `30` in cost position".into(),
        };
        assert_eq!(
            d.render(),
            "crates/sim/src/xlate.rs:42: warning[magic-latency] bare literal `30` in cost position"
        );
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let d = Diagnostic {
            rule: "r",
            severity: Severity::Error,
            file: "a\"b.rs".into(),
            line: 1,
            message: "line1\nline2\ttab".into(),
        };
        let j = render_json(&[d]);
        assert!(j.contains("\\\"b.rs"));
        assert!(j.contains("line1\\nline2\\ttab"));
        assert!(j.contains("\"errors\": 1"));
        assert!(j.contains("\"warnings\": 0"));
    }

    #[test]
    fn severity_order() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}

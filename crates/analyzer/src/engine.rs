// SPDX-License-Identifier: MIT OR Apache-2.0
//! Workspace loading, test-region detection, and the rule-running
//! engine.

use crate::diag::Diagnostic;
use crate::lexer::{self, Lexed};
use crate::rules::Rule;
use std::fs;
use std::path::{Path, PathBuf};

/// One file under analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Raw file contents.
    pub text: String,
    /// Token stream + comments (empty for non-Rust files).
    pub lexed: Lexed,
    /// 1-indexed lines that fall inside `#[cfg(test)]` / `#[test]`
    /// regions. `test_lines[line as usize - 1]`, `false` past the end.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Builds a source file, lexing `.rs` contents and marking test
    /// regions.
    pub fn new(path: String, text: String) -> SourceFile {
        let is_rust = path.ends_with(".rs");
        let lexed = if is_rust {
            lexer::lex(&text)
        } else {
            Lexed::default()
        };
        let test_lines = if is_rust {
            mark_test_lines(&lexed, &text)
        } else {
            Vec::new()
        };
        SourceFile {
            path,
            text,
            lexed,
            test_lines,
        }
    }

    /// Whether 1-indexed `line` is inside a test region.
    pub fn in_test(&self, line: u32) -> bool {
        line >= 1
            && self
                .test_lines
                .get(line as usize - 1)
                .copied()
                .unwrap_or(false)
    }
}

/// Marks the line span of every item annotated `#[cfg(test)]` or
/// `#[test]`: from the attribute through the matching close brace of
/// the item body (or through the `;` for brace-less items).
fn mark_test_lines(lexed: &Lexed, text: &str) -> Vec<bool> {
    let line_count = text.lines().count();
    let mut marks = vec![false; line_count];
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if matches!(toks[j].kind, crate::lexer::TokKind::Ident) {
                idents.push(&toks[j].text);
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => idents.contains(&"test"),
            _ => false,
        };
        if !is_test_attr {
            i = attr_start + 1;
            continue;
        }
        // Find the item body: the first `{` before any `;` at depth 0,
        // then its matching `}`.
        let mut k = j;
        let mut body_end = None;
        while k < toks.len() {
            if toks[k].is_punct(';') {
                body_end = Some(k);
                break;
            }
            if toks[k].is_punct('{') {
                let mut bdepth = 1usize;
                let mut m = k + 1;
                while m < toks.len() && bdepth > 0 {
                    if toks[m].is_punct('{') {
                        bdepth += 1;
                    } else if toks[m].is_punct('}') {
                        bdepth -= 1;
                    }
                    m += 1;
                }
                body_end = Some(m.saturating_sub(1));
                break;
            }
            k += 1;
        }
        let first = toks[attr_start].line as usize;
        let last = body_end
            .and_then(|e| toks.get(e))
            .map(|t| t.line as usize)
            .unwrap_or(line_count);
        for line in first..=last.min(line_count) {
            marks[line - 1] = true;
        }
        i = j;
    }
    marks
}

/// The set of files a run analyzes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All files, in walk order.
    pub files: Vec<SourceFile>,
}

/// Path components that are never analyzed: test/fixture/bench/example
/// code is exempt from library-code rules by construction, and build
/// output is not source.
const EXCLUDED_COMPONENTS: &[&str] = &[
    "tests", "fixtures", "benches", "examples", "target", "vendor",
];

impl Workspace {
    /// Loads the on-disk workspace rooted at `root`: `src/`,
    /// `crates/*/src/`, and `docs/METRICS.md`.
    ///
    /// # Errors
    ///
    /// An unreadable file, a `root` that is not a directory, or a root
    /// with no `.rs` file under `src/` or `crates/*/src/`: a mistyped
    /// root must fail the gate, not pass it with nothing checked.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        if !root.is_dir() {
            return Err(format!("root {} is not a directory", root.display()));
        }
        let mut files = Vec::new();
        let mut roots: Vec<PathBuf> = vec![root.join("src")];
        if let Ok(entries) = fs::read_dir(root.join("crates")) {
            let mut crates: Vec<PathBuf> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path().join("src"))
                .filter(|p| p.is_dir())
                .collect();
            crates.sort();
            roots.extend(crates);
        }
        for dir in roots {
            if dir.is_dir() {
                walk(root, &dir, &mut files)?;
            }
        }
        if files.is_empty() {
            return Err(format!(
                "no .rs file under {} (src/ or crates/*/src/)",
                root.display()
            ));
        }
        let metrics = root.join("docs").join("METRICS.md");
        if metrics.is_file() {
            let text = fs::read_to_string(&metrics)
                .map_err(|e| format!("read {}: {e}", metrics.display()))?;
            files.push(SourceFile::new("docs/METRICS.md".into(), text));
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory sources — the unit-test entry
    /// point. Paths should look like real workspace-relative paths
    /// (e.g. `crates/sim/src/bad.rs`) so rule scoping applies.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(p, t)| SourceFile::new(p, t))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Looks up a file by exact path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// All Rust files.
    pub fn rust_files(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.iter().filter(|f| f.path.ends_with(".rs"))
    }
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if EXCLUDED_COMPONENTS.contains(&name.as_ref()) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            files.push(SourceFile::new(rel, text));
        }
    }
    Ok(())
}

/// Runs every rule over the workspace. Each finding keeps its rule's
/// own severity; findings come back sorted by file, line, then rule.
pub fn run(ws: &Workspace, rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for rule in rules {
        let start = diags.len();
        rule.check(ws, &mut diags);
        debug_assert!(diags[start..].iter().all(|d| d.rule == rule.id()));
    }
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_marking() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn lib2() {}\n";
        let f = SourceFile::new("crates/sim/src/a.rs".into(), src.into());
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(5));
        assert!(f.in_test(6));
        assert!(!f.in_test(7));
    }

    #[test]
    fn standalone_test_fn_marked() {
        let src = "fn a() {}\n#[test]\nfn t() {\n  panic!();\n}\nfn b() {}\n";
        let f = SourceFile::new("x.rs".into(), src.into());
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(f.in_test(5));
        assert!(!f.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(feature = \"x\")]\nfn a() { b.unwrap(); }\n";
        let f = SourceFile::new("x.rs".into(), src.into());
        assert!(!f.in_test(2));
    }

    #[test]
    fn braceless_test_item_marks_through_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn lib() {}\n";
        let f = SourceFile::new("x.rs".into(), src.into());
        assert!(f.in_test(2));
        assert!(!f.in_test(3));
    }
}

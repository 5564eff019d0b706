// SPDX-License-Identifier: MIT OR Apache-2.0
//! CLI contract of the `poat-analyze` binary: no flag or file can
//! silence a finding. The retired `--config` and `--write-baseline`
//! flags are unknown arguments, and an `analyzer.toml` left at the
//! root is not read.

use std::path::PathBuf;
use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_poat-analyze"))
        .args(args)
        .output()
        .expect("run poat-analyze")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poat_analyze_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn retired_suppression_flags_are_unknown_arguments() {
    let dir = scratch("flags");
    for flag in ["--config", "--write-baseline"] {
        let target = dir.join("analyzer.toml");
        let out = analyze(&[flag, target.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{flag}` exits 2:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
        assert!(!target.exists(), "`{flag}` created {}", target.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_stray_analyzer_toml_silences_nothing() {
    let root = scratch("stray_toml");
    let src = root.join("crates/sim/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("x.rs"),
        "pub fn f(s: &mut S) { s.hit_latency = 99; }\n",
    )
    .unwrap();
    std::fs::write(
        root.join("analyzer.toml"),
        "[rules.magic-latency]\nlevel = \"allow\"\nallow = [\"crates/sim/src/x.rs\"]\n",
    )
    .unwrap();
    let out = analyze(&["--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stdout.contains("crates/sim/src/x.rs:1: error[magic-latency] "),
        "{stdout}"
    );
    assert!(!stderr.contains("files clean"), "{stderr}");
    std::fs::remove_dir_all(&root).unwrap();
}

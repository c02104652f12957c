//! End-to-end `spin-lint` gate tests over the fixture corpus in
//! `tests/lint_fixtures/`: every bad snippet fires its rule at the exact
//! line (and nowhere else), every clean snippet is silent, the allowlist
//! fixtures behave, and the real workspace stays lint-clean. Runs under
//! the normal cfg — the lint is a plain static pass.

use std::path::{Path, PathBuf};

use spin_check::lint::{lint_source, lint_workspace, Config, Finding};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_str(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    lint_source(rel, src, cfg, &mut findings);
    findings
}

/// The charged-module config the `c1.rs` fixtures are linted under.
fn charged_cfg(rel: &str) -> Config {
    Config::parse(&format!("[charged]\nmodules = [\"{rel}\"]\n")).expect("fixture config")
}

/// (rule, fixture, expected line) for the single-violation bad corpus.
/// C1 is separate — it needs the charged-module config.
const BAD: [(&str, &str, usize); 5] = [
    ("D1", "bad/d1.rs", 4),
    ("D2", "bad/d2.rs", 7),
    ("F1", "bad/f1.rs", 4),
    ("O1", "bad/o1.rs", 7),
    ("U1", "bad/u1.rs", 5),
];

#[test]
fn bad_fixtures_fire_at_the_exact_line() {
    let cfg = Config::default();
    for (rule, file, line) in BAD {
        let findings = lint_str(file, &fixture(file), &cfg);
        assert_eq!(
            findings.len(),
            1,
            "{file}: exactly one finding expected, got {findings:?}"
        );
        assert_eq!((findings[0].rule, findings[0].line), (rule, line), "{file}");
    }
    let file = "bad/c1.rs";
    let findings = lint_str(file, &fixture(file), &charged_cfg(file));
    assert_eq!(findings.len(), 1, "{file}: {findings:?}");
    assert_eq!((findings[0].rule, findings[0].line), ("C1", 9), "{file}");
}

#[test]
fn clean_fixtures_are_silent() {
    let cfg = Config::default();
    for rule in ["d1", "d2", "f1", "o1", "u1"] {
        let file = format!("clean/{rule}.rs");
        let findings = lint_str(&file, &fixture(&file), &cfg);
        assert!(findings.is_empty(), "{file}: false positives {findings:?}");
    }
    let file = "clean/c1.rs";
    let findings = lint_str(file, &fixture(file), &charged_cfg(file));
    assert!(findings.is_empty(), "{file}: false positives {findings:?}");
}

/// A workspace-shaped fixture with no `lint.toml`: the walk finds the
/// determinism and unsafe violations, and the crate-root check demands
/// `#![forbid(unsafe_code)]`.
#[test]
fn workspace_fixture_reports_all_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures/ws_bad");
    let report = lint_workspace(&root).expect("fixture is readable");
    let got: Vec<(String, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.to_string_lossy().into_owned(), f.line, f.rule))
        .collect();
    let lib = "crates/kern/src/lib.rs".to_string();
    assert_eq!(
        got,
        vec![
            (lib.clone(), 1, "U1"), // missing #![forbid(unsafe_code)]
            (lib.clone(), 2, "D1"), // thread_rng
            (lib, 6, "U1"),         // unsafe outside any island
        ],
        "{:#?}",
        report.findings
    );
}

/// A workspace-shaped fixture whose `lint.toml` waives a measurement
/// crate outright and names one audited unsafe island: zero findings.
#[test]
fn workspace_fixture_honors_the_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures/ws_allow");
    let report = lint_workspace(&root).expect("fixture is readable");
    assert!(
        report.findings.is_empty(),
        "allowlisted fixture must be clean:\n{:#?}",
        report.findings
    );
    assert_eq!(report.allow_entries, 2);
}

/// A `U1` allow entry permits `unsafe` but still demands the `// SAFETY:`
/// proof at each site.
#[test]
fn allowlisted_unsafe_still_needs_its_safety_comment() {
    let cfg = Config::parse(
        "[[allow]]\nrule = \"U1\"\npath = \"island.rs\"\nreason = \"audited island\"\n",
    )
    .expect("fixture config");
    let src = "pub fn peek(p: *const u64) -> u64 {\n    unsafe { *p }\n}\n";
    let findings = lint_str("island.rs", src, &cfg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        (findings[0].rule, findings[0].detail, findings[0].line),
        ("U1", "unsafe-missing-safety-comment", 2)
    );
    let justified = "pub fn peek(p: *const u64) -> u64 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n";
    assert!(lint_str("island.rs", justified, &cfg).is_empty());
}

/// The regression gate: the real workspace must stay lint-clean under its
/// own `lint.toml`.
#[test]
fn real_workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let report = lint_workspace(&root).expect("workspace is readable");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

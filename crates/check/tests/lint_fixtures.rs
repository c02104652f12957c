//! End-to-end `spin-lint` gate tests over the fixture corpus in
//! `tests/lint_fixtures/`: every bad snippet fires its rule at the exact
//! line (and nowhere else), every clean snippet is silent, the allowlist
//! fixtures behave, and the real workspace stays lint-clean. Runs under
//! the normal cfg — the lint is a plain static pass.

use std::path::{Path, PathBuf};

use spin_check::lint::{lint_source, lint_workspace, Config, Finding, Report};

fn fixture_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(rel)
}

fn fixture(rel: &str) -> String {
    let path = fixture_path(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// (file, line, rule) of every finding, in report order.
fn located(report: &Report) -> Vec<(String, usize, &'static str)> {
    report
        .findings
        .iter()
        .map(|f| (f.file.to_string_lossy().into_owned(), f.line, f.rule))
        .collect()
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
/// determinism and unsafe violations, the crate-root check demands
/// `#![forbid(unsafe_code)]`, and P2 flags the dependency the crate's `src`
/// never names, but not the dev-dependency only its `tests/` name. P2 reads
/// the root package's manifest too: the root `src` names `kern`, and
/// nothing at the root names its `proptest` dev-dependency. Of the root's
/// `[workspace.dependencies]`, `kern` inherits `proptest`, and no member
/// inherits `unused-shim`.
#[test]
fn workspace_fixture_reports_all_violations() {
    let report = lint_workspace(&fixture_path("ws_bad")).expect("fixture is readable");
    let lib = "crates/kern/src/lib.rs".to_string();
    assert_eq!(
        located(&report),
        vec![
            ("Cargo.toml".into(), 10, "P2"),            // the root's proptest
            ("Cargo.toml".into(), 17, "P2"),            // unused-shim, never inherited
            ("crates/kern/Cargo.toml".into(), 8, "P2"), // unused-dep
            (lib.clone(), 1, "U1"),                     // missing #![forbid(unsafe_code)]
            (lib.clone(), 2, "D1"),                     // thread_rng
            (lib, 6, "U1"),                             // unsafe outside any island
        ],
        "{:#?}",
        report.findings
    );
}

/// P1 over workspace-shaped fixtures. In `bad/p1` an item named only by
/// its own file's tests fires, so does the type only its signature names,
/// an item only a sibling module of its crate calls, an item only
/// `pub use` lines name (its crate root's and another crate's), and a
/// re-exported type only its own crate names. Two cases the rule once
/// skipped fire too: a method whose name is declared twice and that no
/// other crate names, with the type only such methods return, and an
/// associated function other crates call only as another type's
/// same-named function, and a function and a type that a live item's
/// signature mentions only as a parameter, field or generic name. In
/// `clean/p1` every item is named from outside
/// its crate — the root `tests/`, the crate's own `tests/`, a `src/bin/`
/// file, or `perf/src` (a trait through a plain `use` import), a function
/// without `self` by its type's path — kept by a shared name another
/// crate names (and counted as such), kept by the fixpoint (through a
/// signature in another file of the crate, or a `pub` field's second
/// type argument), or exempt by `// paper:`.
#[test]
fn p1_flags_exactly_the_unreferenced_pub_items() {
    let bad = lint_workspace(&fixture_path("bad/p1")).expect("fixture is readable");
    let (lib, relayed) = ("crates/kern/src/lib.rs", "crates/kern/src/relayed.rs");
    let shared = "crates/kern/src/shared.rs";
    let binding = "crates/kern/src/binding.rs";
    assert_eq!(
        located(&bad),
        vec![
            (binding.into(), 9, "P1"),  // only bindings are called `start`
            (binding.into(), 14, "P1"), // only a generic is called `Probe`
            (lib.into(), 11, "P1"),
            (lib.into(), 16, "P1"),
            (lib.into(), 24, "P1"),    // only a sibling module calls it
            (relayed.into(), 5, "P1"), // only `pub use`s name it
            (relayed.into(), 8, "P1"), // re-exported, named only in its crate
            (shared.into(), 6, "P1"),  // only the shared-name methods return it
            (shared.into(), 12, "P1"), // a name declared twice, named nowhere else
            (shared.into(), 19, "P1"),
            (shared.into(), 28, "P1"), // outside, only `Meter::new` is called
        ],
        "{:#?}",
        bad.findings
    );
    assert_eq!(
        bad.paper_exemptions, 0,
        "a doc comment is not the exemption"
    );

    let clean = lint_workspace(&fixture_path("clean/p1")).expect("fixture is readable");
    assert!(
        clean.findings.is_empty(),
        "false positives {:#?}",
        clean.findings
    );
    assert_eq!(clean.paper_exemptions, 1);
    assert_eq!(clean.pub_items.get("kern"), Some(&18));
    assert_eq!(
        clean.shared_names.get("kern"),
        Some(&2),
        "Left::size, Right::size"
    );
}

/// A `rule = "*"` entry waives every rule but P1: under it the wall-clock
/// read is silent, and a `pub` item nothing outside its crate names is
/// still a finding.
#[test]
fn a_star_entry_does_not_waive_p1() {
    let report = lint_workspace(&fixture_path("bad/p1_waived")).expect("fixture is readable");
    assert_eq!(
        located(&report),
        vec![("crates/meter/src/lib.rs".into(), 11, "P1")],
        "{:#?}",
        report.findings
    );
}

/// A workspace-shaped fixture whose `lint.toml` waives a measurement
/// crate and names one audited unsafe island: zero findings.
#[test]
fn workspace_fixture_honors_the_allowlist() {
    let report = lint_workspace(&fixture_path("ws_allow")).expect("fixture is readable");
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

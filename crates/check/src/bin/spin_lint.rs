//! `spin-lint`: the workspace token-level safety & determinism gate.
//!
//! Walks `crates/*/src` (plus the root crate's `src/`) and fails on any
//! violation of the six rules in `spin_check::lint` (determinism, hash
//! iteration, sync-facade enforcement, ordering justifications, unsafe
//! containment, charge coverage), honoring the `lint.toml` allowlist at
//! the workspace root.
//!
//! Usage: `spin-lint [--root <workspace-dir>] [--json]`
//!   (default root: walk up from the current directory to the first dir
//!   containing `Cargo.toml` + `crates/`). `--json` prints the
//!   machine-readable report `scripts/verify.sh` diffs against
//!   `scripts/goldens/lint_report.json`; exit status is 0 for a clean
//!   workspace, 1 for findings, 2 for usage/IO/config errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    spin_check::lint::cli_run(std::env::args().skip(1))
}

//! spin-check: deterministic concurrency model checking and a source-audit
//! gate for the kernel's lock-free core.
//!
//! The SPIN paper's safety argument (§2, "enforced modularity") says
//! extensions cannot violate memory safety or interface boundaries. After
//! PRs 1–3 moved the dispatcher, the obs flight recorder and the containment
//! breaker onto lock-free fast paths, that argument rests on about eighty
//! hand-placed atomic-ordering sites in the kernel crates, each naming the
//! pairing it relies on; every count that publishes nothing is one
//! [`sync::Counter`], argued once. This crate makes those sites checkable
//! instead of merely reviewable:
//!
//! - [`sync`] is a facade over the sync primitives the concurrency-critical
//!   crates use. In a normal build it literally re-exports
//!   `std::sync::atomic` / `parking_lot` / `std::sync` types — zero cost,
//!   byte-identical codegen, verified by the bench goldens — plus the
//!   `Counter` built on them. Under `--cfg spin_check` it swaps in the
//!   instrumented types from [`instr`].
//! - [`model`] is a loom-style bounded-DFS explorer: real OS threads are
//!   serialized through a token-passing scheduler, every instrumented
//!   operation is a schedule point, weak-memory visibility is modeled with
//!   vector clocks so stale values are actually observable, and failing
//!   schedules print a seed that replays the exact interleaving.
//! - [`lint`] is the static gate behind `spin-lint`: a token-level
//!   verifier over the whole workspace built on its own lexer (`lex.rs`). Eight
//!   rules — D1 determinism (no wall clock / ambient randomness / env reads), D2
//!   hash-iteration order, F1 facade enforcement, O1 `// ordering:`
//!   justifications, U1 unsafe containment with `// SAFETY:` comments,
//!   C1 charge coverage in the hot-path modules, P1 no `pub` item that
//!   nothing outside its crate names, P2 no dependency its crate never names — with a declarative
//!   `lint.toml` allowlist and a machine-readable `--json` report that
//!   `scripts/verify.sh` gates on.
//!
//! The model runtime compiles unconditionally (so the checker checks itself
//! under the tier-1 gate); only the [`sync`] re-exports switch on
//! `cfg(spin_check)`.

#![forbid(unsafe_code)]

pub mod hooks;
pub mod instr;
mod lex;
pub mod lint;
pub mod model;
pub mod sync;
pub mod thread;

//! `spin-lint`: the token-level static safety & determinism verifier.
//!
//! SPIN's safety story is *static* — the kernel trusts analysis done
//! before anything runs (§2 "enforced modularity"; Rex and BeePL in
//! PAPERS.md push the same bet further). This repo's equivalent contract
//! is a set of source-level invariants that every kernel crate must hold:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no wall-clock, ambient randomness, thread identity, or env/fs reads — virtual time and seeded draws only |
//! | `D2` | no iteration over `HashMap`/`HashSet` — hash order is nondeterministic and has already broken the 1/2/4-worker byte-identity invariant once |
//! | `F1` | all synchronization through `spin_check::sync` — no direct `std::sync::atomic` / `core::sync::atomic` / `parking_lot` — so `--cfg spin_check` can instrument it |
//! | `O1` | every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site carries an `// ordering:` justification within 2 lines |
//! | `U1` | `unsafe` only in allowlisted files, each site with a `// SAFETY:` comment within 5 lines; crate roots declare the matching lint |
//! | `C1` | public functions in the charged hot-path modules reach a `Clock` charge or document their charging story — `// uncharged:` (zero-cost by design) or `// charged:` (the charge lands behind a call the intra-file analysis can't see) — within 6 lines |
//! | `P1` | every plain `pub` item under `crates/*/src` is named from outside its crate (another crate's `src`, any crate's `tests`/`benches`/`examples`, a `src/bin/` file, the root crate's, or `perf/src`) outside a `pub use` — a re-export is not a use — and an inherent associated function without `self` as `Type::name`; unless a live item of its crate names it in its signature (an `impl` member is kept by no signature), or a `// paper:` comment within 2 lines marks an interface the paper or README describes. A name declared twice that another crate names is kept but counted as kept only by a shared name (`shared_names`; `scripts/pub_sweep.sh` lets the compiler judge those) |
//! | `P2` | every `[dependencies]` crate is named by its crate's `src`, every `[dev-dependencies]` crate by its `src`, `tests`, `benches` or `examples`; the root package's manifest included; every `[workspace.dependencies]` entry is inherited (`workspace = true`) by a member or the root package |
//!
//! Rules run over the token stream from the crate's lexer (string literals,
//! comments and lifetimes can't fool them), across `crates/*/src` plus the
//! root crate's `src/`; P1 and P2 also read the other places the crates
//! are named from. Exemptions are declarative: a `lint.toml` at the
//! workspace root lists `[[allow]]` entries (rule × path prefix × reason)
//! and the `[charged]` module set. The gate in `scripts/verify.sh` diffs
//! the `--json` report against a golden and caps the allowlist size.
//!
//! False-positive policy (DESIGN.md decision #13): the rules are token
//! shapes, not type analysis. Where the heuristic cannot see a type (D2
//! tracks names *declared* hash-typed in the same file; C1 resolves calls
//! by name within the same file) it is tuned to under-approximate rather
//! than spray noise, and anything it still gets wrong is either fixed at
//! the site or carried as a *named, justified* `lint.toml` entry — never
//! silently suppressed in code.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Lexed, Tok, TokKind};

/// Rule identifiers, in report order.
const RULES: [&str; 8] = ["C1", "D1", "D2", "F1", "O1", "P1", "P2", "U1"];

/// How far above a site its justification comment may sit (shared
/// scanner in [`Lexed::justified`]; per-rule windows).
const SAFETY_WINDOW: usize = 5;
const ORDERING_WINDOW: usize = 2;
const UNCHARGED_WINDOW: usize = 6;

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: PathBuf,
    /// 1-based source line.
    pub line: usize,
    /// Rule id (`"D1"` .. `"C1"`).
    pub rule: &'static str,
    /// Machine-stable sub-classification within the rule.
    pub detail: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {} — fix: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail,
            self.excerpt.trim(),
            self.hint
        )
    }
}

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// A rule id, or `"*"` for every rule.
    pub rule: String,
    /// Path prefix (a file, or a directory covering everything under it).
    pub path: String,
    /// Why the exemption exists (required: the allowlist is documentation).
    pub reason: String,
}

impl AllowEntry {
    /// Whether the entry waives `rule` at `rel`. A `"*"` entry covers
    /// every rule but P1: the dead-`pub` ratchet holds in every crate.
    fn matches(&self, rule: &str, rel: &str) -> bool {
        (self.rule == rule || (self.rule == "*" && rule != "P1"))
            && (rel == self.path || rel.starts_with(&format!("{}/", self.path)))
    }
}

/// Parsed `lint.toml`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    pub allow: Vec<AllowEntry>,
    /// Files under rule C1 (charge coverage).
    pub charged_modules: Vec<String>,
}

impl Config {
    /// Is `rule` fully waived for `rel`? (For U1 an entry means "unsafe
    /// *permitted* here", which still enforces `// SAFETY:` — see
    /// [`Config::unsafe_allowed`] — unless the waiver is the `"*"` kind.)
    fn waived(&self, rule: &'static str, rel: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.rule == "*" && a.matches(rule, rel))
            || (rule != "U1" && self.allow.iter().any(|a| a.matches(rule, rel)))
    }

    /// Is `rel` an allowlisted `unsafe` island (SAFETY comments still
    /// required)?
    fn unsafe_allowed(&self, rel: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.rule == "U1" && a.matches("U1", rel))
    }

    fn charged(&self, rel: &str) -> bool {
        self.charged_modules.iter().any(|m| m == rel)
    }

    /// Parse the `lint.toml` subset this tool understands: `[[allow]]`
    /// tables with `rule` / `path` / `reason` string keys, and a
    /// `[charged]` table with a `modules` string array (single- or
    /// multi-line). Anything else is an error — config typos must not
    /// silently widen an exemption.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = Section::None;
        let mut pending_array: Option<(String, Vec<String>)> = None;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: &str| format!("lint.toml:{}: {m}", n + 1);
            if let Some((_key, items)) = pending_array.as_mut() {
                let done = line.contains(']');
                for part in line.trim_end_matches(']').split(',') {
                    let part = part.trim();
                    if !part.is_empty() {
                        items.push(parse_str(part).ok_or_else(|| err("expected a string"))?);
                    }
                }
                if done {
                    let (key, items) = pending_array.take().expect("checked");
                    assign_array(&mut cfg, &section, &key, items).map_err(|m| err(&m))?;
                }
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                cfg.allow.push(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    reason: String::new(),
                });
                section = Section::Allow;
                continue;
            }
            if line == "[charged]" {
                section = Section::Charged;
                continue;
            }
            if line.starts_with('[') {
                return Err(err("unknown section"));
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| err("expected `key = value`"))?;
            if let Some(rest) = value.strip_prefix('[') {
                if rest.trim_end().ends_with(']') {
                    let inner = rest.trim_end().trim_end_matches(']');
                    let mut items = Vec::new();
                    for part in inner.split(',') {
                        let part = part.trim();
                        if !part.is_empty() {
                            items.push(parse_str(part).ok_or_else(|| err("expected a string"))?);
                        }
                    }
                    assign_array(&mut cfg, &section, key, items).map_err(|m| err(&m))?;
                } else {
                    pending_array = Some((key.to_string(), Vec::new()));
                }
                continue;
            }
            let value = parse_str(value).ok_or_else(|| err("expected a quoted string"))?;
            match (&section, key) {
                (Section::Allow, "rule") => {
                    let e = cfg.allow.last_mut().expect("inside [[allow]]");
                    if value != "*" && !RULES.contains(&value.as_str()) {
                        return Err(err("unknown rule id"));
                    }
                    e.rule = value;
                }
                (Section::Allow, "path") => {
                    cfg.allow.last_mut().expect("inside [[allow]]").path = value;
                }
                (Section::Allow, "reason") => {
                    cfg.allow.last_mut().expect("inside [[allow]]").reason = value;
                }
                _ => return Err(err("unknown key for this section")),
            }
        }
        if pending_array.is_some() {
            return Err("lint.toml: unterminated array".into());
        }
        for (i, e) in cfg.allow.iter().enumerate() {
            if e.rule.is_empty() || e.path.is_empty() || e.reason.is_empty() {
                return Err(format!(
                    "lint.toml: [[allow]] entry {} needs rule, path and reason",
                    i + 1
                ));
            }
        }
        Ok(cfg)
    }

    /// Load `root/lint.toml`, or an empty config when absent (fixture
    /// trees choose their own policy).
    pub(crate) fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        if !path.is_file() {
            return Ok(Config::default());
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Config::parse(&text)
    }
}

fn parse_str(tok: &str) -> Option<String> {
    let t = tok.trim();
    t.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

/// Which `lint.toml` section the parser is inside.
#[derive(PartialEq)]
enum Section {
    None,
    Allow,
    Charged,
}

fn assign_array(
    cfg: &mut Config,
    section: &Section,
    key: &str,
    items: Vec<String>,
) -> Result<(), String> {
    if *section == Section::Charged && key == "modules" {
        cfg.charged_modules = items;
        Ok(())
    } else {
        Err("unknown array key for this section".into())
    }
}

/// The full lint result for one workspace walk.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule, detail) — deterministic
    /// so the JSON golden is stable.
    pub findings: Vec<Finding>,
    /// Number of `[[allow]]` entries in force (the gate caps this).
    pub allow_entries: usize,
    /// Files scanned (human output only — not part of the JSON golden,
    /// which must not churn when an unrelated file is added).
    pub files_scanned: usize,
    /// Plain `pub` items per crate, as P1 indexes them: surface growth
    /// shows up in the golden's diff.
    pub pub_items: BTreeMap<String, usize>,
    /// Per crate, the `pub` items P1 keeps only because their name is
    /// declared twice: the blind spot a compile-checked sweep closes.
    pub shared_names: BTreeMap<String, usize>,
    /// Those items, `file:line: name` (`--shared` lists them; not part of
    /// the JSON golden).
    pub shared: Vec<String>,
    /// `Ordering::` sites per crate under `crates/<name>/src`, its bins
    /// and tests included: each argues a memory ordering by hand, so a
    /// new one shows up in the golden's diff as a new `pub` item does.
    pub ordering_sites: BTreeMap<String, usize>,
    /// Items kept by a `// paper:` exemption rather than a caller.
    pub paper_exemptions: usize,
}

impl Report {
    /// The machine-readable report `scripts/verify.sh` diffs against
    /// `scripts/goldens/lint_report.json`. Keys sorted, counts per rule,
    /// findings fully expanded. Deliberately excludes `files_scanned`.
    pub(crate) fn to_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        let mut s = String::from("{\n");
        s.push_str("  \"tool\": \"spin-lint\",\n  \"schema\": 4,\n");
        s.push_str(&format!("  \"allow_entries\": {},\n", self.allow_entries));
        let rules = json_counts(counts.iter().map(|(r, c)| (*r, *c)));
        s.push_str(&format!("  \"rules\": {rules},\n"));
        let pub_items = json_counts(self.pub_items.iter().map(|(k, c)| (k.as_str(), *c)));
        s.push_str(&format!("  \"pub_items\": {pub_items},\n"));
        let shared = json_counts(self.shared_names.iter().map(|(k, c)| (k.as_str(), *c)));
        s.push_str(&format!("  \"shared_names\": {shared},\n"));
        let sites = json_counts(self.ordering_sites.iter().map(|(k, c)| (k.as_str(), *c)));
        s.push_str(&format!("  \"ordering_sites\": {sites},\n"));
        s.push_str(&format!(
            "  \"paper_exemptions\": {},\n",
            self.paper_exemptions
        ));
        s.push_str("  \"findings\": [");
        let items: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"detail\": \"{}\", \"excerpt\": \"{}\", \"hint\": \"{}\"}}",
                    json_escape(&f.file.display().to_string()),
                    f.line,
                    f.rule,
                    f.detail,
                    json_escape(f.excerpt.trim()),
                    json_escape(f.hint)
                )
            })
            .collect();
        s.push_str(&items.join(","));
        if !items.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// `{"key": count, ..}`, in the iterator's order.
fn json_counts<'a>(entries: impl Iterator<Item = (&'a str, usize)>) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "retain_mut",
];
/// Methods that may appear between a tracked name and its iteration in a
/// `for` iterable without changing what is being iterated.
const BENIGN_METHODS: [&str; 8] = [
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
];
/// Calls that constitute "reaching a Clock charge" for rule C1: a direct
/// virtual-time charge, or a raise (every raise charges
/// `EventRaiseBase` inside the dispatcher).
const CHARGE_CALLS: [&str; 6] = [
    "charge",
    "charge_all",
    "raise",
    "raise_batch",
    "raise_burst",
    "raise_on",
];
/// The constructors that make a `let` binding a hash container when they
/// are its whole initializer (`let m = HashMap::new();`).
const HASH_CONSTRUCTORS: [&str; 3] = ["new", "with_capacity", "default"];

/// The innermost receiver of the expression ending at `end`: the last
/// plain name in a chain of field accesses and method calls (`events` in
/// `self.events.lock()`), or `None` if the chain starts anywhere else (a
/// free call, an index, a parenthesized expression).
fn receiver_name(toks: &[Tok], mut end: usize) -> Option<usize> {
    loop {
        let t = &toks[end];
        if t.kind == TokKind::Ident {
            return Some(end);
        }
        if t.text != ")" {
            return None;
        }
        // Skip a call's argument list backwards to its callee, which
        // continues the chain only as a method (`.lock()`).
        let mut depth = 1;
        while depth > 0 {
            end = end.checked_sub(1)?;
            match toks[end].text.as_str() {
                ")" => depth += 1,
                "(" => depth -= 1,
                _ => {}
            }
        }
        let callee = end.checked_sub(1)?;
        if toks[callee].kind != TokKind::Ident || callee < 2 || toks[callee - 1].text != "." {
            return None;
        }
        end = callee - 2;
    }
}

/// Whether the tokens from `at` are a hash container's constructor call
/// and then `;`: `HashMap::new()`, `HashSet::with_capacity(n)`,
/// `std::collections::HashMap::<K, V>::default()`, or the same through a
/// local alias.
fn constructed_hash(toks: &[Tok], mut at: usize, hash_words: &BTreeSet<String>) -> bool {
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    // A leading path (`std::collections::`).
    while !hash_words.contains(text(at)) && text(at + 1) == "::" {
        at += 2;
    }
    if !hash_words.contains(text(at)) || text(at + 1) != "::" {
        return false;
    }
    at += 2;
    // A turbofish (`::<K, V>::`).
    if text(at) == "<" {
        let mut depth = 0;
        loop {
            match text(at) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "" => return false,
                _ => {}
            }
            at += 1;
            if depth == 0 {
                break;
            }
        }
        if text(at) != "::" {
            return false;
        }
        at += 1;
    }
    if !HASH_CONSTRUCTORS.contains(&text(at)) || text(at + 1) != "(" {
        return false;
    }
    at += 1;
    let mut depth = 0;
    loop {
        match text(at) {
            "(" => depth += 1,
            ")" => depth -= 1,
            "" => return false,
            _ => {}
        }
        at += 1;
        if depth == 0 {
            return text(at) == ";";
        }
    }
}

struct FileLint<'a> {
    rel: &'a str,
    lx: &'a Lexed,
    raw_lines: Vec<&'a str>,
    cfg: &'a Config,
    seen: BTreeSet<(usize, &'static str, &'static str)>,
    findings: &'a mut Vec<Finding>,
}

impl<'a> FileLint<'a> {
    fn emit(&mut self, line: usize, rule: &'static str, detail: &'static str, hint: &'static str) {
        if self.cfg.waived(rule, self.rel) || !self.seen.insert((line, rule, detail)) {
            return;
        }
        self.findings.push(Finding {
            file: PathBuf::from(self.rel),
            line,
            rule,
            detail,
            excerpt: self.raw_lines.get(line - 1).copied().unwrap_or("").into(),
            hint,
        });
    }

    fn run(&mut self) {
        self.rule_d1();
        self.rule_d2();
        self.rule_f1();
        self.rule_o1();
        self.rule_u1();
        self.rule_c1();
    }

    // D1: wall-clock, randomness, thread identity, ambient env/fs.
    fn rule_d1(&mut self) {
        let hits: Vec<(usize, &'static str, &'static str)> = {
            let lx = self.lx;
            let mut v = Vec::new();
            for (i, t) in lx.toks.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                if lx.seq_at(i, &["std", "::", "time"])
                    || t.text == "Instant"
                    || t.text == "SystemTime"
                {
                    v.push((t.line, "wall-clock", HINT_D1_TIME));
                } else if t.text == "thread_rng" {
                    v.push((t.line, "ambient-randomness", HINT_D1_RAND));
                } else if lx.seq_at(i, &["thread", "::", "current"]) {
                    v.push((t.line, "thread-identity", HINT_D1_TID));
                } else if lx.seq_at(i, &["std", "::", "env"])
                    || lx.seq_at(i, &["std", "::", "fs"])
                    || lx.seq_at(i, &["env", "::", "var"])
                {
                    v.push((t.line, "ambient-environment", HINT_D1_ENV));
                }
            }
            v
        };
        for (line, detail, hint) in hits {
            self.emit(line, "D1", detail, hint);
        }
    }

    // D2: iteration over hash-ordered containers.
    fn rule_d2(&mut self) {
        let tracked = self.hash_typed_names();
        if tracked.is_empty() {
            return;
        }
        let mut hits: Vec<usize> = Vec::new();
        let toks = &self.lx.toks;
        let iterates_tracked = |end: usize| {
            receiver_name(toks, end).is_some_and(|r| tracked.contains(toks[r].text.as_str()))
        };
        // `name.iter()`-style calls, judged by the innermost receiver of
        // the chain (`events` in `self.events.lock().iter()`).
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident
                || !ITER_METHODS.contains(&toks[i].text.as_str())
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
                || i < 2
                || toks[i - 1].text != "."
            {
                continue;
            }
            if iterates_tracked(i - 2) {
                hits.push(toks[i].line);
            }
        }
        // `for pat in <iterable> {` where the iterable names a tracked
        // container through only benign adaptors.
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || toks[i].text != "for" {
                continue;
            }
            let Some(in_at) = self.find_for_in(i) else {
                continue;
            };
            let Some(body_at) = self.find_iterable_end(in_at + 1) else {
                continue;
            };
            if body_at <= in_at + 1 || !iterates_tracked(body_at - 1) {
                continue;
            }
            let expr = &toks[in_at + 1..body_at];
            let methods_benign = expr.windows(3).all(|w| {
                // `.name(` is a method call; anything outside the benign +
                // iteration sets (e.g. `.len()`, `.get()`) means the loop
                // is not iterating the container itself.
                !(w[0].text == "."
                    && w[1].kind == TokKind::Ident
                    && w[2].text == "("
                    && !BENIGN_METHODS.contains(&w[1].text.as_str())
                    && !ITER_METHODS.contains(&w[1].text.as_str()))
            });
            if methods_benign {
                hits.push(toks[in_at].line);
            }
        }
        for line in hits {
            self.emit(line, "D2", "hash-iteration", HINT_D2);
        }
    }

    /// Names declared (in this file) with a type mentioning `HashMap` /
    /// `HashSet` or a local alias of one: struct fields, fn params, let
    /// bindings annotated so or initialized by a constructor call and
    /// nothing else (`= HashMap::new();` — not a `Arc::new(Inner { ..
    /// HashMap::new() .. })` that only holds one).
    fn hash_typed_names(&self) -> BTreeSet<String> {
        let toks = &self.lx.toks;
        let mut hash_words: BTreeSet<String> = HASH_TYPES.iter().map(|s| s.to_string()).collect();
        // Two passes so `type A = HashMap<..>; type B = A;` both register.
        for _ in 0..2 {
            for i in 0..toks.len() {
                if toks[i].kind == TokKind::Ident
                    && toks[i].text == "type"
                    && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some("=")
                {
                    let mut j = i + 3;
                    while j < toks.len() && toks[j].text != ";" {
                        if hash_words.contains(&toks[j].text) {
                            hash_words.insert(toks[i + 1].text.clone());
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
        let mut tracked = BTreeSet::new();
        for i in 0..toks.len() {
            // `name: <type-with-hash-word>` — fields, params, annotated lets,
            // and struct-literal inits (`Inner { waiters: HashMap::new() }`).
            if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            {
                let mut depth: i32 = 0;
                let mut j = i + 2;
                while j < toks.len() {
                    let t = &toks[j].text;
                    match t.as_str() {
                        "<" | "(" | "[" => depth += 1,
                        // `->` in an fn type is not a closing angle.
                        ">" if toks[j - 1].text != "-" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        ")" | "]" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "," | ";" | "{" | "}" | "=" if depth == 0 => break,
                        _ => {}
                    }
                    if toks[j].kind == TokKind::Ident && hash_words.contains(t) {
                        tracked.insert(toks[i].text.clone());
                        break;
                    }
                    j += 1;
                }
            }
            // `let [mut] name = HashMap::new();`
            if toks[i].kind == TokKind::Ident && toks[i].text == "let" {
                let mut k = i + 1;
                if toks.get(k).map(|t| t.text.as_str()) == Some("mut") {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some("=")
                    && constructed_hash(toks, k + 2, &hash_words)
                {
                    tracked.insert(toks[k].text.clone());
                }
            }
        }
        tracked
    }

    /// From a `for` token, the index of its `in` (same nesting level), or
    /// `None` for non-loop uses (`impl .. for ..` has no `in`).
    fn find_for_in(&self, for_at: usize) -> Option<usize> {
        let toks = &self.lx.toks;
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().skip(for_at + 1) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" if depth == 0 => return None,
                "in" if depth == 0 && t.kind == TokKind::Ident => return Some(j),
                _ => {}
            }
        }
        None
    }

    /// From the token after `in`, the index of the body `{`.
    fn find_iterable_end(&self, from: usize) -> Option<usize> {
        let toks = &self.lx.toks;
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().skip(from) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(j),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        None
    }

    // F1: direct sync-primitive imports bypass the model checker.
    fn rule_f1(&mut self) {
        let hits: Vec<usize> = {
            let lx = self.lx;
            lx.toks
                .iter()
                .enumerate()
                .filter(|(i, t)| {
                    t.kind == TokKind::Ident
                        && (t.text == "parking_lot"
                            || lx.seq_at(*i, &["std", "::", "sync", "::", "atomic"])
                            || lx.seq_at(*i, &["core", "::", "sync", "::", "atomic"]))
                })
                .map(|(_, t)| t.line)
                .collect()
        };
        for line in hits {
            self.emit(line, "F1", "direct-sync", HINT_F1);
        }
    }

    // O1: atomic orderings need written justifications.
    fn rule_o1(&mut self) {
        let hits: Vec<usize> = ordering_sites(self.lx)
            .filter(|&line| !self.lx.justified(line - 1, ORDERING_WINDOW, "ordering:"))
            .collect();
        for line in hits {
            self.emit(line, "O1", "unjustified-ordering", HINT_O1);
        }
    }

    // U1: unsafe containment.
    fn rule_u1(&mut self) {
        let allowed = self.cfg.unsafe_allowed(self.rel);
        let hits: Vec<(usize, bool)> = self
            .lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
            .map(|t| (t.line, allowed))
            .collect();
        for (line, allowed) in hits {
            if !allowed {
                self.emit(line, "U1", "unsafe-outside-allowlist", HINT_U1_WHERE);
            } else if !self.lx.justified(line - 1, SAFETY_WINDOW, "SAFETY:") {
                self.emit(line, "U1", "unsafe-missing-safety-comment", HINT_U1_WHY);
            }
        }
    }

    // C1: charge coverage in the hot-path modules.
    fn rule_c1(&mut self) {
        if !self.cfg.charged(self.rel) {
            return;
        }
        let fns = self.functions();
        // A function charges if its body names a charge call directly, or
        // (fixpoint) calls a same-file function that does.
        let mut charges: BTreeMap<&str, bool> = BTreeMap::new();
        for f in &fns {
            let direct = f.calls.iter().any(|c| CHARGE_CALLS.contains(&c.as_str()));
            // Last definition wins on duplicate names (good enough: the
            // hot-path modules do not shadow function names across impls
            // with different charging behavior).
            charges.insert(f.name.as_str(), direct);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for f in &fns {
                if charges.get(f.name.as_str()) == Some(&true) {
                    continue;
                }
                if f.calls
                    .iter()
                    .any(|c| charges.get(c.as_str()) == Some(&true))
                {
                    charges.insert(f.name.as_str(), true);
                    changed = true;
                }
            }
        }
        let hits: Vec<usize> = fns
            .iter()
            .filter(|f| f.is_pub && charges.get(f.name.as_str()) != Some(&true))
            .map(|f| f.line)
            .filter(|&line| !self.lx.justified(line - 1, UNCHARGED_WINDOW, "charged:"))
            .collect();
        for line in hits {
            self.emit(line, "C1", "uncharged-public-fn", HINT_C1);
        }
    }

    /// Every `fn` item in the file, with its called names (idents followed
    /// by `(`, including method names after `.`).
    fn functions(&self) -> Vec<FnInfo> {
        let toks = &self.lx.toks;
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if !(toks[i].kind == TokKind::Ident
                && toks[i].text == "fn"
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident))
            {
                i += 1;
                continue;
            }
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // `pub fn` (not `pub(crate) fn`, which is internal API), with
            // `const` / `async` modifiers allowed between.
            let mut k = i as isize - 1;
            while k >= 0 && matches!(toks[k as usize].text.as_str(), "const" | "async") {
                k -= 1;
            }
            let is_pub = k >= 0 && toks[k as usize].text == "pub";
            // The body `{` (a trait declaration ends at `;` and has none).
            let open = fn_header_end(toks, i + 2);
            if toks.get(open).map(|t| t.text.as_str()) != Some("{") {
                i += 2;
                continue;
            }
            let end = brace_end(toks, open);
            let calls: BTreeSet<String> = toks[open + 1..end.saturating_sub(1)]
                .iter()
                .zip(&toks[open + 2..end])
                .filter(|(a, b)| a.kind == TokKind::Ident && b.text == "(")
                .map(|(a, _)| a.text.clone())
                .collect();
            out.push(FnInfo {
                name,
                line,
                is_pub,
                calls,
            });
            // Continue *inside* the body too: nested fns/closures are rare
            // but scanning from the token after `fn name` keeps them.
            i += 2;
        }
        out
    }
}

struct FnInfo {
    name: String,
    line: usize,
    is_pub: bool,
    calls: BTreeSet<String>,
}

const HINT_D1_TIME: &str =
    "kernel time is virtual: charge spin_sal::Clock, never read the wall clock";
const HINT_D1_RAND: &str =
    "randomness must be seeded and replayable: draw from spin_fault::FaultPlan / SplitMix64";
const HINT_D1_TID: &str =
    "OS thread identity is nondeterministic: key on the shard/strand id from the executor";
const HINT_D1_ENV: &str =
    "kernel code must not read ambient env/fs state: thread configuration in explicitly";
const HINT_D2: &str =
    "hash iteration order is nondeterministic: use BTreeMap/BTreeSet, or collect and sort";
const HINT_F1: &str =
    "import via spin_check::sync so --cfg spin_check can instrument this primitive";
/// The line of each `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}`
/// token sequence: a site O1 wants justified and `ordering_sites` counts.
/// A comment or a string naming one is no token sequence, so no site.
fn ordering_sites(lx: &Lexed) -> impl Iterator<Item = usize> + '_ {
    const ORDS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    (0..lx.toks.len())
        .filter(|&i| {
            lx.toks[i].text == "Ordering"
                && lx.toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
                && lx
                    .toks
                    .get(i + 2)
                    .is_some_and(|t| ORDS.contains(&t.text.as_str()))
        })
        .map(|i| lx.toks[i].line)
}

const HINT_O1: &str = "add an `// ordering:` comment (same line or the 2 above) naming the pairing";
const HINT_U1_WHERE: &str =
    "unsafe lives only in lint.toml-allowlisted islands; move it there or make it safe";
const HINT_U1_WHY: &str = "add a `// SAFETY:` comment (same line or the 5 above) proving the claim";
const HINT_C1: &str = "hot-path API must charge the Clock (charge/raise) or carry an \
    `// uncharged:` (zero-cost by design) / `// charged:` (charge is behind a call) justification";

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Lint one file's source text; `rel` is its workspace-relative path.
pub fn lint_source(rel: &str, src: &str, cfg: &Config, findings: &mut Vec<Finding>) {
    lint_lexed(rel, &lex(src), src, cfg, findings);
}

fn lint_lexed(rel: &str, lx: &Lexed, src: &str, cfg: &Config, findings: &mut Vec<Finding>) {
    let mut fl = FileLint {
        rel,
        lx,
        raw_lines: src.lines().collect(),
        cfg,
        seen: BTreeSet::new(),
        findings,
    };
    fl.run();
}

/// The test crate's own fixture corpus: data, not code, so the reference
/// walk skips it.
const FIXTURE_DIR: &str = "lint_fixtures";

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !path.ends_with(FIXTURE_DIR) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every `crates/<name>` directory, sorted.
fn crate_dirs(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    subdirs(&root.join("crates"))
}

/// Every directory directly under `dir` (none if it is missing), sorted.
fn subdirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    if dir.is_dir() {
        dirs = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
    }
    Ok(dirs)
}

/// One lexed file of the workspace walk.
struct SourceFile {
    rel: String,
    text: String,
    lx: Lexed,
}

fn read_tree(root: &Path, dirs: &[PathBuf]) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        walk(dir, &mut paths)?;
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)?;
            Ok(SourceFile {
                rel: rel_path(root, p),
                lx: lex(&text),
                text,
            })
        })
        .collect()
}

/// Run the full lint rooted at a workspace directory (the repo root or a
/// fixture laid out the same way) with an explicit config.
fn lint_workspace_with(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let crates = crate_dirs(root)?;
    // The per-file rules run over `crates/*/src` and the root `src/`; P1
    // and P2 also read every other place the crates are named from.
    let mut linted: Vec<PathBuf> = crates.iter().map(|c| c.join("src")).collect();
    linted.push(root.join("src"));
    let mut files = read_tree(root, &linted)?;
    let files_scanned = files.len();
    let mut findings = Vec::new();
    let mut ordering: BTreeMap<String, usize> = BTreeMap::new();
    for f in &files {
        lint_lexed(&f.rel, &f.lx, &f.text, cfg, &mut findings);
        if let ["crates", name, "src", ..] = f.rel.split('/').collect::<Vec<_>>()[..] {
            *ordering.entry(name.to_string()).or_default() += ordering_sites(&f.lx).count();
        }
    }
    let mut readers: Vec<PathBuf> = Vec::new();
    for c in &crates {
        readers.extend(TARGET_DIRS.iter().map(|d| c.join(d)));
    }
    readers.extend(TARGET_DIRS.iter().map(|d| root.join(d)));
    readers.push(root.join("perf/src"));
    files.extend(read_tree(root, &readers)?);

    let surface = rule_p1(&files, cfg, &mut findings);
    // P2 reads the root package's manifest too: its prefix is "".
    let mut manifests: Vec<PathBuf> = crates.iter().map(|c| c.join("Cargo.toml")).collect();
    manifests.push(root.join("Cargo.toml"));
    for manifest in manifests {
        if manifest.is_file() {
            rule_p2(root, &manifest, &files, cfg, &mut findings)?;
        }
    }
    rule_p2_workspace(root, cfg, &mut findings)?;
    // U1 crate-root check: every crate must pin its unsafe posture. A
    // crate containing an allowlisted unsafe island declares
    // `#![deny(unsafe_op_in_unsafe_fn)]`; every other crate forbids
    // unsafe outright. Fully-waived crates (the tool, the benches) are
    // skipped.
    for src_dir in crates.iter().map(|c| c.join("src")) {
        let lib = src_dir.join("lib.rs");
        if !lib.is_file() {
            continue;
        }
        let rel = rel_path(root, &lib);
        if cfg.waived("U1", &rel) {
            continue;
        }
        let crate_rel = rel_path(root, &src_dir);
        let has_island = cfg
            .allow
            .iter()
            .any(|a| a.rule == "U1" && a.path.starts_with(&crate_rel));
        let required = if has_island {
            "#![deny(unsafe_op_in_unsafe_fn)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        let src = std::fs::read_to_string(&lib)?;
        if !src.contains(required) {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: 1,
                rule: "U1",
                detail: "missing-crate-unsafe-lint",
                excerpt: format!("crate root lacks {required}"),
                hint: HINT_U1_WHERE,
            });
        }
    }
    findings.sort();
    findings.dedup();
    Ok(Report {
        findings,
        allow_entries: cfg.allow.len(),
        files_scanned,
        pub_items: surface.pub_items,
        shared_names: surface.shared_names,
        shared: surface.shared,
        ordering_sites: ordering,
        paper_exemptions: surface.paper_exemptions,
    })
}

// ---------------------------------------------------------------------------
// Workspace rules: P1 dead `pub` surface, P2 unused dependencies
// ---------------------------------------------------------------------------

/// The directories besides `src` that build against a crate's surface.
const TARGET_DIRS: [&str; 3] = ["tests", "benches", "examples"];
/// The item kinds P1 indexes after a plain `pub`.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
/// How far above a `pub` item its `// paper:` exemption may sit.
const PAPER_WINDOW: usize = 2;

/// What P1 measured besides its findings: the report's surface counts.
#[derive(Default)]
struct Surface {
    pub_items: BTreeMap<String, usize>,
    /// Per crate, the items kept only because their name is declared twice.
    shared_names: BTreeMap<String, usize>,
    /// Those items, as `file:line: name`.
    shared: Vec<String>,
    paper_exemptions: usize,
}

/// A plain `pub` item under `crates/*/src`, outside `#[cfg(test)]`.
struct PubItem {
    name: String,
    file: usize,
    line: usize,
    /// The names other modules see through it.
    sig: BTreeSet<String>,
    paper: bool,
    /// Declared in an inherent `impl`: a signature naming it names
    /// something else (a binding, another type's member), never it.
    in_impl: bool,
    /// For an associated function of an inherent `impl` that takes no
    /// `self`: its type, the only path another crate can call it by.
    assoc_of: Option<String>,
}

/// `crates/<name>/src/..` → `Some(name)`, the library crate the file
/// belongs to; `None` for every other file, `src/bin/` included (each bin
/// is a crate of its own, outside the library it calls).
fn lib_crate(rel: &str) -> Option<&str> {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("crates"), _, Some("src"), Some("bin")) => None,
        (Some("crates"), Some(name), Some("src"), _) => Some(name),
        _ => None,
    }
}

/// Index after the `}` matching the `{` at `open`.
fn brace_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Index after the item starting at `from`: its `;`, or its `{ .. }` body.
fn item_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return j + 1,
            "{" if depth == 0 => return brace_end(toks, j),
            _ => {}
        }
    }
    toks.len()
}

/// Index of the `{` or `;` ending the `fn` header at `from`.
fn fn_header_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth -= 1,
            ">" if toks[j - 1].text != "-" => depth -= 1,
            "{" | ";" if depth <= 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

/// The names a `pub` item exposes, from its kind keyword at `kind` (its
/// body starts at `from`): a `fn` up to its body, a `const` or `static` up
/// to its value, a struct's header and `pub` fields, any other item whole.
fn signature(toks: &[Tok], kind: usize, from: usize) -> BTreeSet<String> {
    let end = item_end(toks, from);
    // A name followed by a lone `:` is a binding — a parameter, field or
    // generic — and names no item.
    let names = |range: Range<usize>| {
        range
            .filter(|&j| {
                toks[j].kind == TokKind::Ident && toks.get(j + 1).is_none_or(|n| n.text != ":")
            })
            .map(|j| toks[j].text.clone())
    };
    match toks[kind].text.as_str() {
        "fn" => names(kind..fn_header_end(toks, from)).collect(),
        "const" | "static" => {
            let value = (from..end).find(|&j| toks[j].text == "=");
            names(kind..value.unwrap_or(end)).collect()
        }
        "struct" => {
            let mut angle = 0i32;
            let Some(open) = (from..end).find(|&j| {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                angle == 0 && matches!(toks[j].text.as_str(), "{" | "(" | ";")
            }) else {
                return names(kind..end).collect();
            };
            let mut out: BTreeSet<String> = names(kind..open).collect();
            let (mut depth, mut field) = (0i32, open + 1);
            for j in open + 1..end {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ">" if toks[j - 1].text == "-" => {}
                    ")" | "]" | "}" | ">" if depth > 0 => depth -= 1,
                    "," | ")" | "}" if depth == 0 => {
                        let pub_field = (field..j).any(|k| {
                            toks[k].text == "pub" && toks.get(k + 1).is_some_and(|t| t.text != "(")
                        });
                        if pub_field {
                            out.extend(names(field..j));
                        }
                        field = j + 1;
                    }
                    _ => {}
                }
            }
            out
        }
        _ => names(kind..end).collect(),
    }
}

/// Which tokens lie inside a `#[cfg(test)]` item (all of them under a
/// file-level `#![cfg(test)]`).
fn test_mask(lx: &Lexed) -> Vec<bool> {
    let mut mask = vec![false; lx.toks.len()];
    let mut i = 0;
    while i < lx.toks.len() {
        if lx.seq_at(i, &["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
            mask.fill(true);
            break;
        }
        if lx.seq_at(i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            let end = item_end(&lx.toks, i + 7);
            mask[i..end].fill(true);
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// Index after the `<..>` generics opening at `at`, or `at` if none does.
fn skip_generics(toks: &[Tok], at: usize) -> usize {
    if toks.get(at).is_none_or(|t| t.text != "<") {
        return at;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(at) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" if toks[j - 1].text != "-" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// The body range and self type of every inherent `impl` block in `toks`
/// (`impl<T> a::Queue<T> where .. {` → `Queue`); trait impls and a
/// macro's `impl $name` are left out.
fn inherent_impls(toks: &[Tok]) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let at_item = i == 0 || matches!(toks[i - 1].text.as_str(), "}" | ";" | "]" | "{");
        if toks[i].text != "impl" || !at_item {
            continue;
        }
        let mut j = skip_generics(toks, i + 1);
        let mut ty = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "for" => ty = None,
                "{" | "where" => break,
                "<" => {
                    j = skip_generics(toks, j);
                    continue;
                }
                // A macro's `impl $name` has no type to resolve.
                _ if t.kind == TokKind::Ident => {
                    ty = (toks[j - 1].text != "$").then(|| t.text.clone());
                }
                _ => {}
            }
            j += 1;
        }
        let is_trait_impl = (i + 1..j).any(|k| toks[k].text == "for");
        let Some(open) = (j..toks.len()).find(|&k| toks[k].text == "{") else {
            break;
        };
        if let (Some(ty), false) = (ty, is_trait_impl) {
            out.push((open..brace_end(toks, open), ty));
        }
    }
    out
}

/// Whether the `fn` named at `name` takes `self` (`self`, `&self`,
/// `&'a mut self`, `self: Arc<Self>`).
fn takes_self(toks: &[Tok], name: usize) -> bool {
    let open = skip_generics(toks, name + 1);
    toks[open + 1..]
        .iter()
        .take_while(|t| !matches!(t.text.as_str(), "," | ")"))
        .any(|t| t.text == "self")
}

/// The plain `pub` items of file `file` (`pub(..)` and `pub use` are not
/// items of this kind; a trait impl's members carry no `pub`).
fn pub_items(file: usize, lx: &Lexed, mask: &[bool]) -> Vec<PubItem> {
    let toks = &lx.toks;
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    let impls = inherent_impls(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident || toks[i].text != "pub" {
            continue;
        }
        let mut j = i + 1;
        if text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe" | "async" | "extern") {
            j += 1;
        }
        while matches!(text(j), "async" | "unsafe") {
            j += 1;
        }
        if text(j) == "extern" {
            j += 1 + usize::from(toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Lit));
        }
        let kind = j;
        if !ITEM_KINDS.contains(&text(kind)) {
            continue;
        }
        if text(j) == "static" && text(j + 1) == "mut" {
            j += 1;
        }
        let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let line = toks[i].line;
        let paper = (line.saturating_sub(1 + PAPER_WINDOW)..line).any(|n| {
            lx.comments
                .get(n)
                .is_some_and(|c| c.trim().starts_with("paper:"))
        });
        let owner = impls.iter().find(|(body, _)| body.contains(&i));
        let assoc_of = owner
            .filter(|_| text(kind) == "fn" && !takes_self(toks, j + 1))
            .map(|(_, ty)| ty.clone());
        out.push(PubItem {
            name: name.text.clone(),
            file,
            line,
            sig: signature(toks, kind, j + 2),
            paper,
            in_impl: owner.is_some(),
            assoc_of,
        });
    }
    out
}

/// P1: a plain `pub` item under `crates/*/src` must be named from outside
/// its crate — another crate's `src`, any crate's `tests`/`benches`/
/// `examples` (its own included), a `src/bin/` file, the root package or
/// `perf/src` — by something other than a `pub use`, which only passes a
/// name on (a plain `use`, such as a trait import, is a use). An inherent
/// associated function without `self` must be named as `Type::name`, the
/// only way another crate can call it. Another name declared more than
/// once is not guessed: if some other crate names it, every item so
/// named is kept, and counted (with what only it keeps) as kept only by a
/// shared name; if none does, each is a finding. A type is also live when
/// a live item of its crate names it in its signature (narrowing it would
/// fail `private_interfaces`), and no signature keeps an `impl` member; a
/// `// paper:` comment in the two lines above exempts an interface the
/// paper or README describes.
fn rule_p1(files: &[SourceFile], cfg: &Config, findings: &mut Vec<Finding>) -> Surface {
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut paths_in: BTreeMap<(&str, &str), BTreeSet<usize>> = BTreeMap::new();
    let mut declared: BTreeMap<&str, usize> = BTreeMap::new();
    let mut items = Vec::new();
    for (f, file) in files.iter().enumerate() {
        let toks = &file.lx.toks;
        // A declaration inside `#[cfg(test)]` is not another item of that
        // name: a test helper must not make a `pub` item a shared name.
        let mask = test_mask(&file.lx);
        // A `pub use` re-exports and does not use: nothing between it and
        // its `;` counts as a reference.
        let mut reexport = false;
        for (i, t) in toks.iter().enumerate() {
            if t.text == ";" {
                reexport = false;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "pub" && toks.get(i + 1).is_some_and(|n| n.text == "use") {
                reexport = true;
            }
            if reexport {
                continue;
            }
            named_in.entry(t.text.as_str()).or_default().insert(f);
            if !mask[i] && ITEM_KINDS.contains(&t.text.as_str()) {
                if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    *declared.entry(n.text.as_str()).or_default() += 1;
                }
            }
            // `Type::name` and `Type::<T>::name`.
            if toks.get(i + 1).is_some_and(|n| n.text == "::") {
                let mut j = skip_generics(toks, i + 2);
                if j > i + 2 && toks.get(j).is_some_and(|n| n.text == "::") {
                    j += 1;
                }
                if let Some(n) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                    paths_in
                        .entry((t.text.as_str(), n.text.as_str()))
                        .or_default()
                        .insert(f);
                }
            }
        }
        if lib_crate(&file.rel).is_some() {
            items.extend(pub_items(f, &file.lx, &mask));
        }
    }
    let krate = |f: usize| lib_crate(&files[f].rel);
    let outside = |it: &PubItem, in_files: Option<&BTreeSet<usize>>| {
        in_files.is_some_and(|fs| fs.iter().any(|&f| krate(f) != krate(it.file)))
    };
    // A name declared twice that another crate names may be a use of
    // either declaration: such an item is kept, but only by a shared name.
    let shared_name = |it: &PubItem| {
        it.assoc_of.is_none()
            && declared.get(it.name.as_str()) > Some(&1)
            && outside(it, named_in.get(it.name.as_str()))
    };
    // Fixpoint: a live item keeps the same-crate items its signature names
    // (other than itself and the members of an `impl`).
    let keep = |live: &mut Vec<bool>| {
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..items.len() {
                if !live[a] {
                    continue;
                }
                for b in 0..items.len() {
                    if !live[b]
                        && a != b
                        && !items[b].in_impl
                        && krate(items[b].file) == krate(items[a].file)
                        && items[a].sig.contains(&items[b].name)
                    {
                        live[b] = true;
                        changed = true;
                    }
                }
            }
        }
    };
    let mut sure: Vec<bool> = items
        .iter()
        .map(|it| {
            it.paper
                || match &it.assoc_of {
                    Some(ty) => outside(it, paths_in.get(&(ty.as_str(), it.name.as_str()))),
                    None => !shared_name(it) && outside(it, named_in.get(it.name.as_str())),
                }
        })
        .collect();
    keep(&mut sure);
    let mut live: Vec<bool> = items
        .iter()
        .zip(&sure)
        .map(|(it, &sure)| sure || shared_name(it))
        .collect();
    keep(&mut live);
    let mut surface = Surface {
        paper_exemptions: items.iter().filter(|it| it.paper).count(),
        ..Surface::default()
    };
    for (b, it) in items.iter().enumerate() {
        let file = &files[it.file];
        let name = lib_crate(&file.rel).expect("indexed under crates/*/src");
        *surface.pub_items.entry(name.to_string()).or_default() += 1;
        let shared = surface.shared_names.entry(name.to_string()).or_default();
        if live[b] && !sure[b] {
            *shared += 1;
            surface
                .shared
                .push(format!("{}:{}: {}", file.rel, it.line, it.name));
        } else if !live[b] && !cfg.waived("P1", &file.rel) {
            findings.push(Finding {
                file: PathBuf::from(&file.rel),
                line: it.line,
                rule: "P1",
                detail: "unreferenced-pub-item",
                excerpt: file.text.lines().nth(it.line - 1).unwrap_or("").into(),
                hint: HINT_P1,
            });
        }
    }
    surface
}

/// P2: every `[dependencies]` entry of a crate is named by its `src`, and
/// every `[dev-dependencies]` entry by its `src`, `tests`, `benches` or
/// `examples` (`spin-core` is written `spin_core`). The root package's
/// manifest is read the same way, its directories unprefixed; its
/// `[workspace.dependencies]` are [`rule_p2_workspace`]'s.
fn rule_p2(
    root: &Path,
    manifest: &Path,
    files: &[SourceFile],
    cfg: &Config,
    findings: &mut Vec<Finding>,
) -> std::io::Result<()> {
    let rel = rel_path(root, manifest);
    if cfg.waived("P2", &rel) {
        return Ok(());
    }
    let krate = rel.trim_end_matches("Cargo.toml");
    let names = |dirs: &[&str]| -> BTreeSet<&str> {
        files
            .iter()
            .filter(|f| {
                dirs.iter()
                    .any(|d| f.rel.starts_with(&format!("{krate}{d}/")))
            })
            .flat_map(|f| f.lx.toks.iter())
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    };
    let src = names(&["src"]);
    let all = names(&["src", "tests", "benches", "examples"]);
    let text = std::fs::read_to_string(manifest)?;
    for (section, n, raw, dep) in manifest_entries(&text) {
        let (named, detail, hint) = match section {
            "[dependencies]" => (&src, "unused-dependency", HINT_P2),
            "[dev-dependencies]" => (&all, "unused-dev-dependency", HINT_P2_DEV),
            _ => continue,
        };
        if !named.contains(dep.replace('-', "_").as_str()) {
            findings.push(Finding {
                file: PathBuf::from(&rel),
                line: n + 1,
                rule: "P2",
                detail,
                excerpt: raw.into(),
                hint,
            });
        }
    }
    Ok(())
}

/// Each entry of a manifest as `(section header, line index, raw line,
/// declared name)`: the name is what precedes a line's first `=`, `.` or
/// space.
fn manifest_entries(text: &str) -> Vec<(&str, usize, &str, &str)> {
    let mut section = "";
    let mut entries = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
        } else if let Some(name) = line
            .split(['=', '.', ' '])
            .next()
            .filter(|d| !d.is_empty() && !d.starts_with('#'))
        {
            entries.push((section, n, raw, name));
        }
    }
    entries
}

/// P2 over the root manifest's `[workspace.dependencies]`: an entry that
/// neither the root package nor a member its `members` line names (`dir`
/// or `dir/*`) inherits with `workspace = true` is unused.
fn rule_p2_workspace(
    root: &Path,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) -> std::io::Result<()> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || cfg.waived("P2", "Cargo.toml") {
        return Ok(());
    }
    let text = std::fs::read_to_string(&manifest)?;
    let mut members = vec![root.to_path_buf()];
    let patterns = text.lines().find(|l| l.trim_start().starts_with("members"));
    for pattern in patterns.unwrap_or("").split('"').skip(1).step_by(2) {
        match pattern.strip_suffix("/*") {
            Some(prefix) => members.extend(subdirs(&root.join(prefix))?),
            None => members.push(root.join(pattern)),
        }
    }
    let mut inherited = BTreeSet::new();
    for member in members.iter().map(|m| m.join("Cargo.toml")) {
        if !member.is_file() {
            continue;
        }
        let member_text = std::fs::read_to_string(member)?;
        for (section, _, raw, dep) in manifest_entries(&member_text) {
            let spaced: String = raw.split_whitespace().collect();
            if section.ends_with("dependencies]")
                && section != "[workspace.dependencies]"
                && spaced.contains("workspace=true")
            {
                inherited.insert(dep.to_string());
            }
        }
    }
    for (section, n, raw, dep) in manifest_entries(&text) {
        if section == "[workspace.dependencies]" && !inherited.contains(dep) {
            findings.push(Finding {
                file: PathBuf::from("Cargo.toml"),
                line: n + 1,
                rule: "P2",
                detail: "unused-workspace-dependency",
                excerpt: raw.into(),
                hint: HINT_P2_WORKSPACE,
            });
        }
    }
    Ok(())
}

const HINT_P1: &str = "nothing outside this crate names it: delete it, or narrow it to private \
    or pub(crate); a `// paper:` comment exempts only an interface PAPER.md or README.md describes";
const HINT_P2: &str = "the crate's src never names this dependency: drop it from [dependencies]";
const HINT_P2_WORKSPACE: &str =
    "no member manifest inherits this entry with `workspace = true`: drop it from [workspace.dependencies]";
const HINT_P2_DEV: &str =
    "no src, test, bench or example names this dev-dependency: drop it from [dev-dependencies]";

/// Run the full lint with the workspace's own `lint.toml`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let cfg =
        Config::load(root).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    lint_workspace_with(root, &cfg)
}

/// The `spin-lint` CLI driver: `[--root <dir>] [--json] [--shared]`, exit
/// 0 clean / 1 findings / 2 usage-or-IO error. `--shared` lists the items
/// P1 keeps only by a shared name instead (`scripts/pub_sweep.sh` reads it).
pub fn cli_run(args: impl Iterator<Item = String>) -> std::process::ExitCode {
    use std::process::ExitCode;
    let tool = "spin-lint";
    let mut args = args;
    let mut root = None;
    let (mut json, mut shared) = (false, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--shared" => shared = true,
            other => {
                eprintln!("{tool}: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| {
        let mut dir = std::env::current_dir().ok()?;
        loop {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                return Some(dir);
            }
            if !dir.pop() {
                return None;
            }
        }
    });
    let Some(root) = root else {
        eprintln!("{tool}: no workspace root found (use --root)");
        return ExitCode::from(2);
    };
    match lint_workspace(&root) {
        Ok(report) => {
            if shared {
                for item in &report.shared {
                    println!("{item}");
                }
                return ExitCode::SUCCESS;
            }
            if json {
                print!("{}", report.to_json());
            } else {
                for f in &report.findings {
                    println!("{f}");
                }
            }
            if report.findings.is_empty() {
                if !json {
                    println!(
                        "{tool}: OK ({} files, {} allow entries, {})",
                        report.files_scanned,
                        report.allow_entries,
                        root.display()
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("{tool}: {} finding(s)", report.findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{tool}: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        lint_source(rel, src, &Config::default(), &mut f);
        f.sort();
        f
    }

    fn run_cfg(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        let mut f = Vec::new();
        lint_source(rel, src, cfg, &mut f);
        f.sort();
        f
    }

    #[test]
    fn d1_flags_wall_clock_and_randomness() {
        let f = run(
            "crates/core/src/x.rs",
            "use std::time::Instant;\nlet r = thread_rng();\nlet id = std::thread::current().id();\nlet h = std::env::var(\"HOME\");\n",
        );
        let details: Vec<_> = f.iter().map(|f| (f.line, f.detail)).collect();
        assert_eq!(
            details,
            [
                (1, "wall-clock"),
                (2, "ambient-randomness"),
                (3, "thread-identity"),
                (4, "ambient-environment"),
            ],
            "{f:?}"
        );
    }

    #[test]
    fn d1_ignores_strings_and_comments() {
        let f = run(
            "crates/core/src/x.rs",
            "// std::time::Instant would be bad\nlet s = \"std::time::Instant\";\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d2_flags_iteration_over_hash_containers() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn a(&self) { for (k, v) in self.m.iter() { let _ = (k, v); } }\n\
                   fn b(&self) { let _: Vec<u32> = self.m.keys().copied().collect(); }\n\
                   fn c(&mut self) { self.m.retain(|_, v| *v > 0); }\n\
                   }\n";
        let f = run("crates/core/src/x.rs", src);
        let lines: Vec<_> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5, 6], "{f:?}");
        assert!(f.iter().all(|f| f.rule == "D2"));
    }

    #[test]
    fn d2_sees_through_locks_and_aliases() {
        let src = "use std::collections::HashMap;\n\
                   type Waiters = HashMap<u32, u32>;\n\
                   struct S { w: Mutex<Waiters> }\n\
                   impl S {\n\
                   fn a(&self) { for x in self.w.lock().values() { let _ = x; } }\n\
                   }\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn d2_judges_a_chain_by_its_innermost_receiver() {
        let src = "use std::collections::HashMap;\n\
                   struct Inner { v: Mutex<Vec<u32>>, m: Mutex<HashMap<u32, u32>> }\n\
                   fn a() {\n\
                   let inner = Arc::new(Inner { v: Mutex::new(Vec::new()), m: Mutex::new(HashMap::new()) });\n\
                   let _: u32 = inner.v.lock().iter().sum();\n\
                   for x in inner.v.lock().iter() { let _ = x; }\n\
                   for x in inner.m.lock().values() { let _ = x; }\n\
                   let fresh = HashMap::<u32, Vec<u32>>::with_capacity(4);\n\
                   let _ = fresh.keys().count();\n\
                   }\n";
        let f = run("crates/core/src/x.rs", src);
        let lines: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(lines, [("D2", 7), ("D2", 9)], "{f:?}");
    }

    #[test]
    fn d2_lookups_and_vec_iteration_are_clean() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32>, v: Vec<u32> }\n\
                   impl S {\n\
                   fn a(&self) -> Option<&u32> { self.m.get(&1) }\n\
                   fn b(&self) { for x in self.v.iter() { let _ = x; } }\n\
                   fn c(&self) { for i in 0..self.m.len() { let _ = i; } }\n\
                   }\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn f1_flags_direct_sync_everywhere() {
        for rel in ["crates/net/src/x.rs", "crates/swap/src/x.rs", "src/lib.rs"] {
            let f = run(
                rel,
                "use parking_lot::Mutex;\nuse std::sync::atomic::AtomicU64;\n",
            );
            assert_eq!(f.len(), 2, "{rel}: {f:?}");
            assert!(f.iter().all(|f| f.rule == "F1"));
        }
    }

    #[test]
    fn o1_token_accurate() {
        // A user type named `MyOrdering` must not match; bare `Ordering::X`
        // without a justification must.
        let f = run(
            "crates/core/src/x.rs",
            "a.load(MyOrdering::Acquire);\nb.load(Ordering::Acquire);\nc.load(Ordering::Release); // ordering: pairs with b\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "O1");
    }

    /// What `ordering_sites` counts: the token sequence, not its text in a
    /// comment, a doc comment or a string.
    #[test]
    fn a_comment_or_string_naming_an_ordering_is_no_site() {
        let src = "// Ordering::Relaxed\n/// Ordering::SeqCst\nlet s = \"Ordering::Relaxed\";\n\
                   x.load(Ordering::Acquire); // ordering: the one site\n";
        assert_eq!(ordering_sites(&lex(src)).collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn u1_allowlist_still_requires_safety() {
        let mut cfg = Config::default();
        cfg.allow.push(AllowEntry {
            rule: "U1".into(),
            path: "crates/obs/src/ring.rs".into(),
            reason: "island".into(),
        });
        let f = run_cfg("crates/obs/src/ring.rs", "unsafe { foo() }\n", &cfg);
        assert_eq!(f[0].detail, "unsafe-missing-safety-comment");
        let f = run_cfg(
            "crates/obs/src/ring.rs",
            "// SAFETY: masked by cap\nunsafe { foo() }\n",
            &cfg,
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run_cfg("crates/net/src/x.rs", "unsafe { foo() }\n", &cfg);
        assert_eq!(f[0].detail, "unsafe-outside-allowlist");
    }

    #[test]
    fn c1_propagates_charges_and_accepts_justifications() {
        let mut cfg = Config::default();
        cfg.charged_modules.push("crates/net/src/stack.rs".into());
        let src = "impl S {\n\
                   pub fn send(&self) { self.push() }\n\
                   fn push(&self) { self.clock.charge(Cost::Work, 10); }\n\
                   pub fn stats(&self) -> u64 { self.count }\n\
                   /// Docs.\n\
                   // uncharged: pure accessor, no packet moves\n\
                   pub fn name(&self) -> &str { &self.name }\n\
                   }\n";
        let f = run_cfg("crates/net/src/stack.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, "C1");
        // Same file not in the charged set: no findings.
        let f = run_cfg("crates/net/src/other.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn config_parses_and_rejects_unknowns() {
        let cfg = Config::parse(
            "# comment\n[[allow]]\nrule = \"*\"\npath = \"crates/bench\"\nreason = \"wall-clock by design\"\n\n[charged]\nmodules = [\n  \"crates/core/src/dispatch.rs\",\n  \"crates/net/src/stack.rs\",\n]\n",
        )
        .expect("parses");
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.charged_modules.len(), 2);
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[[allow]]\nrule = \"Z9\"\npath = \"x\"\nreason = \"r\"\n").is_err());
        assert!(
            Config::parse("[[allow]]\nrule = \"D1\"\n").is_err(),
            "incomplete entry"
        );
    }

    #[test]
    fn report_json_is_stable_and_sorted() {
        let r = Report {
            findings: vec![],
            allow_entries: 3,
            files_scanned: 10,
            pub_items: BTreeMap::from([("core".to_string(), 7)]),
            shared_names: BTreeMap::from([("core".to_string(), 2)]),
            shared: Vec::new(),
            ordering_sites: BTreeMap::from([("core".to_string(), 5)]),
            paper_exemptions: 1,
        };
        let j = r.to_json();
        assert!(j.contains("\"allow_entries\": 3"));
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"pub_items\": {\"core\": 7}"));
        assert!(j.contains("\"shared_names\": {\"core\": 2}"));
        assert!(j.contains("\"ordering_sites\": {\"core\": 5}"));
        assert!(j.contains("\"paper_exemptions\": 1"));
        assert!(
            !j.contains("files_scanned"),
            "golden must not churn on file adds"
        );
    }

    /// P1 over in-memory files: the line of each finding, and the items
    /// counted as kept only by a shared name.
    fn p1(files: &[(&str, &str)]) -> (Vec<usize>, Vec<String>) {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(rel, text)| SourceFile {
                rel: rel.to_string(),
                text: text.to_string(),
                lx: lex(text),
            })
            .collect();
        let mut findings = Vec::new();
        let surface = rule_p1(&files, &Config::default(), &mut findings);
        (findings.iter().map(|f| f.line).collect(), surface.shared)
    }

    #[test]
    fn a_shared_name_keeps_nothing_alive_unless_another_crate_names_it() {
        let lib = "pub struct Ghost;\n\
                   pub struct A;\n\
                   impl A { pub fn make(&self) -> Ghost { Ghost } }\n\
                   pub struct B;\n\
                   impl B { pub fn make(&self) -> Ghost { Ghost } }\n";
        let types = "fn t() { let _ = (k::A, k::B); }\n";
        // Both `make`s and the `Ghost` only they return are dead.
        let (dead, shared) = p1(&[("crates/k/src/lib.rs", lib), ("tests/t.rs", types)]);
        assert_eq!((dead, shared.len()), (vec![1, 3, 5], 0));
        // Once another crate calls a `make`, either may be the one called:
        // both are kept, and so is `Ghost`, all three only by the name.
        let calls = "fn t() { k::A.make(); let _ = k::B; }\n";
        let (dead, shared) = p1(&[("crates/k/src/lib.rs", lib), ("tests/t.rs", calls)]);
        assert_eq!((dead, shared.len()), (vec![], 3), "{shared:?}");
    }

    #[test]
    fn an_associated_function_lives_only_by_its_types_path() {
        let lib = "pub struct A;\n\
                   impl A { pub fn new() -> A { A } }\n\
                   pub struct B;\n\
                   impl B { pub fn new() -> B { B } }\n\
                   impl<T> Q<T> { pub fn empty() -> u8 { 0 } }\n\
                   pub struct Q<T>(T);\n";
        let calls = "fn t() { let _ = k::B::new(); let _ = k::Q::<u8>::empty(); }\n";
        // `A::new` and `A` are dead: `new` is named outside only as `B::new`.
        let (dead, _) = p1(&[("crates/k/src/lib.rs", lib), ("tests/t.rs", calls)]);
        assert_eq!(dead, vec![1, 2]);
    }
}

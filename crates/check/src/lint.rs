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
//!
//! Rules run over the token stream from [`crate::lex`] (string literals,
//! comments and lifetimes can't fool them), across `crates/*/src` plus the
//! root crate's `src/`. Exemptions are declarative: a `lint.toml` at the
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
use std::path::{Path, PathBuf};

use crate::lex::{lex, Lexed, TokKind};

/// Rule identifiers, in report order.
pub const RULES: [&str; 6] = ["C1", "D1", "D2", "F1", "O1", "U1"];

/// How far above a site its justification comment may sit (shared
/// scanner in [`Lexed::justified`]; per-rule windows).
pub const SAFETY_WINDOW: usize = 5;
pub const ORDERING_WINDOW: usize = 2;
pub const UNCHARGED_WINDOW: usize = 6;

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
    fn matches(&self, rule: &str, rel: &str) -> bool {
        (self.rule == "*" || self.rule == rule)
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
    pub fn load(root: &Path) -> Result<Config, String> {
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
}

impl Report {
    /// The machine-readable report `scripts/verify.sh` diffs against
    /// `scripts/goldens/lint_report.json`. Keys sorted, counts per rule,
    /// findings fully expanded. Deliberately excludes `files_scanned`.
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        let mut s = String::from("{\n");
        s.push_str("  \"tool\": \"spin-lint\",\n  \"schema\": 1,\n");
        s.push_str(&format!("  \"allow_entries\": {},\n", self.allow_entries));
        s.push_str("  \"rules\": {");
        let rules: Vec<String> = counts
            .iter()
            .map(|(r, c)| format!("\"{r}\": {c}"))
            .collect();
        s.push_str(&rules.join(", "));
        s.push_str("},\n  \"findings\": [");
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
/// virtual-time advance, or a raise (every raise charges
/// `event_raise_base` inside the dispatcher).
const CHARGE_CALLS: [&str; 4] = ["advance", "raise", "raise_batch", "raise_on"];

struct FileLint<'a> {
    rel: &'a str,
    lx: Lexed,
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
            let lx = &self.lx;
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
        // `name.iter()`-style calls, walking the dotted receiver chain
        // backwards through benign adaptors (`events.lock().iter()`).
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident
                || !ITER_METHODS.contains(&toks[i].text.as_str())
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
                || i == 0
                || toks[i - 1].text != "."
            {
                continue;
            }
            let mut j = i as isize - 2;
            let mut found = false;
            while j >= 0 {
                let t = &toks[j as usize];
                match t.text.as_str() {
                    ")" => {
                        // Skip a call's argument list backwards.
                        let mut depth = 1;
                        j -= 1;
                        while j >= 0 && depth > 0 {
                            match toks[j as usize].text.as_str() {
                                ")" => depth += 1,
                                "(" => depth -= 1,
                                _ => {}
                            }
                            j -= 1;
                        }
                    }
                    "." => j -= 1,
                    _ if t.kind == TokKind::Ident => {
                        if tracked.contains(t.text.as_str()) {
                            found = true;
                            break;
                        }
                        // Continue only through a dotted chain.
                        if j > 0 && toks[j as usize - 1].text == "." {
                            j -= 1;
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            if found {
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
            let expr = &toks[in_at + 1..body_at];
            let names_tracked = expr
                .iter()
                .any(|t| t.kind == TokKind::Ident && tracked.contains(t.text.as_str()));
            if !names_tracked {
                continue;
            }
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
    /// `HashSet` or a local alias of one: struct fields, let bindings
    /// (annotated or `= HashMap::new()`-initialized), fn params.
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
            // `let [mut] name = <expr mentioning a hash word>;`
            if toks[i].kind == TokKind::Ident && toks[i].text == "let" {
                let mut k = i + 1;
                if toks.get(k).map(|t| t.text.as_str()) == Some("mut") {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some("=")
                {
                    let mut j = k + 2;
                    while j < toks.len() && toks[j].text != ";" {
                        if toks[j].kind == TokKind::Ident && hash_words.contains(&toks[j].text) {
                            tracked.insert(toks[k].text.clone());
                            break;
                        }
                        j += 1;
                    }
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
            let lx = &self.lx;
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
        const ORDS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
        let hits: Vec<usize> = {
            let lx = &self.lx;
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
                .filter(|&line| !self.lx.justified(line - 1, ORDERING_WINDOW, "ordering:"))
                .collect()
        };
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
            // Find the body `{` (or `;` for trait declarations).
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "<" => depth += 1,
                    ">" if toks[j - 1].text != "-" => depth -= 1,
                    "{" if depth <= 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body else {
                i += 2;
                continue;
            };
            // Brace-match the body.
            let mut braces = 1i32;
            let mut end = open + 1;
            while end < toks.len() && braces > 0 {
                match toks[end].text.as_str() {
                    "{" => braces += 1,
                    "}" => braces -= 1,
                    _ => {}
                }
                end += 1;
            }
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
    "kernel time is virtual: charge spin_sal::clock::Clock, never read the wall clock";
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
const HINT_O1: &str = "add an `// ordering:` comment (same line or the 2 above) naming the pairing";
const HINT_U1_WHERE: &str =
    "unsafe lives only in lint.toml-allowlisted islands; move it there or make it safe";
const HINT_U1_WHY: &str = "add a `// SAFETY:` comment (same line or the 5 above) proving the claim";
const HINT_C1: &str = "hot-path API must charge the Clock (advance/raise) or carry an \
    `// uncharged:` (zero-cost by design) / `// charged:` (charge is behind a call) justification";

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Lint one file's source text; `rel` is its workspace-relative path.
pub fn lint_source(rel: &str, src: &str, cfg: &Config, findings: &mut Vec<Finding>) {
    let mut fl = FileLint {
        rel,
        lx: lex(src),
        raw_lines: src.lines().collect(),
        cfg,
        seen: BTreeSet::new(),
        findings,
    };
    fl.run();
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
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

fn crate_src_dirs(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut dirs = Vec::new();
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for krate in crate_dirs {
            let src = krate.join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    Ok(dirs)
}

/// Run the full lint rooted at a workspace directory (the repo root or a
/// fixture laid out the same way) with an explicit config.
pub fn lint_workspace_with(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for src in crate_src_dirs(root)? {
        walk(&src, &mut files)?;
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let mut findings = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        lint_source(&rel_path(root, file), &src, cfg, &mut findings);
    }
    // U1 crate-root check: every crate must pin its unsafe posture. A
    // crate containing an allowlisted unsafe island declares
    // `#![deny(unsafe_op_in_unsafe_fn)]`; every other crate forbids
    // unsafe outright. Fully-waived crates (the tool, the benches) are
    // skipped.
    for src_dir in crate_src_dirs(root)? {
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
        files_scanned: files.len(),
    })
}

/// Run the full lint with the workspace's own `lint.toml`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let cfg =
        Config::load(root).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    lint_workspace_with(root, &cfg)
}

/// The `spin-lint` CLI driver: `[--root <dir>] [--json]`, exit 0 clean /
/// 1 findings / 2 usage-or-IO error.
pub fn cli_run(args: impl Iterator<Item = String>) -> std::process::ExitCode {
    use std::process::ExitCode;
    let tool = "spin-lint";
    let mut args = args;
    let mut root = None;
    let mut json = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
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
                   fn push(&self) { self.clock.advance(10); }\n\
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
        };
        let j = r.to_json();
        assert!(j.contains("\"allow_entries\": 3"));
        assert!(j.contains("\"findings\": []"));
        assert!(
            !j.contains("files_scanned"),
            "golden must not churn on file adds"
        );
    }
}

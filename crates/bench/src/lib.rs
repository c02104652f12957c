//! `spin-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation (§5).
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §3 for
//! the index) and prints a paper-vs-measured table. The measured Table
//! 2/3/4/5/6 and §5.5 workloads are defined once, in [`scenario`], for the
//! bins and the invariance matrix alike. Criterion benches in
//! `benches/` measure the *real* (wall-clock) overhead of the dispatcher,
//! linker and collector, independent of the virtual-time calibration.

#![forbid(unsafe_code)]

pub mod scenario;
pub mod storm;

use std::fmt::Write as _;

/// One row of a reproduction table.
pub struct Row {
    /// Operation name (matches the paper's row label).
    pub label: String,
    /// The paper's reported value, if the row has one.
    pub paper: Option<f64>,
    /// Our measured/modelled value.
    pub measured: f64,
}

impl Row {
    /// A row with a paper reference value.
    pub fn new(label: &str, paper: f64, measured: f64) -> Row {
        Row {
            label: label.to_string(),
            paper: Some(paper),
            measured,
        }
    }

    /// A row we report without a paper counterpart.
    pub fn extra(label: &str, measured: f64) -> Row {
        Row {
            label: label.to_string(),
            paper: None,
            measured,
        }
    }
}

/// Renders a comparison table with a measured/paper ratio column.
pub fn render_table(title: &str, unit: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = writeln!(
        out,
        "{:<38} {:>12} {:>12} {:>8}",
        "operation",
        format!("paper ({unit})"),
        format!("ours ({unit})"),
        "ratio"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for r in rows {
        match r.paper {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "{:<38} {:>12.2} {:>12.2} {:>8.2}",
                    r.label,
                    p,
                    r.measured,
                    r.measured / p
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<38} {:>12} {:>12.2} {:>8}",
                    r.label, "-", r.measured, "-"
                );
            }
        }
    }
    out
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// True when the binary was invoked with `--json`: emit `BENCH_<name>.json`
/// beside the human table.
fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip float formatting (Rust's `Display` for `f64`) keeps
/// the JSON deterministic for golden diffs.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Machine-readable companion to [`render_table`]: accumulates the same
/// rows (plus free-form scalar fields) and writes `BENCH_<name>.json` when
/// the binary was run with `--json`.
pub struct JsonReport {
    name: String,
    title: String,
    units: String,
    rows: Vec<(String, Option<f64>, f64)>,
    extras: Vec<(String, String)>,
}

impl JsonReport {
    /// A report named `name` (the file becomes `BENCH_<name>.json`).
    pub fn new(name: &str, title: &str, units: &str) -> JsonReport {
        JsonReport {
            name: name.to_string(),
            title: title.to_string(),
            units: units.to_string(),
            rows: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Appends the table's rows.
    pub fn rows(mut self, rows: &[Row]) -> JsonReport {
        for r in rows {
            self.rows.push((r.label.clone(), r.paper, r.measured));
        }
        self
    }

    /// Appends one row.
    pub fn row(mut self, label: &str, paper: Option<f64>, measured: f64) -> JsonReport {
        self.rows.push((label.to_string(), paper, measured));
        self
    }

    /// Appends a top-level numeric field.
    pub fn number(mut self, key: &str, value: f64) -> JsonReport {
        self.extras.push((key.to_string(), json_f64(value)));
        self
    }

    /// Appends a top-level string field.
    pub fn text(mut self, key: &str, value: &str) -> JsonReport {
        self.extras
            .push((key.to_string(), format!("\"{}\"", json_escape(value))));
        self
    }

    /// Renders the report as a JSON document.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"benchmark\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"title\": \"{}\",", json_escape(&self.title));
        let _ = writeln!(out, "  \"units\": \"{}\",", json_escape(&self.units));
        for (key, value) in &self.extras {
            let _ = writeln!(out, "  \"{}\": {},", json_escape(key), value);
        }
        let _ = writeln!(out, "  \"rows\": [");
        for (i, (label, paper, measured)) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let paper = paper.map_or("null".to_string(), json_f64);
            let _ = writeln!(
                out,
                "    {{ \"label\": \"{}\", \"paper\": {}, \"measured\": {} }}{}",
                json_escape(label),
                paper,
                json_f64(*measured),
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory if the
    /// process was invoked with `--json`; no-op otherwise.
    pub fn write_if_requested(self) {
        if !json_requested() {
            return;
        }
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Counts non-comment, non-blank source lines in a Rust file (the paper's
/// Table 1/7 "lines" column "does not include comments").
pub fn count_code_lines(content: &str) -> usize {
    let mut in_block_comment = false;
    content
        .lines()
        .filter(|line| {
            let t = line.trim();
            if in_block_comment {
                if t.contains("*/") {
                    in_block_comment = false;
                }
                return false;
            }
            if t.is_empty() || t.starts_with("//") {
                return false;
            }
            if t.starts_with("/*") {
                in_block_comment = !t.contains("*/");
                return false;
            }
            true
        })
        .count()
}

/// Sums code lines across the `.rs` files under `dir` (recursively).
pub fn count_dir_lines(dir: &std::path::Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += count_dir_lines(&path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(content) = std::fs::read_to_string(&path) {
                    total += count_code_lines(&content);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_exclude_comments_and_blanks() {
        let src = "// comment\n\nfn main() {\n    /* block\n       comment */\n    let x = 1;\n}\n";
        assert_eq!(count_code_lines(src), 3);
    }

    #[test]
    fn json_report_renders_rows_and_extras() {
        let j = JsonReport::new("demo", "Demo table", "µs")
            .rows(&[Row::new("op", 10.0, 12.5), Row::extra("other", 5.0)])
            .number("rounds", 16.0)
            .text("note", "a \"quoted\" note")
            .render();
        assert!(j.contains("\"benchmark\": \"demo\""));
        assert!(j.contains("\"paper\": 10, \"measured\": 12.5"));
        assert!(j.contains("\"paper\": null, \"measured\": 5"));
        assert!(j.contains("\"rounds\": 16"));
        assert!(j.contains("\\\"quoted\\\""));
    }

    #[test]
    fn table_renders_ratios() {
        let t = render_table(
            "Demo",
            "µs",
            &[Row::new("op", 10.0, 12.0), Row::extra("other", 5.0)],
        );
        assert!(t.contains("1.20"));
        assert!(t.contains("other"));
    }
}

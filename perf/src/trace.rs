//! Harness-side spans: `{id, parent, name, start_ns, end_ns, count}` kept
//! in memory and written out when the run ends. Spans wrap the calls the
//! benchmark makes *into* the program (set-up steps, window slices, probes);
//! spans inside the kernel crates are a later change.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for a root.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered (calls of a probe, ops of a slice).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("id", Value::Num(f64::from(self.id))),
            (
                "parent",
                self.parent
                    .map_or(Value::Null, |p| Value::Num(f64::from(p))),
            ),
            ("name", Value::str(self.name.clone())),
            ("start_ns", Value::Num(self.start_ns as f64)),
            ("end_ns", Value::Num(self.end_ns as f64)),
            ("count", Value::Num(self.count as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.as_u64()? as u32,
            parent: match v.get("parent")? {
                Value::Null => None,
                p => Some(p.as_u64()? as u32),
            },
            name: v.get("name")?.as_str()?.to_string(),
            start_ns: v.get("start_ns")?.as_u64()?,
            end_ns: v.get("end_ns")?.as_u64()?,
            count: v.get("count")?.as_u64()?,
        })
    }
}

/// Records spans when enabled; when disabled `begin`/`end` are two
/// branches and no clock read, so the untraced run pays nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Clone, Copy)]
pub struct SpanHandle(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanHandle {
        if !self.enabled {
            return SpanHandle(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.open.push(id);
        SpanHandle(Some(id))
    }

    /// Closes a span (and any still open beneath it).
    pub fn end(&mut self, handle: SpanHandle, count: u64) {
        let Some(id) = handle.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                self.spans[top as usize].count = count;
                break;
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        let parent = s.parent.and_then(|p| spans.iter().position(|c| c.id == p));
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Re-numbers `spans` to start at `base` and hangs their roots under
/// `parent`, shifting times by `offset_ns`: how the orchestrator grafts a
/// child process's spans into the run's one tree.
pub fn graft(spans: &[Span], base: u32, parent: u32, offset_ns: u64) -> Vec<Span> {
    spans
        .iter()
        .map(|s| Span {
            id: s.id + base,
            parent: Some(s.parent.map_or(parent, |p| p + base)),
            name: s.name.clone(),
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            count: s.count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn self_time_never_underflows() {
        // A child clocked a hair longer than its parent (clock granularity).
        let spans = vec![span(0, None, 0, 10), span(1, Some(0), 0, 12)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(b, 7);
        let c = t.begin("c");
        t.end(c, 0);
        t.end(a, 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(spans[1].count, 7);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("a");
        t.end(a, 3);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_json_and_graft() {
        let s = span(2, Some(1), 5, 9);
        assert_eq!(Span::from_json(&s.to_json()), Some(s.clone()));
        let root = span(0, None, 0, 9);
        assert_eq!(Span::from_json(&root.to_json()), Some(root.clone()));
        let g = graft(&[root, span(1, Some(0), 1, 2)], 10, 3, 1000);
        assert_eq!((g[0].id, g[0].parent, g[0].start_ns), (10, Some(3), 1000));
        assert_eq!((g[1].id, g[1].parent, g[1].end_ns), (11, Some(10), 1002));
    }
}

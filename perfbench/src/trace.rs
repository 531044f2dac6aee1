//! In-memory spans recorded around calls into each layer, and the per-name
//! table (count, p50, p90, total, self time) derived from them.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation (root span) this span belongs to.
    pub op: u64,
    /// Layer call name, e.g. `index.bbs`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread.  A disabled tracer records nothing, so
/// the same code measures the untraced baseline.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Ids are `base + counter`, so tracers of different threads never clash.
    next: u64,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `base`; `enabled = false` records nothing.
    pub fn new(enabled: bool, origin: Instant, base: u64) -> Self {
        Self {
            enabled,
            origin,
            next: base,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; a span opened with nothing else open starts a new
    /// operation.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.next += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        if parent.is_none() {
            self.op = self.next;
        }
        self.open.push(self.spans.len());
        let start_ns = self.now();
        self.spans.push(Span {
            id: self.next,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let value = f();
        self.end();
        value
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Per-name summary of a span set.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Calls recorded.
    pub count: usize,
    /// Durations, nanoseconds.
    pub durations: Samples,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl SpanStats {
    /// Share of the total duration covered by child spans (0 for a leaf).
    pub fn child_cover(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        (self.total_ns - self.self_ns) as f64 / self.total_ns as f64
    }
}

/// Summarises spans by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_insert_with(|| SpanStats {
            count: 0,
            durations: Samples::new(),
            total_ns: 0,
            self_ns: 0,
        });
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        entry.count += 1;
        entry.durations.push(s.ns() as f64);
        entry.total_ns += s.ns();
        entry.self_ns += s.ns().saturating_sub(children);
    }
    out
}

/// Renders spans and their table as the `trace.json` document.  `extra` is
/// spliced in as further top-level members (already-rendered JSON).
pub fn to_json(spans: &[Span], extra: &str) -> String {
    let mut out = String::from("{\n  \"table\": [\n");
    let table = summarize(spans);
    for (i, (name, s)) in table.iter().enumerate() {
        let mut d = s.durations.clone();
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"total_ns\": {}, \"self_ns\": {}, \"child_cover\": {:.4}}}{}",
            s.count,
            d.quantile_unchecked(0.5),
            d.quantile_unchecked(0.9),
            s.total_ns,
            s.self_ns,
            s.child_cover(),
            if i + 1 < table.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str(extra);
    out.push_str("  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the table as aligned text (one row per span name).
pub fn table_text(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>7} {:>11} {:>11} {:>11} {:>11} {:>7}\n",
        "span", "count", "p50_us", "p90_us", "total_ms", "self_ms", "cover"
    );
    for (name, s) in summarize(spans) {
        let cover = s.child_cover();
        let mut d = s.durations;
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>11.2} {:>11.2} {:>11.2} {:>11.2} {:>7.3}",
            name,
            s.count,
            d.quantile_unchecked(0.5) / 1e3,
            d.quantile_unchecked(0.9) / 1e3,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            cover
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_nest() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        t.begin("op");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        t.time("op2", || ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].op, spans[0].id);
        assert_eq!(spans[2].op, spans[2].id);
        let table = summarize(&spans);
        let op = &table["op"];
        assert!(op.self_ns < op.total_ns);
        assert!(op.child_cover() > 0.5 && op.child_cover() <= 1.0);
        assert_eq!(table["child"].child_cover(), 0.0);
        assert!(to_json(&spans, "").contains("\"name\": \"child\""));

        let mut off = Tracer::new(false, Instant::now(), 0);
        off.time("x", || ());
        assert!(off.into_spans().is_empty());
    }
}

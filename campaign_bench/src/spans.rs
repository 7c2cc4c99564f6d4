//! In-memory spans for the traced pass: name, start, end and parent,
//! recorded around calls into each crate's public functions, kept in
//! memory and written once when the pass ends.

use crate::report::json_number;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `hierarchy.access_batch_cycles`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A stack-shaped span recorder (the pass is single-threaded at every
/// span boundary: worker threads only run inside `launch`).
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// the span's wall nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Self time per span name: each span's duration minus the part
    /// its children cover (children never overlap — the recorder is a
    /// stack), summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// The trace document: every span, the self time per name, and the
    /// caller's exact simulated statistics (`stats`, a JSON object).
    pub fn to_json(&self, workload: &str, seed: u64, stats: &str) -> String {
        let mut out = format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("  ],\n  \"self_ms\": {");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", json_number(*ns as f64 / 1e6));
        }
        let _ = write!(out, "}},\n  \"stats\": {stats}\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let ((), total) = spans.time("outer", |s| {
            s.time("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let recorded = &spans.spans;
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].parent, Some(0));
        let self_ns = spans.self_times();
        let inner = recorded[1].end_ns - recorded[1].start_ns;
        assert_eq!(self_ns["inner"], inner);
        assert_eq!(self_ns["outer"], total - inner);
        assert!(spans.to_json("w", 1, "{}").contains("\"parent\": 0"));
    }
}

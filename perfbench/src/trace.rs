//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request)`; spans of one request
//! share the request id. Spans live in memory and are written out once, at
//! the end of the run. A span's *self time* is its duration minus the part
//! covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `daemon.serve_wave`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Request (or set-up) identifier shared by related spans.
    pub request: u64,
}

/// Per-name totals over every span of that name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Σ durations, ns.
    pub total_ns: u64,
    /// Σ self times, ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time in microseconds.
    pub fn self_mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The recorder. A disabled recorder runs the closures and records
/// nothing, so untraced runs read no extra clocks.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id as usize].end = end;
        out
    }

    /// Rename the most recently closed span named `from` (a span whose
    /// class is known only after it ran, e.g. a fast or full mutation).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, over spans whose request id satisfies `keep`.
    pub fn totals(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            if !keep(s.request) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON document: a `names` table and one
    /// `[name, start_ns, end_ns, parent, request]` array per span, where
    /// `name` indexes the table and `parent` is a span index or -1.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let mut out = String::with_capacity(self.spans.len() * 48 + 256);
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let _ = write!(
            out,
            "{{{header},\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":[{}],\"spans\":[",
            quoted.join(",")
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n[{},{},{},{parent},{}]",
                index[s.name], s.start, s.end, s.request
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Nanoseconds one empty span costs to record, measured over `n` spans
/// in a fresh tracer (the per-span tracing overhead).
pub fn span_cost_ns(n: usize) -> f64 {
    let mut t = Tracer::new();
    let start = Instant::now();
    for i in 0..n {
        t.span("calibrate", i as u64, |_| ());
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", 7, |t| {
            t.span("child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals(|_| true);
        let root = totals["root"];
        let child = totals["child"];
        assert_eq!(root.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 7);
    }
}

//! In-memory spans, written out when the run ends.
//!
//! A span records its name, start, end, parent and the id of the request
//! it belongs to; the HTTP call and its replays share that id. A layer's
//! self time is its spans' total duration minus the part their children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.ttfb` or `topk.pruned`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same trace.
    pub parent: Option<usize>,
    /// Request id.
    pub req: u64,
}

/// A span buffer with a common epoch.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, start, end, parent, req);
        (out, end - start)
    }

    /// Moves `other`'s spans into this trace (same epoch assumed).
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per span name: count, total time and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let entry = out.entry(s.name).or_insert((0, Duration::ZERO, Duration::ZERO));
            entry.0 += 1;
            entry.1 += Duration::from_nanos(total);
            entry.2 += Duration::from_nanos(total.saturating_sub(children));
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

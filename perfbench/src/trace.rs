//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, folded into per-layer self time.
//!
//! The program's own tracing (`FBOX_TRACE`) and telemetry
//! (`FBOX_TELEMETRY`) stay off: these spans live in the benchmark only,
//! so an untraced op runs exactly the code a traced one does, minus two
//! clock reads per span.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `core.cube.emd`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to; `None` for set-up and probes.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

/// Span recorder. While disabled, `begin`/`end` record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: Option<u64>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals of a fold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fold {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus what child spans cover, ns.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), op: None, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans recorded from now on with `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must end in the order they began");
        self.spans[idx].end_ns = end_ns;
    }

    /// Records `f` as one span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Folds the spans into per-name count, total and self time.
    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let f = out.entry(s.name).or_default();
            f.count += 1;
            f.total_ns += s.ns();
            f.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                w,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{op}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(outer);
        let f = t.fold();
        let (outer, inner) = (f["outer"], f["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x");
        t.end(o);
        assert!(t.spans().is_empty());
    }
}

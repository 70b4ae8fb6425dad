//! Spans for the traced run, recorded from the benchmark's own code around
//! its calls into each layer.
//!
//! Spans are kept in memory and written when the run ends. A span's parent
//! is the innermost span whose interval contains it (the traced run is
//! single-threaded, so intervals nest exactly), and a layer's self time is
//! its spans' durations minus the part their children cover.

use autocheck_interp::{ExecError, TraceSink};
use autocheck_trace::Record;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read};
use std::sync::Mutex;
use std::time::Instant;

/// Records per block when the traced run pulls, pushes or encodes records:
/// spans are per block, not per record, so tracing stays cheap and small.
pub const BLOCK: usize = 4096;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans. Shared by reference, so a `Read` wrapper handed to the
/// trace layer can record into it too.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<(&'static str, u64, u64)>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A span named `name` that ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            name,
            start: self.now(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// The recorded spans in start order, each with its parent resolved.
    pub fn finish(self) -> Vec<Span> {
        let raw = self.spans.into_inner().expect("a span recorder panicked");
        nest(raw)
    }
}

/// Ends its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push((self.name, self.start, end));
        }
    }
}

/// Sort spans by start (enclosing spans first) and give each the innermost
/// span that contains it as parent.
fn nest(mut raw: Vec<(&'static str, u64, u64)>) -> Vec<Span> {
    raw.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
    let mut spans: Vec<Span> = Vec::with_capacity(raw.len());
    let mut open: Vec<usize> = Vec::new();
    for (name, start, end) in raw {
        while let Some(&top) = open.last() {
            if spans[top].end >= end {
                break;
            }
            open.pop();
        }
        spans.push(Span {
            name,
            start,
            end,
            parent: open.last().copied(),
        });
        open.push(spans.len() - 1);
    }
    spans
}

/// Self time per span name, in nanoseconds, over the tree of the root span
/// named `root` (the root included): each span's duration minus its
/// children's. Spans of other roots do not count.
pub fn self_times(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    // Parents come before their children, so a span's root is known by the
    // time the span is reached.
    let mut roots: Vec<usize> = Vec::with_capacity(spans.len());
    let mut child_time = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        roots.push(s.parent.map_or(i, |p| roots[p]));
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out = BTreeMap::new();
    for ((s, children), r) in spans.iter().zip(child_time).zip(roots) {
        if spans[r].name == root {
            *out.entry(s.name).or_insert(0) += s.duration().saturating_sub(children);
        }
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start, s.end
        );
    }
    out
}

/// A `Read` whose every `read` call is a `trace.read` span.
pub struct TimedRead<'t, R> {
    inner: R,
    tracer: &'t Tracer,
}

impl<'t, R> TimedRead<'t, R> {
    pub fn new(inner: R, tracer: &'t Tracer) -> Self {
        TimedRead { inner, tracer }
    }
}

impl<R: Read> Read for TimedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let _span = self.tracer.span("trace.read");
        self.inner.read(buf)
    }
}

/// A trace sink that hands records to `inner` a block at a time, each block
/// a `trace.encode` span, so interpreter time and encoder time separate
/// without a span per record.
pub struct BlockSink<'t, S> {
    inner: S,
    block: Vec<Record>,
    tracer: &'t Tracer,
}

impl<'t, S: TraceSink> BlockSink<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        BlockSink {
            inner,
            block: Vec::with_capacity(BLOCK),
            tracer,
        }
    }

    /// Hand over the records still buffered.
    pub fn flush(&mut self) -> Result<(), ExecError> {
        let _span = self.tracer.span("trace.encode");
        for rec in self.block.drain(..) {
            self.inner.record(rec)?;
        }
        Ok(())
    }

    /// Flush and return the wrapped sink.
    pub fn into_inner(mut self) -> Result<S, ExecError> {
        self.flush()?;
        Ok(self.inner)
    }
}

impl<S: TraceSink> TraceSink for BlockSink<'_, S> {
    fn record(&mut self, rec: Record) -> Result<(), ExecError> {
        self.block.push(rec);
        if self.block.len() == BLOCK {
            self.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start: u64, end: u64) -> (&'static str, u64, u64) {
        (name, start, end)
    }

    #[test]
    fn parents_are_the_innermost_enclosing_span() {
        let spans = nest(vec![
            raw("read", 12, 14),
            raw("root", 0, 100),
            raw("decode", 10, 20),
            raw("push", 20, 30),
            raw("later", 100, 110),
        ]);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("decode", Some(0)),
                ("read", Some(1)),
                ("push", Some(0)),
                ("later", None),
            ]
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = nest(vec![
            raw("root", 0, 100),
            raw("decode", 10, 20),
            raw("read", 12, 14),
            raw("decode", 30, 40),
            raw("read", 31, 32),
        ]);
        let t = self_times(&spans, "root");
        assert_eq!(t["root"], 80);
        assert_eq!(t["decode"], 17);
        assert_eq!(t["read"], 3);
    }

    #[test]
    fn self_time_counts_only_the_named_root() {
        let spans = nest(vec![
            raw("bench.setup", 0, 50),
            raw("decode", 10, 20),
            raw("bench.timed", 50, 100),
            raw("decode", 60, 65),
            raw("read", 61, 62),
            raw("bench.verify", 100, 120),
            raw("decode", 101, 119),
        ]);
        let t = self_times(&spans, "bench.timed");
        assert_eq!(t["bench.timed"], 45);
        assert_eq!(t["decode"], 4);
        assert_eq!(t["read"], 1);
        assert!(!t.contains_key("bench.setup"));
        assert_eq!(self_times(&spans, "bench.setup")["decode"], 10);
        assert!(self_times(&spans, "missing").is_empty());
    }

    #[test]
    fn guards_record_nested_spans() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || std::hint::black_box(1 + 1));
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(to_json_lines(&spans).contains("\"name\":\"inner\""));
    }
}

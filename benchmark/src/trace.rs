//! Spans recorded from the benchmark's own files, around the calls into
//! each layer's public functions. Spans live in memory while the traced
//! pass runs and are written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: `layer.function` name, start and end in
/// nanoseconds since the tracer was created, and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// An in-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Times one call into a layer as a span; returns its result and
    /// duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let result = call();
        (result, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span; every span of a run carries the
    /// run's workload id.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times_ns(&self.spans);
        let mut line = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                self_ns[id],
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            // Clip to the parent, so a child that outlives it cannot
            // drive the parent's self time below zero.
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 70, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,40) and [30,60) cover [10,60) = 50; a third child
        // overhangs the parent's end and is clipped to [90,100).
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_reports_durations() {
        let mut t = Tracer::new();
        let root = t.begin("root", None);
        let ((), inner_s) = t.time("inner", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_s = t.end(root);
        assert!(inner_s >= 0.002 && root_s >= inner_s);
        assert_eq!(t.spans()[1].parent, Some(root));
        let own = self_times_ns(t.spans());
        assert_eq!(
            own[0],
            (t.spans()[0].end_ns - t.spans()[0].start_ns)
                - (t.spans()[1].end_ns - t.spans()[1].start_ns)
        );
    }
}

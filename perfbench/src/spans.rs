//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self-time arithmetic of the per-layer waterfall.
//!
//! A span has a name (the layer), start and end on one monotonic clock,
//! an optional parent, and the request id it serves. Spans stay in
//! memory until the run ends. A span's *self time* is its duration minus
//! the part of that interval its children cover (overlapping children
//! are counted once); the per-span self times are written out with the
//! spans.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `fd-apk.decompile`.
    pub name: &'static str,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (arrival, app or pass) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A thread-safe span sink with one epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.us(Instant::now())
    }

    /// Converts an instant to microseconds since the epoch (0 if earlier).
    pub fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span sink poisoned by a panicking thread");
        spans.push(Span { name, start_us, end_us: end_us.max(start_us), parent, request });
        spans.len() - 1
    }

    /// Opens a span now; [`Recorder::close`] sets its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_us();
        self.record(name, now, now, parent, request)
    }

    /// Ends an opened span now.
    pub fn close(&self, id: SpanId) {
        let now = self.now_us();
        let mut spans = self.spans.lock().expect("span sink poisoned by a panicking thread");
        spans[id].end_us = now.max(spans[id].start_us);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in record order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned by a panicking thread").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_us;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_us().saturating_sub(covered)
        })
        .collect()
}

/// The share of the `root` spans' time that no child span covers: their
/// summed self time over their summed duration, percent.
pub fn unaccounted_pct(spans: &[Span], root: &str) -> f64 {
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (span, self_us) in spans.iter().zip(self_times(spans)) {
        if span.name == root {
            total += span.dur_us();
            uncovered += self_us;
        }
    }
    if total == 0 {
        100.0
    } else {
        uncovered as f64 * 100.0 / total as f64
    }
}

/// Writes spans as JSON lines (`name`, `start_us`, `end_us`, `parent`,
/// `request`, `self_us`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_us)) in spans.iter().zip(selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{},\"self_us\":{self_us}}}",
            span.name, span.start_us, span.end_us, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_us, end_us, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (a second worker thread): counted once.
            span("b", 30, 60, Some(0)),
            // Runs past the parent's end: clipped.
            span("c", 90, 120, Some(0)),
            span("a.child", 10, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 30, 30, 10]);
        assert!((unaccounted_pct(&spans, "root") - 40.0).abs() < 1e-9);
        assert_eq!(unaccounted_pct(&spans, "absent"), 100.0);
    }

    #[test]
    fn recorder_nests_and_times() {
        let rec = Recorder::new();
        let root = rec.open("root", None, 7);
        let value = rec.time("leaf", Some(root), 7, || 41 + 1);
        rec.close(root);
        assert_eq!(value, 42);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }
}

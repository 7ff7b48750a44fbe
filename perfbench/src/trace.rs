//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that was open when it began (its parent) and an id
//! shared by every span of one frame or operation. Spans are kept in memory
//! and written out once, when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.submit`.
    pub name: &'static str,
    /// Frame or operation id; spans of one request share it.
    pub id: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (see [`Tracer::begin`]).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Records spans for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; every span opened before the matching [`Tracer::end`]
    /// becomes its child.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let result = f();
        self.end(open);
        result
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (e.g. from a replay thread), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Wall durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Self time of every span, in milliseconds, grouped by name: a span's
    /// duration minus the part of its interval its children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            // Children begin in order, so one sweep merges their intervals.
            for &c in &children[i] {
                let (start, end) = (self.spans[c].start_ns.max(cursor), self.spans[c].end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let self_ns = span.duration_ns().saturating_sub(covered);
            out.entry(span.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times_ms();
        let outer_total = t.durations_ms("outer")[0];
        let inner_sum: f64 = t.durations_ms("inner").iter().sum();
        assert!((selfs["outer"][0] - (outer_total - inner_sum)).abs() < 1e-6);
        assert!(selfs["inner"].iter().all(|&ms| ms >= 5.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a", 0, || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}

//! In-memory span recording around the public calls the benchmark makes.
//!
//! Each thread that issues calls owns a [`Tracer`]; spans carry a name,
//! start and end on a shared epoch, the index of their parent span and the
//! request they belong to. Buffers are merged and written out when the run
//! ends, never while it is timing anything.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Nanoseconds from the run's epoch.
    pub start: u64,
    /// Nanoseconds from the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request id the span belongs to.
    pub request: u64,
}

/// A per-thread span buffer. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer on `epoch`, recording only when `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.now();
            if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
                self.open.truncate(pos);
            }
        }
    }

    /// Records an interval measured elsewhere (e.g. due time → delivery).
    pub fn record(&mut self, name: &'static str, request: u64, from: Instant, to: Instant) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start: at(from),
                end: at(to),
                parent: None,
                request,
            });
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's buffer, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name count, total and self time (ms): self time is a span's
    /// duration minus the part its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end.saturating_sub(s.start);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        w.flush()
    }
}

/// Cost of recording one span, in ms: the median over batches of
/// begin/end pairs on a scratch tracer. Multiplied by the spans a traced
/// run records, it is the wall time tracing added to that run.
pub fn span_cost_ms() -> f64 {
    const PER_BATCH: usize = 20_000;
    let costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(Instant::now(), true);
            let started = Instant::now();
            for i in 0..PER_BATCH {
                let open = t.begin("calibrate", i as u64);
                t.end(open);
            }
            std::hint::black_box(t.len());
            crate::measure::ms(started.elapsed()) / PER_BATCH as f64
        })
        .collect();
    crate::measure::median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let s = t.summary();
        let (n, total, self_ms) = s["outer"];
        assert_eq!(n, 1);
        assert!(total >= s["inner"].1);
        assert!(self_ms < s["inner"].1);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}

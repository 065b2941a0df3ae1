//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer of the system: name, start, end, parent span and request
//! id. They stay in memory and are written out when the run ends. With
//! the recorder off, every call is a no-op and nothing is allocated.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.compute`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for set-up and builds).
    pub req: u64,
}

/// Handle to a recorded span; `None` when the recorder is off.
pub type SpanId = Option<usize>;

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only if `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder lock poisoned by a panicking run")
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        let mut spans = self.lock();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: SpanId, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.ns(Instant::now());
            self.lock()[i].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &str, parent: SpanId, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

/// Duration of a span in microseconds.
pub fn dur_us(s: &Span) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3
}

/// Self time of every span in microseconds: its duration minus the part
/// of its interval that its child spans cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(dur_us).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s".into(), start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 10_000, None),
            span(1_000, 4_000, Some(0)),
            span(3_000, 5_000, Some(0)),
            span(8_000, 12_000, Some(0)),
        ];
        let st = self_times_us(&spans);
        // Children cover [1,5) and [8,10) µs of the parent's [0,10).
        assert_eq!(st[0], 4.0);
        assert_eq!(st[1], 3.0);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}

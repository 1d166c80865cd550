//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer;
//! nothing inside the engine is instrumented. A span carries its name, its
//! interval, the span that caused it, and the id of the wave, cascade or
//! batch it belongs to. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

/// `unit` of a span that belongs to no wave, cascade or batch.
pub const NO_UNIT: usize = usize::MAX;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    unit: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals: how often, how long, and how long excluding children.
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder. When `on` is false every method returns at once, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from two instants the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: usize,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            unit,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that ends at [`Self::close`], for intervals whose
    /// children are recorded before the end is known.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, NO_UNIT, now, now)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, NO_UNIT, start, Instant::now());
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: a span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert(SelfTime {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(children);
        }
        by_name
    }

    /// Writes every span and the self-time table as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(96 * self.spans.len() + 1024);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time\": ["
        );
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("\n], \"spans\": [");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let unit = if s.unit == NO_UNIT {
                "null".to_string()
            } else {
                s.unit.to_string()
            };
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {id}, \"parent\": {parent}, \"unit\": {unit}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new();
        assert!(t.span("ignored", None, || 1) == 1 && t.span_count() == 0);
        t.on = true;
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let parent = t.record("unit", None, 7, at(0), at(100));
        t.record("engine.ingest", parent, 7, at(0), at(30));
        t.record("engine.await", parent, 7, at(30), at(90));
        let st = t.self_times();
        assert_eq!(st["unit"].total_ns, 100_000);
        assert_eq!(st["unit"].self_ns, 10_000);
        assert_eq!(st["engine.await"].self_ns, 60_000);
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), an optional parent, and the id of the frame or batch it belongs
//! to — every span of one frame shares that id. Spans stay in memory while
//! the workload runs and are written as JSONL once it ends. A span's *self
//! time* is its duration minus the part of it that its children cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span wraps (`serve.offer_batch`, `gateway.write`, ...).
    pub name: &'static str,
    /// Frame or batch id shared by every span of one unit of work.
    pub id: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

/// A span log. A disabled tracer records nothing, so untraced runs pay one
/// branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer { on, origin, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span from `start` to `end`; returns its index (for
    /// children) when tracing is on.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.record_ns(name, id, parent, self.ns(start), self.ns(end))
    }

    /// [`record`](Self::record) with timestamps already in ns.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, id, parent, start, end: end.max(start) });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Self time (ns) of every span, index-aligned with [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// Total self time (ns) of the spans named `name`.
    pub fn self_total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Length of the part of `[start, end)` covered by the union of `kids`.
fn covered(start: u64, end: u64, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in kids {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.record_ns("bench.frame", 7, None, 0, 100);
        t.record_ns("gateway.encode", 7, root, 10, 20);
        t.record_ns("gateway.write", 7, root, 15, 40); // overlaps encode
        t.record_ns("gateway.ack_wait", 7, root, 90, 120); // runs past the root
        let own = t.self_times();
        assert_eq!(own[0], 100 - 30 - 10);
        assert_eq!(own[1], 10);
        assert_eq!(t.self_total("gateway.write"), 25);
        assert_eq!(t.durations("bench.frame"), vec![100]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.record_ns("x", 0, None, 0, 1), None);
        assert!(t.spans().is_empty());
    }
}

//! In-memory spans for the traced run: each probe and each replayed
//! layer call is one span (name, start, end, parent). Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric the span belongs to, e.g. `wire.hello`.
    pub name: &'static str,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder. Spans nest: a span opened with [`Tracer::enter`]
/// is the parent of every span opened or recorded until it is closed.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.enter_at(name, Instant::now())
    }

    /// Open a span that started at `start`, as a child of the
    /// innermost open span.
    pub fn enter_at(&mut self, name: &'static str, start: Instant) -> usize {
        let id = self.record(name, start, start);
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) now; returns its
    /// duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        self.exit_at(id, Instant::now())
    }

    /// Close span `id` (the innermost open one) at `end`.
    pub fn exit_at(&mut self, id: usize, end: Instant) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = end.saturating_duration_since(self.origin);
        span.end.saturating_sub(span.start)
    }

    /// Record an already-timed interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines (`name`, `start_us`, `end_us`, `parent`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// Self time per span name: each span's duration minus the part of
/// its interval that its children cover (overlapping children counted
/// once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start.max(spans[p].start), s.end.min(spans[p].end)));
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("step", 0, 100, None),
            span("round", 10, 40, Some(0)),
            span("round", 30, 60, Some(0)),
            span("zf", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        // Children of `step` cover [10, 60): 50 µs of its 100.
        assert_eq!(t["step"], Duration::from_micros(50));
        // `round` self: (30 - 8) + 30.
        assert_eq!(t["round"], Duration::from_micros(52));
        assert_eq!(t["zf"], Duration::from_micros(8));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new();
        let at = |us: u64| t.origin + Duration::from_micros(us);
        let (a0, a1, a2, a3, a4) = (at(0), at(10), at(30), at(40), at(100));
        let run = t.enter_at("run", a0);
        let step = t.record("step", a1, a2);
        let replay = t.enter_at("replay", a3);
        let call = t.record("call", a3, a4);
        t.exit_at(replay, a4);
        t.exit_at(run, a4);
        let after = t.record("after", a4, a4);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(run), Some(run), Some(replay), None]);
        assert_eq!((step, call, after), (1, 3, 4));
        let self_t = self_times(t.spans());
        // `run` covers [0, 100); `step` and `replay` cover 20 + 60.
        assert_eq!(self_t["run"], Duration::from_micros(20));
        assert_eq!(self_t["replay"], Duration::ZERO);
        assert_eq!(self_t["call"], Duration::from_micros(60));
    }
}

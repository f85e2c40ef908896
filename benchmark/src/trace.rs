//! In-memory spans recorded at the layer boundaries, from the benchmark's
//! side of every call. A traced run writes them out when it ends; the
//! untraced runs that produce the end-to-end numbers record nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: a call into a layer, or a group of such calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric the span belongs to, e.g. `core.schedule`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `start_ns` until ended.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Iteration the span belongs to: spans of one iteration share it.
    pub iteration: u32,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled tracers accept every call and store nothing, so
/// the measured code path is the same with tracing on and off.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    iteration: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            iteration: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the iteration id stamped on spans begun from now on.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            iteration: self.iteration,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span whose ends were taken by the caller (the hot
    /// wrappers read the clock once and reuse it for their own totals).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                parent,
                iteration: self.iteration,
            });
        }
    }

    /// Total seconds of all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name)
    }

    /// Self seconds of all spans called `name` (see [`self_nanos`]).
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self_nanos(&self.spans);
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::nanos)
        .sum();
    ns as f64 / 1e9
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children recorded here never overlap each other (one
/// load-generating thread), so their cover is the sum of their durations.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("engine", 0, 100, None),
            span("schedule", 10, 40, Some(0)),
            span("schedule", 50, 70, Some(0)),
            span("solve", 15, 35, Some(1)),
        ];
        // engine: 100 − (30 + 20); first schedule: 30 − 20; leaves keep all.
        assert_eq!(self_nanos(&spans), vec![50, 10, 20, 20]);
        // Parts sum to the whole: Σ self == root duration.
        assert_eq!(self_nanos(&spans).iter().sum::<u64>(), 100);
        assert!((total_s(&spans, "schedule") - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None);
        t.end(id);
        t.record("y", Instant::now(), Instant::now(), Some(id));
        assert_eq!(t.to_json(), "[\n]\n");
        assert_eq!(t.total_s("x"), 0.0);
    }

    #[test]
    fn enabled_tracer_nests_and_serialises() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        let root = t.begin("root", None);
        let a = Instant::now();
        let b = Instant::now();
        t.record("leaf", a, b, Some(root));
        t.end(root);
        assert!(t.total_s("root") >= t.total_s("leaf"));
        assert!((t.self_s("root") - (t.total_s("root") - t.total_s("leaf"))).abs() < 1e-12);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"leaf\""), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(json.contains("\"iteration\":3"), "{json}");
    }
}

//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call it makes into a layer (record a
//! workload, save a trace, replay it) in a span: name, start, end, the
//! enclosing span, and the workload. Spans stay in memory and are written
//! out once, as Chrome-trace JSON, when the workload ends. A disabled
//! recorder still times every closure (the timed pass needs the
//! durations) but stores nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `runner.simulate`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: &'static str,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `workload`; with `on == false` it only times.
    pub fn new(workload: &'static str, on: bool) -> Self {
        Tracer {
            on,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span storage on or off (timing is unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name`, returning its result and its
    /// duration in seconds. Spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(start),
                parent: self.open.last().copied(),
                workload: self.workload,
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.nanos(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part of it covered by
/// its direct children. Children of one parent never overlap (a single
/// thread opens them in sequence), so the self times of a span and all
/// its descendants sum to the span's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per span name, sorted by descending time.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += self_ns,
            None => totals.push((s.name, self_ns)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// Renders spans as Chrome-trace JSON (complete `X` events, microsecond
/// timestamps), loadable in Perfetto or `chrome://tracing`. Each event's
/// `args` carry its workload, parent index and self time.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"workload\":\"{}\",\"self_us\":{:.3}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.workload,
            self_ns as f64 / 1e3,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
        }
    }

    #[test]
    fn children_partition_the_parent() {
        // iteration [0, 100): record [5, 25), simulate [30, 90) which
        // itself holds decode [40, 50).
        let spans = vec![
            span("iteration", 0, 100, None),
            span("workloads.record", 5, 25, Some(0)),
            span("runner.simulate", 30, 90, Some(0)),
            span("trace.decode", 40, 50, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 20 - 60, 20, 60 - 10, 10]);
        // Self times of a span and its descendants sum to its duration.
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
        assert_eq!(selfs[2] + selfs[3], spans[2].dur_ns());
    }

    #[test]
    fn recorded_spans_nest_and_partition() {
        let mut t = Tracer::new("w", true);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("a.inner", |_| std::hint::black_box(0u64));
            });
            t.span("b", |_| std::hint::black_box(0u64));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let selfs = self_times(spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new("w", false);
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![
            span("iteration", 0, 2000, None),
            span("a.b", 10, 500, Some(0)),
        ];
        let text = chrome_trace_json(&spans);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[0]["args"]["self_us"].as_f64(), Some(1.51));
    }

    #[test]
    fn self_time_by_name_sums_repeated_spans() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("runner.simulate", 0, 30, Some(0)),
            span("runner.simulate", 40, 70, Some(0)),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("runner.simulate", 60), ("iteration", 40)]
        );
    }
}

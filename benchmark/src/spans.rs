//! Spans the harness records around its own calls into each layer. They
//! live in memory until the process ends; spans inside the simulator are
//! not this crate's business.

use std::time::Instant;

use crate::json;

/// One timed interval. `parent` indexes the list the span sits in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's own JSON members; callers append where it came from.
    pub fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("name", json::string(&self.name)),
            ("start_ns", json::num(self.start_ns as f64)),
            ("end_ns", json::num(self.end_ns as f64)),
            ("parent", self.parent.map_or("null".to_string(), |p| json::num(p as f64))),
        ]
    }
}

/// Records the spans of one rep against a clock started at `main` entry.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that starts at the clock's origin (the `rep` span: it
    /// has to cover the time before the recorder existed).
    pub fn open_at_origin(&mut self, name: &str) -> usize {
        self.spans.push(Span { name: name.to_string(), start_ns: 0, end_ns: 0, parent: None });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent`.
    pub fn span<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent: Some(parent) });
        out
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one parent never overlap here (the
/// harness is single-threaded), so the covered part is the sum of their
/// durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered =
                s.end_ns.min(parent.end_ns).saturating_sub(s.start_ns.max(parent.start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("rep", 0, 1000, None),
            span("rt.new", 10, 110, Some(0)),
            span("kernel.call", 110, 900, Some(0)),
            span("region", 200, 800, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![1000 - 100 - 790, 100, 790 - 600, 600]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span("rep", 100, 200, None), span("late", 150, 300, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 150]);
    }

    #[test]
    fn recorder_nests_children_under_the_origin_span() {
        let mut rec = Recorder::new(Instant::now());
        let rep = rec.open_at_origin("rep");
        let x = rec.span("work", rep, || 7);
        rec.close(rep);
        let spans = rec.finish();
        assert_eq!(x, 7);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
    }
}

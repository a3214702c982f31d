//! In-memory spans recorded by the benchmark's own wrappers around
//! calls into each layer, dumped when the run ends.
//!
//! Wrappers that run on other threads or inside the library's
//! interpreter loop collect plain [`Mark`]s; the workload files them
//! under the request span that caused them once the call returns, so
//! the tracer itself is single-threaded and lock-free.

use crate::stats::Json;
use std::time::Instant;

/// One timed interval, not yet attached to a request.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Mark {
    /// Times `f` under `name`.
    pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Mark) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, Mark { name, start, end })
    }

    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// One recorded span. `parent` indexes the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub mark: Mark,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// The span store of one traced pass.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records a request's root span with `children` under it; the
    /// request's id is its number among the requests recorded so far.
    pub fn request(&mut self, root: Mark, children: &[Mark]) {
        let parent = self.spans.len();
        let request_id = self.requests;
        self.requests += 1;
        let span = |mark, parent| Span {
            mark,
            parent,
            request_id,
        };
        self.spans.push(span(root, None));
        self.spans
            .extend(children.iter().map(|child| span(*child, Some(parent))));
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every recorded duration of `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.mark.name == name)
            .map(|s| s.mark.ms())
            .collect()
    }

    /// Per request of root span `root`, the share of its duration its
    /// direct children cover.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.mark.name == root && s.parent.is_none());
        self.child_sums_ms(root, "")
            .iter()
            .zip(roots)
            .map(|(covered, span)| covered / span.mark.ms())
            .collect()
    }

    /// Per request of root span `root`, the summed duration of its
    /// direct children whose name starts with `prefix`.
    pub fn child_sums_ms(&self, root: &str, prefix: &str) -> Vec<f64> {
        let mut sums = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.mark.name == root && span.parent.is_none() {
                // A request's children are recorded right after it.
                sums.push(
                    self.spans[i + 1..]
                        .iter()
                        .take_while(|c| c.parent == Some(i))
                        .filter(|c| c.mark.name.starts_with(prefix))
                        .map(|c| c.mark.ms())
                        .sum(),
                );
            }
        }
        sums
    }

    /// The dump: one object per span, times counted from the earliest
    /// start recorded.
    pub fn to_json(&self) -> Json {
        let epoch = self.spans.iter().map(|s| s.mark.start).min();
        let ns = |t: Instant| epoch.map_or(0, |e| t.saturating_duration_since(e).as_nanos());
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.mark.name.into())),
                        ("start_ns", Json::Num(ns(s.mark.start) as f64)),
                        ("end_ns", Json::Num(ns(s.mark.end) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request_id", Json::Num(s.request_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_sum_under_their_request() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mark = |name, a, b| Mark {
            name,
            start: at(a),
            end: at(b),
        };
        tracer.request(
            mark("request", 0, 10),
            &[
                mark("stage.affine", 1, 4),
                mark("stage.relu", 4, 9),
                mark("decrypt", 9, 10),
            ],
        );
        tracer.request(mark("request", 10, 12), &[mark("stage.affine", 10, 11)]);
        assert_eq!(tracer.child_sums_ms("request", "stage."), vec![8.0, 1.0]);
        assert_eq!(tracer.child_sums_ms("request", ""), vec![9.0, 1.0]);
        assert_eq!(tracer.durations_ms("stage.affine"), vec![3.0, 1.0]);
        let dump = tracer.to_json();
        assert_eq!(dump.as_arr().len(), 6);
        assert_eq!(dump.as_arr()[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(dump.as_arr()[3].get("request_id"), Some(&Json::Num(0.0)));
        assert_eq!(dump.as_arr()[4].get("request_id"), Some(&Json::Num(1.0)));
        assert_eq!(tracer.coverage("request"), vec![0.9, 0.5]);
        assert_eq!(dump.as_arr()[0].get("start_ns"), Some(&Json::Num(0.0)));
        assert_eq!(dump.as_arr()[5].get("end_ns"), Some(&Json::Num(11e6)));
    }
}

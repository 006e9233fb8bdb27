//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The probes are single-threaded, so spans nest strictly: a span's parent is
//! the span that was open when it began. Spans stay in memory until the run
//! ends; nothing here is linked into, or called from, the measured program.

use crate::json::Json;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `message.encode`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload operation (rollout batch, message) this call served.
    pub op: u64,
}

/// Collects spans in call order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` and returns its index; spans begun before
    /// [`Tracer::end`] closes it are its children.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let result = f();
        self.end(id);
        result
    }

    /// Runs `f` inside a leaf span that `f` names by its outcome.
    pub fn call_as<R>(&mut self, op: u64, f: impl FnOnce() -> (&'static str, R)) -> R {
        let id = self.spans.len();
        let (name, result) = self.call("", op, f);
        self.spans[id].name = name;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span named `name`, in microseconds, in call order.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// The trace file: a name table and one `[name, start_ns, end_ns, parent,
    /// op]` row per span, `parent` being a row index or -1.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Arr(vec![
                    Json::Int(name as u64),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                    s.parent.map_or(Json::Num(-1.0), |p| Json::Int(p as u64)),
                    Json::Int(s.op),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .map(Json::str)
                        .into(),
                ),
            ),
            (
                "names",
                Json::Arr(names.into_iter().map(Json::str).collect()),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// A span's self time is its duration minus the time its direct children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 15..25 }, c 50..70 }
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new();
        let root = t.begin("op", 7);
        t.call("leaf", 7, || std::hint::black_box(1 + 1));
        t.call("leaf", 7, || std::hint::black_box(2 + 2));
        t.end(root);
        t.call("leaf", 8, || ());
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.self_times_us("leaf").len(), 3);
        let root = &t.spans()[0];
        let children: u64 = t.spans()[1..3].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            self_times_ns(t.spans())[0],
            root.end_ns - root.start_ns - children
        );
        let json = t.to_json("w").compact();
        assert!(json.contains("\"names\":[\"op\",\"leaf\"]"));
        assert!(json.contains("\"spans\":[[0,"));
    }
}

//! In-memory span recorder for the traced (`--trace 1`) runs.
//!
//! The benchmark records one span around each call into a crate's
//! public functions; the span's name is `<crate>.<what>`. Spans nest by
//! call order on the recording thread, are kept in memory, and are
//! written to `out/trace-<workload>.json` when the run ends. A span's
//! self-time is its duration minus the part of it its children cover,
//! so the self-times below a root add up to the root's duration.
//!
//! A disabled tracer records nothing: the end-to-end runs pass one to
//! the same code and pay a branch per boundary.

use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate name.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iteration: u32,
    /// Work done inside the span, in the unit its name implies
    /// (events, samples, bytes, …).
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

/// The recorder. Single-threaded by design: only the benchmark's main
/// thread crosses layer boundaries.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A recording tracer for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            epoch: Instant::now(),
            inner: Some(RefCell::default()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            workload: String::new(),
            epoch: Instant::now(),
            inner: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the iteration recorded on spans opened from now on.
    pub fn set_iteration(&self, iteration: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().iteration = iteration;
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let index = self.inner.as_ref().map(|inner| {
            let start_ns = self.now_ns();
            let mut inner = inner.borrow_mut();
            let index = inner.spans.len();
            let span = Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: inner.open.last().copied(),
                iteration: inner.iteration,
                count: 0,
            };
            inner.spans.push(span);
            inner.open.push(index);
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records a count observed at a boundary as a zero-length span.
    pub fn count(&self, name: &'static str, n: u64) {
        self.enter(name).count(n);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|inner| inner.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// The workload the spans belong to.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The spans as JSON, each with its self-time.
    pub fn to_json(&self) -> Value {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let rows: Vec<Value> = spans
            .iter()
            .zip(&selfs)
            .map(|(s, self_ns)| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": *self_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "iteration": s.iteration,
                    "count": s.count,
                })
            })
            .collect();
        Value::Array(rows)
    }
}

impl SpanGuard<'_> {
    /// Adds to the span's work count.
    pub fn count(&self, n: u64) {
        if let (Some(index), Some(inner)) = (self.index, &self.tracer.inner) {
            inner.borrow_mut().spans[index].count += n;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(inner)) = (self.index, &self.tracer.inner) else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        let mut inner = inner.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        // Guards drop innermost-first, so this is the top of the stack.
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index), "spans closed out of order");
    }
}

/// Self-time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Indices of the spans in the subtree rooted at `root` (root included).
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    // Parents precede children, so one forward pass suffices.
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        inside[i] = s.parent.is_some_and(|p| inside[p]);
    }
    (0..spans.len()).filter(|&i| inside[i]).collect()
}

/// What the spans of one name add up to below a root.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Sum of durations, ns.
    pub ns: u64,
    /// Sum of work counts.
    pub count: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Duration, work count and number of spans per name in the subtree of
/// `root` (the root itself excluded).
pub fn totals_below(spans: &[Span], root: usize) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for i in subtree(spans, root).into_iter().skip(1) {
        let t = out.entry(spans[i].name).or_default();
        t.ns += spans[i].duration_ns();
        t.count += spans[i].count;
        t.calls += 1;
    }
    out
}

/// Share of `root`'s duration that the self-times of the spans below it
/// account for: 1 when the layer spans tile the root without gaps or
/// double counting.
pub fn layer_sum_ratio(spans: &[Span], root: usize) -> f64 {
    let selfs = self_times_ns(spans);
    let below: u64 = subtree(spans, root)
        .into_iter()
        .skip(1)
        .map(|i| selfs[i])
        .sum();
    below as f64 / spans[root].duration_ns().max(1) as f64
}

/// Indices of the root spans called `name`, in opening order.
pub fn roots_named(spans: &[Span], name: &str) -> Vec<usize> {
    (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == name)
        .collect()
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
            iteration: 0,
            count: 0,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [40,90) ⊃
        // b1 [50,60), b2 [55,80) (overlapping siblings count once).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
            span("b1", 50, 60, Some(3)),
            span("b2", 55, 80, Some(3)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![20, 20, 10, 20, 10, 25]);
        // b1 and b2 overlap by 5 ns: their self-times double-count it,
        // which b's cover does not.
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, spans[0].duration_ns() + 5);
        // Without the overlap the sum is exact.
        let mut exact = spans.clone();
        exact[5].start_ns = 60;
        let total: u64 = self_times_ns(&exact).iter().sum();
        assert_eq!(total, exact[0].duration_ns());
    }

    #[test]
    fn recorded_tree_nests_by_call_order_and_sums_exactly() {
        let t = Tracer::new("unit");
        t.set_iteration(3);
        {
            let root = t.enter("root");
            t.span("x.a", || {
                t.span("y.inner", || std::hint::black_box(0));
            });
            let b = t.enter("x.b");
            b.count(7);
            drop(b);
            root.count(1);
        }
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("x.a", Some(0)),
                ("y.inner", Some(1)),
                ("x.b", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.iteration == 3));
        assert_eq!((spans[3].count, spans[0].count), (7, 1));
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        assert_eq!(subtree(&spans, 1), vec![1, 2]);
        assert_eq!(roots_named(&spans, "root"), vec![0]);
        let below = totals_below(&spans, 0);
        assert_eq!(
            below.keys().copied().collect::<Vec<_>>(),
            ["x.a", "x.b", "y.inner"]
        );
        assert_eq!((below["x.b"].count, below["x.b"].calls), (7, 1));
        let ratio = layer_sum_ratio(&spans, 0);
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
        assert_eq!(t.to_json().as_array().unwrap().len(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let g = t.enter("root");
        g.count(5);
        drop(g);
        assert!(!t.enabled());
        assert!(t.spans().is_empty());
    }
}

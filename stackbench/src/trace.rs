//! In-memory spans and their self times.
//!
//! A [`Tracer`] records one span per call: name, start, end, parent, and the
//! frame or request id. Spans stay in memory until the run ends. A span's
//! self time is its duration minus the part of it that its children cover.
//! A disabled tracer records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `wal.sync`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Frame or request id (frames count from 0 per stream).
    pub id: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Closed and open spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer measuring from `origin` (share one origin between
    /// threads whose spans are compared).
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            on: true,
            origin,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end = end;
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }
}

/// Self time of every span in `spans` (one tracer's output): its duration
/// minus the union of its children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Spans whose self time exceeds their parent's duration — always empty for
/// well-nested spans; the traced run refuses to report if it is not.
pub fn nesting_violations(spans: &[Span]) -> Vec<String> {
    let own = self_times(spans);
    spans
        .iter()
        .zip(&own)
        .filter_map(|(s, &t)| {
            let p = &spans[s.parent?];
            (t > p.duration() || s.start < p.start || s.end > p.end).then(|| {
                format!(
                    "{} (self {t} ns) inside {} ({} ns)",
                    s.name,
                    p.name,
                    p.duration()
                )
            })
        })
        .collect()
}

/// Per span name: self times of every call, in call order.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self times in nanoseconds, by span name.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Total wall time in nanoseconds, by span name.
    pub busy: BTreeMap<&'static str, u64>,
    /// Self time by `(name, id)` — for per-frame attribution across layers.
    pub by_id: BTreeMap<(&'static str, u64), u64>,
}

impl Summary {
    /// Fold one tracer's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, t) in spans.iter().zip(self_times(spans)) {
            self.by_name.entry(s.name).or_default().push(t);
            *self.busy.entry(s.name).or_insert(0) += s.duration();
            *self.by_id.entry((s.name, s.id)).or_insert(0) += t;
        }
    }

    /// Self times of `name`, in nanoseconds.
    pub fn get(&self, name: &str) -> &[u64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("cycle", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: counted once
            span("c", 90, 130, Some(0)), // clipped at the parent's end
            span("inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 22, 30, 40, 8]);
        assert!(nesting_violations(&spans[..3]).is_empty());
        assert_eq!(
            nesting_violations(&spans).len(),
            1,
            "c leaks past its parent"
        );
    }

    #[test]
    fn child_self_time_never_exceeds_parent_on_recorded_spans() {
        let mut t = Tracer::on(Instant::now());
        for k in 0..50 {
            t.begin("cycle", k);
            for j in 0..3 {
                t.time("leaf", j, || {
                    std::hint::black_box((0..1000u64).sum::<u64>())
                });
            }
            t.time("query", k, || std::hint::black_box(k * 3));
            t.end();
        }
        assert_eq!(t.spans.len(), 250);
        assert!(nesting_violations(&t.spans).is_empty());
        let own = self_times(&t.spans);
        for (s, o) in t.spans.iter().zip(&own) {
            if let Some(p) = s.parent {
                assert!(*o <= t.spans[p].duration());
            }
        }
        let mut sum = Summary::default();
        sum.add(&t.spans);
        assert_eq!(sum.get("leaf").len(), 150);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin("x", 1);
        t.end();
        assert!(t.spans.is_empty());
    }
}

//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the store is instrumented here (that is a later
//! change): the driver opens a span before it calls into a layer and
//! closes it after, keeps every span in memory, and writes them out once
//! the run has ended. A span names the span that caused it; spans of one
//! sampled operation share the op number.

use crate::json::{obj, Value};
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Number of the operation this span belongs to, for sampled op spans.
    pub op: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer (the untraced pass) records
/// nothing and reads no clock.
pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: None,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a finished root span of one sampled operation.
    pub fn op(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: None,
            op: Some(op),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Lays `stages` (name, duration in ms) end to end as children of
    /// `parent`, starting where the parent starts. Used for the stage
    /// fields a layer reports about a call the driver timed as a whole.
    pub fn synthesise(&mut self, parent: Option<SpanId>, stages: &[(&'static str, f64)]) {
        let Some(pid) = parent else { return };
        let mut at = self.spans[pid].start_ns;
        for &(name, ms) in stages {
            let len = (ms.max(0.0) * 1e6) as u64;
            self.spans.push(Span {
                name,
                parent,
                op: None,
                start_ns: at,
                end_ns: at + len,
            });
            at += len;
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let lo = s.start_ns.max(self.spans[p].start_ns);
                let hi = s.end_ns.min(self.spans[p].end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut edge = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    if hi > edge {
                        covered += hi - lo.max(edge);
                        edge = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The trace document written to `results/trace-<workload>.json`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Value::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("op", s.op.map_or(Value::Null, |o| Value::Num(o as f64))),
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns[id] as f64)),
                ])
            })
            .collect();
        obj([
            ("schema", Value::Str("aceso.benchmark.trace.v1".into())),
            ("workload", Value::Str(workload.into())),
            ("seed", Value::Str(format!("{seed:#x}"))),
            ("clock", Value::Str("host ns since the pass began".into())),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            op: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1
            span(Some(0), 30, 60),  // 2 overlaps 1: union 10..60 = 50
            span(Some(0), 80, 90),  // 3
            span(Some(1), 10, 25),  // 4: grandchild, counts against 1 only
            span(Some(0), 95, 120), // 5: clipped to the parent's end
        ];
        let st = t.self_times_ns();
        assert_eq!(st[0], 100 - 50 - 10 - 5);
        assert_eq!(st[1], 30 - 15);
        assert_eq!(st[2], 30);
        assert_eq!(st[4], 15);
    }

    #[test]
    fn synthesised_stages_tile_the_parent_from_its_start() {
        let mut t = Tracer::new(true);
        t.spans.push(span(None, 1_000, 9_000_000));
        t.synthesise(Some(0), &[("a", 1.0), ("b", 2.5)]);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (1_000, 1_001_000));
        assert_eq!(
            (t.spans[2].start_ns, t.spans[2].end_ns),
            (1_001_000, 3_501_000)
        );
        assert_eq!(t.self_times_ns()[0], 9_000_000 - 1_000 - 3_500_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None);
        t.end(id);
        t.op("search", 1, Instant::now(), Instant::now());
        assert!(id.is_none() && t.spans.is_empty());
    }
}

//! In-memory spans recorded by the benchmark around calls into each
//! crate, written out when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `parent` 0 marks a root, `op` ties the spans of one
/// benchmark operation together.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Per-operation values measured beside the spans (sizes, counts).
    observed: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            observed: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` in nanoseconds since the tracer was created.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (reserve a root's id before its children end).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record_as(&self, id: u64, parent: u64, op: u64, name: &str, start_ns: u64, end_ns: u64) {
        let span = Span { id, parent, op, name: name.to_string(), start_ns, end_ns };
        self.spans.lock().expect("span buffer lock poisoned").push(span);
    }

    /// Records a span with a fresh id.
    pub fn record(&self, parent: u64, op: u64, name: &str, start_ns: u64, end_ns: u64) {
        self.record_as(self.id(), parent, op, name, start_ns, end_ns);
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(&self, parent: u64, op: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(parent, op, name, start, self.now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned").clone()
    }

    /// Records one value of a per-operation quantity.
    pub fn observe(&self, name: &str, value: f64) {
        let mut observed = self.observed.lock().expect("observation lock poisoned");
        observed.entry(name.to_string()).or_default().push(value);
    }

    pub fn observed(&self) -> BTreeMap<String, Vec<f64>> {
        self.observed.lock().expect("observation lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // two overlapping children cover [10, 50)
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // a child sticking out of its parent counts only inside it
            span(4, 1, 90, 130),
            // a grandchild reduces its own parent, not the root
            span(5, 2, 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn tracer_records_and_serializes() {
        let t = Tracer::default();
        let root = t.id();
        let start = t.now();
        let v = t.time(root, 7, "child", || 41 + 1);
        t.record_as(root, 0, 7, "root", start, t.now());
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        let text = to_json_lines(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"root\""));
    }
}

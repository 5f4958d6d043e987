//! In-memory spans recorded around public library calls.
//!
//! Every timed pass records its spans here, traced or not; a traced run
//! also writes them out at the end. A span carries a name, start and end
//! (nanoseconds since the tracer was created), its parent span and the
//! slot of the cell it belongs to. Self time is a span's duration minus
//! the union of its children's intervals.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by the worker threads of one process.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, cell: Option<usize>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        spans[id].end_ns = end_ns;
        spans[id].duration_ns()
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, cell, parent);
        let value = f();
        (value, self.close(id))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }
}

/// Durations of every span named `name` that descends from `root`.
pub fn durations_ns(spans: &[Span], root: usize, name: &str) -> Vec<u64> {
    (0..spans.len())
        .filter(|&i| spans[i].name == name && descends_from(spans, i, root))
        .map(|i| spans[i].duration_ns())
        .collect()
}

fn descends_from(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Length of the union of the children's intervals of span `id`.
fn child_cover_ns(spans: &[Span], id: usize) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_len(&mut intervals)
}

fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Share of `root`'s duration covered by the union of the spans below it
/// whose names are in `names`.
pub fn coverage(spans: &[Span], root: usize, names: &[&str]) -> f64 {
    let mut covered: Vec<(u64, u64)> = (0..spans.len())
        .filter(|&i| i != root && names.contains(&spans[i].name) && descends_from(spans, i, root))
        .map(|i| (spans[i].start_ns, spans[i].end_ns))
        .collect();
    union_len(&mut covered) as f64 / spans[root].duration_ns().max(1) as f64
}

/// The spans as JSON lines, each with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let self_ns = s.duration_ns().saturating_sub(child_cover_ns(spans, id));
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name,
            opt(s.cell),
            opt(s.parent),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cell: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut [(20, 30), (0, 10), (10, 12)]), 22);
    }

    #[test]
    fn coverage_counts_named_spans_only_and_self_time_subtracts_children() {
        // pass [0,100) > timed [0,100) > two overlapping workers' cells,
        // each with a named run span inside.
        let spans = vec![
            span("pass", None, 0, 100),
            span("timed", Some(0), 0, 100),
            span("cell", Some(1), 0, 60),
            span("cell", Some(1), 10, 90),
            span("swarm.run", Some(2), 0, 50),
            span("swarm.run", Some(3), 40, 70),
        ];
        let named = ["swarm.run"];
        assert!((coverage(&spans, 0, &named) - 0.7).abs() < 1e-12);
        assert!((coverage(&spans, 0, &["cell"]) - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&spans, 3, &["check"]), 0.0);
        assert_eq!(durations_ns(&spans, 1, "swarm.run"), vec![50, 30]);
        assert_eq!(durations_ns(&spans, 3, "swarm.run"), vec![30]);
        let lines = to_jsonl(&spans);
        assert!(lines.lines().nth(1).unwrap().ends_with("\"self_ns\":10}"));
        assert!(lines.lines().nth(2).unwrap().ends_with("\"self_ns\":10}"));
        assert!(lines.lines().nth(3).unwrap().ends_with("\"self_ns\":50}"));
    }

    #[test]
    fn tracer_records_parent_and_duration() {
        let tracer = Tracer::new();
        let root = tracer.open("pass", None, None);
        let (value, _) = tracer.time("swarm.run", Some(3), Some(root), || 7);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(value, 7);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

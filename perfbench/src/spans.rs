//! In-memory spans recorded around calls into the program's layers.
//!
//! Each worker thread owns one [`SpanLog`]; spans nest by call order,
//! so a span's parent is the span open when it started. Nothing is
//! written until the traced pass ends ([`write_jsonl`]).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// One timed call: its layer name, its interval in nanoseconds since
/// the pass began, the index of its parent in the same thread's log,
/// and the grid cell (or job) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    cell: Cell<u32>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            cell: Cell::new(0),
        }
    }

    /// Tags the spans recorded from now on with `cell`.
    pub fn set_cell(&self, cell: u32) {
        self.cell.set(cell);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                cell: self.cell.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span of one thread's log: its duration minus the
/// part of its interval that its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (start, end) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - union_len(kids))
        .collect()
}

/// Share of `threads × wall_ns` that the root spans of the per-thread
/// logs cover: how much of the traced pass is attributed to named
/// layers at all.
#[must_use]
pub fn coverage(logs: &[Vec<Span>], wall_ns: u64) -> f64 {
    if logs.is_empty() || wall_ns == 0 {
        return 0.0;
    }
    let covered: u64 = logs
        .iter()
        .map(|spans| {
            let mut roots: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            union_len(&mut roots)
        })
        .sum();
    covered as f64 / (wall_ns as f64 * logs.len() as f64)
}

/// Sums, per span name, the self time in seconds over every thread.
#[must_use]
pub fn self_seconds_by_name(logs: &[Vec<Span>]) -> std::collections::BTreeMap<&'static str, f64> {
    let mut by_name = std::collections::BTreeMap::new();
    for spans in logs {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            *by_name.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
    }
    by_name
}

/// Writes every span as one JSON line: thread, index, name, interval,
/// parent index and cell.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be written.
pub fn write_jsonl(path: &std::path::Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in logs.iter().enumerate() {
        for (index, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            )?;
        }
    }
    out.flush()
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
            cell: 0,
        }
    }

    /// A hand-built tree: overlapping children count once, a child
    /// running past its parent counts only inside the parent, and a
    /// grandchild is subtracted from its own parent only.
    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 15, Some(1)),
            span("other_root", 200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 17, 30, 30, 3, 60]);
        let by_name = self_seconds_by_name(&[spans.to_vec()]);
        assert!((by_name["root"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn coverage_is_root_union_over_thread_time() {
        let t0 = vec![span("x", 0, 40, None), span("y", 30, 60, None)];
        let t1 = vec![span("z", 0, 100, None), span("z.k", 0, 100, Some(0))];
        assert!((coverage(&[t0, t1], 100) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_by_call_order() {
        let log = SpanLog::new(Instant::now());
        log.set_cell(7);
        let v = log.time("outer", || log.time("inner", || 5) + 1);
        assert_eq!(v, 6);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].cell, 7);
    }
}

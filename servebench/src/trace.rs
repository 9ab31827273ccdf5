//! In-memory spans for the traced run: each records a name, start, end,
//! parent, request id and the heap allocations made inside it. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are ns since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`normalize`, `exec.run`, …).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns; equal to `start` while the span is open.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
    /// Heap allocations made while the span was open (process-wide);
    /// the counter's value at opening while the span is open.
    pub allocs: u64,
}

impl Span {
    /// Duration, ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let allocs = bench::alloc::allocations();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request, allocs });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        let allocs = bench::alloc::allocations();
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"allocs\":{}}}",
                s.name, s.start, s.end, s.request, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Each span's self time, ns: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 1, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // request [0, 100)
        //   normalize [10, 20)
        //   compile   [20, 60)
        //     parse     [20, 30)
        //     translate [25, 45)   overlaps parse: [20, 45) covered once
        //   execute   [55, 120)    runs past its parent: clipped to [55, 100)
        let spans = vec![
            span("request", 0, 100, None),
            span("normalize", 10, 20, Some(0)),
            span("compile", 20, 60, Some(0)),
            span("parse", 20, 30, Some(2)),
            span("translate", 25, 45, Some(2)),
            span("execute", 55, 120, Some(0)),
        ];
        let st = self_times(&spans);
        // request: 100 - |[10,20) ∪ [20,60) ∪ [55,100)| = 100 - 90
        assert_eq!(st, vec![10, 10, 15, 10, 20, 65]);
        // Without overlaps or leaks, the self times add up to the root's
        // duration.
        let tidy = vec![
            span("request", 0, 100, None),
            span("normalize", 10, 20, Some(0)),
            span("compile", 20, 60, Some(0)),
            span("parse", 20, 30, Some(2)),
            span("translate", 30, 45, Some(2)),
        ];
        assert_eq!(self_times(&tidy), vec![50, 10, 15, 10, 15]);
        assert_eq!(self_times(&tidy).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_counts_allocations() {
        let mut t = Tracer::default();
        let root = t.open("request", 7, None);
        let v = t.span("alloc", 7, Some(root), || vec![1u8; 64]);
        t.close(root);
        assert_eq!(v.len(), 64);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.spans[1].allocs >= 1, "the test build counts allocations");
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"alloc\"") && text.contains("\"parent\":0"), "{text}");
    }
}

//! In-memory spans for the traced run.
//!
//! The driver wraps each call into a layer in a span (name, start,
//! end, parent, op id). Spans stay in memory while the run measures
//! and are written out as JSON when it ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Spans opened while another is open
/// become its children.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let result = f();
        self.end(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times grouped by span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(t);
        }
        by_name
    }

    /// The spans as JSON: one `[name, op, parent, start_ns, end_ns,
    /// self_ns]` row per span (`parent` is a row index or -1), plus a
    /// per-name summary of count, total and self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, (span, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{},{}]",
                span.name, span.op, parent, span.start_ns, span.end_ns, self_ns
            );
            let entry = summary.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        out.push_str("],\"summary\":{");
        for (i, (name, (count, total, self_total))) in summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_total}}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = end;
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // op [0,100) ⊃ a [10,30), b [25,60) (overlapping), c [90,120)
        // (overruns its parent); a ⊃ leaf [12,20).
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 60),
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 12, 20),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,60) and [90,100): 60 of the op's 100 ns.
        assert_eq!(selfs, vec![40, 12, 35, 30, 8]);
    }

    #[test]
    fn tracer_nests_open_spans() {
        let mut tracer = Tracer::default();
        let op = tracer.begin("op", 7);
        let inner = tracer.time("inner", 7, || std::hint::black_box(3) + 1);
        assert_eq!(inner, 4);
        tracer.end(op);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
        let json = tracer.to_json("w", 3);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":3,\"spans\":[[\"op\",7,-1,"));
        assert!(json.contains("\"inner\":{\"count\":1,"));
        units_serve::json::parse(&json).expect("span dump is valid JSON");
    }
}

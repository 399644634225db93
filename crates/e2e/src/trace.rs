//! The span recorder of the traced run. It lives entirely in this crate:
//! spans wrap the calls the harness makes into the program, nothing inside
//! the program is instrumented.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one harness operation share `op_id`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Spans are kept in memory, in a vector sized up front, and written out
/// when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> u32 {
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total duration and total self time,
    /// in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let raw: Vec<(u64, u64, Option<usize>)> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent.map(|p| p as usize)))
            .collect();
        let own = crate::stats::self_times(&raw);
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += own;
        }
        totals
    }

    /// One JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op_id
            )?;
        }
        out.flush()
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_self_time() {
        let mut tracer = Tracer::with_capacity(4);
        let step = tracer.enter("step", 7);
        let submit = tracer.enter("submit", 7);
        tracer.exit(submit);
        let epoch = tracer.enter("run_epoch", 7);
        tracer.exit(epoch);
        tracer.exit(step);
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = tracer.totals();
        let step_totals = totals["step"];
        assert_eq!(
            step_totals.self_ns,
            step_totals.total_ns - totals["submit"].total_ns - totals["run_epoch"].total_ns
        );
    }
}

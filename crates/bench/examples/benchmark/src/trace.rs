//! Spans: one record per layer boundary crossed, kept in memory and
//! written out as JSON lines when the workload ends.
//!
//! Every engine call of a traced round is a root span `core.<op>`.
//! For every [`SAMPLE_EVERY`]th operation the shadow replay
//! (`crate::shadow`) adds one child span per layer call it re-enacts;
//! all spans of one operation share its `op` number. The replay runs
//! after the engine call returned, so its spans are *rebased* to begin
//! at their root's start — a trace viewer then nests them, and
//! [`self_time`] can subtract them from the root by interval.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Child spans are recorded for one operation in this many.
pub const SAMPLE_EVERY: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation all spans of one request share.
    pub op: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span's duration minus the part of its interval that `children`
/// cover. Children may overlap each other (parallel siblings) or reach
/// past the parent's end (a serial replay of work the engine fanned
/// out); covered time is counted once and only inside the parent.
pub fn self_time(span: &Span, children: &[Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// The in-memory span buffer of one traced workload run.
pub struct SpanBuf {
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanBuf {
    pub fn with_capacity(spans: usize) -> SpanBuf {
        SpanBuf { spans: Vec::with_capacity(spans), next_id: 1 }
    }

    /// Record a span and return its id.
    pub fn push(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent, op, name, thread: 0, start_ns, end_ns });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the buffer to `<target dir>/benchmark/trace-<workload>.jsonl`
    /// (the target directory is `CARGO_TARGET_DIR`, else `target`, both
    /// relative to the checkout the benchmark runs in).
    pub fn write_jsonl(&self, workload: &str) -> std::io::Result<PathBuf> {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = PathBuf::from(target).join("benchmark");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.jsonl"));
        let mut out = BufWriter::new(fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "core.write", thread: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_with_sibling_children() {
        let root = span(1, 0, 100, 200);
        let kids = [span(2, 1, 110, 130), span(3, 1, 150, 160)];
        assert_eq!(self_time(&root, &kids), 70);
        assert_eq!(self_time(&root, &[]), 100);
    }

    #[test]
    fn self_time_with_nested_children() {
        // root > child > grandchild: each level subtracts only its own
        // direct children.
        let root = span(1, 0, 0, 100);
        let child = span(2, 1, 10, 90);
        let grandchild = span(3, 2, 20, 50);
        assert_eq!(self_time(&root, &[child]), 20);
        assert_eq!(self_time(&child, &[grandchild]), 50);
        assert_eq!(self_time(&grandchild, &[]), 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let root = span(1, 0, 100, 200);
        // Two parallel siblings overlapping on 120..140.
        assert_eq!(self_time(&root, &[span(2, 1, 110, 140), span(3, 1, 120, 160)]), 50);
        // A serial replay that outlasts the root covers all of it.
        assert_eq!(self_time(&root, &[span(2, 1, 100, 150), span(3, 1, 150, 320)]), 0);
        // A child wholly outside covers nothing.
        assert_eq!(self_time(&root, &[span(2, 1, 300, 400)]), 100);
    }

    #[test]
    fn layer_is_the_name_up_to_the_first_dot() {
        let mut s = span(1, 0, 0, 1);
        assert_eq!(s.layer(), "core");
        s.name = "types.page_checksum";
        assert_eq!(s.layer(), "types");
    }
}

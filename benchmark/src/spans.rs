//! In-memory span records for the traced repetitions, written out as JSONL
//! when the run ends. All spans are taken from this crate, around the calls
//! into each layer; nothing inside the simulator is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] store.
pub type SpanId = u32;

/// "No parent": the span is a root.
pub const ROOT: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// The repetition the span belongs to; spans of one repetition share it.
    run: u32,
}

/// Span store for one benchmark run.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        run: u32,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Spans::close`] ends it. Lets a parent be named
    /// before its children are recorded.
    pub fn open(&mut self, name: &'static str, parent: SpanId, run: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, run)
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Writes one JSON object per span, then one per counter.
    pub fn write_jsonl(&self, path: &Path, counters: &[(String, f64)]) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        for (name, value) in counters {
            writeln!(w, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        w.flush()
    }
}

/// The spans of one traced repetition: a root span named `rep`, and what is
/// recorded beneath it. Every span carries the repetition's index.
pub struct RepTrace<'a> {
    spans: &'a mut Spans,
    root: SpanId,
    run: u32,
}

impl<'a> RepTrace<'a> {
    /// Opens the repetition's root span.
    pub fn begin(spans: &'a mut Spans, run: u32) -> Self {
        let root = spans.open("rep", ROOT, run);
        Self { spans, root, run }
    }

    /// Records a finished phase of the repetition.
    pub fn phase(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        self.spans.record(name, start, end, self.root, self.run)
    }

    /// Records a finished span beneath `parent`.
    pub fn child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.record(name, start, end, parent, self.run)
    }

    /// Opens a phase whose children are recorded before it ends.
    pub fn open_phase(&mut self, name: &'static str) -> SpanId {
        self.spans.open(name, self.root, self.run)
    }

    /// Ends a phase opened with [`RepTrace::open_phase`].
    pub fn close(&mut self, id: SpanId) {
        self.spans.close(id);
    }

    /// Ends the repetition's root span.
    pub fn end(self) {
        self.spans.close(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut s = Spans::new();
        let t0 = s.epoch;
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let parent = s.record("rep", at(0), at(100), ROOT, 0);
        s.record("build", at(0), at(30), parent, 0);
        let measure = s.record("measure", at(30), at(90), parent, 0);
        s.record("cycle", at(40), at(50), measure, 0);
        assert_eq!(s.self_ns(), vec![10, 30, 50, 10]);
    }
}

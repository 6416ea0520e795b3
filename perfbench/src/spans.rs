//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around the calls into the layer), kept in memory, and written out
//! once at exit. Every span of a run shares the run's `workload` id; a
//! span's self time is its duration minus what its children cover.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.world.run`, `replay`, ...).
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

/// Records spans as a tree: `open` nests under the innermost open span.
#[derive(Debug)]
pub struct SpanRecorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose spans all carry `workload` as their shared id.
    pub fn new(workload: &str) -> Self {
        SpanRecorder {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — an unbalanced open/close pair is a
    /// bug in the benchmark.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanRecorder) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Everything recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx` in nanoseconds: duration minus the time
    /// its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        span.end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(children)
    }

    /// The whole tree as one JSON object:
    /// `{"workload":…,"spans":[{"id","name","start_ns","end_ns","self_ns","parent"}…]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + 128 * self.spans.len());
        let _ = write!(
            s,
            "{{\"workload\":{},\"spans\":[",
            mp2p_trace::json::escape(&self.workload)
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{}}}",
                mp2p_trace::json::escape(&span.name),
                span.start_ns,
                span.end_ns,
                self.self_ns(i),
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = SpanRecorder::new("w");
        rec.scope("root", |rec| {
            rec.scope("child-a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.scope("child-b", |rec| rec.scope("grandchild", |_| ()));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let root = spans[0].end_ns - spans[0].start_ns;
        let kids: u64 = [1, 2]
            .iter()
            .map(|&i| spans[i].end_ns - spans[i].start_ns)
            .sum();
        assert_eq!(rec.self_ns(0), root - kids);
        assert!(spans[1].end_ns - spans[1].start_ns >= 2_000_000);
        let doc = mp2p_trace::json::parse(&rec.to_json()).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(|w| w.as_str()), Some("w"));
    }
}

//! Host-clock spans recorded by the benchmark around its calls into
//! each layer's public functions.
//!
//! A span has a name, start and end (ns since the tracer was made),
//! the span that was open when it started, and the query id of the
//! first query it serves. Spans stay in memory and are written out as
//! JSON lines when the run ends. A disabled tracer still times every
//! call — the benchmark needs the durations either way — but records
//! nothing, so the untraced run pays only for `Instant::now`.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off; spans already open still close.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (a no-op returning `None` while disabled).
    pub fn enter(&mut self, name: &'static str, query: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `enter` returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let popped = self.open.pop();
            assert_eq!(popped, Some(id), "spans close in the order they open");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span and return its result with its duration in
    /// seconds (measured whether or not the tracer records).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.enter(name, query);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.exit(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
        self.spans[id].secs() - children
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"query\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.query),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let ((), _) =
            t.time("inner", Some(7), || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].query, Some(7));
        assert!(t.self_secs(0) < spans[0].secs());
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", None, || 3);
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}

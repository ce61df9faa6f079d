//! Host-time spans of the traced pass, kept in memory and written out as
//! Chrome/Perfetto trace-event JSON when the benchmark ends.
//!
//! The spans are measured on the host wall clock, so the file is
//! non-deterministic: it says so in its `otherData` block and in its file
//! name, and it is never compared byte for byte.

use std::fmt::Write as _;
use std::time::Instant;

use crate::host::HostFacts;

struct Span {
    name: String,
    parent: Option<usize>,
    run: usize,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span recorder. A disabled recorder only runs the closures.
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for `workload`; records nothing unless `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Spans {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` belonging to run `run`; spans
    /// opened inside `f` become its children.
    pub fn time<R>(&mut self, name: &str, run: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            run,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace-event document: one `"X"` event per span on one track,
    /// with the parent span, workload and run id as arguments.
    pub fn to_perfetto_json(&self, host: &HostFacts) -> String {
        let mut out = String::with_capacity(256 + 192 * self.spans.len());
        let _ = write!(
            out,
            "{{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"clock\": \"host wall\", \
             \"deterministic\": \"false\", \"workload\": \"{}\", \"seed\": \"{}\", \
             \"host_threads\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \
             \"traceEvents\": [\n    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
             \"tid\": 0, \"args\": {{\"name\": \"perfbench {}\"}}}}",
            self.workload, host.seed, host.host_threads, host.rustc, host.commit, self.workload
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n    {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {id}, \"parent\": {parent}, \
                 \"workload\": \"{}\", \"run\": {}}}}}",
                s.name.replace('"', "'"),
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                self.workload,
                s.run
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_render_as_valid_trace_events() {
        let mut spans = Spans::new("unit", true);
        spans.time("outer", 0, |s| s.time("inner \"quoted\"", 1, |_| ()));
        assert_eq!(spans.len(), 2);
        let json = spans.to_perfetto_json(&HostFacts::collect(7));
        assert_eq!(esrcg_cluster::validate_trace_json(&json), Ok(3));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"deterministic\": \"false\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new("unit", false);
        assert_eq!(spans.time("x", 0, |_| 5), 5);
        assert_eq!(spans.len(), 0);
    }
}

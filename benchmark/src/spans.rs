//! Benchmark-side spans: the traced run brackets every call into a layer's
//! public functions, keeps the spans in memory, and writes them out once as
//! a Chrome trace with one lane per layer plus per-layer self time.
//!
//! All calls into the layers come from the benchmark's driver thread, so the
//! recorder is single-threaded and a stack gives each span its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

/// The layer a span belongs to: the part of its name before the first dot
/// (`ir.syntax` -> `ir`); a name without a dot is the benchmark's own.
fn layer(name: &str) -> &str {
    name.split_once('.').map_or("bench", |(l, _)| l)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), job: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to a new job id.
    pub fn next_job(&mut self) {
        self.job += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in the order they nest");
    }

    /// Bracket one call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// part its direct children cover.
    fn self_time_ns(&self) -> BTreeMap<&str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(layer(s.name)).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        by_layer
    }

    /// Write the Chrome trace (object form: `traceEvents` plus metadata).
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self.self_time_ns();
        let lanes: Vec<&str> = self_ns.keys().copied().collect();
        let mut out = String::from("{\"displayTimeUnit\": \"ns\",\n \"traceEvents\": [\n");
        for (tid, lane) in lanes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{lane}\"}}}},"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let tid = lanes.iter().position(|l| *l == layer(s.name)).expect("lane exists");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{}\", \"cat\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {id}, \"parent\": {parent}, \
                 \"job\": {}, \"start_ns\": {}, \"end_ns\": {}}}}}{}",
                s.name,
                layer(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.job,
                s.start_ns,
                s.end_ns,
                if id + 1 == self.spans.len() { "" } else { "," }
            );
        }
        let _ = write!(
            out,
            " ],\n \"otherData\": {{\"workload\": \"{workload}\", \"self_time_ns\": {{"
        );
        for (i, (lane, ns)) in self_ns.iter().enumerate() {
            let _ = write!(out, "{}\"{lane}\": {ns}", if i == 0 { "" } else { ", " });
        }
        out.push_str("}}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Print the per-layer self time (ms) of the whole run.
    pub fn print_self_time(&self, workload: &str) {
        for (lane, ns) in self.self_time_ns() {
            println!("self_time {workload} {lane} = {} ms", ns as f64 / 1e6);
        }
    }
}

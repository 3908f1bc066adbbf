//! Host wall-clock measurement and the in-memory span log of a traced run.
//!
//! This is the only module that reads the host clock. Nothing measured
//! here flows into a simulation: spans and timings go to the benchmark's
//! own result line and span file, never into a `SimReport`, a CSV or a
//! golden.

use std::fmt::Write as _;
// simlint: allow(wall-clock, reason = "perfbench measures host time; no timing value reaches a SimReport, CSV or golden")
use std::time::Instant;

/// A started host-time measurement.
#[derive(Clone, Copy, Debug)]
// simlint: allow(wall-clock, reason = "perfbench measures host time; no timing value reaches a SimReport, CSV or golden")
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        // simlint: allow(wall-clock, reason = "perfbench measures host time; no timing value reaches a SimReport, CSV or golden")
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating).
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One recorded span. A *busy* span is the summed time of many short
/// calls made inside its parent (a decorator's per-call timings), so its
/// `end_ns - start_ns` is a duration, not an interval on the clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `gpu_sim.run` or `tlb.l1_lookup`.
    pub name: String,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Calls folded into a busy span (1 for an interval span).
    pub calls: u64,
    /// Whether this span sums many calls rather than covering one interval.
    pub busy: bool,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for the whole run and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Stopwatch,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent` and returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.epoch.nanos();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
            calls: 1,
            busy: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.nanos();
    }

    /// Runs `f` inside a span named `name`.
    pub fn record<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a busy child of `parent`: `ns` summed over `calls` calls.
    pub fn add_busy(&mut self, parent: usize, name: &str, ns: u64, calls: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            calls,
            busy: true,
        });
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> i128 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        i128::from(self.spans[id].duration_ns()) - i128::from(children)
    }

    /// Durations in seconds of every span named `name`, in opening order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self times in seconds of every span named `name`, in opening order.
    pub fn self_s(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 * 1e-9)
            .collect()
    }

    /// The log as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"calls\": {}, \"busy\": {}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.calls,
                s.busy
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new();
        let root = log.open("root", None);
        let child = log.open("child", Some(root));
        log.add_busy(child, "leaf", 5, 3);
        log.close(child);
        log.close(root);
        let r = log.spans()[root].duration_ns();
        let c = log.spans()[child].duration_ns();
        assert_eq!(log.self_ns(root), i128::from(r) - i128::from(c));
        assert_eq!(log.self_ns(child), i128::from(c) - 5);
        assert_eq!(log.spans()[2].calls, 3);
        assert!(log.to_json().contains("\"name\": \"leaf\""));
    }
}

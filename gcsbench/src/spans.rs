//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Only the traced binary records: the untraced one carries a disabled
//! recorder whose `time` is a plain call, so end-to-end figures pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: what was called, and when, relative to the recorder's
/// epoch. Every span's parent is the run itself (the benchmark calls each
/// layer from its top level), so no span id is kept.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording a span named `name` around it when enabled.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        out
    }

    /// Total seconds spent inside spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        crate::stats::median(self.durations(name).collect())
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// The spans as JSON: a per-name summary plus every span as
    /// `[name, start_ns, end_ns]`.
    pub fn to_json(&self) -> String {
        let mut summary: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        let mut out = String::from("{\"summary\": {");
        for (i, (name, (count, ns))) in summary.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {count}, \"total_ns\": {ns}}}"
            );
        }
        out.push_str("}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}[\"{}\", {}, {}]", s.name, s.start_ns, s.end_ns);
        }
        out.push_str("\n]}\n");
        out
    }
}

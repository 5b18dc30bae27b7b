//! Spans recorded by the benchmark's own code around its calls into the
//! system: `submit_request`, `flush`, each reply callback, each reader call,
//! each `run_epoch`. They stay in memory and are written out when the run
//! ends. Spans inside the product are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::summary;

/// One timed call. `op` identifies the operation (generator in the high
/// half, sequence in the low) and is shared by all spans of that operation.
/// The span named `op` runs from the operation's start to its reply and is
/// the parent of the others.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span(
        &self,
        name: &'static str,
        generator: usize,
        op: usize,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            op: (generator as u64) << 32 | op as u64,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        }
    }
}

/// Mean duration in µs of the spans called `name`, or 0 when there are none
/// (a workload that never makes the call).
pub fn mean_micros(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect();
    summary::mean(&durations).unwrap_or(0.0)
}

/// Writes the spans as one JSON document of `[name, op, parent, start_ns,
/// end_ns]` rows; parent 0 marks an operation's own span.
pub fn write(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"op\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":["
    );
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if span.name == "op" { 0 } else { span.op };
        let _ = write!(
            out,
            "[\"{}\",{},{parent},{},{}]",
            span.name, span.op, span.start_ns, span.end_ns
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

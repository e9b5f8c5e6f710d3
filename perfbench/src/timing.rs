//! Instruments the benchmark wraps around the production entry points:
//! a rebalance timer, the benchmark's span log and the summary statistics.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use archsim::Platform;
use kernelsim::{Allocation, EpochReport, LoadBalancer};
use telemetry::TelemetryHandle;

/// Times every `rebalance` call of the wrapped production balancer.
///
/// `attach_telemetry` is forwarded: without it a traced run through the
/// wrapper would record no balancer stages at all.
pub struct TimedBalancer {
    inner: Box<dyn LoadBalancer>,
    /// Host time of each `rebalance` call, ns, in call order.
    pub samples_ns: Vec<u64>,
    /// Start of the most recent call.
    pub last_start: Option<Instant>,
}

impl TimedBalancer {
    pub fn new(inner: Box<dyn LoadBalancer>) -> Self {
        TimedBalancer {
            inner,
            samples_ns: Vec::new(),
            last_start: None,
        }
    }
}

impl LoadBalancer for TimedBalancer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let t0 = Instant::now();
        let out = self.inner.rebalance(platform, report);
        self.samples_ns.push(nanos(t0, Instant::now()));
        self.last_start = Some(t0);
        out
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.inner.attach_telemetry(handle);
    }
}

/// One benchmark span: a call into a layer, timed from outside.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans a traced run keeps: a few passes' worth on the quad-core
/// workloads, everything on the others. Later spans are counted, not
/// kept, so the trace file stays a few MiB.
const SPAN_CAPACITY: usize = 1 << 17;

/// The traced run's span log, kept in memory and written out at the
/// end. When off, `push` records nothing.
pub struct SpanLog {
    origin: Instant,
    spans: Option<Vec<Span>>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        SpanLog {
            origin,
            spans: enabled.then(Vec::new),
            dropped: 0,
        }
    }

    /// Records a span and returns its id, or `None` when off or full.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        let spans = self.spans.as_mut()?;
        if spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return None;
        }
        spans.push(Span {
            name,
            start_ns: nanos(self.origin, start),
            end_ns: nanos(self.origin, end),
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Sets the end of span `id` (opened with its start as the end).
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        let origin = self.origin;
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_ns = nanos(origin, end);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span: id, name, start, end (ns since
    /// process start) and parent id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

pub fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `ns` samples converted to µs.
pub fn micros(samples_ns: &[u64]) -> Vec<f64> {
    samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Per-stage work totals from a telemetry hub's stage profile.
pub fn stage_work(hub: &TelemetryHandle, stage: &str) -> u64 {
    hub.borrow()
        .stage_profile()
        .iter()
        .find(|s| s.stage == stage)
        .map_or(0, |s| s.work)
}

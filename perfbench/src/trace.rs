//! The benchmark's own span recorder and the summary statistics it
//! reports.
//!
//! A span covers one call from the benchmark into a layer of the
//! program: its name, start, end and the span that caused it. Spans are
//! kept in memory while the run measures and written out once at the
//! end. With tracing off the recorder does nothing, so untraced runs pay
//! one branch per call.

use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span; 0 for a root span.
    pub parent: u64,
    /// Layer call name, such as `jgf.sor` or `serve.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder shared by the benchmark's threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, or 0 with tracing off.
    pub fn next_id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span whose id was taken earlier with [`next_id`](Self::next_id).
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id();
        let start = Instant::now();
        let r = f();
        self.record(id, parent, name, start, Instant::now());
        r
    }

    /// Durations, in nanoseconds, of every span named `name` recorded so
    /// far.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Write every span as one JSON document to `path`, after the
    /// `header` fields (already rendered `"key": value` pairs). Returns
    /// the number of spans written.
    pub fn write(&self, path: &Path, header: &[(String, String)]) -> std::io::Result<usize> {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking recorder");
        let mut out = String::with_capacity(spans.len() * 96 + 256);
        out.push('{');
        for (k, v) in header {
            let _ = write!(out, "\"{k}\": {v}, ");
        }
        out.push_str("\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok(spans.len())
    }
}

/// The `q` quantile (0..=1) of `v` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Target length of the windows [`best_window`] cuts a phase into.
pub const WINDOW_S: f64 = 1.0;

/// The smallest value of `stat` over a phase's windows. The phase,
/// `secs` long, is cut into equal consecutive windows of about
/// [`WINDOW_S`]; `t_s` holds each sample's time from the phase start in
/// seconds, non-decreasing, and `stat` gets the index range of one
/// window's samples. Windows without samples are skipped; 0 if all are.
///
/// On a host shared with other guests the hypervisor steals time in
/// bursts of a few seconds, and a fork-join op that loses a vCPU waits
/// for it at the next barrier. The least-disturbed window is the best
/// estimate of what the program itself costs (best of N).
pub fn best_window(t_s: &[f64], secs: f64, stat: impl Fn(Range<usize>) -> f64) -> f64 {
    let n = (secs / WINDOW_S).round().max(1.0) as usize;
    let len = secs / n as f64;
    let mut best = f64::INFINITY;
    let mut lo = 0;
    for w in 1..=n {
        let hi = if w == n {
            t_s.len()
        } else {
            lo + t_s[lo..].partition_point(|&t| t < w as f64 * len)
        };
        if hi > lo {
            best = best.min(stat(lo..hi));
        }
        lo = hi;
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Arithmetic mean of `v`; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_best_window_is_the_least_disturbed_one() {
        // 3 s in three 1 s windows; the middle one is slow.
        let t = [0.25, 0.75, 1.25, 1.75, 2.25, 2.75];
        let v = [10.0, 12.0, 30.0, 32.0, 11.0, 11.0];
        assert_eq!(best_window(&t, 3.0, |r| median(&v[r])), 11.0);
        // An empty window is skipped; no samples at all reads 0.
        assert_eq!(best_window(&t[..2], 3.0, |r| median(&v[r])), 11.0);
        assert_eq!(best_window(&[], 3.0, |r| median(&v[r])), 0.0);
        // A phase shorter than a window is one window.
        assert_eq!(best_window(&t, 0.5, |r| r.len() as f64), 6.0);
    }

    #[test]
    fn spans_nest_and_are_only_kept_when_on() {
        let off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.durations("x").is_empty());
        let on = Tracer::new(true);
        let root = on.next_id();
        let t0 = Instant::now();
        on.span("child", root, || ());
        on.record(root, 0, "root", t0, Instant::now());
        let spans = on.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[1].id, root);
        assert!(spans[1].dur_ns() >= spans[0].dur_ns());
    }
}

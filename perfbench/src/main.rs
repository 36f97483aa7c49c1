//! End-to-end and per-layer benchmark of the aomp runtime.
//!
//! ```text
//! perfbench --workload <jgf-fine|graph|serve-steady> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics with every
//! `aomp::obs` facility off. Traced runs (`--trace 1`) measure the same
//! workload once untraced and once with `obs` metrics armed and the
//! benchmark's spans recorded, report the per-layer metrics, and write
//! the spans to `<out>/spans-<workload>-seed<n>.json` (default `out/`
//! inside the benchmark's directory). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Lines before it give the latency tail with its sample count and the
//! host's steal time. `latency_p50_ms` and `cpu_ms_per_op` come from
//! the least-disturbed window of the run (see `trace::best_window`).
//! Every op's output is checked against references computed without the
//! parallel runtime; a failed op makes the run exit with code 1.

mod closed;
mod graph;
mod jgf;
mod layers;
mod proc;
mod rng;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use aomp::obs;

use crate::closed::ClosedLoop;
use crate::layers::Traced;
use crate::proc::HostTicks;
use crate::trace::{median, quantile, Tracer};

/// Team size of every workload (the host has 2 hardware threads).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Name and unit of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("goodput_per_s", "1/s"),
];

const USAGE: &str = "usage: perfbench --workload <jgf-fine|graph|serve-steady> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "jgf-fine" | "graph" | "serve-steady" => workload = Some(value),
                _ => return Err(bad("jgf-fine, graph or serve-steady")),
            },
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The first `AOMP_*` variable in the environment: the program reads
/// several (`AOMP_NUM_THREADS`, `AOMP_NO_POOL`, `AOMP_METRICS`,
/// `AOMP_TRACE`, `AOMP_SCHEDULE`, `AOMP_TASK_WORKERS`,
/// `AOMP_SERVE_FAULTS`, …), and any of them would change what is
/// measured.
fn aomp_env_var() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("AOMP_"))
}

/// A run's result.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON line.
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "{name} = {value} is not a number");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Pair end-to-end values, in [`END_TO_END`] order, with their names
/// and units.
fn end_to_end(values: [f64; 5]) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median set-up time in seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        // The previous result is dropped here, outside the timed part.
        last = Some(v);
    }
    (last.expect("SETUP_REPS > 0"), median(&times))
}

/// A latency sample's median and tail, with its size.
fn tail_note(what: &str, lat_ns: &[f64]) -> String {
    format!(
        "# {what}: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms over {} samples",
        median(lat_ns) / 1e6,
        quantile(lat_ns, 0.90) / 1e6,
        quantile(lat_ns, 0.99) / 1e6,
        lat_ns.len()
    )
}

fn host_note(ticks: &HostTicks) -> String {
    format!(
        "# host: {} hardware threads, steal {} of {} ticks ({:.2} %)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ticks.steal,
        ticks.total,
        ticks.steal_pct()
    )
}

/// Arm `obs` metrics and span recording around `f`, then disarm.
fn traced<R>(f: impl FnOnce(&Tracer) -> R) -> (R, Tracer, obs::Delta, u64) {
    let tr = Tracer::new(true);
    let d0 = layers::weaver_dispatches();
    obs::set_metrics(true);
    let s0 = obs::snapshot();
    let r = f(&tr);
    let delta = obs::snapshot().since(&s0);
    obs::set_metrics(false);
    (r, tr, delta, layers::weaver_dispatches() - d0)
}

fn write_spans(a: &Args, tr: &Tracer, host: &HostTicks) -> String {
    let path = a
        .out
        .join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    let header = vec![
        ("workload".to_owned(), format!("\"{}\"", a.workload)),
        ("seed".to_owned(), a.seed.to_string()),
        ("threads".to_owned(), THREADS.to_string()),
        ("steal_ticks".to_owned(), host.steal.to_string()),
        ("total_ticks".to_owned(), host.total.to_string()),
    ];
    match tr.write(&path, &header) {
        Ok(n) => format!("# wrote {n} spans to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write spans to {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Run a closed-loop workload: `make` builds the inputs of a seed,
/// `warm` runs one unchecked op on them, `build` adds the references.
fn closed_workload<I, W: ClosedLoop>(
    a: &Args,
    make: impl Fn(u64) -> I,
    warm: impl Fn(&I),
    build: impl FnOnce(I) -> W,
) -> Report {
    let (inputs, setup_s) = timed_setup(|| {
        let i = make(a.seed);
        warm(&i);
        i
    });
    let w = build(inputs);
    let h0 = HostTicks::now();
    if !a.trace {
        let p = closed::run(&w, a.seconds, &Tracer::new(false));
        let p50_ms = p.p50_ms();
        let ok_share = (p.attempted - p.failed) as f64 / p.attempted as f64;
        return Report {
            attempted: p.attempted,
            failed: p.failed,
            metrics: end_to_end([
                setup_s,
                p50_ms,
                p.cpu_ms_per_op(),
                proc::peak_rss_mb(),
                ok_share * 1e3 / p50_ms,
            ]),
            notes: vec![
                tail_note("op latency", &p.lat_ns),
                host_note(&HostTicks::now().since(&h0)),
            ],
        };
    }
    let untraced = closed::run(&w, a.seconds / 2.0, &Tracer::new(false));
    let (p, tr, delta, dispatches) = traced(|tr| closed::run(&w, a.seconds / 2.0, tr));
    let host = HostTicks::now().since(&h0);
    let metrics = layers::metrics(&Traced {
        tracer: &tr,
        obs: &delta,
        dispatches,
        ops: p.attempted,
        p50_ms: p.p50_ms(),
        untraced_usage: untraced.usage,
        untraced_ops: untraced.attempted,
        untraced_p50_ms: untraced.p50_ms(),
        serve: None,
    });
    Report {
        attempted: untraced.attempted + p.attempted,
        failed: untraced.failed + p.failed,
        metrics,
        notes: vec![
            tail_note("untraced op latency", &untraced.lat_ns),
            tail_note("traced op latency", &p.lat_ns),
            host_note(&host),
            write_spans(a, &tr, &host),
        ],
    }
}

fn serve_workload(a: &Args) -> Report {
    let (s, setup_s) = timed_setup(|| {
        let s = serve::setup(a.seed);
        s.warm_up();
        s
    });
    let refs = s.references();
    let h0 = HostTicks::now();
    if !a.trace {
        let n = s.whole_rounds((serve::RATE * a.seconds).round() as usize);
        let p = serve::run(&s, &refs, n, &Tracer::new(false));
        return Report {
            attempted: p.attempted,
            failed: p.failed,
            metrics: end_to_end([
                setup_s,
                p.p50_ms(),
                p.cpu_ms_per_op(),
                proc::peak_rss_mb(),
                p.lat_ns.len() as f64 / p.wall.as_secs_f64(),
            ]),
            notes: vec![
                tail_note("request latency from due time", &p.lat_ns),
                tail_note("pacer lateness", &p.late_ns),
                host_note(&HostTicks::now().since(&h0)),
            ],
        };
    }
    let n = s.whole_rounds((serve::RATE * a.seconds / 2.0).round() as usize);
    let untraced = serve::run(&s, &refs, n, &Tracer::new(false));
    let (p, tr, delta, dispatches) = traced(|tr| serve::run(&s, &refs, n, tr));
    let host = HostTicks::now().since(&h0);
    let metrics = layers::metrics(&Traced {
        tracer: &tr,
        obs: &delta,
        dispatches,
        ops: p.attempted,
        p50_ms: p.p50_ms(),
        untraced_usage: untraced.usage,
        untraced_ops: untraced.attempted,
        untraced_p50_ms: untraced.p50_ms(),
        serve: Some(&p),
    });
    Report {
        attempted: untraced.attempted + p.attempted,
        failed: untraced.failed + p.failed,
        metrics,
        notes: vec![
            tail_note("untraced request latency from due time", &untraced.lat_ns),
            tail_note("traced request latency from due time", &p.lat_ns),
            tail_note("traced pacer lateness", &p.late_ns),
            host_note(&host),
            write_spans(a, &tr, &host),
        ],
    }
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = aomp_env_var() {
        eprintln!(
            "refusing to start: {var} is set; AOMP_* variables change what the runtime does, \
             so unset them for a comparable measurement"
        );
        std::process::exit(2);
    }
    aomp::runtime::set_default_threads(THREADS);
    assert!(!obs::metrics_enabled(), "obs metrics start off");
    let report = match a.workload.as_str() {
        "jgf-fine" => closed_workload(
            &a,
            jgf::inputs,
            |i| drop(jgf::pass(i, &Tracer::new(false), 0)),
            jgf::JgfFine::new,
        ),
        "graph" => closed_workload(
            &a,
            graph::inputs,
            |i| drop(graph::pass(i, &Tracer::new(false), 0)),
            graph::Graph::new,
        ),
        _ => serve_workload(&a),
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload graph --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("graph", 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload graph --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload graph --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload graph --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload graph --seed 1 --seconds 5").is_err());
        assert!(args("--workload graph --seed").is_err());
    }

    #[test]
    fn a_failed_op_makes_the_report_incorrect() {
        let r = Report {
            attempted: 4,
            failed: 1,
            metrics: vec![("setup_s", 0.5, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

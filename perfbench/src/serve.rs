//! `serve-steady`: an open loop. One tenant receives requests at a fixed,
//! uniform rate of about half this host's capacity; requests rotate
//! through `SumRange`, `DegreeSum` and `Fanout`.
//!
//! The benchmark drives `Server::submit` and `ResponseHandle::wait`
//! itself instead of `loadgen::run`, so that every latency is an exact
//! per-request sample timed from the request's due time, and the pacer's
//! lateness is reported. Two load threads: a pacer that submits and a
//! collector that waits, in submission order. A request that finishes
//! before an earlier one is therefore timed when the earlier one's wait
//! returns; at half capacity requests rarely overlap.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use aomp_serve::{Output, Request, ResponseHandle, ServeError, Server, TenantSpec, Workload};

use crate::proc::{cpu_ns, Usage};
use crate::rng::Rng;
use crate::trace::{best_window, median, Tracer};
use crate::THREADS;

/// Offered load, requests per second: a constant of the workload, about
/// half the capacity measured for this mix on a 2-vCPU host.
pub const RATE: f64 = 800.0;
/// In-flight requests admitted before the tenant sheds. It also sets
/// the tenant's executor worker count (`ServerConfig::build` passes
/// `queue_capacity.max(2)` to `task_workers`).
pub const QUEUE_CAPACITY: usize = 128;
/// Per-request deadline.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Vertices of the shared request graph (`DegreeSum`).
pub const GRAPH_VERTICES: usize = 4096;
/// Mean out-degree of the shared request graph.
pub const GRAPH_DEGREE: usize = 8;
/// Variants of each request kind; the mix rotates through all of them,
/// kinds interleaved, so a run is whole rounds of `3 × VARIANTS`.
pub const VARIANTS: usize = 4;
/// Iterations of a `SumRange` request, ±10 % per variant.
pub const SUM_N: u64 = 400_000;
/// Vertex passes of a `DegreeSum` request, +0..2 per variant.
pub const DEGREE_ROUNDS: u32 = 32;
/// Futures of a `Fanout` request.
pub const FANOUT_PARTS: u32 = 4;
/// Iterations of a `Fanout` request, ±10 % per variant.
pub const FANOUT_N: u64 = 400_000;

/// The server and its request mix.
pub struct Steady {
    server: Server,
    mix: Vec<Workload>,
}

/// Build the server for `seed` and its request mix.
pub fn setup(seed: u64) -> Steady {
    let mut r = Rng::new(seed, 20);
    let server = Server::config()
        .graph(GRAPH_VERTICES, GRAPH_DEGREE, r.next_u64())
        .tenant(
            TenantSpec::new("steady")
                .threads(THREADS)
                .queue_capacity(QUEUE_CAPACITY)
                .default_deadline(DEADLINE),
        )
        .build();
    let mut jitter = |base: u64| base - base / 10 + r.next_u64() % (base / 5);
    let mut mix = Vec::with_capacity(3 * VARIANTS);
    for v in 0..VARIANTS {
        mix.push(Workload::SumRange { n: jitter(SUM_N) });
        mix.push(Workload::DegreeSum {
            rounds: DEGREE_ROUNDS + (v as u32 % 3),
        });
        mix.push(Workload::Fanout {
            parts: FANOUT_PARTS,
            n: jitter(FANOUT_N),
        });
    }
    Steady { server, mix }
}

impl Steady {
    /// The set-up warm-up: fill the tenant's queue with one burst of
    /// [`QUEUE_CAPACITY`] requests from the mix and wait for all of them.
    /// The burst starts as many executor workers and hot teams as any
    /// later burst can, so peak memory does not depend on how deep the
    /// bursts that host stalls cause during the measurement happen to be.
    pub fn warm_up(&self) {
        let handles: Vec<_> = (0..QUEUE_CAPACITY)
            .filter_map(|i| {
                let w = self.mix[i % self.mix.len()];
                self.server.submit(0, Request::new(w)).ok()
            })
            .collect();
        for h in handles {
            let _ = h.wait();
        }
    }

    /// The expected output of each mix entry, computed sequentially.
    pub fn references(&self) -> Vec<Output> {
        self.mix
            .iter()
            .map(|&w| w.expected(self.server.graph()))
            .collect()
    }

    /// Round `n` requests up to whole rounds of the mix.
    pub fn whole_rounds(&self, n: usize) -> usize {
        n.div_ceil(self.mix.len()).max(1) * self.mix.len()
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Planned length of the phase: requests offered / [`RATE`], seconds.
    pub secs: f64,
    /// Due time of every correct response, seconds from the phase start.
    pub due_s: Vec<f64>,
    /// Due-to-completion latency of every correct response, nanoseconds.
    pub lat_ns: Vec<f64>,
    /// Process CPU time from the phase start to every correct response's
    /// completion, nanoseconds.
    pub cpu_done_ns: Vec<f64>,
    /// How late the pacer submitted each request, nanoseconds.
    pub late_ns: Vec<f64>,
    /// Requests offered.
    pub attempted: u64,
    /// Requests shed, missed, faulted or answered wrongly.
    pub failed: u64,
    /// Process counters over the phase.
    pub usage: Usage,
    /// From the first due time to the last completion.
    pub wall: Duration,
}

struct Sent {
    idx: usize,
    span: u64,
    due: Instant,
    res: Result<ResponseHandle, ServeError>,
}

/// Offer `n` requests at [`RATE`] and collect every response.
pub fn run(s: &Steady, refs: &[Output], n: usize, tr: &Tracer) -> Phase {
    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut p = Phase {
        secs: n as f64 / RATE,
        attempted: n as u64,
        ..Phase::default()
    };
    let u0 = Usage::now();
    let c0 = cpu_ns();
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut last_done = t0;
    std::thread::scope(|sc| {
        let pacer = sc.spawn(|| {
            let mut late = Vec::with_capacity(n);
            for idx in 0..n {
                let due = t0 + period * idx as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let span = tr.next_id();
                let sub = Instant::now();
                late.push((sub - due).as_nanos() as f64);
                let req = Request::new(s.mix[idx % s.mix.len()]);
                let res = tr.span("serve.submit", span, || s.server.submit(0, req));
                tx.send(Sent {
                    idx,
                    span,
                    due,
                    res,
                })
                .expect("the collector outlives the pacer");
            }
            drop(tx);
            late
        });
        for sent in rx {
            let kind = sent.idx % s.mix.len();
            let outcome = match sent.res {
                Ok(h) => tr.span("serve.wait", sent.span, || h.wait()),
                Err(e) => Err(e),
            };
            let done = Instant::now();
            last_done = done;
            tr.record(sent.span, 0, "serve.request", sent.due, done);
            match outcome {
                Ok(out) if out == refs[kind] => {
                    p.due_s.push((sent.due - t0).as_secs_f64());
                    p.lat_ns.push((done - sent.due).as_nanos() as f64);
                    p.cpu_done_ns.push((cpu_ns() - c0) as f64);
                }
                other => {
                    if p.failed < 5 {
                        eprintln!("request {} ({:?}) failed: {other:?}", sent.idx, s.mix[kind]);
                    }
                    p.failed += 1;
                }
            }
        }
        p.late_ns = pacer.join().expect("the pacer thread does not panic");
    });
    p.usage = Usage::now().since(&u0);
    p.wall = last_done.saturating_duration_since(t0);
    p
}

impl Phase {
    /// Median due-to-completion latency of the least-disturbed window,
    /// milliseconds.
    pub fn p50_ms(&self) -> f64 {
        best_window(&self.due_s, self.secs, |r| median(&self.lat_ns[r])) / 1e6
    }

    /// Process CPU time per correct response of the least-disturbed
    /// window, milliseconds.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let c = &self.cpu_done_ns;
        best_window(&self.due_s, self.secs, |r| {
            let before = if r.start == 0 { 0.0 } else { c[r.start - 1] };
            (c[r.end - 1] - before) / r.len() as f64
        }) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_checked_and_wrong_answers_count_as_failed() {
        let s = setup(9);
        let refs = s.references();
        let tr = Tracer::new(false);
        let n = s.whole_rounds(24);
        let good = run(&s, &refs, n, &tr);
        assert_eq!(good.attempted, n as u64);
        assert_eq!(good.failed, 0);
        assert_eq!(good.lat_ns.len(), n);
        assert_eq!(good.late_ns.len(), n);
        // Corrupt one kind's reference: exactly its requests fail.
        let mut wrong = refs.clone();
        wrong[1] = Output::U64(12345);
        let bad = run(&s, &wrong, n, &tr);
        assert_eq!(bad.failed, (n / s.mix.len()) as u64);
    }

    #[test]
    fn the_mix_rotates_the_three_kinds() {
        let s = setup(1);
        assert_eq!(s.mix.len(), 3 * VARIANTS);
        assert!(matches!(s.mix[0], Workload::SumRange { .. }));
        assert!(matches!(s.mix[1], Workload::DegreeSum { .. }));
        assert!(matches!(s.mix[2], Workload::Fanout { .. }));
        assert_eq!(s.whole_rounds(1), s.mix.len());
    }
}

//! The closed loop shared by `jgf-fine` and `graph`: one caller issues
//! the next op as soon as the previous one returns.

use std::time::Instant;

use crate::proc::{cpu_ns, Usage};
use crate::trace::{best_window, mean, median, Tracer};

/// A workload driven in a closed loop. One op is one whole round of the
/// same calls, so every run attempts the same operations in the same
/// proportions whatever its length.
pub trait ClosedLoop {
    /// What one op returns for checking.
    type Out;

    /// Run one op. Spans for the layer calls it makes go under `parent`.
    fn op(&self, tr: &Tracer, parent: u64) -> Self::Out;

    /// Compare an op's output with the references computed apart from
    /// the parallel runtime; `Err` names the first mismatch.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
}

/// What one measuring phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Planned length of the phase, seconds.
    pub secs: f64,
    /// Start of every op, seconds from the phase start.
    pub start_s: Vec<f64>,
    /// Wall time of every op, nanoseconds (checks excluded).
    pub lat_ns: Vec<f64>,
    /// Process CPU time over every op's interval, nanoseconds.
    pub cpu_ns: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
    /// Process counters over the whole phase.
    pub usage: Usage,
}

/// Issue ops back to back for `secs` seconds (at least one op), timing
/// each and checking each output outside its timed interval.
pub fn run<W: ClosedLoop>(w: &W, secs: f64, tr: &Tracer) -> Phase {
    let mut p = Phase {
        secs,
        ..Phase::default()
    };
    let u0 = Usage::now();
    let start = Instant::now();
    while p.attempted == 0 || start.elapsed().as_secs_f64() < secs {
        let id = tr.next_id();
        let c0 = cpu_ns();
        let t0 = Instant::now();
        let out = w.op(tr, id);
        let t1 = Instant::now();
        p.cpu_ns.push((cpu_ns() - c0) as f64);
        tr.record(id, 0, "op", t0, t1);
        p.start_s.push((t0 - start).as_secs_f64());
        p.lat_ns.push((t1 - t0).as_nanos() as f64);
        p.attempted += 1;
        if let Err(why) = w.check(&out) {
            if p.failed < 5 {
                eprintln!("op {} failed its check: {why}", p.attempted);
            }
            p.failed += 1;
        }
    }
    p.usage = Usage::now().since(&u0);
    p
}

impl Phase {
    /// Median op time of the least-disturbed window, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        best_window(&self.start_s, self.secs, |r| median(&self.lat_ns[r])) / 1e6
    }

    /// Mean process CPU time per op of the least-disturbed window,
    /// milliseconds.
    pub fn cpu_ms_per_op(&self) -> f64 {
        best_window(&self.start_s, self.secs, |r| mean(&self.cpu_ns[r])) / 1e6
    }
}

/// Whether two float slices are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns `n` each op; the reference is `want`.
    struct Fixed {
        n: u64,
        want: u64,
    }

    impl ClosedLoop for Fixed {
        type Out = u64;
        fn op(&self, _: &Tracer, _: u64) -> u64 {
            self.n
        }
        fn check(&self, out: &u64) -> Result<(), String> {
            if *out == self.want {
                Ok(())
            } else {
                Err(format!("{out} != {}", self.want))
            }
        }
    }

    #[test]
    fn every_op_with_a_wrong_output_counts_as_failed() {
        let tr = Tracer::new(false);
        let good = run(&Fixed { n: 7, want: 7 }, 0.01, &tr);
        assert!(good.attempted >= 1);
        assert_eq!(good.failed, 0);
        let bad = run(&Fixed { n: 8, want: 7 }, 0.01, &tr);
        assert!(bad.attempted >= 1);
        assert_eq!(bad.failed, bad.attempted);
        assert_eq!(bad.lat_ns.len() as u64, bad.attempted);
    }

    #[test]
    fn bitwise_comparison_sees_signed_zero_and_length() {
        assert!(same_bits(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}

//! Per-layer metrics of a traced run. Counts come from the program's own
//! `aomp::obs` registry and `Weaver::stats`, read through their public
//! API; times come from the benchmark's spans around each layer call and
//! from two probes that time one layer call in isolation.
//!
//! Every traced run reports every metric; a layer the workload does not
//! call reads 0.

use std::time::Instant;

use aomp::obs::{Counter, Delta, Lat};
use aomp_weaver::{AspectModule, Weaver};

use crate::proc::Usage;
use crate::trace::{mean, median, quantile, Tracer};
use crate::{graph, jgf, serve, THREADS};

/// Name and unit of every per-layer metric, in report order.
pub const METRICS: [(&str, &str); 38] = [
    ("weaver.dispatches_per_op", "count/op"),
    ("weaver.deploy_us", "us"),
    ("region.entry_us", "us"),
    ("region.pooled_per_op", "count/op"),
    ("pool.cache_miss_per_op", "count/op"),
    ("barrier.rounds_per_op", "count/op"),
    ("barrier.wait_mean_us", "us"),
    ("workshare.chunks_per_op", "count/op"),
    ("workshare.adaptive_steals_per_op", "count/op"),
    ("critical.contended_per_op", "count/op"),
    ("deps.tasks_per_op", "count/op"),
    ("deps.us_per_task", "us"),
    ("task.dedicated_per_op", "count/op"),
    ("task.refused_saturated_per_op", "count/op"),
    ("exec.parks_per_op", "count/op"),
    ("exec.unparks_per_op", "count/op"),
    ("nr.combines_per_op", "count/op"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("jgf.crypt_ms", "ms"),
    ("jgf.lufact_ms", "ms"),
    ("jgf.series_ms", "ms"),
    ("jgf.sor_ms", "ms"),
    ("jgf.sparse_ms", "ms"),
    ("jgf.moldyn_ms", "ms"),
    ("jgf.montecarlo_ms", "ms"),
    ("jgf.raytracer_ms", "ms"),
    ("jgf.lufact_annotated_ms", "ms"),
    ("irregular.pagerank_deps_ms", "ms"),
    ("irregular.bfs_deps_ms", "ms"),
    ("irregular.triangles_adaptive_ms", "ms"),
    ("proc.sys_cpu_ms_per_op", "ms/op"),
    ("proc.vol_ctx_per_op", "count/op"),
    ("proc.invol_ctx_per_op", "count/op"),
    ("proc.minflt_per_op", "count/op"),
    ("obs.trace_overhead_ms", "ms"),
];

/// Chunk-handout counters of every schedule.
const CHUNK_COUNTERS: [Counter; 7] = [
    Counter::ChunkStaticBlock,
    Counter::ChunkStaticCyclic,
    Counter::ChunkDynamic,
    Counter::ChunkGuided,
    Counter::ChunkBlockCyclic,
    Counter::ChunkAdaptive,
    Counter::ChunkTaskloop,
];

/// Everything a traced run hands over for the per-layer metrics.
pub struct Traced<'a> {
    /// The traced phase's spans.
    pub tracer: &'a Tracer,
    /// `aomp::obs` activity over the traced phase.
    pub obs: &'a Delta,
    /// Weaver dispatches over the traced phase.
    pub dispatches: u64,
    /// Ops of the traced phase.
    pub ops: u64,
    /// Median op latency of the traced phase, milliseconds.
    pub p50_ms: f64,
    /// Process counters of the untraced phase.
    pub untraced_usage: Usage,
    /// Ops of the untraced phase.
    pub untraced_ops: u64,
    /// Median op latency of the untraced phase, milliseconds.
    pub untraced_p50_ms: f64,
    /// The traced phase, for `serve-steady`.
    pub serve: Option<&'a serve::Phase>,
}

/// Sum of all weaver dispatch counters so far.
pub fn weaver_dispatches() -> u64 {
    Weaver::global().stats().iter().map(|(_, n)| n).sum()
}

/// Median over batches of the mean wall time of `f`, microseconds.
fn probe_us(tr: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    const PER_BATCH: usize = 300;
    tr.span(name, 0, || {
        for _ in 0..PER_BATCH {
            f();
        }
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..PER_BATCH {
                    f();
                }
                t.elapsed().as_nanos() as f64 / PER_BATCH as f64 / 1e3
            })
            .collect();
        median(&batches)
    })
}

/// Compute every per-layer metric, in [`METRICS`] order. Runs the two
/// isolation probes, so call it with `obs` metrics off.
pub fn metrics(t: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let ops = t.ops.max(1) as f64;
    let per_op = |c: Counter| t.obs.counter(c) as f64 / ops;
    let span_ms = |name: &str| median(&t.tracer.durations(name)) / 1e6;
    let deploy_us = probe_us(t.tracer, "probe.weaver_deploy", || {
        Weaver::global().with_deployed(AspectModule::builder("perfbench.probe").build(), || ())
    });
    let entry_us = t.tracer.span("probe.region_entry", 0, || {
        aomp_bench::measure_entry_overhead(THREADS, 2_000).pooled_ns / 1e3
    });
    let dep_tasks = t.obs.counter(Counter::DepTasks);
    let dep_span_us: f64 = [graph::KERNELS[0], graph::KERNELS[1]]
        .iter()
        .flat_map(|k| t.tracer.durations(k))
        .sum::<f64>()
        / 1e3;
    let serve = t.serve;
    let uops = t.untraced_ops.max(1) as f64;
    let u = &t.untraced_usage;

    let mut v: Vec<f64> = vec![
        t.dispatches as f64 / ops,
        deploy_us,
        entry_us,
        per_op(Counter::RegionPooled),
        per_op(Counter::PoolCacheMiss),
        per_op(Counter::BarrierRounds),
        t.obs.hist(Lat::WaitBarrier).mean_ns() / 1e3,
        CHUNK_COUNTERS.iter().map(|&c| per_op(c)).sum(),
        per_op(Counter::ChunkAdaptiveSteals),
        per_op(Counter::CriticalContended),
        per_op(Counter::DepTasks),
        if dep_tasks == 0 {
            0.0
        } else {
            dep_span_us / dep_tasks as f64
        },
        per_op(Counter::TaskDedicated),
        per_op(Counter::TaskRefusedSaturated),
        per_op(Counter::ExecParks),
        per_op(Counter::ExecUnparks),
        per_op(Counter::NrCombines),
        mean(&t.tracer.durations("serve.submit")) / 1e3,
        t.obs.hist(Lat::ServeQueueWait).mean_ns() / 1e3,
        serve.map_or(0.0, |s| quantile(&s.lat_ns, 0.99) / 1e6),
        serve.map_or(0.0, |s| mean(&s.late_ns) / 1e6),
    ];
    v.extend(jgf::KERNELS.iter().map(|k| span_ms(k)));
    v.extend(graph::KERNELS.iter().map(|k| span_ms(k)));
    v.extend([
        u.sys_ns as f64 / 1e6 / uops,
        u.vol_ctx as f64 / uops,
        u.invol_ctx as f64 / uops,
        u.minflt as f64 / uops,
        t.p50_ms - t.untraced_p50_ms,
    ]);
    assert_eq!(v.len(), METRICS.len(), "one value per per-layer metric");
    METRICS
        .iter()
        .zip(v)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::METRICS;

    #[test]
    fn kernel_span_names_have_their_metrics() {
        for k in crate::jgf::KERNELS.iter().chain(&crate::graph::KERNELS) {
            let name = format!("{k}_ms");
            assert!(METRICS.iter().any(|(m, _)| *m == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed = spec.matches("\"better\"").count();
        for (name, unit) in METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(
                spec.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
        }
        assert_eq!(listed, METRICS.len() + crate::END_TO_END.len());
    }
}

//! `jgf-fine`: one op is one pass over the JGF kernels at the `Small`
//! presets — the eight pointcut-style `aomp::run` variants plus the
//! annotation-style `lufact::annotated::run` — on a team of 2.
//!
//! At this grain fork-join costs (region entry, barrier rounds, weaver
//! dispatch, chunk handout) are a visible share of every kernel.

use aomp_jgf::crypt::{self, CryptData, CryptResult};
use aomp_jgf::lufact::{self, LufactData, LufactResult};
use aomp_jgf::moldyn::{self, MolDynData, MolDynResult};
use aomp_jgf::montecarlo::{self, McData, McResult};
use aomp_jgf::raytracer::{self, RayResult, Scene};
use aomp_jgf::series::{self, SeriesResult};
use aomp_jgf::sor::{self, Grid};
use aomp_jgf::sparse::{self, SparseData};
use aomp_jgf::Size;

use crate::closed::{same_bits, ClosedLoop};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::THREADS;

/// Span names of the kernel calls, in call order.
pub const KERNELS: [&str; 9] = [
    "jgf.crypt",
    "jgf.lufact",
    "jgf.series",
    "jgf.sor",
    "jgf.sparse",
    "jgf.moldyn",
    "jgf.montecarlo",
    "jgf.raytracer",
    "jgf.lufact_annotated",
];

/// MolDyn steps per call: short enough that the parallel force sums
/// stay within `moldyn::agrees(…, 1e-6)` of the sequential run.
const MOLDYN_MOVES: usize = 10;

/// Tolerance of the MolDyn check (summation order differs by thread).
const MOLDYN_TOL: f64 = 1e-6;

/// The inputs of one pass.
pub struct Inputs {
    crypt: CryptData,
    lufact: LufactData,
    series_n: usize,
    sor: Grid,
    sparse: SparseData,
    moldyn: MolDynData,
    mc: McData,
    ray: Scene,
}

/// Everything one pass returns.
pub struct Out {
    crypt: CryptResult,
    lufact: LufactResult,
    series: SeriesResult,
    sor: Grid,
    sparse: Vec<f64>,
    moldyn: MolDynResult,
    mc: McResult,
    ray: RayResult,
    lufact_annotated: LufactResult,
}

/// The workload: inputs plus the sequential references.
pub struct JgfFine {
    inputs: Inputs,
    refs: Out,
}

/// Make the `Small` inputs for `seed`. Crypt plaintext, the LUFact
/// system, the SOR grid, the Sparse values and vector, and the
/// MonteCarlo base seed come from `seed`; MolDyn's lattice, the
/// RayTracer scene and the Series coefficient count are fixed by the
/// preset, as in JGF.
pub fn inputs(seed: u64) -> Inputs {
    let mut crypt = crypt::generate(Size::Small);
    let mut r = Rng::new(seed, 1);
    for b in crypt.plain.iter_mut() {
        *b = r.next_u64() as u8;
    }

    // Linpack `matgen` shape: uniform [-0.5, 0.5) with b = row sums.
    let n = lufact::order_for(Size::Small);
    let mut r = Rng::new(seed, 2);
    let a: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| r.unit() - 0.5).collect())
        .collect();
    let b = (0..n).map(|i| a.iter().map(|col| col[i]).sum()).collect();
    let lufact = LufactData { a, b, n };

    let mut sor = sor::generate(Size::Small);
    let mut r = Rng::new(seed, 3);
    for v in sor.g.iter_mut() {
        *v = r.unit() * 1e-6;
    }

    // Keep the preset's sparsity pattern (it sets the load balance) and
    // draw the values from the seed.
    let mut sparse = sparse::generate(Size::Small);
    let mut r = Rng::new(seed, 4);
    for v in sparse.val.iter_mut() {
        *v = 2.0 * r.unit() - 1.0;
    }
    for v in sparse.x.iter_mut() {
        *v = r.unit();
    }

    let mut mc = montecarlo::generate(Size::Small);
    mc.seed = Rng::new(seed, 5).next_u64() >> 16;

    Inputs {
        crypt,
        lufact,
        series_n: series::coefficients_for(Size::Small),
        sor,
        sparse,
        moldyn: moldyn::generate(moldyn::mm_for(Size::Small), MOLDYN_MOVES),
        mc,
        ray: raytracer::generate(Size::Small),
    }
}

impl JgfFine {
    /// Compute the references with the sequential (`seq`) variants,
    /// which use no part of the parallel runtime.
    pub fn new(inputs: Inputs) -> JgfFine {
        let i = &inputs;
        let lufact = lufact::seq::run(&i.lufact);
        let refs = Out {
            crypt: crypt::seq::run(&i.crypt),
            lufact_annotated: LufactResult {
                x: lufact.x.clone(),
                ipvt: lufact.ipvt.clone(),
            },
            lufact,
            series: series::seq::run(i.series_n),
            sor: sor::seq::run(&i.sor, sor::ITERATIONS),
            sparse: sparse::seq::run(&i.sparse, sparse::ITERATIONS),
            moldyn: moldyn::seq::run(&i.moldyn),
            mc: montecarlo::seq::run(&i.mc),
            ray: raytracer::seq::run(&i.ray),
        };
        JgfFine { inputs, refs }
    }
}

/// One pass, without checks (also the set-up warm-up).
pub fn pass(i: &Inputs, tr: &Tracer, parent: u64) -> Out {
    let t = THREADS;
    Out {
        crypt: tr.span(KERNELS[0], parent, || crypt::aomp::run(&i.crypt, t)),
        lufact: tr.span(KERNELS[1], parent, || lufact::aomp::run(&i.lufact, t)),
        series: tr.span(KERNELS[2], parent, || series::aomp::run(i.series_n, t)),
        sor: tr.span(KERNELS[3], parent, || {
            sor::aomp::run(&i.sor, sor::ITERATIONS, t)
        }),
        sparse: tr.span(KERNELS[4], parent, || {
            sparse::aomp::run(&i.sparse, sparse::ITERATIONS, t)
        }),
        moldyn: tr.span(KERNELS[5], parent, || moldyn::aomp::run(&i.moldyn, t)),
        mc: tr.span(KERNELS[6], parent, || montecarlo::aomp::run(&i.mc, t)),
        ray: tr.span(KERNELS[7], parent, || raytracer::aomp::run(&i.ray, t)),
        // The annotation spelling takes the runtime's default team size,
        // which `main` pins to `THREADS`.
        lufact_annotated: tr.span(KERNELS[8], parent, || lufact::annotated::run(&i.lufact)),
    }
}

fn lu_same(a: &LufactResult, b: &LufactResult) -> bool {
    same_bits(&a.x, &b.x) && a.ipvt == b.ipvt
}

impl ClosedLoop for JgfFine {
    type Out = Out;

    fn op(&self, tr: &Tracer, parent: u64) -> Out {
        pass(&self.inputs, tr, parent)
    }

    fn check(&self, o: &Out) -> Result<(), String> {
        let r = &self.refs;
        let checks = [
            (
                "crypt",
                o.crypt.cipher == r.crypt.cipher && o.crypt.round_trip == r.crypt.round_trip,
            ),
            ("lufact", lu_same(&o.lufact, &r.lufact)),
            (
                "series",
                same_bits(&o.series.coeffs[0], &r.series.coeffs[0])
                    && same_bits(&o.series.coeffs[1], &r.series.coeffs[1]),
            ),
            ("sor", o.sor.n == r.sor.n && same_bits(&o.sor.g, &r.sor.g)),
            ("sparse", same_bits(&o.sparse, &r.sparse)),
            ("moldyn", moldyn::agrees(&o.moldyn, &r.moldyn, MOLDYN_TOL)),
            (
                "montecarlo",
                same_bits(&o.mc.results, &r.mc.results) && o.mc.avg.to_bits() == r.mc.avg.to_bits(),
            ),
            ("raytracer", o.ray == r.ray),
            (
                "lufact_annotated",
                lu_same(&o.lufact_annotated, &r.lufact_annotated),
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            None => Ok(()),
            Some((name, _)) => Err(format!("{name} differs from its sequential reference")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_matches_the_references_and_a_corrupted_one_fails() {
        aomp::runtime::set_default_threads(THREADS);
        let w = JgfFine::new(inputs(3));
        let tr = Tracer::new(false);
        let mut out = w.op(&tr, 0);
        assert_eq!(w.check(&out), Ok(()));
        out.sor.g[5] = f64::from_bits(out.sor.g[5].to_bits() ^ 1);
        assert!(w.check(&out).unwrap_err().contains("sor"));
        let mut out = w.op(&tr, 0);
        out.moldyn.epot *= 1.001;
        assert!(w.check(&out).unwrap_err().contains("moldyn"));
        let mut out = w.op(&tr, 0);
        out.lufact_annotated.ipvt.swap(0, 1);
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn the_seed_sets_the_inputs() {
        let (a, b, c) = (inputs(1), inputs(1), inputs(2));
        assert_eq!(a.crypt.plain, b.crypt.plain);
        assert!(same_bits(&a.sor.g, &b.sor.g));
        assert_ne!(a.crypt.plain, c.crypt.plain);
        assert!(!same_bits(&a.lufact.b, &c.lufact.b));
    }
}

//! `graph`: one op is three calls on skewed power-law graphs —
//! `pagerank::run_deps`, `bfs::run_deps` and `triangles::count_oriented`
//! under `TriSchedule::Adaptive` — on a team of 2.
//!
//! Task dependences and adaptive stealing do most of the work here and
//! no team barrier runs inside the kernels.

use aomp_irregular::bfs::{self, UNREACHED};
use aomp_irregular::graph::{CsrGraph, GraphKind};
use aomp_irregular::pagerank;
use aomp_irregular::triangles::{self, TriSchedule};
use aomp_weaver::Weaver;

use crate::closed::{same_bits, ClosedLoop};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::THREADS;

/// Span names of the kernel calls, in call order.
pub const KERNELS: [&str; 3] = [
    "irregular.pagerank_deps",
    "irregular.bfs_deps",
    "irregular.triangles_adaptive",
];

/// Vertices of every graph.
pub const VERTICES: usize = 4096;
/// Mean out-degree of the PageRank and BFS graphs.
pub const DEGREE: usize = 8;
/// Mean out-degree of the triangle-counting graph before orientation.
pub const TRI_DEGREE: usize = 16;
/// PageRank iterations per call.
pub const PR_ITERS: usize = 10;
/// PageRank vertex partitions (one dependent task per iteration and
/// partition).
pub const PR_PARTS: usize = 16;
/// BFS vertex partitions (`max_levels × parts²` dependent tasks).
pub const BFS_PARTS: usize = 8;
/// BFS dependence-graph depth; set-up refuses a graph whose source
/// eccentricity it does not cover.
pub const BFS_MAX_LEVELS: usize = 16;
/// BFS source vertex (the power-law generator's hub).
pub const BFS_SOURCE: usize = 0;

/// The three graphs of one seed.
pub struct Inputs {
    /// Transposed power-law graph: `run_deps` pulls along its transpose,
    /// so the pull cost is concentrated on the hub partitions.
    pr: CsrGraph,
    bfs: CsrGraph,
    /// Power-law graph for triangle counting, as generated.
    tri_raw: CsrGraph,
    /// `tri_raw` oriented by degree: what `count_oriented` runs on.
    tri: CsrGraph,
}

/// The references, computed without the parallel runtime.
struct Refs {
    ranks: Vec<f64>,
    levels: Vec<i64>,
    triangles: u64,
}

/// Everything one op returns.
pub struct Out {
    ranks: Vec<f64>,
    levels: Vec<i64>,
    triangles: u64,
}

/// The workload: graphs plus references.
pub struct Graph {
    inputs: Inputs,
    refs: Refs,
}

/// Generate the graphs of `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut r = Rng::new(seed, 10);
    let mut gen = |deg| CsrGraph::generate(GraphKind::PowerLaw, VERTICES, deg, r.next_u64());
    let pr = gen(DEGREE).transpose();
    let bfs = gen(DEGREE);
    let tri_raw = gen(TRI_DEGREE);
    let tri = triangles::orient(&tri_raw);
    Inputs {
        pr,
        bfs,
        tri_raw,
        tri,
    }
}

/// Why a BFS level array is wrong, if it is: every reached vertex's
/// out-neighbours must be reached no more than one level later.
pub fn bfs_edge_violation(g: &CsrGraph, levels: &[i64]) -> Option<String> {
    for u in 0..g.vertices() {
        if levels[u] == UNREACHED {
            continue;
        }
        for &w in g.neighbours(u) {
            let lw = levels[w as usize];
            if lw == UNREACHED || lw > levels[u] + 1 {
                return Some(format!(
                    "edge {u}->{w}: level {lw} after level {}",
                    levels[u]
                ));
            }
        }
    }
    None
}

impl Graph {
    /// Compute the references: sequential PageRank iterations, textbook
    /// BFS and brute-force triangle counting. Panics if `BFS_MAX_LEVELS`
    /// does not cover the source's eccentricity, since `run_deps` would
    /// then leave far vertices unreached.
    pub fn new(inputs: Inputs) -> Graph {
        let levels = bfs::reference(&inputs.bfs, BFS_SOURCE);
        let ecc = levels.iter().copied().max().unwrap_or(0);
        assert!(
            ecc as usize <= BFS_MAX_LEVELS,
            "BFS source eccentricity {ecc} exceeds max_levels {BFS_MAX_LEVELS}"
        );
        let refs = Refs {
            ranks: pagerank::reference_iters(&inputs.pr, PR_ITERS),
            levels,
            triangles: triangles::reference(&inputs.tri_raw),
        };
        Graph { inputs, refs }
    }
}

/// One op, without checks (also the set-up warm-up).
pub fn pass(i: &Inputs, tr: &Tracer, parent: u64) -> Out {
    let w = Weaver::global();
    Out {
        ranks: tr.span(KERNELS[0], parent, || {
            w.with_deployed(pagerank::aspect_deps(THREADS), || {
                pagerank::run_deps(&i.pr, PR_ITERS, PR_PARTS)
            })
        }),
        levels: tr.span(KERNELS[1], parent, || {
            w.with_deployed(bfs::aspect_deps(THREADS), || {
                bfs::run_deps(&i.bfs, BFS_SOURCE, BFS_MAX_LEVELS, BFS_PARTS)
            })
        }),
        triangles: tr.span(KERNELS[2], parent, || {
            w.with_deployed(
                triangles::aspect(THREADS, TriSchedule::Adaptive, &i.tri),
                || triangles::count_oriented(&i.tri),
            )
        }),
    }
}

impl ClosedLoop for Graph {
    type Out = Out;

    fn op(&self, tr: &Tracer, parent: u64) -> Out {
        pass(&self.inputs, tr, parent)
    }

    fn check(&self, o: &Out) -> Result<(), String> {
        if !same_bits(&o.ranks, &self.refs.ranks) {
            return Err("pagerank ranks differ from reference_iters".into());
        }
        if o.levels != self.refs.levels {
            return Err("bfs levels differ from the reference BFS".into());
        }
        if let Some(why) = bfs_edge_violation(&self.inputs.bfs, &o.levels) {
            return Err(format!("bfs levels break an edge: {why}"));
        }
        if o.triangles != self.refs.triangles {
            return Err(format!(
                "{} triangles, brute force counts {}",
                o.triangles, self.refs.triangles
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_matches_the_references_and_a_corrupted_one_fails() {
        let w = Graph::new(inputs(4));
        let tr = Tracer::new(false);
        let mut out = w.op(&tr, 0);
        assert_eq!(w.check(&out), Ok(()));
        out.triangles += 1;
        assert!(w.check(&out).unwrap_err().contains("triangles"));
        let mut out = w.op(&tr, 0);
        let far = out
            .levels
            .iter()
            .position(|&l| l == 2)
            .expect("a level-2 vertex");
        out.levels[far] = 5;
        assert!(w.check(&out).unwrap_err().contains("bfs"));
    }

    #[test]
    fn the_edge_property_rejects_a_skipped_level() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(bfs_edge_violation(&g, &[0, 1, 2]), None);
        assert!(bfs_edge_violation(&g, &[0, 1, 3]).is_some());
        assert!(bfs_edge_violation(&g, &[0, 1, UNREACHED]).is_some());
    }
}

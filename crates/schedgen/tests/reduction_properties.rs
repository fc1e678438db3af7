//! Property tests for the reduction pipeline on arbitrary multi-rank
//! DAGs (random layered ranks with skip edges and cross-rank comm
//! edges). **Makespan preservation** must hold: the longest path
//! through the reduced graph equals the longest path through the raw
//! graph for every LogGPS binding.
//!
//! A second property pins how round 1 merges chains: on the input,
//! before the arena exists, leaving nothing for the arena's chain pass
//! to merge.

use llamp_schedgen::{
    reduce, CostExpr, EdgeKind, ExecGraph, GraphBuilder, ReduceConfig, VertexKind,
};
use proptest::prelude::*;

/// Longest-path makespan of a graph under a concrete LogGPS binding,
/// via one sweep over the topological order. This is the quantity the
/// reduction passes promise to preserve exactly.
fn makespan(g: &ExecGraph, o: f64, l: f64, big_g: f64) -> f64 {
    let mut finish = vec![0.0_f64; g.num_vertices()];
    let mut best = 0.0_f64;
    for &v in g.topo_order() {
        let mut start = 0.0_f64;
        for e in g.preds(v) {
            start = start.max(finish[e.other as usize] + e.cost.eval(o, l, big_g));
        }
        let f = start + g.vertex(v).cost.eval(o, l, big_g);
        finish[v as usize] = f;
        best = best.max(f);
    }
    best
}

/// One random layered SPMD-ish DAG: `nranks` ranks, each a chain of
/// `layers` calc vertices, plus random intra-rank skip edges and random
/// forward cross-rank comm edges. Layer ordering guarantees acyclicity.
#[derive(Clone, Debug)]
struct RandomDag {
    nranks: u32,
    layers: u32,
    /// Per-vertex compute cost in ns (index = rank * layers + layer).
    costs: Vec<f64>,
    /// Intra-rank skip edges: (rank, from_layer, to_layer, cost_ns).
    skips: Vec<(u32, u32, u32, f64)>,
    /// Cross-rank comm edges: (from_rank, from_layer, to_rank, to_layer, bytes).
    crossings: Vec<(u32, u32, u32, u32, u64)>,
}

impl RandomDag {
    fn build(&self) -> ExecGraph {
        let n = (self.nranks * self.layers) as usize;
        let mut b = GraphBuilder::with_capacity(self.nranks, n, n + self.skips.len());
        let id = |r: u32, i: u32| r * self.layers + i;
        for r in 0..self.nranks {
            for i in 0..self.layers {
                let c = self.costs[id(r, i) as usize];
                b.add_vertex(r, VertexKind::Calc, CostExpr::constant(c));
                if i > 0 {
                    b.add_edge(id(r, i - 1), id(r, i), EdgeKind::Local, CostExpr::ZERO);
                }
            }
        }
        for &(r, from, to, c) in &self.skips {
            b.add_edge(
                id(r, from),
                id(r, to),
                EdgeKind::Local,
                CostExpr::constant(c),
            );
        }
        for &(fr, fi, tr, ti, bytes) in &self.crossings {
            b.add_edge(
                id(fr, fi),
                id(tr, ti),
                EdgeKind::Comm,
                CostExpr::wire(bytes),
            );
        }
        b.finish().expect("layer ordering keeps the DAG acyclic")
    }
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (2u32..=4, 3u32..=10).prop_flat_map(|(nranks, layers)| {
        let n = (nranks * layers) as usize;
        let costs = prop::collection::vec(0.0f64..5_000.0, n);
        // Skip edges jump at least two layers so they are never parallel
        // to the chain; about half carry zero cost to exercise the
        // zero-cost fold paths.
        let skips = prop::collection::vec(
            (
                0..nranks,
                0..layers.saturating_sub(2),
                any::<bool>(),
                0.0f64..2_000.0,
            ),
            0..=8,
        )
        .prop_map(move |raw| {
            raw.into_iter()
                .map(|(r, from, zero, c)| (r, from, from + 2, if zero { 0.0 } else { c }))
                .collect::<Vec<_>>()
        });
        // Cross edges always go strictly forward in layer index, so the
        // combined graph stays a DAG regardless of rank pairing.
        let crossings =
            prop::collection::vec((0..nranks, 0..layers - 1, 0..nranks, 1u64..65_536), 1..=10)
                .prop_map(move |raw| {
                    raw.into_iter()
                        .map(|(fr, fi, tr, bytes)| {
                            let tr = if tr == fr { (fr + 1) % nranks } else { tr };
                            (fr, fi, tr, fi + 1, bytes)
                        })
                        .collect::<Vec<_>>()
                });
        (costs, skips, crossings).prop_map(move |(costs, skips, crossings)| RandomDag {
            nranks,
            layers,
            costs,
            skips,
            crossings,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round 1 contracts every serial chain on the input, so a
    /// chains-only reduction's round 2, whose one pass is the arena chain
    /// pass on the contracted arena, merges nothing and ends the
    /// reduction.
    #[test]
    fn the_input_contraction_leaves_no_chain_to_merge(dag in dag_strategy()) {
        let g = dag.build();
        let stats = *reduce(&g, &ReduceConfig::chains_only()).stats();
        let want = if stats.chain_merges > 0 { 2 } else { 1 };
        prop_assert_eq!(stats.rounds, want);
    }

    /// The reduced graph has the same longest-path makespan as the raw
    /// graph under several LogGPS bindings.
    #[test]
    fn reduction_preserves_makespan(dag in dag_strategy()) {
        let g = dag.build();
        let reduced = reduce(&g, &ReduceConfig::default());
        for (o, l, big_g) in [
            (0.0, 0.0, 0.0),
            (5_000.0, 1_000.0, 0.04),
            (1_500.0, 25_000.0, 0.9),
        ] {
            let want = makespan(&g, o, l, big_g);
            let got = makespan(reduced.graph(), o, l, big_g);
            prop_assert!(
                llamp_util::approx_eq(want, got, 1e-6, 1e-9),
                "raw makespan {} != reduced {} at (o={}, l={}, G={})",
                want, got, o, l, big_g
            );
        }
    }
}

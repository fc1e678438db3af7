//! The unified graph-lowering walk.
//!
//! Every analysis builder in this crate — Algorithm 1's LP in both its
//! one- and three-column shapes ([`crate::lp_build`]), direct evaluation
//! ([`crate::eval`]) and the parametric envelope
//! ([`crate::parametric`]) — used to duplicate the same loop: walk the
//! graph in topological order, bind each vertex cost and each in-edge
//! cost under the active [`Binding`] (with the correct endpoint ranks),
//! then combine predecessors. [`lower_walk`] is that loop, written once
//! over an [`ExecGraph`]: a raw graph, or the graph a
//! [`llamp_schedgen::ReducedGraph`] holds.
//!
//! Costs are delivered as fully symbolic [`MultiBound`]s; single-variable
//! builders (and the one-column LP) collapse them with
//! [`Binding::project`].

use crate::binding::{Binding, MultiBound};
use llamp_schedgen::ExecGraph;

/// One lowered vertex, handed to the builder callback in topological
/// order.
#[derive(Debug)]
pub struct Lowered<'a> {
    /// Vertex id in the walked graph.
    pub id: u32,
    /// Owning rank.
    pub rank: u32,
    /// The vertex's own bound cost.
    pub cost: MultiBound,
    /// Predecessors as `(vertex id, bound edge cost)`, in the graph's
    /// pred order.
    pub preds: &'a [(u32, MultiBound)],
    /// True when the vertex has no successors (it bounds the makespan).
    pub is_sink: bool,
}

/// Walk `graph` in topological order, binding every vertex and in-edge
/// cost under `binding`, and hand each lowered vertex to `f`. The pred
/// buffer is reused across vertices — no per-vertex allocation after the
/// first join.
pub fn lower_walk(graph: &ExecGraph, binding: &Binding, mut f: impl FnMut(Lowered<'_>)) {
    let mut buf: Vec<(u32, MultiBound)> = Vec::new();
    for &v in graph.topo_order() {
        let vert = graph.vertex(v);
        let cost = binding.bind_multi(&vert.cost, vert.rank, vert.rank);
        buf.clear();
        for e in graph.preds(v) {
            let urank = graph.vertex(e.other).rank;
            buf.push((e.other, binding.bind_multi(&e.cost, urank, vert.rank)));
        }
        f(Lowered {
            id: v,
            rank: vert.rank,
            cost,
            preds: &buf,
            is_sink: graph.succs(v).is_empty(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_model::LogGPSParams;
    use llamp_schedgen::{CostExpr, EdgeKind, GraphBuilder, VertexKind};

    #[test]
    fn walk_delivers_topo_order_and_bound_costs() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_vertex(0, VertexKind::Calc, CostExpr::constant(5.0));
        let s = b.add_vertex(
            0,
            VertexKind::Send {
                peer: 1,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        let r = b.add_vertex(
            1,
            VertexKind::Recv {
                peer: 0,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        b.add_edge(a, s, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(s, r, EdgeKind::Comm, CostExpr::wire(8));
        let g = b.finish().unwrap();
        let binding = Binding::uniform(&LogGPSParams::didactic());
        let mut seen = Vec::new();
        lower_walk(&g, &binding, |low| {
            seen.push((low.id, low.preds.len(), low.is_sink));
            if low.id == r {
                assert_eq!(low.preds[0].0, s);
                assert_eq!(low.preds[0].1.l, 1.0);
                assert_eq!(low.preds[0].1.g, 7.0);
            }
        });
        assert_eq!(seen, vec![(a, 0, false), (s, 1, false), (r, 1, true)]);
    }
}

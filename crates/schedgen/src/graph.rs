//! Execution graphs.
//!
//! An MPI execution graph is a DAG whose vertices are `calc`, `send` and
//! `recv` events (plus a few zero-cost structural vertices for joins and
//! the rendezvous handshake) and whose edges encode happens-before
//! relations (paper §II-A). Costs are *symbolic*: every vertex and edge
//! carries a [`CostExpr`] — a linear combination of the LogGPS parameters —
//! so one graph can be evaluated under any network configuration, turned
//! into an LP with `L` (or per-pair `L_{i,j}`, or per-wire `l_wire`) as
//! decision variables, or replayed by the simulator.
//!
//! Storage is flat CSR (u32 ids, no per-vertex allocation): graphs with
//! millions of events are the common case (paper Table I).

use crate::reduce::{REdge, SortedInput};

/// Symbolic cost `const + o_count·o + l_count·L + gbytes·G` (ns).
///
/// `l_count` counts network-latency traversals — the quantity whose sum
/// along the critical path is the latency sensitivity `λ_L`. `gbytes` is
/// the coefficient of `G` (for a message of `s` bytes: `s − 1`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostExpr {
    /// Constant nanoseconds (compute time).
    pub const_ns: f64,
    /// Multiples of the per-message overhead `o`.
    pub o_count: f64,
    /// Multiples of the network latency `L`.
    pub l_count: f64,
    /// Multiples of the per-byte gap `G`.
    pub gbytes: f64,
}

impl CostExpr {
    /// The zero cost.
    pub const ZERO: CostExpr = CostExpr {
        const_ns: 0.0,
        o_count: 0.0,
        l_count: 0.0,
        gbytes: 0.0,
    };

    /// A pure-compute cost.
    pub fn constant(ns: f64) -> Self {
        CostExpr {
            const_ns: ns,
            ..Self::ZERO
        }
    }

    /// `n` per-message overheads.
    pub fn o(n: f64) -> Self {
        CostExpr {
            o_count: n,
            ..Self::ZERO
        }
    }

    /// The eager wire cost of an `s`-byte message: `L + (s−1)·G`.
    pub fn wire(bytes: u64) -> Self {
        CostExpr {
            l_count: 1.0,
            gbytes: bytes.saturating_sub(1) as f64,
            ..Self::ZERO
        }
    }

    /// Evaluate under concrete parameters.
    #[inline]
    pub fn eval(&self, o: f64, l: f64, big_g: f64) -> f64 {
        self.const_ns + self.o_count * o + self.l_count * l + self.gbytes * big_g
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CostExpr) -> CostExpr {
        CostExpr {
            const_ns: self.const_ns + other.const_ns,
            o_count: self.o_count + other.o_count,
            l_count: self.l_count + other.l_count,
            gbytes: self.gbytes + other.gbytes,
        }
    }

    /// Whether this is exactly the zero cost.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

/// Vertex semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexKind {
    /// Computation (or a zero-cost structural join).
    Calc,
    /// Message injection point of a send (`o` is its usual cost).
    Send { peer: u32, bytes: u64, tag: u32 },
    /// Message consumption point of a receive.
    Recv { peer: u32, bytes: u64, tag: u32 },
    /// Rendezvous handshake joint: ready-to-send meets request-to-receive
    /// (paper Fig. 14/15).
    Handshake,
}

impl VertexKind {
    /// True for `Send`.
    pub fn is_send(&self) -> bool {
        matches!(self, VertexKind::Send { .. })
    }

    /// True for `Recv`.
    pub fn is_recv(&self) -> bool {
        matches!(self, VertexKind::Recv { .. })
    }
}

/// One vertex: owning rank, semantics, and symbolic cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Rank whose timeline this event belongs to.
    pub rank: u32,
    /// Semantics.
    pub kind: VertexKind,
    /// Symbolic execution cost of the vertex itself.
    pub cost: CostExpr,
}

/// Edge semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Happens-before on the same rank (program order).
    Local,
    /// Message transmission from a send vertex to the matching recv vertex.
    Comm,
    /// Rendezvous control edges (REQ arrival, completion notifications).
    Rendezvous,
}

/// A directed edge as seen from one endpoint's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The other endpoint (predecessor in `preds`, successor in `succs`).
    pub other: u32,
    /// Edge semantics.
    pub kind: EdgeKind,
    /// Symbolic traversal cost.
    pub cost: CostExpr,
}

/// Immutable execution graph in CSR form with a precomputed topological
/// order. Build with [`GraphBuilder`].
#[derive(Debug, Clone)]
pub struct ExecGraph {
    nranks: u32,
    verts: Vec<Vertex>,
    pred_start: Vec<u32>,
    preds: Vec<EdgeRef>,
    succ_start: Vec<u32>,
    succs: Vec<EdgeRef>,
    topo: Vec<u32>,
}

impl ExecGraph {
    /// World size of the traced job.
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Number of vertices ("events" in the paper's tables).
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.preds.len()
    }

    /// Vertex accessor.
    #[inline]
    pub fn vertex(&self, v: u32) -> &Vertex {
        &self.verts[v as usize]
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.verts
    }

    /// Predecessor edges of `v`.
    #[inline]
    pub fn preds(&self, v: u32) -> &[EdgeRef] {
        let s = self.pred_start[v as usize] as usize;
        let e = self.pred_start[v as usize + 1] as usize;
        &self.preds[s..e]
    }

    /// Successor edges of `v`.
    #[inline]
    pub fn succs(&self, v: u32) -> &[EdgeRef] {
        let s = self.succ_start[v as usize] as usize;
        let e = self.succ_start[v as usize + 1] as usize;
        &self.succs[s..e]
    }

    /// Vertices in a topological order.
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// Count vertices by kind: `(calc, send, recv, handshake)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for v in &self.verts {
            match v.kind {
                VertexKind::Calc => c.0 += 1,
                VertexKind::Send { .. } => c.1 += 1,
                VertexKind::Recv { .. } => c.2 += 1,
                VertexKind::Handshake => c.3 += 1,
            }
        }
        c
    }

    /// Number of communication edges (messages).
    pub fn num_messages(&self) -> usize {
        self.preds
            .iter()
            .filter(|e| e.kind == EdgeKind::Comm)
            .count()
    }

    /// Chain contraction — the graph-level analogue of LP presolve
    /// (paper §II-D3). A vertex with exactly one predecessor, whose
    /// predecessor has exactly one successor, connected by a `Local` edge,
    /// is merged into that predecessor (costs summed). The result predicts
    /// identical runtimes/sensitivities with far fewer vertices.
    ///
    /// This is the chains-only configuration of the full reduction
    /// pipeline (see [`crate::reduce`](mod@crate::reduce)); use
    /// [`ExecGraph::reduced`] for the row-shrinking fold/redundancy
    /// passes.
    ///
    /// The contracted graph is meant for *analysis*; `Send`/`Recv`
    /// semantics survive only for unmerged vertices, so don't feed it to
    /// the simulator.
    pub fn contracted(&self) -> ExecGraph {
        crate::reduce::reduce(self, &crate::reduce::ReduceConfig::chains_only()).into_graph()
    }
}

/// Errors surfaced while finalising a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The edge set contains a cycle (invalid trace or matching bug).
    Cycle,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "execution graph contains a cycle"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Mutable accumulation of vertices and edges in insertion order,
/// finalised into CSR form ([`GraphBuilder::finish`]) or straight into
/// the reduced graph ([`GraphBuilder::finish_reduced`]).
///
/// Edges are kept the way the reducer's arena keeps them: a 12-byte
/// structure record (ends, kind) per edge, with its cost in a parallel
/// array. One duplicate-edge rule holds for every graph built here: of
/// several zero-cost `Local` edges `f → t`, only the first added
/// survives. The predecessor sort applies it (see
/// [`GraphBuilder::finish`]), so adding an edge is a push and nothing
/// more. Both finishes run that one sort: `finish` lays the kept edges
/// out as predecessor lists, while `finish_reduced` has it write the
/// reducer's input directly — the same two arrays in predecessor order —
/// and moves the vertex array in, so each added edge is copied once on
/// its way into the reducer.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nranks: u32,
    verts: Vec<Vertex>,
    edges: Vec<REdge>,
    costs: Vec<CostExpr>,
}

impl GraphBuilder {
    /// Start a graph for `nranks` ranks.
    pub fn new(nranks: u32) -> Self {
        Self::with_capacity(nranks, 0, 0)
    }

    /// Start a graph with pre-sized arenas. Million-vertex builds spend
    /// measurable time in doubling reallocations otherwise; hints may be
    /// approximate (the arenas still grow past them).
    pub fn with_capacity(nranks: u32, verts: usize, edges: usize) -> Self {
        Self {
            nranks,
            verts: Vec::with_capacity(verts),
            edges: Vec::with_capacity(edges),
            costs: Vec::with_capacity(edges),
        }
    }

    /// Add a vertex; returns its id.
    pub fn add_vertex(&mut self, rank: u32, kind: VertexKind, cost: CostExpr) -> u32 {
        debug_assert!(rank < self.nranks);
        let id = self.verts.len() as u32;
        self.verts.push(Vertex { rank, kind, cost });
        id
    }

    /// Add a directed edge `from → to`. A zero-cost `Local` edge that
    /// repeats an earlier one is dropped when the graph is finished.
    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind, cost: CostExpr) {
        debug_assert!((from as usize) < self.verts.len());
        debug_assert!((to as usize) < self.verts.len());
        debug_assert_ne!(from, to, "self edge");
        self.edges.push(REdge::new(from, to, kind));
        self.costs.push(cost);
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Finalise into CSR + topological order.
    pub fn finish(self) -> Result<ExecGraph, GraphError> {
        let n = self.verts.len();
        let mut preds = Vec::with_capacity(self.edges.len());
        let (pred_start, order, _) = self.sort_preds(|id| {
            let e = self.edges[id];
            preds.push(EdgeRef {
                other: e.from,
                kind: e.kind,
                cost: self.costs[id],
            })
        });

        // Successor lists: the kept edges by source, in insertion order.
        let mut kept = vec![false; self.edges.len()];
        for &id in &order {
            kept[id as usize] = true;
        }
        let kept_edges = || {
            self.edges
                .iter()
                .zip(&self.costs)
                .zip(&kept)
                .filter_map(|(e, &k)| k.then_some(e))
        };
        let mut succ_start = vec![0u32; n + 1];
        for (e, _) in kept_edges() {
            succ_start[e.from as usize + 1] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut succs = vec![
            EdgeRef {
                other: 0,
                kind: EdgeKind::Local,
                cost: CostExpr::ZERO
            };
            preds.len()
        ];
        let mut fill = succ_start.clone();
        for (e, &cost) in kept_edges() {
            let s = &mut fill[e.from as usize];
            succs[*s as usize] = EdgeRef {
                other: e.to,
                kind: e.kind,
                cost,
            };
            *s += 1;
        }

        // Kahn's algorithm for the topological order.
        let mut indeg: Vec<u32> = (0..n).map(|v| pred_start[v + 1] - pred_start[v]).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            topo.push(v);
            let s = succ_start[v as usize] as usize;
            let e = succ_start[v as usize + 1] as usize;
            for er in &succs[s..e] {
                let d = &mut indeg[er.other as usize];
                *d -= 1;
                if *d == 0 {
                    queue.push(er.other);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cycle);
        }

        Ok(ExecGraph {
            nranks: self.nranks,
            verts: self.verts,
            pred_start,
            preds,
            succ_start,
            succs,
            topo,
        })
    }

    /// The reduction arena's input ([`SortedInput`]), with no successor
    /// lists and no topological order, and so no cycle check: a cyclic
    /// edge set surfaces where the reducer orders it. The predecessor
    /// sort copies each kept edge's cost into place as it decides to keep
    /// it; the structure records follow in a second gather, into the
    /// memory the builder's costs leave behind, so the high water is one
    /// edge list plus one cost array, not two edge lists. The vertex
    /// array moves in uncopied, and the sort's own counts (each target's
    /// kept in-degree, how many sources kept an out-edge) give the raw
    /// graph's Algorithm-1 row count.
    pub(crate) fn into_sorted_input(self) -> SortedInput {
        let n = self.verts.len();
        let mut costs = Vec::with_capacity(self.edges.len());
        let (pred_start, order, sources) = self.sort_preds(|id| costs.push(self.costs[id]));
        let GraphBuilder {
            nranks,
            verts,
            edges: added,
            costs: added_costs,
        } = self;
        drop(added_costs);
        let edges = order.iter().map(|&id| added[id as usize]).collect();
        drop((added, order));
        SortedInput::new(nranks, verts, pred_start, edges, costs, n - sources)
    }

    /// Stable counting sort of the added edges by target, applying the
    /// duplicate-edge rule: a zero-cost `Local` edge `f → t` is dropped
    /// when `t`'s list already holds one from `f` (`last[f] == t`), so
    /// the first added survives. Hands each kept edge's index to `keep`
    /// in predecessor order (targets ascending, insertion order within a
    /// target) and returns the list offsets, the kept edges' indexes in
    /// that order, and how many vertices kept an out-edge.
    fn sort_preds(&self, mut keep: impl FnMut(usize)) -> (Vec<u32>, Vec<u32>, usize) {
        let n = self.verts.len();
        let m = self.edges.len();
        // Count each target's edges and sum the counts into list ends,
        // then place the ids from the back: each list comes out in id
        // order, and each end moves down to its list's start.
        let mut start = vec![0u32; n + 1];
        for e in &self.edges {
            start[e.to as usize] += 1;
        }
        for i in 1..n {
            start[i] += start[i - 1];
        }
        start[n] = m as u32;
        let mut order = vec![0u32; m];
        for (id, e) in self.edges.iter().enumerate().rev() {
            let s = &mut start[e.to as usize];
            *s -= 1;
            order[*s as usize] = id as u32;
        }
        // `last[f]`: the target of `f`'s latest kept zero-cost `Local`
        // edge, `HAS_OUT` once `f` kept any other edge, `NONE` before.
        const NONE: u32 = u32::MAX;
        const HAS_OUT: u32 = u32::MAX - 1;
        let mut last = vec![NONE; n];
        let (mut kept, mut sources) = (0, 0);
        for t in 0..n {
            let (s, e) = (start[t] as usize, start[t + 1] as usize);
            start[t] = kept as u32;
            for k in s..e {
                let id = order[k] as usize;
                let edge = self.edges[id];
                let f = edge.from as usize;
                sources += usize::from(last[f] == NONE);
                if edge.kind == EdgeKind::Local && self.costs[id].is_zero() {
                    if last[f] == t as u32 {
                        continue;
                    }
                    last[f] = t as u32;
                } else if last[f] == NONE {
                    last[f] = HAS_OUT;
                }
                order[kept] = id as u32;
                kept += 1;
                keep(id);
            }
        }
        start[n] = kept as u32;
        order.truncate(kept);
        (start, order, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_expr_eval() {
        let c = CostExpr {
            const_ns: 100.0,
            o_count: 2.0,
            l_count: 1.0,
            gbytes: 3.0,
        };
        assert_eq!(c.eval(10.0, 1000.0, 5.0), 100.0 + 20.0 + 1000.0 + 15.0);
    }

    #[test]
    fn wire_cost_of_small_message() {
        let w = CostExpr::wire(4);
        assert_eq!(w.l_count, 1.0);
        assert_eq!(w.gbytes, 3.0);
        let w0 = CostExpr::wire(0);
        assert_eq!(w0.gbytes, 0.0);
    }

    #[test]
    fn builder_csr_roundtrip() {
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
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.preds(r).len(), 1);
        assert_eq!(g.preds(r)[0].other, s);
        assert_eq!(g.succs(a)[0].other, s);
        assert_eq!(g.num_messages(), 1);
        assert_eq!(g.topo_order(), &[a, s, r]);
    }

    #[test]
    fn cycle_detection() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_vertex(0, VertexKind::Calc, CostExpr::ZERO);
        let c = b.add_vertex(0, VertexKind::Calc, CostExpr::ZERO);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(c, a, EdgeKind::Local, CostExpr::ZERO);
        assert_eq!(b.finish().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn duplicate_zero_local_edges_dropped() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_vertex(0, VertexKind::Calc, CostExpr::ZERO);
        let c = b.add_vertex(0, VertexKind::Calc, CostExpr::ZERO);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn contraction_merges_linear_chains() {
        // a -> b -> c (all calc) contracts to a single vertex with summed
        // cost; a -> b -> c with b also feeding d keeps b separate.
        let mut builder = GraphBuilder::new(1);
        let a = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(1.0));
        let b = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(2.0));
        let c = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(3.0));
        builder.add_edge(a, b, EdgeKind::Local, CostExpr::ZERO);
        builder.add_edge(b, c, EdgeKind::Local, CostExpr::ZERO);
        let g = builder.finish().unwrap();
        let cg = g.contracted();
        assert_eq!(cg.num_vertices(), 1);
        assert_eq!(cg.vertex(0).cost.const_ns, 6.0);
    }

    #[test]
    fn contraction_keeps_joins() {
        // Diamond: a -> b, a -> c, b -> d, c -> d. Nothing merges except
        // nothing (b and c each have one pred but a has two succs).
        let mut builder = GraphBuilder::new(1);
        let a = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(1.0));
        let b = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(2.0));
        let c = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(3.0));
        let d = builder.add_vertex(0, VertexKind::Calc, CostExpr::constant(4.0));
        builder.add_edge(a, b, EdgeKind::Local, CostExpr::ZERO);
        builder.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        builder.add_edge(b, d, EdgeKind::Local, CostExpr::ZERO);
        builder.add_edge(c, d, EdgeKind::Local, CostExpr::ZERO);
        let g = builder.finish().unwrap();
        let cg = g.contracted();
        assert_eq!(cg.num_vertices(), 4);
        assert_eq!(cg.num_edges(), 4);
    }
}

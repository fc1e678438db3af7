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

use llamp_util::FxHashMap;

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
    /// pipeline (see [`crate::reduce`](mod@crate::reduce)); use [`ExecGraph::reduced`] for
    /// the row-shrinking fold/redundancy passes, and
    /// [`crate::reduce::reduce_with_provenance`] for the provenance map.
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

/// Mutable accumulation of vertices and edges, finalised into CSR form.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nranks: u32,
    verts: Vec<Vertex>,
    edges: Vec<(u32, u32, EdgeKind, CostExpr)>,
    /// Deduplication of identical parallel edges.
    seen: FxHashMap<(u32, u32), ()>,
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
            // Only zero-cost Local edges enter the dedup map — roughly
            // half the edge set in practice.
            seen: FxHashMap::with_capacity_and_hasher(edges / 2, Default::default()),
        }
    }

    /// Add a vertex; returns its id.
    pub fn add_vertex(&mut self, rank: u32, kind: VertexKind, cost: CostExpr) -> u32 {
        debug_assert!(rank < self.nranks);
        let id = self.verts.len() as u32;
        self.verts.push(Vertex { rank, kind, cost });
        id
    }

    /// Add a directed edge `from → to`. Parallel duplicate zero-cost local
    /// edges are dropped.
    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind, cost: CostExpr) {
        debug_assert!((from as usize) < self.verts.len());
        debug_assert!((to as usize) < self.verts.len());
        debug_assert_ne!(from, to, "self edge");
        if kind == EdgeKind::Local && cost.is_zero() && self.seen.insert((from, to), ()).is_some() {
            return;
        }
        self.edges.push((from, to, kind, cost));
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Finalise into CSR + topological order.
    pub fn finish(self) -> Result<ExecGraph, GraphError> {
        let n = self.verts.len();
        let mut pred_count = vec![0u32; n + 1];
        let mut succ_count = vec![0u32; n + 1];
        for &(f, t, _, _) in &self.edges {
            pred_count[t as usize + 1] += 1;
            succ_count[f as usize + 1] += 1;
        }
        for i in 0..n {
            pred_count[i + 1] += pred_count[i];
            succ_count[i + 1] += succ_count[i];
        }
        let pred_start = pred_count;
        let succ_start = succ_count;
        let mut preds = vec![
            EdgeRef {
                other: 0,
                kind: EdgeKind::Local,
                cost: CostExpr::ZERO
            };
            self.edges.len()
        ];
        let mut succs = preds.clone();
        let mut pfill: Vec<u32> = pred_start.clone();
        let mut sfill: Vec<u32> = succ_start.clone();
        for &(f, t, kind, cost) in &self.edges {
            let p = pfill[t as usize];
            preds[p as usize] = EdgeRef {
                other: f,
                kind,
                cost,
            };
            pfill[t as usize] += 1;
            let s = sfill[f as usize];
            succs[s as usize] = EdgeRef {
                other: t,
                kind,
                cost,
            };
            sfill[f as usize] += 1;
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

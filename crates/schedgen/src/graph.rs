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

/// An added edge `(from, to, kind, cost)`.
type AddedEdge = (u32, u32, EdgeKind, CostExpr);

/// A graph's vertices and predecessor lists in CSR form — everything
/// the reduction pipeline reads. Borrowed from an [`ExecGraph`] or from
/// a [`GraphBuilder`]'s sorted arrays ([`SortedPreds`]), so neither
/// source is copied to hand it over.
#[derive(Clone, Copy)]
pub(crate) struct PredView<'a> {
    pub(crate) nranks: u32,
    pub(crate) verts: &'a [Vertex],
    pub(crate) pred_start: &'a [u32],
    pub(crate) preds: &'a [EdgeRef],
}

impl PredView<'_> {
    pub(crate) fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    pub(crate) fn num_edges(&self) -> usize {
        self.preds.len()
    }

    #[inline]
    pub(crate) fn vertex(&self, v: u32) -> &Vertex {
        &self.verts[v as usize]
    }

    #[inline]
    pub(crate) fn preds(&self, v: u32) -> &[EdgeRef] {
        let s = self.pred_start[v as usize] as usize;
        let e = self.pred_start[v as usize + 1] as usize;
        &self.preds[s..e]
    }

    /// [`crate::view::alg1_row_count`] from degree counts alone: the
    /// in-degrees are the list lengths, and a vertex is a sink when no
    /// predecessor list names it.
    pub(crate) fn alg1_row_count(&self) -> u64 {
        let mut has_succ = vec![false; self.verts.len()];
        for e in self.preds {
            has_succ[e.other as usize] = true;
        }
        let mut rows = 0u64;
        for (v, &succ) in has_succ.iter().enumerate() {
            let np = u64::from(self.pred_start[v + 1] - self.pred_start[v]);
            if np > 1 {
                rows += np;
            }
            rows += u64::from(!succ);
        }
        rows
    }
}

impl ExecGraph {
    /// This graph's vertex array and predecessor lists, borrowed.
    pub(crate) fn pred_view(&self) -> PredView<'_> {
        PredView {
            nranks: self.nranks,
            verts: &self.verts,
            pred_start: &self.pred_start,
            preds: &self.preds,
        }
    }
}

/// A builder's vertices and sorted predecessor lists, with no successor
/// lists and no topological order: the reduced graph's input on the
/// product path (see [`GraphBuilder::finish_reduced`]).
pub(crate) struct SortedPreds {
    nranks: u32,
    verts: Vec<Vertex>,
    pred_start: Vec<u32>,
    preds: Vec<EdgeRef>,
}

impl SortedPreds {
    pub(crate) fn view(&self) -> PredView<'_> {
        PredView {
            nranks: self.nranks,
            verts: &self.verts,
            pred_start: &self.pred_start,
            preds: &self.preds,
        }
    }
}

/// Mutable accumulation of vertices and edges in insertion order,
/// finalised into CSR form.
///
/// One duplicate-edge rule holds for every graph built here: of several
/// zero-cost `Local` edges `f → t`, only the first added survives. The
/// predecessor sort applies it (see [`GraphBuilder::finish`]), so adding
/// an edge is a push and nothing more.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nranks: u32,
    verts: Vec<Vertex>,
    edges: Vec<AddedEdge>,
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
        self.edges.push((from, to, kind, cost));
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Finalise into CSR + topological order.
    pub fn finish(self) -> Result<ExecGraph, GraphError> {
        self.finish_slots().map(|(g, _)| g)
    }

    /// [`GraphBuilder::finish`], plus the added-edge index held by each
    /// predecessor slot (`preds(v)[i]` is added edge
    /// `slots[pred_start(v) + i]`).
    pub(crate) fn finish_slots(self) -> Result<(ExecGraph, Vec<u32>), GraphError> {
        let n = self.verts.len();
        let (pred_start, slots, preds) = self.sort_preds();

        // Successor lists: the kept edges by source, in insertion order.
        let mut kept = vec![false; self.edges.len()];
        for &id in &slots {
            kept[id as usize] = true;
        }
        let mut succ_start = vec![0u32; n + 1];
        for (&(f, ..), _) in self.edges.iter().zip(&kept).filter(|(_, &k)| k) {
            succ_start[f as usize + 1] += 1;
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
        for (&(f, t, kind, cost), _) in self.edges.iter().zip(&kept).filter(|(_, &k)| k) {
            let s = &mut fill[f as usize];
            succs[*s as usize] = EdgeRef {
                other: t,
                kind,
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

        let graph = ExecGraph {
            nranks: self.nranks,
            verts: self.verts,
            pred_start,
            preds,
            succ_start,
            succs,
            topo,
        };
        Ok((graph, slots))
    }

    /// The vertices and predecessor lists alone — no successor lists,
    /// no topological order, and so no cycle check: a cyclic edge set
    /// surfaces where a consumer orders it.
    pub(crate) fn into_sorted_preds(self) -> SortedPreds {
        let (pred_start, _, preds) = self.sort_preds();
        SortedPreds {
            nranks: self.nranks,
            verts: self.verts,
            pred_start,
            preds,
        }
    }

    /// Stable counting sort of the added edges by target, applying the
    /// duplicate-edge rule: a zero-cost `Local` edge `f → t` is dropped
    /// when `t`'s list already holds one from `f` (`last[f] == t`), so
    /// the first added survives. Returns the list offsets, the added-edge
    /// index in each slot, and the slots' edges as seen from the target.
    fn sort_preds(&self) -> (Vec<u32>, Vec<u32>, Vec<EdgeRef>) {
        let n = self.verts.len();
        let mut start = vec![0u32; n + 1];
        for &(_, t, ..) in &self.edges {
            start[t as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut slots = vec![0u32; self.edges.len()];
        let mut fill = start.clone();
        for (id, &(_, t, ..)) in self.edges.iter().enumerate() {
            let s = &mut fill[t as usize];
            slots[*s as usize] = id as u32;
            *s += 1;
        }
        drop(fill);
        let mut last = vec![u32::MAX; n];
        let mut preds = Vec::with_capacity(slots.len());
        for t in 0..n {
            let (s, e) = (start[t] as usize, start[t + 1] as usize);
            start[t] = preds.len() as u32;
            for k in s..e {
                let id = slots[k];
                let (f, _, kind, cost) = self.edges[id as usize];
                if kind == EdgeKind::Local && cost.is_zero() {
                    if last[f as usize] == t as u32 {
                        continue;
                    }
                    last[f as usize] = t as u32;
                }
                slots[preds.len()] = id;
                preds.push(EdgeRef {
                    other: f,
                    kind,
                    cost,
                });
            }
        }
        start[n] = preds.len() as u32;
        slots.truncate(preds.len());
        (start, slots, preds)
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

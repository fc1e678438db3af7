//! Makespan-preserving graph reduction: the pipeline between trace
//! compilation and analysis lowering.
//!
//! The LP stays tractable by exploiting the *structure* of the MPI
//! dependency graph before the solver ever sees it (paper §II-D3 credits
//! presolve; here the same reductions happen at the graph level, where
//! they also speed up the envelope and evaluation backends). Three pass
//! families, all exact — the reduced graph predicts the same makespan
//! `T(L, G, o)`, the same sensitivities and the same critical latencies
//! for **every** parameter value:
//!
//! * **serial-chain contraction** — a vertex whose single `Local`
//!   in-edge comes from a single-successor vertex merges into that
//!   predecessor, coefficients accumulated (`max`-free segments are
//!   associative);
//! * **vertex folds** (the generalised zero-weight merge) — a vertex
//!   with exactly one `Local` *out*-edge folds forward into its consumer,
//!   its cost pushed onto every in-edge (`max(a, b) + c =
//!   max(a + c, b + c)`): this is what actually removes LP rows, because
//!   it dissolves multi-predecessor join vertices into their unique
//!   consumer. The mirror backward fold (single `Local` in-edge) folds
//!   pass-through vertices into their producer.
//! * **redundant-dependency elimination** — an in-edge whose implied
//!   bound is dominated by a sibling's for every non-negative parameter
//!   value is dropped: sibling edges whose sources share an exact
//!   single-predecessor chain root are compared symbolically, and
//!   zero-cost `Local` edges with an alternative path (bounded DFS) are
//!   transitively redundant.
//!
//! The reduction has one product: the reduced graph and its counters.
//! Like the paper's presolve, it keeps every variable the answers are
//! read from — the makespan `T`, the sensitivities `λ`, the critical
//! latencies and the tolerance zones — so the analyses answer on the
//! reduced graph as it is, and nothing maps it back to the original.
//!
//! The passes read only the vertex array and the predecessor lists. On
//! the product path ([`GraphBuilder::finish_reduced`], which builds no
//! raw CSR) the builder's predecessor sort writes them in the arena's
//! own layout, and the arena takes them over without a copy or a second
//! sort; [`reduce()`] copies a raw [`ExecGraph`]'s lists into
//! that layout once. Round 1's serial-chain contraction runs on those
//! input arrays, before the arena builds any adjacency: a chain merge
//! rewires only the merged vertex's out-edges, so every verdict reads
//! off the input's degrees, and the arrays compact in place to the
//! arena the chain pass would have left. The arena is born at its
//! post-chain size; from round 2 on its own chain pass merges what a
//! fold or a redundancy removal exposes. An arena edge is a 12-byte
//! structure record (ends, kind, alive) with its cost in a parallel
//! array, so the passes' structural checks never drag a 32-byte cost
//! through the cache; only cost arithmetic reads the costs. The passes
//! rewrite an arena that shrinks as it reduces: a pass after one that
//! changed something starts by renumbering the live vertices and edges
//! densely, in their current order, so each pass costs what the *live*
//! graph costs and decides exactly as it would on the full-size arena.
//!
//! The reduced graph is for *analysis*: like [`ExecGraph::contracted`]
//! (now a thin wrapper over the chains-only pipeline), `Send`/`Recv`
//! semantics survive only on unmerged vertices, so don't feed it to the
//! simulator.

use crate::graph::{
    alg1_row_count, CostExpr, EdgeKind, ExecGraph, GraphBuilder, GraphError, Vertex,
};

/// Which reduction passes run. Every reduction runs the enabled passes
/// over the whole graph to a fixpoint, whatever the graph's size, so
/// the reduced graph is a pure function of the graph and these
/// switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceConfig {
    /// Serial-chain contraction (coefficient accumulation).
    pub chains: bool,
    /// Forward/backward vertex folds (generalised zero-weight merging).
    pub folds: bool,
    /// Redundant-dependency elimination (sibling domination + bounded
    /// transitive search).
    pub redundant: bool,
}

/// Maximum pass rounds; the pipeline stops earlier at a fixpoint.
const MAX_ROUNDS: u32 = 8;

/// Visited-vertex cap per transitive-elimination search.
const DFS_CAP: usize = 128;

impl Default for ReduceConfig {
    fn default() -> Self {
        Self {
            chains: true,
            folds: true,
            redundant: true,
        }
    }
}

impl ReduceConfig {
    /// No reduction at all: [`reduce()`] returns the identity
    /// [`ReducedGraph`], a copy of the raw graph. To wrap a graph you own
    /// without copying it, use [`ReducedGraph::identity`].
    pub fn none() -> Self {
        Self {
            chains: false,
            folds: false,
            redundant: false,
        }
    }

    /// Serial-chain contraction only — the historical
    /// [`ExecGraph::contracted`] behaviour.
    pub fn chains_only() -> Self {
        Self {
            chains: true,
            ..Self::none()
        }
    }

    /// True when no pass is enabled.
    pub fn is_identity(&self) -> bool {
        !(self.chains || self.folds || self.redundant)
    }
}

/// What the pipeline did: sizes before → after plus per-pass counters.
/// Campaigns aggregate these into the run summary — being cache-state
/// dependent they live *beside*, never inside, deterministic result
/// files. Wall-clock pass timings are not
/// carried here: each pass runs under an `llamp-obs` span
/// (`reduce/reduce.chains` etc.), so timing lives in the telemetry
/// channel where it belongs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReductionStats {
    /// Vertices in the input graph.
    pub vertices_before: u64,
    /// Vertices after reduction.
    pub vertices_after: u64,
    /// Edges in the input graph.
    pub edges_before: u64,
    /// Edges after reduction.
    pub edges_after: u64,
    /// Algorithm-1 LP rows the input graph would generate.
    pub rows_before: u64,
    /// Algorithm-1 LP rows the reduced graph generates.
    pub rows_after: u64,
    /// Serial-chain merges performed.
    pub chain_merges: u64,
    /// Forward/backward vertex folds performed.
    pub folds: u64,
    /// Redundant in-edges removed.
    pub redundant_removed: u64,
    /// Pass rounds executed before the fixpoint (or the round cap).
    pub rounds: u64,
}

impl ReductionStats {
    /// Accumulate another graph's reduction counters (campaign
    /// aggregation).
    pub fn merge(&mut self, other: &ReductionStats) {
        self.vertices_before += other.vertices_before;
        self.vertices_after += other.vertices_after;
        self.edges_before += other.edges_before;
        self.edges_after += other.edges_after;
        self.rows_before += other.rows_before;
        self.rows_after += other.rows_after;
        self.chain_merges += other.chain_merges;
        self.folds += other.folds;
        self.redundant_removed += other.redundant_removed;
        self.rounds += other.rounds;
    }

    /// True when no graph went through the pipeline (all counters zero).
    pub fn is_empty(&self) -> bool {
        self.vertices_before == 0
    }

    /// Human-readable block (the shape `llamp run` prints).
    pub fn render(&self) -> String {
        let ratio = |before: u64, after: u64| -> String {
            if after == 0 {
                "-".into()
            } else {
                format!("{:.2}x", before as f64 / after as f64)
            }
        };
        format!(
            "vertices        {} -> {} ({})\n\
             edges           {} -> {} ({})\n\
             lp rows         {} -> {} ({})\n\
             passes          {} chain merges, {} folds, {} redundant edges, {} rounds",
            self.vertices_before,
            self.vertices_after,
            ratio(self.vertices_before, self.vertices_after),
            self.edges_before,
            self.edges_after,
            ratio(self.edges_before, self.edges_after),
            self.rows_before,
            self.rows_after,
            ratio(self.rows_before, self.rows_after),
            self.chain_merges,
            self.folds,
            self.redundant_removed,
            self.rounds,
        )
    }
}

/// The reduced IR: a smaller [`ExecGraph`] plus what the pipeline did to
/// get there. The analyses read [`ReducedGraph::graph`] exactly like a
/// raw graph, and every answer is read off it as it is.
#[derive(Debug, Clone)]
pub struct ReducedGraph {
    graph: ExecGraph,
    stats: ReductionStats,
}

impl ReducedGraph {
    /// The identity reduction: `g` itself, zeroed pass counters (sizes
    /// recorded unchanged).
    pub fn identity(g: ExecGraph) -> Self {
        let rows = alg1_row_count(&g);
        Self {
            stats: ReductionStats {
                vertices_before: g.num_vertices() as u64,
                vertices_after: g.num_vertices() as u64,
                edges_before: g.num_edges() as u64,
                edges_after: g.num_edges() as u64,
                rows_before: rows,
                rows_after: rows,
                ..ReductionStats::default()
            },
            graph: g,
        }
    }

    /// The reduced execution graph itself.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// Discard the pass counters, keeping only the reduced graph.
    pub fn into_graph(self) -> ExecGraph {
        self.graph
    }

    /// What the pipeline did.
    pub fn stats(&self) -> &ReductionStats {
        &self.stats
    }
}

impl ExecGraph {
    /// Run the reduction pipeline on this graph (see [`reduce()`]).
    pub fn reduced(&self, cfg: &ReduceConfig) -> ReducedGraph {
        reduce(self, cfg)
    }
}

/// Run the configured reduction passes to a fixpoint (at most eight
/// rounds) and return the reduced graph with its counters.
///
/// Every graph, whatever its size, reduces as one whole-graph arena on
/// the calling thread, so the output is a pure function of the graph and
/// the config. The passes read only the vertex array and the predecessor
/// lists, so a graph that exists only to be reduced needs no CSR of its
/// own: [`GraphBuilder::finish_reduced`] hands the builder's sorted
/// arrays straight to the same pipeline and returns the same graph.
pub fn reduce(g: &ExecGraph, cfg: &ReduceConfig) -> ReducedGraph {
    if cfg.is_identity() {
        return ReducedGraph::identity(g.clone());
    }
    traced(|| run(SortedInput::of_graph(g), cfg)).expect("an ExecGraph is acyclic")
}

impl GraphBuilder {
    /// Finalise straight into the reduced graph, with no raw CSR: the
    /// predecessor sort of [`GraphBuilder::finish`] (and its one
    /// duplicate-edge rule) writes the reduction arena's input directly,
    /// and no successor lists or topological order of the raw graph are
    /// built. The raw graph's sizes and Algorithm-1 row count come from
    /// the sort's own counts. Returns exactly
    /// [`reduce()`]`(&self.finish()?, cfg)`. A cyclic edge set fails with
    /// [`GraphError::Cycle`]: the input's chain contraction shortens a
    /// cycle but keeps it (one it would close into a self-edge fails
    /// there), and no arena pass touches a vertex on a cycle, so the
    /// cycle reaches the final rebuild.
    pub fn finish_reduced(self, cfg: &ReduceConfig) -> Result<ReducedGraph, GraphError> {
        if cfg.is_identity() {
            return self.finish().map(ReducedGraph::identity);
        }
        traced(|| run(self.into_sorted_input(), cfg))
    }
}

/// Run one reduction under the `reduce` span, which carries its sizes.
fn traced(
    f: impl FnOnce() -> Result<ReducedGraph, GraphError>,
) -> Result<ReducedGraph, GraphError> {
    let outer = llamp_obs::span("reduce");
    let out = f()?;
    if llamp_obs::is_enabled() {
        let s = out.stats();
        outer.field_u64("vertices_before", s.vertices_before);
        outer.field_u64("vertices_after", s.vertices_after);
        outer.field_u64("rows_before", s.rows_before);
        outer.field_u64("rows_after", s.rows_after);
        outer.field_u64("rounds", s.rounds);
    }
    Ok(out)
}

/// Reduce `input` on one whole-graph arena: the enabled passes, round
/// after round, until a round changes nothing or [`MAX_ROUNDS`] have
/// run; then the rebuild.
fn run(input: SortedInput, cfg: &ReduceConfig) -> Result<ReducedGraph, GraphError> {
    let mut r = Reducer::whole(input, cfg.chains)?;
    for round in 0..MAX_ROUNDS {
        // Round 1's chains contracted on the input, in `Reducer::whole`.
        let mut changed = if round == 0 { r.stats.chain_merges } else { 0 };
        if cfg.chains && round > 0 {
            changed += traced_pass(&mut r, "reduce.chains", Reducer::pass_chains);
        }
        if cfg.folds {
            changed += traced_pass(&mut r, "reduce.folds", Reducer::pass_folds);
        }
        if cfg.redundant {
            changed += traced_pass(&mut r, "reduce.redundant", Reducer::pass_redundant);
        }
        r.stats.rounds += 1;
        if changed == 0 {
            break;
        }
    }
    r.finish()
}

/// Run one reduction pass under an obs span carrying the live arena
/// size it started from and its change count. The sizes are read only
/// while recording telemetry: every pass starts by bringing the arena
/// up to date, so doing that first leaves it compact, and its lengths
/// are the live counts.
fn traced_pass(r: &mut Reducer, name: &'static str, pass: impl FnOnce(&mut Reducer) -> u64) -> u64 {
    let g = llamp_obs::span(name);
    if !llamp_obs::is_enabled() {
        return pass(r);
    }
    r.refresh();
    g.field_u64("vertices", r.verts.len() as u64);
    g.field_u64("edges", r.edges.len() as u64);
    let changed = pass(r);
    g.field_u64("changed", changed);
    changed
}

/// One mutable edge of the reduction arena: its structure alone, 12
/// bytes, so the structural checks (sole live in-edge, live out-degree,
/// rank guards, alive filters) stream through nothing else. Its cost
/// sits at the same index of the arena's parallel cost array. Passes
/// only rewire or kill edges, never create them, and compaction
/// renumbers the survivors in their current order, so every pass
/// iterating them is deterministic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct REdge {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) kind: EdgeKind,
    alive: bool,
}

impl REdge {
    /// A live edge `from → to`.
    pub(crate) fn new(from: u32, to: u32, kind: EdgeKind) -> Self {
        Self {
            from,
            to,
            kind,
            alive: true,
        }
    }
}

/// The reduction's input: a graph's vertices and its edges in
/// predecessor order (grouped by target, targets ascending, each group
/// in list order) as arena edge records with their costs in a parallel
/// array, plus the per-target offsets and the graph's Algorithm-1 row
/// count. The builder's predecessor sort writes it directly
/// ([`GraphBuilder::finish_reduced`]); [`reduce()`] copies an
/// [`ExecGraph`]'s predecessor lists into it once. The reduction arena
/// takes it over as it is.
pub(crate) struct SortedInput {
    nranks: u32,
    verts: Vec<Vertex>,
    /// `edges[pred_start[v]..pred_start[v + 1]]` enter `v`.
    pred_start: Vec<u32>,
    edges: Vec<REdge>,
    costs: Vec<CostExpr>,
    /// Algorithm-1 LP rows of the input graph.
    rows: u64,
}

impl SortedInput {
    /// The input over these arrays, where `sinks` vertices have no
    /// out-edge. Algorithm 1 writes one row per in-edge of a vertex
    /// with several, and one per sink.
    pub(crate) fn new(
        nranks: u32,
        verts: Vec<Vertex>,
        pred_start: Vec<u32>,
        edges: Vec<REdge>,
        costs: Vec<CostExpr>,
        sinks: usize,
    ) -> Self {
        let joins: u64 = pred_start
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]))
            .filter(|&d| d > 1)
            .sum();
        Self {
            nranks,
            verts,
            pred_start,
            edges,
            costs,
            rows: joins + sinks as u64,
        }
    }

    /// An [`ExecGraph`]'s vertices and predecessor lists, copied once.
    fn of_graph(g: &ExecGraph) -> Self {
        let n = g.num_vertices();
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(g.num_edges());
        let mut costs = Vec::with_capacity(g.num_edges());
        pred_start.push(0);
        for v in 0..n as u32 {
            for e in g.preds(v) {
                edges.push(REdge::new(e.other, v, e.kind));
                costs.push(e.cost);
            }
            pred_start.push(edges.len() as u32);
        }
        let sinks = (0..n as u32).filter(|&v| g.succs(v).is_empty()).count();
        Self::new(
            g.nranks(),
            g.vertices().to_vec(),
            pred_start,
            edges,
            costs,
            sinks,
        )
    }

    /// Round 1's serial-chain contraction, on these arrays before any
    /// adjacency exists: `v` merges into `u` when `v`'s only in-edge is
    /// `Local` from `u ≠ v` on `v`'s rank and that edge is `u`'s only
    /// out-edge, the test [`Reducer::pass_chains`] makes on a fresh
    /// arena. A merge rewires only the merged vertex's out-edges, so
    /// every verdict reads off the input's degrees. Each chain is walked
    /// from its head in head-id order, accumulating
    /// `head + (edge + member)` member by member in chain order, the
    /// additions that pass makes. The arrays then compact in place:
    /// vertex and edge order kept, each merged vertex's in-edge group
    /// (its chain edge) dropped, and every edge's source mapped to its
    /// head, so a tail's out-edges become its head's. The result is the
    /// arena that pass plus the compaction after it would leave.
    ///
    /// Returns the merge count. An edge that comes back to its own head
    /// closes a cycle, so it fails with [`GraphError::Cycle`].
    fn contract_chains(&mut self) -> Result<u64, GraphError> {
        const NONE: u32 = u32::MAX;
        const MANY: u32 = u32::MAX - 1;
        let n = self.verts.len();
        let SortedInput {
            verts,
            pred_start,
            edges,
            costs,
            ..
        } = self;
        // Each vertex's only out-edge: `NONE` for a sink, `MANY` when it
        // has several.
        let mut sole_out = vec![NONE; n];
        for (eid, e) in edges.iter().enumerate() {
            let s = &mut sole_out[e.from as usize];
            *s = if *s == NONE { eid as u32 } else { MANY };
        }
        let merges = |verts: &[Vertex], v: usize| {
            let eid = pred_start[v];
            if pred_start[v + 1] - eid != 1 {
                return false;
            }
            let e = edges[eid as usize];
            let u = e.from as usize;
            e.kind == EdgeKind::Local
                && u != v
                && verts[u].rank == verts[v].rank
                && sole_out[u] == eid
        };
        // `head[v]`: the head `v` merged into, `NONE` for a survivor.
        let mut head = vec![NONE; n];
        let mut merged = 0u64;
        for h in 0..n {
            if merges(verts, h) {
                continue;
            }
            let mut x = h;
            while sole_out[x] < MANY {
                let eid = sole_out[x] as usize;
                let v = edges[eid].to as usize;
                if !merges(verts, v) {
                    break;
                }
                let add = costs[eid].add(&verts[v].cost);
                verts[h].cost = verts[h].cost.add(&add);
                head[v] = h as u32;
                merged += 1;
                x = v;
            }
        }
        if merged == 0 {
            return Ok(0);
        }

        // Survivors keep their order; a merged vertex's id is its head's.
        let new_id = &mut sole_out;
        let mut w = 0;
        for v in 0..n {
            if head[v] == NONE {
                new_id[v] = w as u32;
                verts[w] = verts[v];
                w += 1;
            }
        }
        verts.truncate(w);
        let (mut wv, mut we) = (0, 0);
        for v in 0..n {
            let (s, t) = (pred_start[v] as usize, pred_start[v + 1] as usize);
            if head[v] != NONE {
                continue;
            }
            pred_start[wv] = we as u32;
            for i in s..t {
                let e = edges[i];
                let f = match head[e.from as usize] {
                    NONE => e.from,
                    h => h,
                };
                let from = new_id[f as usize];
                if from == wv as u32 {
                    return Err(GraphError::Cycle);
                }
                edges[we] = REdge {
                    from,
                    to: wv as u32,
                    ..e
                };
                costs[we] = costs[i];
                we += 1;
            }
            wv += 1;
        }
        pred_start[wv] = we as u32;
        pred_start.truncate(wv + 1);
        edges.truncate(we);
        costs.truncate(we);
        Ok(merged)
    }
}

/// Per-vertex edge-id lists packed into one pool. Vertex `v` owns the
/// block `pool[start[v]..start[v] + cap[v]]`, of which the first `len[v]`
/// slots are in use. A list that outgrows its block moves to the pool's
/// end (the old block is garbage until the next [`AdjPool::renumber`]),
/// so the lists cost three integers per vertex and no allocation of
/// their own.
struct AdjPool {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    pool: Vec<u32>,
    /// The previous pool, reused as [`AdjPool::renumber`]'s copy source.
    spare: Vec<u32>,
}

impl AdjPool {
    /// Lists over `n` vertices holding each edge id under the vertex
    /// `ends` names for it, in id order, each block sized to its degree.
    fn index(n: usize, ends: impl Iterator<Item = u32> + Clone) -> Self {
        let mut len = vec![0u32; n];
        for v in ends.clone() {
            len[v as usize] += 1;
        }
        let mut start = Vec::with_capacity(n);
        let mut acc = 0u32;
        for &d in &len {
            start.push(acc);
            acc += d;
        }
        let cap = len.clone();
        let mut pool = vec![0u32; acc as usize];
        len.fill(0);
        for (id, v) in ends.enumerate() {
            let v = v as usize;
            pool[(start[v] + len[v]) as usize] = id as u32;
            len[v] += 1;
        }
        Self {
            start,
            len,
            cap,
            pool,
            spare: Vec::new(),
        }
    }

    /// Lists over edges already grouped by vertex, in id order: vertex
    /// `v` holds the ids `start[v]..start[v + 1]` (`start` ends with the
    /// edge count). That is what [`AdjPool::index`] builds for such
    /// edges, without counting them again.
    fn grouped(mut start: Vec<u32>) -> Self {
        let len: Vec<u32> = start.windows(2).map(|w| w[1] - w[0]).collect();
        let m = start.pop().expect("offsets end with the edge count");
        Self {
            start,
            cap: len.clone(),
            len,
            pool: (0..m).collect(),
            spare: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, v: u32) -> &[u32] {
        let s = self.start[v as usize] as usize;
        &self.pool[s..s + self.len[v as usize] as usize]
    }

    fn push(&mut self, v: u32, id: u32) {
        let v = v as usize;
        let (s, l) = (self.start[v] as usize, self.len[v] as usize);
        if l == self.cap[v] as usize {
            let moved = self.pool.len();
            let cap = (2 * l).max(4);
            self.pool.extend_from_within(s..s + l);
            self.pool.resize(moved + cap, 0);
            self.start[v] = u32::try_from(moved).expect("adjacency pool fits u32 offsets");
            self.cap[v] = cap as u32;
        }
        self.pool[self.start[v] as usize + l] = id;
        self.len[v] += 1;
    }

    /// Keep the lists of the vertices `new_v` keeps, renumbered to their
    /// new ids, dropping the entries `keep(v, id)` rejects and renaming
    /// the rest through `new_e`: every list is repacked tightly, in
    /// vertex order, with its order kept.
    fn renumber(&mut self, new_v: &[u32], new_e: &[u32], keep: impl Fn(u32, u32) -> bool) {
        std::mem::swap(&mut self.pool, &mut self.spare);
        self.pool.clear();
        let mut w = 0;
        for (v, &nv) in new_v.iter().enumerate() {
            if nv == u32::MAX {
                continue;
            }
            let s = self.start[v] as usize;
            let packed = self.pool.len();
            for &id in &self.spare[s..s + self.len[v] as usize] {
                if keep(v as u32, id) {
                    self.pool.push(new_e[id as usize]);
                }
            }
            let kept = (self.pool.len() - packed) as u32;
            self.start[w] = packed as u32;
            self.len[w] = kept;
            self.cap[w] = kept;
            w += 1;
        }
        self.start.truncate(w);
        self.len.truncate(w);
        self.cap.truncate(w);
    }
}

/// Per-pass scratch, owned by the arena and reused by every pass and
/// round, so the passes allocate nothing per vertex or per call.
#[derive(Default)]
struct Work {
    /// Topological order of the arena and Kahn's in-degrees.
    order: Vec<u32>,
    indeg: Vec<u32>,
    /// Live in- and out-edge lists of the vertex being visited.
    ins: Vec<u32>,
    outs: Vec<u32>,
    /// Exact chain roots and offsets (redundancy pass).
    root: Vec<u32>,
    off: Vec<CostExpr>,
    dfs: Dfs,
    /// Compaction's new vertex and edge ids (`u32::MAX` for the dead).
    new_v: Vec<u32>,
    new_e: Vec<u32>,
}

/// State of the redundancy pass's bounded searches.
#[derive(Default)]
struct Dfs {
    /// Topological position of each vertex.
    pos: Vec<u32>,
    /// Visit marks: `stamp[v] == cur` once the current search saw `v`.
    stamp: Vec<u32>,
    cur: u32,
    stack: Vec<u32>,
}

/// The reduction arena: a mutable copy of the graph that the passes
/// rewrite in place. It shrinks as it reduces: every pass after
/// one that changed something starts by compacting it to the live
/// vertices and edges, so a pass costs what the live graph costs.
struct Reducer {
    nranks: u32,
    verts: Vec<Vertex>,
    valive: Vec<bool>,
    edges: Vec<REdge>,
    /// Edge costs, indexed like `edges`. Only cost arithmetic reads them:
    /// merges and folds, chain-root offsets and sibling domination, and
    /// the transitive search's zero and sign tests.
    costs: Vec<CostExpr>,
    /// Incoming/outgoing edge-id lists. Entries can go stale when an
    /// edge dies or is rewired; readers filter, `compact` prunes.
    inc: AdjPool,
    out: AdjPool,
    /// Whether a pass changed the arena since it was last compacted. A
    /// clean arena is compact, and `work.order` is its topological
    /// order.
    dirty: bool,
    work: Work,
    /// The counters so far; the `_before` sizes are the input's.
    stats: ReductionStats,
}

impl Reducer {
    /// The whole graph as one arena, every vertex and edge alive. With
    /// `chains`, round 1's chain contraction runs first, on the input
    /// arrays ([`SortedInput::contract_chains`], under that round's
    /// `reduce.chains` span), so the arena is born at its post-chain
    /// size and round 1 runs no arena chain pass. The arena then takes
    /// the input over as it is: its edges are grouped by target, so the
    /// in-lists are the input's offset ranges.
    fn whole(mut g: SortedInput, chains: bool) -> Result<Self, GraphError> {
        let stats = ReductionStats {
            vertices_before: g.verts.len() as u64,
            edges_before: g.edges.len() as u64,
            rows_before: g.rows,
            ..ReductionStats::default()
        };
        let chain_merges = if chains {
            let span = llamp_obs::span("reduce.chains");
            span.field_u64("vertices", stats.vertices_before);
            span.field_u64("edges", stats.edges_before);
            let merged = g.contract_chains()?;
            span.field_u64("changed", merged);
            merged
        } else {
            0
        };
        let n = g.verts.len();
        debug_assert_eq!(g.edges.len(), g.costs.len());
        let mut r = Self {
            nranks: g.nranks,
            valive: vec![true; n],
            verts: g.verts,
            inc: AdjPool::grouped(g.pred_start),
            out: AdjPool::index(n, g.edges.iter().map(|e| e.from)),
            edges: g.edges,
            costs: g.costs,
            dirty: false,
            work: Work::default(),
            stats: ReductionStats {
                chain_merges,
                ..stats
            },
        };
        r.topo();
        Ok(r)
    }

    /// The live in-edges of `v`, in list order.
    fn live_in(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let edges = &self.edges;
        self.inc
            .get(v)
            .iter()
            .copied()
            .filter(move |&e| enters(edges, v, e))
    }

    /// The live out-edges of `v`, in list order.
    fn live_out(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let edges = &self.edges;
        self.out
            .get(v)
            .iter()
            .copied()
            .filter(move |&e| leaves(edges, v, e))
    }

    /// The live in-edge of `v` when it has exactly one.
    fn sole_live_in(&self, v: u32) -> Option<u32> {
        let mut live = self.live_in(v);
        let first = live.next()?;
        live.next().is_none().then_some(first)
    }

    /// Renumber the live vertices and edges densely, keeping their
    /// order, and repack each adjacency list mapped to the new ids,
    /// keeping list order: afterwards the arena holds the live graph and
    /// nothing else. Every order a pass reads — vertex ids (Kahn
    /// seeding), edge ids (`finish`) and list order (siblings) — is the
    /// order it was before, so the passes decide exactly as they would
    /// on the uncompacted arena.
    fn compact(&mut self) {
        let Reducer {
            verts,
            valive,
            edges,
            costs,
            inc,
            out,
            work,
            ..
        } = self;
        let (new_v, new_e) = (&mut work.new_v, &mut work.new_e);
        let mut live = 0u32;
        new_v.clear();
        new_v.extend(valive.iter().map(|&a| {
            live += u32::from(a);
            if a {
                live - 1
            } else {
                u32::MAX
            }
        }));
        let mut kept = 0u32;
        new_e.clear();
        new_e.extend(edges.iter().map(|e| {
            kept += u32::from(e.alive);
            if e.alive {
                kept - 1
            } else {
                u32::MAX
            }
        }));
        inc.renumber(new_v, new_e, |v, e| enters(edges, v, e));
        out.renumber(new_v, new_e, |v, e| leaves(edges, v, e));

        let mut w = 0;
        for v in 0..verts.len() {
            if valive[v] {
                verts[w] = verts[v];
                w += 1;
            }
        }
        verts.truncate(w);
        valive.clear();
        valive.resize(w, true);
        let mut w = 0;
        for i in 0..edges.len() {
            let e = edges[i];
            if e.alive {
                edges[w] = REdge {
                    from: new_v[e.from as usize],
                    to: new_v[e.to as usize],
                    ..e
                };
                costs[w] = costs[i];
                w += 1;
            }
        }
        edges.truncate(w);
        costs.truncate(w);
    }

    /// Bring the arena and its topological order up to date before a
    /// pass: after a pass that changed nothing both are still valid.
    fn refresh(&mut self) {
        if self.dirty {
            self.compact();
            self.topo();
            self.dirty = false;
        }
    }

    /// Topological order of the compact arena into `work.order` (Kahn,
    /// ascending-id queue seeding — deterministic).
    fn topo(&mut self) {
        let n = self.verts.len();
        let Work { order, indeg, .. } = &mut self.work;
        indeg.clear();
        indeg.resize(n, 0);
        for e in &self.edges {
            debug_assert!(e.alive, "topo runs on a compact arena");
            indeg[e.to as usize] += 1;
        }
        order.clear();
        order.extend((0..n as u32).filter(|&v| indeg[v as usize] == 0));
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &eid in self.out.get(v) {
                let t = self.edges[eid as usize].to;
                let d = &mut indeg[t as usize];
                *d -= 1;
                if *d == 0 {
                    order.push(t);
                }
            }
        }
    }

    /// Serial-chain contraction: merge `v` into its sole `Local`
    /// predecessor `u` when `u`'s only successor is `v` (same rank),
    /// accumulating edge + vertex cost into `u`. Round 1's chains
    /// contract on the input instead ([`SortedInput::contract_chains`]);
    /// this pass merges what a later fold or redundancy removal exposes.
    fn pass_chains(&mut self) -> u64 {
        self.refresh();
        let mut wk = std::mem::take(&mut self.work);
        let mut merged = 0u64;
        for &v in &wk.order {
            if !self.valive[v as usize] {
                continue;
            }
            let Some(eid) = self.sole_live_in(v) else {
                continue;
            };
            if self.edges[eid as usize].kind != EdgeKind::Local {
                continue;
            }
            let u = self.edges[eid as usize].from;
            if u == v
                || !self.valive[u as usize]
                || self.verts[u as usize].rank != self.verts[v as usize].rank
                || self.live_out(u).count() != 1
            {
                continue;
            }
            let add = self.costs[eid as usize].add(&self.verts[v as usize].cost);
            self.verts[u as usize].cost = self.verts[u as usize].cost.add(&add);
            self.edges[eid as usize].alive = false;
            self.valive[v as usize] = false;
            wk.outs.clear();
            wk.outs.extend(self.live_out(v));
            for &oid in &wk.outs {
                self.edges[oid as usize].from = u;
                self.out.push(u, oid);
            }
            merged += 1;
        }
        self.work = wk;
        self.dirty |= merged > 0;
        self.stats.chain_merges += merged;
        merged
    }

    /// Vertex folds. Forward: a vertex with exactly one `Local` out-edge
    /// (same rank, ≥ 1 pred) dissolves into its consumer, cost pushed
    /// onto every in-edge — `max` distributes over `+`, so the makespan
    /// is exact, and join vertices stop spawning LP rows of their own.
    /// Backward: the mirror for a single `Local` in-edge (≥ 1 succ).
    fn pass_folds(&mut self) -> u64 {
        self.refresh();
        let mut wk = std::mem::take(&mut self.work);
        let mut count = 0u64;
        for &v in &wk.order {
            if !self.valive[v as usize] {
                continue;
            }
            wk.outs.clear();
            wk.outs.extend(self.live_out(v));
            wk.ins.clear();
            wk.ins.extend(self.live_in(v));
            // Forward fold into the unique consumer.
            if wk.outs.len() == 1 && !wk.ins.is_empty() {
                let fid = wk.outs[0];
                let w = self.edges[fid as usize].to;
                if self.edges[fid as usize].kind == EdgeKind::Local
                    && self.valive[w as usize]
                    && self.verts[w as usize].rank == self.verts[v as usize].rank
                {
                    let push = self.verts[v as usize].cost.add(&self.costs[fid as usize]);
                    for &eid in &wk.ins {
                        let e = &mut self.edges[eid as usize];
                        debug_assert_ne!(e.from, w, "fold would create a self edge");
                        e.to = w;
                        let c = &mut self.costs[eid as usize];
                        *c = c.add(&push);
                        self.inc.push(w, eid);
                    }
                    self.edges[fid as usize].alive = false;
                    self.valive[v as usize] = false;
                    count += 1;
                    continue;
                }
            }
            // Backward fold into the unique producer.
            if wk.ins.len() == 1 && !wk.outs.is_empty() {
                let eid = wk.ins[0];
                let u = self.edges[eid as usize].from;
                if self.edges[eid as usize].kind == EdgeKind::Local
                    && self.valive[u as usize]
                    && self.verts[u as usize].rank == self.verts[v as usize].rank
                {
                    let push = self.costs[eid as usize].add(&self.verts[v as usize].cost);
                    for &oid in &wk.outs {
                        let o = &mut self.edges[oid as usize];
                        debug_assert_ne!(o.to, u, "fold would create a self edge");
                        o.from = u;
                        let c = &mut self.costs[oid as usize];
                        *c = push.add(c);
                        self.out.push(u, oid);
                    }
                    self.edges[eid as usize].alive = false;
                    self.valive[v as usize] = false;
                    count += 1;
                }
            }
        }
        self.work = wk;
        self.dirty |= count > 0;
        self.stats.folds += count;
        count
    }

    /// Redundant-dependency elimination at join vertices.
    ///
    /// (a) *Sibling domination*: in-edges whose sources sit on exact
    /// single-predecessor chains from a **shared root** `a` imply bounds
    /// `T_a + offset + edge` with symbolic (per-parameter) offsets; an
    /// edge componentwise-dominated by a sibling for every non-negative
    /// parameter value is implied and removed (ties keep the
    /// lowest-index edge).
    ///
    /// (b) *Transitive elimination*: a zero-cost `Local` in-edge with an
    /// alternative all-non-negative path from its source (bounded DFS,
    /// [`DFS_CAP`] visits) is implied by that path.
    fn pass_redundant(&mut self) -> u64 {
        self.refresh();
        let mut wk = std::mem::take(&mut self.work);
        let n = self.verts.len();
        let dfs = &mut wk.dfs;
        dfs.pos.clear();
        dfs.pos.resize(n, u32::MAX);
        for (i, &v) in wk.order.iter().enumerate() {
            dfs.pos[v as usize] = i as u32;
        }
        dfs.stamp.clear();
        dfs.stamp.resize(n, 0);
        dfs.cur = 0;
        // Exact chain roots: root[v]/off[v] such that T_v = T_root + off
        // for all parameter values (only holds along single-in-edge
        // chains; off includes the chain vertices' own costs).
        let (root, off) = (&mut wk.root, &mut wk.off);
        root.clear();
        root.extend(0..n as u32);
        off.clear();
        off.resize(n, CostExpr::ZERO);
        for &v in &wk.order {
            if let Some(eid) = self.sole_live_in(v) {
                let u = self.edges[eid as usize].from as usize;
                root[v as usize] = root[u];
                off[v as usize] = off[u]
                    .add(&self.costs[eid as usize])
                    .add(&self.verts[v as usize].cost);
            }
        }
        let mut removed = 0u64;
        for &v in &wk.order {
            let ins = &mut wk.ins;
            ins.clear();
            ins.extend(self.live_in(v));
            if ins.len() < 2 {
                continue;
            }
            // (a) sibling domination on shared exact-chain roots.
            for (i, &ei) in ins.iter().enumerate() {
                if !self.edges[ei as usize].alive {
                    continue;
                }
                let (ri, bi) = {
                    let u = self.edges[ei as usize].from as usize;
                    (root[u], off[u].add(&self.costs[ei as usize]))
                };
                for (j, &ej) in ins.iter().enumerate() {
                    if i == j || !self.edges[ej as usize].alive {
                        continue;
                    }
                    let u = self.edges[ej as usize].from as usize;
                    if root[u] != ri {
                        continue;
                    }
                    let bj = off[u].add(&self.costs[ej as usize]);
                    if dominated(&bi, &bj) && (bi != bj || j < i) {
                        self.edges[ei as usize].alive = false;
                        removed += 1;
                        break;
                    }
                }
            }
            // (b) bounded transitive search for zero-cost Local edges.
            ins.retain(|&e| self.edges[e as usize].alive);
            let mut live_count = ins.len();
            if live_count < 2 {
                continue;
            }
            for &ei in ins.iter() {
                if live_count < 2 {
                    break;
                }
                let e = &self.edges[ei as usize];
                if e.kind != EdgeKind::Local || !self.costs[ei as usize].is_zero() {
                    continue;
                }
                if self.reaches(e.from, v, ei, dfs) {
                    self.edges[ei as usize].alive = false;
                    live_count -= 1;
                    removed += 1;
                }
            }
        }
        self.work = wk;
        self.dirty |= removed > 0;
        self.stats.redundant_removed += removed;
        removed
    }

    /// Is there a path `u ⇝ target` avoiding `skip_edge` whose edge and
    /// intermediate-vertex costs are all componentwise non-negative?
    /// Bounded to [`DFS_CAP`] visited vertices; only explores vertices
    /// topologically before `target`.
    fn reaches(&self, u: u32, target: u32, skip_edge: u32, dfs: &mut Dfs) -> bool {
        dfs.cur += 1;
        let cur = dfs.cur;
        dfs.stack.clear();
        dfs.stack.push(u);
        dfs.stamp[u as usize] = cur;
        let mut visited = 0usize;
        while let Some(x) = dfs.stack.pop() {
            visited += 1;
            if visited > DFS_CAP {
                return false;
            }
            for oid in self.live_out(x) {
                if oid == skip_edge || !nonneg(&self.costs[oid as usize]) {
                    continue;
                }
                let y = self.edges[oid as usize].to;
                if y == target {
                    return true;
                }
                if dfs.stamp[y as usize] == cur
                    || dfs.pos[y as usize] >= dfs.pos[target as usize]
                    || !nonneg(&self.verts[y as usize].cost)
                {
                    continue;
                }
                dfs.stamp[y as usize] = cur;
                dfs.stack.push(y);
            }
        }
        false
    }

    /// Rebuild the reduced [`ExecGraph`]. The rebuild applies
    /// [`GraphBuilder`]'s one duplicate-edge rule and orders the graph,
    /// so a cycle no pass could touch surfaces here as
    /// [`GraphError::Cycle`].
    fn finish(mut self) -> Result<ReducedGraph, GraphError> {
        let _span = llamp_obs::span("reduce.finish");
        if self.dirty {
            self.compact();
        }
        let mut builder =
            GraphBuilder::with_capacity(self.nranks, self.verts.len(), self.edges.len());
        for vert in &self.verts {
            builder.add_vertex(vert.rank, vert.kind, vert.cost);
        }
        for (e, &cost) in self.edges.iter().zip(&self.costs) {
            builder.add_edge(e.from, e.to, e.kind, cost);
        }
        let graph = builder.finish()?;
        self.stats.vertices_after = graph.num_vertices() as u64;
        self.stats.edges_after = graph.num_edges() as u64;
        self.stats.rows_after = alg1_row_count(&graph);
        Ok(ReducedGraph {
            graph,
            stats: self.stats,
        })
    }
}

/// Whether arena edge `eid` is alive and enters `v`. Adjacency entries
/// go stale when their edge dies or is rewired; every reader filters.
fn enters(edges: &[REdge], v: u32, eid: u32) -> bool {
    let e = &edges[eid as usize];
    e.alive && e.to == v
}

/// Whether arena edge `eid` is alive and leaves `v`.
fn leaves(edges: &[REdge], v: u32, eid: u32) -> bool {
    let e = &edges[eid as usize];
    e.alive && e.from == v
}

/// `a ≤ b` in every cost component: the bound `T + a·θ` is implied by
/// `T + b·θ` for all non-negative parameter values.
fn dominated(a: &CostExpr, b: &CostExpr) -> bool {
    a.const_ns <= b.const_ns
        && a.o_count <= b.o_count
        && a.l_count <= b.l_count
        && a.gbytes <= b.gbytes
}

/// Every component non-negative (true for every cost the trace compiler
/// emits; guarded here so hand-built graphs with negative costs are never
/// mis-reduced).
fn nonneg(c: &CostExpr) -> bool {
    c.const_ns >= 0.0 && c.o_count >= 0.0 && c.l_count >= 0.0 && c.gbytes >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    fn calc(b: &mut GraphBuilder, rank: u32, ns: f64) -> u32 {
        b.add_vertex(rank, VertexKind::Calc, CostExpr::constant(ns))
    }

    #[test]
    fn identity_reduction_round_trips() {
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let c = calc(&mut b, 0, 2.0);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::none());
        assert_eq!(r.graph().num_vertices(), 2);
        assert_eq!(format!("{:?}", r.graph()), format!("{g:?}"));
        assert_eq!(r.stats().rows_before, r.stats().rows_after);
    }

    #[test]
    fn chains_only_matches_legacy_contraction() {
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let c = calc(&mut b, 0, 2.0);
        let d = calc(&mut b, 0, 3.0);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(c, d, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::chains_only());
        assert_eq!(r.graph().num_vertices(), 1);
        assert_eq!(r.graph().vertex(0).cost.const_ns, 6.0);
    }

    /// The exact bits of a cost.
    fn bits(c: &CostExpr) -> [u64; 4] {
        [c.const_ns, c.o_count, c.l_count, c.gbytes].map(f64::to_bits)
    }

    #[test]
    fn input_contraction_walks_chains_from_their_heads() {
        // Chain h(2) -> m1(0) -> m2(1) -> f(4), two members below their
        // head; f has two out-edges, so neither a(3) nor b(5) merges into
        // it, and a -> c(6) changes rank, so c stays too.
        let mut bld = GraphBuilder::new(2);
        let cost = |ns: f64, o: f64| CostExpr {
            o_count: o,
            ..CostExpr::constant(ns)
        };
        let m1 = bld.add_vertex(0, VertexKind::Calc, cost(0.1, 1.0));
        let m2 = bld.add_vertex(0, VertexKind::Calc, cost(0.1, 0.0));
        let h = bld.add_vertex(0, VertexKind::Calc, cost(0.1, 0.0));
        let a = calc(&mut bld, 0, 1.0);
        let f = bld.add_vertex(0, VertexKind::Calc, cost(0.1, 2.0));
        let b = calc(&mut bld, 0, 1.0);
        let c = calc(&mut bld, 1, 1.0);
        // Summed as `head + (edge + member)` these read 0.6000000000000001
        // ns; summed left to right, 0.6.
        let (e1, e2, e3) = (cost(0.1, 0.0), CostExpr::ZERO, cost(0.1, 1.0));
        bld.add_edge(h, m1, EdgeKind::Local, e1);
        bld.add_edge(m1, m2, EdgeKind::Local, e2);
        bld.add_edge(m2, f, EdgeKind::Local, e3);
        bld.add_edge(f, a, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(f, b, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        let g = bld.finish().unwrap();

        let r = reduce(&g, &ReduceConfig::chains_only());
        let rg = r.graph();
        assert_eq!(rg.num_vertices(), 4, "h, a, b and c survive");
        assert_eq!(r.stats().chain_merges, 3);
        assert_eq!(r.stats().rounds, 2);
        let want = g
            .vertex(h)
            .cost
            .add(&e1.add(&g.vertex(m1).cost))
            .add(&e2.add(&g.vertex(m2).cost))
            .add(&e3.add(&g.vertex(f).cost));
        assert_eq!(bits(&rg.vertex(0).cost), bits(&want));
        assert_eq!(rg.succs(0).len(), 2, "the tail's out-edges are the head's");
        assert_eq!(rg.preds(3)[0].other, 1, "c keeps its in-edge from a");
    }

    #[test]
    fn a_chain_closing_on_its_head_fails_typed() {
        // x -> h -> m -> h: m merges into h and its out-edge would come
        // back to h, so the input is cyclic.
        let mut bld = GraphBuilder::new(1);
        let x = calc(&mut bld, 0, 1.0);
        let h = calc(&mut bld, 0, 1.0);
        let m = calc(&mut bld, 0, 1.0);
        bld.add_edge(x, h, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(h, m, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(m, h, EdgeKind::Local, CostExpr::ZERO);
        for cfg in [ReduceConfig::default(), ReduceConfig::chains_only()] {
            let got = bld.clone().finish_reduced(&cfg).map(|r| r.stats().rounds);
            assert_eq!(got, Err(GraphError::Cycle));
        }
    }

    /// `g`'s arena as round 1's arena chain pass and the compaction after
    /// it leave it, and as the input contraction builds it.
    fn both_round_one_arenas(g: &ExecGraph) -> (Reducer, Reducer) {
        let mut passed = Reducer::whole(SortedInput::of_graph(g), false).unwrap();
        passed.stats.chain_merges = passed.pass_chains();
        passed.refresh();
        let contracted = Reducer::whole(SortedInput::of_graph(g), true).unwrap();
        (passed, contracted)
    }

    #[test]
    fn input_contraction_builds_the_arena_the_chain_pass_leaves() {
        use crate::{graph_of_programs, GraphConfig};
        use llamp_workloads::App;
        for app in App::ALL {
            let g = graph_of_programs(&app.programs(8, 2), &GraphConfig::paper()).unwrap();
            let (passed, mut contracted) = both_round_one_arenas(&g);
            let what = app.name();
            assert!(passed.stats.chain_merges > 0, "{what}: chains merged");
            assert_eq!(passed.stats, contracted.stats, "{what}: counters");
            assert_eq!(
                format!("{:?}", (&passed.verts, &passed.edges, &passed.costs)),
                format!(
                    "{:?}",
                    (&contracted.verts, &contracted.edges, &contracted.costs)
                ),
                "{what}: vertices, edges or costs"
            );
            for v in 0..passed.verts.len() as u32 {
                assert_eq!(passed.inc.get(v), contracted.inc.get(v), "{what}: in-list");
                assert_eq!(passed.out.get(v), contracted.out.get(v), "{what}: out-list");
            }
            assert_eq!(passed.work.order, contracted.work.order, "{what}: order");
            assert_eq!(contracted.pass_chains(), 0, "{what}: chains left over");
        }
    }

    #[test]
    fn forward_fold_dissolves_single_consumer_joins() {
        // Join j = max(a, x) + 5, consumed only by w (which also has a
        // third pred, so the chain pass cannot fire): folding j into w
        // pushes the 5 onto j's in-edges, deleting j's LP rows.
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let x = calc(&mut b, 0, 2.0);
        let j = calc(&mut b, 0, 5.0);
        let w = calc(&mut b, 0, 7.0);
        let y = calc(&mut b, 0, 3.0);
        b.add_edge(a, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(x, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(j, w, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(y, w, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::default());
        let rg = r.graph();
        // j dissolved into w: 4 vertices remain (a, x, y, w).
        assert_eq!(rg.num_vertices(), 4);
        let sink = (0..rg.num_vertices() as u32)
            .find(|&v| rg.succs(v).is_empty())
            .unwrap();
        // The two edges routed through j carry its pushed cost.
        let pushed = rg
            .preds(sink)
            .iter()
            .filter(|e| e.cost.const_ns == 5.0)
            .count();
        assert_eq!(pushed, 2, "j's cost pushed onto both in-edges");
        assert_eq!(r.stats().rows_after, 4); // 3 join rows + 1 sink row
    }

    #[test]
    fn sibling_domination_removes_implied_edges() {
        // w has in-edges from both s and s's own chain root t:
        //   t --(0)--> s(cost 5) --(0)--> w   and   t --(0)--> w.
        // The direct t edge is implied (T_s = T_t + 5 ≥ T_t).
        let mut b = GraphBuilder::new(1);
        let t = calc(&mut b, 0, 1.0);
        let s = calc(&mut b, 0, 5.0);
        let w0 = calc(&mut b, 0, 0.0);
        b.add_edge(t, s, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(s, w0, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(t, w0, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let cfg = ReduceConfig {
            redundant: true,
            ..ReduceConfig::none()
        };
        let r = reduce(&g, &cfg);
        assert_eq!(r.stats().redundant_removed, 1);
        assert_eq!(r.graph().num_edges(), 2);
    }

    #[test]
    fn transitive_zero_edge_removed_through_join_paths() {
        // u --(0)--> v redundant because u → j → v exists, where j is a
        // join (so u is not on an exact chain — only the DFS finds it).
        let mut b = GraphBuilder::new(1);
        let u = calc(&mut b, 0, 1.0);
        let other = calc(&mut b, 0, 1.0);
        let j = calc(&mut b, 0, 2.0);
        let v = calc(&mut b, 0, 0.0);
        b.add_edge(u, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(other, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(j, v, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(u, v, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let cfg = ReduceConfig {
            redundant: true,
            ..ReduceConfig::none()
        };
        let r = reduce(&g, &cfg);
        assert!(r.stats().redundant_removed >= 1);
        // v keeps only the j edge; rows shrink accordingly.
        assert!(r.stats().rows_after < r.stats().rows_before);
    }

    #[test]
    fn comm_edges_and_ranks_are_preserved() {
        let mut b = GraphBuilder::new(2);
        let s = b.add_vertex(
            0,
            VertexKind::Send {
                peer: 1,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        let r0 = b.add_vertex(
            1,
            VertexKind::Recv {
                peer: 0,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        b.add_edge(s, r0, EdgeKind::Comm, CostExpr::wire(8));
        let g = b.finish().unwrap();
        let red = reduce(&g, &ReduceConfig::default());
        assert_eq!(red.graph().num_messages(), 1);
        assert_eq!(red.graph().nranks(), 2);
    }
}

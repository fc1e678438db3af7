//! # llamp-schedgen — trace → execution graph compilation
//!
//! A reimplementation of the LogGOPSim toolchain's *Schedgen* (paper §II-A):
//! it compiles MPI traces, infers computation from timestamp gaps, matches
//! point-to-point messages, substitutes collectives with point-to-point
//! algorithms, and emits execution graphs in a GOAL-style format.
//!
//! * [`graph`] — the CSR execution-graph representation with *symbolic*
//!   LogGPS costs ([`graph::CostExpr`]), chain contraction (the graph-level
//!   presolve), and topological ordering.
//! * [`lower`] — eager and rendezvous lowering gadgets (paper Figs. 3, 14,
//!   15).
//! * [`collectives`] — recursive doubling, ring, binomial-tree, linear and
//!   dissemination algorithm expansions (§IV-1).
//! * [`build`] — the trace compiler ([`build::build_graph`]).
//! * [`goal`] — GOAL-dialect writer/parser.
//! * [`reduce`](mod@reduce) — the makespan-preserving reduction pipeline
//!   ([`reduce::ReducedGraph`]).
//!
//! The analyses of `llamp-core` read an [`ExecGraph`]; a
//! [`ReducedGraph`] is analysed through [`ReducedGraph::graph`].
//!
//! A graph that is only analysed reduced never needs a CSR of its own:
//! [`reduced_graph_of_programs`] hands the builder's sorted arrays
//! straight to the reduction pipeline. [`graph_of_programs`] builds the
//! raw graph for the callers that read it (the simulator and unreduced
//! analyses).

pub mod build;
pub mod collectives;
pub mod goal;
pub mod graph;
pub mod lower;
pub mod reduce;

pub use build::{build_graph, BuildError, GraphConfig};
pub use collectives::{
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BarrierAlgo, BcastAlgo, CollectiveConfig,
    ReduceAlgo,
};
pub use graph::{
    alg1_row_count, CostExpr, EdgeKind, EdgeRef, ExecGraph, GraphBuilder, Vertex, VertexKind,
};
pub use reduce::{reduce, ReduceConfig, ReducedGraph, ReductionStats};

use build::GraphIngest;
use llamp_trace::{ProgramSet, TracerConfig};

/// Convenience: trace a program set with the default tracer and compile it.
///
/// The tracer's records stream straight into the trace compiler, its
/// arenas pre-sized from the per-rank record counts (known before
/// replay), so no intermediate [`llamp_trace::Trace`] is ever
/// materialised — a million-record workload costs the graph arenas and
/// nothing else.
pub fn graph_of_programs(set: &ProgramSet, cfg: &GraphConfig) -> Result<ExecGraph, BuildError> {
    let ingest = replay(set, cfg)?;
    let g = llamp_obs::span("schedgen.build");
    let graph = ingest.finish()?;
    if llamp_obs::is_enabled() {
        g.field_u64("vertices", graph.num_vertices() as u64);
        g.field_u64("edges", graph.num_edges() as u64);
    }
    Ok(graph)
}

/// Trace a program set and compile it straight into its reduced graph:
/// [`builder_of_programs`], then [`GraphBuilder::finish_reduced`]. No CSR
/// of the raw graph is built, and the result equals
/// [`reduce()`]`(&graph_of_programs(set, cfg)?, rcfg)`.
pub fn reduced_graph_of_programs(
    set: &ProgramSet,
    cfg: &GraphConfig,
    rcfg: &ReduceConfig,
) -> Result<ReducedGraph, BuildError> {
    Ok(builder_of_programs(set, cfg)?.finish_reduced(rcfg)?)
}

/// Trace a program set and match it (the `trace.ingest` and
/// `schedgen.build` spans): the raw graph's vertices and edges in a
/// [`GraphBuilder`], before any CSR.
pub fn builder_of_programs(
    set: &ProgramSet,
    cfg: &GraphConfig,
) -> Result<GraphBuilder, BuildError> {
    let ingest = replay(set, cfg)?;
    let g = llamp_obs::span("schedgen.build");
    let builder = ingest.into_builder()?;
    if llamp_obs::is_enabled() {
        g.field_u64("vertices", builder.num_vertices() as u64);
    }
    Ok(builder)
}

/// Replay a program set's trace into a pre-sized ingest.
fn replay(set: &ProgramSet, cfg: &GraphConfig) -> Result<GraphIngest, BuildError> {
    let g = llamp_obs::span("trace.ingest");
    let ingest = std::cell::RefCell::new(GraphIngest::with_capacity(
        set.nranks,
        cfg,
        set.num_records(),
    ));
    set.replay(
        &TracerConfig::default(),
        |rank| {
            ingest.borrow_mut().begin_rank(rank);
            Ok(())
        },
        |kind, start, end| ingest.borrow_mut().record(kind, start, end),
    )?;
    if llamp_obs::is_enabled() {
        g.field_u64("ranks", u64::from(set.nranks));
        g.field_u64("records", set.num_records() as u64);
    }
    Ok(ingest.into_inner())
}

#![deny(missing_docs)]
//! # llamp-core — the LLAMP analyzer
//!
//! The paper's contribution: converting MPI execution graphs into linear
//! programs under the LogGPS model and reading network-latency sensitivity
//! (`λ_L`), latency ratios (`ρ_L`), critical latencies (`L_c`) and x%
//! latency tolerance directly off the solved models (paper §II).
//!
//! Three interchangeable, cross-validated backends answer the same
//! questions:
//!
//! | backend | module | strengths |
//! |---|---|---|
//! | LP (Algorithm 1) | [`lp_build`] | the paper's formulation: reduced costs, basis ranging (Algorithm 2), the flipped tolerance objective's optimum (by a Newton walk) |
//! | parametric envelope | [`parametric`] | the exact `T(L)` curve over a window in one near-linear pass |
//! | direct evaluation | [`eval`] | critical-path extraction and the pairwise sensitivity matrices of the placement heuristic |
//!
//! On top sit [`binding`] (uniform / topology / per-wire-class / HLogGP
//! latency models), the [`analyzer::Analyzer`] facade, and
//! [`placement`] (Algorithm 3 plus block / round-robin / random /
//! volume-greedy baselines).

pub mod analyzer;
pub mod binding;
mod crash;
pub mod eval;
pub mod lowering;
pub mod lp_build;
pub mod parametric;
pub mod placement;
mod zone;

pub use analyzer::{Analyzer, SweepPoint, ToleranceZones};
pub use binding::{
    AnalysisVariable, Binding, LatencyModel, LatencyTerm, MultiBound, PairTable, SweepParam,
};
pub use eval::{
    evaluate, evaluate_multi, pair_sensitivities, Evaluation, MultiEvaluation, PairSensitivities,
};
pub use llamp_lp::{SolveError, SolveStats};
pub use llamp_schedgen::{GraphView, ReduceConfig, ReducedGraph, ReductionStats};
pub use lowering::{lower_walk, Lowered};
pub use lp_build::{GraphLp, MultiPrediction, ParamPoint, Prediction, CRITICAL_STEP_LIMIT};
pub use parametric::ParametricProfile;
pub use placement::{
    block_mapping, evaluate_mapping, llamp_placement, random_mapping, round_robin_mapping,
    traffic_matrix, volume_greedy_mapping, Machine, PlacementOutcome,
};
pub use zone::ZONE_STEP_LIMIT;

#![deny(missing_docs)]
//! # llamp-engine — the scenario-campaign subsystem
//!
//! LLAMP's value comes from sweeping *many* scenarios — workloads ×
//! topologies × parameter sets × latency grids × backends — not from
//! one-shot figures. This crate turns the analyzer stack into a batched
//! campaign system and is the chassis later scaling work (sharding,
//! async, remote backends) plugs into:
//!
//! | module | role |
//! |---|---|
//! | [`spec`] | declarative campaign specs (TOML/JSON), canonicalisation, content hashing |
//! | [`scenario`] | the job unit: spec cell → analyzer → backend answers |
//! | [`executor`] | work-stealing std-thread pool with panic isolation and per-job timeouts |
//! | [`cache`] | content-addressed result cache (point + zone granularity, optional JSON persistence) |
//! | [`campaign`] | orchestration: expand → dedup → probe cache → execute → deterministic results |
//! | [`value`] | dependency-free JSON/TOML document layer (the registry is unreachable in this build environment, so no serde) |
//!
//! The front door is the `llamp` binary (`src/bin/llamp.rs`):
//!
//! ```text
//! llamp run examples/campaign.toml --out results.json --cache cache.json
//! llamp list-workloads
//! llamp report results.json
//! ```
//!
//! ## Determinism contract
//!
//! A campaign's results JSON is a pure function of its canonical spec:
//! scenario entries are sorted by canonical key, floats use shortest
//! round-trip formatting, and no wall-clock data enters the file. Running
//! with 1 thread, N threads, a cold cache or a warm cache produces
//! byte-identical output (run statistics are reported separately via
//! [`campaign::RunSummary`]). This is what makes the cache safe: a cache
//! hit can only ever substitute a value that recomputation would have
//! reproduced exactly.
//!
//! ## Caching granularity
//!
//! Cache entries live at point level (`scenario-base × ∆L`) and zone
//! level (`scenario-base × search window`), not campaign level, so a new
//! campaign whose latency grid merely *overlaps* an earlier one reuses
//! every shared point and computes only the set difference. A scenario
//! whose pieces are all cached never builds its execution graph at all,
//! and scenarios whose graphs read the same inputs (a
//! [`GraphKey`]) share one build per campaign.

pub mod cache;
pub mod campaign;
pub mod executor;
mod graphs;
pub mod metrics;
pub mod scenario;
pub mod spec;
pub mod value;

pub use cache::{CacheStats, CachedEntry, ResultCache};
pub use campaign::{
    run_campaign, run_campaign_checked, CampaignError, CampaignResult, Provenance, RunSummary,
    ScenarioError, ScenarioResult,
};
pub use executor::{run_jobs, ExecutorConfig, JobStatus};
pub use metrics::{metrics_value, render_metrics};
pub use scenario::{
    expand, AxisPointResult, AxisPointValue, GraphKey, PointResult, Scenario, ScenarioOutcome,
    ZonesResult,
};
pub use spec::{
    parse_backend, AxisSpec, Backend, CampaignSpec, GridSpec, ParamsPreset, ParamsSpec, SpecError,
    SweepParam, TopologySpec, WorkloadSpec, LP_ALIASES,
};
pub use value::Value;

//! # LLAMP — LogGPS and Linear Programming based Analyzer for MPI Programs
//!
//! A from-scratch Rust reproduction of *"LLAMP: Assessing Network Latency
//! Tolerance of HPC Applications with Linear Programming"* (SC 2024).
//!
//! This facade crate re-exports the whole toolchain:
//!
//! | Crate | Role |
//! |---|---|
//! | [`lp`] | linear-programming substrate (one sparse triangular-or-LU simplex, started from the caller's basis, ranging, parametric envelopes) |
//! | [`model`] | LogGPS / LogGOPS / HLogGP network models |
//! | [`trace`] | MPI trace records, per-rank programs, liballprof-style text format |
//! | [`schedgen`] | trace → execution graph compiler with collective substitution |
//! | [`sim`] | LogGOPSim-equivalent discrete-event simulator + latency injector |
//! | [`topo`] | Fat Tree / Dragonfly topologies and wire-latency decomposition |
//! | [`core`] | the paper's contribution: graph→LP, λ_L, ρ_L, critical latencies, tolerance, placement |
//! | [`workloads`] | communication-skeleton proxies of the paper's applications |
//! | [`engine`] | scenario campaigns: declarative specs, work-stealing executor, result cache, the `llamp` CLI |
//!
//! See the `examples/` directory for end-to-end walkthroughs, starting with
//! `quickstart.rs`, and `examples/campaign.toml` for the campaign front
//! door (`llamp run examples/campaign.toml`). The campaign spec format is
//! fully documented in `docs/SPEC.md`.
//!
//! ## Quickstart
//!
//! The README quickstart as a library call. This block is a **doctest**
//! — `cargo test --doc` executes it, so the advertised scenario counts,
//! cache behaviour and byte-identity cannot rot:
//!
//! ```
//! use llamp::engine::{run_campaign, CampaignSpec, ExecutorConfig, ResultCache};
//!
//! // The bundled example campaign: 2 workloads × 2 topologies × 2
//! // backends over a 9-point latency grid.
//! let spec = CampaignSpec::parse(
//!     include_str!("../examples/campaign.toml"),
//!     "campaign.toml",
//! )
//! .unwrap();
//! assert_eq!(format!("{:016x}", spec.fingerprint()), "35aadf3bc39a926f");
//!
//! let cache = ResultCache::new();
//! let (first, s1) = run_campaign(&spec, &ExecutorConfig::default(), &cache);
//! assert_eq!(
//!     (s1.jobs_requested, s1.jobs_unique, s1.full_cache_hits, s1.jobs_executed),
//!     (8, 8, 0, 8),
//! );
//! // 9 grid points + 1 tolerance-zone triple per scenario.
//! assert_eq!((s1.cache_hits, s1.cache_misses), (0, 80));
//! // One graph per workload, shared by its topology × backend scenarios.
//! assert_eq!(s1.graph_builds, 2);
//!
//! // Same campaign against the warm cache: every scenario assembles from
//! // the store and the results JSON is byte-identical.
//! let (second, s2) = run_campaign(&spec, &ExecutorConfig::default(), &cache);
//! assert_eq!(s2.full_cache_hits, 8);
//! assert_eq!((s2.cache_misses, s2.jobs_executed, s2.graph_builds), (0, 0, 0));
//! assert_eq!(first.to_json(), second.to_json());
//! ```

pub use llamp_core as core;
pub use llamp_engine as engine;
pub use llamp_lp as lp;
pub use llamp_model as model;
pub use llamp_schedgen as schedgen;
pub use llamp_sim as sim;
pub use llamp_topo as topo;
pub use llamp_trace as trace;
pub use llamp_util as util;
pub use llamp_workloads as workloads;

//! Campaign orchestration: spec → scenario jobs → parallel execution with
//! caching → deterministic results.
//!
//! The runner expands a canonical [`CampaignSpec`] into its deduplicated,
//! sorted scenario list, probes the cache for *full hits* (every grid
//! point and the zones already present → the scenario is assembled without
//! building its graph), dispatches the rest onto the work-stealing
//! executor — each job computes only its cache-missing pieces, on a graph
//! built once per distinct [`GraphKey`](crate::scenario::GraphKey) and
//! shared by every scenario of the run that needs it — and
//! assembles a [`CampaignResult`] whose JSON form is byte-identical across
//! runs and thread counts: entries are ordered by canonical scenario key
//! and contain no wall-clock data (timings live in [`RunSummary`], which
//! is reported separately).

use crate::cache::{CachedEntry, ResultCache};
use crate::executor::{run_jobs, ExecutorConfig, JobStatus};
use crate::graphs::GraphSlots;
use crate::scenario::{
    expand, AxisPointResult, AxisPointValue, PointResult, Scenario, ScenarioOutcome, ZonesResult,
};
use crate::spec::CampaignSpec;
use crate::value::Value;
use llamp_core::{ReducedGraph, ReductionStats, SolveStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one scenario's answer was obtained (summary bookkeeping; never part
/// of the deterministic results file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Every piece came from the cache; the graph was never built.
    FullCacheHit,
    /// Computed (possibly with partial cache reuse).
    Computed,
    /// The job panicked.
    Panicked,
    /// The job exceeded the per-job timeout.
    TimedOut,
    /// The job reported an analysis error.
    Failed,
}

/// Why one scenario produced no outcome, typed by failure mode. The
/// rendered `Display` strings are byte-stable — they are what lands in
/// the deterministic results file's `error` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The job panicked (isolated by the executor's `catch_unwind`);
    /// payload is the rendered panic message.
    Panicked(String),
    /// The job exceeded the per-job timeout.
    TimedOut {
        /// How long the job actually ran.
        elapsed: Duration,
    },
    /// The analysis itself reported an error (bad workload, infeasible
    /// tolerance cap, solver failure past the fallback ladder, ...).
    Failed(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Panicked(msg) => write!(f, "panic: {msg}"),
            ScenarioError::TimedOut { elapsed } => {
                write!(f, "timed out after {:.3}s", elapsed.as_secs_f64())
            }
            ScenarioError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One scenario's slot in a campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario.
    pub scenario: Scenario,
    /// The outcome, or the typed failure.
    pub outcome: Result<ScenarioOutcome, ScenarioError>,
}

/// The deterministic product of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign name (from the spec).
    pub name: String,
    /// Content hash of the canonical spec.
    pub spec_fingerprint: u64,
    /// Per-scenario results, ordered by canonical scenario key.
    pub scenarios: Vec<ScenarioResult>,
}

/// Run statistics (reported alongside, never inside, the results file).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scenarios before deduplication.
    pub jobs_requested: usize,
    /// Scenarios after deduplication.
    pub jobs_unique: usize,
    /// Scenarios answered wholly from the cache (no graph build).
    pub full_cache_hits: usize,
    /// Scenarios dispatched to the executor.
    pub jobs_executed: usize,
    /// Execution graphs built (ingest, compile, reduce): one per
    /// distinct graph key among the executed scenarios that needed one.
    pub graph_builds: usize,
    /// Point/zone-level cache hits during the run.
    pub cache_hits: u64,
    /// Point/zone-level cache misses during the run.
    pub cache_misses: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-scenario provenance, aligned with the result's scenario order.
    pub provenance: Vec<Provenance>,
    /// Aggregate LP solver-effort counters across the scenarios that
    /// actually solved LPs this run (cache hits contribute nothing, so
    /// these — like the timings — live beside, never inside, the
    /// deterministic results file).
    pub solver: SolveStats,
    /// Aggregate graph-reduction counters, each graph built this run
    /// counted once however many scenarios shared it (full cache hits
    /// never build a graph, and `reduce = false` graphs contribute
    /// nothing). Cache-state dependent like the timings, so reported
    /// beside — never inside — the deterministic results file.
    pub reduction: ReductionStats,
}

impl RunSummary {
    /// Point/zone-level cache hit fraction in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Render a human-readable block.
    pub fn render(&self) -> String {
        format!(
            "scenarios: {} requested, {} unique, {} full cache hits, {} executed\n\
             graphs: {} built\n\
             cache: {} hits, {} misses ({:.1}% hit rate)\n\
             threads: {}, elapsed: {:.3}s",
            self.jobs_requested,
            self.jobs_unique,
            self.full_cache_hits,
            self.jobs_executed,
            self.graph_builds,
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate(),
            self.threads,
            self.elapsed.as_secs_f64()
        )
    }

    /// Render the aggregate LP solver counters (empty string when no LP
    /// ran this campaign).
    pub fn render_solver_stats(&self) -> String {
        if self.solver.iterations == 0 {
            String::new()
        } else {
            format!("lp solver totals\n{}", self.solver.render())
        }
    }

    /// Render the aggregate graph-reduction counters (empty string when
    /// every scenario was a full cache hit and no graph was built).
    pub fn render_reduction_stats(&self) -> String {
        if self.reduction.is_empty() {
            String::new()
        } else {
            format!("graph reduction totals\n{}", self.reduction.render())
        }
    }
}

/// Run a campaign against a (possibly pre-warmed) cache.
pub fn run_campaign(
    spec: &CampaignSpec,
    config: &ExecutorConfig,
    cache: &ResultCache,
) -> (CampaignResult, RunSummary) {
    let campaign_span = llamp_obs::span("campaign");
    let started = Instant::now();
    let hits_before = cache.stats().hits();
    let misses_before = cache.stats().misses();

    // The requested count reflects the caller's spec as written; the
    // unique count reflects the canonicalized (sorted + deduplicated)
    // sweep actually run.
    let jobs_requested =
        spec.workloads.len() * spec.topologies.len() * spec.params.len() * spec.backends.len();
    let mut canonical_spec = spec.clone();
    canonical_spec.canonicalize();
    let all = expand(&canonical_spec);
    let jobs_unique = all.len();

    // Split into full cache hits (assembled inline, counted as hits) and
    // jobs that need the executor.
    let mut slots: Vec<Option<(Result<ScenarioOutcome, ScenarioError>, Provenance)>> =
        vec![None; all.len()];
    let mut solver = SolveStats::default();
    let mut to_run: Vec<(usize, &Scenario)> = Vec::new();
    for (i, sc) in all.iter().enumerate() {
        match assemble_from_cache(sc, cache) {
            Some(outcome) => slots[i] = Some((Ok(outcome), Provenance::FullCacheHit)),
            None => to_run.push((i, sc)),
        }
    }
    let jobs_executed = to_run.len();
    let full_cache_hits = jobs_unique - jobs_executed;

    let threads = config.effective_threads().min(jobs_executed.max(1));
    // Threads left idle by the scenario fan-out are lent to each
    // scenario's own sweep loop (LP points start from their own crash
    // basis, so they shard across workers). A campaign with more scenarios than
    // threads keeps every scenario single-threaded, exactly as before.
    let point_threads = (config.effective_threads() / jobs_executed.max(1)).max(1);
    // One graph slot per distinct key among the dispatched scenarios:
    // the first job that needs a slot builds its graph, the others bind
    // their topology and parameters to it, and the last one to finish
    // frees it. A job that panics keeps its registration (the executor
    // may retry it); the slots go when the campaign returns. A timed-out
    // job does release, so its retry may find the graph gone and build
    // it again: the same graph, one more build.
    let (graphs, slot_of) = GraphSlots::register(to_run.iter().map(|(_, sc)| sc.graph_key()));
    let jobs: Vec<(&Scenario, usize)> = to_run.iter().map(|(_, sc)| *sc).zip(slot_of).collect();
    let statuses = run_jobs(config, jobs, |&(sc, slot)| {
        let out = run_one(sc, cache, point_threads, || graphs.get(slot));
        graphs.release(slot);
        out
    });
    let (graph_builds, reduction) = graphs.totals();
    for ((idx, _), status) in to_run.iter().zip(statuses) {
        slots[*idx] = Some(match status {
            JobStatus::Done(Ok((outcome, inserts, stats))) => {
                // Publish computed pieces only for jobs that finished
                // within budget: a timed-out or panicked job must leave
                // no trace, or a rerun would silently flip it from error
                // to full-cache-hit success.
                for (key, entry) in inserts {
                    cache.put(key, entry);
                }
                solver.merge(&stats);
                (Ok(outcome), Provenance::Computed)
            }
            JobStatus::Done(Err(msg)) => (Err(ScenarioError::Failed(msg)), Provenance::Failed),
            JobStatus::Panicked(msg) => (Err(ScenarioError::Panicked(msg)), Provenance::Panicked),
            JobStatus::TimedOut { elapsed } => (
                Err(ScenarioError::TimedOut { elapsed }),
                Provenance::TimedOut,
            ),
        });
    }

    let mut scenarios = Vec::with_capacity(all.len());
    let mut provenance = Vec::with_capacity(all.len());
    for (sc, slot) in all.into_iter().zip(slots) {
        let (outcome, prov) = slot.expect("every scenario resolved");
        scenarios.push(ScenarioResult {
            scenario: sc,
            outcome,
        });
        provenance.push(prov);
    }

    let result = CampaignResult {
        name: canonical_spec.name.clone(),
        spec_fingerprint: canonical_spec.fingerprint(),
        scenarios,
    };
    let summary = RunSummary {
        jobs_requested,
        jobs_unique,
        full_cache_hits,
        jobs_executed,
        graph_builds,
        cache_hits: cache.stats().hits() - hits_before,
        cache_misses: cache.stats().misses() - misses_before,
        threads,
        elapsed: started.elapsed(),
        provenance,
        solver,
        reduction,
    };
    if llamp_obs::is_enabled() {
        campaign_span.field_str("name", &result.name);
        campaign_span.field_u64("jobs_unique", jobs_unique as u64);
        campaign_span.field_u64("full_cache_hits", full_cache_hits as u64);
        campaign_span.field_u64("jobs_executed", jobs_executed as u64);
        campaign_span.field_u64("graph_builds", graph_builds as u64);
    }
    (result, summary)
}

/// A campaign that completed but exceeded its fault budget. This is a
/// *report*, not an abort: it carries the full partial [`CampaignResult`]
/// (failed scenarios hold their typed [`ScenarioError`]) and the
/// [`RunSummary`], so completed work is never discarded — callers write
/// the partial results file and surface the failure list.
#[derive(Debug)]
pub struct CampaignError {
    /// The partial result (every scenario present; failed ones as `Err`).
    pub result: CampaignResult,
    /// The run summary.
    pub summary: RunSummary,
    /// `(canonical scenario key, cause)` for every failed scenario, in
    /// result order.
    pub failures: Vec<(String, ScenarioError)>,
    /// The budget that was in force.
    pub fault_budget: usize,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} of {} scenario(s) failed (fault budget {}); partial results retained",
            self.failures.len(),
            self.result.scenarios.len(),
            self.fault_budget
        )?;
        for (key, cause) in &self.failures {
            writeln!(f, "  {key}: {cause}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CampaignError {}

/// Run a campaign under a fault budget: at most `fault_budget` failed
/// scenarios are tolerated (their slots stay as typed errors in the
/// result; the rest of the campaign is unaffected). One more and the
/// whole run comes back as a [`CampaignError`] — still carrying the
/// partial result, never discarding completed work. `fault_budget = 0`
/// is the strict mode: any failure fails the campaign.
pub fn run_campaign_checked(
    spec: &CampaignSpec,
    config: &ExecutorConfig,
    cache: &ResultCache,
    fault_budget: usize,
) -> Result<(CampaignResult, RunSummary), Box<CampaignError>> {
    let (result, summary) = run_campaign(spec, config, cache);
    let failures: Vec<(String, ScenarioError)> = result
        .scenarios
        .iter()
        .filter_map(|sr| {
            sr.outcome
                .as_ref()
                .err()
                .map(|e| (sr.scenario.base_canonical(), e.clone()))
        })
        .collect();
    if failures.len() > fault_budget {
        return Err(Box::new(CampaignError {
            result,
            summary,
            failures,
            fault_budget,
        }));
    }
    Ok((result, summary))
}

/// Probe (without counting) whether every piece of a scenario is cached;
/// if so, replay the lookups through the counting path and assemble.
fn assemble_from_cache(sc: &Scenario, cache: &ResultCache) -> Option<ScenarioOutcome> {
    let base = sc.base_canonical();
    let zk = sc.zones_key();
    let tuples = sc.axis_points();
    let keys: Vec<String> = tuples.iter().map(|t| sc.point_key(&base, t)).collect();
    if cache.peek(&zk).is_none() || keys.iter().any(|k| cache.peek(k).is_none()) {
        return None;
    }
    // Count the real lookups now that assembly is guaranteed.
    let zones = match cache.get(&zk)? {
        CachedEntry::Zones(z) => z,
        _ => return None,
    };
    let values = keys
        .iter()
        .map(|k| sc.cached_point(cache.get(k)?))
        .collect::<Option<Vec<_>>>()?;
    Some(sc.outcome(zones, tuples, values))
}

/// Execute one scenario: look up cached pieces, compute the rest. Newly
/// computed pieces are *returned* rather than inserted — the campaign
/// runner publishes them only when the job completes within its budget.
type ComputedInserts = Vec<(String, CachedEntry)>;

/// What a computed job hands back to the campaign runner.
type JobOutput = (ScenarioOutcome, ComputedInserts, SolveStats);

/// Sweep points are delta tuples (`[∆L]` on a latency grid), cached at
/// per-point granularity so overlapping grids recompute only their set
/// difference. `graph` yields the scenario's shared graph; it is called
/// only when a piece is missing from the cache.
fn run_one(
    sc: &Scenario,
    cache: &ResultCache,
    point_threads: usize,
    graph: impl FnOnce() -> Result<Arc<ReducedGraph>, String>,
) -> Result<JobOutput, String> {
    let span = llamp_obs::span("scenario");
    let base = sc.base_canonical();
    if llamp_obs::is_enabled() {
        span.field_str("key", &base);
    }
    let tuples = sc.axis_points();
    let keys: Vec<String> = tuples.iter().map(|t| sc.point_key(&base, t)).collect();
    let mut cached_points: Vec<Option<AxisPointValue>> = Vec::with_capacity(tuples.len());
    let mut missing: Vec<Vec<f64>> = Vec::new();
    for (t, key) in tuples.iter().zip(&keys) {
        let value = cache.get(key).and_then(|e| sc.cached_point(e));
        if value.is_none() {
            missing.push(t.clone());
        }
        cached_points.push(value);
    }
    let zk = sc.zones_key();
    let cached_zones = match cache.get(&zk) {
        Some(CachedEntry::Zones(z)) => Some(z),
        _ => None,
    };

    let (computed_points, computed_zones, stats): (
        Vec<AxisPointValue>,
        Option<ZonesResult>,
        SolveStats,
    ) = if missing.is_empty() && cached_zones.is_some() {
        (Vec::new(), None, SolveStats::default())
    } else {
        let analyzer = sc.analyzer_on(graph()?);
        sc.compute_with(&analyzer, &missing, cached_zones.is_none(), point_threads)?
    };

    // Merge computed points back into sweep order, collecting the inserts
    // for post-completion publication.
    let mut inserts: ComputedInserts = Vec::new();
    let mut computed_iter = computed_points.into_iter();
    let mut values = Vec::with_capacity(tuples.len());
    for ((slot, t), key) in cached_points.into_iter().zip(&tuples).zip(keys) {
        let value = match slot {
            Some(v) => v,
            None => {
                let v = computed_iter
                    .next()
                    .ok_or_else(|| "backend returned fewer points than requested".to_string())?;
                inserts.push((key, sc.point_entry(t, v)));
                v
            }
        };
        values.push(value);
    }
    let zones = match (cached_zones, computed_zones) {
        (Some(z), _) => z,
        (None, Some(z)) => {
            inserts.push((zk, CachedEntry::Zones(z)));
            z
        }
        (None, None) => return Err("backend returned no zones".to_string()),
    };
    Ok((sc.outcome(zones, tuples, values), inserts, stats))
}

impl CampaignResult {
    /// Serialize deterministically (see module docs).
    pub fn to_value(&self) -> Value {
        Value::Table(vec![
            ("name".into(), Value::Str(self.name.clone())),
            (
                "spec_fingerprint".into(),
                Value::Str(format!("{:016x}", self.spec_fingerprint)),
            ),
            (
                "scenarios".into(),
                Value::Array(
                    self.scenarios
                        .iter()
                        .map(|sr| {
                            let mut pairs = vec![
                                ("scenario".into(), sr.scenario.to_value()),
                                (
                                    "key".into(),
                                    Value::Str(format!("{:016x}", sr.scenario.fingerprint())),
                                ),
                            ];
                            match &sr.outcome {
                                Ok(outcome) => {
                                    pairs.push(("zones".into(), zones_to_value(&outcome.zones)));
                                    if sr.scenario.axes.is_empty() {
                                        pairs.push((
                                            "sweep".into(),
                                            Value::Array(
                                                outcome.sweep.iter().map(point_to_value).collect(),
                                            ),
                                        ));
                                    } else {
                                        pairs.push((
                                            "points".into(),
                                            Value::Array(
                                                outcome
                                                    .points
                                                    .iter()
                                                    .map(axis_point_to_value)
                                                    .collect(),
                                            ),
                                        ));
                                    }
                                }
                                Err(e) => {
                                    pairs.push(("error".into(), Value::Str(e.to_string())));
                                }
                            }
                            Value::Table(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The results file body (pretty JSON, trailing newline, byte-stable).
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Flat CSV: one row per sweep point. Axes campaigns widen the schema
    /// to per-parameter deltas, sensitivities and ratios (absent axes
    /// report a zero delta).
    pub fn to_csv(&self) -> String {
        let axes_mode = self.scenarios.iter().any(|sr| !sr.scenario.axes.is_empty());
        if axes_mode {
            let mut out = String::from(
                "workload,topology,params,backend,delta_l_ns,delta_g,delta_o_ns,\
                 runtime_ns,lambda_l,lambda_g,lambda_o,rho_l,rho_g,rho_o\n",
            );
            for sr in &self.scenarios {
                if let Ok(outcome) = &sr.outcome {
                    for p in &outcome.points {
                        let [dl, dg, d_o] = sr.scenario.param_deltas(&p.deltas);
                        let v = &p.value;
                        out.push_str(&format!(
                            "{},{},{},{},{dl:?},{dg:?},{d_o:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?}\n",
                            csv_field(&sr.scenario.workload.canonical()),
                            csv_field(&sr.scenario.topology.canonical()),
                            csv_field(&sr.scenario.params.canonical()),
                            sr.scenario.backend.name(),
                            v.runtime_ns,
                            v.lambda_l,
                            v.lambda_g,
                            v.lambda_o,
                            v.rho_l,
                            v.rho_g,
                            v.rho_o
                        ));
                    }
                }
            }
            return out;
        }
        let mut out =
            String::from("workload,topology,params,backend,delta_l_ns,runtime_ns,lambda,rho\n");
        for sr in &self.scenarios {
            if let Ok(outcome) = &sr.outcome {
                for p in &outcome.sweep {
                    out.push_str(&format!(
                        "{},{},{},{},{:?},{:?},{:?},{:?}\n",
                        csv_field(&sr.scenario.workload.canonical()),
                        csv_field(&sr.scenario.topology.canonical()),
                        csv_field(&sr.scenario.params.canonical()),
                        sr.scenario.backend.name(),
                        p.delta_l_ns,
                        p.runtime_ns,
                        p.lambda,
                        p.rho
                    ));
                }
            }
        }
        out
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn zones_to_value(z: &ZonesResult) -> Value {
    let inf = |x: f64| {
        if x.is_finite() {
            Value::Float(x)
        } else {
            Value::Null
        }
    };
    Value::Table(vec![
        (
            "baseline_runtime_ns".into(),
            Value::Float(z.baseline_runtime_ns),
        ),
        ("pct1_ns".into(), inf(z.pct1_ns)),
        ("pct2_ns".into(), inf(z.pct2_ns)),
        ("pct5_ns".into(), inf(z.pct5_ns)),
    ])
}

fn point_to_value(p: &PointResult) -> Value {
    Value::Table(vec![
        ("delta_l_ns".into(), Value::Float(p.delta_l_ns)),
        ("runtime_ns".into(), Value::Float(p.runtime_ns)),
        ("lambda".into(), Value::Float(p.lambda)),
        ("rho".into(), Value::Float(p.rho)),
    ])
}

fn axis_point_to_value(p: &AxisPointResult) -> Value {
    let v = &p.value;
    Value::Table(vec![
        (
            "deltas".into(),
            Value::Array(p.deltas.iter().map(|&d| Value::Float(d)).collect()),
        ),
        ("runtime_ns".into(), Value::Float(v.runtime_ns)),
        ("lambda_l".into(), Value::Float(v.lambda_l)),
        ("lambda_g".into(), Value::Float(v.lambda_g)),
        ("lambda_o".into(), Value::Float(v.lambda_o)),
        ("rho_l".into(), Value::Float(v.rho_l)),
        ("rho_g".into(), Value::Float(v.rho_g)),
        ("rho_o".into(), Value::Float(v.rho_o)),
    ])
}

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
    expand, fingerprint_of, AxisPointValue, Scenario, ScenarioOutcome, ZonesResult,
};
use crate::spec::CampaignSpec;
use crate::value::JsonWriter;
use llamp_core::{ReducedGraph, ReductionStats};
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

    /// Render a human-readable block: the `run` lines of
    /// [`crate::render_metrics`], from the same formatter.
    pub fn render(&self) -> String {
        crate::metrics::render_run(&crate::metrics::run_value(self))
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
            JobStatus::Done(Ok((outcome, inserts))) => {
                // Publish computed pieces only for jobs that finished
                // within budget: a timed-out or panicked job must leave
                // no trace, or a rerun would silently flip it from error
                // to full-cache-hit success.
                for (key, entry) in inserts {
                    cache.put(key, entry);
                }
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

/// Assemble a scenario from the cache when every piece is there, each
/// looked up once and counted as a hit only then; `None`, with nothing
/// counted, when any is missing.
fn assemble_from_cache(sc: &Scenario, cache: &ResultCache) -> Option<ScenarioOutcome> {
    let base = sc.base_canonical();
    let tuples = sc.axis_points();
    let keys: Vec<String> = tuples.iter().map(|t| sc.point_key(&base, t)).collect();
    let (zones, values) = cache.get_all(&sc.zones_key(&base), &keys, |e| sc.cached_point(e))?;
    Some(sc.outcome(zones, tuples, values))
}

/// Execute one scenario: look up cached pieces, compute the rest. Newly
/// computed pieces are *returned* rather than inserted — the campaign
/// runner publishes them only when the job completes within its budget.
type ComputedInserts = Vec<(String, CachedEntry)>;

/// What a computed job hands back to the campaign runner.
type JobOutput = (ScenarioOutcome, ComputedInserts);

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
        let value = cache.get(key).and_then(|e| sc.cached_point(&e));
        if value.is_none() {
            missing.push(t.clone());
        }
        cached_points.push(value);
    }
    let zk = sc.zones_key(&base);
    let cached_zones = match cache.get(&zk) {
        Some(CachedEntry::Zones(z)) => Some(z),
        _ => None,
    };

    let (computed_points, computed_zones): (Vec<AxisPointValue>, Option<ZonesResult>) =
        if missing.is_empty() && cached_zones.is_some() {
            (Vec::new(), None)
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
    Ok((sc.outcome(zones, tuples, values), inserts))
}

impl CampaignResult {
    /// The results file body (pretty JSON, trailing newline, byte-stable;
    /// see module docs), written straight from the result.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_table().key("name").str(&self.name);
        w.key("spec_fingerprint").hex(self.spec_fingerprint);
        w.key("scenarios").begin_array();
        // A campaign's scenarios share one sweep, so its fragment of each
        // scenario's key is formatted again only where a sweep differs
        // from the one before.
        let mut sweep: Option<(&Scenario, String)> = None;
        for sr in &self.scenarios {
            let sc = &sr.scenario;
            if !sweep.as_ref().is_some_and(|(prev, _)| prev.same_sweep(sc)) {
                sweep = Some((sc, sc.sweep_canonical()));
            }
            let (_, fragment) = sweep.as_ref().expect("formatted above");
            w.begin_table().key("scenario");
            sc.write_json(&mut w);
            w.key("key")
                .hex(fingerprint_of(&sc.base_canonical(), fragment));
            match &sr.outcome {
                Ok(outcome) => write_outcome(&mut w, sc, outcome),
                Err(e) => w.key("error").str(&e.to_string()),
            }
            w.end_table();
        }
        w.end_array();
        w.end_table();
        w.finish()
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

/// A scenario's answers: its zones (an infinite zone is `null`), then a
/// latency grid's `sweep` or an axes scenario's `points`.
fn write_outcome(w: &mut JsonWriter, sc: &Scenario, outcome: &ScenarioOutcome) {
    let z = &outcome.zones;
    w.key("zones").begin_table().floats(&[
        ("baseline_runtime_ns", z.baseline_runtime_ns),
        ("pct1_ns", z.pct1_ns),
        ("pct2_ns", z.pct2_ns),
        ("pct5_ns", z.pct5_ns),
    ]);
    w.end_table();
    if sc.axes.is_empty() {
        w.key("sweep").begin_array();
        for p in &outcome.sweep {
            w.begin_table().floats(&[
                ("delta_l_ns", p.delta_l_ns),
                ("runtime_ns", p.runtime_ns),
                ("lambda", p.lambda),
                ("rho", p.rho),
            ]);
            w.end_table();
        }
    } else {
        w.key("points").begin_array();
        for p in &outcome.points {
            w.begin_table().key("deltas").begin_array();
            for &d in &p.deltas {
                w.float(d);
            }
            w.end_array();
            let v = &p.value;
            w.floats(&[
                ("runtime_ns", v.runtime_ns),
                ("lambda_l", v.lambda_l),
                ("lambda_g", v.lambda_g),
                ("lambda_o", v.lambda_o),
                ("rho_l", v.rho_l),
                ("rho_g", v.rho_g),
                ("rho_o", v.rho_o),
            ]);
            w.end_table();
        }
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AxisPointResult, PointResult};
    use crate::spec::{
        AxisSpec, Backend, GridSpec, ParamsPreset, ParamsSpec, SweepParam, TopologySpec,
        WorkloadSpec,
    };
    use llamp_workloads::App;

    /// A results file covering every branch of its writer: a grid
    /// scenario with an infinite zone (`null`), an axes scenario whose
    /// points carry `deltas`, a failed scenario whose message needs
    /// escaping, and a campaign name outside ASCII.
    fn every_branch() -> CampaignResult {
        let grid = Scenario {
            workload: WorkloadSpec {
                app: App::Lulesh,
                ranks: 8,
                iters: 2,
                o_ns: None,
            },
            topology: TopologySpec::Uniform,
            params: ParamsSpec {
                preset: ParamsPreset::Cscs,
                l_ns: None,
                o_ns: None,
                s_bytes: None,
            },
            backend: Backend::Parametric,
            grid: GridSpec {
                deltas_ns: vec![0.0, 1250.5],
                search_hi_ns: 2e6,
            },
            axes: Vec::new(),
            reduce: true,
        };
        let axes = Scenario {
            workload: WorkloadSpec {
                app: App::Milc,
                ranks: 16,
                iters: 1,
                o_ns: Some(1500.0),
            },
            topology: TopologySpec::FatTree {
                k: 8,
                l_wire_ns: 274.0,
                d_switch_ns: 108.0,
            },
            params: ParamsSpec {
                preset: ParamsPreset::PizDaint,
                l_ns: Some(1000.0),
                o_ns: None,
                s_bytes: Some(65536),
            },
            backend: Backend::Lp,
            grid: GridSpec {
                deltas_ns: Vec::new(),
                search_hi_ns: 4e4,
            },
            axes: vec![
                AxisSpec {
                    param: SweepParam::L,
                    deltas: vec![0.0, 100.0],
                },
                AxisSpec {
                    param: SweepParam::G,
                    deltas: vec![0.5],
                },
            ],
            reduce: false,
        };
        let failed = Scenario {
            topology: TopologySpec::Dragonfly {
                groups: 9,
                routers: 4,
                hosts: 2,
                l_wire_ns: 274.0,
                d_switch_ns: 108.0,
            },
            backend: Backend::Eval,
            ..grid.clone()
        };
        let value = |t: f64| AxisPointValue {
            runtime_ns: 9.876e5 + t,
            lambda_l: 3.0,
            lambda_g: 1024.0,
            lambda_o: 12.0,
            rho_l: 0.1,
            rho_g: 1e-3,
            rho_o: 0.25,
        };
        CampaignResult {
            name: "hé ∆ 𝄞 campaign".into(),
            spec_fingerprint: 0x0123_4567_89ab_cdef,
            scenarios: vec![
                ScenarioResult {
                    scenario: grid,
                    outcome: Ok(ScenarioOutcome {
                        zones: ZonesResult {
                            baseline_runtime_ns: 123_456.789,
                            pct1_ns: 0.42,
                            pct2_ns: 1e-7,
                            pct5_ns: f64::INFINITY,
                        },
                        sweep: vec![
                            PointResult {
                                delta_l_ns: 0.0,
                                runtime_ns: 123_456.789,
                                lambda: 7.0,
                                rho: 0.070_934_1,
                            },
                            PointResult {
                                delta_l_ns: 1250.5,
                                runtime_ns: 132_210.289,
                                lambda: 7.0,
                                rho: 0.0,
                            },
                        ],
                        points: Vec::new(),
                    }),
                },
                ScenarioResult {
                    scenario: axes,
                    outcome: Ok(ScenarioOutcome {
                        zones: ZonesResult {
                            baseline_runtime_ns: 42.0,
                            pct1_ns: 1.0,
                            pct2_ns: 2.5,
                            pct5_ns: 1e300,
                        },
                        sweep: Vec::new(),
                        points: vec![
                            AxisPointResult {
                                deltas: vec![0.0, 0.5],
                                value: value(0.0),
                            },
                            AxisPointResult {
                                deltas: vec![100.0, 0.5],
                                value: value(100.0),
                            },
                        ],
                    }),
                },
                ScenarioResult {
                    scenario: failed,
                    outcome: Err(ScenarioError::Failed(
                        "bad \"quote\" \\ back\nslash \u{1} ctl".into(),
                    )),
                },
            ],
        }
    }

    /// The results file's bytes: what `llamp run --out` writes, so
    /// reports and byte comparisons across versions keep working.
    #[test]
    fn results_file_bytes_are_pinned() {
        let want = r#"{
  "name": "hé ∆ 𝄞 campaign",
  "spec_fingerprint": "0123456789abcdef",
  "scenarios": [
    {
      "scenario": {
        "workload": "lulesh,r8,i2,opaper",
        "topology": "uniform",
        "params": "cscs,l-,o-,s-",
        "backend": "parametric",
        "reduce": true
      },
      "key": "ce9a49c532a47554",
      "zones": {
        "baseline_runtime_ns": 123456.789,
        "pct1_ns": 0.42,
        "pct2_ns": 1e-7,
        "pct5_ns": null
      },
      "sweep": [
        {
          "delta_l_ns": 0.0,
          "runtime_ns": 123456.789,
          "lambda": 7.0,
          "rho": 0.0709341
        },
        {
          "delta_l_ns": 1250.5,
          "runtime_ns": 132210.289,
          "lambda": 7.0,
          "rho": 0.0
        }
      ]
    },
    {
      "scenario": {
        "workload": "milc,r16,i1,o1500.0",
        "topology": "fattree,k8,w274.0,d108.0",
        "params": "piz-daint,l1000.0,o-,rndv65536",
        "backend": "lp",
        "reduce": false,
        "axes": [
          "L",
          "G"
        ]
      },
      "key": "15793403759d9bce",
      "zones": {
        "baseline_runtime_ns": 42.0,
        "pct1_ns": 1.0,
        "pct2_ns": 2.5,
        "pct5_ns": 1e300
      },
      "points": [
        {
          "deltas": [
            0.0,
            0.5
          ],
          "runtime_ns": 987600.0,
          "lambda_l": 3.0,
          "lambda_g": 1024.0,
          "lambda_o": 12.0,
          "rho_l": 0.1,
          "rho_g": 0.001,
          "rho_o": 0.25
        },
        {
          "deltas": [
            100.0,
            0.5
          ],
          "runtime_ns": 987700.0,
          "lambda_l": 3.0,
          "lambda_g": 1024.0,
          "lambda_o": 12.0,
          "rho_l": 0.1,
          "rho_g": 0.001,
          "rho_o": 0.25
        }
      ]
    },
    {
      "scenario": {
        "workload": "lulesh,r8,i2,opaper",
        "topology": "dragonfly,g9,a4,p2,w274.0,d108.0",
        "params": "cscs,l-,o-,s-",
        "backend": "eval",
        "reduce": true
      },
      "key": "ff86b0aba9f8c568",
      "error": "bad \"quote\" \\ back\nslash \u0001 ctl"
    }
  ]
}
"#;
        assert_eq!(every_branch().to_json(), want, "results file bytes moved");
    }
}

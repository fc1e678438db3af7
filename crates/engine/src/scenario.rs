//! A [`Scenario`] is one cell of a campaign's cartesian product: one
//! workload on one topology under one parameter set, answered by one
//! backend over the campaign's sweep: a latency grid, which is one `L`
//! axis, or `L`/`G`/`o` axes. Scenarios are the engine's unit of
//! scheduling, caching and reporting.

use crate::cache::{
    axis_point_key, point_key, zones_key, zones_key_multi, CachedEntry, EVAL_ZONE_TAG, LP_TAG,
    LP_ZONE_TAG,
};
use crate::executor::{run_jobs, ExecutorConfig};
use crate::spec::{
    fnv1a, fnv1a_continue, sort_dedup_by_key, sweep_canonical, AxisSpec, Backend, CampaignSpec,
    GridSpec, ParamsPreset, ParamsSpec, TopologySpec, WorkloadSpec,
};
use crate::value::JsonWriter;
use llamp_core::{
    Analyzer, Binding, GraphLp, ParamPoint, ReduceConfig, ReducedGraph, SolveError, SweepParam,
};
use llamp_model::LogGPSParams;
use llamp_schedgen::{graph_of_programs, reduced_graph_of_programs, GraphConfig};
use llamp_topo::{Dragonfly, FatTree};
use llamp_workloads::App;
use std::sync::Arc;

/// One job: the atomic unit of campaign execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload under analysis.
    pub workload: WorkloadSpec,
    /// Network topology (or uniform latency).
    pub topology: TopologySpec,
    /// LogGPS parameter set.
    pub params: ParamsSpec,
    /// Backend answering the questions.
    pub backend: Backend,
    /// Latency grid (added latency above the scenario's base value).
    /// `grid.deltas_ns` is empty when `axes` is non-empty.
    pub grid: GridSpec,
    /// Multi-parameter sweep axes (empty for classic latency grids).
    pub axes: Vec<AxisSpec>,
    /// Whether the graph reduction pipeline runs before lowering. Part
    /// of the base canonical key: reduced and unreduced answers agree
    /// only to numerical tolerance and must never share cache entries.
    pub reduce: bool,
}

/// Everything a scenario's graph build reads, and nothing else: the
/// application skeleton at its scale, the rendezvous threshold it is
/// compiled at, and whether the reduction pipeline runs. Topology,
/// latency, overhead and backend are absent on purpose: costs stay
/// symbolic in `L`, `G` and `o` until a binding applies them, so every
/// scenario with an equal key can analyse one shared build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphKey {
    /// Application skeleton.
    pub app: App,
    /// MPI rank count.
    pub ranks: u32,
    /// Outer iterations of the proxy's main loop.
    pub iters: u32,
    /// Rendezvous threshold `S` (bytes) the graph is compiled at;
    /// `u64::MAX` keeps every message eager.
    pub rndv_threshold: u64,
    /// Whether the reduction pipeline runs.
    pub reduce: bool,
}

impl GraphKey {
    /// Canonical form (`lulesh,r8,i2,rndv262144|r1`), as reported on the
    /// `scenario.build` span.
    pub fn canonical(&self) -> String {
        let rndv = match self.rndv_threshold {
            u64::MAX => "eager".to_string(),
            s => format!("rndv{s}"),
        };
        format!(
            "{},r{},i{},{rndv}|r{}",
            self.app.name().to_ascii_lowercase(),
            self.ranks,
            self.iters,
            u8::from(self.reduce)
        )
    }

    /// Build the graph: replay the application's trace, compile it at the
    /// rendezvous threshold and run the reduction pipeline when `reduce`
    /// is on — straight from the builder's arrays, with no CSR of the raw
    /// graph. The build reads nothing but the key, so equal keys give the
    /// same graph. `scenarios` (how many scenarios share this build) is
    /// recorded on the span only.
    pub fn build(&self, scenarios: usize) -> Result<ReducedGraph, String> {
        let g = llamp_obs::span("scenario.build");
        if llamp_obs::is_enabled() {
            g.field_str("graph", &self.canonical());
            g.field_u64("scenarios", scenarios as u64);
        }
        let set = self.app.programs(self.ranks, self.iters as usize);
        let cfg = GraphConfig {
            rndv_threshold: self.rndv_threshold,
            ..GraphConfig::paper()
        };
        let built = if self.reduce {
            reduced_graph_of_programs(&set, &cfg, &ReduceConfig::default())
        } else {
            graph_of_programs(&set, &cfg).map(ReducedGraph::identity)
        };
        built.map_err(|e| format!("graph build failed: {e}"))
    }
}

/// One sweep sample of a scenario result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Added latency `∆L` above the base value (ns).
    pub delta_l_ns: f64,
    /// Predicted runtime (ns).
    pub runtime_ns: f64,
    /// Latency sensitivity `λ_L`.
    pub lambda: f64,
    /// Latency ratio `ρ_L`.
    pub rho: f64,
}

/// The answer at one sweep point, independent of which axes layout
/// produced it (this is the cached record of axes campaigns: campaigns
/// whose axes merely *overlap* in absolute `(∆L, ∆G, ∆o)` offsets share
/// these regardless of their axis ordering or dimensionality). A latency
/// grid is one `L` axis answered by the one-column LP or the latency
/// evaluators: its answers report `L` alone, leave the `G` and `o` fields
/// zero, and are cached and written out through their [`PointResult`]
/// view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisPointValue {
    /// Predicted runtime (ns).
    pub runtime_ns: f64,
    /// Latency sensitivity `λ_L = ∂T/∂L`.
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G = ∂T/∂G`.
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o = ∂T/∂o`.
    pub lambda_o: f64,
    /// Latency ratio `ρ_L = λ_L·L/T` at the point.
    pub rho_l: f64,
    /// Bandwidth ratio `ρ_G = λ_G·G/T` at the point.
    pub rho_g: f64,
    /// Overhead ratio `ρ_o = λ_o·o/T` at the point.
    pub rho_o: f64,
}

impl AxisPointValue {
    /// The answer at `at` from its runtime and the sensitivities
    /// `[λ_L, λ_G, λ_o]`; each ratio `ρ_X = λ_X·X/T` is zero when
    /// `T ≤ 0`.
    pub fn new(at: ParamPoint, runtime: f64, lambda: [f64; 3]) -> Self {
        let rho = |lambda: f64, x: f64| {
            if runtime <= 0.0 {
                0.0
            } else {
                lambda * x / runtime
            }
        };
        Self {
            runtime_ns: runtime,
            lambda_l: lambda[0],
            lambda_g: lambda[1],
            lambda_o: lambda[2],
            rho_l: rho(lambda[0], at.l),
            rho_g: rho(lambda[1], at.g),
            rho_o: rho(lambda[2], at.o),
        }
    }

    /// A latency grid's view of the answer at `∆L = delta_l_ns`.
    pub fn grid_point(&self, delta_l_ns: f64) -> PointResult {
        PointResult {
            delta_l_ns,
            runtime_ns: self.runtime_ns,
            lambda: self.lambda_l,
            rho: self.rho_l,
        }
    }
}

impl From<PointResult> for AxisPointValue {
    /// The one-axis answer a grid point views (`G` and `o` fields zero).
    fn from(p: PointResult) -> Self {
        Self {
            runtime_ns: p.runtime_ns,
            lambda_l: p.lambda,
            lambda_g: 0.0,
            lambda_o: 0.0,
            rho_l: p.rho,
            rho_g: 0.0,
            rho_o: 0.0,
        }
    }
}

/// One sample of a multi-parameter sweep: the axis-aligned delta tuple
/// (in the scenario's axes order) plus the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPointResult {
    /// Per-axis deltas above the scenario's base values, aligned with
    /// [`Scenario::axes`].
    pub deltas: Vec<f64>,
    /// The answer at the point.
    pub value: AxisPointValue,
}

/// The 1/2/5% tolerance zones plus the baseline they are relative to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZonesResult {
    /// Runtime at the base latency (ns).
    pub baseline_runtime_ns: f64,
    /// Max added latency before >1% slowdown (ns; infinite = never within
    /// the search window).
    pub pct1_ns: f64,
    /// Max added latency before >2% slowdown (ns).
    pub pct2_ns: f64,
    /// Max added latency before >5% slowdown (ns).
    pub pct5_ns: f64,
}

/// A fully answered scenario. Exactly one of `sweep` (latency-grid
/// campaigns) and `points` (multi-parameter axes campaigns) is populated.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Tolerance zones (always latency-based, at the base values of the
    /// other parameters).
    pub zones: ZonesResult,
    /// Sweep samples, in grid order (latency-grid campaigns).
    pub sweep: Vec<PointResult>,
    /// Multi-parameter samples, in cartesian-product order with the last
    /// axis varying fastest (axes campaigns).
    pub points: Vec<AxisPointResult>,
}

impl Scenario {
    /// Canonical identity of the full job (cache key for whole-scenario
    /// lookups; sweep included): the [base key](Scenario::base_canonical),
    /// `|`, the [sweep fragment](crate::spec::sweep_canonical).
    pub fn canonical(&self) -> String {
        canonical_pieces(&self.base_canonical(), &self.sweep_canonical()).concat()
    }

    /// Canonical fragment of the scenario's sweep
    /// ([`sweep_canonical`](crate::spec::sweep_canonical)), shared by every
    /// scenario of a campaign.
    pub(crate) fn sweep_canonical(&self) -> String {
        sweep_canonical(&self.grid, &self.axes)
    }

    /// Whether `other` sweeps the same samples, bit for bit, and so has
    /// the same [sweep fragment](Scenario::sweep_canonical).
    pub(crate) fn same_sweep(&self, other: &Scenario) -> bool {
        let bits = |xs: &[f64], ys: &[f64]| {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.grid.search_hi_ns.to_bits() == other.grid.search_hi_ns.to_bits()
            && bits(&self.grid.deltas_ns, &other.grid.deltas_ns)
            && self.axes.len() == other.axes.len()
            && (self.axes.iter().zip(&other.axes))
                .all(|(a, b)| a.param == b.param && bits(&a.deltas, &b.deltas))
    }

    /// The sweep's delta tuples in result order: a latency grid is one
    /// `L` axis, so its tuples are `[∆L]`; an axes scenario's are the
    /// cartesian product of its axis delta lists, first axis outermost
    /// and last axis varying fastest. Every point is solved on its own,
    /// so the order is the results' only.
    pub fn axis_points(&self) -> Vec<Vec<f64>> {
        let lists: Vec<&[f64]> = if self.axes.is_empty() {
            vec![&self.grid.deltas_ns]
        } else {
            self.axes.iter().map(|a| &a.deltas[..]).collect()
        };
        let total: usize = lists.iter().map(|l| l.len()).product();
        let mut out = Vec::with_capacity(total);
        if total == 0 {
            return out;
        }
        let mut idx = vec![0usize; lists.len()];
        loop {
            out.push(idx.iter().zip(&lists).map(|(&i, l)| l[i]).collect());
            // Odometer increment, last axis fastest.
            let mut k = lists.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < lists[k].len() {
                    break;
                }
                idx[k] = 0;
            }
        }
    }

    /// Map a delta tuple of [`Scenario::axis_points`] onto the absolute
    /// per-parameter deltas `(∆L, ∆G, ∆o)` — the layout-independent
    /// identity of a sweep point (missing axes contribute zero).
    pub fn param_deltas(&self, deltas: &[f64]) -> [f64; 3] {
        let grid = self.axes.is_empty().then_some(SweepParam::L);
        let params = grid.into_iter().chain(self.axes.iter().map(|a| a.param));
        let mut out = [0.0; 3];
        for (p, &d) in params.zip(deltas) {
            out[p as usize] = d;
        }
        out
    }

    /// Canonical identity *excluding* the grid: the key space for
    /// per-point cache entries, so campaigns with overlapping grids share
    /// solved points. The reduction state is part of the key (`r1`/`r0`),
    /// so reduced and unreduced points never collide — and every key
    /// differs from the pre-reduction engine's, invalidating stale
    /// caches wholesale rather than silently reusing them.
    pub fn base_canonical(&self) -> String {
        format!(
            "{}|{}|{}|{}|r{}",
            self.workload.canonical(),
            self.topology.canonical(),
            self.params.canonical(),
            self.backend.name(),
            u8::from(self.reduce)
        )
    }

    /// Suffix tag of the scenario's point entries: [`LP_TAG`] for the LP
    /// backend, empty otherwise.
    pub fn key_tag(&self) -> &'static str {
        if self.backend == Backend::Lp {
            LP_TAG
        } else {
            ""
        }
    }

    /// Suffix tag of the scenario's zones entry: [`LP_ZONE_TAG`] for the
    /// LP backend, [`EVAL_ZONE_TAG`] for eval, empty for the envelope.
    fn zone_tag(&self) -> &'static str {
        match self.backend {
            Backend::Lp => LP_ZONE_TAG,
            Backend::Eval => EVAL_ZONE_TAG,
            Backend::Parametric => "",
        }
    }

    /// Cache key of the point at delta tuple `t` of a scenario whose
    /// [`Scenario::base_canonical`] is `base`: `pt` keyed by `∆L` for
    /// latency-grid campaigns, `apt` keyed by the absolute `(∆L, ∆G, ∆o)`
    /// offsets for axes campaigns, LP entries tagged with [`LP_TAG`].
    pub fn point_key(&self, base: &str, t: &[f64]) -> String {
        if self.axes.is_empty() {
            point_key(base, t[0], self.key_tag())
        } else {
            axis_point_key(base, self.param_deltas(t), self.key_tag())
        }
    }

    /// The cache entry of a computed point at delta tuple `t`: a latency
    /// grid stores the [`PointResult`] view of its answer.
    pub(crate) fn point_entry(&self, t: &[f64], v: AxisPointValue) -> CachedEntry {
        if self.axes.is_empty() {
            CachedEntry::Point(v.grid_point(t[0]))
        } else {
            CachedEntry::AxisPoint(v)
        }
    }

    /// The answer a cached entry holds, when it is the scenario's point
    /// kind: a [`CachedEntry::Point`] for a latency grid, a
    /// [`CachedEntry::AxisPoint`] for axes.
    pub(crate) fn cached_point(&self, entry: &CachedEntry) -> Option<AxisPointValue> {
        match (self.axes.is_empty(), entry) {
            (true, CachedEntry::Point(p)) => Some((*p).into()),
            (false, CachedEntry::AxisPoint(v)) => Some(*v),
            _ => None,
        }
    }

    /// Cache key of the zones entry of a scenario whose
    /// [`Scenario::base_canonical`] is `base`: `zones` for latency-grid
    /// campaigns, `mzones` for axes campaigns, LP entries tagged with
    /// [`LP_ZONE_TAG`] and eval entries with [`EVAL_ZONE_TAG`].
    pub fn zones_key(&self, base: &str) -> String {
        let hi = self.grid.search_hi_ns;
        let tag = self.zone_tag();
        if self.axes.is_empty() {
            zones_key(base, hi, tag)
        } else {
            zones_key_multi(base, hi, tag)
        }
    }

    /// Content hash of [`Scenario::canonical`].
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.base_canonical(), &self.sweep_canonical())
    }

    /// Effective LogGPS parameters: preset → workload `o` default →
    /// explicit overrides.
    pub fn effective_params(&self) -> LogGPSParams {
        let mut p = match self.params.preset {
            ParamsPreset::Cscs => LogGPSParams::cscs_testbed(self.workload.ranks),
            ParamsPreset::PizDaint => LogGPSParams::piz_daint(self.workload.ranks),
            ParamsPreset::Didactic => {
                let mut d = LogGPSParams::didactic();
                d.p = self.workload.ranks;
                d
            }
        };
        p.o = self
            .params
            .o_ns
            .or(self.workload.o_ns)
            .unwrap_or_else(|| self.workload.app.paper_o());
        if let Some(l) = self.params.l_ns {
            p.l = l;
        }
        if let Some(s) = self.params.s_bytes {
            p.s = s;
        }
        p
    }

    /// The key of the graph this scenario analyses: its workload's
    /// application, ranks and iterations, the rendezvous threshold of
    /// its [effective parameters](Scenario::effective_params), and
    /// whether reduction runs.
    pub fn graph_key(&self) -> GraphKey {
        GraphKey {
            app: self.workload.app,
            ranks: self.workload.ranks,
            iters: self.workload.iters,
            rndv_threshold: self.effective_params().s,
            reduce: self.reduce,
        }
    }

    /// Bind this scenario's topology and LogGPS parameters to a graph
    /// built from its [`Scenario::graph_key`].
    pub fn analyzer_on(&self, graph: Arc<ReducedGraph>) -> Analyzer {
        let params = self.effective_params();
        let placement: Vec<u32> = (0..self.workload.ranks).collect();
        match &self.topology {
            TopologySpec::Uniform => {
                Analyzer::from_reduced(graph, Binding::uniform(&params), params.l)
            }
            TopologySpec::FatTree {
                k,
                l_wire_ns,
                d_switch_ns,
            } => Analyzer::from_reduced(
                graph,
                Binding::wire(&params, &FatTree::new(*k), &placement, *d_switch_ns),
                *l_wire_ns,
            ),
            TopologySpec::Dragonfly {
                groups,
                routers,
                hosts,
                l_wire_ns,
                d_switch_ns,
            } => Analyzer::from_reduced(
                graph,
                Binding::wire(
                    &params,
                    &Dragonfly::new(*groups, *routers, *hosts),
                    &placement,
                    *d_switch_ns,
                ),
                *l_wire_ns,
            ),
        }
    }

    /// Build the analyzer on a graph of its own: [`GraphKey::build`],
    /// then [`Scenario::analyzer_on`]. A campaign builds each distinct
    /// key once and binds every sharer to it instead; this is the
    /// unshared path, which answers the same bits.
    pub fn build_analyzer(&self) -> Result<Analyzer, String> {
        let graph = self.graph_key().build(1)?;
        Ok(self.analyzer_on(Arc::new(graph)))
    }

    /// Answer the whole scenario — every sweep point and the zones — on
    /// one thread: what a campaign assembles from the cache and
    /// [`Scenario::compute_with`], computed from scratch.
    pub fn compute(&self, analyzer: &Analyzer) -> Result<ScenarioOutcome, String> {
        let tuples = self.axis_points();
        let (values, zones) = self.compute_with(analyzer, &tuples, true, 1)?;
        let zones = zones.ok_or("backend returned no zones")?;
        Ok(self.outcome(zones, tuples, values))
    }

    /// Assemble an outcome from the zones and the answers at `tuples`: a
    /// latency grid's `sweep` of [`PointResult`] views, or an axes
    /// scenario's `points`.
    pub(crate) fn outcome(
        &self,
        zones: ZonesResult,
        tuples: Vec<Vec<f64>>,
        values: Vec<AxisPointValue>,
    ) -> ScenarioOutcome {
        let (mut sweep, mut points) = (Vec::new(), Vec::new());
        if self.axes.is_empty() {
            sweep = tuples
                .iter()
                .zip(values)
                .map(|(t, v)| v.grid_point(t[0]))
                .collect();
        } else {
            points = tuples
                .into_iter()
                .zip(values)
                .map(|(deltas, value)| AxisPointResult { deltas, value })
                .collect();
        }
        ScenarioOutcome {
            zones,
            sweep,
            points,
        }
    }

    /// Answer the scenario's missing pieces with its backend.
    ///
    /// `need` holds delta tuples of [`Scenario::axis_points`] — `[∆L]`
    /// on a latency grid — and selects which points to compute (the
    /// campaign runner passes only cache misses); `need_zones` likewise.
    /// Returned values follow `need`'s order. The third element reports
    /// the LP solver's effort counters (zeroed for the non-LP backends);
    /// being wall-clock-free but cache-dependent, they belong in
    /// [`crate::RunSummary`], never in the deterministic results file.
    ///
    /// The two sweep shapes differ only in what they report: a grid asks
    /// for `T` and `λ_L` (the one-column LP, [`Analyzer::evaluate`], and
    /// for the envelope its exact `T(L)` profile), axes for the full
    /// gradient (the three-column LP, [`Analyzer::evaluate_multi`]).
    /// Every LP point starts from its own longest-path crash basis at its
    /// `(L, G, o)` point — one factorisation, zero pivots, and an answer
    /// that is a pure function of (scenario, point), independent of which
    /// other points were cache misses, of thread count and of order — so
    /// `point_threads > 1` shards the points across the work-stealing
    /// executor with one solver per chunk and merges them in input order.
    /// The latency zones (`G` and `o` at base) walk from the baseline
    /// `T₀` at the base point; a needed point at the base itself is that
    /// baseline's query, so it takes the baseline's answer and runs no
    /// second solve.
    pub fn compute_with(
        &self,
        analyzer: &Analyzer,
        need: &[Vec<f64>],
        need_zones: bool,
        point_threads: usize,
    ) -> Result<(Vec<AxisPointValue>, Option<ZonesResult>), String> {
        let grid = self.axes.is_empty();
        let base = analyzer.base_point();
        let hi = base.l + self.grid.search_hi_ns;
        let at = |t: &[f64]| {
            let [dl, dg, d_o] = self.param_deltas(t);
            ParamPoint {
                l: base.l + dl,
                g: base.g + dg,
                o: base.o + d_o,
            }
        };
        // `(T, [λ_L, λ_G, λ_o])` at each needed point.
        let (answers, zones): (Vec<(f64, [f64; 3])>, _) = match self.backend {
            Backend::Parametric | Backend::Eval => {
                let answers = if grid && self.backend == Backend::Parametric {
                    // The envelope reads a grid off its exact `T(L)` profile.
                    let deltas: Vec<f64> = need.iter().map(|t| t[0]).collect();
                    let sweep = analyzer.sweep(&deltas).into_iter();
                    sweep.map(|p| (p.runtime, [p.lambda, 0.0, 0.0])).collect()
                } else {
                    let answer = |p: ParamPoint| {
                        if grid {
                            let e = analyzer.evaluate(p.l);
                            (e.runtime, [e.lambda, 0.0, 0.0])
                        } else {
                            let e = analyzer.evaluate_multi(p);
                            (e.runtime, [e.lambda_l, e.lambda_g, e.lambda_o])
                        }
                    };
                    need.iter()
                        .map(|t| {
                            let p = at(t);
                            llamp_obs::time("eval.point_ns", || answer(p))
                        })
                        .collect()
                };
                let zones = need_zones
                    .then(|| self.envelope_or_eval_zones(analyzer, hi))
                    .transpose()?;
                (answers, zones)
            }
            Backend::Lp => {
                let new_lp = || {
                    if grid {
                        analyzer.lp()
                    } else {
                        analyzer.lp_axes()
                    }
                };
                let mut lp = new_lp();
                // The zones' baseline is the crash-started point at the
                // base, a pure function of the scenario like every point;
                // each zone walk starts from it.
                let baseline = need_zones
                    .then(|| lp.predict_at(base))
                    .transpose()
                    .map_err(|e| format!("LP baseline solve failed: {e:?}"))?;
                let floor = baseline.map(|p| (p.runtime, p.lambda_l));
                // A point at the base is the baseline's query, so it takes
                // the baseline's answer instead of a second solve.
                let solve_points = |lp: &mut GraphLp, tuples: &[Vec<f64>]| {
                    let mut answers = Vec::with_capacity(tuples.len());
                    for t in tuples {
                        let p = match baseline {
                            Some(b) if at(t) == base => b,
                            _ => llamp_obs::time("lp.point_ns", || lp.predict_at(at(t)))
                                .map_err(|e| format!("LP solve failed at {t:?}: {e:?}"))?,
                        };
                        answers.push((p.runtime, [p.lambda_l, p.lambda_g, p.lambda_o]));
                    }
                    Ok::<_, String>(answers)
                };
                let threads = point_threads.clamp(1, need.len().max(1));
                let answers = if threads <= 1 {
                    solve_points(&mut lp, need)?
                } else {
                    // Shard into contiguous chunks, one solver per chunk,
                    // and merge in input order.
                    let chunks: Vec<&[Vec<f64>]> =
                        need.chunks(need.len().div_ceil(threads)).collect();
                    let cfg = ExecutorConfig {
                        threads,
                        job_timeout: None,
                        max_retries: 0,
                    };
                    let outs = run_jobs(&cfg, chunks, |chunk: &&[Vec<f64>]| {
                        solve_points(&mut new_lp(), chunk)
                    });
                    let mut answers = Vec::with_capacity(need.len());
                    for status in outs {
                        let chunk = status
                            .ok()
                            .ok_or_else(|| "sweep point worker failed".to_string())??;
                        answers.extend(chunk);
                    }
                    answers
                };
                // Each zone is a Newton walk along `L` over crash-started
                // points (see `GraphLp::tolerance`): a pure function of
                // (scenario, cap), like the baseline and every point.
                let zones = floor
                    .map(|floor| {
                        zones_from(self.backend, floor.0, |cap| {
                            llamp_obs::time("lp.zone_ns", || {
                                lp.tolerance_along(SweepParam::L, base, floor, hi, cap)
                            })
                            .map(|l| l - base.l)
                        })
                    })
                    .transpose()?;
                (answers, zones)
            }
        };
        let values = need
            .iter()
            .zip(answers)
            .map(|(t, (runtime, lambda))| AxisPointValue::new(at(t), runtime, lambda))
            .collect();
        Ok((values, zones))
    }

    /// The latency zones of the two LP-free backends, the same on grid
    /// and axes scenarios (`G` and `o` at base): the envelope inverts its
    /// exact `T(L)` profile; eval walks from its baseline `T₀ = T(base)`
    /// over direct evaluations (see [`Analyzer::eval_tolerance`]).
    fn envelope_or_eval_zones(&self, analyzer: &Analyzer, hi: f64) -> Result<ZonesResult, String> {
        if self.backend == Backend::Parametric {
            let z = analyzer.tolerance_zones(hi);
            return Ok(ZonesResult {
                baseline_runtime_ns: z.baseline_runtime,
                pct1_ns: z.pct1,
                pct2_ns: z.pct2,
                pct5_ns: z.pct5,
            });
        }
        let base = analyzer.base_l();
        let t0 = analyzer.evaluate(base);
        let floor = (t0.runtime, t0.lambda);
        zones_from(self.backend, t0.runtime, |cap| {
            llamp_obs::time("eval.zone_ns", || {
                analyzer.eval_tolerance(base, floor, hi, cap)
            })
            .map(|l| l - base)
        })
    }

    /// Write the scenario's identity into a results file: its canonical
    /// fragments, backend, reduction state and axes.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_table()
            .key("workload")
            .str(&self.workload.canonical());
        w.key("topology").str(&self.topology.canonical());
        w.key("params").str(&self.params.canonical());
        w.key("backend").str(self.backend.name());
        w.key("reduce").bool(self.reduce);
        if !self.axes.is_empty() {
            w.key("axes").begin_array();
            for a in &self.axes {
                w.str(a.param.name());
            }
            w.end_array();
        }
        w.end_table();
    }
}

/// The pieces [`Scenario::canonical`] joins: the base key, `|`, the sweep
/// fragment.
fn canonical_pieces<'a>(base: &'a str, sweep: &'a str) -> [&'a str; 3] {
    [base, "|", sweep]
}

/// [`Scenario::fingerprint`] of a scenario with base key `base` and sweep
/// fragment `sweep`, hashed piece by piece: the hash of the joined
/// [`Scenario::canonical`] string, which is never built.
pub(crate) fn fingerprint_of(base: &str, sweep: &str) -> u64 {
    canonical_pieces(base, sweep)
        .iter()
        .fold(fnv1a(b""), |h, piece| fnv1a_continue(h, piece.as_bytes()))
}

/// The 1/2/5% zones above baseline `t0`, with `zone(cap)` answering the
/// added latency that keeps the runtime within `cap`. A failure names the
/// backend and the zone.
fn zones_from(
    backend: Backend,
    t0: f64,
    mut zone: impl FnMut(f64) -> Result<f64, SolveError>,
) -> Result<ZonesResult, String> {
    let mut pct = |p: f64| {
        zone(t0 * (1.0 + p / 100.0))
            .map_err(|e| format!("{} tolerance zone failed at {p}%: {e:?}", backend.name()))
    };
    Ok(ZonesResult {
        baseline_runtime_ns: t0,
        pct1_ns: pct(1.0)?,
        pct2_ns: pct(2.0)?,
        pct5_ns: pct(5.0)?,
    })
}

/// Expand a canonical spec into its scenario set, sorted by canonical key
/// and deduplicated — the deterministic job list of a campaign.
pub fn expand(spec: &CampaignSpec) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(
        spec.workloads.len() * spec.topologies.len() * spec.params.len() * spec.backends.len(),
    );
    for w in &spec.workloads {
        for t in &spec.topologies {
            for p in &spec.params {
                for b in &spec.backends {
                    out.push(Scenario {
                        workload: w.clone(),
                        topology: t.clone(),
                        params: p.clone(),
                        backend: *b,
                        grid: spec.grid.clone(),
                        axes: spec.axes.clone(),
                        reduce: spec.reduce,
                    });
                }
            }
        }
    }
    // Every scenario shares the campaign's sweep: its fragment is
    // formatted once, and each scenario's key once.
    let sweep = sweep_canonical(&spec.grid, &spec.axes);
    sort_dedup_by_key(&mut out, |sc| {
        canonical_pieces(&sc.base_canonical(), &sweep).concat()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "unit"
backends = ["parametric", "eval", "lp"]
[grid]
deltas_ns = [0.0, 50000.0]
search_hi_ns = 500000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
            "x.toml",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_sorted_and_complete() {
        let spec = small_spec();
        let jobs = expand(&spec);
        assert_eq!(jobs.len(), 3);
        let keys: Vec<String> = jobs.iter().map(Scenario::canonical).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn backends_agree_on_sweep_points() {
        let spec = small_spec();
        let jobs = expand(&spec);
        let mut results = Vec::new();
        for job in &jobs {
            let a = job.build_analyzer().unwrap();
            let outcome = job.compute(&a).unwrap();
            results.push((job.backend, outcome.sweep, outcome.zones));
        }
        // All three backends answer the same questions; runtimes must agree
        // to numerical tolerance at every grid point.
        for w in results.windows(2) {
            let (_, pa, za) = &w[0];
            let (_, pb, zb) = &w[1];
            for (x, y) in pa.iter().zip(pb) {
                assert!(
                    (x.runtime_ns - y.runtime_ns).abs() <= 1e-6 * (1.0 + x.runtime_ns),
                    "runtime mismatch: {x:?} vs {y:?}"
                );
            }
            let tol = 1e-3 * (1.0 + za.baseline_runtime_ns);
            assert!((za.baseline_runtime_ns - zb.baseline_runtime_ns).abs() <= tol);
        }
    }

    #[test]
    fn an_lp_point_at_the_base_takes_the_baseline_answer() {
        let jobs = expand(&small_spec());
        let job = jobs.iter().find(|j| j.backend == Backend::Lp).unwrap();
        let a = job.build_analyzer().unwrap();
        let direct = a.lp().predict_at(a.base_point()).unwrap();
        for threads in [1, 2] {
            let need = [vec![0.0], vec![50_000.0]];
            let (values, _) = job.compute_with(&a, &need, true, threads).unwrap();
            // The same bits as a solve of its own (that it spends no
            // solve is counted on the `lp.solve` spans, in
            // tests/obs_determinism.rs).
            assert_eq!(values[0].runtime_ns.to_bits(), direct.runtime.to_bits());
            assert_eq!(values[0].lambda_l.to_bits(), direct.lambda_l.to_bits());
        }
    }

    #[test]
    fn fingerprint_distinguishes_backends_but_not_grid_for_base() {
        let spec = small_spec();
        let jobs = expand(&spec);
        assert_ne!(jobs[0].fingerprint(), jobs[1].fingerprint());
        let mut other = jobs[0].clone();
        other.grid.deltas_ns.push(123.0);
        assert_eq!(jobs[0].base_canonical(), other.base_canonical());
        assert_ne!(jobs[0].canonical(), other.canonical());
    }
}

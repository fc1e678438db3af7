//! Steady end-to-end benchmark of the `llamp run` campaign path.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <lp-zones|shared-graph|fanout-resume> --seed N --seconds S --trace 0|1
//! ```
//!
//! One *iteration* is what `llamp run SPEC --cache FILE --out RESULTS`
//! does: parse the spec, load the cache file (resume workloads only), run
//! the campaign on the work-stealing executor, save the cache and
//! serialise the results JSON. A run repeats iterations back to back for
//! `--seconds` (a closed loop with one client) and prints, as the last
//! line of stdout, one JSON object `{correct, attempted, failed, metrics}`.
//!
//! Workloads. The seed moves the latency grid's values by a few percent,
//! never the amount of work, so runs with different seeds stay
//! comparable:
//!
//! * `lp-zones` — LP-backend scenarios on a cold cache. Each scenario
//!   solves its points from the anchor basis, then three tolerance-zone
//!   LPs (objective flipped, re-solved from the anchor), which carry most
//!   of the solver's pivots.
//! * `shared-graph` — one workload answered on three topologies by three
//!   backends (envelope, direct evaluation, LP): nine scenarios that each
//!   rebuild and reduce the same execution graph.
//! * `fanout-resume` — many small scenarios resumed from a cache file that
//!   two narrower earlier campaigns left behind: full cache hits (no graph
//!   build), partial hits (missing points only) and cold scenarios in one
//!   campaign, plus cache load and save.
//!
//! Correctness. Set-up runs every campaign cold and checks each point's
//! runtime and each tolerance zone against direct critical-path
//! evaluation of the scenario's graph (an answer path independent of the
//! LP and the envelope). Every measured iteration must then reproduce the
//! cold run's results JSON byte for byte, whatever the cache state.
//!
//! Metrics. `--trace 0` reports the end-to-end numbers with telemetry
//! off: the median iteration time and the set-up time (median of several
//! set-ups); the raw iteration-time deciles and the sample count go to
//! stderr. `--trace 1` turns the `llamp-obs` recorder on, opens a span of
//! the benchmark's own around every call it makes into the program
//! (parse, cache load, campaign, cache save, serialise) and reports
//! per-layer numbers per iteration, outside in: a layer's self time is its
//! span time minus what the spans nested in it cover. Counts are per
//! iteration and repeat exactly; times are medians over the run's
//! iterations. The difference between `traced_run_ms` and `campaign_ms`
//! is the tracing overhead.
//!
//! Host speed. On shared virtual machines the CPU's speed drifts by up
//! to 1.7× in phases lasting seconds to minutes, which moves raw medians
//! by more than any bound worth having. So a fixed calibration job that
//! does not touch the program runs between timed steps (iterations,
//! set-ups), and each step's time is scaled by `CALIBRATION_REF_MS` over
//! the mean calibration time just before and after it: reported times are
//! what the step would take on a host where the calibration job takes
//! `CALIBRATION_REF_MS`. Drift cancels; a change to the program does not,
//! because the calibration job never runs program code.

use llamp_engine::{
    run_campaign_checked, CampaignResult, CampaignSpec, ExecutorConfig, ResultCache,
};
use llamp_obs::{FieldValue, Snapshot, SpanEvent};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 5;

/// Executor workers. One, so the work per iteration and its timing do
/// not depend on the host's core count or on load from other processes.
const THREADS: usize = 1;

/// Tolerance-zone search window above each scenario's base latency (ns).
const SEARCH_HI_NS: f64 = 2_000_000.0;

/// Relative tolerance between a swept runtime and direct evaluation.
const POINT_RTOL: f64 = 1e-9;

/// Relative tolerance on `T(base + zone) = cap` for a finite zone.
const ZONE_RTOL: f64 = 1e-7;

/// What [`calibration_ms`] takes on the host the benchmark was tuned on
/// (a 2.1 GHz Xeon virtual machine, in its fast phases).
const CALIBRATION_REF_MS: f64 = 0.6;

/// Time (ms) of a fixed job outside the program: sort 2^15 pseudo-random
/// words.
fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut words: Vec<u64> = (0..1 << 15)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    std::hint::black_box(&words);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a step to the reference host's speed, from the
/// calibration times just before and just after it.
fn speed_scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * CALIBRATION_REF_MS / (before_ms + after_ms)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} must lie in (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload runs: the measured campaign's spec, and the earlier
/// campaigns whose cache file the measured one resumes from (none for a
/// cold start).
struct Inputs {
    spec: String,
    prior: Vec<String>,
}

const UNIFORM: &str = "kind = \"uniform\"";
const FATTREE: &str = "kind = \"fattree\"\nk = 8\nl_wire_ns = 274.0\nd_switch_ns = 108.0";
const DRAGONFLY: &str = "kind = \"dragonfly\"\ngroups = 9\nrouters = 4\nhosts = 2\n\
                         l_wire_ns = 274.0\nd_switch_ns = 108.0";

/// A campaign spec in the TOML form `llamp run` reads.
fn spec_toml(
    name: &str,
    backends: &[&str],
    workloads: &[(&str, u32, u32)],
    topologies: &[&str],
    deltas_ns: &[f64],
) -> String {
    let quoted: Vec<String> = backends.iter().map(|b| format!("\"{b}\"")).collect();
    let deltas: Vec<String> = deltas_ns.iter().map(|d| format!("{d:?}")).collect();
    let mut s = format!(
        "name = \"{name}\"\nbackends = [{}]\n\n[grid]\ndeltas_ns = [{}]\nsearch_hi_ns = {SEARCH_HI_NS:?}\n",
        quoted.join(", "),
        deltas.join(", "),
    );
    for (app, ranks, iters) in workloads {
        s.push_str(&format!(
            "\n[[workloads]]\napp = \"{app}\"\nranks = {ranks}\niters = {iters}\n"
        ));
    }
    for t in topologies {
        s.push_str(&format!("\n[[topologies]]\n{t}\n"));
    }
    s
}

/// `n` evenly spaced latency deltas over `[0, hi]`.
fn grid(hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| hi * i as f64 / (n - 1) as f64).collect()
}

fn inputs(workload: &str, seed: u64) -> Option<Inputs> {
    // The grid's upper end moves by ±2% with the seed (a golden-ratio
    // sequence, so consecutive seeds spread evenly): enough to make the
    // inputs differ, too little to change how many pivots a point costs.
    let jitter = 0.98 + 0.04 * (seed as f64 * 0.618_033_988_749_895).fract();
    let hi = |base: f64| base * jitter;
    match workload {
        "lp-zones" => {
            let deltas = grid(hi(40_000.0), 3);
            let apps = [("hpcg", 24, 1), ("lulesh", 24, 1)];
            Some(Inputs {
                spec: spec_toml("lp-zones", &["lp-sparse"], &apps, &[UNIFORM], &deltas),
                prior: Vec::new(),
            })
        }
        "shared-graph" => {
            let deltas = grid(hi(60_000.0), 9);
            Some(Inputs {
                spec: spec_toml(
                    "shared-graph",
                    &["parametric", "eval", "lp-sparse"],
                    &[("lulesh", 8, 2)],
                    &[UNIFORM, FATTREE, DRAGONFLY],
                    &deltas,
                ),
                prior: Vec::new(),
            })
        }
        "fanout-resume" => {
            let deltas = grid(hi(100_000.0), 9);
            let apps = [
                "lulesh",
                "hpcg",
                "milc",
                "icon",
                "lammps",
                "openmx",
                "cloverleaf",
            ];
            let at = |ranks: u32, iters: u32| -> Vec<(&str, u32, u32)> {
                apps.iter().map(|&a| (a, ranks, iters)).collect()
            };
            let backends = ["parametric", "lp-sparse"];
            // The earlier campaigns: the 4-rank, 1-iteration scenarios in
            // full (full cache hits now), and the 8-rank ones on every
            // other grid point (partial hits); the 2-iteration scenarios
            // are new.
            let partial: Vec<f64> = deltas.iter().copied().step_by(2).collect();
            let all = [at(4, 1), at(8, 1), at(4, 2)].concat();
            Some(Inputs {
                spec: spec_toml("fanout-resume", &backends, &all, &[UNIFORM], &deltas),
                prior: vec![
                    spec_toml("fanout-resume", &backends, &at(4, 1), &[UNIFORM], &deltas),
                    spec_toml("fanout-resume", &backends, &at(8, 1), &[UNIFORM], &partial),
                ],
            })
        }
        _ => None,
    }
}

/// Scratch files of one run, inside the benchmark's own directory;
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The cache file a resume starts from: written by set-up and only
    /// read by iterations, so every iteration starts from the same state.
    fn seed_cache(&self) -> PathBuf {
        self.0.join("seed-cache.json")
    }

    /// Where each iteration saves its cache.
    fn out_cache(&self) -> PathBuf {
        self.0.join("cache.json")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run uses the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(text, "bench.toml").map_err(|e| format!("spec: {e}"))
}

fn campaign(spec: &CampaignSpec, cache: &ResultCache) -> Result<CampaignResult, String> {
    let config = ExecutorConfig {
        threads: THREADS,
        ..Default::default()
    };
    run_campaign_checked(spec, &config, cache, 0)
        .map(|(result, _)| result)
        .map_err(|e| e.to_string())
}

/// One measured iteration: the `llamp run --cache --out` path. Returns the
/// results JSON.
fn iteration(inputs: &Inputs, work: &WorkDir) -> Result<String, String> {
    let _root = llamp_obs::span("bench.iteration");
    let spec = {
        let _s = llamp_obs::span("bench.parse");
        parse_spec(&inputs.spec)?
    };
    let cache = {
        let _s = llamp_obs::span("bench.cache_load");
        if inputs.prior.is_empty() {
            ResultCache::new()
        } else {
            ResultCache::load(&work.seed_cache()).map_err(|e| format!("cache load: {e}"))?
        }
    };
    let result = {
        let _s = llamp_obs::span("bench.campaign");
        campaign(&spec, &cache)?
    };
    {
        let _s = llamp_obs::span("bench.cache_save");
        cache
            .save(&work.out_cache())
            .map_err(|e| format!("cache save: {e}"))?;
    }
    let _s = llamp_obs::span("bench.serialize");
    Ok(result.to_json())
}

/// Prepare a run: write the resume cache file, compute the cold
/// reference result, and run one untimed iteration so lazy initialisation
/// is paid here. Returns the reference result and its JSON.
fn set_up(inputs: &Inputs, work: &WorkDir) -> Result<(CampaignResult, String), String> {
    if !inputs.prior.is_empty() {
        let cache = ResultCache::new();
        for text in &inputs.prior {
            campaign(&parse_spec(text)?, &cache)?;
        }
        cache
            .save(&work.seed_cache())
            .map_err(|e| format!("cache save: {e}"))?;
    }
    let reference = campaign(&parse_spec(&inputs.spec)?, &ResultCache::new())?;
    let json = reference.to_json();
    if iteration(inputs, work)? != json {
        return Err("an iteration's results differ from the cold run's".into());
    }
    Ok((reference, json))
}

fn close(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs()).max(1.0)
}

/// Check every point and zone of a cold result against direct
/// critical-path evaluation of the scenario's graph.
fn check_against_evaluation(result: &CampaignResult) -> Result<(), String> {
    for sr in &result.scenarios {
        let key = sr.scenario.base_canonical();
        let outcome = sr.outcome.as_ref().map_err(|e| format!("{key}: {e}"))?;
        let analyzer = sr.scenario.build_analyzer()?;
        let base = analyzer.base_l();
        for p in &outcome.sweep {
            let t = analyzer.evaluate(base + p.delta_l_ns).runtime;
            if !close(t, p.runtime_ns, POINT_RTOL) {
                return Err(format!(
                    "{key}: runtime at ∆L={} is {} but evaluation gives {t}",
                    p.delta_l_ns, p.runtime_ns
                ));
            }
        }
        let z = &outcome.zones;
        let t0 = analyzer.evaluate(base).runtime;
        if !close(t0, z.baseline_runtime_ns, POINT_RTOL) {
            return Err(format!(
                "{key}: baseline {} but evaluation gives {t0}",
                z.baseline_runtime_ns
            ));
        }
        for (pct, zone) in [(1.0, z.pct1_ns), (2.0, z.pct2_ns), (5.0, z.pct5_ns)] {
            let cap = t0 * (1.0 + pct / 100.0);
            let ok = if zone.is_infinite() {
                analyzer.evaluate(base + SEARCH_HI_NS).runtime <= cap * (1.0 + ZONE_RTOL)
            } else {
                zone > 0.0 && close(analyzer.evaluate(base + zone).runtime, cap, ZONE_RTOL)
            };
            if !ok {
                return Err(format!(
                    "{key}: {pct}% zone {zone} does not meet its cap {cap}"
                ));
            }
        }
    }
    Ok(())
}

/// Linear-interpolated quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Time covered by the spans nested directly in `e` on its own thread.
fn children_ns(events: &[SpanEvent], e: &SpanEvent) -> u64 {
    let end = e.start_ns + e.dur_ns;
    events
        .iter()
        .filter(|c| {
            c.tid == e.tid
                && c.start_ns >= e.start_ns
                && c.start_ns < end
                && c.path.len() > e.path.len()
                && c.path.starts_with(e.path.as_str())
                && c.path[e.path.len()..].starts_with('/')
                && !c.path[e.path.len() + 1..].contains('/')
        })
        .map(|c| c.dur_ns)
        .sum()
}

/// The per-layer metrics, name and unit. [`layer_sample`] yields values
/// in this order; a run reports each one's median over its iterations
/// (the counts repeat exactly from one iteration to the next).
const LAYERS: &[(&str, &str)] = &[
    ("traced_run_ms", "ms"),
    ("frontend_ms", "ms"),
    ("cache_io_ms", "ms"),
    ("campaign_self_ms", "ms"),
    ("exec_self_ms", "ms"),
    ("build_ms", "ms"),
    ("ingest_ms", "ms"),
    ("reduce_ms", "ms"),
    ("lp_lower_ms", "ms"),
    ("lp_solve_ms", "ms"),
    ("zone_ms", "ms"),
    ("point_ms", "ms"),
    ("backend_self_ms", "ms"),
    ("scenarios_executed", "count"),
    ("full_cache_hits", "count"),
    ("graph_builds", "count"),
    ("cache_hits", "count"),
    ("cache_misses", "count"),
    ("cache_hit_ratio", "ratio"),
    ("lp_solves", "count"),
    ("lp_iterations", "count"),
    ("lu_reuse", "count"),
    ("zone_searches", "count"),
];

/// One iteration's per-layer numbers, in [`LAYERS`] order.
fn layer_sample(snap: &Snapshot) -> Vec<f64> {
    let ev = &snap.events;
    let named = |name: &'static str| ev.iter().filter(move |e| e.name == name);
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name| ms(named(name).map(|e| e.dur_ns).sum());
    let self_time = |name| ms(named(name).map(|e| e.dur_ns - children_ns(ev, e)).sum());
    let count = |name| named(name).count() as f64;
    let field = |name, key: &str| -> f64 {
        named(name)
            .flat_map(|e| e.fields.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n as f64,
                FieldValue::F64(x) => *x,
                FieldValue::Str(_) => 0.0,
            })
            .sum()
    };
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let cache_outcome = |outcome: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with("cache.") && k.ends_with(outcome))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let hist_ms = |name: &str| snap.hists.get(name).map_or(0.0, |h| ms(h.sum()));
    // The executor's own time: each pool's span minus the jobs its workers
    // ran (worker spawn, queue traffic, join).
    let exec_self_ns: u64 = named("exec.run")
        .map(|run| {
            let jobs: u64 = named("exec.job")
                .filter(|j| j.tid != run.tid && j.start_ns >= run.start_ns)
                .filter(|j| j.start_ns < run.start_ns + run.dur_ns)
                .map(|j| j.dur_ns)
                .sum();
            run.dur_ns.saturating_sub(jobs)
        })
        .sum();
    let (hits, misses) = (cache_outcome(".hit"), cache_outcome(".miss"));
    vec![
        total("bench.iteration"),
        self_time("bench.iteration") + total("bench.parse") + total("bench.serialize"),
        total("bench.cache_load") + total("bench.cache_save"),
        self_time("campaign"),
        ms(exec_self_ns),
        total("scenario.build"),
        total("trace.ingest") + total("schedgen.build"),
        total("reduce"),
        total("lp.lower"),
        total("lp.solve"),
        hist_ms("lp.zone_ns"),
        hist_ms("lp.point_ns") + hist_ms("eval.point_ns"),
        self_time("scenario"),
        count("scenario"),
        field("campaign", "full_cache_hits"),
        count("scenario.build"),
        hits,
        misses,
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        count("lp.solve"),
        field("lp.solve", "iterations"),
        counter("lp.lu_reuse"),
        snap.hists
            .get("lp.zone_ns")
            .map_or(0.0, |h| h.count() as f64),
    ]
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let inputs = inputs(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload '{}' (expected lp-zones | shared-graph | fanout-resume)",
            args.workload
        )
    })?;
    let work = WorkDir::create(&args.workload)?;

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference: Option<(CampaignResult, String)> = None;
    let mut cal_ms = calibration_ms();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (result, json) = set_up(&inputs, &work)?;
        let elapsed_s = t.elapsed().as_secs_f64();
        let after_ms = calibration_ms();
        setup_s.push(elapsed_s * speed_scale(cal_ms, after_ms));
        cal_ms = after_ms;
        if reference.as_ref().is_some_and(|(_, j)| *j != json) {
            return Err("two cold runs of the same spec produced different results".into());
        }
        reference = Some((result, json));
    }
    let (reference, reference_json) = reference.expect("SETUP_REPS >= 1");
    let mut correct = true;
    if let Err(e) = check_against_evaluation(&reference) {
        eprintln!("campaign_bench: check failed: {e}");
        correct = false;
    }

    if args.trace {
        llamp_obs::enable();
    }
    // Scaled to the reference host's speed, and as measured.
    let (mut times_ms, mut raw_ms) = (Vec::new(), Vec::new());
    let mut layers: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut cal_ms = calibration_ms();
    while attempted == 0 || started.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let t = Instant::now();
        let out = iteration(&inputs, &work);
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        let after_ms = calibration_ms();
        let scale = speed_scale(cal_ms, after_ms);
        cal_ms = after_ms;
        if args.trace {
            let mut sample = layer_sample(&llamp_obs::take());
            for (v, (_, unit)) in sample.iter_mut().zip(LAYERS) {
                if *unit == "ms" {
                    *v *= scale;
                }
            }
            layers.push(sample);
        }
        match out {
            Ok(json) if json == reference_json => {
                times_ms.push(elapsed_ms * scale);
                raw_ms.push(elapsed_ms);
            }
            Ok(_) => {
                failed += 1;
                eprintln!(
                    "campaign_bench: iteration {attempted}: results differ from the cold run"
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("campaign_bench: iteration {attempted}: {e}");
            }
        }
    }
    llamp_obs::disable();
    correct &= failed == 0;
    if times_ms.is_empty() {
        return Err("no iteration succeeded".into());
    }
    raw_ms.sort_by(f64::total_cmp);

    // Only the median iteration time is a headline metric: the tail
    // percentiles swing with the host's phases far more from run to run
    // (the raw deciles are printed below, with the sample count).
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        LAYERS
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| {
                let values: Vec<f64> = layers.iter().map(|s| s[i]).collect();
                // `+ 0.0` turns the -0.0 of an empty sum into 0.
                (name, median(&values) + 0.0, unit)
            })
            .collect()
    } else {
        vec![
            ("campaign_ms", median(&times_ms), "ms"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };
    let deciles: Vec<String> = (0..=10)
        .map(|i| format!("{:.1}", quantile(&raw_ms, i as f64 / 10.0)))
        .collect();
    eprintln!(
        "campaign_bench: {} seed {}: {attempted} iterations ({failed} failed) of {} scenarios; \
         raw iteration ms deciles [{}]",
        args.workload,
        args.seed,
        reference.scenarios.len(),
        deciles.join(" ")
    );
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    ))
}

fn main() -> ExitCode {
    llamp_util::tune_for_large_traces();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Integration tests for the campaign subsystem: spec round-trips, cache
//! semantics across runs, thread-count determinism, the LP backend's
//! alias spellings, its one start rule (every point from its own
//! longest-path crash basis), one graph build per graph key, and the
//! rendezvous-threshold override.

use llamp_engine::{
    expand, parse_backend, run_campaign, Backend, CampaignResult, CampaignSpec, ExecutorConfig,
    PointResult, Provenance, ResultCache, ZonesResult,
};

const SPEC: &str = r#"
name = "itest"
backends = ["parametric", "eval"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "milc"
ranks = 4
iters = 1

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[topologies]]
kind = "uniform"

[[topologies]]
kind = "fattree"
k = 4
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "itest.toml").unwrap()
}

fn config(threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        job_timeout: None,
        ..Default::default()
    }
}

#[test]
fn spec_round_trip_preserves_hash_and_content() {
    let a = spec();
    // Canonical JSON re-encoding parses back to the identical spec.
    let b = CampaignSpec::parse(&a.to_value().to_json(), "x.json").unwrap();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // A reordered-but-equivalent TOML spec hashes identically.
    let reordered = r#"
name = "renamed-on-purpose"
backends = ["eval", "parametric"]

[grid]
deltas_ns = [40000.0, 0.0, 20000.0, 0.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1

[[topologies]]
kind = "fattree"
k = 4

[[topologies]]
kind = "uniform"
"#;
    let c = CampaignSpec::parse(reordered, "y.toml").unwrap();
    // The name is not part of the sweep identity.
    assert_eq!(a.fingerprint(), c.fingerprint());
    // A genuinely different sweep hashes differently.
    let mut d = a.clone();
    d.grid.search_hi_ns *= 2.0;
    assert_ne!(a.fingerprint(), d.fingerprint());
}

#[test]
fn second_run_is_all_cache_hits_and_byte_identical() {
    let spec = spec();
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s1.jobs_unique, 8, "2 workloads x 2 topologies x 2 backends");
    assert_eq!(s1.cache_hits, 0, "cold cache cannot hit");
    assert!(s1.cache_misses > 0);
    assert!(s1.provenance.iter().all(|p| *p == Provenance::Computed));

    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.cache_misses, 0, "warm cache must not recompute anything");
    assert!(s2.hit_rate() >= 0.9, "hit rate {}", s2.hit_rate());
    assert!(s2.provenance.iter().all(|p| *p == Provenance::FullCacheHit));
    assert_eq!(r1.to_json(), r2.to_json(), "results must be byte-identical");
}

#[test]
fn overlapping_grid_reuses_shared_points() {
    let a = spec();
    let cache = ResultCache::new();
    run_campaign(&a, &config(1), &cache);
    let misses_before = cache.stats().misses();

    // Extend the grid by one new point: only the new point (plus nothing
    // else) may miss per scenario.
    let mut b = a.clone();
    b.grid.deltas_ns.push(60_000.0);
    b.canonicalize();
    let (result, summary) = run_campaign(&b, &config(1), &cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    let new_misses = cache.stats().misses() - misses_before;
    assert_eq!(
        new_misses, 8,
        "exactly one new grid point per scenario should miss"
    );
    assert!(summary.hit_rate() > 0.7, "hit rate {}", summary.hit_rate());
}

#[test]
fn cache_persistence_round_trips_through_disk() {
    let spec = spec();
    let cache = ResultCache::new();
    let (r1, _) = run_campaign(&spec, &config(1), &cache);

    let dir = std::env::temp_dir().join(format!("llamp-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();

    let reloaded = ResultCache::load(&path).unwrap();
    assert_eq!(reloaded.len(), cache.len());
    let (r2, s2) = run_campaign(&spec, &config(1), &reloaded);
    assert_eq!(s2.cache_misses, 0);
    assert_eq!(r1.to_json(), r2.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_count_does_not_change_results() {
    let spec = spec();
    // Fresh caches so both runs compute everything.
    let (r1, s1) = run_campaign(&spec, &config(1), &ResultCache::new());
    let (r2, s2) = run_campaign(&spec, &config(2), &ResultCache::new());
    assert_eq!(s1.jobs_executed, s2.jobs_executed);
    assert_eq!(
        r1, r2,
        "2-thread campaign must equal 1-thread campaign result-for-result"
    );
    assert_eq!(r1.to_json(), r2.to_json());
}

#[test]
fn lp_aliases_expand_to_one_backend() {
    // One LP backend, six spellings: the canonical `lp` plus the retired
    // solver-variant names, which stay aliases so no spec breaks.
    let spellings = [
        "lp",
        "lp-sparse",
        "lp-dense",
        "lp-parametric",
        "lp-dual",
        "simplex",
    ];
    for name in spellings {
        assert_eq!(parse_backend(name).unwrap(), Backend::Lp, "{name}");
    }
    let quoted: Vec<String> = spellings.iter().map(|s| format!("\"{s}\"")).collect();
    let spec = CampaignSpec::parse(
        &format!(
            r#"
name = "lp-aliases"
backends = [{}]

[grid]
deltas_ns = [0.0, 20000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1
"#,
            quoted.join(", ")
        ),
        "aliases.toml",
    )
    .unwrap();
    assert_eq!(spec.backends, vec![Backend::Lp]);
    let scenarios = expand(&spec);
    assert_eq!(scenarios.len(), 2, "one lp scenario per workload");
    for sc in &scenarios {
        assert_eq!(sc.backend.name(), "lp");
        assert!(
            sc.base_canonical().ends_with("|lp|r1"),
            "{}",
            sc.canonical()
        );
    }

    // The retired start-policy field is an unknown key now: a typed spec
    // error, not a silently ignored setting.
    let err = CampaignSpec::parse(
        "name = \"t\"\nsweep_start = \"crash\"\n[[workloads]]\napp = \"milc\"\n",
        "x.toml",
    )
    .unwrap_err();
    assert!(err.0.contains("unknown key 'sweep_start'"), "{err}");
}

#[test]
fn lp_backends_are_byte_identical() {
    // Every LP spelling is the same backend, so a campaign written with
    // any one of them must produce the same results file byte for byte —
    // scenario identity, zones and sweep alike.
    let run = |backend: &str| {
        let spec = CampaignSpec::parse(
            &format!(
                r#"
name = "lp-identity"
backends = ["{backend}"]

[grid]
window = {{ lo = 0.0, hi = 80000.0, points = 5 }}
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1
"#
            ),
            "ident.toml",
        )
        .unwrap();
        let (result, _) = run_campaign(&spec, &config(2), &ResultCache::new());
        assert_eq!(result.scenarios.len(), 2, "{backend}: one per workload");
        assert!(
            result.scenarios.iter().all(|s| s.outcome.is_ok()),
            "{backend}: every scenario must solve"
        );
        result.to_json()
    };
    let canonical = run("lp");
    for alias in [
        "lp-sparse",
        "lp-dense",
        "lp-parametric",
        "lp-dual",
        "simplex",
    ] {
        assert_eq!(canonical, run(alias), "{alias}: results differ from lp");
    }
}

#[test]
fn cli_rejects_bad_sweep_start_with_usage_exit_code() {
    // The start-policy flag is retired: `llamp run --sweep-start <any>` is
    // a usage error, exit code 2, like any other unknown option (README
    // § Exit codes) — whether the value was once valid or not.
    let dir = std::env::temp_dir().join(format!("llamp-sweepcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.toml");
    std::fs::write(
        &spec_path,
        "name = \"cli\"\nbackends = [\"lp\"]\n[grid]\ndeltas_ns = [0.0]\n[[workloads]]\napp = \"milc\"\nranks = 4\niters = 1\n",
    )
    .unwrap();
    for value in ["nope", "crash"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_llamp"))
            .args(["run", spec_path.to_str().unwrap(), "--sweep-start", value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--sweep-start"), "{value}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_the_retired_solver_stats_flag() {
    // Solver counters travel in the metrics sidecar (`run --metrics`,
    // `report --metrics FILE`), never in the results file, so neither
    // command takes `--solver-stats`: a usage error, exit code 2, like
    // any other unknown option.
    let dir = std::env::temp_dir().join(format!("llamp-statscli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.toml");
    std::fs::write(
        &spec_path,
        "name = \"cli\"\nbackends = [\"lp\"]\n[grid]\ndeltas_ns = [0.0]\n[[workloads]]\napp = \"milc\"\nranks = 4\niters = 1\n",
    )
    .unwrap();
    let results_path = dir.join("results.json");
    let llamp = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_llamp"))
            .args(args)
            .output()
            .unwrap()
    };
    let spec = spec_path.to_str().unwrap();
    let results = results_path.to_str().unwrap();
    let ok = llamp(&["run", spec, "--quiet", "--out", results]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    for args in [
        ["run", spec, "--solver-stats"],
        ["report", results, "--solver-stats"],
    ] {
        let out = llamp(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option --solver-stats"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A latency-grid LP campaign over `deltas` on two inputs: a small MILC
/// and HPCG at 24 ranks — the shape where anchor-seeded and crash-started
/// points once differed in the last ulp.
fn lp_grid_spec(name: &str, deltas: &str) -> CampaignSpec {
    CampaignSpec::parse(
        &format!(
            r#"
name = "{name}"
backends = ["lp"]
[grid]
deltas_ns = [{deltas}]
search_hi_ns = 1000000.0
[[workloads]]
app = "milc"
ranks = 4
iters = 1
[[workloads]]
app = "hpcg"
ranks = 24
iters = 1
"#
        ),
        "x.toml",
    )
    .unwrap()
}

#[test]
fn lp_points_are_cache_state_independent() {
    // Each LP grid point starts from its own longest-path crash basis,
    // never from a neighbouring point — so computing a *subset* of the
    // grid (because the rest was cached) must produce the same bytes as
    // computing the whole grid fresh.
    let parse = |deltas: &str| lp_grid_spec("cache-independence", deltas);
    // Warm a cache with a 2-point grid, then run the 3-point superset
    // against it: only the middle point computes.
    let cache = ResultCache::new();
    run_campaign(&parse("0.0, 22500.0"), &config(1), &cache);
    let (with_cache, s1) = run_campaign(&parse("0.0, 7500.0, 22500.0"), &config(1), &cache);
    assert!(s1.cache_hits > 0, "the superset run must reuse points");
    assert_eq!(s1.full_cache_hits, 0);
    // The same superset computed entirely fresh.
    let (fresh, _) = run_campaign(
        &parse("0.0, 7500.0, 22500.0"),
        &config(1),
        &ResultCache::new(),
    );
    assert_eq!(
        with_cache.to_json(),
        fresh.to_json(),
        "cached-subset and fresh runs must be byte-identical"
    );
}

#[test]
fn crash_point_parallelism_is_thread_deterministic() {
    // Two scenarios on four threads lend idle workers to each sweep loop
    // (point_threads = 2): the sharded run must reproduce the
    // single-threaded bytes exactly, and a warm-cache rerun must assemble
    // the same file again.
    let mut spec = lp_grid_spec("crash-shard", "0.0");
    spec.grid.deltas_ns = (0..12).map(|i| 7500.0 * i as f64).collect();
    let (r1, _) = run_campaign(&spec, &config(1), &ResultCache::new());
    assert!(r1.scenarios.iter().all(|s| s.outcome.is_ok()));
    let cache = ResultCache::new();
    let (r4, _) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(
        r1.to_json(),
        r4.to_json(),
        "sharded crash-start sweep must be byte-identical to serial"
    );
    let (r4b, s4b) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(s4b.cache_misses, 0);
    assert_eq!(r1.to_json(), r4b.to_json());
}

#[test]
fn duplicate_scenarios_are_deduplicated() {
    let mut dup = spec();
    let w = dup.workloads[0].clone();
    dup.workloads.push(w);
    let (_, summary) = run_campaign(&dup, &config(1), &ResultCache::new());
    assert_eq!(summary.jobs_requested, 12, "3 workload entries x 2 x 2");
    assert_eq!(
        summary.jobs_unique, 8,
        "duplicate workload must not add jobs"
    );
}

#[test]
fn timed_out_jobs_leave_no_cache_entries() {
    let spec = spec();
    let cache = ResultCache::new();
    let zero_budget = ExecutorConfig {
        threads: 1,
        job_timeout: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let (result, summary) = run_campaign(&spec, &zero_budget, &cache);
    assert!(
        summary
            .provenance
            .iter()
            .all(|p| *p == Provenance::TimedOut),
        "a zero budget must time every job out"
    );
    assert!(result.scenarios.iter().all(|s| s.outcome.is_err()));
    // Timed-out work must not be published: a rerun must recompute, not
    // silently flip to full-cache-hit success.
    assert!(cache.is_empty(), "cache has {} leaked entries", cache.len());
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert!(s2.provenance.iter().all(|p| *p == Provenance::Computed));
    assert!(r2.scenarios.iter().all(|s| s.outcome.is_ok()));
}

const AXES_SPEC: &str = r#"
name = "axes-itest"
backends = ["lp"]
search_hi_ns = 1000000.0

[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0, 40000.0]

[[axes]]
param = "G"
deltas = [0.0, 0.05]

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn axes_spec() -> CampaignSpec {
    CampaignSpec::parse(AXES_SPEC, "axes.toml").unwrap()
}

#[test]
fn two_axis_campaign_end_to_end() {
    let spec = axes_spec();
    assert_eq!(spec.axes.len(), 2);
    assert!(spec.grid.deltas_ns.is_empty());
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(2), &cache);
    assert!(r1.scenarios.iter().all(|s| s.outcome.is_ok()));
    for s in &r1.scenarios {
        let outcome = s.outcome.as_ref().unwrap();
        assert_eq!(outcome.points.len(), 6, "3 L x 2 G points");
        assert!(outcome.sweep.is_empty(), "axes campaigns have no 1-D sweep");
        // The cartesian product is in lexicographic order, L outermost.
        let tuples: Vec<&[f64]> = outcome.points.iter().map(|p| p.deltas.as_slice()).collect();
        assert_eq!(tuples[0], [0.0, 0.0]);
        assert_eq!(tuples[1], [0.0, 0.05]);
        assert_eq!(tuples[2], [20_000.0, 0.0]);
        // Runtime grows along both axes; λ_G > 0 once G matters.
        let v0 = &outcome.points[0].value;
        let v1 = &outcome.points[1].value;
        assert!(v1.runtime_ns >= v0.runtime_ns);
        assert!(v0.lambda_l >= 0.0 && v0.lambda_g >= 0.0 && v0.lambda_o >= 0.0);
        assert!(outcome.zones.baseline_runtime_ns > 0.0);
    }
    // Second run: pure cache assembly, byte-identical.
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.cache_misses, 0);
    assert!(s2.provenance.iter().all(|p| *p == Provenance::FullCacheHit));
    assert_eq!(r1.to_json(), r2.to_json());
    assert!(s1.cache_misses > 0);
}

#[test]
fn two_axis_lp_points_are_cache_state_independent() {
    // A run that computes only the set difference against a warm cache
    // must reproduce the fresh bytes exactly on the 2-D grid.
    let spec = axes_spec();
    let (fresh, _) = run_campaign(&spec, &config(2), &ResultCache::new());
    assert!(fresh.scenarios.iter().all(|s| s.outcome.is_ok()));

    // Warm a cache with a 1-D L slice (G axis pinned to its base), then
    // run the full 2-D grid: the shared (∆L, 0) points hit, the rest
    // compute — and the bytes must equal the all-fresh run.
    let slice = CampaignSpec::parse(
        r#"
name = "axes-slice"
backends = ["lp"]
search_hi_ns = 1000000.0
[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0, 40000.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "slice.toml",
    )
    .unwrap();
    let cache = ResultCache::new();
    run_campaign(&slice, &config(1), &cache);
    let (warm, sw) = run_campaign(&spec, &config(1), &cache);
    assert!(sw.cache_hits > 0, "1-D slice points must be reused in 2-D");
    assert_eq!(warm.to_json(), fresh.to_json());
}

#[test]
fn axes_points_solve_from_their_own_crash() {
    // Every axes grid point starts from the longest-path crash basis at
    // its own (L, G, o) point, which is optimal there. With the zones
    // already cached (a one-point campaign at the base point shares the
    // zones entry), the rest of the 2-D grid solves without one pivot.
    let one_point = CampaignSpec::parse(
        r#"
name = "base-only"
backends = ["lp"]
search_hi_ns = 1000000.0
[[axes]]
param = "L"
deltas_ns = [0.0]
[[axes]]
param = "G"
deltas = [0.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "one.toml",
    )
    .unwrap();
    let cache = ResultCache::new();
    run_campaign(&one_point, &config(1), &cache);
    let (result, s_grid) = run_campaign(&axes_spec(), &config(1), &cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    assert!(s_grid.cache_hits > 0, "zones and the base point must hit");
    assert!(s_grid.solver.iterations > 0, "the other points must solve");
    assert_eq!(
        s_grid.solver.pivots, 0,
        "crash-started axes points must not pivot: {:?}",
        s_grid.solver
    );
}

#[test]
fn axes_point_parallelism_is_thread_deterministic() {
    // One axes scenario on four threads lends idle workers to its point
    // loop (point_threads = 4), exactly as a latency grid's: the sharded
    // L × G points must reproduce the single-threaded bytes, and a
    // warm-cache rerun must assemble the same file again.
    let spec = axes_spec();
    let (r1, _) = run_campaign(&spec, &config(1), &ResultCache::new());
    assert!(r1.scenarios.iter().all(|s| s.outcome.is_ok()));
    let cache = ResultCache::new();
    let (r4, _) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(
        r1.to_json(),
        r4.to_json(),
        "sharded axes points must be byte-identical to serial"
    );
    let (r4b, s4b) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(s4b.cache_misses, 0);
    assert_eq!(r1.to_json(), r4b.to_json());
}

#[test]
fn axes_spec_round_trip_and_canonical_order() {
    let a = axes_spec();
    // JSON re-encoding parses back identically.
    let b = CampaignSpec::parse(&a.to_value().to_json(), "x.json").unwrap();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // Axis order in the file does not matter: G-before-L canonicalises to
    // L-before-G and hashes identically.
    let swapped = r#"
name = "swapped"
backends = ["lp"]
search_hi_ns = 1000000.0
[[axes]]
param = "G"
deltas = [0.05, 0.0]
[[axes]]
param = "L"
deltas_ns = [40000.0, 0.0, 20000.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;
    let c = CampaignSpec::parse(swapped, "y.toml").unwrap();
    assert_eq!(a.fingerprint(), c.fingerprint());
    // A different sweep hashes differently.
    let mut d = a.clone();
    d.axes[1].deltas.push(0.1);
    assert_ne!(a.fingerprint(), d.fingerprint());
}

#[test]
fn solver_stats_surface_in_run_summary() {
    // LP scenarios report their solver effort through the RunSummary side
    // channel (never the deterministic results file): a computed run has
    // iterations and pricing passes (every solve here starts from a crash
    // basis optimal at its point, so none pivots), a fully cached rerun
    // has none — while the results stay byte-identical across the two.
    let spec = CampaignSpec::parse(
        r#"
name = "stats"
backends = ["lp"]
[grid]
deltas_ns = [0.0, 40000.0]
search_hi_ns = 500000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "stats.toml",
    )
    .unwrap();
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(1), &cache);
    assert!(
        s1.solver.iterations > 0 && s1.solver.pricing_full_scans > 0,
        "computed LP run must report solver effort: {:?}",
        s1.solver
    );
    assert!(!s1.render_solver_stats().is_empty());
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.solver.iterations, 0, "cached rerun solves nothing");
    assert!(s2.render_solver_stats().is_empty());
    assert_eq!(r1.to_json(), r2.to_json(), "stats never leak into results");
}

#[test]
fn reduced_and_unreduced_runs_never_share_cache_entries() {
    // Same sweep with reduction on and off: different spec fingerprints,
    // different cache keys (so the shared cache never cross-substitutes),
    // and answers that agree to tolerance but need not be bitwise equal.
    let on = spec();
    let mut off = spec();
    off.reduce = false;
    assert!(on.reduce);
    assert_ne!(on.fingerprint(), off.fingerprint());

    let cache = ResultCache::new();
    let (r_on, s_on) = run_campaign(&on, &config(2), &cache);
    let entries_after_on = cache.len();
    let (r_off, s_off) = run_campaign(&off, &config(2), &cache);
    // The second run found nothing reusable: every piece recomputed.
    assert_eq!(
        s_off.full_cache_hits, 0,
        "raw run must not hit reduced entries"
    );
    assert_eq!(cache.len(), 2 * entries_after_on);
    // Reduction ran only in the first campaign.
    assert!(!s_on.reduction.is_empty());
    assert!(s_on.reduction.rows_after < s_on.reduction.rows_before);
    // The raw run reports no reduction activity at all (so `llamp run
    // --no-reduce` never prints a reduction-totals block).
    assert!(s_off.reduction.is_empty());

    // Semantically identical answers (numerical tolerance).
    for (a, b) in r_on.scenarios.iter().zip(&r_off.scenarios) {
        let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        for (pa, pb) in oa.sweep.iter().zip(&ob.sweep) {
            assert!(
                (pa.runtime_ns - pb.runtime_ns).abs() <= 1e-9 * (1.0 + pa.runtime_ns),
                "reduced {} vs raw {}",
                pa.runtime_ns,
                pb.runtime_ns
            );
            assert!((pa.lambda - pb.lambda).abs() <= 1e-9);
        }
    }

    // And a reduced re-run against the shared cache is a pure hit.
    let (r_on2, s_on2) = run_campaign(&on, &config(1), &cache);
    assert_eq!(s_on2.full_cache_hits, s_on2.jobs_unique);
    assert_eq!(r_on.to_json(), r_on2.to_json());
}

#[test]
fn reduction_keeps_double_run_byte_identity() {
    // The determinism contract with reduction on (the default): two runs
    // from cold caches at different thread counts are byte-identical.
    let s = spec();
    let (r1, _) = run_campaign(&s, &config(1), &ResultCache::new());
    let (r2, _) = run_campaign(&s, &config(4), &ResultCache::new());
    assert_eq!(r1.to_json(), r2.to_json());
}

/// Bit patterns of a sweep and its zones, for bit-for-bit comparisons.
fn bits(sweep: &[PointResult], zones: &ZonesResult) -> Vec<u64> {
    let mut out: Vec<u64> = sweep
        .iter()
        .flat_map(|p| [p.delta_l_ns, p.runtime_ns, p.lambda, p.rho])
        .map(f64::to_bits)
        .collect();
    out.extend(
        [
            zones.baseline_runtime_ns,
            zones.pct1_ns,
            zones.pct2_ns,
            zones.pct5_ns,
        ]
        .map(f64::to_bits),
    );
    out
}

/// Every scenario's outcome, bit for bit, against `compute` on the
/// scenario's own `build_analyzer()` (a graph it shares with no one).
fn assert_matches_unshared_path(result: &CampaignResult) {
    for sr in &result.scenarios {
        let sc = &sr.scenario;
        let analyzer = sc.build_analyzer().unwrap();
        let own = sc.compute(&analyzer).unwrap();
        let outcome = sr.outcome.as_ref().unwrap();
        assert_eq!(
            bits(&outcome.sweep, &outcome.zones),
            bits(&own.sweep, &own.zones),
            "{}: the shared graph must answer what an own build answers",
            sc.base_canonical()
        );
    }
}

const SHARED_SPEC: &str = r#"
name = "shared-graph"
backends = ["parametric", "eval", "lp"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "milc"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1
o_ns = 3000.0

[[topologies]]
kind = "uniform"

[[topologies]]
kind = "fattree"
k = 4
"#;

#[test]
fn scenarios_with_one_graph_key_share_one_build() {
    // One workload listed twice, differing only in `o` (a binding input,
    // not a graph input), on two topologies by three backends: twelve
    // scenarios, one graph key, one build.
    let spec = CampaignSpec::parse(SHARED_SPEC, "shared.toml").unwrap();
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s1.jobs_executed, 12);
    let key = r1.scenarios[0].scenario.graph_key();
    assert!(r1.scenarios.iter().all(|sr| sr.scenario.graph_key() == key));
    assert_eq!(s1.graph_builds, 1);
    // The reduction totals count the one graph once.
    let own = r1.scenarios[0].scenario.build_analyzer().unwrap();
    assert_eq!(s1.reduction, *own.reduction_stats());

    let (r4, s4) = run_campaign(&spec, &config(4), &ResultCache::new());
    assert_eq!(s4.graph_builds, 1, "concurrent sharers wait, never rebuild");
    assert_eq!(r1.to_json(), r4.to_json());
    assert_matches_unshared_path(&r1);

    // A fully cached rerun builds nothing.
    let (again, s_again) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s_again.full_cache_hits, 12);
    assert_eq!(s_again.graph_builds, 0);
    assert!(s_again.reduction.is_empty());
    assert_eq!(r1.to_json(), again.to_json());

    // The `reduce = false` twin has its own key: it builds its own raw
    // graph (no reduction counters) against the same cache, never the
    // reduced one.
    let mut raw = spec.clone();
    raw.reduce = false;
    let (r_raw, s_raw) = run_campaign(&raw, &config(4), &cache);
    assert!(r_raw
        .scenarios
        .iter()
        .all(|sr| sr.scenario.graph_key() == raw_key(key)));
    assert_eq!(s_raw.full_cache_hits, 0);
    assert_eq!(s_raw.graph_builds, 1);
    assert!(s_raw.reduction.is_empty());
    assert_matches_unshared_path(&r_raw);
}

fn raw_key(mut key: llamp_engine::GraphKey) -> llamp_engine::GraphKey {
    key.reduce = false;
    key
}

#[test]
fn s_bytes_override_compiles_at_its_threshold() {
    // `s_bytes = 1` puts every MILC message through the rendezvous
    // handshake: a larger graph of its own, and slower runtimes than the
    // preset's 256 KiB threshold, which no bundled message reaches.
    let spec = CampaignSpec::parse(
        r#"
name = "rndv"
backends = ["parametric"]
[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0
[[workloads]]
app = "milc"
ranks = 8
iters = 2
[[params]]
preset = "cscs"
[[params]]
preset = "cscs"
s_bytes = 1
"#,
        "rndv.toml",
    )
    .unwrap();
    let (result, summary) = run_campaign(&spec, &config(1), &ResultCache::new());
    assert_eq!(summary.graph_builds, 2, "two thresholds, two graphs");
    let find = |s_bytes: Option<u64>| {
        result
            .scenarios
            .iter()
            .find(|sr| sr.scenario.params.s_bytes == s_bytes)
            .unwrap()
    };
    let (paper, rndv) = (find(None), find(Some(1)));
    assert_eq!(paper.scenario.graph_key().rndv_threshold, 256 * 1024);
    assert_eq!(rndv.scenario.graph_key().rndv_threshold, 1);
    let vertices = |sr: &llamp_engine::ScenarioResult| {
        sr.scenario
            .graph_key()
            .build(1)
            .unwrap()
            .stats()
            .vertices_before
    };
    assert!(
        vertices(rndv) > vertices(paper),
        "rendezvous adds handshake vertices: {} vs {}",
        vertices(rndv),
        vertices(paper)
    );
    let (a, b) = (
        paper.outcome.as_ref().unwrap(),
        rndv.outcome.as_ref().unwrap(),
    );
    for (p, r) in a.sweep.iter().zip(&b.sweep) {
        assert!(
            r.runtime_ns > p.runtime_ns,
            "at ∆L={}: rendezvous {} vs eager {}",
            p.delta_l_ns,
            r.runtime_ns,
            p.runtime_ns
        );
    }
}

//! The observability determinism contract (ISSUE 6): results JSON must
//! be byte-identical with telemetry on or off, across thread counts and
//! backends — the recorder lives strictly beside the result channel.
//! The LP tests here also pin what the recorder says about LP solves: one
//! `lp.solve` span per solve, with its factorisation kind, model shape
//! and iteration count, and no solver block in the metrics document.
//!
//! Obs state is process-global, so every test serializes through a
//! session lock (this test binary is its own process; `cargo test`'s
//! threaded harness only interleaves the tests within it).

use llamp_engine::value::parse_json;
use llamp_engine::{
    expand, metrics_value, render_metrics, run_campaign, Backend, CampaignSpec, ExecutorConfig,
    ResultCache,
};
use llamp_obs::FieldValue;
use std::sync::{Mutex, OnceLock};

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

const SPEC: &str = r#"
name = "obs-itest"
backends = ["parametric", "eval", "lp"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "obs.toml").unwrap()
}

/// [`SPEC`] on the LP backend alone.
fn lp_spec() -> CampaignSpec {
    let mut spec = spec();
    spec.backends = vec![Backend::Lp];
    spec
}

fn config(threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        job_timeout: None,
        ..Default::default()
    }
}

#[test]
fn results_are_byte_identical_with_tracing_on_and_off() {
    let _guard = session_lock().lock().unwrap();
    llamp_obs::disable();
    let off = run_campaign(&spec(), &config(1), &ResultCache::new())
        .0
        .to_json();

    llamp_obs::enable();
    let on_1 = run_campaign(&spec(), &config(1), &ResultCache::new())
        .0
        .to_json();
    let on_3 = run_campaign(&spec(), &config(3), &ResultCache::new())
        .0
        .to_json();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();

    assert_eq!(off, on_1, "telemetry must never leak into results JSON");
    assert_eq!(off, on_3, "telemetry must stay out-of-band across threads");

    // The recorder actually saw the runs: spans from every layer.
    let summary = snapshot.summary();
    for path in [
        "campaign",
        "exec.job",
        "exec.job/scenario",
        "exec.job/scenario/scenario.build",
        "exec.job/scenario/scenario.build/reduce",
        "exec.job/scenario/scenario.build/schedgen.build",
        "exec.job/scenario/scenario.build/schedgen.build/ingest.match",
        "exec.job/scenario/scenario.build/trace.ingest",
        "exec.job/scenario/lp.solve",
    ] {
        assert!(
            summary.spans.iter().any(|s| s.path == path),
            "span path {path:?} missing from {:?}",
            summary
                .spans
                .iter()
                .map(|s| s.path.as_str())
                .collect::<Vec<_>>()
        );
    }
    assert!(
        summary.hists.iter().any(|(k, _)| k == "lp.point_ns"),
        "per-point LP solve histogram missing"
    );
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let _guard = session_lock().lock().unwrap();
    llamp_obs::enable();
    run_campaign(&spec(), &config(2), &ResultCache::new());
    let snapshot = llamp_obs::take();
    llamp_obs::disable();

    assert!(!snapshot.events.is_empty());
    let trace = snapshot.chrome_trace_json();
    let doc = parse_json(&trace).expect("chrome trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), snapshot.events.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
    }
}

#[test]
fn raw_csr_is_built_only_where_a_raw_graph_is_read() {
    let _guard = session_lock().lock().unwrap();
    let csr_spans = |reduce: bool| {
        let mut spec = spec();
        spec.reduce = reduce;
        llamp_obs::enable();
        run_campaign(&spec, &config(1), &ResultCache::new());
        let snapshot = llamp_obs::take();
        llamp_obs::disable();
        let named = |name: &str| snapshot.events.iter().filter(|e| e.name == name).count();
        (named("ingest.csr"), named("scenario.build"))
    };
    // The reduced graph comes straight from the builder's arrays.
    let (csr, builds) = csr_spans(true);
    assert_eq!(
        (csr, builds),
        (0, 1),
        "reduced builds must finalise no raw CSR"
    );
    // Unreduced analyses read the raw graph: one CSR per build.
    let (csr, builds) = csr_spans(false);
    assert_eq!((csr, builds), (1, 1), "raw builds finalise one CSR each");
}

#[test]
fn lp_telemetry_carries_no_oracle_counters() {
    // Every engine LP solve certifies its crash basis: no pivot, no LU,
    // one pricing pass. So the metrics document carries no solver block,
    // and each `lp.solve` span records its factorisation kind, the
    // model's shape and its iteration count, nothing more.
    let _guard = session_lock().lock().unwrap();
    llamp_obs::enable();
    let (result, summary) = run_campaign(&lp_spec(), &config(2), &ResultCache::new());
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));

    let doc = metrics_value(&summary, &snapshot.summary());
    assert!(doc.get("solver").is_none(), "no solver block");
    assert!(!render_metrics(&doc).contains("lp solver totals"));
    let solves: Vec<_> = snapshot
        .events
        .iter()
        .filter(|e| e.name == "lp.solve")
        .collect();
    assert!(!solves.is_empty(), "the campaign solves LPs");
    for e in solves {
        let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["factor", "rows", "cols", "iterations"], "{e:?}");
        assert_eq!(e.fields[0].1, FieldValue::Str("triangular".into()));
    }
}

#[test]
fn an_lp_point_at_the_base_runs_no_solve_of_its_own() {
    // A needed point at the base is the zones' baseline query, so it
    // takes the baseline's answer: adding it to the points adds no
    // `lp.solve`, whether the points run on one thread or sharded.
    let _guard = session_lock().lock().unwrap();
    let jobs = expand(&lp_spec());
    let job = &jobs[0];
    let analyzer = job.build_analyzer().unwrap();
    let solves = |need: &[Vec<f64>], threads: usize| {
        llamp_obs::enable();
        job.compute_with(&analyzer, need, true, threads).unwrap();
        let snapshot = llamp_obs::take();
        llamp_obs::disable();
        snapshot
            .events
            .iter()
            .filter(|e| e.name == "lp.solve")
            .count()
    };
    let off_base = solves(&[vec![50_000.0]], 1);
    assert!(off_base > 1, "the baseline, the zones and the point solve");
    for threads in [1, 2] {
        assert_eq!(solves(&[vec![0.0], vec![50_000.0]], threads), off_base);
    }
}

//! Chaos integration suite (ISSUE 8): end-to-end fault injection across
//! the trace → solve → campaign pipeline.
//!
//! The resilience contract under test:
//!
//! 1. **Recovered runs are byte-identical.** When every injected fault is
//!    absorbed by a recovery mechanism (solver fallback ladder, executor
//!    retry, cache quarantine-and-recompute), the results JSON is exactly
//!    the bytes a fault-free run produces.
//! 2. **Unrecovered faults are typed errors.** Past the recovery budget,
//!    failures surface as [`ScenarioError`] / [`CampaignError`] values
//!    with partial results retained — never a panic, never a corrupt file.
//!
//! The fault registry and obs recorder are process-global, so every test
//! serializes through a session lock and clears the registry on exit.

use llamp_engine::{
    run_campaign, run_campaign_checked, CampaignSpec, ExecutorConfig, ResultCache, ScenarioError,
};
use std::sync::{Mutex, OnceLock};

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Lock the session, recovering from a poisoned mutex (a failed chaos
/// test must not cascade into every later test).
fn chaos_session() -> std::sync::MutexGuard<'static, ()> {
    let guard = match session_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    llamp_faults::clear();
    guard
}

const SPEC: &str = r#"
name = "chaos-itest"
backends = ["parametric", "lp"]

[grid]
deltas_ns = [0.0, 20000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "chaos.toml").unwrap()
}

fn config(max_retries: u32) -> ExecutorConfig {
    // 1 worker thread: fault hit-order is then a pure function of the
    // (deterministic) scenario order, so count arms land reproducibly.
    ExecutorConfig {
        threads: 1,
        job_timeout: None,
        max_retries,
    }
}

fn run_bytes(max_retries: u32) -> String {
    let cache = ResultCache::new();
    let (result, _) = run_campaign(&spec(), &config(max_retries), &cache);
    result.to_json()
}

#[test]
fn solver_stall_recovery_is_byte_identical() {
    let _g = chaos_session();
    let clean = run_bytes(0);
    llamp_faults::configure("solve.stall:1", 0).unwrap();
    let faulted = run_bytes(0);
    assert!(llamp_faults::fired_total() >= 1, "fault never fired");
    llamp_faults::clear();
    assert_eq!(
        clean, faulted,
        "solver fallback ladder must reproduce the fault-free bytes"
    );
}

#[test]
fn executor_panic_recovery_is_byte_identical_and_counted() {
    let _g = chaos_session();
    let clean = run_bytes(1);
    llamp_faults::configure("exec.job.panic:1", 0).unwrap();
    llamp_obs::enable();
    let faulted = run_bytes(1);
    let snap = llamp_obs::take();
    llamp_obs::disable();
    llamp_faults::clear();
    assert_eq!(
        clean, faulted,
        "a retried panic must reproduce the fault-free bytes"
    );
    assert!(
        snap.counters.get("exec.retry").copied().unwrap_or(0) >= 1,
        "retry must be visible as exec.retry"
    );
    assert!(
        snap.counters.get("fault.injected").copied().unwrap_or(0) >= 1,
        "injection must be visible as fault.injected"
    );
}

#[test]
fn torn_cache_write_quarantines_and_recomputes_identically() {
    let _g = chaos_session();
    let dir = std::env::temp_dir().join(format!("llamp-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");

    let cache = ResultCache::new();
    let (result, _) = run_campaign(&spec(), &config(0), &cache);
    let clean = result.to_json();

    // Tear the write mid-file, as a crash or full disk would.
    llamp_faults::configure("cache.save.torn:1", 0).unwrap();
    cache.save(&path).unwrap();
    llamp_faults::clear();

    // Reload: the damage is detected, the file quarantined, and the run
    // recomputes from scratch to the exact same bytes.
    let reloaded = ResultCache::load(&path).unwrap();
    assert!(!path.exists(), "torn file should have been quarantined");
    let (again, summary) = run_campaign(&spec(), &config(0), &reloaded);
    assert_eq!(clean, again.to_json());
    assert_eq!(summary.cache_hits, 0, "nothing salvageable should hit");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecovered_faults_are_typed_errors_with_partial_results() {
    let _g = chaos_session();
    // Every job panics and retries are off: nothing can recover.
    llamp_faults::configure("exec.job.panic:0.999999", 0).unwrap();
    let err = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 0)
        .expect_err("a blown fault budget must be an error");
    llamp_faults::clear();
    assert!(!err.failures.is_empty());
    for (key, cause) in &err.failures {
        assert!(!key.is_empty());
        assert!(
            matches!(cause, ScenarioError::Panicked(m) if m.contains("injected")),
            "expected an injected panic, got {cause:?}"
        );
    }
    // The partial result still carries every scenario slot, typed.
    assert_eq!(err.result.scenarios.len(), err.summary.jobs_unique);
    let rendered = err.to_string();
    assert!(rendered.contains("fault budget"));
}

#[test]
fn fault_budget_tolerates_bounded_failures() {
    let _g = chaos_session();
    // Exactly one job panics (count arm), retries off.
    llamp_faults::configure("exec.job.panic:1", 0).unwrap();
    let (result, _) = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 1)
        .expect("one failure within a budget of one must pass");
    llamp_faults::clear();
    let failed = result
        .scenarios
        .iter()
        .filter(|s| s.outcome.is_err())
        .count();
    assert_eq!(failed, 1, "the failed slot stays a typed error");

    // The same single failure with a zero budget is a campaign error.
    llamp_faults::configure("exec.job.panic:1", 0).unwrap();
    let err = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 0)
        .expect_err("budget 0 tolerates nothing");
    llamp_faults::clear();
    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.fault_budget, 0);
}

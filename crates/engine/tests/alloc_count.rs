//! Allocation accounting for the campaign's bookkeeping: scenario
//! expansion, the fully warm campaign, the results file and the cache
//! file.
//!
//! Expansion formats each scenario's canonical key once and the shared
//! sweep fragment once per campaign; a full cache hit formats its base key
//! once and looks each piece up once; the results and cache files are
//! written straight from typed data through one streaming JSON writer,
//! with no document tree. A counting global allocator holds each on the
//! 42-scenario shape of the `fanout-resume` benchmark workload (7 apps ×
//! {4 ranks × 1 iteration, 8 × 1, 4 × 2} × {parametric, lp}, 9 grid
//! points, 420 cache entries). A key re-formatted on every sort
//! comparison, a second lookup per piece, or a `String` per written field
//! costs many times these budgets.

use llamp_engine::{
    expand, run_campaign, CampaignResult, CampaignSpec, ExecutorConfig, ResultCache,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The count is process-wide: tests take this lock so that they do not
/// count each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations made while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn spec() -> CampaignSpec {
    // The benchmark's grid at seed 1: 9 points over 0–100 472 ns, whose
    // keys spell long floats.
    let deltas: Vec<String> = (0..9)
        .map(|i| format!("{:?}", 100_472.135_954_999_58 * i as f64 / 8.0))
        .collect();
    let mut toml = format!(
        "name = \"fanout\"\nbackends = [\"parametric\", \"lp\"]\n\n[grid]\n\
         deltas_ns = [{}]\nsearch_hi_ns = 2000000.0\n",
        deltas.join(", ")
    );
    for (ranks, iters) in [(4, 1), (8, 1), (4, 2)] {
        for app in [
            "lulesh",
            "hpcg",
            "milc",
            "icon",
            "lammps",
            "openmx",
            "cloverleaf",
        ] {
            toml.push_str(&format!(
                "\n[[workloads]]\napp = \"{app}\"\nranks = {ranks}\niters = {iters}\n"
            ));
        }
    }
    CampaignSpec::parse(&toml, "fanout.toml").expect("fanout spec parses")
}

fn config() -> ExecutorConfig {
    ExecutorConfig {
        threads: 1,
        ..Default::default()
    }
}

/// The spec, a cache holding every piece of it, and its result.
fn warm() -> &'static (CampaignSpec, ResultCache, CampaignResult) {
    static WARM: OnceLock<(CampaignSpec, ResultCache, CampaignResult)> = OnceLock::new();
    WARM.get_or_init(|| {
        let spec = spec();
        let cache = ResultCache::new();
        let (result, summary) = run_campaign(&spec, &config(), &cache);
        assert_eq!(summary.jobs_unique, 42, "the fanout shape");
        assert!(result.scenarios.iter().all(|sr| sr.outcome.is_ok()));
        assert_eq!(cache.len(), 420, "9 points and one zones entry each");
        (spec, cache, result)
    })
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // With telemetry off every span is an inert guard, so the counts
    // below are the bookkeeping's own.
    assert!(
        !llamp_obs::is_enabled(),
        "obs recording must be off for the allocation count"
    );
    guard
}

#[test]
fn expand_formats_each_key_once() {
    let _serial = serial();
    let spec = spec();
    let (scenarios, allocs) = count(|| expand(&spec));
    let n = scenarios.len() as u64;
    assert_eq!(n, 42);
    assert!(
        allocs <= 32 * n,
        "{allocs} allocations expanding {n} scenarios (budget {}): keys are \
         formatted more than once",
        32 * n
    );
}

#[test]
fn warm_campaign_formats_each_key_once() {
    let _serial = serial();
    let (spec, cache, result) = warm();
    let (((again, summary), hits), allocs) = count(|| {
        let hits = cache.stats().hits();
        (run_campaign(spec, &config(), cache), hits)
    });
    let n = again.scenarios.len() as u64;
    assert_eq!(summary.full_cache_hits, 42, "every scenario is a full hit");
    assert_eq!(cache.stats().hits() - hits, 420, "each piece counts once");
    assert_eq!(&again, result);
    assert!(
        allocs <= 120 * n,
        "{allocs} allocations answering {n} scenarios from the cache \
         (budget {}): keys are formatted or pieces looked up more than once",
        120 * n
    );
}

#[test]
fn results_file_is_written_without_a_tree() {
    let _serial = serial();
    let (_, _, result) = warm();
    let (json, allocs) = count(|| result.to_json());
    let n = result.scenarios.len() as u64;
    assert!(json.ends_with("}\n"));
    assert!(
        allocs <= 40 * n,
        "{allocs} allocations writing {n} scenarios (budget {}): the results \
         file goes through a document tree",
        40 * n
    );
}

#[test]
fn cache_file_is_written_without_a_tree() {
    let _serial = serial();
    let (_, cache, _) = warm();
    let dir = std::env::temp_dir().join(format!("llamp-alloc-count-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cache.json");
    let (saved, allocs) = count(|| cache.save(&path));
    std::fs::remove_dir_all(&dir).ok();
    saved.expect("cache saves");
    let n = cache.len() as u64;
    assert!(
        allocs <= 4 * n,
        "{allocs} allocations saving {n} entries (budget {}): the cache file \
         goes through a document tree",
        4 * n
    );
}

//! Cache-level telemetry: the per-kind obs counters
//! `cache.{pt,apt,zones,mzones}.{hit,miss,put}` must match the cache
//! behaviour actually observed — cold run, warm run, and a disk
//! round-trip — for both cache-key families (grid campaigns use
//! `pt`/`zones`, axes campaigns use `apt`/`mzones`). Also pins two
//! cache-key decisions: entries keyed by the retired `lp-sparse`
//! spelling never answer an `lp` run, and the entries of older engines
//! miss where the answers moved — LP points untagged instead of `tri-`,
//! LP zones untagged, `walk-` or `tri-` instead of `root-`, and the
//! bisected eval zones untagged instead of `walk-` — while every entry
//! whose answer kept its bits keeps hitting. And entries keyed by an
//! `s_bytes` override from
//! engines that ignored it miss, while scenarios without an override keep
//! hitting. And the key spellings of both sweep shapes on every backend
//! are pinned literally.
//!
//! Obs state is process-global; every test serializes through a session
//! lock (this binary is its own process).

use llamp_engine::cache::{axis_point_key, point_key, zones_key, zones_key_multi, CachedEntry};
use llamp_engine::value::{parse_json, Value};
use llamp_engine::{run_campaign, Backend, CampaignSpec, ExecutorConfig, Provenance, ResultCache};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

const GRID_SPEC: &str = r#"
name = "cache-obs-grid"
backends = ["parametric"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

const AXES_SPEC: &str = r#"
name = "cache-obs-axes"
backends = ["lp"]
search_hi_ns = 1000000.0

[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0]

[[axes]]
param = "G"
deltas = [0.0, 0.05]

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn config() -> ExecutorConfig {
    ExecutorConfig {
        threads: 1,
        job_timeout: None,
        ..Default::default()
    }
}

/// Run one campaign under a fresh obs session; return its counters.
fn counters_of(spec: &CampaignSpec, cache: &ResultCache) -> BTreeMap<String, u64> {
    llamp_obs::enable();
    let (result, _) = run_campaign(spec, &config(), cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    snapshot.counters
}

fn get(c: &BTreeMap<String, u64>, k: &str) -> u64 {
    c.get(k).copied().unwrap_or(0)
}

#[test]
fn grid_campaign_counts_pt_and_zones_kinds() {
    let _guard = session_lock().lock().unwrap();
    let spec = CampaignSpec::parse(GRID_SPEC, "grid.toml").unwrap();
    let cache = ResultCache::new();

    // Cold: every point and the zones triple miss once, then publish.
    let cold = counters_of(&spec, &cache);
    assert_eq!(get(&cold, "cache.pt.miss"), 3);
    assert_eq!(get(&cold, "cache.pt.put"), 3);
    assert_eq!(get(&cold, "cache.zones.miss"), 1);
    assert_eq!(get(&cold, "cache.zones.put"), 1);
    assert_eq!(get(&cold, "cache.pt.hit"), 0);
    assert_eq!(get(&cold, "cache.zones.hit"), 0);

    // Warm: the full-cache-hit probe replays every lookup as a hit; no
    // misses, no new entries.
    let warm = counters_of(&spec, &cache);
    assert_eq!(get(&warm, "cache.pt.hit"), 3);
    assert_eq!(get(&warm, "cache.zones.hit"), 1);
    assert_eq!(get(&warm, "cache.pt.miss"), 0);
    assert_eq!(get(&warm, "cache.pt.put"), 0);
    assert_eq!(get(&warm, "cache.zones.miss"), 0);

    // Disk round-trip: loading admits every saved entry back through
    // `put` (counted per kind), after which the run is all hits again.
    let dir = std::env::temp_dir().join(format!("llamp-obs-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();

    llamp_obs::enable();
    let reloaded = ResultCache::load(&path).unwrap();
    let load_counters = llamp_obs::take().counters;
    llamp_obs::disable();
    assert_eq!(get(&load_counters, "cache.pt.put"), 3);
    assert_eq!(get(&load_counters, "cache.zones.put"), 1);

    let replayed = counters_of(&spec, &reloaded);
    assert_eq!(get(&replayed, "cache.pt.hit"), 3);
    assert_eq!(get(&replayed, "cache.zones.hit"), 1);
    assert_eq!(get(&replayed, "cache.pt.miss"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn axes_campaign_counts_apt_and_mzones_kinds() {
    let _guard = session_lock().lock().unwrap();
    let spec = CampaignSpec::parse(AXES_SPEC, "axes.toml").unwrap();
    let cache = ResultCache::new();

    // 2×2 axis grid → 4 apt entries plus one mzones triple; the grid
    // kinds must not appear at all.
    let cold = counters_of(&spec, &cache);
    assert_eq!(get(&cold, "cache.apt.miss"), 4);
    assert_eq!(get(&cold, "cache.apt.put"), 4);
    assert_eq!(get(&cold, "cache.mzones.miss"), 1);
    assert_eq!(get(&cold, "cache.mzones.put"), 1);
    assert_eq!(get(&cold, "cache.pt.miss"), 0);
    assert_eq!(get(&cold, "cache.zones.miss"), 0);

    let warm = counters_of(&spec, &cache);
    assert_eq!(get(&warm, "cache.apt.hit"), 4);
    assert_eq!(get(&warm, "cache.mzones.hit"), 1);
    assert_eq!(get(&warm, "cache.apt.miss"), 0);
    assert_eq!(get(&warm, "cache.apt.put"), 0);
}

#[test]
fn retired_lp_sparse_entries_miss_and_parametric_entries_hit() {
    // A cache file written before the LP backends folded into `lp` keys
    // its LP entries `…|lp-sparse|r1|pt|…`. Those answers came from the
    // retired anchor-seeded sweep, which can differ from crash-started
    // points in the last ulp, so the rename deliberately turns every one
    // of them into a miss; `parametric` keys are unchanged and keep
    // hitting.
    let _guard = session_lock().lock().unwrap();
    let spec = CampaignSpec::parse(
        r#"
name = "key-decision"
backends = ["parametric", "lp"]
[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "keys.toml",
    )
    .unwrap();
    let (fresh, _) = run_campaign(&spec, &config(), &ResultCache::new());

    // Write the file the parent engine would have left: the same answers
    // under its key spelling.
    let old = ResultCache::new();
    for sr in &fresh.scenarios {
        let base = sr.scenario.base_canonical().replace("|lp|", "|lp-sparse|");
        let outcome = sr.outcome.as_ref().unwrap();
        for p in &outcome.sweep {
            old.put(point_key(&base, p.delta_l_ns, ""), CachedEntry::Point(*p));
        }
        old.put(
            zones_key(&base, spec.grid.search_hi_ns, ""),
            CachedEntry::Zones(outcome.zones),
        );
    }
    let dir = std::env::temp_dir().join(format!("llamp-key-decision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    old.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("|lp-sparse|r1|pt|") && text.contains("|parametric|r1|pt|"));
    let loaded = ResultCache::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        loaded.len(),
        8,
        "3 points + zones per backend survive the load"
    );

    llamp_obs::enable();
    let (result, summary) = run_campaign(&spec, &config(), &loaded);
    let counters = llamp_obs::take().counters;
    llamp_obs::disable();
    assert_eq!(result.to_json(), fresh.to_json());
    // The parametric scenario is a full hit; the lp scenario recomputes
    // all three points and its zones.
    let provenance: Vec<(&str, Provenance)> = (result.scenarios.iter())
        .zip(&summary.provenance)
        .map(|(sr, p)| (sr.scenario.backend.name(), *p))
        .collect();
    assert_eq!(
        provenance,
        vec![
            ("lp", Provenance::Computed),
            ("parametric", Provenance::FullCacheHit)
        ]
    );
    assert_eq!(summary.cache_misses, 4, "no lp point or zone may hit");
    assert_eq!(get(&counters, "cache.pt.miss"), 3);
    assert_eq!(get(&counters, "cache.zones.miss"), 1);
    assert_eq!(get(&counters, "cache.pt.hit"), 3);
    assert_eq!(get(&counters, "cache.zones.hit"), 1);
}

/// Save `cache` to a scratch file and load it back (what a later `llamp
/// run --cache` sees).
fn through_disk(cache: &ResultCache, tag: &str) -> ResultCache {
    let dir = std::env::temp_dir().join(format!("llamp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();
    let loaded = ResultCache::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    loaded
}

#[test]
fn legacy_lp_entries_miss_and_everything_else_hits() {
    // The files three older engines leave behind: the same keys under
    // each engine's (LP point, LP zone, eval zone) tags. The two oldest
    // left LP points untagged: their answers came from a sparse LU,
    // which rounds differently in the last ulp, so every LP point and
    // zone misses. They tagged LP zones nothing or `walk-`, and bisected
    // eval zones, whose bits differ from the eval walk's, so those miss
    // too. The newest tagged LP points and zones `tri-`: its points keep
    // hitting, but its zones came from a tolerance-LP solve, not the
    // walk's root, so they miss. The eval points and the parametric
    // entries keep hitting under all three.
    let _guard = session_lock().lock().unwrap();
    let grid = CampaignSpec::parse(
        r#"
name = "legacy-lp-keys"
backends = ["parametric", "eval", "lp"]
[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "grid.toml",
    )
    .unwrap();
    let axes = CampaignSpec::parse(AXES_SPEC, "axes.toml").unwrap();
    let (fresh_grid, _) = run_campaign(&grid, &config(), &ResultCache::new());
    let (fresh_axes, _) = run_campaign(&axes, &config(), &ResultCache::new());

    for (lp_point_tag, lp_zone_tag, eval_zone_tag) in
        [("", "", ""), ("", "walk-", ""), ("tri-", "tri-", "walk-")]
    {
        let point_tag = |sc: &llamp_engine::Scenario| match sc.backend {
            Backend::Lp => lp_point_tag,
            _ => "",
        };
        let zone_tag = |sc: &llamp_engine::Scenario| match sc.backend {
            Backend::Lp => lp_zone_tag,
            Backend::Eval => eval_zone_tag,
            Backend::Parametric => "",
        };
        let (lp_points_hit, eval_zones_hit) = (lp_point_tag == "tri-", eval_zone_tag == "walk-");
        let old = ResultCache::new();
        for sr in &fresh_grid.scenarios {
            let base = sr.scenario.base_canonical();
            let outcome = sr.outcome.as_ref().unwrap();
            for p in &outcome.sweep {
                old.put(
                    point_key(&base, p.delta_l_ns, point_tag(&sr.scenario)),
                    CachedEntry::Point(*p),
                );
            }
            old.put(
                zones_key(&base, grid.grid.search_hi_ns, zone_tag(&sr.scenario)),
                CachedEntry::Zones(outcome.zones),
            );
        }
        for sr in &fresh_axes.scenarios {
            let base = sr.scenario.base_canonical();
            let outcome = sr.outcome.as_ref().unwrap();
            for p in &outcome.points {
                let deltas = sr.scenario.param_deltas(&p.deltas);
                old.put(
                    axis_point_key(&base, deltas, point_tag(&sr.scenario)),
                    CachedEntry::AxisPoint(p.value),
                );
            }
            old.put(
                zones_key_multi(&base, axes.grid.search_hi_ns, zone_tag(&sr.scenario)),
                CachedEntry::Zones(outcome.zones),
            );
        }
        let loaded = through_disk(&old, "legacy-lp-keys");
        assert_eq!(
            loaded.len(),
            3 * 4 + 4 + 1,
            "every old entry survives the load"
        );

        llamp_obs::enable();
        let (result, summary) = run_campaign(&grid, &config(), &loaded);
        let counters = llamp_obs::take().counters;
        llamp_obs::disable();
        assert_eq!(result.to_json(), fresh_grid.to_json());
        let provenance: Vec<(&str, Provenance)> = (result.scenarios.iter())
            .zip(&summary.provenance)
            .map(|(sr, p)| (sr.scenario.backend.name(), *p))
            .collect();
        let eval = if eval_zones_hit {
            Provenance::FullCacheHit
        } else {
            Provenance::Computed
        };
        assert_eq!(
            provenance,
            vec![
                ("eval", eval),
                ("lp", Provenance::Computed),
                ("parametric", Provenance::FullCacheHit)
            ]
        );
        let lp_point_hits = 3 * u64::from(lp_points_hit);
        assert_eq!(
            get(&counters, "cache.pt.hit"),
            6 + lp_point_hits,
            "eval and parametric points hit, LP points only under `tri-`"
        );
        assert_eq!(get(&counters, "cache.pt.miss"), 3 - lp_point_hits);
        assert_eq!(
            get(&counters, "cache.zones.hit"),
            1 + u64::from(eval_zones_hit),
            "the parametric zones hit, eval zones only under `walk-`"
        );
        assert_eq!(
            get(&counters, "cache.zones.miss"),
            2 - u64::from(eval_zones_hit),
            "the LP zones and any bisected eval zones miss"
        );

        llamp_obs::enable();
        let (result, _) = run_campaign(&axes, &config(), &loaded);
        let counters = llamp_obs::take().counters;
        llamp_obs::disable();
        assert_eq!(result.to_json(), fresh_axes.to_json());
        assert_eq!(
            get(&counters, "cache.apt.hit"),
            4 * u64::from(lp_points_hit)
        );
        assert_eq!(
            get(&counters, "cache.apt.miss"),
            4 * u64::from(!lp_points_hit)
        );
        assert_eq!(get(&counters, "cache.mzones.miss"), 1);
        assert_eq!(get(&counters, "cache.mzones.hit"), 0);
    }
}

#[test]
fn ignored_s_bytes_override_entries_miss_and_default_entries_hit() {
    // Engines before the rendezvous-threshold override was honoured
    // compiled every graph at the preset's 256 KiB and keyed an override
    // `…,s{bytes}|…`. Those answers belong to another threshold, so the
    // override's fragment is now `rndv{bytes}` and each such entry
    // misses; without an override the fragment stays `s-` and hits.
    let _guard = session_lock().lock().unwrap();
    let spec = CampaignSpec::parse(
        r#"
name = "rndv-keys"
backends = ["parametric"]
[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
[[params]]
preset = "cscs"
[[params]]
preset = "cscs"
s_bytes = 1024
"#,
        "rndv.toml",
    )
    .unwrap();
    let (fresh, _) = run_campaign(&spec, &config(), &ResultCache::new());

    let old = ResultCache::new();
    for sr in &fresh.scenarios {
        let base = sr
            .scenario
            .base_canonical()
            .replace(",rndv1024|", ",s1024|");
        let outcome = sr.outcome.as_ref().unwrap();
        for p in &outcome.sweep {
            old.put(point_key(&base, p.delta_l_ns, ""), CachedEntry::Point(*p));
        }
        old.put(
            zones_key(&base, spec.grid.search_hi_ns, ""),
            CachedEntry::Zones(outcome.zones),
        );
    }
    let loaded = through_disk(&old, "rndv-keys");
    assert_eq!(
        loaded.len(),
        2 * (3 + 1),
        "every old entry survives the load"
    );

    llamp_obs::enable();
    let (result, summary) = run_campaign(&spec, &config(), &loaded);
    let counters = llamp_obs::take().counters;
    llamp_obs::disable();
    assert_eq!(result.to_json(), fresh.to_json());
    let provenance: Vec<(Option<u64>, Provenance)> = (result.scenarios.iter())
        .zip(&summary.provenance)
        .map(|(sr, p)| (sr.scenario.params.s_bytes, *p))
        .collect();
    assert_eq!(
        provenance,
        vec![
            (Some(1024), Provenance::Computed),
            (None, Provenance::FullCacheHit)
        ]
    );
    assert_eq!(get(&counters, "cache.pt.miss"), 3);
    assert_eq!(get(&counters, "cache.zones.miss"), 1);
    assert_eq!(get(&counters, "cache.pt.hit"), 3);
    assert_eq!(get(&counters, "cache.zones.hit"), 1);
}

#[test]
fn key_spellings_are_pinned() {
    // A latency grid and an axes sweep run through one compute path and
    // one runner; what tells them apart in the cache is the key spelling
    // each backend and shape writes. Both example campaigns on all three
    // backends, run into one cache and saved, must leave exactly these
    // `{backend}|r1|{kind}|{tag}` shapes, so every entry an earlier
    // engine saved under them keeps hitting.
    let _guard = session_lock().lock().unwrap();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let cache = ResultCache::new();
    for name in ["campaign.toml", "heatmap.toml"] {
        let text = std::fs::read_to_string(examples.join(name)).unwrap();
        let mut spec = CampaignSpec::parse(&text, name).unwrap();
        spec.backends = vec![Backend::Parametric, Backend::Eval, Backend::Lp];
        let (result, _) = run_campaign(&spec, &config(), &cache);
        assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    }
    let dir = std::env::temp_dir().join(format!("llamp-key-spellings-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();
    let saved = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // `…|{backend}|r1|{kind}|{tag}{suffix}`: the tag is the suffix up to
    // its last `-` (hex digits never contain one), or empty.
    let shapes: BTreeSet<String> = saved
        .get("entries")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|e| {
            let key = e.get("key").and_then(Value::as_str).unwrap();
            let parts: Vec<&str> = key.rsplitn(5, '|').collect();
            let (suffix, kind, reduce, backend) = (parts[0], parts[1], parts[2], parts[3]);
            let tag = suffix.rfind('-').map_or("", |i| &suffix[..=i]);
            format!("{backend}|{reduce}|{kind}|{tag}")
        })
        .collect();
    let want: BTreeSet<String> = [
        "lp|r1|pt|tri-",
        "lp|r1|zones|root-",
        "lp|r1|apt|tri-",
        "lp|r1|mzones|root-",
        "eval|r1|pt|",
        "eval|r1|zones|walk-",
        "eval|r1|apt|",
        "eval|r1|mzones|walk-",
        "parametric|r1|pt|",
        "parametric|r1|zones|",
        "parametric|r1|apt|",
        "parametric|r1|mzones|",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(shapes, want);
}

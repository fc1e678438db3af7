//! Parser fuzzing for the engine's two input formats: campaign specs and
//! saved result caches.
//!
//! Starts from valid inputs — the bundled `examples/*.toml` specs and a
//! cache file saved by a real campaign — applies randomised byte- and
//! line-level corruption (truncation, bit flips, splices, line deletion
//! and duplication), and asserts the only legal outcomes:
//!
//! * a mutated spec parses, or fails with a typed [`SpecError`]; a panic
//!   fails the property;
//! * a mutated cache file always loads: damaged entries are dropped, an
//!   unparseable file (torn, not JSON, not even UTF-8) is quarantined,
//!   and a campaign run on whatever survived reproduces the cold results
//!   JSON byte for byte — corruption costs recomputation, never a wrong
//!   answer and never a failed run.

use llamp_engine::{expand, run_campaign, CampaignSpec, ExecutorConfig, ResultCache, SpecError};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const CAMPAIGN_TOML: &str = include_str!("../../../examples/campaign.toml");
const HEATMAP_TOML: &str = include_str!("../../../examples/heatmap.toml");

/// One corruption step, described as data so strategies stay `Clone`.
#[derive(Debug, Clone)]
enum Mutation {
    /// Cut the input off at a relative position.
    Truncate(f64),
    /// XOR one byte with a mask.
    FlipByte { pos: f64, mask: u8 },
    /// Insert junk bytes at a relative position.
    Splice { pos: f64, junk: Vec<u8> },
    /// Remove one line.
    DeleteLine(f64),
    /// Repeat one line.
    DuplicateLine(f64),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(pos, mask)| Mutation::FlipByte { pos, mask }),
        ((0.0f64..1.0), prop::collection::vec(0u8..=255, 1..16))
            .prop_map(|(pos, junk)| Mutation::Splice { pos, junk }),
        (0.0f64..1.0).prop_map(Mutation::DeleteLine),
        (0.0f64..1.0).prop_map(Mutation::DuplicateLine),
    ]
}

fn lines(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect()
}

/// Apply one mutation to raw bytes. Byte-level damage may break UTF-8;
/// that is part of what the cache loader must survive.
fn apply(bytes: &mut Vec<u8>, m: &Mutation) {
    let at = |rel: f64, len: usize| ((rel * len as f64) as usize).min(len.saturating_sub(1));
    match m {
        Mutation::Truncate(rel) => {
            let n = at(*rel, bytes.len());
            bytes.truncate(n);
        }
        Mutation::FlipByte { pos, mask } => {
            if !bytes.is_empty() {
                let n = at(*pos, bytes.len());
                bytes[n] ^= mask;
            }
        }
        Mutation::Splice { pos, junk } => {
            let n = at(*pos, bytes.len());
            bytes.splice(n..n, junk.iter().copied());
        }
        Mutation::DeleteLine(rel) => {
            let mut ls = lines(bytes);
            let n = at(*rel, ls.len());
            ls.remove(n);
            *bytes = ls.join(&b'\n');
        }
        Mutation::DuplicateLine(rel) => {
            let mut ls = lines(bytes);
            let n = at(*rel, ls.len());
            ls.insert(n, ls[n].clone());
            *bytes = ls.join(&b'\n');
        }
    }
}

fn mutated(input: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for m in mutations {
        apply(&mut bytes, m);
    }
    bytes
}

/// The campaigns whose saved cache gets corrupted: a latency grid on all
/// three backends and an `L × G` heatmap on the LP, so the file holds
/// every entry kind (`pt`, `zones`, `apt`, `mzones`) under every tag.
const GRID_SPEC: &str = r#"
name = "fuzz-grid"
backends = ["parametric", "eval", "lp"]
[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

const AXES_SPEC: &str = r#"
name = "fuzz-axes"
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
        ..Default::default()
    }
}

/// The two campaigns, their cold results JSON, and the bytes of the
/// cache file they leave behind (computed once per test binary).
struct Golden {
    specs: Vec<CampaignSpec>,
    cold: Vec<String>,
    entries: usize,
    file: Vec<u8>,
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let specs: Vec<CampaignSpec> = [GRID_SPEC, AXES_SPEC]
            .iter()
            .map(|text| CampaignSpec::parse(text, "fuzz.toml").unwrap())
            .collect();
        let cache = ResultCache::new();
        let cold = specs
            .iter()
            .map(|spec| run_campaign(spec, &config(), &cache).0.to_json())
            .collect();
        let dir = case_dir();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Golden {
            specs,
            cold,
            entries: cache.len(),
            file,
        }
    })
}

/// A fresh directory per case: a quarantined file is renamed aside next
/// to the original.
fn case_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llamp-fuzz-cache-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Load a corrupted cache file and run both campaigns on what survived.
fn load_and_rerun(g: &Golden, path: &Path) -> Result<(), String> {
    let loaded = ResultCache::load(path).map_err(|e| format!("load failed: {e}"))?;
    if loaded.len() > g.entries {
        return Err(format!(
            "{} entries from a file of {}",
            loaded.len(),
            g.entries
        ));
    }
    if !path.exists() && !loaded.is_empty() {
        return Err("a quarantined file yielded entries".into());
    }
    for (spec, cold) in g.specs.iter().zip(&g.cold) {
        let (result, _) = run_campaign(spec, &config(), &loaded);
        if result.to_json() != *cold {
            return Err(format!("'{}' differs from its cold results", spec.name));
        }
    }
    Ok(())
}

/// Parse a mutated spec. `Ok` and a typed `Err` are both legal; a panic
/// aborts the case and fails the property. A spec that parses must also
/// expand and hash without panicking.
fn parse_mutated(text: &str, mutations: &[Mutation]) -> Result<(), SpecError> {
    let bytes = mutated(text.as_bytes(), mutations);
    // The CLI reads a spec as UTF-8 and reports anything else as an I/O
    // error before parsing; model a lossy reader so the parser still
    // sees the damage.
    let text = String::from_utf8_lossy(&bytes);
    let spec = CampaignSpec::parse(&text, "mutated.toml")?;
    let _ = (expand(&spec), spec.fingerprint());
    Ok(())
}

proptest! {
    #[test]
    fn mutated_specs_parse_or_fail_typed(
        mutations in prop::collection::vec(mutation_strategy(), 1..6),
    ) {
        for text in [CAMPAIGN_TOML, HEATMAP_TOML] {
            let _ = parse_mutated(text, &mutations);
        }
    }

    #[test]
    fn arbitrary_garbage_specs_fail_typed(
        junk in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let text = String::from_utf8_lossy(&junk).into_owned();
        let _ = CampaignSpec::parse(&text, "junk.toml");
        let _ = CampaignSpec::parse(&text, "junk.json");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_cache_files_load_and_reproduce_cold_results(
        mutations in prop::collection::vec(mutation_strategy(), 1..4),
    ) {
        let g = golden();
        let dir = case_dir();
        let path = dir.join("cache.json");
        std::fs::write(&path, mutated(&g.file, &mutations)).unwrap();
        let outcome = load_and_rerun(g, &path);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(outcome.is_ok(), "{mutations:?}: {}", outcome.unwrap_err());
    }
}

//! Content-addressed result cache.
//!
//! Keys are canonical scenario strings (see
//! [`Scenario::base_canonical`](crate::scenario::Scenario::base_canonical))
//! extended with the entry kind; the store maps each full key string to
//! its entry. Two entry granularities:
//!
//! * **points** — one `(runtime, λ, ρ)` sample per `(scenario-base, ∆L)`,
//!   so campaigns with *overlapping* latency grids reuse each other's
//!   solved points and only compute the set difference;
//! * **zones** — the 1/2/5% tolerance triple per `(scenario-base,
//!   search window)`.
//!
//! The cache is in-memory (`RwLock`-guarded, shared across executor
//! workers) with optional JSON persistence: [`ResultCache::save`] writes
//! the store's entries, sorted by key, straight through the same
//! deterministic streaming JSON writer the result files use (no document
//! tree), and [`ResultCache::load`] parses the file and moves each
//! entry's key out of the parsed document into the store.
//!
//! ## Integrity (self-healing persistence)
//!
//! A cache file is an accelerant, never an authority — any corruption
//! must degrade to recomputation, not to a crash or a silently wrong
//! result. Three layers enforce that (see `docs/ROBUSTNESS.md`):
//!
//! * **atomic save** — [`ResultCache::save`] writes to a same-directory
//!   temp file, fsyncs, then renames over the target (and fsyncs the
//!   directory), so a crash mid-save leaves either the old file or the
//!   new one, never a torn hybrid (how the body is produced does not
//!   touch this protocol);
//! * **per-entry checksums** — every persisted entry carries a `sum`
//!   field (FNV-1a over its key, kind and exact payload bit patterns);
//!   [`ResultCache::load`] recomputes and drops any entry whose checksum
//!   is missing or wrong (counter `cache.quarantined`);
//! * **file quarantine** — an unparseable file is renamed aside to
//!   `<name>.quarantined-<pid>` (counter `cache.quarantined.file`) and
//!   the run starts from an empty cache, preserving the evidence.

use crate::scenario::{AxisPointValue, PointResult, ZonesResult};
use crate::spec::{fnv1a, fnv1a_continue};
use crate::value::{hex16, parse_json, JsonWriter, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// A cached answer.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedEntry {
    /// One sweep sample.
    Point(PointResult),
    /// One multi-parameter grid sample (axes campaigns). Keyed by the
    /// layout-independent absolute `(∆L, ∆G, ∆o)` offsets, so campaigns
    /// with different axis shapes share overlapping points.
    AxisPoint(AxisPointValue),
    /// One tolerance-zone triple.
    Zones(ZonesResult),
}

/// Hit/miss counters (atomic: updated concurrently by workers).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheStats {
    /// Lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required computation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The content-addressed store.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: RwLock<HashMap<String, CachedEntry>>,
    stats: CacheStats,
}

/// Key for one point entry. `tag` prefixes the `∆L` suffix: empty, or
/// [`LP_TAG`] for LP points.
pub fn point_key(base_canonical: &str, delta_l_ns: f64, tag: &str) -> String {
    format!("{base_canonical}|pt|{tag}{:016x}", delta_l_ns.to_bits())
}

/// Key for one zones entry (latency-grid campaigns). `tag` prefixes the
/// search-window suffix: [`LP_ZONE_TAG`] for LP zones, [`EVAL_ZONE_TAG`]
/// for eval zones, empty for envelope zones.
pub fn zones_key(base_canonical: &str, search_hi_ns: f64, tag: &str) -> String {
    format!(
        "{base_canonical}|zones|{tag}{:016x}",
        search_hi_ns.to_bits()
    )
}

/// Key for one zones entry computed by an **axes** campaign. LP axes
/// scenarios answer zones through the three-column LP, whose numbers
/// agree with the one-column LP's only to numerical tolerance — never
/// bit-for-bit — so the two sweep families must not substitute LP zone
/// entries for each other (same reasoning as [`axis_point_key`] vs
/// [`point_key`]). Envelope and eval zones are the same on both shapes;
/// theirs keep the `mzones` spelling too, so no saved entry moves. `tag`
/// as in [`zones_key`].
pub fn zones_key_multi(base_canonical: &str, search_hi_ns: f64, tag: &str) -> String {
    format!(
        "{base_canonical}|mzones|{tag}{:016x}",
        search_hi_ns.to_bits()
    )
}

/// Suffix tag of LP point entries (`…|lp|r1|pt|tri-{∆L}`, likewise
/// `apt`). LP answers are read off the crash basis's triangular factor by
/// substitution; engines before it factorised through a sparse LU, whose
/// rounding differs in the last ulp, and left LP points untagged. The tag
/// makes those entries miss instead of mixing the two factorisations'
/// answers; `parametric` keys and `eval` points are untagged and keep
/// hitting.
pub const LP_TAG: &str = "tri-";

/// Suffix tag of LP zone entries (`…|lp|r1|zones|root-{window}`,
/// likewise `mzones`). An LP zone is the Newton walk's root, as an eval
/// zone is; engines before it re-derived the root with one tolerance-LP
/// solve per zone, whose answer differs in the last bits. Those engines
/// tagged LP zones `tri-`, `walk-` or nothing, so every older LP zone
/// misses; LP points keep their [`LP_TAG`] and keep hitting.
pub const LP_ZONE_TAG: &str = "root-";

/// Suffix tag of eval zone entries (`…|eval|r1|zones|walk-{window}`,
/// likewise `mzones`). Eval zones are Newton walks over direct
/// evaluations; engines before them bisected, whose answers differ in
/// the last bits. The tag makes those untagged entries miss; eval points
/// are unchanged and stay untagged. (LP zones were tagged `walk-` by
/// older engines too; their `…|lp|…` base keeps the two apart.)
pub const EVAL_ZONE_TAG: &str = "walk-";

/// Key for one multi-parameter point entry. The key carries the absolute
/// per-parameter offsets `(∆L, ∆G, ∆o)` — missing axes are zero — so it
/// is independent of the requesting campaign's axis order or
/// dimensionality. Distinct from [`point_key`]'s `|pt|` namespace on
/// purpose: grid campaigns answer through the one-column LP (and the
/// latency-only evaluators), axes campaigns through the three-column LP
/// (and the full-gradient ones), and the two formulations' results must
/// never substitute for each other (they agree only to numerical
/// tolerance, not bit-for-bit). Old cache files therefore stay valid for
/// grid campaigns and simply never collide with axis entries. `tag` as in
/// [`point_key`].
pub fn axis_point_key(base_canonical: &str, param_deltas: [f64; 3], tag: &str) -> String {
    format!(
        "{base_canonical}|apt|{tag}l{:016x},g{:016x},o{:016x}",
        param_deltas[0].to_bits(),
        param_deltas[1].to_bits(),
        param_deltas[2].to_bits()
    )
}

/// The `kind` segment of a cache key (`pt`, `apt`, `zones`, `mzones`).
/// Keys are `{base_canonical}|{kind}|{suffix}`; the base may itself
/// contain `|`, so parse from the right.
fn kind_of_key(key: &str) -> &str {
    let mut it = key.rsplitn(3, '|');
    let _suffix = it.next();
    it.next().unwrap_or("other")
}

/// Bump the per-kind obs counter `cache.{kind}.{outcome}`. The format
/// allocation only happens with recording on.
fn count_kind(key: &str, outcome: &str) {
    if llamp_obs::is_enabled() {
        llamp_obs::counter(&format!("cache.{}.{outcome}", kind_of_key(key)), 1);
    }
}

impl ResultCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a key, counting the outcome.
    pub fn get(&self, key: &str) -> Option<CachedEntry> {
        let found = self.peek(key);
        match &found {
            Some(_) => {
                count_kind(key, "hit");
                self.stats.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                count_kind(key, "miss");
                self.stats.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        found
    }

    /// Look up a key without touching the counters.
    pub fn peek(&self, key: &str) -> Option<CachedEntry> {
        self.map.read().expect("cache lock").get(key).cloned()
    }

    /// Insert (idempotent; concurrent duplicate inserts of the same
    /// deterministic value are harmless).
    pub fn put(&self, key: String, entry: CachedEntry) {
        count_kind(&key, "put");
        self.map.write().expect("cache lock").insert(key, entry);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.read().expect("cache lock").len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Every entry of `zones_key` and `point_keys`, looked up once each
    /// under one read lock: the zones and the points `point` makes of
    /// their entries, when each is present and of its kind. Only then are
    /// the lookups counted, as hits; otherwise nothing is counted (the
    /// scheduler's full-hit probe, whose scenario then looks its pieces up
    /// again as a job).
    pub(crate) fn get_all<T>(
        &self,
        zones_key: &str,
        point_keys: &[String],
        point: impl Fn(&CachedEntry) -> Option<T>,
    ) -> Option<(ZonesResult, Vec<T>)> {
        let found = {
            let map = self.map.read().expect("cache lock");
            let zones = match map.get(zones_key)? {
                CachedEntry::Zones(z) => *z,
                _ => return None,
            };
            let points = point_keys
                .iter()
                .map(|k| point(map.get(k)?))
                .collect::<Option<Vec<T>>>()?;
            (zones, points)
        };
        count_kind(zones_key, "hit");
        for k in point_keys {
            count_kind(k, "hit");
        }
        self.stats
            .hits
            .fetch_add(1 + point_keys.len() as u64, Ordering::Relaxed);
        Some(found)
    }

    /// The file body: entries sorted by key for determinism, each with its
    /// integrity checksum (`sum`), written straight from the store.
    fn to_json(&self) -> String {
        let map = self.map.read().expect("cache lock");
        let mut entries: Vec<(&String, &CachedEntry)> = map.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut w = JsonWriter::pretty();
        w.begin_table().key("version").int(2);
        w.key("entries").begin_array();
        for (key, entry) in entries {
            w.begin_table().key("key").str(key);
            w.key("sum").hex(entry_checksum(key, entry));
            match entry {
                CachedEntry::Point(p) => {
                    w.key("kind").str("point");
                    w.floats(&[
                        ("delta_l_ns", p.delta_l_ns),
                        ("runtime_ns", p.runtime_ns),
                        ("lambda", p.lambda),
                        ("rho", p.rho),
                    ]);
                }
                CachedEntry::AxisPoint(p) => {
                    w.key("kind").str("axis-point");
                    w.floats(&[
                        ("runtime_ns", p.runtime_ns),
                        ("lambda_l", p.lambda_l),
                        ("lambda_g", p.lambda_g),
                        ("lambda_o", p.lambda_o),
                        ("rho_l", p.rho_l),
                        ("rho_g", p.rho_g),
                        ("rho_o", p.rho_o),
                    ]);
                }
                CachedEntry::Zones(z) => {
                    // Infinite zones write `null`; `inf_or_float` reads
                    // them back.
                    w.key("kind").str("zones");
                    w.floats(&[
                        ("baseline_runtime_ns", z.baseline_runtime_ns),
                        ("pct1_ns", z.pct1_ns),
                        ("pct2_ns", z.pct2_ns),
                        ("pct5_ns", z.pct5_ns),
                    ]);
                }
            }
            w.end_table();
        }
        w.end_array();
        w.end_table();
        w.finish()
    }

    /// Save to a JSON file atomically: write a same-directory temp file,
    /// fsync it, rename it over `path`, fsync the directory. A crash at
    /// any point leaves either the previous file or the new one intact —
    /// never a torn hybrid.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let g = llamp_obs::span("cache.save");
        if llamp_obs::is_enabled() {
            g.field_u64("entries", self.len() as u64);
        }
        let mut payload = self.to_json();
        if llamp_faults::should_inject("cache.save.torn") {
            // Chaos site: simulate the torn in-place write the atomic
            // protocol exists to prevent, so tests can prove the *next*
            // load quarantines and recomputes instead of going wrong.
            payload.truncate(payload.len() / 2);
            return std::fs::write(path, payload);
        }
        let tmp = sibling_path(path, &format!("tmp-{}", std::process::id()));
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(payload.as_bytes())?;
            f.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Persist the rename itself (best effort — not all platforms
        // support fsync on directories).
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Load from a JSON file produced by [`ResultCache::save`].
    ///
    /// Self-healing, never trusting: an unparseable file — not UTF-8, not
    /// JSON, or not a cache document — is quarantined (renamed aside,
    /// counter `cache.quarantined.file`) and an empty cache returned; an
    /// entry that is malformed, of unknown kind, or whose integrity
    /// checksum is missing or wrong is dropped (counter
    /// `cache.quarantined`) so it gets recomputed. Only a genuinely
    /// unreadable file (I/O error) is reported to the caller.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let g = llamp_obs::span("cache.load");
        let mut bytes = std::fs::read(path)?;
        if llamp_faults::should_inject("cache.load.corrupt") {
            // Chaos site: bit-rot the file after reading it, exercising
            // the quarantine path without touching the disk.
            bytes.truncate(bytes.len() / 3);
        }
        let text = std::str::from_utf8(&bytes).ok();
        let Some(doc) = text.and_then(|t| parse_json(t).ok()) else {
            quarantine_file(path);
            return Ok(Self::new());
        };
        let entries = match doc {
            Value::Table(pairs) => pairs.into_iter().find(|(k, _)| k == "entries"),
            _ => None,
        };
        let Some((_, Value::Array(entries))) = entries else {
            quarantine_file(path);
            return Ok(Self::new());
        };
        let mut map = HashMap::with_capacity(entries.len());
        for mut e in entries {
            let Some(key) = take_str(&mut e, "key") else {
                quarantine_entry();
                continue;
            };
            let entry = match e.get("kind").and_then(Value::as_str) {
                Some("point") => decode_point(&e).map(CachedEntry::Point),
                Some("axis-point") => decode_axis_point(&e).map(CachedEntry::AxisPoint),
                Some("zones") => decode_zones(&e).map(CachedEntry::Zones),
                _ => None,
            };
            let Some(entry) = entry else {
                quarantine_entry();
                continue;
            };
            let sum_ok = e
                .get("sum")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .is_some_and(|s| s == entry_checksum(&key, &entry));
            if !sum_ok {
                quarantine_entry();
                continue;
            }
            count_kind(&key, "put");
            map.insert(key, entry);
        }
        if llamp_obs::is_enabled() {
            g.field_u64("entries", map.len() as u64);
        }
        Ok(Self {
            map: RwLock::new(map),
            stats: CacheStats::default(),
        })
    }
}

/// `<name>.<tag>` next to `path` (same directory, so `rename` stays
/// within one filesystem).
fn sibling_path(path: &std::path::Path, tag: &str) -> std::path::PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("cache.json");
    path.with_file_name(format!("{name}.{tag}"))
}

/// Move an unparseable cache file aside (preserving the evidence) and
/// count the event. Best effort — if the rename fails the file simply
/// stays and gets overwritten by the next save.
fn quarantine_file(path: &std::path::Path) {
    llamp_obs::counter("cache.quarantined", 1);
    llamp_obs::counter("cache.quarantined.file", 1);
    let aside = sibling_path(path, &format!("quarantined-{}", std::process::id()));
    let _ = std::fs::rename(path, &aside);
}

/// Count one dropped (malformed or checksum-failed) entry.
fn quarantine_entry() {
    llamp_obs::counter("cache.quarantined", 1);
}

/// FNV-1a integrity checksum over an entry's key, kind and exact payload
/// bit patterns (each spelled as 16 lowercase hex digits). Any bit flip
/// in a persisted number changes the sum. The bytes are hashed as they
/// are produced, with no string built to hold them.
fn entry_checksum(key: &str, entry: &CachedEntry) -> u64 {
    let bits = |h: u64, xs: &[f64]| {
        xs.iter()
            .fold(h, |h, x| fnv1a_continue(h, &hex16(x.to_bits())))
    };
    let h = fnv1a(key.as_bytes());
    match entry {
        CachedEntry::Point(p) => bits(
            fnv1a_continue(h, b"|point|"),
            &[p.delta_l_ns, p.runtime_ns, p.lambda, p.rho],
        ),
        CachedEntry::AxisPoint(p) => bits(
            fnv1a_continue(h, b"|axis-point|"),
            &[
                p.runtime_ns,
                p.lambda_l,
                p.lambda_g,
                p.lambda_o,
                p.rho_l,
                p.rho_g,
                p.rho_o,
            ],
        ),
        CachedEntry::Zones(z) => bits(
            fnv1a_continue(h, b"|zones|"),
            &[z.baseline_runtime_ns, z.pct1_ns, z.pct2_ns, z.pct5_ns],
        ),
    }
}

/// Move the string field `name` out of a table (the parsed document is
/// dropped after the load, so nothing reads it again).
fn take_str(v: &mut Value, name: &str) -> Option<String> {
    let Value::Table(pairs) = v else {
        return None;
    };
    match pairs.iter_mut().find(|(k, _)| k == name) {
        Some((_, Value::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

/// Infinite tolerances are written as `null` (JSON has no `inf`); this
/// reads them back.
fn inf_or_float(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Null) => Some(f64::INFINITY),
        Some(x) => x.as_f64(),
        None => None,
    }
}

fn decode_point(e: &Value) -> Option<PointResult> {
    Some(PointResult {
        delta_l_ns: e.get("delta_l_ns")?.as_f64()?,
        runtime_ns: e.get("runtime_ns")?.as_f64()?,
        lambda: e.get("lambda")?.as_f64()?,
        rho: e.get("rho")?.as_f64()?,
    })
}

fn decode_axis_point(e: &Value) -> Option<AxisPointValue> {
    Some(AxisPointValue {
        runtime_ns: e.get("runtime_ns")?.as_f64()?,
        lambda_l: e.get("lambda_l")?.as_f64()?,
        lambda_g: e.get("lambda_g")?.as_f64()?,
        lambda_o: e.get("lambda_o")?.as_f64()?,
        rho_l: e.get("rho_l")?.as_f64()?,
        rho_g: e.get("rho_g")?.as_f64()?,
        rho_o: e.get("rho_o")?.as_f64()?,
    })
}

fn decode_zones(e: &Value) -> Option<ZonesResult> {
    Some(ZonesResult {
        baseline_runtime_ns: e.get("baseline_runtime_ns")?.as_f64()?,
        pct1_ns: inf_or_float(e.get("pct1_ns"))?,
        pct2_ns: inf_or_float(e.get("pct2_ns"))?,
        pct5_ns: inf_or_float(e.get("pct5_ns"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(d: f64) -> PointResult {
        PointResult {
            delta_l_ns: d,
            runtime_ns: 100.0 + d,
            lambda: 3.0,
            rho: 0.25,
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let c = ResultCache::new();
        let k = point_key("base", 5.0, "");
        assert!(c.get(&k).is_none());
        c.put(k.clone(), CachedEntry::Point(point(5.0)));
        assert_eq!(c.get(&k), Some(CachedEntry::Point(point(5.0))));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let c = ResultCache::new();
        let k = point_key("base", 1.0, "");
        c.put(k.clone(), CachedEntry::Point(point(1.0)));
        assert!(c.peek(&k).is_some());
        assert_eq!(c.stats().hits() + c.stats().misses(), 0);
    }

    #[test]
    fn disk_round_trip_including_infinities() {
        let c = ResultCache::new();
        c.put(point_key("b", 0.0, ""), CachedEntry::Point(point(0.0)));
        c.put(
            zones_key("b", 1e6, ""),
            CachedEntry::Zones(ZonesResult {
                baseline_runtime_ns: 42.0,
                pct1_ns: 7.0,
                pct2_ns: f64::INFINITY,
                pct5_ns: f64::INFINITY,
            }),
        );
        let dir = std::env::temp_dir().join(format!("llamp-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        c.save(&path).unwrap();
        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        match back.peek(&zones_key("b", 1e6, "")) {
            Some(CachedEntry::Zones(z)) => {
                assert_eq!(z.baseline_runtime_ns, 42.0);
                assert!(z.pct2_ns.is_infinite());
            }
            other => panic!("bad entry: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("llamp-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Regression test for the torn-write failure mode: a cache file cut
    /// off mid-entry (what an in-place `fs::write` interrupted by a crash
    /// leaves behind) must load as an empty cache with the broken file
    /// quarantined aside — never an error, never a partial store.
    #[test]
    fn truncated_file_is_quarantined_not_fatal() {
        let dir = temp_cache_dir("torn");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(point_key("b", 0.0, ""), CachedEntry::Point(point(0.0)));
        c.put(point_key("b", 1.0, ""), CachedEntry::Point(point(1.0)));
        c.save(&path).unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 0, "no entry from a torn file may be trusted");
        assert!(!path.exists(), "broken file must be moved aside");
        let aside: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("quarantined"))
            .collect();
        assert_eq!(aside.len(), 1, "evidence file preserved");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped high bit makes the file invalid UTF-8: that is one more
    /// way to be unparseable, quarantined like a torn file — not an I/O
    /// error that stops the run.
    #[test]
    fn non_utf8_file_is_quarantined_not_fatal() {
        let dir = temp_cache_dir("utf8");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(point_key("b", 0.0, ""), CachedEntry::Point(point(0.0)));
        c.save(&path).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] |= 0x80;
        assert!(
            std::str::from_utf8(&bytes).is_err(),
            "fixture must be invalid UTF-8"
        );
        std::fs::write(&path, &bytes).unwrap();

        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 0);
        assert!(!path.exists(), "broken file must be moved aside");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_mismatch_drops_only_the_tampered_entry() {
        let dir = temp_cache_dir("sum");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(point_key("b", 0.0, ""), CachedEntry::Point(point(0.0)));
        c.put(point_key("b", 1.0, ""), CachedEntry::Point(point(1.0)));
        c.save(&path).unwrap();

        // Flip one stored number without updating its checksum.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("101.0", "999.0", 1);
        assert_ne!(text, tampered, "fixture must actually tamper a value");
        std::fs::write(&path, tampered).unwrap();

        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 1, "intact entry survives, tampered one goes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsummed_legacy_entries_are_recomputed_not_trusted() {
        // A pre-integrity (version 1) file has no `sum` fields: every
        // entry is dropped for recomputation rather than trusted blindly.
        let dir = temp_cache_dir("legacy");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(point_key("b", 0.0, ""), CachedEntry::Point(point(0.0)));
        c.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Strip the sum fields (simulate an old writer).
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("\"sum\""))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&path, stripped).unwrap();
        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_no_temp_residue() {
        let dir = temp_cache_dir("atomic");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(point_key("b", 2.0, ""), CachedEntry::Point(point(2.0)));
        c.save(&path).unwrap();
        c.save(&path).unwrap(); // overwrite path exercises rename-over
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["cache.json".to_string()], "{names:?}");
        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The saved file's bytes — layout, float spellings and checksums —
    /// are what every earlier run's cache file holds, so they must not
    /// move: a parent's file has to keep loading and hitting.
    #[test]
    fn saved_file_bytes_are_pinned() {
        let dir = temp_cache_dir("pinned");
        let path = dir.join("cache.json");
        let c = ResultCache::new();
        c.put(
            point_key("base", 1250.5, LP_TAG),
            CachedEntry::Point(PointResult {
                delta_l_ns: 1250.5,
                runtime_ns: 123_456.789,
                lambda: 7.0,
                rho: 0.070_934_1,
            }),
        );
        c.put(
            axis_point_key("base", [100.0, 0.5, 2.0], LP_TAG),
            CachedEntry::AxisPoint(AxisPointValue {
                runtime_ns: 9.876e5,
                lambda_l: 3.0,
                lambda_g: 1024.0,
                lambda_o: 12.0,
                rho_l: 0.1,
                rho_g: 1e-3,
                rho_o: 0.25,
            }),
        );
        c.put(
            zones_key("base", 4e4, LP_ZONE_TAG),
            CachedEntry::Zones(ZonesResult {
                baseline_runtime_ns: 42.0,
                pct1_ns: 0.42,
                pct2_ns: 0.84,
                pct5_ns: f64::INFINITY,
            }),
        );
        c.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let want = r#"{
  "version": 2,
  "entries": [
    {
      "key": "base|apt|tri-l4059000000000000,g3fe0000000000000,o4000000000000000",
      "sum": "4f8110dbe0351d1f",
      "kind": "axis-point",
      "runtime_ns": 987600.0,
      "lambda_l": 3.0,
      "lambda_g": 1024.0,
      "lambda_o": 12.0,
      "rho_l": 0.1,
      "rho_g": 0.001,
      "rho_o": 0.25
    },
    {
      "key": "base|pt|tri-40938a0000000000",
      "sum": "cbfc9fe22282b67d",
      "kind": "point",
      "delta_l_ns": 1250.5,
      "runtime_ns": 123456.789,
      "lambda": 7.0,
      "rho": 0.0709341
    },
    {
      "key": "base|zones|root-40e3880000000000",
      "sum": "94d18f9caf1a0ed0",
      "kind": "zones",
      "baseline_runtime_ns": 42.0,
      "pct1_ns": 0.42,
      "pct2_ns": 0.84,
      "pct5_ns": null
    }
  ]
}
"#;
        assert_eq!(text, want, "saved cache bytes moved");
    }

    #[test]
    fn colliding_keys_coexist() {
        // Different keys in the same bucket must both be retrievable even
        // if FNV collides; simulate by inserting two keys and checking
        // bucket logic handles same-fingerprint lookups (exercised via the
        // shared map path regardless of an actual collision).
        let c = ResultCache::new();
        c.put("ka".into(), CachedEntry::Point(point(1.0)));
        c.put("kb".into(), CachedEntry::Point(point(2.0)));
        assert_eq!(c.peek("ka"), Some(CachedEntry::Point(point(1.0))));
        assert_eq!(c.peek("kb"), Some(CachedEntry::Point(point(2.0))));
    }
}

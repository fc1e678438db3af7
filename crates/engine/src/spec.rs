//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a cartesian sweep: every combination of
//! workload × topology × parameter set × backend becomes one
//! [`Scenario`](crate::scenario::Scenario), all sharing one sweep — a
//! latency grid, or multi-parameter [`AxisSpec`] axes. Specs are
//! written in TOML (or JSON with the same shape) and decode through
//! [`crate::value::Value`]; see `examples/campaign.toml` for the format.
//!
//! Canonicalisation (`CampaignSpec::canonicalize`) sorts and deduplicates
//! every dimension and the latency grid, so two specs describing the same
//! sweep — in any order, in either syntax — produce identical scenario
//! sets, identical content hashes, and therefore identical cache keys.

use crate::value::{parse_json, parse_toml, Value};
pub use llamp_core::SweepParam;
use llamp_workloads::App;
use std::fmt::Write as _;

/// One workload axis entry: an application proxy at a given scale.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which application skeleton.
    pub app: App,
    /// MPI rank count.
    pub ranks: u32,
    /// Outer iterations of the proxy's main loop.
    pub iters: u32,
    /// Optional override of the per-message overhead `o` (ns); defaults
    /// to the application's paper-matched value.
    pub o_ns: Option<f64>,
}

/// One topology axis entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Uniform end-to-end latency: the analysis variable is `L` itself.
    Uniform,
    /// Three-tier fat tree; the analysis variable is the per-wire latency.
    FatTree {
        /// Switch radix `k` (hosts = k³/4).
        k: u32,
        /// Baseline per-wire latency (ns).
        l_wire_ns: f64,
        /// Per-switch traversal delay (ns).
        d_switch_ns: f64,
    },
    /// Dragonfly; the analysis variable is the per-wire latency.
    Dragonfly {
        /// Number of groups.
        groups: u32,
        /// Routers per group.
        routers: u32,
        /// Hosts per router.
        hosts: u32,
        /// Baseline per-wire latency (ns).
        l_wire_ns: f64,
        /// Per-switch traversal delay (ns).
        d_switch_ns: f64,
    },
}

/// Cluster parameter presets (paper §III-B / §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParamsPreset {
    /// The 188-node CSCS validation test-bed.
    Cscs,
    /// Piz Daint as measured for the ICON case study.
    PizDaint,
    /// The paper's didactic running example.
    Didactic,
}

impl ParamsPreset {
    /// Spec-file name.
    pub fn name(&self) -> &'static str {
        match self {
            ParamsPreset::Cscs => "cscs",
            ParamsPreset::PizDaint => "piz-daint",
            ParamsPreset::Didactic => "didactic",
        }
    }
}

/// One LogGPS parameter axis entry: a preset plus overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamsSpec {
    /// Base preset.
    pub preset: ParamsPreset,
    /// Override the base latency `L` (ns).
    pub l_ns: Option<f64>,
    /// Override the per-message overhead `o` (ns). Takes precedence over
    /// the workload-level override.
    pub o_ns: Option<f64>,
    /// Override the rendezvous threshold `S` (bytes).
    pub s_bytes: Option<u64>,
}

/// Analysis backend answering the sweep (all cross-validated in
/// `llamp-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Exact `T(L)` envelope in one pass (`ParametricProfile`).
    Parametric,
    /// The paper's Algorithm 1 LP: every grid point answered by
    /// certifying its own longest-path crash basis (one triangular
    /// factorisation by substitution, no pivot).
    Lp,
    /// Direct critical-path evaluation per grid point.
    Eval,
}

impl Backend {
    /// Canonical spec-file name (also the cache-key component).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Parametric => "parametric",
            Backend::Lp => "lp",
            Backend::Eval => "eval",
        }
    }
}

/// The spellings that name [`Backend::Lp`]: the canonical `lp` plus the
/// retired solver-variant names, kept as aliases so older specs still
/// parse.
pub const LP_ALIASES: &[&str] = &[
    "lp",
    "lp-sparse",
    "lp-dense",
    "lp-parametric",
    "lp-dual",
    "simplex",
];

/// Parse a backend name as used in spec files and `llamp run --backends`:
/// `parametric`, `eval` (alias `evaluate`) or `lp` (any of
/// [`LP_ALIASES`]).
pub fn parse_backend(name: &str) -> Result<Backend, SpecError> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "parametric" => Ok(Backend::Parametric),
        "eval" | "evaluate" => Ok(Backend::Eval),
        _ if LP_ALIASES.contains(&lower.as_str()) => Ok(Backend::Lp),
        _ => Err(err(format!(
            "unknown backend '{name}' (expected parametric | eval | lp)"
        ))),
    }
}

/// The latency grid shared by all scenarios of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Added-latency samples `∆L` (ns) above each scenario's base value.
    /// Empty when the campaign sweeps explicit [`AxisSpec`] axes instead.
    pub deltas_ns: Vec<f64>,
    /// Upper search bound for the 1/2/5% tolerance zones (ns above base).
    pub search_hi_ns: f64,
}

/// One sweep axis of a multi-parameter campaign: a LogGPS parameter plus
/// the delta samples above each scenario's base value of that parameter
/// (`L`/`o` in ns, `G` in ns/byte). A campaign's `axes` expand to the
/// cartesian product of their delta lists, each point answered on its
/// own exactly like a latency-grid point (which is a one-axis `L`
/// sweep): by an LP solve from the crash basis at its own `(L, G, o)`,
/// or by direct evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// The swept parameter.
    pub param: SweepParam,
    /// Delta samples above the scenario's base value (sorted, deduplicated
    /// by canonicalisation).
    pub deltas: Vec<f64>,
}

impl AxisSpec {
    /// Canonical fragment.
    pub fn canonical(&self) -> String {
        let mut s = format!("{}[", self.param.name());
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", f(*d));
        }
        s.push(']');
        s
    }
}

/// A full campaign: the cartesian product of the four axes under one
/// sweep (a latency grid, or multi-parameter axes).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in reports and output files).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Parameter-set axis.
    pub params: Vec<ParamsSpec>,
    /// Backend axis.
    pub backends: Vec<Backend>,
    /// Shared latency grid (`grid.deltas_ns` is empty when `axes` is
    /// non-empty; `grid.search_hi_ns` always holds the tolerance-zone
    /// search window).
    pub grid: GridSpec,
    /// Multi-parameter sweep axes (empty for classic latency-grid
    /// campaigns). Sorted by canonical parameter order `L < G < o`.
    pub axes: Vec<AxisSpec>,
    /// Run the makespan-preserving graph reduction pipeline before
    /// lowering (default `true`). Part of every scenario's cache-key
    /// identity: reduced and unreduced answers agree only to numerical
    /// tolerance, so they must never substitute for each other.
    pub reduce: bool,
}

/// Spec decoding / validation failure.
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The most sweep points one scenario may ask for: a latency grid's
/// length, or the product of its axes' lengths. A spec above it fails
/// with a [`SpecError`] naming the field instead of allocating the
/// sweep, and a `window.points` above it fails before its samples are
/// generated.
pub(crate) const MAX_SWEEP_POINTS: usize = 1_000_000;

/// Parse an application name as used in spec files (`llamp
/// list-workloads` prints the list).
pub fn parse_app(name: &str) -> Result<App, SpecError> {
    App::ALL
        .iter()
        .copied()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            err(format!(
                "unknown app '{name}' (expected one of: {})",
                App::ALL.map(|a| a.name().to_ascii_lowercase()).join(", ")
            ))
        })
}

impl CampaignSpec {
    /// Parse a spec from TOML or JSON source. `path_hint` selects the
    /// syntax by extension; content sniffing (`{` first) is the fallback.
    pub fn parse(source: &str, path_hint: &str) -> Result<Self, SpecError> {
        let is_json = path_hint.ends_with(".json")
            || (!path_hint.ends_with(".toml") && source.trim_start().starts_with('{'));
        let value = if is_json {
            parse_json(source).map_err(|e| err(format!("JSON: {e}")))?
        } else {
            parse_toml(source).map_err(|e| err(format!("TOML: {e}")))?
        };
        Self::from_value(&value)
    }

    /// Decode from a parsed document. Unknown keys are rejected (a typo
    /// must fail loudly, not silently fall back to a default); the
    /// accepted field set is [`SPEC_FIELDS`], documented in
    /// `docs/SPEC.md`.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        check_table(value, "", "campaign")?;
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("campaign")
            .to_string();

        let workloads = req_array(value, "workloads")?
            .iter()
            .map(decode_workload)
            .collect::<Result<Vec<_>, _>>()?;
        let topologies = match value.get("topologies") {
            None => vec![TopologySpec::Uniform],
            Some(v) => v
                .as_array()
                .ok_or_else(|| err("'topologies' must be an array of tables"))?
                .iter()
                .map(decode_topology)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let params = match value.get("params") {
            None => vec![ParamsSpec {
                preset: ParamsPreset::Cscs,
                l_ns: None,
                o_ns: None,
                s_bytes: None,
            }],
            Some(v) => v
                .as_array()
                .ok_or_else(|| err("'params' must be an array of tables"))?
                .iter()
                .map(decode_params)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let backends = match value.get("backends") {
            None => vec![Backend::Parametric],
            Some(v) => v
                .as_array()
                .ok_or_else(|| err("'backends' must be an array of strings"))?
                .iter()
                .map(|b| parse_backend(b.as_str().ok_or_else(|| err("backend must be a string"))?))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let axes = match value.get("axes") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| err("'axes' must be an array of tables ([[axes]])"))?
                .iter()
                .map(decode_axis)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let grid = decode_grid(value.get("grid"), !axes.is_empty())?;
        let grid = match value.get("search_hi_ns") {
            None => grid,
            Some(v) => {
                // The top-level key is an alias, not an override: a spec
                // giving both sources must fail loudly (same rule as the
                // deltas/window conflict), not silently pick one.
                if value
                    .get("grid")
                    .is_some_and(|g| g.get("search_hi_ns").is_some())
                {
                    return Err(err(
                        "'search_hi_ns' and 'grid.search_hi_ns' are mutually exclusive — \
                         give the zone search window one way",
                    ));
                }
                GridSpec {
                    search_hi_ns: v
                        .as_f64()
                        .ok_or_else(|| err("'search_hi_ns' must be a number"))?,
                    ..grid
                }
            }
        };

        let reduce = match value.get("reduce") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err("'reduce' must be a boolean"))?,
        };

        let mut spec = Self {
            name,
            workloads,
            topologies,
            params,
            backends,
            grid,
            axes,
            reduce,
        };
        spec.validate()?;
        spec.canonicalize();
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(err("at least one [[workloads]] entry is required"));
        }
        if self.axes.is_empty() {
            if self.grid.deltas_ns.is_empty() {
                return Err(err("the latency grid needs at least one point"));
            }
        } else {
            if !self.grid.deltas_ns.is_empty() {
                return Err(err(
                    "'grid' deltas and 'axes' are mutually exclusive: a multi-parameter \
                     campaign declares its L samples as an axes entry with param = \"L\"",
                ));
            }
            for (i, a) in self.axes.iter().enumerate() {
                if a.deltas.is_empty() {
                    return Err(err(format!("axis {} needs at least one delta", a.param)));
                }
                for d in &a.deltas {
                    if !d.is_finite() || *d < 0.0 {
                        return Err(err(format!(
                            "axis {} delta {d} must be finite and >= 0",
                            a.param
                        )));
                    }
                }
                if self.axes[..i].iter().any(|b| b.param == a.param) {
                    return Err(err(format!(
                        "duplicate axis for parameter {} (merge the delta lists)",
                        a.param
                    )));
                }
            }
            let lens: Vec<usize> = self.axes.iter().map(|a| a.deltas.len()).collect();
            let points = lens.iter().try_fold(1usize, |n, &len| n.checked_mul(len));
            if points.is_none_or(|n| n > MAX_SWEEP_POINTS) {
                return Err(err(format!(
                    "axes: lengths {lens:?} multiply past the sweep ceiling of \
                     {MAX_SWEEP_POINTS} points"
                )));
            }
        }
        if self.grid.deltas_ns.len() > MAX_SWEEP_POINTS {
            return Err(err(format!(
                "grid.deltas_ns: {} points exceed the sweep ceiling of {MAX_SWEEP_POINTS}",
                self.grid.deltas_ns.len()
            )));
        }
        if !self.grid.search_hi_ns.is_finite() || self.grid.search_hi_ns <= 0.0 {
            return Err(err("grid.search_hi_ns must be positive and finite"));
        }
        for d in &self.grid.deltas_ns {
            if !d.is_finite() || *d < 0.0 {
                return Err(err(format!("grid delta {d} must be finite and >= 0")));
            }
        }
        for w in &self.workloads {
            if w.ranks < 2 {
                return Err(err(format!("{}: ranks must be >= 2", w.app.name())));
            }
            if w.iters == 0 {
                return Err(err(format!("{}: iters must be >= 1", w.app.name())));
            }
        }
        for t in &self.topologies {
            let nodes = t.num_nodes();
            if let Some(n) = nodes {
                if let Some(w) = self.workloads.iter().find(|w| w.ranks > n) {
                    return Err(err(format!(
                        "topology {} has {n} hosts but workload {} needs {} ranks",
                        t.canonical(),
                        w.app.name(),
                        w.ranks
                    )));
                }
            }
        }
        Ok(())
    }

    /// Sort + deduplicate every axis and the grid. Idempotent; called by
    /// the decoder so parsed specs are always canonical.
    pub fn canonicalize(&mut self) {
        sort_dedup_by_key(&mut self.workloads, WorkloadSpec::canonical);
        sort_dedup_by_key(&mut self.topologies, TopologySpec::canonical);
        sort_dedup_by_key(&mut self.params, ParamsSpec::canonical);
        self.backends.sort();
        self.backends.dedup();
        self.grid.deltas_ns.sort_by(f64::total_cmp);
        self.grid
            .deltas_ns
            .dedup_by(|a, b| a.to_bits() == b.to_bits());
        self.axes.sort_by_key(|a| a.param);
        for a in &mut self.axes {
            a.deltas.sort_by(f64::total_cmp);
            a.deltas.dedup_by(|x, y| x.to_bits() == y.to_bits());
        }
    }

    /// Canonical string form: the deterministic identity of the campaign's
    /// sweep (name excluded — two differently named campaigns over the
    /// same sweep share cache entries).
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        for w in &self.workloads {
            let _ = write!(s, "w:{};", w.canonical());
        }
        for t in &self.topologies {
            let _ = write!(s, "t:{};", t.canonical());
        }
        for p in &self.params {
            let _ = write!(s, "p:{};", p.canonical());
        }
        for b in &self.backends {
            let _ = write!(s, "b:{};", b.name());
        }
        let _ = write!(s, "r:{};", u8::from(self.reduce));
        let _ = write!(s, "g:{}", sweep_canonical(&self.grid, &self.axes));
        s
    }

    /// Content hash of the canonical form (FNV-1a, stable across runs and
    /// platforms).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// Sort `items` by `key` and keep the first of each run of equal keys,
/// formatting each item's key once. The sort is stable, so the order is
/// the one sorting by the key gives.
pub(crate) fn sort_dedup_by_key<T>(items: &mut Vec<T>, key: impl Fn(&T) -> String) {
    let mut keyed: Vec<(String, T)> = items.drain(..).map(|i| (key(&i), i)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    items.extend(keyed.into_iter().map(|(_, i)| i));
}

/// FNV-1a 64-bit hash: tiny, dependency-free, and stable — exactly what a
/// content-addressed cache key needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue the FNV-1a hash `h` of some bytes over `bytes`: the result
/// is [`fnv1a`] of the two runs joined, so a hash can be fed its bytes as
/// they are produced.
pub(crate) fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Render a float in its shortest round-trip form for canonical keys.
fn f(x: f64) -> String {
    format!("{x:?}")
}

impl WorkloadSpec {
    /// Canonical fragment.
    pub fn canonical(&self) -> String {
        format!(
            "{},r{},i{},o{}",
            self.app.name().to_ascii_lowercase(),
            self.ranks,
            self.iters,
            self.o_ns.map(f).unwrap_or_else(|| "paper".into())
        )
    }
}

impl TopologySpec {
    /// Host capacity, when the topology constrains it.
    pub fn num_nodes(&self) -> Option<u32> {
        match self {
            TopologySpec::Uniform => None,
            TopologySpec::FatTree { k, .. } => Some(k * k * k / 4),
            TopologySpec::Dragonfly {
                groups,
                routers,
                hosts,
                ..
            } => Some(groups * routers * hosts),
        }
    }

    /// Canonical fragment.
    pub fn canonical(&self) -> String {
        match self {
            TopologySpec::Uniform => "uniform".into(),
            TopologySpec::FatTree {
                k,
                l_wire_ns,
                d_switch_ns,
            } => format!("fattree,k{k},w{},d{}", f(*l_wire_ns), f(*d_switch_ns)),
            TopologySpec::Dragonfly {
                groups,
                routers,
                hosts,
                l_wire_ns,
                d_switch_ns,
            } => format!(
                "dragonfly,g{groups},a{routers},p{hosts},w{},d{}",
                f(*l_wire_ns),
                f(*d_switch_ns)
            ),
        }
    }
}

impl ParamsSpec {
    /// Canonical fragment. An `s_bytes` override renders as
    /// `rndv{bytes}`, not the `s{bytes}` of engines that ignored it and
    /// compiled at the preset's threshold, so their entries never answer
    /// for an honoured override; without one it stays `s-`.
    pub fn canonical(&self) -> String {
        format!(
            "{},l{},o{},{}",
            self.preset.name(),
            self.l_ns.map(f).unwrap_or_else(|| "-".into()),
            self.o_ns.map(f).unwrap_or_else(|| "-".into()),
            self.s_bytes
                .map(|s| format!("rndv{s}"))
                .unwrap_or_else(|| "s-".into())
        )
    }
}

/// Canonical fragment of a grid.
pub fn grid_canonical(grid: &GridSpec) -> String {
    let mut s = String::new();
    for d in &grid.deltas_ns {
        let _ = write!(s, "{},", f(*d));
    }
    let _ = write!(s, "hi{}", f(grid.search_hi_ns));
    s
}

/// Canonical fragment of a multi-parameter sweep (axes plus the zone
/// search window).
pub fn axes_canonical(axes: &[AxisSpec], search_hi_ns: f64) -> String {
    let mut s = String::from("axes:");
    for a in axes {
        let _ = write!(s, "{};", a.canonical());
    }
    let _ = write!(s, "hi{}", f(search_hi_ns));
    s
}

/// Canonical fragment of a campaign's sweep: its axes with the zone
/// search window when it has axes ([`axes_canonical`]), else its latency
/// grid ([`grid_canonical`]).
pub fn sweep_canonical(grid: &GridSpec, axes: &[AxisSpec]) -> String {
    if axes.is_empty() {
        grid_canonical(grid)
    } else {
        axes_canonical(axes, grid.search_hi_ns)
    }
}

/// Every field path the spec decoders accept, as documented in
/// `docs/SPEC.md`. The decoders reject unknown keys against the same
/// lists, and a test enumerates this constant against the documentation —
/// adding a field without documenting it fails the build.
pub const SPEC_FIELDS: &[&str] = &[
    "name",
    "reduce",
    "backends",
    "search_hi_ns",
    "workloads",
    "workloads.app",
    "workloads.ranks",
    "workloads.iters",
    "workloads.o_ns",
    "topologies",
    "topologies.kind",
    "topologies.k",
    "topologies.l_wire_ns",
    "topologies.d_switch_ns",
    "topologies.groups",
    "topologies.routers",
    "topologies.hosts",
    "params",
    "params.preset",
    "params.l_ns",
    "params.o_ns",
    "params.s_bytes",
    "grid",
    "grid.deltas_ns",
    "grid.window",
    "grid.window.lo",
    "grid.window.hi",
    "grid.window.points",
    "grid.search_hi_ns",
    "axes",
    "axes.param",
    "axes.deltas",
    "axes.deltas_ns",
    "axes.window",
    "axes.window.lo",
    "axes.window.hi",
    "axes.window.points",
];

/// The keys [`SPEC_FIELDS`] allows directly under `prefix` (`""` for the
/// top level). This is what makes the constant *authoritative*: the
/// unknown-key check ([`check_table`]) derives every allow-list from it,
/// so a field cannot be parseable yet missing from `SPEC_FIELDS` (and
/// hence, via the docs test, from `docs/SPEC.md`).
fn allowed_keys(prefix: &str) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = SPEC_FIELDS
        .iter()
        .filter_map(|f| {
            if prefix.is_empty() {
                (!f.contains('.')).then_some(*f)
            } else {
                f.strip_prefix(prefix)
                    .and_then(|r| r.strip_prefix('.'))
                    .map(|r| r.split('.').next().unwrap())
            }
        })
        .collect();
    out.dedup();
    out
}

/// Reject unknown keys in a decoded table against the [`SPEC_FIELDS`]
/// path `prefix`: a typo in a spec must fail loudly instead of silently
/// selecting a default.
fn check_table(v: &Value, prefix: &str, ctx: &str) -> Result<(), SpecError> {
    let Some(pairs) = v.as_table() else {
        return Ok(());
    };
    let allowed = allowed_keys(prefix);
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(err(format!(
                "unknown key '{k}' in {ctx} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req_array<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], SpecError> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| err(format!("'{key}' must be an array of tables ([[{key}]])")))
}

fn get_f64(v: &Value, key: &str) -> Result<Option<f64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| err(format!("'{key}' must be a number"))),
    }
}

fn get_u32(v: &Value, key: &str) -> Result<Option<u32>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_i64()
            .filter(|i| *i >= 0 && *i <= u32::MAX as i64)
            .map(|i| Some(i as u32))
            .ok_or_else(|| err(format!("'{key}' must be a non-negative integer"))),
    }
}

fn decode_workload(v: &Value) -> Result<WorkloadSpec, SpecError> {
    check_table(v, "workloads", "a [[workloads]] entry")?;
    let app_name = v
        .get("app")
        .and_then(Value::as_str)
        .ok_or_else(|| err("workload needs an 'app' name"))?;
    Ok(WorkloadSpec {
        app: parse_app(app_name)?,
        ranks: get_u32(v, "ranks")?.unwrap_or(8),
        iters: get_u32(v, "iters")?.unwrap_or(2),
        o_ns: get_f64(v, "o_ns")?,
    })
}

fn decode_topology(v: &Value) -> Result<TopologySpec, SpecError> {
    check_table(v, "topologies", "a [[topologies]] entry")?;
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| err("topology needs a 'kind'"))?;
    match kind.to_ascii_lowercase().as_str() {
        "uniform" => Ok(TopologySpec::Uniform),
        "fattree" | "fat-tree" => Ok(TopologySpec::FatTree {
            k: get_u32(v, "k")?.unwrap_or(8),
            l_wire_ns: get_f64(v, "l_wire_ns")?.unwrap_or(274.0),
            d_switch_ns: get_f64(v, "d_switch_ns")?.unwrap_or(108.0),
        }),
        "dragonfly" => Ok(TopologySpec::Dragonfly {
            groups: get_u32(v, "groups")?.unwrap_or(9),
            routers: get_u32(v, "routers")?.unwrap_or(4),
            hosts: get_u32(v, "hosts")?.unwrap_or(2),
            l_wire_ns: get_f64(v, "l_wire_ns")?.unwrap_or(274.0),
            d_switch_ns: get_f64(v, "d_switch_ns")?.unwrap_or(108.0),
        }),
        _ => Err(err(format!(
            "unknown topology kind '{kind}' (expected uniform | fattree | dragonfly)"
        ))),
    }
}

fn decode_params(v: &Value) -> Result<ParamsSpec, SpecError> {
    check_table(v, "params", "a [[params]] entry")?;
    let preset = match v.get("preset").and_then(Value::as_str) {
        None => ParamsPreset::Cscs,
        Some(p) => match p.to_ascii_lowercase().as_str() {
            "cscs" | "cscs-testbed" => ParamsPreset::Cscs,
            "piz-daint" | "pizdaint" | "piz_daint" => ParamsPreset::PizDaint,
            "didactic" => ParamsPreset::Didactic,
            _ => {
                return Err(err(format!(
                    "unknown preset '{p}' (expected cscs | piz-daint | didactic)"
                )))
            }
        },
    };
    Ok(ParamsSpec {
        preset,
        l_ns: get_f64(v, "l_ns")?,
        o_ns: get_f64(v, "o_ns")?,
        s_bytes: v
            .get("s_bytes")
            .map(|x| {
                x.as_i64()
                    .filter(|i| *i >= 0)
                    .map(|i| i as u64)
                    .ok_or_else(|| err("'s_bytes' must be a non-negative integer"))
            })
            .transpose()?,
    })
}

/// Decode a delta list: either an explicit `deltas`/`deltas_ns` array or
/// a `window = { lo, hi, points }` linspace. `None` when the table
/// carries neither; an error when it carries more than one source (a
/// leftover key must fail loudly, not silently lose to the other).
fn decode_deltas(v: &Value, ctx: &str) -> Result<Option<Vec<f64>>, SpecError> {
    let sources: Vec<&str> = ["deltas_ns", "deltas", "window"]
        .into_iter()
        .filter(|k| v.get(k).is_some())
        .collect();
    if sources.len() > 1 {
        return Err(err(format!(
            "{ctx}: '{}' and '{}' are mutually exclusive — give the samples one way",
            sources[0], sources[1]
        )));
    }
    for key in ["deltas_ns", "deltas"] {
        if let Some(list) = v.get(key) {
            let arr = list
                .as_array()
                .ok_or_else(|| err(format!("'{key}' must be an array of numbers")))?;
            let deltas = arr
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| err(format!("'{key}' must be numbers")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Some(deltas));
        }
    }
    if let Some(win) = v.get("window") {
        check_table(win, &format!("{ctx}.window"), &format!("{ctx}.window"))?;
        let lo = get_f64(win, "lo")?.unwrap_or(0.0);
        let hi = get_f64(win, "hi")?.ok_or_else(|| err(format!("{ctx}.window needs 'hi'")))?;
        let points = get_u32(win, "points")?.unwrap_or(9).max(2) as usize;
        if points > MAX_SWEEP_POINTS {
            return Err(err(format!(
                "{ctx}.window.points: {points} exceeds the sweep ceiling of {MAX_SWEEP_POINTS}"
            )));
        }
        if hi <= lo {
            return Err(err(format!("{ctx}.window: hi must exceed lo")));
        }
        return Ok(Some(
            (0..points)
                .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
                .collect(),
        ));
    }
    Ok(None)
}

fn decode_grid(v: Option<&Value>, has_axes: bool) -> Result<GridSpec, SpecError> {
    let default_hi = 2_000_000.0;
    let Some(v) = v else {
        return Ok(GridSpec {
            deltas_ns: if has_axes { vec![] } else { vec![0.0] },
            search_hi_ns: default_hi,
        });
    };
    check_table(v, "grid", "grid")?;
    let search_hi_ns = get_f64(v, "search_hi_ns")?.unwrap_or(default_hi);
    let deltas_ns = decode_deltas(v, "grid")?;
    match (deltas_ns, has_axes) {
        (Some(_), true) => Err(err(
            "a campaign with 'axes' must not also declare grid deltas; \
             put the L samples in an axes entry with param = \"L\"",
        )),
        (None, true) => Ok(GridSpec {
            deltas_ns: vec![],
            search_hi_ns,
        }),
        (Some(deltas_ns), false) => Ok(GridSpec {
            deltas_ns,
            search_hi_ns,
        }),
        (None, false) => Err(err(
            "grid needs either 'deltas_ns' or 'window = { lo, hi, points }'",
        )),
    }
}

fn decode_axis(v: &Value) -> Result<AxisSpec, SpecError> {
    check_table(v, "axes", "an [[axes]] entry")?;
    let name = v
        .get("param")
        .and_then(Value::as_str)
        .ok_or_else(|| err("axis needs a 'param' (\"L\", \"G\" or \"o\")"))?;
    let param = SweepParam::parse(name)
        .ok_or_else(|| err(format!("unknown axis param '{name}' (expected L | G | o)")))?;
    let deltas = decode_deltas(v, "axes")?.ok_or_else(|| {
        err("axis needs either 'deltas' (ns; ns/byte for G) or 'window = { lo, hi, points }'")
    })?;
    Ok(AxisSpec { param, deltas })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
name = "t"
backends = ["eval", "parametric", "eval"]

[grid]
deltas_ns = [10000.0, 0.0, 10000.0]
search_hi_ns = 1e6

[[workloads]]
app = "milc"
ranks = 8

[[workloads]]
app = "lulesh"
ranks = 8
"#;

    #[test]
    fn canonicalization_sorts_and_dedups() {
        let spec = CampaignSpec::parse(SPEC, "x.toml").unwrap();
        assert_eq!(spec.backends, vec![Backend::Parametric, Backend::Eval]);
        assert_eq!(spec.grid.deltas_ns, vec![0.0, 10_000.0]);
        assert_eq!(spec.workloads[0].app.name(), "LULESH");
    }

    #[test]
    fn hash_is_order_independent_and_syntax_independent() {
        let a = CampaignSpec::parse(SPEC, "x.toml").unwrap();
        // Same sweep, written in JSON and in another order.
        let json = r#"{
            "workloads": [{"app": "lulesh", "ranks": 8}, {"app": "milc", "ranks": 8}],
            "grid": {"search_hi_ns": 1000000.0, "deltas_ns": [0.0, 10000.0]},
            "backends": ["parametric", "eval"],
            "name": "t"
        }"#;
        let b = CampaignSpec::parse(json, "x.json").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        // A typo must fail loudly, not silently pick a default.
        for bad in [
            "name = \"t\"\ngrids = 1\n[[workloads]]\napp = \"milc\"\n",
            "name = \"t\"\n[[workloads]]\napp = \"milc\"\nrank = 8\n",
            "name = \"t\"\n[grid]\ndeltas = [0.0]\n[[workloads]]\napp = \"milc\"\n",
            "name = \"t\"\n[[axes]]\nparam = \"L\"\ndelta = [0.0]\n[[workloads]]\napp = \"milc\"\n",
        ] {
            let err = CampaignSpec::parse(bad, "x.toml").unwrap_err();
            assert!(
                err.0.contains("unknown key") || err.0.contains("needs"),
                "{err}"
            );
        }
    }

    #[test]
    fn axes_and_grid_deltas_are_mutually_exclusive() {
        let bad = r#"
name = "t"
[grid]
deltas_ns = [0.0]
[[axes]]
param = "G"
deltas = [0.0]
[[workloads]]
app = "milc"
"#;
        assert!(CampaignSpec::parse(bad, "x.toml").is_err());
        // Duplicate axis params are rejected.
        let dup = r#"
name = "t"
[[axes]]
param = "L"
deltas_ns = [0.0]
[[axes]]
param = "L"
deltas_ns = [10.0]
[[workloads]]
app = "milc"
"#;
        assert!(CampaignSpec::parse(dup, "x.toml").is_err());
    }

    #[test]
    fn conflicting_delta_sources_are_rejected() {
        // Two ways of giving the samples in one table must error, not
        // silently prefer one.
        for bad in [
            "name = \"t\"\n[grid]\ndeltas_ns = [0.0]\nwindow = { hi = 10.0 }\n[[workloads]]\napp = \"milc\"\n",
            "name = \"t\"\n[[axes]]\nparam = \"L\"\ndeltas = [0.0]\ndeltas_ns = [1.0]\n[[workloads]]\napp = \"milc\"\n",
            "name = \"t\"\n[[axes]]\nparam = \"G\"\ndeltas = [0.0]\nwindow = { hi = 1.0 }\n[[workloads]]\napp = \"milc\"\n",
            "name = \"t\"\nsearch_hi_ns = 2e6\n[grid]\ndeltas_ns = [0.0]\nsearch_hi_ns = 5e5\n[[workloads]]\napp = \"milc\"\n",
        ] {
            let err = CampaignSpec::parse(bad, "x.toml").unwrap_err();
            assert!(err.0.contains("mutually exclusive"), "{err}");
        }
    }

    #[test]
    fn decoder_allow_lists_derive_from_spec_fields() {
        // The unknown-key checks must stay in lockstep with SPEC_FIELDS
        // (which the docs test in turn checks against docs/SPEC.md).
        assert_eq!(
            allowed_keys(""),
            vec![
                "name",
                "reduce",
                "backends",
                "search_hi_ns",
                "workloads",
                "topologies",
                "params",
                "grid",
                "axes"
            ]
        );
        assert_eq!(
            allowed_keys("workloads"),
            vec!["app", "ranks", "iters", "o_ns"]
        );
        assert_eq!(
            allowed_keys("grid"),
            vec!["deltas_ns", "window", "search_hi_ns"]
        );
        assert_eq!(allowed_keys("grid.window"), vec!["lo", "hi", "points"]);
        assert_eq!(
            allowed_keys("axes"),
            vec!["param", "deltas", "deltas_ns", "window"]
        );
    }

    #[test]
    fn axis_windows_expand_like_grid_windows() {
        let spec = CampaignSpec::parse(
            r#"
name = "t"
[[axes]]
param = "G"
window = { lo = 0.0, hi = 0.1, points = 3 }
[[workloads]]
app = "milc"
"#,
            "x.toml",
        )
        .unwrap();
        assert_eq!(spec.axes.len(), 1);
        assert_eq!(spec.axes[0].param, SweepParam::G);
        assert_eq!(spec.axes[0].deltas, vec![0.0, 0.05, 0.1]);
        assert!(spec.grid.deltas_ns.is_empty());
    }

    /// A one-workload spec whose sweep is `sweep` (TOML lines).
    fn sweep_spec(sweep: &str) -> Result<CampaignSpec, SpecError> {
        CampaignSpec::parse(
            &format!("{sweep}\n[[workloads]]\napp = \"milc\"\n"),
            "x.toml",
        )
    }

    #[test]
    fn a_window_above_the_sweep_ceiling_fails_before_it_is_generated() {
        // Four billion samples would be 32 GB of deltas: the ceiling
        // rejects the count before one is generated.
        let e = sweep_spec("[grid]\nwindow = { hi = 1.0, points = 4000000000 }").unwrap_err();
        assert!(e.0.contains("grid.window.points"), "{e}");
        let e = sweep_spec("[[axes]]\nparam = \"G\"\nwindow = { hi = 1.0, points = 1000001 }")
            .unwrap_err();
        assert!(e.0.contains("axes.window.points"), "{e}");
        let at = sweep_spec("[grid]\nwindow = { hi = 1.0, points = 1000000 }").unwrap();
        assert_eq!(at.grid.deltas_ns.len(), MAX_SWEEP_POINTS);
    }

    #[test]
    fn an_axes_product_above_the_sweep_ceiling_fails_typed() {
        // Each axis is small; their product, 8·10⁹ tuples, is not.
        let axis = |p: &str| {
            format!("[[axes]]\nparam = \"{p}\"\nwindow = {{ hi = 1.0, points = 2000 }}\n")
        };
        let e = sweep_spec(&format!("{}{}{}", axis("L"), axis("G"), axis("o"))).unwrap_err();
        assert!(e.0.contains("axes: lengths [2000, 2000, 2000]"), "{e}");
        // 1000 x 1000 is exactly the ceiling.
        let at = sweep_spec(&format!("{}{}", axis("L"), axis("G")).replace("2000", "1000"));
        assert!(at.is_ok());
    }

    #[test]
    fn an_explicit_grid_above_the_sweep_ceiling_fails_typed() {
        let mut spec = sweep_spec("[grid]\ndeltas_ns = [0.0]").unwrap();
        spec.grid.deltas_ns = vec![0.0; MAX_SWEEP_POINTS + 1];
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains("grid.deltas_ns"), "{e}");
    }

    #[test]
    fn validation_rejects_oversubscribed_topology() {
        let bad = r#"
name = "bad"
[[workloads]]
app = "hpcg"
ranks = 64
[[topologies]]
kind = "dragonfly"
groups = 2
routers = 2
hosts = 2
"#;
        assert!(CampaignSpec::parse(bad, "x.toml").is_err());
    }
}

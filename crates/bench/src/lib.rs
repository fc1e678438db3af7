//! # llamp-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see `src/bin/`), sharing the
//! plumbing in this library: building graphs from the workload proxies,
//! producing "measured" runtimes from the simulator under the delay-thread
//! injector with noise, sweeping `∆L` in parallel, and rendering aligned
//! text tables plus optional JSON for downstream tooling.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig01_tolerance_zones` | Fig. 1 — tolerance zones of MILC/LULESH/ICON |
//! | `tab01_solver_vs_sim` | Fig. 7 / Table I — LP vs. LogGOPSim runtime |
//! | `fig08_injector` | Fig. 8 — injector designs B/C/D vs. intended |
//! | `fig09_validation` | Fig. 9 + Table II — measured vs. predicted, λ_L, ρ_L, RMSE |
//! | `fig10_icon_collectives` | Fig. 10 — recursive doubling vs. ring allreduce |
//! | `fig11_icon_topologies` | Fig. 11 — Fat Tree vs. Dragonfly wire latency |
//! | `fig12_namd_charm` | Fig. 12 — charm++ adaptive traces |
//! | `fig16_critical_latencies` | Fig. 16 / Algorithm 2 walk-through |
//! | `fig20_rank_placement` | Fig. 20 — placement vs. block and Scotch-like |
//! | `abl_backends` | ablation: simplex vs. parametric vs. evaluation |
//! | `abl_presolve` | ablation: chain contraction on/off |
//! | `abl_protocol` | ablation: eager/rendezvous crossover at `S` |
//! | `abl_reduction` | ablation: graph reduction pipeline on/off (rows, makespan/λ agreement, anchor time) |
//! | `bench_json` | machine-readable cold-anchor / crash-start sweep trajectory (`BENCH_lp.json`) |

use llamp_core::Analyzer;
use llamp_engine::{
    run_campaign, AxisSpec, Backend, CampaignResult, CampaignSpec, ExecutorConfig, GridSpec,
    ParamsPreset, ParamsSpec, ResultCache, RunSummary, SweepParam, TopologySpec, WorkloadSpec,
};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
use llamp_sim::{NoiseConfig, SimConfig, Simulator};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::stats;
use llamp_workloads::App;

/// Everything needed to analyse one application configuration.
pub struct Experiment {
    /// Application label.
    pub name: String,
    /// Execution graph (uncontracted; the analyzer contracts internally).
    pub graph: ExecGraph,
    /// Network parameters (with the app-matched `o`).
    pub params: LogGPSParams,
}

impl Experiment {
    /// Build an experiment from a workload app at `ranks` ranks.
    pub fn from_app(app: App, ranks: u32, iters: usize) -> Self {
        let set = app.programs(ranks, iters);
        let graph = graph_of(&set);
        let params = LogGPSParams::cscs_testbed(ranks).with_o(app.paper_o());
        Self {
            name: format!("{} {} ranks", app.name(), ranks),
            graph,
            params,
        }
    }

    /// The analyzer for this experiment.
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::new(&self.graph, &self.params)
    }

    /// A "measured" runtime: the DES under the delay-thread injector with
    /// quiet noise, averaged over `runs` seeds (the paper averages 10 runs
    /// per `∆L`; the defaults here keep harnesses fast).
    pub fn measure(&self, delta_l: f64, runs: usize) -> f64 {
        let mut acc = stats::Accumulator::new();
        for seed in 0..runs {
            let cfg = SimConfig::ideal(self.params)
                .with_delta_l(delta_l)
                .with_noise(NoiseConfig::quiet(0xC0FFEE + seed as u64));
            acc.push(Simulator::new(&self.graph, cfg).run().makespan);
        }
        acc.mean()
    }
}

/// Trace + compile a program set with the paper's `S = 256 KiB`.
pub fn graph_of(set: &ProgramSet) -> ExecGraph {
    build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper())
        .expect("workload builds")
}

/// Trace + compile with a custom configuration.
pub fn graph_of_with(set: &ProgramSet, cfg: &GraphConfig) -> ExecGraph {
    build_graph(&set.trace(&TracerConfig::default()), cfg).expect("workload builds")
}

/// An engine latency grid: `points` evenly spaced `∆L` samples over
/// `[lo, hi]` (ns) with a tolerance search window of `search_hi` ns.
pub fn campaign_grid(lo: f64, hi: f64, points: usize, search_hi: f64) -> GridSpec {
    GridSpec {
        deltas_ns: linspace(lo, hi, points),
        search_hi_ns: search_hi,
    }
}

/// Build and run an engine campaign over `(app, ranks, iters)` workloads
/// with the given backends on the uniform-latency topology under the CSCS
/// test-bed preset — the harnesses' standard sweep shape. Runs on all
/// cores with a fresh cache.
pub fn run_app_campaign(
    apps: &[(App, u32, usize)],
    backends: &[Backend],
    grid: GridSpec,
) -> (CampaignResult, RunSummary) {
    let spec = app_campaign_spec(apps, backends, grid);
    run_campaign(&spec, &ExecutorConfig::default(), &ResultCache::new())
}

/// The spec behind [`run_app_campaign`], for harnesses that need to
/// customise topologies or reuse a cache.
pub fn app_campaign_spec(
    apps: &[(App, u32, usize)],
    backends: &[Backend],
    grid: GridSpec,
) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "bench".into(),
        workloads: apps
            .iter()
            .map(|&(app, ranks, iters)| WorkloadSpec {
                app,
                ranks,
                iters: iters as u32,
                o_ns: None,
            })
            .collect(),
        topologies: vec![TopologySpec::Uniform],
        params: vec![ParamsSpec {
            preset: ParamsPreset::Cscs,
            l_ns: None,
            o_ns: None,
            s_bytes: None,
        }],
        backends: backends.to_vec(),
        grid,
        axes: vec![],
        reduce: true,
    };
    spec.canonicalize();
    spec
}

/// An engine sweep axis: `points` evenly spaced deltas over `[lo, hi]`
/// for one LogGPS parameter (`L`/`o` in ns, `G` in ns/byte).
pub fn campaign_axis(param: SweepParam, lo: f64, hi: f64, points: usize) -> AxisSpec {
    AxisSpec {
        param,
        deltas: linspace(lo, hi, points),
    }
}

/// Build a multi-parameter (axes) campaign over `(app, ranks, iters)`
/// workloads — the harnesses' standard shape, but sweeping the cartesian
/// product of the given axes instead of a latency grid.
pub fn app_campaign_axes_spec(
    apps: &[(App, u32, usize)],
    backends: &[Backend],
    axes: Vec<AxisSpec>,
    search_hi: f64,
) -> CampaignSpec {
    let mut spec = app_campaign_spec(
        apps,
        backends,
        GridSpec {
            deltas_ns: vec![],
            search_hi_ns: search_hi,
        },
    );
    spec.axes = axes;
    spec.canonicalize();
    spec
}

/// Evenly spaced sweep points `lo..=hi`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Simple fixed-width text table writer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a nanosecond quantity in microseconds with 1 decimal.
pub fn us1(ns: f64) -> String {
    if ns.is_infinite() {
        "inf".into()
    } else {
        format!("{:.1}", ns / 1_000.0)
    }
}

/// Format a nanosecond quantity in seconds with 3 decimals.
pub fn s3(ns: f64) -> String {
    format!("{:.3}", ns / 1e9)
}

/// Format a ratio as a percentage with 2 decimals.
pub fn pct2(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 10.0, 6);
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[5], 10.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("a"));
        assert!(s.contains("---"));
    }

    #[test]
    fn experiment_builds_and_measures() {
        let e = Experiment::from_app(App::Cloverleaf, 4, 2);
        let a = e.analyzer();
        let pred = a.baseline_runtime();
        let meas = e.measure(0.0, 2);
        // Measured (noisy, CPU-serialised) is near but above prediction.
        assert!(meas >= pred * 0.99, "meas {meas} pred {pred}");
        assert!(meas <= pred * 1.5, "meas {meas} pred {pred}");
    }
}

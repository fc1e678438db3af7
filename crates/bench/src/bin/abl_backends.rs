//! Ablation: the three analysis backends on identical questions — driven
//! as `llamp-engine` campaigns.
//!
//! One campaign per backend sweeps all applications in parallel over the
//! same latency grid; the campaign results are then cross-compared
//! point-for-point. Because scenario results are deterministic and
//! cache-addressed, the agreement check is exactly the engine's
//! cross-backend contract: all three must predict the same `T(L)`.

use llamp_bench::{app_campaign_spec, campaign_grid, graph_of, Table};
use llamp_core::{Binding, GraphLp};
use llamp_engine::{run_campaign, Backend, ExecutorConfig, ResultCache, ScenarioResult};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use llamp_workloads::App;
use std::time::Instant;

fn main() {
    let ranks = 8u32;
    let iters = 2usize;
    println!("# Ablation — simplex vs. parametric vs. direct evaluation (engine campaigns)\n");

    // Probe model sizes once for the table. The probe's graphs are
    // discarded and each campaign rebuilds its own per scenario — the
    // engine owns graph construction so results stay cache-addressable —
    // which keeps the wall-clock column comparable across backends (every
    // campaign pays the identical build cost) at the price of redundant
    // construction in this harness.
    let mut rows_of = Vec::new();
    for app in App::ALL {
        let graph = graph_of(&app.programs(ranks, iters)).contracted();
        let params = LogGPSParams::cscs_testbed(ranks).with_o(app.paper_o());
        let lp = GraphLp::build(&graph, &Binding::uniform(&params));
        rows_of.push((app, lp.model().num_constraints()));
    }

    let all: Vec<(App, u32, usize)> = App::ALL.iter().map(|&a| (a, ranks, iters)).collect();
    let grid = || campaign_grid(0.0, us(60.0), 3, us(2_000.0));

    // One campaign per backend, individually timed. Fresh caches keep the
    // timing honest (no cross-backend reuse — keys differ per backend
    // anyway).
    let mut campaigns = Vec::new();
    for backend in [Backend::Eval, Backend::Parametric, Backend::Lp] {
        let spec = app_campaign_spec(&all, &[backend], grid());
        let t0 = Instant::now();
        let (result, summary) =
            run_campaign(&spec, &ExecutorConfig::default(), &ResultCache::new());
        campaigns.push((backend, result, summary, t0.elapsed().as_secs_f64() * 1e3));
    }

    let find = |backend: Backend, app: App| -> Option<&ScenarioResult> {
        campaigns
            .iter()
            .find(|(b, ..)| *b == backend)
            .and_then(|(_, r, ..)| {
                r.scenarios
                    .iter()
                    .find(|s| s.scenario.workload.app == app && s.outcome.is_ok())
            })
    };

    let mut t = Table::new(&["app", "LP rows", "max |ΔT|/T", "λ agree"]);
    for &(app, rows) in &rows_of {
        let eval = find(Backend::Eval, app).expect("eval campaign covers all apps");
        let envl = find(Backend::Parametric, app).expect("parametric campaign covers all apps");
        let lp = find(Backend::Lp, app).expect("lp campaign covers all apps");
        let pe = &eval.outcome.as_ref().unwrap().sweep;
        let pp = &envl.outcome.as_ref().unwrap().sweep;
        let pl = &lp.outcome.as_ref().unwrap().sweep;

        let mut max_rel = 0.0f64;
        let mut lambda_ok = true;
        for i in 0..pe.len() {
            let base = pe[i].runtime_ns.max(1.0);
            max_rel = max_rel.max((pp[i].runtime_ns - pe[i].runtime_ns).abs() / base);
            max_rel = max_rel.max((pl[i].runtime_ns - pe[i].runtime_ns).abs() / base);
            // λ: envelope (right derivative) vs. evaluation; the LP may
            // legitimately return another subgradient at breakpoints.
            if (pp[i].lambda - pe[i].lambda).abs() > 1e-6 {
                lambda_ok = false;
            }
        }
        t.row(vec![
            app.name().into(),
            rows.to_string(),
            format!("{max_rel:.2e}"),
            if lambda_ok { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();

    println!("\n## Campaign costs (all applications batched per backend)");
    let mut ct = Table::new(&["backend", "scenarios", "points", "wall [ms]"]);
    for (backend, result, summary, ms) in &campaigns {
        let points: usize = result
            .scenarios
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .map(|o| o.sweep.len())
            .sum();
        ct.row(vec![
            backend.name().into(),
            summary.jobs_unique.to_string(),
            points.to_string(),
            format!("{ms:.1}"),
        ]);
    }
    ct.print();
    println!(
        "\nThe envelope backend answers the whole interval in one pass; the \
         simplex additionally provides duals/ranging; evaluation extracts \
         the critical path itself."
    );
}

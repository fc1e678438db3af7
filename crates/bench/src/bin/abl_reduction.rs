//! Ablation: the graph reduction pipeline on vs. off, per workload.
//!
//! For every bundled application proxy (8 ranks, 1 iteration — the
//! `bench_json` shape) this runs the full reduction pipeline and checks
//! the contract the engine relies on: the reduced graph predicts the
//! **same makespan and the same λ_L** (to 1e-9) at every probe latency,
//! while the Algorithm-1 LP shrinks by the reported row factor and the
//! cold anchor solve gets correspondingly cheaper. The agreement columns
//! are *asserted*, not just printed, so the CI smoke run of this binary
//! is a real end-to-end check.
//!
//! ```text
//! cargo run --release -p llamp-bench --bin abl_reduction
//! ```

use llamp_bench::{graph_of, Table};
use llamp_core::{evaluate, Binding, GraphLp, ReduceConfig};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use llamp_workloads::App;
use std::time::Instant;

fn main() {
    let ranks = 8u32;
    let iters = 1usize;
    println!("# Ablation — graph reduction pipeline on/off (ranks = {ranks}, iters = {iters})\n");
    let mut t = Table::new(&[
        "app",
        "verts raw",
        "verts red",
        "rows raw",
        "rows red",
        "rows x",
        "|dT|/T",
        "|dλ|",
        "anchor raw [ms]",
        "anchor red [ms]",
    ]);

    let probes = [0.0, 1_717.0, us(30.0), us(250.0), us(2_000.0)];
    for app in App::ALL {
        let raw = graph_of(&app.programs(ranks, iters));
        let reduced = raw.reduced(&ReduceConfig::default());
        let stats = *reduced.stats();
        let params = LogGPSParams::cscs_testbed(ranks).with_o(app.paper_o());
        let binding = Binding::uniform(&params);

        // Makespan + λ agreement at every probe latency (asserted).
        let mut max_dt = 0.0f64;
        let mut max_dl = 0.0f64;
        for &l in &probes {
            let a = evaluate(&raw, &binding, l);
            let b = evaluate(reduced.graph(), &binding, l);
            let dt = (a.runtime - b.runtime).abs() / (1.0 + a.runtime);
            let dl = (a.lambda - b.lambda).abs();
            assert!(
                dt <= 1e-9,
                "{}: makespan diverged at L={l}: raw {} vs reduced {}",
                app.name(),
                a.runtime,
                b.runtime
            );
            assert!(
                dl <= 1e-9,
                "{}: λ_L diverged at L={l}: raw {} vs reduced {}",
                app.name(),
                a.lambda,
                b.lambda
            );
            max_dt = max_dt.max(dt);
            max_dl = max_dl.max(dl);
        }

        // Cold sparse anchors on both formulations (best of three).
        let anchor_ms = |graph: &llamp_schedgen::ExecGraph| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let mut lp = GraphLp::build(graph, &binding);
                let t0 = Instant::now();
                let p = lp.predict(params.l).expect("anchor solves");
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                assert!(p.runtime.is_finite());
            }
            best
        };
        let raw_ms = anchor_ms(&raw);
        let red_ms = anchor_ms(reduced.graph());

        t.row(vec![
            app.name().into(),
            stats.vertices_before.to_string(),
            stats.vertices_after.to_string(),
            stats.rows_before.to_string(),
            stats.rows_after.to_string(),
            format!("{:.2}", stats.rows_before as f64 / stats.rows_after as f64),
            format!("{max_dt:.1e}"),
            format!("{max_dl:.1e}"),
            format!("{raw_ms:.3}"),
            format!("{red_ms:.3}"),
        ]);
    }
    t.print();
    println!(
        "\nAll makespan/λ_L agreement columns are asserted <= 1e-9; the pipeline is\n\
         makespan-preserving by construction (chain contraction, cost-pushing folds,\n\
         and redundant-dependency elimination are exact max-plus identities)."
    );
}

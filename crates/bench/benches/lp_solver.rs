//! Criterion: LP solver costs on graph-shaped models.
//!
//! Measures (a) Algorithm 1 model construction, (b) a repeated predict at
//! one latency, (c) the parametric envelope pass, (d) a 5% tolerance
//! zone (the Newton walk over crash-started points, whose last point is
//! the zone), (e) the cold anchor solve, and (f) a 64-point latency
//! sweep. Every solve starts from the longest-path crash basis at its own
//! point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llamp_bench::{graph_of, linspace};
use llamp_core::{Binding, GraphLp, ParametricProfile};
use llamp_model::LogGPSParams;
use llamp_schedgen::ExecGraph;
use llamp_util::time::us;
use llamp_workloads::App;
use std::hint::black_box;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solver");
    for iters in [1usize, 2, 4] {
        let graph = graph_of(&App::Cloverleaf.programs(8, iters)).contracted();
        let params = LogGPSParams::cscs_testbed(8).with_o(us(6.1));
        let binding = Binding::uniform(&params);

        group.bench_with_input(
            BenchmarkId::new("build_algorithm1", graph.num_vertices()),
            &graph,
            |b, g| b.iter(|| black_box(GraphLp::build(g, &binding))),
        );

        // Repeated predicts at one latency on one instance.
        group.bench_with_input(
            BenchmarkId::new("predict_repeat", graph.num_vertices()),
            &graph,
            |b, g| {
                let mut lp = GraphLp::build(g, &binding);
                b.iter(|| black_box(lp.predict(params.l).unwrap().runtime))
            },
        );

        group.bench_with_input(
            BenchmarkId::new("parametric_envelope", graph.num_vertices()),
            &graph,
            |b, g| b.iter(|| black_box(ParametricProfile::compute(g, &binding, (0.0, us(1000.0))))),
        );
    }
    group.finish();
}

fn bench_tolerance(c: &mut Criterion) {
    let graph = graph_of(&App::Milc.programs(8, 2)).contracted();
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let mut lp = GraphLp::build(&graph, &binding);
    let t0 = lp.predict(params.l).unwrap().runtime;

    let top = params.l + us(2000.0);
    c.bench_function("lp_tolerance_walk", |b| {
        b.iter(|| black_box(lp.tolerance(params.l, top, t0 * 1.05).unwrap()))
    });
}

/// One full latency sweep, each point from its own crash basis.
fn sweep(graph: &ExecGraph, binding: &Binding, deltas: &[f64]) -> f64 {
    let mut lp = GraphLp::build(graph, binding);
    deltas.iter().map(|&d| lp.predict(d).unwrap().runtime).sum()
}

/// A 64-point latency sweep on the smallest and the largest bundled
/// workload by LP row count at 8 ranks.
fn bench_sweep64(c: &mut Criterion) {
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let deltas = linspace(0.0, us(60.0), 64);

    let mut sized: Vec<(App, ExecGraph, usize)> = App::ALL
        .iter()
        .map(|&app| {
            let g = graph_of(&app.programs(8, 1)).contracted();
            let rows = GraphLp::build(&g, &binding).model().num_constraints();
            (app, g, rows)
        })
        .collect();
    sized.sort_by_key(|&(_, _, rows)| rows);

    let mut group = c.benchmark_group("sweep64");
    group.sample_size(2);
    for (app, graph, rows) in [sized.first().unwrap(), sized.last().unwrap()] {
        let label = format!("{}_{}rows", app.name(), rows);
        group.bench_with_input(BenchmarkId::new("crash", &label), graph, |b, g| {
            b.iter(|| black_box(sweep(g, &binding, &deltas)))
        });
    }
    group.finish();
}

/// The cold anchor solve in isolation: one fresh solver, one solve at the
/// base latency from the longest-path crash basis.
fn bench_cold_anchor(c: &mut Criterion) {
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let mut group = c.benchmark_group("cold_anchor");
    group.sample_size(5);
    for app in [App::Lulesh, App::Hpcg] {
        let graph = graph_of(&app.programs(8, 1)).contracted();
        let rows = GraphLp::build(&graph, &binding).model().num_constraints();
        let label = format!("{}_{}rows", app.name(), rows);
        group.bench_with_input(BenchmarkId::new("sparse", &label), &graph, |b, g| {
            b.iter(|| {
                let mut lp = GraphLp::build(g, &binding);
                black_box(lp.predict(params.l).unwrap().runtime)
            })
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_lp, bench_tolerance, bench_cold_anchor, bench_sweep64
}
criterion_main!(benches);

//! Machine-readable LP solver benchmark: cold anchor solves and 64-point
//! sweeps per workload, written to `BENCH_lp.json` so the perf trajectory
//! is tracked across PRs (append-friendly: one self-contained JSON file
//! per run, overwritten in place).
//!
//! ```text
//! cargo run --release -p llamp-bench --bin bench_json [-- --out FILE]
//! ```
//!
//! For each bundled workload (8 ranks, 1 iteration — the `sweep64` bench
//! shape) it reports the Algorithm-1 LP rows of the **raw** graph vs the
//! **reduced** graph (the graph-reduction pipeline is the engine's
//! default), per-stage wall clocks for trace ingestion and graph
//! reduction (best of three fresh builds), the *cold* anchor solve on the
//! reduced LP and its iteration count, a 64-point sweep solved the way
//! the engine does — every point from its own longest-path crash basis,
//! with the sweep's factorisations by kind (`triangular_factors`,
//! `lu_factors`) — and the engine's 1/2/5% tolerance zones over a 2 ms
//! window (`zones_ms`, plus the `zone_steps` the three Newton walks
//! took). The two large tiers (`large_trace`, `large_lp`; skipped with
//! `--skip-large`) time the same stages on a ~10⁶-vertex LULESH and
//! report the median of three repetitions.

use llamp_bench::{graph_of, linspace};
use llamp_core::{Binding, GraphLp, ReduceConfig};
use llamp_model::LogGPSParams;
use llamp_schedgen::{builder_of_programs, GraphConfig};
use llamp_util::time::us;
use llamp_workloads::App;
use std::time::Instant;

struct Row {
    workload: &'static str,
    rows_raw: u64,
    rows_reduced: u64,
    ingest_ms: f64,
    reduce_ms: f64,
    cold_anchor_ms: f64,
    cold_iterations: u64,
    sweep_ms: f64,
    /// Factorisations the 64-point sweep ran: triangular, LU.
    factors: (u64, u64),
    zones_ms: f64,
    zone_steps: u64,
}

/// Tolerance-zone search window above the base latency (the engine's
/// default `search_hi_ns`).
const ZONE_WINDOW_NS: f64 = 2_000_000.0;

/// The engine's zones on `lp`: the crash-started baseline at `base`,
/// then the 1/2/5% walks from it. Returns the three walks' wall clock
/// (ms) and their summed `lp.zone_steps`.
fn zones(lp: &mut GraphLp, base: f64) -> (f64, u64) {
    let p = lp.predict(base).expect("baseline solves");
    let floor = (p.runtime, p.lambda);
    llamp_obs::enable();
    let t = Instant::now();
    for pct in [1.0, 2.0, 5.0] {
        let cap = p.runtime * (1.0 + pct / 100.0);
        lp.tolerance_from(base, floor, base + ZONE_WINDOW_NS, cap)
            .expect("zone solves");
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let steps = llamp_obs::take()
        .hists
        .get("lp.zone_steps")
        .map_or(0, |h| h.sum());
    llamp_obs::disable();
    (ms, steps)
}

/// Factorisations `lp` has run so far: triangular, LU.
fn factors(lp: &GraphLp) -> (u64, u64) {
    let s = lp.solver_stats();
    (s.triangular_factors, s.lu_factors)
}

/// One repetition of the large tier: wall clocks (ms) and the counts
/// every repetition must reproduce — vertices, edges, raw and reduced
/// rows, anchor iterations, the serial sweep's triangular and LU
/// factorisations, and the zones' walk steps.
struct Large {
    ingest_ms: f64,
    reduce_ms: f64,
    cold_anchor_ms: f64,
    sweep_ms_t1: f64,
    sweep_ms: f64,
    sweep_threads: usize,
    zones_ms: f64,
    counts: [u64; 8],
}

/// Build, reduce and solve the large LULESH shape once; the graph is
/// dropped on return.
fn large_tier(set: &llamp_trace::ProgramSet, deltas: &[f64]) -> Large {
    let t_ingest = Instant::now();
    let builder = builder_of_programs(set, &GraphConfig::paper()).expect("workload builds");
    let ingest_ms = t_ingest.elapsed().as_secs_f64() * 1e3;

    let t_reduce = Instant::now();
    let rn = builder
        .finish_reduced(&ReduceConfig::default())
        .expect("workload reduces");
    let reduce_ms = t_reduce.elapsed().as_secs_f64() * 1e3;

    let params_l = LogGPSParams::cscs_testbed(set.nranks).with_o(us(6.0));
    let binding_l = Binding::uniform(&params_l);
    let graph = rn.graph();
    let mut lp = GraphLp::build(graph, &binding_l);
    let t_cold = Instant::now();
    let anchor = lp.predict(params_l.l).expect("large anchor solves");
    let cold_anchor_ms = t_cold.elapsed().as_secs_f64() * 1e3;

    // Serial crash-start sweep.
    let before = factors(&lp);
    let t_sweep = Instant::now();
    let mut runtimes_t1 = Vec::with_capacity(deltas.len());
    for &d in deltas {
        runtimes_t1.push(
            lp.predict(params_l.l + d)
                .expect("large sweep point solves")
                .runtime,
        );
    }
    let sweep_ms_t1 = t_sweep.elapsed().as_secs_f64() * 1e3;
    let after = factors(&lp);

    // The same sweep sharded across the work-stealing executor with
    // per-worker solver clones — the engine's intra-scenario path.
    let sweep_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk_len = deltas.len().div_ceil(sweep_threads);
    let chunks: Vec<Vec<f64>> = deltas.chunks(chunk_len).map(<[f64]>::to_vec).collect();
    let cfg = llamp_engine::ExecutorConfig {
        threads: sweep_threads,
        job_timeout: None,
        max_retries: 0,
    };
    let t_shard = Instant::now();
    let outs = llamp_engine::run_jobs(&cfg, chunks, |chunk: &Vec<f64>| {
        let mut lp = GraphLp::build(graph, &binding_l);
        let mut rts = Vec::with_capacity(chunk.len());
        for &d in chunk {
            rts.push(
                lp.predict(params_l.l + d)
                    .expect("large sweep point solves")
                    .runtime,
            );
        }
        rts
    });
    let sweep_ms = t_shard.elapsed().as_secs_f64() * 1e3;
    let runtimes_tn: Vec<f64> = outs
        .into_iter()
        .flat_map(|s| s.ok().expect("sweep shard completes"))
        .collect();
    assert_eq!(
        runtimes_t1.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        runtimes_tn.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        "sharded sweep diverged from serial between 1 and {sweep_threads} workers"
    );
    let (zones_ms, zone_steps) = zones(&mut lp, params_l.l);
    let s = rn.stats();
    Large {
        ingest_ms,
        reduce_ms,
        cold_anchor_ms,
        sweep_ms_t1,
        sweep_ms,
        sweep_threads,
        zones_ms,
        counts: [
            s.vertices_before,
            s.edges_before,
            s.rows_before,
            s.rows_after,
            anchor.iterations,
            after.0 - before.0,
            after.1 - before.1,
            zone_steps,
        ],
    }
}

/// The median of an odd number of samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    llamp_util::tune_for_large_traces();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_lp.json".to_string();
    let mut skip_large = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--skip-large" => skip_large = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let deltas = linspace(0.0, us(60.0), 64);

    let mut rows: Vec<Row> = Vec::new();
    for app in App::ALL {
        // Per-stage wall clocks: trace replay + graph compile (ingest),
        // then the makespan-preserving contraction passes (reduce). Best
        // of three fresh builds, as for the cold anchor below: a single
        // build's timing moves with noise more than with code.
        let (mut ingest_ms, mut reduce_ms) = (f64::INFINITY, f64::INFINITY);
        let mut reduced = None;
        for _ in 0..3 {
            let t_ingest = Instant::now();
            let raw = graph_of(&app.programs(8, 1));
            ingest_ms = ingest_ms.min(t_ingest.elapsed().as_secs_f64() * 1e3);
            let t_reduce = Instant::now();
            reduced = Some(raw.reduced(&ReduceConfig::default()));
            reduce_ms = reduce_ms.min(t_reduce.elapsed().as_secs_f64() * 1e3);
        }
        let reduced = reduced.expect("three builds ran");
        let stats = *reduced.stats();
        let graph = reduced.graph();
        let num_rows = GraphLp::build(graph, &binding).model().num_constraints();
        assert_eq!(num_rows as u64, stats.rows_after, "row estimate is exact");

        // Cold anchor: a fresh sparse backend solving at the base latency
        // from the longest-path crash basis — the per-scenario campaign
        // cost. Best of three fresh solves, so one cold-cache outlier
        // cannot distort the tracked trajectory.
        let mut cold_anchor_ms = f64::INFINITY;
        let mut lp = GraphLp::build(graph, &binding);
        let mut anchor = lp.predict(params.l).expect("anchor solves");
        for _ in 0..3 {
            lp = GraphLp::build(graph, &binding);
            let t0 = Instant::now();
            anchor = lp.predict(params.l).expect("anchor solves");
            cold_anchor_ms = cold_anchor_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }

        // The engine's sweep: every point from its own crash basis,
        // which factors by substitution (one triangular factorisation per
        // point, no LU).
        let mut sweep = GraphLp::build(graph, &binding);
        let t1 = Instant::now();
        let mut acc = 0.0;
        for &d in &deltas {
            acc += sweep
                .predict(params.l + d)
                .expect("sweep point solves")
                .runtime;
        }
        let sweep_ms = t1.elapsed().as_secs_f64() * 1e3;
        let factors = factors(&sweep);
        assert!(acc.is_finite());
        let (zones_ms, zone_steps) = zones(&mut sweep, params.l);

        eprintln!(
            "{:<12} rows {:>5} -> {:>4} ({:.1}x)  ingest {:>6.2} ms  reduce {:>6.2} ms  \
             cold anchor {:>8.3} ms ({} iters)  64-pt sweep {:>8.2} ms  \
             factors {} tri / {} lu  zones {:>7.3} ms ({} steps)",
            app.name().to_ascii_lowercase(),
            stats.rows_before,
            stats.rows_after,
            stats.rows_before as f64 / stats.rows_after as f64,
            ingest_ms,
            reduce_ms,
            cold_anchor_ms,
            anchor.iterations,
            sweep_ms,
            factors.0,
            factors.1,
            zones_ms,
            zone_steps
        );
        rows.push(Row {
            workload: app.name(),
            rows_raw: stats.rows_before,
            rows_reduced: stats.rows_after,
            ingest_ms,
            reduce_ms,
            cold_anchor_ms,
            cold_iterations: anchor.iterations,
            sweep_ms,
            factors,
            zones_ms,
            zone_steps,
        });
    }

    // Large-trace tier, two entries (skipped with `--skip-large`):
    //
    // * `large_trace` — LULESH inflated to ~10⁶ vertices (16 ranks, 430
    //   outer iterations, the `llamp gen` stress shape). Tracks the
    //   streaming-ingest and reduction wall clocks of the product path
    //   (`builder_of_programs`, then `finish_reduced`), the stages
    //   `llamp gen --stats` reports.
    // * `large_lp` — the LP solved on the *same* ~10⁶-vertex shape
    //   (137k reduced rows). The longest-path crash basis makes the cold
    //   anchor a factorisation plus one pricing pass (no pivots), so the
    //   anchor lands well under a second. The 64-point sweep certifies
    //   every point's own crash basis, like every engine sweep: the crash
    //   is optimal at the point, so no point pivots, and its tree factors
    //   by substitution (one triangular factorisation per point, no LU).
    //   Crash-started points are independent, so they shard across the
    //   work-stealing executor — `sweep_ms` reports the sharded wall
    //   clock, `sweep_ms_t1` the serial one, and the run asserts the two
    //   produce bit-identical runtimes (thread-count determinism). The
    //   three zones follow (`zones_ms`): the anchor-seeded tolerance LPs
    //   they replace took ~412 s together at this shape.
    //
    // Every wall clock is the median of three repetitions, each on a
    // freshly built graph dropped before the next, so the numbers follow
    // the code more than the host's speed phase and peak RSS stays that
    // of one repetition. Counts must agree across repetitions.
    let mut large_json = String::new();
    if !skip_large {
        let set = llamp_workloads::scaled(App::Lulesh, 2, 430);
        let reps: Vec<Large> = (0..3).map(|_| large_tier(&set, &deltas)).collect();
        let c = reps[0].counts;
        assert!(
            reps.iter().all(|r| r.counts == c),
            "large-tier counts differ between repetitions"
        );
        let med = |f: fn(&Large) -> f64| median(reps.iter().map(f).collect());
        let ingest_ms = med(|r| r.ingest_ms);
        let reduce_ms = med(|r| r.reduce_ms);
        let cold_anchor_ms = med(|r| r.cold_anchor_ms);
        let sweep_ms_t1 = med(|r| r.sweep_ms_t1);
        let sweep_ms = med(|r| r.sweep_ms);
        let zones_ms = med(|r| r.zones_ms);
        let per_solve_ms = sweep_ms_t1 / deltas.len() as f64;
        let sweep_threads = reps[0].sweep_threads;
        let [vertices, edges, rows_raw, rows_reduced, iterations, tri, lu, zone_steps] = c;
        eprintln!(
            "large-trace   lulesh x(2,430)  {vertices} verts / {edges} edges  \
             ingest {ingest_ms:.0} ms  reduce {reduce_ms:.0} ms  rows -> {rows_reduced}  \
             (medians of 3)"
        );
        eprintln!(
            "large-lp      lulesh x(2,430)  {vertices} verts  rows {rows_raw} -> {rows_reduced}  \
             cold anchor {cold_anchor_ms:.0} ms ({iterations} iters)  \
             crash-start 64-pt sweep t1 {sweep_ms_t1:.0} ms ({per_solve_ms:.1} ms/solve) / \
             t{sweep_threads} {sweep_ms:.0} ms  factors {tri} tri / {lu} lu  \
             zones {zones_ms:.0} ms ({zone_steps} steps)  (medians of 3)"
        );

        large_json = format!(
            "  \"large_trace\": {{\"workload\": \"lulesh\", \"rank_mult\": 2, \"iter_mult\": 430, \
             \"vertices\": {vertices}, \"edges\": {edges}, \"rows_reduced\": {rows_reduced}, \
             \"ingest_ms\": {ingest_ms:.3}, \"reduce_ms\": {reduce_ms:.3}}},\n  \
             \"large_lp\": {{\"workload\": \"lulesh\", \"rank_mult\": 2, \"iter_mult\": 430, \
             \"vertices\": {vertices}, \"rows_raw\": {rows_raw}, \"rows_reduced\": {rows_reduced}, \
             \"cold_anchor_ms\": {cold_anchor_ms:.3}, \"cold_iterations\": {iterations}, \
             \"sweep_ms\": {sweep_ms:.3}, \"sweep_ms_t1\": {sweep_ms_t1:.3}, \
             \"sweep_threads\": {sweep_threads}, \"sweep_points\": {}, \
             \"sweep_ms_per_solve\": {per_solve_ms:.3}, \
             \"triangular_factors\": {tri}, \"lu_factors\": {lu}, \"zones_ms\": {zones_ms:.3}, \
             \"zone_steps\": {zone_steps}}},\n",
            deltas.len(),
        );
    }

    let mut json = format!("{{\n  \"bench\": \"lp_solver\",\n{large_json}  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows_raw\": {}, \"rows_reduced\": {}, \
             \"ingest_ms\": {:.3}, \"reduce_ms\": {:.3}, \
             \"cold_anchor_ms\": {:.3}, \"cold_iterations\": {}, \
             \"sweep_ms\": {:.3}, \"sweep_points\": {}, \"triangular_factors\": {}, \
             \"lu_factors\": {}, \"zones_ms\": {:.3}, \"zone_steps\": {}}}{}\n",
            r.workload.to_ascii_lowercase(),
            r.rows_raw,
            r.rows_reduced,
            r.ingest_ms,
            r.reduce_ms,
            r.cold_anchor_ms,
            r.cold_iterations,
            r.sweep_ms,
            deltas.len(),
            r.factors.0,
            r.factors.1,
            r.zones_ms,
            r.zone_steps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");
}

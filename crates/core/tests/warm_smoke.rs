//! Chained-vs-reset sweep smoke, run explicitly in CI (`cargo test ...
//! -- --ignored`): the same 64-point latency sweep on one `GraphLp`,
//! once chained (each point warm-starts from the previous optimum) and
//! once reset before every point (each point starts from its own
//! longest-path crash — the rule the engine's LP sweeps use). Both must
//! answer the same runtimes, and the reset sweep must stay within a small
//! factor of the chained one: each crash start is one factorisation and
//! zero pivots, so anything slower means the crash path regressed.

use llamp_core::{Analyzer, GraphLp};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;
use std::time::Instant;

/// Seconds for the sweep, plus its runtimes.
fn sweep(lp: &mut GraphLp, deltas: &[f64], reset: bool) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let runtimes = deltas
        .iter()
        .map(|&d| {
            if reset {
                lp.reset();
            }
            lp.predict(d).expect("solve succeeds").runtime
        })
        .collect();
    (start.elapsed().as_secs_f64(), runtimes)
}

#[test]
#[ignore = "timing assertion; CI runs it explicitly"]
fn reset_sweep_keeps_pace_with_chained_sweep() {
    // A bulk-synchronous proxy: per-iteration compute, halo exchange with
    // both neighbours, then a global reduction.
    let ranks = 8u32;
    let set = ProgramSet::spmd(ranks, |rank, b| {
        for it in 0..12 {
            b.comp(us(20.0) * ((rank + it) % 3 + 1) as f64);
            let left = (rank + ranks - 1) % ranks;
            let right = (rank + 1) % ranks;
            let reqs = vec![
                b.isend(left, 2048, 1),
                b.isend(right, 2048, 2),
                b.irecv(right, 2048, 1),
                b.irecv(left, 2048, 2),
            ];
            b.waitall(reqs);
            b.allreduce(64);
        }
    });
    let graph = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper())
        .expect("workload builds");
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.1));
    let analyzer = Analyzer::new(&graph, &params);
    let deltas: Vec<f64> = (0..64).map(|i| us(1.0) * i as f64).collect();

    // One throwaway pass to warm caches/allocator before timing.
    sweep(&mut analyzer.lp(), &deltas, false);

    let (chained, chained_rt) = sweep(&mut analyzer.lp(), &deltas, false);
    let (reset, reset_rt) = sweep(&mut analyzer.lp(), &deltas, true);
    println!(
        "chained sweep: {chained:.4}s, reset (crash-per-point) sweep: {reset:.4}s ({:.2}x)",
        reset / chained
    );
    for ((d, a), b) in deltas.iter().zip(&chained_rt).zip(&reset_rt) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs(),
            "∆L={d}: chained {a} vs reset {b}"
        );
    }
    assert!(
        reset <= 3.0 * chained,
        "reset sweep ({reset:.4}s) more than 3x the chained sweep ({chained:.4}s)"
    );
}

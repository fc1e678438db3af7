//! Property test for the longest-path crash basis (`llamp_core::crash`).
//!
//! The claim under test: on any execution DAG (all LogGPS costs are
//! nonnegative), the crash basis instantiated at the query point is
//! simultaneously primal feasible (each merge variable equals the max of
//! its in-edges) and dual feasible (the duals are 0/1 critical-subtree
//! indicators and every parameter multiplier is nonnegative) — so a cold
//! solve seeded from it performs **zero pivots**: no phase 1, no phase-2
//! exchanges, just the optimality pricing pass. And the objective it
//! certifies equals the forward longest-path evaluation.
//!
//! Random programs are generated as sequences of deadlock-free phases
//! (per-rank compute, allreduce, barrier, a rank chain), with compute
//! times drawn from a small integer grid so exact ties — the degenerate
//! case a longest-path crash mass-produces — occur constantly.

use llamp_core::{evaluate, Binding, GraphLp};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;
use proptest::prelude::*;

/// One deadlock-free program phase.
#[derive(Debug, Clone)]
enum Phase {
    /// Per-rank compute; times indexed by rank (µs).
    Comp(Vec<u8>),
    /// Collective over all ranks.
    Allreduce(u16),
    Barrier,
    /// Rank `r` sends to `r+1` (eager-size payload).
    Chain(u16),
}

fn phase_strategy(ranks: usize) -> impl Strategy<Value = Phase> {
    prop_oneof![
        // Small integer grid (1..6 µs) so path lengths tie exactly.
        prop::collection::vec(1u8..6, ranks).prop_map(Phase::Comp),
        (64u16..4096).prop_map(Phase::Allreduce),
        Just(Phase::Barrier),
        (64u16..4096).prop_map(Phase::Chain),
    ]
}

fn program_strategy() -> impl Strategy<Value = (usize, Vec<Phase>)> {
    (2usize..=5).prop_flat_map(|ranks| {
        (
            Just(ranks),
            prop::collection::vec(phase_strategy(ranks), 1..8),
        )
    })
}

fn graph_of(ranks: usize, phases: &[Phase]) -> ExecGraph {
    let set = ProgramSet::spmd(ranks as u32, |rank, b| {
        for (tag, ph) in phases.iter().enumerate() {
            match ph {
                Phase::Comp(times) => {
                    b.comp(us(times[rank as usize] as f64));
                }
                Phase::Allreduce(bytes) => {
                    b.allreduce(*bytes as u64);
                }
                Phase::Barrier => {
                    b.barrier();
                }
                Phase::Chain(bytes) => {
                    if (rank as usize) + 1 < ranks {
                        b.send(rank + 1, *bytes as u64, tag as u32);
                    }
                    if rank > 0 {
                        b.recv(rank - 1, *bytes as u64, tag as u32);
                    }
                }
            }
        }
    });
    build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
}

/// The assertion battery for one (graph, latency) pair.
fn assert_crash_is_optimal(g: &ExecGraph, binding: &Binding, l: f64) {
    let reduced = g.contracted();
    let mut lp = GraphLp::build(&reduced, binding);
    let p = lp.predict(l).expect("crash-seeded solve succeeds");
    let stats = lp.solver_stats();
    assert_eq!(
        stats.phase1_iterations, 0,
        "L={l}: crash basis not primal feasible"
    );
    assert_eq!(
        stats.pivots, 0,
        "L={l}: crash basis not optimal ({} pivots)",
        stats.pivots
    );
    // The certified objective is the forward longest-path evaluation.
    let e = evaluate(&reduced, binding, l);
    assert!(
        (p.runtime - e.runtime).abs() <= 1e-9 * (1.0 + e.runtime),
        "L={l}: lp {} vs eval {}",
        p.runtime,
        e.runtime
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn longest_path_crash_solves_without_pivots((ranks, phases) in program_strategy()) {
        let g = graph_of(ranks, &phases);
        let binding = Binding::uniform(&LogGPSParams::didactic());
        for l in [0.0, 385.0, us(1.0), us(20.0)] {
            assert_crash_is_optimal(&g, &binding, l);
        }
    }
}

/// Regression seeds: tie-heavy shapes where every rank's path has the
/// same length, so the longest-path max ties across all in-edges of
/// every merge vertex.
#[test]
fn degenerate_tie_graphs_still_need_no_pivots() {
    let binding = Binding::uniform(&LogGPSParams::didactic());
    // Uniform compute + allreduce: all 2·ranks in-edges of each merge tie.
    for ranks in [2, 4, 8] {
        let g = graph_of(
            ranks,
            &[
                Phase::Comp(vec![3; ranks]),
                Phase::Allreduce(512),
                Phase::Comp(vec![1; ranks]),
                Phase::Barrier,
            ],
        );
        for l in [0.0, us(5.0)] {
            assert_crash_is_optimal(&g, &binding, l);
        }
    }
    // Zero-cost compute: every potential is identical (maximal ties).
    let g = graph_of(4, &[Phase::Comp(vec![0; 4]), Phase::Barrier]);
    assert_crash_is_optimal(&g, &binding, 0.0);
}

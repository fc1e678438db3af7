//! Quickstart: the whole LLAMP pipeline on the paper's running example.
//!
//! Builds the two-rank program of Fig. 3/4, traces it, compiles the
//! execution graph, converts it to an LP (Algorithm 1), and reads off all
//! the paper's §II quantities: predicted runtime, latency sensitivity
//! `λ_L`, the critical latency, and the latency tolerance.
//!
//! Run with `cargo run --release --example quickstart`.

use llamp::core::{Binding, GraphLp, ParametricProfile};
use llamp::model::LogGPSParams;
use llamp::schedgen::{build_graph, GraphConfig};
use llamp::trace::text::write_trace;
use llamp::trace::{ProgramSet, TracerConfig};
use llamp::util::time::us;

fn main() {
    // 1. The MPI program (Fig. 4c): rank 0 computes 0.1 µs, sends 4 bytes,
    //    computes 1 µs; rank 1 computes 0.5 µs, receives, computes 1 µs.
    let set = ProgramSet::spmd(2, |rank, b| {
        if rank == 0 {
            b.comp(100.0);
            b.send(1, 4, 0);
            b.comp(us(1.0));
        } else {
            b.comp(us(0.5));
            b.recv(0, 4, 0);
            b.comp(us(1.0));
        }
    });

    // 2. Trace it (what liballprof would record).
    let trace = set.trace(&TracerConfig::default());
    println!("--- liballprof-style trace ---");
    print!("{}", write_trace(&trace));

    // 3. Compile the execution graph (Schedgen).
    let graph = build_graph(&trace, &GraphConfig::eager()).unwrap();
    let (calc, send, recv, _) = graph.kind_counts();
    println!(
        "\nexecution graph: {} vertices ({calc} calc, {send} send, {recv} recv), {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 4. Bind LogGPS parameters (Fig. 4b: o = 0, G = 5 ns/B) and build the
    //    LP (Algorithm 1).
    let params = LogGPSParams::didactic();
    let binding = Binding::uniform(&params);
    let contracted = graph.contracted();
    let mut lp = GraphLp::build(&contracted, &binding);
    println!(
        "LP: {} variables, {} constraints (from {} contracted vertices)\n",
        lp.model().num_vars(),
        lp.model().num_constraints(),
        contracted.num_vertices()
    );

    // 5. Fig. 5: predict at L = 0.5 µs, with the basis-stability window.
    let (p, window) = lp.predict_with_window(us(0.5)).unwrap();
    println!(
        "T(L = 0.5 µs)      = {:.3} µs  (paper: 1.615)",
        p.runtime / 1000.0
    );
    println!("λ_L                = {:.0}        (paper: 1)", p.lambda);
    println!(
        "basis stable down to L = {:.3} µs (the critical latency; paper: 0.385)",
        window.0 / 1000.0
    );

    // 6. Fig. 6: tolerance — max L keeping T ≤ 2 µs, searched over
    //    L ∈ [0, 10 µs].
    let tol = lp.tolerance(0.0, us(10.0), us(2.0)).unwrap();
    println!(
        "max L with T ≤ 2µs = {:.3} µs  (paper: 0.885)",
        tol / 1000.0
    );

    // 7. The exact T(L) curve from the parametric backend.
    let prof = ParametricProfile::compute(&contracted, &binding, (0.0, us(2.0)));
    println!(
        "\nT(L) pieces: {}",
        prof.envelope()
            .lines()
            .iter()
            .map(|l| format!("{}·L + {:.0} ns", l.slope, l.intercept))
            .collect::<Vec<_>>()
            .join("  |  ")
    );
    println!("critical latencies: {:?} ns", prof.critical_latencies());
}

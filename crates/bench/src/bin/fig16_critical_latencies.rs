//! Fig. 16 / Algorithm 2 — critical-latency search on the running example.
//!
//! The paper's running example (Fig. 4c): `T(L) = max(1.5, L + 1.115) µs`
//! with the critical latency at 0.385 µs. Algorithm 2 walks the interval
//! `[0.2, 0.5] µs` from the top using the solver's `SALBLow` ranging; the
//! parametric envelope produces the same breakpoints in closed form.

use llamp_bench::Table;
use llamp_core::{Binding, GraphLp, ParametricProfile};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;

fn main() {
    // Fig. 4c: c0 = 0.1 µs, c1 = c3 = 1 µs, c2 = 0.5 µs, s = 4 B, G = 5
    // ns/B, o = 0.
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
    let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
        .unwrap()
        .contracted();
    let binding = Binding::uniform(&LogGPSParams::didactic());

    println!("# Fig. 16 — Algorithm 2 on the running example over [0.2, 0.5] µs\n");
    let mut lp = GraphLp::build(&g, &binding);

    let mut t = Table::new(&["L [µs]", "T [µs]", "lambda", "SALBLow [µs]"]);
    // Walk like Algorithm 2, printing each iterate.
    let mut l = 500.0f64;
    loop {
        let (p, (salb_low, _)) = lp.predict_with_window(l).unwrap();
        t.row(vec![
            format!("{:.3}", l / 1000.0),
            format!("{:.3}", p.runtime / 1000.0),
            format!("{:.0}", p.lambda),
            format!("{:.3}", salb_low / 1000.0),
        ]);
        if salb_low < 200.0 || !salb_low.is_finite() {
            break;
        }
        l = (l - 100.0).min(salb_low - 1.0);
        if l < 200.0 {
            break;
        }
    }
    t.print();

    let lcs = lp.critical_latencies(200.0, 500.0, 100.0, 0.01).unwrap();
    println!(
        "\nAlgorithm 2 critical latencies: {:?} ns (paper: 385 ns)",
        lcs
    );

    let prof = ParametricProfile::compute(&g, &binding, (0.0, 1_000.0));
    println!(
        "parametric envelope breakpoints: {:?} ns, pieces: {:?}",
        prof.critical_latencies(),
        prof.envelope()
            .lines()
            .iter()
            .map(|l| format!("{}L + {:.0}", l.slope, l.intercept))
            .collect::<Vec<_>>()
    );
}

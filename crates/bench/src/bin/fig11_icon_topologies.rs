//! Fig. 11 — Fat Tree vs. Dragonfly wire-latency analysis for ICON,
//! expressed as one `llamp-engine` campaign.
//!
//! The communication edges' latency is decomposed into
//! `wires·l_wire + switches·d_switch` (Zambre et al. numbers: 274 ns per
//! wire, 108 ns per switch) and `l_wire` becomes the decision variable.
//! The paper sweeps 274→424 ns (the anticipated FEC-induced increase) and
//! finds both topologies essentially unaffected — the 1% tolerance sits
//! far beyond the FEC range — with Dragonfly marginally ahead thanks to
//! its lower average switch count. Here both topologies are cells of a
//! single campaign: the engine runs them in parallel and the figure is
//! read off the campaign result.

use llamp_bench::{s3, Table};
use llamp_engine::{
    run_campaign, Backend, CampaignSpec, ExecutorConfig, GridSpec, ParamsPreset, ParamsSpec,
    ResultCache, TopologySpec, WorkloadSpec,
};
use llamp_topo::{Dragonfly, FatTree, Topology};
use llamp_util::time::us;
use llamp_workloads::App;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let ranks: u32 = if full { 256 } else { 64 };
    let d_switch = 108.0;
    let base_wire = 274.0;

    let mut spec = CampaignSpec {
        name: "fig11-icon-topologies".into(),
        workloads: vec![WorkloadSpec {
            app: App::Icon,
            ranks,
            iters: 8,
            o_ns: Some(us(6.03)),
        }],
        topologies: vec![
            TopologySpec::FatTree {
                k: 16,
                l_wire_ns: base_wire,
                d_switch_ns: d_switch,
            },
            TopologySpec::Dragonfly {
                groups: 8,
                routers: 4,
                hosts: 8,
                l_wire_ns: base_wire,
                d_switch_ns: d_switch,
            },
        ],
        params: vec![ParamsSpec {
            preset: ParamsPreset::PizDaint,
            l_ns: None,
            o_ns: None,
            s_bytes: None,
        }],
        backends: vec![Backend::Parametric],
        grid: GridSpec {
            // 274 → 424 ns as added wire latency above the base.
            deltas_ns: (0..7).map(|i| 150.0 * i as f64 / 6.0).collect(),
            search_hi_ns: 2_000_000.0,
        },
        axes: vec![],
        reduce: true,
    };
    spec.canonicalize();

    println!(
        "# Fig. 11 — ICON at {ranks} ranks: per-wire latency sweep (d_switch = {d_switch} ns)\n"
    );
    println!(
        "avg switches (first {ranks} nodes): fat tree {:.2}, dragonfly {:.2}\n",
        avg_switches(&FatTree::new(16), ranks),
        avg_switches(&Dragonfly::paper(), ranks)
    );

    let (result, summary) = run_campaign(&spec, &ExecutorConfig::default(), &ResultCache::new());
    let by_topo = |pat: &str| {
        result
            .scenarios
            .iter()
            .find(|s| s.scenario.topology.canonical().starts_with(pat))
            .and_then(|s| s.outcome.as_ref().ok())
            .unwrap_or_else(|| panic!("{pat} scenario answered"))
    };
    let ft = by_topo("fattree");
    let df = by_topo("dragonfly");

    let mut t = Table::new(&["l_wire [ns]", "fat tree T [s]", "dragonfly T [s]"]);
    for (pf, pd) in ft.sweep.iter().zip(&df.sweep) {
        t.row(vec![
            format!("{:.0}", base_wire + pf.delta_l_ns),
            s3(pf.runtime_ns),
            s3(pd.runtime_ns),
        ]);
    }
    t.print();

    for (name, o) in [("fat tree", ft), ("dragonfly", df)] {
        if o.zones.pct1_ns.is_finite() {
            println!(
                "{name}: 1% degradation at l_wire = base + {:.0} ns (absolute {:.0} ns)",
                o.zones.pct1_ns,
                base_wire + o.zones.pct1_ns
            );
        } else {
            println!(
                "{name}: no 1% degradation within {:.0} ns of added wire latency",
                spec.grid.search_hi_ns
            );
        }
    }
    println!(
        "\nBoth topologies absorb the anticipated FEC increase (274→424 ns) \
         without measurable impact, as in the paper (§IV-2).\n\
         [engine: {}]",
        summary.render().replace('\n', "; ")
    );
}

fn avg_switches<T: Topology>(t: &T, n: u32) -> f64 {
    let mut sum = 0u64;
    let mut cnt = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            sum += t.profile(a, b).switches as u64;
            cnt += 1;
        }
    }
    sum as f64 / cnt as f64
}

//! # llamp-workloads — application communication skeletons
//!
//! LLAMP consumes *traces*, so what matters about an application is its
//! communication structure: message sizes, dependency chains, collective
//! choice, and how much computation can hide latency. This crate provides
//! deterministic skeleton generators for every application in the paper's
//! evaluation (§III, Table II, Appendix G), emitting per-rank
//! [`llamp_trace::ProgramSet`]s:
//!
//! | module | application | scaling | character |
//! |---|---|---|---|
//! | [`lulesh`] | LULESH 2.0 | weak | 3D 26-neighbour nonblocking halo + dt-allreduce |
//! | [`hpcg`] | HPCG | weak | 27-pt halo, two dot-product allreduces, MG V-cycle |
//! | [`milc`] | MILC su3_rmd | strong | 4D lattice, dependent CG halo chains + global sums |
//! | [`icon`] | ICON dycore | strong | icosahedral neighbour exchange, compute-heavy, allreduce |
//! | [`lammps`] | LAMMPS EAM | weak | forward/reverse 6-dir comm, neighbour rebuilds |
//! | [`npb`] | NAS BT/CG/EP/FT/LU/MG/SP | — | classic kernels (Table I) |
//! | [`openmx`] | OpenMX DIA64 | weak | bcast/reduce-heavy DFT steps |
//! | [`cloverleaf`] | CloverLeaf | weak | 2D 4-neighbour halo + field reductions |
//! | [`namd`] | NAMD/charm++ | — | over-decomposed, latency-adaptive scheduling (Fig. 12) |
//!
//! Compute intervals are calibrated so the *relative* latency-tolerance
//! ordering of the paper's Fig. 1/Fig. 9 holds (MILC ≪ LULESH < HPCG ≪
//! ICON); absolute times are scaled down so analyses run in seconds.
//! Generators are pure functions of their configuration (plus an explicit
//! seed where mild rank imbalance is modelled), so every figure is
//! reproducible bit-for-bit.

pub mod cloverleaf;
pub mod decomp;
pub mod hpcg;
pub mod icon;
pub mod lammps;
pub mod lulesh;
pub mod milc;
pub mod namd;
pub mod npb;
pub mod openmx;

use llamp_trace::ProgramSet;

/// A named workload standard configuration, as used by the benchmark
/// harnesses to sweep "all applications".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// LULESH 2.0 proxy.
    Lulesh,
    /// HPCG proxy.
    Hpcg,
    /// MILC su3_rmd proxy.
    Milc,
    /// ICON dynamical-core proxy.
    Icon,
    /// LAMMPS EAM proxy.
    Lammps,
    /// OpenMX proxy.
    Openmx,
    /// CloverLeaf proxy.
    Cloverleaf,
}

impl App {
    /// All validation-experiment applications (Fig. 9 / Table II).
    pub const ALL: [App; 7] = [
        App::Lulesh,
        App::Hpcg,
        App::Milc,
        App::Icon,
        App::Lammps,
        App::Openmx,
        App::Cloverleaf,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            App::Lulesh => "LULESH",
            App::Hpcg => "HPCG",
            App::Milc => "MILC",
            App::Icon => "ICON",
            App::Lammps => "LAMMPS",
            App::Openmx => "OpenMX",
            App::Cloverleaf => "CloverLeaf",
        }
    }

    /// Generate the standard configuration at the given rank count with
    /// `iters` outer iterations.
    pub fn programs(&self, ranks: u32, iters: usize) -> ProgramSet {
        match self {
            App::Lulesh => lulesh::programs(&lulesh::Config::paper(ranks, iters)),
            App::Hpcg => hpcg::programs(&hpcg::Config::paper(ranks, iters)),
            App::Milc => milc::programs(&milc::Config::paper(ranks, iters)),
            App::Icon => icon::programs(&icon::Config::paper(ranks, iters)),
            App::Lammps => lammps::programs(&lammps::Config::paper(ranks, iters)),
            App::Openmx => openmx::programs(&openmx::Config::paper(ranks, iters)),
            App::Cloverleaf => cloverleaf::programs(&cloverleaf::Config::paper(ranks, iters)),
        }
    }

    /// Parse a workload name (case-insensitive, paper spelling or
    /// lowercase).
    pub fn parse(name: &str) -> Option<App> {
        App::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// The per-message overhead `o` the paper matched for this application
    /// (Table II, 8-node column), in nanoseconds.
    pub fn paper_o(&self) -> f64 {
        match self {
            App::Lulesh => 5_000.0,
            App::Hpcg => 5_600.0,
            App::Milc => 6_000.0,
            App::Icon => 20_000.0,
            App::Lammps => 32_400.0,
            App::Openmx => 15_600.0,
            App::Cloverleaf => 6_100.0,
        }
    }
}

/// Inflate a workload's bench-standard shape (8 ranks, 1 outer iteration)
/// to stress-test scale: `rank_mult` multiplies the rank count, `iter_mult`
/// the outer iteration count. Both clamp to ≥ 1. The generators are pure,
/// so the result is deterministic — `scaled(app, 1, 1)` is exactly the
/// benchmark configuration, and `rank_mult`/`iter_mult` in the tens push
/// the execution graph into the 10⁵–10⁷-vertex range (`llamp gen` exposes
/// this from the CLI).
pub fn scaled(base: App, rank_mult: u32, iter_mult: u32) -> ProgramSet {
    base.programs(8 * rank_mult.max(1), iter_mult.max(1) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_schedgen::{graph_of_programs, GraphConfig};

    #[test]
    fn all_apps_build_graphs_at_small_scale() {
        for app in App::ALL {
            let set = app.programs(8, 2);
            let g = graph_of_programs(&set, &GraphConfig::paper())
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert!(g.num_messages() > 0, "{} produced no messages", app.name());
            assert_eq!(g.nranks(), 8, "{}", app.name());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for app in App::ALL {
            let a = app.programs(8, 2);
            let b = app.programs(8, 2);
            assert_eq!(a, b, "{} not deterministic", app.name());
        }
    }
}

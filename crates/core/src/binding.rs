//! Binding symbolic graph costs to concrete (or decision-variable) network
//! parameters.
//!
//! Execution graphs carry symbolic [`CostExpr`]s. An analysis *binds* them:
//! `o` and `G` become constants, while the latency term becomes either
//!
//! * the scalar decision variable `l` (the paper's main analysis),
//! * a per-wire variable: each `L` traversal between ranks `i` and `j`
//!   expands to `wires(i,j)·l_wire + switches(i,j)·d_switch`
//!   (topology analysis, §IV-2), optionally per wire *class*
//!   (Appendix H / Fig. 19),
//! * a per-pair constant from an [`HLogGP`](llamp_model::HLogGP) matrix (process placement,
//!   Appendix I), with the pairwise sensitivities read off the critical
//!   path.
//!
//! The binding reduces every latency traversal to the affine form
//! `multiplier · λ + constant`, where `λ` is the *analysis variable*. All
//! backends (LP, parametric envelope, plain evaluation) consume this form.

use llamp_schedgen::CostExpr;
use llamp_topo::{PathProfile, Topology, WireClass};

/// How one unit of `L` between two ranks maps onto the analysis variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyTerm {
    /// Coefficient of the analysis variable per `L` traversal.
    pub multiplier: f64,
    /// Constant nanoseconds added per `L` traversal.
    pub constant: f64,
}

/// The latency model of an analysis.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every traversal costs exactly the variable `l` (paper §II).
    Uniform,
    /// Topology-decomposed with a single wire variable: a traversal between
    /// ranks `i, j` costs `wires·l_wire + switches·d_switch` (§IV-2).
    Wire {
        /// Per rank pair `(i, j)`: total wires and switch count.
        profiles: PairTable<PathProfile>,
        /// Fixed switch traversal delay (ns).
        d_switch: f64,
    },
    /// Per-class wire analysis: one class is the variable, the other
    /// classes are fixed constants (Appendix H).
    WireClass {
        /// Per rank pair profiles.
        profiles: PairTable<PathProfile>,
        /// Fixed switch traversal delay (ns).
        d_switch: f64,
        /// The class under study.
        variable: WireClass,
        /// Fixed latencies for `[terminal, intra, inter]`; the variable
        /// class entry is ignored.
        fixed: [f64; 3],
    },
    /// Heterogeneous per-pair constants (placement analysis): the variable
    /// is unused; `multiplier = 0`, `constant = L_{i,j}`.
    PairwiseConstant {
        /// Per rank pair latency (ns).
        latencies: PairTable<f64>,
    },
}

/// Dense symmetric table indexed by rank pairs.
#[derive(Debug, Clone)]
pub struct PairTable<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> PairTable<T> {
    /// Build from a function of `(i, j)`.
    pub fn from_fn(n: u32, mut f: impl FnMut(u32, u32) -> T) -> Self {
        let n = n as usize;
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i as u32, j as u32));
            }
        }
        Self { n, data }
    }

    /// Look up a pair.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> T {
        self.data[i as usize * self.n + j as usize]
    }
}

/// Which LogGPS parameter plays the decision variable (paper §II-B1 /
/// Eq. 4 generalise the analysis beyond `L`; §VI names `G` explicitly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisVariable {
    /// The network latency `L` — the paper's main analysis.
    Latency,
    /// The per-byte gap `G` (inverse bandwidth); `L` is frozen at the
    /// given value. The sensitivity `λ_G` then counts bytes on the
    /// critical path (Eq. 4).
    BandwidthG {
        /// The fixed network latency while `G` varies (ns).
        fixed_l: f64,
    },
    /// The per-message CPU overhead `o`; `L` is frozen at the given
    /// value. The sensitivity `λ_o` counts message overheads on the
    /// critical path (the Eq. 4 generalisation for `o`).
    OverheadO {
        /// The fixed network latency while `o` varies (ns).
        fixed_l: f64,
    },
}

impl AnalysisVariable {
    /// The LogGPS parameter this variable is: the one a one-column LP
    /// keeps symbolic.
    pub fn param(&self) -> SweepParam {
        match self {
            AnalysisVariable::Latency => SweepParam::L,
            AnalysisVariable::BandwidthG { .. } => SweepParam::G,
            AnalysisVariable::OverheadO { .. } => SweepParam::O,
        }
    }
}

/// A LogGPS parameter usable as a sweep axis in multi-parameter analyses
/// (the `L × G × o` campaign grids). Ordering is the canonical axis order
/// `L < G < o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SweepParam {
    /// The network latency `L` (ns) — or the per-wire latency under a
    /// topology binding.
    L,
    /// The per-byte gap `G` (ns/byte, inverse bandwidth).
    G,
    /// The per-message CPU overhead `o` (ns).
    O,
}

impl SweepParam {
    /// All sweepable parameters in canonical axis order.
    pub const ALL: [SweepParam; 3] = [SweepParam::L, SweepParam::G, SweepParam::O];

    /// Canonical spec-file name (`"L"`, `"G"`, `"o"`).
    pub fn name(&self) -> &'static str {
        match self {
            SweepParam::L => "L",
            SweepParam::G => "G",
            SweepParam::O => "o",
        }
    }

    /// Parse a spec-file name: `L`/`l`/`latency`, `G`/`bandwidth`,
    /// `o`/`O`/`overhead` (long names case-insensitive). A bare
    /// lowercase `g` is rejected on purpose — in LogGPS notation it is
    /// the per-message gap, a different (non-sweepable) parameter, while
    /// `o`/`O` are unambiguous.
    pub fn parse(name: &str) -> Option<SweepParam> {
        match name {
            "L" | "l" => Some(SweepParam::L),
            "G" => Some(SweepParam::G),
            "o" | "O" => Some(SweepParam::O),
            _ => match name.to_ascii_lowercase().as_str() {
                "latency" => Some(SweepParam::L),
                // No "gap" alias: it would collide with the LogGPS
                // per-message gap `g` this parser rejects.
                "bandwidth" => Some(SweepParam::G),
                "overhead" => Some(SweepParam::O),
                _ => None,
            },
        }
    }
}

impl std::fmt::Display for SweepParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cost bound in **all three** sweepable parameters at once: the affine
/// form `constant + l·L + g·G + o·o`. This is what the multi-parameter
/// LP and evaluator consume — unlike [`Binding::bind`], nothing is baked
/// to a constant, so one bound answers any `(L, G, o)` query point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MultiBound {
    /// Constant nanoseconds (compute, switch traversals, per-pair fixed
    /// latencies).
    pub constant: f64,
    /// Coefficient of the latency axis (`L` traversals × the latency
    /// model's per-traversal multiplier).
    pub l: f64,
    /// Coefficient of the per-byte gap `G` (bytes on the wire).
    pub g: f64,
    /// Coefficient of the per-message overhead `o` (overhead count).
    pub o: f64,
}

impl MultiBound {
    /// Evaluate at a concrete `(L, G, o)` point.
    #[inline]
    pub fn eval(&self, l: f64, g: f64, o: f64) -> f64 {
        self.constant + self.l * l + self.g * g + self.o * o
    }
}

/// A complete binding: scalar parameters plus the latency model.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Per-message CPU overhead `o` (ns).
    pub o: f64,
    /// Per-byte gap `G` (ns/byte); the constant value when `L` is the
    /// analysis variable, unused as a constant when `G` itself varies.
    pub big_g: f64,
    /// Latency model.
    pub latency: LatencyModel,
    /// Which parameter is the decision variable.
    pub variable: AnalysisVariable,
}

impl Binding {
    /// Uniform binding from LogGPS parameters (the latency value itself is
    /// supplied per query, not stored here).
    pub fn uniform(params: &llamp_model::LogGPSParams) -> Self {
        Self {
            o: params.o,
            big_g: params.big_g,
            latency: LatencyModel::Uniform,
            variable: AnalysisVariable::Latency,
        }
    }

    /// Bandwidth-sensitivity binding (paper Eq. 4 / §VI): `G` becomes the
    /// analysis variable, `L` stays fixed at `params.l`. Every query's
    /// variable value is then a per-byte gap in ns/byte, `λ` becomes
    /// `λ_G ≈` bytes on the critical path, and tolerances answer "how slow
    /// may the network's per-byte rate get".
    pub fn bandwidth(params: &llamp_model::LogGPSParams) -> Self {
        Self {
            o: params.o,
            big_g: params.big_g,
            latency: LatencyModel::Uniform,
            variable: AnalysisVariable::BandwidthG { fixed_l: params.l },
        }
    }

    /// Overhead-sensitivity binding (the Eq. 4 generalisation for `o`):
    /// the per-message CPU overhead becomes the analysis variable, `L`
    /// stays fixed at `params.l`. Every query's variable value is then an
    /// overhead in ns, `λ` becomes `λ_o ≈` message overheads on the
    /// critical path, and tolerances answer "how slow may the MPI stack's
    /// per-message processing get".
    pub fn overhead(params: &llamp_model::LogGPSParams) -> Self {
        Self {
            o: params.o,
            big_g: params.big_g,
            latency: LatencyModel::Uniform,
            variable: AnalysisVariable::OverheadO { fixed_l: params.l },
        }
    }

    /// Topology binding with a single `l_wire` variable. `placement[r]` is
    /// the physical node of rank `r`.
    pub fn wire<T: Topology>(
        params: &llamp_model::LogGPSParams,
        topo: &T,
        placement: &[u32],
        d_switch: f64,
    ) -> Self {
        let n = placement.len() as u32;
        let profiles = PairTable::from_fn(n, |i, j| {
            topo.profile(placement[i as usize], placement[j as usize])
        });
        Self {
            o: params.o,
            big_g: params.big_g,
            latency: LatencyModel::Wire { profiles, d_switch },
            variable: AnalysisVariable::Latency,
        }
    }

    /// Per-class topology binding (Appendix H): `variable` is the class
    /// under study, `fixed` holds the constant latencies of the others.
    pub fn wire_class<T: Topology>(
        params: &llamp_model::LogGPSParams,
        topo: &T,
        placement: &[u32],
        d_switch: f64,
        variable: WireClass,
        fixed: [f64; 3],
    ) -> Self {
        let n = placement.len() as u32;
        let profiles = PairTable::from_fn(n, |i, j| {
            topo.profile(placement[i as usize], placement[j as usize])
        });
        Self {
            o: params.o,
            big_g: params.big_g,
            latency: LatencyModel::WireClass {
                profiles,
                d_switch,
                variable,
                fixed,
            },
            variable: AnalysisVariable::Latency,
        }
    }

    /// Heterogeneous per-pair binding from an HLogGP matrix and a
    /// placement.
    pub fn hloggp(h: &llamp_model::HLogGP, placement: &[u32]) -> Self {
        let n = placement.len() as u32;
        let latencies =
            PairTable::from_fn(n, |i, j| h.l(placement[i as usize], placement[j as usize]));
        Self {
            o: h.base.o,
            big_g: h.base.big_g,
            latency: LatencyModel::PairwiseConstant { latencies },
            variable: AnalysisVariable::Latency,
        }
    }

    /// The affine latency term for one `L` traversal between two ranks.
    #[inline]
    pub fn latency_term(&self, src: u32, dst: u32) -> LatencyTerm {
        match &self.latency {
            LatencyModel::Uniform => LatencyTerm {
                multiplier: 1.0,
                constant: 0.0,
            },
            LatencyModel::Wire { profiles, d_switch } => {
                let p = profiles.get(src, dst);
                LatencyTerm {
                    multiplier: p.total_wires() as f64,
                    constant: p.switches as f64 * d_switch,
                }
            }
            LatencyModel::WireClass {
                profiles,
                d_switch,
                variable,
                fixed,
            } => {
                let p = profiles.get(src, dst);
                let vi = class_index(*variable);
                let mut constant = p.switches as f64 * d_switch;
                for (c, fix) in fixed.iter().enumerate() {
                    if c != vi {
                        constant += p.wires[c] as f64 * fix;
                    }
                }
                LatencyTerm {
                    multiplier: p.wires[vi] as f64,
                    constant,
                }
            }
            LatencyModel::PairwiseConstant { latencies } => LatencyTerm {
                multiplier: 0.0,
                constant: latencies.get(src, dst),
            },
        }
    }

    /// Bind a symbolic cost on an edge between `src` and `dst` ranks,
    /// returning `(constant, variable multiplier)` — the single-variable
    /// projection of [`Binding::bind_multi`] (see [`Binding::project`]).
    #[inline]
    pub fn bind(&self, cost: &CostExpr, src: u32, dst: u32) -> (f64, f64) {
        self.project(self.bind_multi(cost, src, dst))
    }

    /// Project a fully symbolic [`MultiBound`] onto the single analysis
    /// variable: the two non-variable parameters are baked into the
    /// constant (`G`/`o` from the binding, `L` from the frozen
    /// `fixed_l`), and the variable's coefficient survives. This is the
    /// one place the [`AnalysisVariable`] selection is interpreted — the
    /// graph-lowering walk binds everything through `bind_multi` and the
    /// single-parameter builders project.
    #[inline]
    pub fn project(&self, mb: MultiBound) -> (f64, f64) {
        match self.variable {
            AnalysisVariable::Latency => (mb.constant + mb.g * self.big_g + mb.o * self.o, mb.l),
            AnalysisVariable::BandwidthG { fixed_l } => {
                (mb.constant + mb.l * fixed_l + mb.o * self.o, mb.g)
            }
            AnalysisVariable::OverheadO { fixed_l } => {
                (mb.constant + mb.l * fixed_l + mb.g * self.big_g, mb.o)
            }
        }
    }

    /// Bind a symbolic cost in **all three** sweep parameters at once:
    /// nothing is frozen to a constant except the latency model's
    /// structural terms (switch delays, per-pair fixed latencies). The
    /// result answers any `(L, G, o)` point, which is what the
    /// three-column LP ([`crate::GraphLp::build_axes`]) and
    /// [`crate::eval::evaluate_multi`] are built from. The
    /// [`AnalysisVariable`] selection is irrelevant here — all three
    /// parameters stay symbolic.
    #[inline]
    pub fn bind_multi(&self, cost: &CostExpr, src: u32, dst: u32) -> MultiBound {
        let mut out = MultiBound {
            constant: cost.const_ns,
            l: 0.0,
            g: cost.gbytes,
            o: cost.o_count,
        };
        if cost.l_count != 0.0 {
            let term = self.latency_term(src, dst);
            out.constant += cost.l_count * term.constant;
            out.l = cost.l_count * term.multiplier;
        }
        out
    }

    /// The binding's base value of one sweep parameter: what the
    /// campaign's delta axes are relative to. `base_l` is supplied by the
    /// caller (the latency base lives outside the binding — e.g. the
    /// analyzer's wire latency), `G` and `o` come from the bound
    /// constants.
    pub fn base_value(&self, p: SweepParam, base_l: f64) -> f64 {
        match p {
            SweepParam::L => base_l,
            SweepParam::G => self.big_g,
            SweepParam::O => self.o,
        }
    }
}

fn class_index(c: WireClass) -> usize {
    match c {
        WireClass::Terminal => 0,
        WireClass::Intra => 1,
        WireClass::Inter => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_model::LogGPSParams;
    use llamp_topo::FatTree;

    #[test]
    fn uniform_binding_passthrough() {
        let b = Binding::uniform(&LogGPSParams::didactic());
        let cost = CostExpr::wire(4); // L + 3G with G = 5
        let (c, m) = b.bind(&cost, 0, 1);
        assert_eq!(c, 15.0);
        assert_eq!(m, 1.0);
    }

    #[test]
    fn wire_binding_expands_hops() {
        let ft = FatTree::new(4);
        let placement: Vec<u32> = (0..4).collect();
        let params = LogGPSParams::didactic();
        let b = Binding::wire(&params, &ft, &placement, 108.0);
        // Ranks 0 and 1 share an edge switch (k=4: 2 hosts/edge): 2 wires,
        // 1 switch.
        let cost = CostExpr::wire(1);
        let (c, m) = b.bind(&cost, 0, 1);
        assert_eq!(m, 2.0);
        assert_eq!(c, 108.0);
        // Ranks 0 and 2: different edge switches, same pod: 4 wires, 3
        // switches.
        let (c, m) = b.bind(&cost, 0, 2);
        assert_eq!(m, 4.0);
        assert_eq!(c, 3.0 * 108.0);
    }

    #[test]
    fn wire_class_binding_fixes_other_classes() {
        let ft = FatTree::new(4);
        let placement: Vec<u32> = (0..8).collect();
        let params = LogGPSParams::didactic();
        let b = Binding::wire_class(
            &params,
            &ft,
            &placement,
            100.0,
            WireClass::Inter,
            [274.0, 274.0, 0.0],
        );
        // Cross-pod pair (k=4: pods of 4 hosts): wires [2,2,2], switches 5.
        let cost = CostExpr::wire(1);
        let (c, m) = b.bind(&cost, 0, 4);
        assert_eq!(m, 2.0); // two inter wires are the variable
        assert_eq!(c, 5.0 * 100.0 + 2.0 * 274.0 + 2.0 * 274.0);
    }

    #[test]
    fn pairwise_constant_binding() {
        let mut h = llamp_model::HLogGP::uniform(LogGPSParams::didactic().with_l(500.0));
        h.set_l(0, 1, 123.0);
        let placement: Vec<u32> = vec![0, 1];
        let b = Binding::hloggp(&h, &placement);
        let cost = CostExpr::wire(1);
        let (c, m) = b.bind(&cost, 0, 1);
        assert_eq!(m, 0.0);
        assert_eq!(c, 123.0);
    }

    #[test]
    fn rendezvous_multiplies_latency_terms() {
        // A rendezvous completion edge has l_count = 3.
        let b = Binding::uniform(&LogGPSParams::didactic());
        let cost = CostExpr {
            o_count: 3.0,
            l_count: 3.0,
            gbytes: 10.0,
            const_ns: 0.0,
        };
        let (c, m) = b.bind(&cost, 0, 1);
        assert_eq!(m, 3.0);
        assert_eq!(c, 50.0); // 3o (o=0) + 10 G (G=5)
    }
}

//! Heterogeneous LogGP (paper Appendix I).
//!
//! LogGPS assumes one uniform network. For process-placement questions the
//! paper redefines `L` and `G` as symmetric `P×P` matrices — element
//! `(i, j)` is the latency/inverse-bandwidth between ranks `i` and `j` —
//! matching a simplified HLogGP model (Bosque et al.). All other parameters
//! (`o`, `g`, compute speed) stay uniform.

use crate::params::LogGPSParams;

/// Symmetric `P×P` matrices of pairwise `L` and `G` plus the shared scalar
/// parameters.
#[derive(Debug, Clone)]
pub struct HLogGP {
    /// Shared scalar parameters (`o`, `g`, `S`, ...). The scalar `l` and
    /// `big_g` fields serve as defaults for pairs left untouched.
    pub base: LogGPSParams,
    p: usize,
    l: Vec<f64>,
    g: Vec<f64>,
}

impl HLogGP {
    /// Uniform model: every pair gets the base `L` and `G`.
    pub fn uniform(base: LogGPSParams) -> Self {
        let p = base.p as usize;
        Self {
            p,
            l: vec![base.l; p * p],
            g: vec![base.big_g; p * p],
            base,
        }
    }

    /// Build from a pairwise latency function (e.g. hop counts from a
    /// topology). `G` stays uniform.
    pub fn from_latency_fn(base: LogGPSParams, mut lat: impl FnMut(u32, u32) -> f64) -> Self {
        let p = base.p as usize;
        let mut l = vec![0.0; p * p];
        for i in 0..p {
            for j in 0..p {
                // Symmetrise by construction: use the (min, max) ordering.
                let (a, b) = (i.min(j) as u32, i.max(j) as u32);
                l[i * p + j] = if i == j { 0.0 } else { lat(a, b) };
            }
        }
        Self {
            p,
            l,
            g: vec![base.big_g; p * p],
            base,
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.p as u32
    }

    /// Pairwise latency `L_{i,j}`.
    #[inline]
    pub fn l(&self, i: u32, j: u32) -> f64 {
        self.l[i as usize * self.p + j as usize]
    }

    /// Pairwise per-byte gap `G_{i,j}`.
    #[inline]
    pub fn g(&self, i: u32, j: u32) -> f64 {
        self.g[i as usize * self.p + j as usize]
    }

    /// Set a pairwise latency (kept symmetric).
    pub fn set_l(&mut self, i: u32, j: u32, v: f64) {
        self.l[i as usize * self.p + j as usize] = v;
        self.l[j as usize * self.p + i as usize] = v;
    }

    /// Check the symmetry invariant (used by tests and debug assertions).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.p {
            for j in (i + 1)..self.p {
                if self.l[i * self.p + j] != self.l[j * self.p + i]
                    || self.g[i * self.p + j] != self.g[j * self.p + i]
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model() {
        let h = HLogGP::uniform(LogGPSParams::cscs_testbed(4));
        assert_eq!(h.l(0, 3), 3_000.0);
        assert_eq!(h.g(2, 1), 0.018);
        assert!(h.is_symmetric());
    }

    #[test]
    fn set_keeps_symmetry() {
        let mut h = HLogGP::uniform(LogGPSParams::cscs_testbed(4));
        h.set_l(1, 2, 500.0);
        assert_eq!(h.l(2, 1), 500.0);
        assert!(h.is_symmetric());
    }

    #[test]
    fn latency_fn_is_symmetrised() {
        let base = LogGPSParams::cscs_testbed(3);
        let h = HLogGP::from_latency_fn(base, |a, b| (a + b) as f64 * 100.0);
        assert!(h.is_symmetric());
        assert_eq!(h.l(0, 0), 0.0);
        assert_eq!(h.l(0, 2), 200.0);
        assert_eq!(h.l(2, 0), 200.0);
    }
}

//! Dragonfly topology (Kim et al. 2008).
//!
//! Parameters follow the original paper's notation, as does the LLAMP case
//! study (`g = 8, a = 4, p = 8`, §IV-2): `g` groups of `a` routers, each
//! router hosting `p` nodes. Global (inter-group) links are distributed
//! round-robin over a group's routers: router `r` of a group owns the
//! global channels with indices `r·h .. r·h + h` where `h = ⌈(g−1)/a⌉`;
//! channel index `c` of group `G` connects to group `c` (skipping `G`
//! itself).
//!
//! Minimal routes:
//!
//! | relation | wires (terminal, intra, inter) | switches |
//! |---|---|---|
//! | same router | (2, 0, 0) | 1 |
//! | same group | (2, 1, 0) | 2 |
//! | different groups | (2, 0–2 intra, 1) | 2–4 |
//!
//! The inter-group case pays an intra-group hop on each side only when the
//! endpoint's router does not own the required global channel.

use crate::{PathProfile, Topology};

/// A canonical dragonfly.
#[derive(Debug, Clone, Copy)]
pub struct Dragonfly {
    g: u32,
    a: u32,
    p: u32,
    /// Global channels per router: `⌈(g−1)/a⌉`.
    h: u32,
}

impl Dragonfly {
    /// Build a dragonfly with `g` groups, `a` routers per group and `p`
    /// hosts per router.
    pub fn new(g: u32, a: u32, p: u32) -> Self {
        assert!(g >= 1 && a >= 1 && p >= 1);
        let h = if g > 1 { (g - 1).div_ceil(a) } else { 0 };
        Self { g, a, p, h }
    }

    /// The paper's case-study configuration: `g = 8, a = 4, p = 8`
    /// (256 nodes).
    pub fn paper() -> Self {
        Self::new(8, 4, 8)
    }

    /// Groups.
    pub fn groups(&self) -> u32 {
        self.g
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> u32 {
        self.a
    }

    /// Router index (within its group) of a node.
    pub fn router_of(&self, node: u32) -> u32 {
        (node / self.p) % self.a
    }

    /// Group index of a node.
    pub fn group_of(&self, node: u32) -> u32 {
        node / (self.a * self.p)
    }

    /// Which router of `group` owns the global channel toward
    /// `target_group`.
    pub fn gateway_router(&self, group: u32, target_group: u32) -> u32 {
        debug_assert_ne!(group, target_group);
        // Channel index: target groups in increasing order, skipping self.
        let c = if target_group < group {
            target_group
        } else {
            target_group - 1
        };
        (c / self.h).min(self.a - 1)
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> u32 {
        self.g * self.a * self.p
    }

    fn profile(&self, nodes_a: u32, nodes_b: u32) -> PathProfile {
        assert!(nodes_a < self.num_nodes() && nodes_b < self.num_nodes());
        if nodes_a == nodes_b {
            return PathProfile::default();
        }
        let (ga, gb) = (self.group_of(nodes_a), self.group_of(nodes_b));
        let (ra, rb) = (self.router_of(nodes_a), self.router_of(nodes_b));
        if ga == gb {
            if ra == rb {
                PathProfile {
                    wires: [2, 0, 0],
                    switches: 1,
                }
            } else {
                PathProfile {
                    wires: [2, 1, 0],
                    switches: 2,
                }
            }
        } else {
            // Source side: hop to the gateway router unless we are on it.
            let gw_a = self.gateway_router(ga, gb);
            let gw_b = self.gateway_router(gb, ga);
            let intra_a = u32::from(ra != gw_a);
            let intra_b = u32::from(rb != gw_b);
            PathProfile {
                wires: [2, intra_a + intra_b, 1],
                switches: 2 + intra_a + intra_b,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_size() {
        let df = Dragonfly::paper();
        assert_eq!(df.num_nodes(), 256);
        assert_eq!(df.h, 2); // (8-1)/4 rounded up
    }

    #[test]
    fn same_router_and_group_profiles() {
        let df = Dragonfly::paper();
        // Nodes 0..7 share a router ("under a single switch", §IV-2).
        assert_eq!(df.profile(0, 7).switches, 1);
        assert_eq!(df.profile(0, 7).wires, [2, 0, 0]);
        // Nodes 0 and 8: same group, different routers.
        assert_eq!(df.profile(0, 8).switches, 2);
        assert_eq!(df.profile(0, 8).wires, [2, 1, 0]);
    }

    #[test]
    fn inter_group_profile_bounds() {
        let df = Dragonfly::paper();
        let n = df.num_nodes();
        for a in (0..n).step_by(17) {
            for b in (0..n).step_by(13) {
                if df.group_of(a) != df.group_of(b) {
                    let p = df.profile(a, b);
                    assert_eq!(p.wires[0], 2);
                    assert_eq!(p.wires[2], 1);
                    assert!(p.switches >= 2 && p.switches <= 4);
                    assert!(p.wires[1] <= 2);
                }
            }
        }
    }

    #[test]
    fn profile_is_symmetric() {
        let df = Dragonfly::paper();
        for (a, b) in [(0u32, 40), (3, 250), (64, 128), (10, 11)] {
            assert_eq!(df.profile(a, b), df.profile(b, a));
        }
    }

    #[test]
    fn gateway_router_covers_all_groups() {
        let df = Dragonfly::paper();
        for g in 0..df.groups() {
            for tg in 0..df.groups() {
                if g != tg {
                    let r = df.gateway_router(g, tg);
                    assert!(r < df.routers_per_group());
                }
            }
        }
    }

    #[test]
    fn dragonfly_average_hops_below_fat_tree() {
        // The paper attributes Dragonfly's slightly higher tolerance to a
        // lower average switch count (§IV-2). Check on the first 256 nodes.
        use crate::fattree::FatTree;
        let df = Dragonfly::paper();
        let ft = FatTree::new(16);
        let mut sum_df = 0u64;
        let mut sum_ft = 0u64;
        let mut cnt = 0u64;
        for a in 0..256u32 {
            for b in (a + 1)..256u32 {
                sum_df += df.profile(a, b).switches as u64;
                sum_ft += ft.profile(a, b).switches as u64;
                cnt += 1;
            }
        }
        assert!(
            (sum_df as f64) / (cnt as f64) < (sum_ft as f64) / (cnt as f64),
            "dragonfly {} vs fat tree {}",
            sum_df,
            sum_ft
        );
    }
}

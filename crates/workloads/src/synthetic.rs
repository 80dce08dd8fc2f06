//! Synthetic traffic patterns (Table II): uniform random, bit complement,
//! bit rotation and transpose, with the paper's mix of 1-flit control and
//! 5-flit data packets over 3 VNets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use upp_noc::ids::{NodeId, VnetId};
use upp_noc::sim::System;
use upp_noc::topology::Topology;

/// A synthetic destination pattern over the chiplet cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Pattern {
    /// Destination drawn uniformly from all other cores.
    UniformRandom,
    /// `dest = !src` over the core-index bits.
    BitComplement,
    /// `dest = rotate_left(src, 1)` over the core-index bits.
    BitRotation,
    /// `dest = swap(high half, low half)` of the core-index bits.
    Transpose,
    /// A fraction of the traffic targets a small set of hot cores (directory
    /// or memory-controller pressure); the rest is uniform random.
    Hotspot,
    /// Destination is the next core in index order (nearest-neighbour
    /// streaming; mostly intra-chiplet with periodic boundary crossings).
    Neighbor,
}

impl Pattern {
    /// All four patterns of Fig. 7.
    pub const ALL: [Pattern; 4] = [
        Pattern::UniformRandom,
        Pattern::BitComplement,
        Pattern::BitRotation,
        Pattern::Transpose,
    ];

    /// The additional stress patterns this reproduction provides beyond the
    /// paper's four.
    pub const EXTRA: [Pattern; 2] = [Pattern::Hotspot, Pattern::Neighbor];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::UniformRandom => "uniform_random",
            Pattern::BitComplement => "bit_complement",
            Pattern::BitRotation => "bit_rotation",
            Pattern::Transpose => "transpose",
            Pattern::Hotspot => "hotspot",
            Pattern::Neighbor => "neighbor",
        }
    }
}

/// A Bernoulli packet source on every chiplet core.
///
/// `rate` is the offered load in **flits per cycle per node**; packet
/// injection probabilities are derated by the expected packet length so the
/// flit rate matches the paper's x-axes. Packets mix control (1 flit, VNets
/// 0/1) and data (5 flits, VNet 2) in the 2:1 ratio a request/forward/
/// response protocol produces.
#[derive(Debug)]
pub struct SyntheticTraffic {
    pattern: Pattern,
    rate: f64,
    cores: Vec<NodeId>,
    bits: u32,
    rng: SmallRng,
    /// Packets injected so far.
    pub injected: u64,
    /// Packets dropped because the source queue was full.
    pub rejected: u64,
}

impl SyntheticTraffic {
    /// Creates a source over the chiplet cores of `topo`.
    ///
    /// # Panics
    ///
    /// Panics for bit-permutation patterns when the core count is not a
    /// power of two.
    pub fn new(topo: &Topology, pattern: Pattern, rate: f64, seed: u64) -> Self {
        let cores: Vec<NodeId> = topo
            .chiplets()
            .iter()
            .flat_map(|c| c.routers.iter().copied())
            .collect();
        let n = cores.len();
        let needs_pow2 = matches!(
            pattern,
            Pattern::BitComplement | Pattern::BitRotation | Pattern::Transpose
        );
        if needs_pow2 {
            assert!(
                n.is_power_of_two(),
                "{pattern:?} needs a power-of-two core count, got {n}"
            );
        }
        Self {
            pattern,
            rate,
            bits: n.trailing_zeros(),
            cores,
            rng: SmallRng::seed_from_u64(seed ^ TRAFFIC_SALT),
            injected: 0,
            rejected: 0,
        }
    }

    fn dest_index(&mut self, src_idx: usize) -> usize {
        let n = self.cores.len();
        let mask = n - 1;
        match self.pattern {
            Pattern::UniformRandom => {
                let mut d = self.rng.gen_range(0..n);
                if d == src_idx {
                    d = (d + 1) % n;
                }
                d
            }
            Pattern::BitComplement => !src_idx & mask,
            Pattern::BitRotation => ((src_idx << 1) | (src_idx >> (self.bits - 1))) & mask,
            Pattern::Transpose => {
                let half = self.bits / 2;
                let lo_mask = (1usize << half) - 1;
                let hi = src_idx >> half;
                let lo = src_idx & lo_mask;
                // For odd bit widths the middle bit stays in place.
                let mid = src_idx & !((lo_mask << half) | lo_mask) & mask;
                (lo << (self.bits - half)) | mid | hi
            }
            Pattern::Hotspot => {
                // 30% of packets hit one of four hot cores spread across
                // the chiplets; the rest are uniform.
                if self.rng.gen::<f64>() < 0.3 {
                    let hot = [0, n / 4, n / 2, 3 * n / 4];
                    let d = hot[self.rng.gen_range(0..hot.len())];
                    if d == src_idx {
                        (d + 1) % n
                    } else {
                        d
                    }
                } else {
                    let mut d = self.rng.gen_range(0..n);
                    if d == src_idx {
                        d = (d + 1) % n;
                    }
                    d
                }
            }
            Pattern::Neighbor => (src_idx + 1) % n,
        }
    }

    /// Chooses the packet type for one injection: VNets 0 and 1 carry 1-flit
    /// control packets, VNet 2 carries 5-flit data packets.
    fn pick_kind(&mut self, data_flits: u16) -> (VnetId, u16) {
        match self.rng.gen_range(0..3u8) {
            0 => (VnetId(0), 1),
            1 => (VnetId(1), 1),
            _ => (VnetId(2), data_flits),
        }
    }

    /// Expected flits per packet under the control/data mix.
    fn expected_flits(&self, data_flits: u16) -> f64 {
        (1.0 + 1.0 + f64::from(data_flits)) / 3.0
    }

    /// Injects this cycle's packets into `sys` (call once per cycle, before
    /// `System::step`).
    pub fn tick(&mut self, sys: &mut System) {
        let data_flits = sys.net().cfg().data_packet_flits as u16;
        let p = self.rate / self.expected_flits(data_flits);
        for i in 0..self.cores.len() {
            if self.rng.gen::<f64>() >= p {
                continue;
            }
            let d = self.dest_index(i);
            if d == i {
                continue;
            }
            let (vnet, len) = self.pick_kind(data_flits);
            let (src, dest) = (self.cores[i], self.cores[d]);
            if sys.send(src, dest, vnet, len).is_some() {
                self.injected += 1;
            } else {
                self.rejected += 1;
            }
        }
    }

    /// The pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The offered flit rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// Salt separating traffic RNG streams from topology/router seeds.
const TRAFFIC_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upp_noc::config::NocConfig;
    use upp_noc::network::Network;
    use upp_noc::ni::ConsumePolicy;
    use upp_noc::routing::ChipletRouting;
    use upp_noc::scheme::NoScheme;
    use upp_noc::topology::ChipletSystemSpec;

    fn topo() -> upp_noc::topology::Topology {
        ChipletSystemSpec::baseline().build(0).unwrap()
    }

    fn sys() -> System {
        let net = Network::new(
            NocConfig::default(),
            topo(),
            Arc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            1,
        );
        System::new(net, Box::new(NoScheme))
    }

    #[test]
    fn bit_patterns_are_permutations() {
        let t = topo();
        for pattern in [
            Pattern::BitComplement,
            Pattern::BitRotation,
            Pattern::Transpose,
        ] {
            let mut traffic = SyntheticTraffic::new(&t, pattern, 0.1, 0);
            let n = traffic.cores.len();
            let mut seen = vec![false; n];
            for i in 0..n {
                let d = traffic.dest_index(i);
                assert!(d < n);
                assert!(!seen[d], "{pattern:?} must be a permutation");
                seen[d] = true;
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let t = topo();
        let mut traffic = SyntheticTraffic::new(&t, Pattern::Transpose, 0.1, 0);
        for i in 0..traffic.cores.len() {
            let d = traffic.dest_index(i);
            assert_eq!(traffic.dest_index(d), i, "transpose^2 = identity");
        }
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let t = topo();
        let mut traffic = SyntheticTraffic::new(&t, Pattern::BitComplement, 0.1, 0);
        for i in 0..traffic.cores.len() {
            let d = traffic.dest_index(i);
            assert_eq!(traffic.dest_index(d), i);
        }
    }

    #[test]
    fn hotspot_concentrates_and_neighbor_chains() {
        let t = topo();
        let mut hot = SyntheticTraffic::new(&t, Pattern::Hotspot, 0.1, 7);
        let n = hot.cores.len();
        let mut counts = vec![0u32; n];
        for _ in 0..4_000 {
            counts[hot.dest_index(5)] += 1;
        }
        let hot_total: u32 = [0, n / 4, n / 2, 3 * n / 4]
            .iter()
            .map(|&h| counts[h])
            .sum();
        assert!(
            hot_total > 800,
            "~30% of traffic must hit the hot cores, got {hot_total}/4000"
        );

        let mut nb = SyntheticTraffic::new(&t, Pattern::Neighbor, 0.1, 7);
        for i in 0..n {
            assert_eq!(nb.dest_index(i), (i + 1) % n);
        }
    }

    #[test]
    fn uniform_random_never_self_sends() {
        let t = topo();
        let mut traffic = SyntheticTraffic::new(&t, Pattern::UniformRandom, 0.1, 3);
        for i in 0..traffic.cores.len() {
            for _ in 0..20 {
                assert_ne!(traffic.dest_index(i), i);
            }
        }
    }

    #[test]
    fn offered_load_roughly_matches_rate() {
        let mut s = sys();
        let t = topo();
        let mut traffic = SyntheticTraffic::new(&t, Pattern::UniformRandom, 0.05, 9);
        for _ in 0..2_000 {
            traffic.tick(&mut s);
            s.step();
        }
        // Offered flits ~ rate * nodes * cycles; allow generous tolerance.
        let offered_flits = s.net().stats().flits_injected as f64;
        let expected = 0.05 * 64.0 * 2_000.0;
        assert!(
            (offered_flits - expected).abs() < expected * 0.25,
            "offered {offered_flits} vs expected {expected}"
        );
        assert!(traffic.injected > 0);
    }

    #[test]
    fn packet_mix_uses_all_three_vnets() {
        let mut s = sys();
        let t = topo();
        let mut traffic = SyntheticTraffic::new(&t, Pattern::UniformRandom, 0.08, 5);
        for _ in 0..3_000 {
            traffic.tick(&mut s);
            s.step();
        }
        for _ in 0..5_000 {
            if s.net().in_flight() == 0 {
                break;
            }
            s.step();
        }
        let per_vnet = &s.net().stats().ejected_per_vnet;
        assert!(
            per_vnet.iter().all(|&c| c > 0),
            "all VNets must carry traffic: {per_vnet:?}"
        );
    }
}

//! DSENT-substitute energy model (Fig. 15).
//!
//! The paper feeds gem5 runtime statistics into DSENT at 22 nm and finds the
//! network energy dominated by static (leakage + clock) power, so energy
//! tracks runtime almost linearly. We reproduce that structure: per-event
//! dynamic energies for buffers, crossbars, arbiters and links, plus
//! per-cycle static power proportional to the amount of buffering — with
//! constants in the magnitude range DSENT reports for a 128-bit, 1 GHz,
//! 22 nm router.

use serde::Serialize;
use upp_noc::config::NocConfig;
use upp_noc::stats::NetStats;

/// Per-event and per-cycle energy constants (picojoules / microwatts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    /// Dynamic energy of one buffer write, pJ/bit.
    pub buf_write_pj_per_bit: f64,
    /// Dynamic energy of one buffer read, pJ/bit.
    pub buf_read_pj_per_bit: f64,
    /// Dynamic energy of one crossbar traversal, pJ/bit.
    pub xbar_pj_per_bit: f64,
    /// Dynamic energy of one allocation/arbitration event, pJ.
    pub arbiter_pj: f64,
    /// Dynamic energy of one link traversal, pJ/bit.
    pub link_pj_per_bit: f64,
    /// Static (leakage) power per buffered bit, µW.
    pub leak_uw_per_buffer_bit: f64,
    /// Static power of one router's control + clock tree, µW.
    pub leak_uw_per_router_fixed: f64,
    /// Static power per link, µW.
    pub leak_uw_per_link: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            buf_write_pj_per_bit: 0.020,
            buf_read_pj_per_bit: 0.015,
            xbar_pj_per_bit: 0.025,
            arbiter_pj: 0.3,
            link_pj_per_bit: 0.030,
            leak_uw_per_buffer_bit: 0.9,
            leak_uw_per_router_fixed: 1_500.0,
            leak_uw_per_link: 120.0,
        }
    }
}

/// An energy breakdown for one run, in picojoules (1 GHz: 1 cycle = 1 ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EnergyBreakdown {
    /// Dynamic energy, pJ.
    pub dynamic_pj: f64,
    /// Static energy, pJ.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.static_pj
    }

    /// Fraction of the total that is static.
    pub fn static_share(&self) -> f64 {
        if self.total_pj() == 0.0 {
            0.0
        } else {
            self.static_pj / self.total_pj()
        }
    }
}

/// Per-router buffering in bits under `cfg` (mesh ports only; matches the
/// area model's accounting).
pub fn buffer_bits_per_router(cfg: &NocConfig, ports: usize) -> f64 {
    (ports * cfg.vcs_per_port() * cfg.vc_buffer_depth * cfg.flit_width_bits) as f64
}

impl EnergyModel {
    /// Computes the network energy of a run from its statistics.
    ///
    /// `routers` and `links` describe the system size; `cycles` is the run
    /// length. Every flit hop is one buffer write + read + crossbar + link
    /// traversal + arbitration; bypass hops skip the buffer energy (UPP's
    /// upward flits bypass buffers); control hops are one signal-width
    /// (32-bit) traversal.
    pub fn energy(
        &self,
        cfg: &NocConfig,
        stats: &NetStats,
        routers: usize,
        links: usize,
        cycles: u64,
    ) -> EnergyBreakdown {
        let w = cfg.flit_width_bits as f64;
        let per_hop = w
            * (self.buf_write_pj_per_bit
                + self.buf_read_pj_per_bit
                + self.xbar_pj_per_bit
                + self.link_pj_per_bit)
            + self.arbiter_pj;
        let per_bypass = w * (self.xbar_pj_per_bit + self.link_pj_per_bit);
        let per_control = 32.0 * (self.xbar_pj_per_bit + self.link_pj_per_bit) + self.arbiter_pj;
        let dynamic_pj = stats.flit_hops as f64 * per_hop
            + stats.bypass_hops as f64 * per_bypass
            + stats.control_hops as f64 * per_control
            + stats.flits_injected as f64 * w * self.buf_write_pj_per_bit
            + stats.flits_ejected as f64 * w * self.buf_read_pj_per_bit;

        let leak_per_router_uw = self.leak_uw_per_router_fixed
            + buffer_bits_per_router(cfg, 5) * self.leak_uw_per_buffer_bit;
        let total_uw = routers as f64 * leak_per_router_uw + links as f64 * self.leak_uw_per_link;
        // µW * ns = femtojoules; convert to pJ.
        let static_pj = total_uw * cycles as f64 * 1e-3;
        EnergyBreakdown {
            dynamic_pj,
            static_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(hops: u64, cycles: u64) -> (NetStats, u64) {
        let mut s = NetStats::new(3);
        s.flit_hops = hops;
        s.flits_injected = hops / 6;
        s.flits_ejected = hops / 6;
        (s, cycles)
    }

    #[test]
    fn static_dominates_at_realistic_load() {
        // The paper: "the network power consumption is dominated by static
        // power" for full-system runs. A run at ~0.05 flits/node/cycle over
        // 80 routers should be >80% static.
        let cfg = NocConfig::default();
        let m = EnergyModel::default();
        let cycles = 100_000;
        let (s, c) = stats_with(80 * cycles / 50 * 6, cycles); // ~0.02 flits/node, ~6 hops
        let e = m.energy(&cfg, &s, 80, 300, c);
        assert!(
            e.static_share() > 0.8,
            "static share {} should dominate",
            e.static_share()
        );
        assert!(e.static_share() < 0.995, "dynamic must still be visible");
    }

    #[test]
    fn energy_scales_with_runtime() {
        let cfg = NocConfig::default();
        let m = EnergyModel::default();
        let (s, _) = stats_with(1_000_000, 0);
        let short = m.energy(&cfg, &s, 80, 300, 50_000);
        let long = m.energy(&cfg, &s, 80, 300, 100_000);
        assert!(long.total_pj() > short.total_pj());
        assert!((long.static_pj / short.static_pj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bypass_hops_cost_less_than_buffered_hops() {
        let cfg = NocConfig::default();
        let m = EnergyModel::default();
        let mut a = NetStats::new(3);
        a.flit_hops = 1000;
        let mut b = NetStats::new(3);
        b.bypass_hops = 1000;
        let ea = m.energy(&cfg, &a, 80, 300, 1);
        let eb = m.energy(&cfg, &b, 80, 300, 1);
        assert!(eb.dynamic_pj < ea.dynamic_pj, "bypass skips buffer energy");
    }

    #[test]
    fn more_vcs_leak_more() {
        let m = EnergyModel::default();
        let cfg1 = NocConfig::default();
        let cfg4 = NocConfig::default().with_vcs_per_vnet(4);
        let s = NetStats::new(3);
        let e1 = m.energy(&cfg1, &s, 80, 300, 1_000);
        let e4 = m.energy(&cfg4, &s, 80, 300, 1_000);
        assert!(
            e4.static_pj > 2.0 * e1.static_pj,
            "4 VCs quadruple the buffer leakage"
        );
    }
}

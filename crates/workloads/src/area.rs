//! Analytic router area model (Fig. 14).
//!
//! The paper synthesises routers with Design Compiler under a 45 nm TSMC
//! library at 1 GHz and reports a baseline router of 135,083 µm² with 1 VC
//! per VNet and 339,371 µm² with 4 VCs per VNet. We fit a per-buffer-bit
//! linear model to those two points and account for each scheme's additions
//! in real bits and calibrated control logic:
//!
//! * composable routing adds nothing (turn restrictions are routing-table
//!   content);
//! * UPP adds two 32-bit signal buffers, the circuit/reservation tables and
//!   signal units per chiplet router, and counters + arbiters + the popup
//!   stage table per interposer router (Fig. 6);
//! * remote control adds four data-packet side buffers per *boundary* router
//!   (amortised over the chiplet's routers, as the paper reports) plus the
//!   permission subnetwork endpoint.

use serde::Serialize;
use upp_noc::config::NocConfig;

/// Baseline router area at 1 VC per VNet (paper, 45 nm, µm²).
pub const BASELINE_AREA_1VC: f64 = 135_083.0;
/// Baseline router area at 4 VCs per VNet (paper, 45 nm, µm²).
pub const BASELINE_AREA_4VC: f64 = 339_371.0;

/// Per-router buffer bits at `vcs_per_vnet` (5 ports x 3 VNets x depth 4 x
/// 128-bit flits in the baseline configuration).
fn buffer_bits(cfg: &NocConfig) -> f64 {
    (5 * cfg.vcs_per_port() * cfg.vc_buffer_depth * cfg.flit_width_bits) as f64
}

/// The fitted area model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AreaModel {
    /// µm² per buffer bit (fitted from the two published baseline points).
    pub um2_per_bit: f64,
    /// Fixed router area: crossbar, allocators, clocking (µm²).
    pub fixed_um2: f64,
    /// UPP control logic per chiplet router: signal units, circuit table,
    /// priority muxes, NI reservation table (µm², calibrated to Fig. 14).
    pub upp_chiplet_logic_um2: f64,
    /// UPP control logic per interposer router at 1 VC: counters, arbiter,
    /// popup stage table, signal units (µm²).
    pub upp_interposer_logic_um2: f64,
    /// Additional interposer arbiter area per extra VC per VNet (µm²).
    pub upp_interposer_per_vc_um2: f64,
    /// Remote-control permission endpoint per router (µm²).
    pub remote_logic_um2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        // Fit: (339,371 - 135,083) / (30,720 - 7,680) bits = 8.867 µm²/bit.
        let cfg1 = NocConfig::default();
        let cfg4 = NocConfig::default().with_vcs_per_vnet(4);
        let um2_per_bit =
            (BASELINE_AREA_4VC - BASELINE_AREA_1VC) / (buffer_bits(&cfg4) - buffer_bits(&cfg1));
        let fixed_um2 = BASELINE_AREA_1VC - buffer_bits(&cfg1) * um2_per_bit;
        Self {
            um2_per_bit,
            fixed_um2,
            upp_chiplet_logic_um2: 4_525.0,
            upp_interposer_logic_um2: 3_220.0,
            upp_interposer_per_vc_um2: 161.0,
            remote_logic_um2: 80.0,
        }
    }
}

/// One scheme's relative overhead on chiplet and interposer routers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AreaOverhead {
    /// Overhead on a chiplet router (fraction of baseline area; NI included,
    /// as in the paper).
    pub chiplet: f64,
    /// Overhead on an interposer router.
    pub interposer: f64,
}

impl AreaModel {
    /// Baseline router area under `cfg`.
    pub fn baseline_router_um2(&self, cfg: &NocConfig) -> f64 {
        self.fixed_um2 + buffer_bits(cfg) * self.um2_per_bit
    }

    /// Composable routing: turn restrictions only.
    pub fn composable(&self, _cfg: &NocConfig) -> AreaOverhead {
        AreaOverhead {
            chiplet: 0.0,
            interposer: 0.0,
        }
    }

    /// UPP's overhead (Fig. 6 structures).
    pub fn upp(&self, cfg: &NocConfig) -> AreaOverhead {
        let base = self.baseline_router_um2(cfg);
        // Two 32-bit buffers + control logic per chiplet router.
        let chiplet = (64.0 * self.um2_per_bit + self.upp_chiplet_logic_um2) / base;
        // Counters, arbiters (grow with VC count), stage table per
        // interposer router.
        let interposer = (self.upp_interposer_logic_um2
            + self.upp_interposer_per_vc_um2 * (cfg.vcs_per_vnet as f64 - 1.0) * 3.0
            + 36.0 * self.um2_per_bit)
            / base;
        AreaOverhead {
            chiplet,
            interposer,
        }
    }

    /// Remote control's overhead: four data-packet side buffers per boundary
    /// router, amortised over `routers_per_chiplet` (the paper reports the
    /// average chiplet-router overhead), plus the permission endpoint.
    pub fn remote_control(
        &self,
        cfg: &NocConfig,
        boundary_per_chiplet: usize,
        routers_per_chiplet: usize,
    ) -> AreaOverhead {
        let base = self.baseline_router_um2(cfg);
        let side_bits = (cfg.data_packet_flits * cfg.flit_width_bits * 4) as f64;
        let per_chiplet_total = side_bits * self.um2_per_bit * boundary_per_chiplet as f64
            + self.remote_logic_um2 * routers_per_chiplet as f64;
        AreaOverhead {
            chiplet: per_chiplet_total / routers_per_chiplet as f64 / base,
            interposer: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg1() -> NocConfig {
        NocConfig::default()
    }

    fn cfg4() -> NocConfig {
        NocConfig::default().with_vcs_per_vnet(4)
    }

    #[test]
    fn fit_reproduces_published_baselines() {
        let m = AreaModel::default();
        assert!((m.baseline_router_um2(&cfg1()) - BASELINE_AREA_1VC).abs() < 1.0);
        assert!((m.baseline_router_um2(&cfg4()) - BASELINE_AREA_4VC).abs() < 1.0);
    }

    #[test]
    fn upp_overhead_matches_fig14_shape() {
        let m = AreaModel::default();
        let o1 = m.upp(&cfg1());
        let o4 = m.upp(&cfg4());
        // Paper: 3.77% / 1.50% chiplet, 2.62% / 1.47% interposer.
        assert!(
            (o1.chiplet - 0.0377).abs() < 0.004,
            "chiplet 1VC {}",
            o1.chiplet
        );
        assert!(
            (o4.chiplet - 0.0150).abs() < 0.003,
            "chiplet 4VC {}",
            o4.chiplet
        );
        assert!(
            (o1.interposer - 0.0262).abs() < 0.005,
            "interposer 1VC {}",
            o1.interposer
        );
        assert!(
            (o4.interposer - 0.0147).abs() < 0.004,
            "interposer 4VC {}",
            o4.interposer
        );
        // Headline claim: always under 4%.
        for o in [o1, o4] {
            assert!(o.chiplet < 0.04 && o.interposer < 0.04);
        }
    }

    #[test]
    fn remote_overhead_matches_fig14_shape() {
        let m = AreaModel::default();
        let o1 = m.remote_control(&cfg1(), 4, 16);
        let o4 = m.remote_control(&cfg4(), 4, 16);
        // Paper: 4.14% / 1.65% chiplet, 0% interposer.
        assert!(
            (o1.chiplet - 0.0414).abs() < 0.005,
            "chiplet 1VC {}",
            o1.chiplet
        );
        assert!(
            (o4.chiplet - 0.0165).abs() < 0.003,
            "chiplet 4VC {}",
            o4.chiplet
        );
        assert_eq!(o1.interposer, 0.0);
        // Remote's chiplet-side overhead exceeds UPP's.
        assert!(o1.chiplet > m.upp(&cfg1()).chiplet);
    }

    #[test]
    fn composable_adds_nothing() {
        let m = AreaModel::default();
        let o = m.composable(&cfg1());
        assert_eq!(o.chiplet, 0.0);
        assert_eq!(o.interposer, 0.0);
    }
}

//! Network configuration knobs (Table II of the paper).

use serde::Serialize;

/// The link-level flow control discipline (Table I's flow-control
/// modularity column: UPP supports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowControl {
    /// Flits advance independently; a blocked worm spans multiple routers.
    Wormhole,
    /// A head flit advances only when the downstream VC can hold the whole
    /// packet, so blocked packets are always fully buffered in one router.
    VirtualCutThrough,
}

/// Most VCs one port may carry ([`NocConfig::vcs_per_port`]): a router
/// tracks which input VCs of a port hold flits in one 64-bit word.
pub const MAX_VCS_PER_PORT: usize = 64;

/// Static configuration of the simulated network.
///
/// The defaults reproduce Table II of the paper: 3 VNets with 1 VC each,
/// 4 flit-deep VC buffers, a 3-stage router pipeline, 1-cycle links, wormhole
/// flow control, 5-flit data packets and 1-flit control packets.
///
/// # Examples
///
/// ```
/// use upp_noc::config::NocConfig;
///
/// let cfg = NocConfig::default().with_vcs_per_vnet(4);
/// assert_eq!(cfg.vcs_per_vnet, 4);
/// assert_eq!(cfg.num_vnets, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NocConfig {
    /// Number of virtual networks (message classes).
    pub num_vnets: usize,
    /// Virtual channels per VNet (1 or 4 in the paper's experiments).
    pub vcs_per_vnet: usize,
    /// Depth of each VC buffer, in flits.
    pub vc_buffer_depth: usize,
    /// Link / flit width in bits (used by the energy and area models).
    pub flit_width_bits: usize,
    /// Size of a data packet, in flits.
    pub data_packet_flits: usize,
    /// Size of a control packet, in flits.
    pub control_packet_flits: usize,
    /// Link traversal latency in cycles.
    pub link_latency: u64,
    /// Credit return latency in cycles.
    pub credit_latency: u64,
    /// Capacity of each per-VNet NI ejection queue, in packets.
    pub ejection_queue_entries: usize,
    /// Capacity of each per-VNet NI injection queue, in packets.
    pub injection_queue_entries: usize,
    /// Cycles without any flit movement (while packets are in flight) after
    /// which the watchdog declares the network globally stalled.
    pub watchdog_threshold: u64,
    /// Link-level flow control discipline.
    pub flow_control: FlowControl,
}

impl NocConfig {
    /// Configuration used by the paper's baseline experiments (1 VC per VNet).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Returns a copy with a different number of VCs per VNet.
    pub fn with_vcs_per_vnet(mut self, vcs: usize) -> Self {
        self.vcs_per_vnet = vcs;
        self
    }

    /// Returns a copy with a different VC buffer depth.
    pub fn with_vc_buffer_depth(mut self, depth: usize) -> Self {
        self.vc_buffer_depth = depth;
        self
    }

    /// Returns a copy using virtual cut-through flow control (buffers are
    /// deepened to hold a whole data packet when necessary).
    pub fn with_virtual_cut_through(mut self) -> Self {
        self.flow_control = FlowControl::VirtualCutThrough;
        self.vc_buffer_depth = self.vc_buffer_depth.max(self.max_packet_flits());
        self
    }

    /// Total number of VCs on one port.
    #[inline]
    pub fn vcs_per_port(&self) -> usize {
        self.num_vnets * self.vcs_per_vnet
    }

    /// The largest packet size the network carries, in flits.
    #[inline]
    pub fn max_packet_flits(&self) -> usize {
        self.data_packet_flits.max(self.control_packet_flits)
    }

    /// Validates the configuration, returning a human-readable reason when it
    /// is unusable.
    ///
    /// # Errors
    ///
    /// Returns `Err` when any dimension is zero, when a port would carry more
    /// than [`MAX_VCS_PER_PORT`] VCs, or when buffers cannot hold a single
    /// flit.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_vnets == 0 {
            return Err("num_vnets must be at least 1".into());
        }
        if self.num_vnets > 8 {
            return Err("num_vnets above 8 exceeds the one-hot signal encoding width".into());
        }
        if self.vcs_per_vnet == 0 {
            return Err("vcs_per_vnet must be at least 1".into());
        }
        if self.vcs_per_port() > MAX_VCS_PER_PORT {
            return Err(format!(
                "{} VCs per port ({} VNets x {} VCs) exceed the limit of {MAX_VCS_PER_PORT}",
                self.vcs_per_port(),
                self.num_vnets,
                self.vcs_per_vnet
            ));
        }
        if self.vc_buffer_depth == 0 {
            return Err("vc_buffer_depth must be at least 1".into());
        }
        if self.data_packet_flits == 0 || self.control_packet_flits == 0 {
            return Err("packet sizes must be at least 1 flit".into());
        }
        if self.link_latency == 0 {
            return Err("link_latency must be at least 1 cycle".into());
        }
        if self.credit_latency == 0 {
            return Err("credit_latency must be at least 1 cycle".into());
        }
        if self.ejection_queue_entries == 0 || self.injection_queue_entries == 0 {
            return Err("NI queues must hold at least 1 packet".into());
        }
        if self.flow_control == FlowControl::VirtualCutThrough
            && self.vc_buffer_depth < self.max_packet_flits()
        {
            return Err("virtual cut-through needs VC buffers at least one max packet deep".into());
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            num_vnets: 3,
            vcs_per_vnet: 1,
            vc_buffer_depth: 4,
            flit_width_bits: 128,
            data_packet_flits: 5,
            control_packet_flits: 1,
            link_latency: 1,
            credit_latency: 1,
            ejection_queue_entries: 4,
            injection_queue_entries: 16,
            watchdog_threshold: 1_000,
            flow_control: FlowControl::Wormhole,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.num_vnets, 3);
        assert_eq!(cfg.vcs_per_vnet, 1);
        assert_eq!(cfg.vc_buffer_depth, 4);
        assert_eq!(cfg.flit_width_bits, 128);
        assert_eq!(cfg.data_packet_flits, 5);
        assert_eq!(cfg.control_packet_flits, 1);
        assert_eq!(cfg.link_latency, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_style_setters() {
        let cfg = NocConfig::default()
            .with_vcs_per_vnet(4)
            .with_vc_buffer_depth(8);
        assert_eq!(cfg.vcs_per_port(), 12);
        assert_eq!(cfg.vc_buffer_depth, 8);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = NocConfig::default();
        cfg.num_vnets = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::default();
        cfg.vcs_per_vnet = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::default();
        cfg.vc_buffer_depth = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::default();
        cfg.num_vnets = 9;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::default();
        cfg.link_latency = 0;
        assert!(cfg.validate().is_err());

        // 3 VNets x 21 VCs fill 63 bits of the occupancy word; 22 overflow.
        assert!(NocConfig::default()
            .with_vcs_per_vnet(21)
            .validate()
            .is_ok());
        let err = NocConfig::default()
            .with_vcs_per_vnet(22)
            .validate()
            .unwrap_err();
        assert!(
            err.contains("66 VCs per port") && err.contains("64"),
            "{err}"
        );
        // Exactly one whole word, in one VNet or two, is carried; one VC
        // past it is an error.
        for (vnets, vcs) in [(1, 64), (2, 32)] {
            let cfg = NocConfig {
                num_vnets: vnets,
                ..NocConfig::default().with_vcs_per_vnet(vcs)
            };
            assert!(cfg.validate().is_ok(), "{vnets} x {vcs}");
        }
        let cfg = NocConfig {
            num_vnets: 1,
            ..NocConfig::default().with_vcs_per_vnet(65)
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("65 VCs per port"), "{err}");
    }

    #[test]
    fn max_packet_flits_covers_both_kinds() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.max_packet_flits(), 5);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn virtual_cut_through_deepens_buffers_and_validates() {
        let cfg = NocConfig::default().with_virtual_cut_through();
        assert_eq!(cfg.flow_control, FlowControl::VirtualCutThrough);
        assert_eq!(cfg.vc_buffer_depth, 5);
        assert!(cfg.validate().is_ok());

        let mut bad = NocConfig::default();
        bad.flow_control = FlowControl::VirtualCutThrough;
        assert!(
            bad.validate().is_err(),
            "4-deep buffers cannot hold a 5-flit packet"
        );
    }
}

//! Protocol-signal wire format (Fig. 4 of the paper).
//!
//! `UPP_req` and `UPP_stop` share one format: 3 type bits, the destination
//! router/NI, a one-hot VNet field and (under wormhole flow control) the
//! input VC — 3 + 8 + 3 + 4 = 18 bits on the paper's system. `UPP_ack` is
//! the type, the one-hot VNet and a one-hot *started* field — 9 bits. The
//! simulator's `ControlMsg` carries destination, VNet and requester in the
//! clear, so a signal's `ControlMsg::bits` is its [`SignalKind`] tag alone;
//! [`SignalLayout`] is how wide the hardware word would be on a given
//! system, checked against the 32-bit buffers each chiplet router adds.

/// Width of the type field.
pub const TYPE_BITS: u32 = 3;
/// Width of each of the two control buffers a chiplet router adds.
pub const CONTROL_BUFFER_BITS: u32 = 32;

/// The three UPP signals; the discriminant is Fig. 4's type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SignalKind {
    /// Reserve an ejection-queue entry at the destination NI before popup.
    Req = 0b001,
    /// The reservation succeeded; popup may start.
    Ack = 0b010,
    /// The upward packet made normal progress; recycle the reservation.
    Stop = 0b011,
}

impl SignalKind {
    /// The kind a control word's type tag names, if any.
    pub fn from_bits(bits: u32) -> Option<Self> {
        [Self::Req, Self::Ack, Self::Stop]
            .into_iter()
            .find(|&k| k as u32 == bits)
    }
}

/// Field widths of the Fig. 4 formats on one system. Fig. 4's own numbers
/// are the floors: larger systems grow only the fields that must.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalLayout {
    /// Destination router/NI field.
    pub dest_bits: u32,
    /// One-hot VNet field; an ack's one-hot *started* field is as wide.
    pub vnet_bits: u32,
    /// Wormhole input-VC field (Sec. V-B3).
    pub vc_bits: u32,
}

/// Bits needed to name one of `count` things.
fn index_bits(count: usize) -> u32 {
    usize::BITS - count.saturating_sub(1).leading_zeros()
}

impl SignalLayout {
    /// The layout for a system of `nodes` routers carrying `num_vnets`
    /// VNets over `vcs_per_port` VCs per port.
    pub fn for_system(nodes: usize, num_vnets: usize, vcs_per_port: usize) -> Self {
        Self {
            dest_bits: index_bits(nodes).max(8),
            // Capped where the one-hot field alone overflows the buffer.
            vnet_bits: num_vnets.min(CONTROL_BUFFER_BITS as usize) as u32,
            vc_bits: index_bits(vcs_per_port).max(4),
        }
    }

    /// Width of a `UPP_req` / `UPP_stop`.
    pub fn req_width(&self) -> u32 {
        TYPE_BITS + self.dest_bits + self.vnet_bits + self.vc_bits
    }

    /// Width of a `UPP_ack`.
    pub fn ack_width(&self) -> u32 {
        TYPE_BITS + 2 * self.vnet_bits
    }

    /// Checks both formats against the [`CONTROL_BUFFER_BITS`]-bit buffers.
    ///
    /// # Errors
    ///
    /// A message naming the widths when either format is wider.
    pub fn check(&self) -> Result<(), String> {
        let (req, ack) = (self.req_width(), self.ack_width());
        if req.max(ack) > CONTROL_BUFFER_BITS {
            return Err(format!(
                "UPP's signals do not fit the {CONTROL_BUFFER_BITS}-bit control buffers: \
                 a request is {req} bits ({TYPE_BITS} type + {} destination + {} VNet + {} input VC), \
                 an ack {ack}",
                self.dest_bits, self.vnet_bits, self.vc_bits
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widths(nodes: usize, vcs_per_port: usize) -> (u32, u32) {
        let l = SignalLayout::for_system(nodes, 3, vcs_per_port);
        l.check().expect("fits the control buffers");
        (l.req_width(), l.ack_width())
    }

    #[test]
    fn widths_match_fig4() {
        assert_eq!(widths(80, 3), (18, 9), "3 + 8 + 3 + 4 and 3 + 3 + 3 bits");
    }

    #[test]
    fn larger_systems_grow_only_the_fields_that_must() {
        assert_eq!(widths(160, 3), (18, 9), "large: still 8 destination bits");
        assert_eq!(widths(1_280, 3), (21, 9), "grid:8x8: 11 destination bits");
        assert_eq!(widths(20_480, 3), (25, 9), "grid:32x32: 15");
        assert_eq!(widths(332_820, 3), (29, 9), "grid:129x129: 19");
        let l = SignalLayout::for_system(80, 3, 63);
        assert_eq!((l.vc_bits, l.req_width()), (6, 20), "63 VCs per port");
        assert_eq!(SignalLayout::for_system(256, 3, 16).req_width(), 18);
        assert_eq!(SignalLayout::for_system(257, 3, 17).req_width(), 20);
    }

    #[test]
    fn a_layout_that_does_not_fit_names_the_widths() {
        assert_eq!(widths(1 << 20, 64), (32, 9), "the last system that fits");
        let too_wide = SignalLayout::for_system((1 << 20) + 1, 3, 64);
        let err = too_wide.check().unwrap_err();
        assert!(err.contains("33 bits") && err.contains("32-bit"), "{err}");
        let err = SignalLayout::for_system(80, 15, 3).check().unwrap_err();
        assert!(err.contains("an ack 33"), "{err}");
    }

    #[test]
    fn tags_are_fig4s_and_nothing_else_decodes() {
        for k in [SignalKind::Req, SignalKind::Ack, SignalKind::Stop] {
            assert_eq!(SignalKind::from_bits(k as u32), Some(k));
        }
        assert_eq!(SignalKind::from_bits(0), None);
    }
}

//! Protocol-signal encoding (Fig. 4 of the paper).
//!
//! `UPP_req` and `UPP_stop` share one compact format: 3 type bits, 8 bits of
//! destination router/NI, 3 one-hot VNet bits and (under wormhole flow
//! control) a 4-bit input-VC field — 18 bits total. `UPP_ack` carries 3 type
//! bits, 3 one-hot VNet bits and a 3-bit one-hot *started* field — 9 bits.
//! Both fit comfortably in the two 32-bit hardware buffers each chiplet
//! router adds; the encoding here is exact so the area model can account for
//! real widths.

use serde::{Deserialize, Serialize};
use upp_noc::ids::{NodeId, VnetId};

/// Width of the type field.
pub const TYPE_BITS: u32 = 3;
/// Width of the destination router/NI field.
pub const DEST_BITS: u32 = 8;
/// Width of the one-hot VNet field.
pub const VNET_BITS: u32 = 3;
/// Width of the wormhole input-VC field.
pub const VC_BITS: u32 = 4;
/// Width of the one-hot popup-started field (acks).
pub const START_BITS: u32 = 3;

/// Total width of a `UPP_req`/`UPP_stop` under wormhole flow control.
pub const REQ_WIDTH: u32 = TYPE_BITS + DEST_BITS + VNET_BITS + VC_BITS;
/// Total width of a `UPP_ack` under wormhole flow control.
pub const ACK_WIDTH: u32 = TYPE_BITS + VNET_BITS + START_BITS;

/// A decoded UPP protocol signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UppSignal {
    /// Reserve an ejection-queue entry at the destination NI before popup.
    Req {
        /// Destination router and NI.
        dest: NodeId,
        /// VNet of the upward packet.
        vnet: VnetId,
        /// Input VC holding the upward packet at the interposer router
        /// (wormhole support, Sec. V-B3).
        input_vc: u8,
    },
    /// The reservation succeeded; popup may start.
    Ack {
        /// VNet of the popup this ack answers.
        vnet: VnetId,
        /// One-hot per-VNet flags: popup already started inside the chiplet
        /// when the ack passed the tagged router.
        started: u8,
    },
    /// The upward packet made normal progress; recycle the reservation.
    Stop {
        /// Destination router and NI.
        dest: NodeId,
        /// VNet of the cancelled popup.
        vnet: VnetId,
    },
}

/// Errors raised when a signal cannot be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalCodecError {
    /// Node id exceeds the 8-bit destination field.
    DestTooLarge(NodeId),
    /// VNet index exceeds the 3-bit one-hot field.
    VnetTooLarge(VnetId),
    /// Input VC exceeds the 4-bit field.
    VcTooLarge(u8),
    /// Unknown type tag in an encoded word.
    BadType(u32),
    /// One-hot field holds zero or multiple bits.
    BadOneHot(u32),
}

impl std::fmt::Display for SignalCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DestTooLarge(n) => write!(f, "destination {n} exceeds the 8-bit field"),
            Self::VnetTooLarge(v) => write!(f, "vnet {v} exceeds the 3-bit one-hot field"),
            Self::VcTooLarge(c) => write!(f, "input VC {c} exceeds the 4-bit field"),
            Self::BadType(t) => write!(f, "unknown signal type tag {t}"),
            Self::BadOneHot(x) => write!(f, "field {x:#b} is not one-hot"),
        }
    }
}

impl std::error::Error for SignalCodecError {}

/// Checks, before a run starts, that every input VC of a port carrying
/// `vcs_per_port` VCs fits the `UPP_req`'s [`VC_BITS`]-bit input-VC field —
/// otherwise the first popup from a higher VC fails to encode mid-run.
///
/// # Errors
///
/// Returns a message naming the limit when `vcs_per_port` exceeds it.
pub fn check_vcs_per_port(vcs_per_port: usize) -> Result<(), String> {
    let limit = 1usize << VC_BITS;
    if vcs_per_port > limit {
        return Err(format!(
            "UPP's request signal has a {VC_BITS}-bit input-VC field: \
             at most {limit} VCs per port, got {vcs_per_port}"
        ));
    }
    Ok(())
}

const TYPE_REQ: u32 = 0b001;
const TYPE_ACK: u32 = 0b010;
const TYPE_STOP: u32 = 0b011;

impl UppSignal {
    /// The signal's VNet.
    pub fn vnet(&self) -> VnetId {
        match *self {
            UppSignal::Req { vnet, .. }
            | UppSignal::Ack { vnet, .. }
            | UppSignal::Stop { vnet, .. } => vnet,
        }
    }

    /// Encodes to the compact wire format of Fig. 4.
    ///
    /// Layout (LSB first): `type[3] | dest[8] | vnet_onehot[3] | vc[4]` for
    /// req/stop, `type[3] | vnet_onehot[3] | started[3]` for acks.
    ///
    /// # Errors
    ///
    /// Returns [`SignalCodecError`] when a field does not fit its width.
    pub fn encode(&self) -> Result<u32, SignalCodecError> {
        match *self {
            UppSignal::Req {
                dest,
                vnet,
                input_vc,
            } => {
                let d = check_dest(dest)?;
                let v = onehot(vnet)?;
                if input_vc >= (1 << VC_BITS) {
                    return Err(SignalCodecError::VcTooLarge(input_vc));
                }
                Ok(TYPE_REQ
                    | (d << TYPE_BITS)
                    | (v << (TYPE_BITS + DEST_BITS))
                    | ((input_vc as u32) << (TYPE_BITS + DEST_BITS + VNET_BITS)))
            }
            UppSignal::Stop { dest, vnet } => {
                let d = check_dest(dest)?;
                let v = onehot(vnet)?;
                Ok(TYPE_STOP | (d << TYPE_BITS) | (v << (TYPE_BITS + DEST_BITS)))
            }
            UppSignal::Ack { vnet, started } => {
                let v = onehot(vnet)?;
                if started >= (1 << START_BITS) {
                    return Err(SignalCodecError::BadOneHot(started as u32));
                }
                Ok(TYPE_ACK | (v << TYPE_BITS) | ((started as u32) << (TYPE_BITS + VNET_BITS)))
            }
        }
    }

    /// Decodes the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`SignalCodecError`] on a malformed word.
    pub fn decode(bits: u32) -> Result<Self, SignalCodecError> {
        let ty = bits & ((1 << TYPE_BITS) - 1);
        match ty {
            TYPE_REQ => {
                let dest = (bits >> TYPE_BITS) & ((1 << DEST_BITS) - 1);
                let v = (bits >> (TYPE_BITS + DEST_BITS)) & ((1 << VNET_BITS) - 1);
                let vc = (bits >> (TYPE_BITS + DEST_BITS + VNET_BITS)) & ((1 << VC_BITS) - 1);
                Ok(UppSignal::Req {
                    dest: NodeId(dest),
                    vnet: from_onehot(v)?,
                    input_vc: vc as u8,
                })
            }
            TYPE_STOP => {
                let dest = (bits >> TYPE_BITS) & ((1 << DEST_BITS) - 1);
                let v = (bits >> (TYPE_BITS + DEST_BITS)) & ((1 << VNET_BITS) - 1);
                Ok(UppSignal::Stop {
                    dest: NodeId(dest),
                    vnet: from_onehot(v)?,
                })
            }
            TYPE_ACK => {
                let v = (bits >> TYPE_BITS) & ((1 << VNET_BITS) - 1);
                let started = (bits >> (TYPE_BITS + VNET_BITS)) & ((1 << START_BITS) - 1);
                Ok(UppSignal::Ack {
                    vnet: from_onehot(v)?,
                    started: started as u8,
                })
            }
            other => Err(SignalCodecError::BadType(other)),
        }
    }
}

fn check_dest(dest: NodeId) -> Result<u32, SignalCodecError> {
    if dest.0 >= (1 << DEST_BITS) {
        return Err(SignalCodecError::DestTooLarge(dest));
    }
    Ok(dest.0)
}

fn onehot(vnet: VnetId) -> Result<u32, SignalCodecError> {
    if u32::from(vnet.0) >= VNET_BITS {
        return Err(SignalCodecError::VnetTooLarge(vnet));
    }
    Ok(1 << vnet.0)
}

fn from_onehot(bits: u32) -> Result<VnetId, SignalCodecError> {
    if bits.count_ones() != 1 {
        return Err(SignalCodecError::BadOneHot(bits));
    }
    Ok(VnetId(bits.trailing_zeros() as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_fig4() {
        assert_eq!(REQ_WIDTH, 18, "req/stop: 3 + 8 + 3 + 4 bits");
        assert_eq!(ACK_WIDTH, 9, "ack: 3 + 3 + 3 bits");
        let fits = REQ_WIDTH <= 32 && ACK_WIDTH <= 32;
        assert!(fits, "fit the 32-bit buffers");
    }

    #[test]
    fn roundtrip_all_signal_kinds() {
        let signals = [
            UppSignal::Req {
                dest: NodeId(77),
                vnet: VnetId(0),
                input_vc: 11,
            },
            UppSignal::Req {
                dest: NodeId(0),
                vnet: VnetId(2),
                input_vc: 0,
            },
            UppSignal::Stop {
                dest: NodeId(255),
                vnet: VnetId(1),
            },
            UppSignal::Ack {
                vnet: VnetId(1),
                started: 0b010,
            },
            UppSignal::Ack {
                vnet: VnetId(0),
                started: 0,
            },
        ];
        for s in signals {
            let bits = s.encode().unwrap();
            assert_eq!(UppSignal::decode(bits).unwrap(), s, "roundtrip {s:?}");
        }
    }

    #[test]
    fn encoded_words_respect_field_widths() {
        let req = UppSignal::Req {
            dest: NodeId(255),
            vnet: VnetId(2),
            input_vc: 15,
        }
        .encode()
        .unwrap();
        assert!(
            req < (1 << REQ_WIDTH),
            "req word uses at most {REQ_WIDTH} bits"
        );
        let ack = UppSignal::Ack {
            vnet: VnetId(2),
            started: 0b111,
        }
        .encode()
        .unwrap();
        assert!(
            ack < (1 << ACK_WIDTH),
            "ack word uses at most {ACK_WIDTH} bits"
        );
    }

    #[test]
    fn oversized_fields_are_rejected() {
        assert!(matches!(
            UppSignal::Req {
                dest: NodeId(256),
                vnet: VnetId(0),
                input_vc: 0
            }
            .encode(),
            Err(SignalCodecError::DestTooLarge(_))
        ));
        assert!(matches!(
            UppSignal::Req {
                dest: NodeId(1),
                vnet: VnetId(3),
                input_vc: 0
            }
            .encode(),
            Err(SignalCodecError::VnetTooLarge(_))
        ));
        assert!(matches!(
            UppSignal::Req {
                dest: NodeId(1),
                vnet: VnetId(0),
                input_vc: 16
            }
            .encode(),
            Err(SignalCodecError::VcTooLarge(16))
        ));
    }

    #[test]
    fn malformed_words_are_rejected() {
        assert!(matches!(
            UppSignal::decode(0),
            Err(SignalCodecError::BadType(0))
        ));
        // Type=Req but zero vnet one-hot bits.
        assert!(matches!(
            UppSignal::decode(TYPE_REQ),
            Err(SignalCodecError::BadOneHot(0))
        ));
        // Two vnet bits set.
        let bad = TYPE_REQ | (0b011 << (TYPE_BITS + DEST_BITS));
        assert!(matches!(
            UppSignal::decode(bad),
            Err(SignalCodecError::BadOneHot(_))
        ));
    }

    #[test]
    fn errors_are_displayable() {
        let e = UppSignal::Req {
            dest: NodeId(999),
            vnet: VnetId(0),
            input_vc: 0,
        }
        .encode()
        .unwrap_err();
        assert!(e.to_string().contains("8-bit"));
    }
}

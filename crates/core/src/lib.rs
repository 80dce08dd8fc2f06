//! # upp-core — Upward Packet Popup
//!
//! The paper's contribution: a deadlock *recovery* framework for modular
//! chiplet-based systems. The key insight (Sec. IV-A) is that every
//! integration-induced deadlock contains an **upward packet** — a packet
//! permanently stalled in an interposer router while attempting to ascend a
//! vertical link into a chiplet. Detecting that packet (timeout counters on
//! the `Up` ports) and *popping it up* to its destination (ejection-entry
//! reservation + buffer-bypass circuit transmission) breaks the dependency
//! cycle without any turn restrictions, extra VCs, injection control, or
//! global topology knowledge — preserving chiplet design modularity.
//!
//! * [`signal`] — the `UPP_req`/`UPP_ack`/`UPP_stop` formats of Fig. 4 as
//!   a layout derived from the system;
//! * [`detect`] — timeout counters and the round-robin upward-packet
//!   arbiter of Sec. V-A;
//! * [`protocol`] — the shared protocol definitions (detection threshold,
//!   signal gap, stage set and legal stage transitions) consumed by both
//!   the concrete scheme and the `upp-check` model checker;
//! * [`scheme`] — the full recovery state machine of Secs. V-B/V-C,
//!   including wormhole partial-transmission handling (Sec. V-B3), false-
//!   positive stops, and the serialised signal units of Sec. V-B5.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use upp_core::{Upp, UppConfig, UppStats};
//! use upp_noc::config::NocConfig;
//! use upp_noc::ids::VnetId;
//! use upp_noc::network::Network;
//! use upp_noc::ni::ConsumePolicy;
//! use upp_noc::routing::ChipletRouting;
//! use upp_noc::sim::System;
//! use upp_noc::topology::ChipletSystemSpec;
//!
//! let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
//! let net = Network::new(
//!     NocConfig::default(),
//!     topo,
//!     Arc::new(ChipletRouting::xy()),
//!     ConsumePolicy::Immediate { latency: 1 },
//!     7,
//! );
//! let upp = Upp::new(UppConfig::default());
//! let stats = upp.stats_handle();
//! let mut sys = System::new(net, Box::new(upp));
//! let src = sys.net().topo().chiplets()[0].routers[0];
//! let dest = sys.net().topo().chiplets()[2].routers[9];
//! sys.send(src, dest, VnetId(0), 5);
//! sys.run(500);
//! assert_eq!(sys.net().stats().packets_ejected, 1);
//! assert_eq!(UppStats::snapshot(&stats).upward_packets, 0); // no deadlock here
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod detect;
pub mod protocol;
pub mod scheme;
pub mod signal;

pub use protocol::PopupStage;
pub use scheme::{Upp, UppConfig, UppStats, UppStatsHandle};

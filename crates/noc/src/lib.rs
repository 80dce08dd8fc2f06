//! # upp-noc — chiplet/interposer NoC simulation substrate
//!
//! A cycle-accurate network-on-chip simulator for modular chiplet-based
//! systems on active interposers, built as the substrate for reproducing
//! *"Upward Packet Popup for Deadlock Freedom in Modular Chiplet-Based
//! Systems"* (HPCA 2022).
//!
//! The simulator models:
//!
//! * chiplet meshes stacked over an interposer mesh with vertical links
//!   ([`topology`]);
//! * three-legged routing with static nearest-boundary binding
//!   ([`routing`]);
//! * wormhole flow control over virtual networks/virtual channels with a
//!   3-stage router pipeline and credit-based backpressure ([`router`]);
//! * network interfaces with per-VNet injection/ejection queues and an
//!   ejection-entry reservation mechanism ([`ni`]);
//! * the control-plane datapath (dedicated 32-bit signal buffers, circuit
//!   bypass, popup priority) that `upp-core` drives ([`control`],
//!   [`network`]);
//! * deadlock-freedom schemes as pluggable policies ([`scheme`], [`sim`]).
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use upp_noc::config::NocConfig;
//! use upp_noc::ids::VnetId;
//! use upp_noc::network::Network;
//! use upp_noc::ni::ConsumePolicy;
//! use upp_noc::routing::ChipletRouting;
//! use upp_noc::scheme::NoScheme;
//! use upp_noc::sim::{RunOutcome, System};
//! use upp_noc::topology::ChipletSystemSpec;
//!
//! // The baseline system of the paper's Fig. 1.
//! let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
//! let net = Network::new(
//!     NocConfig::default(),
//!     topo,
//!     Arc::new(ChipletRouting::xy()),
//!     ConsumePolicy::Immediate { latency: 1 },
//!     7,
//! );
//! let mut sys = System::new(net, Box::new(NoScheme));
//! let src = sys.net().topo().chiplets()[0].routers[0];
//! let dest = sys.net().topo().chiplets()[3].routers[15];
//! sys.send(src, dest, VnetId(0), 5).expect("queue has space");
//! assert!(matches!(sys.run_until_drained(1_000), RunOutcome::Drained { .. }));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod control;
pub mod event;
pub mod fault;
pub mod ids;
pub mod network;
pub mod ni;
pub mod obs;
pub mod packet;
pub mod profile;
pub mod ring;
pub mod router;
pub mod routing;
pub mod scheme;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod viz;
mod wake_set;
pub mod watch;

pub use config::NocConfig;
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use ids::{ChipletId, Cycle, NodeId, PacketId, Port, VcId, VnetId};
pub use network::Network;
pub use obs::{CounterId, GaugeId, HistId, ObsHistogram, ObsRegistry, ObsSnapshot};
pub use profile::{PacketSpan, SpanRecorder};
pub use scheme::{NoScheme, Scheme, SchemeProperties};
pub use sim::{RunOutcome, System};
pub use trace::{StallReport, TraceEvent, Tracer};

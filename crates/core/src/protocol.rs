//! Shared protocol definitions: the single source of truth for UPP's
//! tuning constants and stage structure.
//!
//! Both the concrete scheme implementation ([`crate::scheme`]) and the
//! abstract model checker (`upp-check` in `crates/check`) consume this
//! module, so the two cannot silently drift: a change to the detection
//! threshold, the stage set or the legal stage transitions here is
//! immediately reflected in the simulator *and* in the exhaustively
//! explored transition system.

use serde::Serialize;

/// Deadlock-detection timeout in cycles (Table II of the paper uses 20).
///
/// The default for [`crate::UppConfig::threshold`] and for the model
/// checker's watchdog bound.
pub const DEFAULT_DETECTION_THRESHOLD: u64 = 20;

/// Capacity of each per-VNet NI ejection queue, in packets (Table II).
///
/// Mirrors `upp_noc::config::NocConfig::default().ejection_queue_entries`;
/// a unit test in this module pins the two together (the dependency points
/// from `upp-core` to `upp-noc`, so the constant cannot live in one place
/// syntactically — it lives here semantically and is guarded by the test).
pub const DEFAULT_EJECTION_QUEUE_ENTRIES: usize = 4;

/// Minimum gap, in cycles, between consecutive protocol signals emitted by
/// one interposer router's serial signal unit (Sec. V-B5:
/// `Size_of_Data_Packet + 1`).
#[inline]
pub fn default_signal_gap(data_packet_flits: usize) -> u64 {
    data_packet_flits as u64 + 1
}

/// Effective capacity of a boundary router's circuit table.
///
/// The concrete table (`upp_noc::router::Router::record_circuit`) is keyed
/// by `(VNet, popup destination)` and a re-insert for the same key evicts
/// the stale reverse path, so with a single VNet the table never holds more
/// than one live entry per distinct destination. The abstract model uses
/// this as its default table capacity; shrinking it below the number of
/// destinations (via `upp-check explore --circuit-cap`) explores the
/// eviction races a hardware-bounded table would introduce.
#[inline]
pub fn circuit_capacity(num_destinations: usize) -> usize {
    num_destinations
}

/// The popup protocol's stage set (Secs. V-B/V-C).
///
/// The concrete scheme's per-`(router, VNet)` state machine and the model
/// checker's abstract router state both draw their stages — and the legal
/// transitions between them — from this enum. [`PopupStage::name`] is the
/// label used by trace events (`TraceEvent::PopupStage`) and counterexample
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum PopupStage {
    /// No popup in flight; the watchdog counter is live.
    Idle,
    /// `UPP_req` queued or sent; waiting for the `UPP_ack`.
    WaitAck,
    /// Ack received with the head flit still at the interposer router:
    /// popping flits up the bypass path.
    PopInterposer,
    /// Ack received for a partly-transmitted worm: searching for the
    /// chiplet router currently holding the head flit.
    LocateHead,
    /// Popping from the chiplet router that holds the head flit.
    PopChiplet,
}

impl PopupStage {
    /// Every stage, in protocol order.
    pub const ALL: [PopupStage; 5] = [
        PopupStage::Idle,
        PopupStage::WaitAck,
        PopupStage::PopInterposer,
        PopupStage::LocateHead,
        PopupStage::PopChiplet,
    ];

    /// The stage's canonical label (used by trace events and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            PopupStage::Idle => "Idle",
            PopupStage::WaitAck => "WaitAck",
            PopupStage::PopInterposer => "PopInterposer",
            PopupStage::LocateHead => "LocateHead",
            PopupStage::PopChiplet => "PopChiplet",
        }
    }

    /// Parses a canonical label back into a stage.
    pub fn from_name(name: &str) -> Option<PopupStage> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// True while no popup is in flight.
    pub fn is_idle(self) -> bool {
        self == PopupStage::Idle
    }

    /// The protocol's legal stage transitions (the edges of Fig. 5's state
    /// machine, plus the false-positive bail-outs back to `Idle`).
    ///
    /// * `Idle → WaitAck` — watchdog expiry selects an upward packet;
    /// * `WaitAck → PopInterposer` — ack arrives, head still buffered here;
    /// * `WaitAck → LocateHead` — ack arrives for a partly-transmitted worm;
    /// * `WaitAck → Idle` — the packet proceeded normally (stop sent);
    /// * `LocateHead → PopInterposer` — the head returned to the interposer;
    /// * `LocateHead → PopChiplet` — the head was found inside the chiplet;
    /// * `LocateHead → Idle` — the packet drained normally (stop sent);
    /// * `PopInterposer → Idle`, `PopChiplet → Idle` — tail flit delivered.
    pub fn can_transition_to(self, next: PopupStage) -> bool {
        use PopupStage::*;
        matches!(
            (self, next),
            (Idle, WaitAck)
                | (WaitAck, PopInterposer)
                | (WaitAck, LocateHead)
                | (WaitAck, Idle)
                | (LocateHead, PopInterposer)
                | (LocateHead, PopChiplet)
                | (LocateHead, Idle)
                | (PopInterposer, Idle)
                | (PopChiplet, Idle)
        )
    }
}

impl std::fmt::Display for PopupStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::config::NocConfig;

    #[test]
    fn constants_match_the_concrete_configuration() {
        let cfg = NocConfig::default();
        assert_eq!(
            DEFAULT_EJECTION_QUEUE_ENTRIES, cfg.ejection_queue_entries,
            "protocol::DEFAULT_EJECTION_QUEUE_ENTRIES must track NocConfig"
        );
        assert_eq!(default_signal_gap(cfg.data_packet_flits), 6);
        assert_eq!(DEFAULT_DETECTION_THRESHOLD, 20, "Table II");
    }

    #[test]
    fn stage_names_round_trip() {
        for s in PopupStage::ALL {
            assert_eq!(PopupStage::from_name(s.name()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(PopupStage::from_name("Bogus"), None);
    }

    #[test]
    fn transition_relation_is_the_protocol_state_machine() {
        use PopupStage::*;
        // Spot-check the load-bearing edges and non-edges.
        assert!(Idle.can_transition_to(WaitAck));
        assert!(WaitAck.can_transition_to(PopInterposer));
        assert!(WaitAck.can_transition_to(LocateHead));
        assert!(WaitAck.can_transition_to(Idle));
        assert!(LocateHead.can_transition_to(PopChiplet));
        assert!(PopInterposer.can_transition_to(Idle));
        assert!(!Idle.can_transition_to(PopInterposer), "ack needs a req");
        assert!(!PopInterposer.can_transition_to(WaitAck));
        assert!(!PopChiplet.can_transition_to(PopInterposer));
        // No stage transitions to itself: dwell is not a transition.
        for s in PopupStage::ALL {
            assert!(!s.can_transition_to(s));
        }
        // Every non-idle stage can eventually return to Idle.
        for s in PopupStage::ALL {
            if !s.is_idle() {
                let reaches_idle = PopupStage::ALL
                    .into_iter()
                    .any(|n| s.can_transition_to(n) && (n.is_idle() || n.can_transition_to(Idle)));
                assert!(reaches_idle, "{s} must have a path back to Idle");
            }
        }
    }

    #[test]
    fn circuit_capacity_is_one_entry_per_destination() {
        assert_eq!(circuit_capacity(4), 4);
        assert_eq!(circuit_capacity(1), 1);
    }
}

//! Deadlock detection (Sec. V-A): per-VNet timeout counters on every
//! interposer router that owns an `Up` port, plus the round-robin upward
//! packet arbiter.

use serde::Serialize;
use upp_noc::ids::Cycle;
use upp_noc::network::UpwardCandidate;

/// One VNet's timeout counter on one interposer router.
///
/// The counter records for how long packets of this VNet have been stalled
/// while attempting to move up the vertical link without *any* flit of the
/// VNet departing through the `Up` output port. Crossing the threshold marks
/// a (potential) deadlock; the arbiter then picks the upward packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UppCounter {
    value: u64,
}

impl UppCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the counter for one cycle.
    ///
    /// * `has_stalled_upward` — at least one packet of the VNet is stalled
    ///   wanting the `Up` output;
    /// * `up_sent_recently` — a flit of the VNet left through `Up` last
    ///   cycle (the port is not actually blocked).
    ///
    /// Returns the new value.
    pub fn tick(&mut self, has_stalled_upward: bool, up_sent_recently: bool) -> u64 {
        if has_stalled_upward && !up_sent_recently {
            self.value += 1;
        } else {
            self.value = 0;
        }
        self.value
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Resets to zero (popup selected or port unblocked).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// True once the counter reaches `threshold`.
    pub fn expired(&self, threshold: u64) -> bool {
        self.value >= threshold
    }
}

/// Round-robin arbiter over upward-stalled VCs (Sec. V-A: every stalled
/// packet is eventually selected, because distinguishing true deadlocks from
/// severe congestion is too expensive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UpwardArbiter {
    next: usize,
}

impl UpwardArbiter {
    /// A fresh arbiter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks one candidate, rotating the grant across calls.
    pub fn pick(&mut self, candidates: &[UpwardCandidate]) -> Option<UpwardCandidate> {
        if candidates.is_empty() {
            return None;
        }
        let c = candidates[self.next % candidates.len()];
        self.next = self.next.wrapping_add(1);
        Some(c)
    }
}

/// Helper translating router state into the counter's `up_sent_recently`
/// input: true when the `Up` port carried a flit of the VNet within the last
/// cycle.
pub fn up_sent_recently(up_last_sent: Cycle, now: Cycle) -> bool {
    up_last_sent != 0 && now.saturating_sub(up_last_sent) <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::ids::{NodeId, PacketId, Port, VnetId};

    fn cand(p: u64) -> UpwardCandidate {
        UpwardCandidate {
            in_port: Port::West,
            vc_flat: 0,
            packet: PacketId(p),
            vnet: VnetId(0),
            dest: NodeId(1),
        }
    }

    #[test]
    fn counter_accumulates_only_while_blocked() {
        let mut c = UppCounter::new();
        assert_eq!(c.tick(true, false), 1);
        assert_eq!(c.tick(true, false), 2);
        assert_eq!(c.tick(true, true), 0, "a departing flit resets the counter");
        assert_eq!(
            c.tick(false, false),
            0,
            "no stalled packet resets the counter"
        );
        for _ in 0..20 {
            c.tick(true, false);
        }
        assert!(c.expired(20));
        assert!(!c.expired(21));
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn arbiter_rotates_across_candidates() {
        let mut a = UpwardArbiter::new();
        let cs = vec![cand(1), cand(2), cand(3)];
        let picks: Vec<u64> = (0..6).map(|_| a.pick(&cs).unwrap().packet.0).collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
        assert!(a.pick(&[]).is_none());
    }

    #[test]
    fn arbiter_handles_shrinking_candidate_sets() {
        let mut a = UpwardArbiter::new();
        let _ = a.pick(&[cand(1), cand(2), cand(3)]);
        let _ = a.pick(&[cand(1), cand(2), cand(3)]);
        // Set shrank; arbiter must still pick a valid member.
        let p = a.pick(&[cand(9)]).unwrap();
        assert_eq!(p.packet, PacketId(9));
    }

    #[test]
    fn up_sent_recently_window() {
        assert!(!up_sent_recently(0, 100), "cycle 0 means never sent");
        assert!(up_sent_recently(99, 100));
        assert!(up_sent_recently(100, 100));
        assert!(!up_sent_recently(98, 100));
    }
}

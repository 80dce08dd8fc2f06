//! Measurement: latency, throughput and event counters.

use crate::ids::{Cycle, NodeId, PacketId, VnetId};
use crate::packet::{PacketClass, PacketRef};
use serde::Serialize;

/// Lifetime record of one packet, kept while it is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PacketRecord {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Class relative to the vertical boundary.
    pub class: PacketClass,
    /// VNet.
    pub vnet: VnetId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycle the packet was enqueued at the source NI.
    pub created_at: Cycle,
    /// Cycle the head flit entered the network (left the NI), if it has.
    pub injected_at: Option<Cycle>,
    /// Cycle the tail flit was assembled at the destination NI, if it has.
    pub ejected_at: Option<Cycle>,
}

/// Aggregate statistics for one measurement window.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetStats {
    /// Packets enqueued at NIs.
    pub packets_created: u64,
    /// Packets whose head flit entered the network.
    pub packets_injected: u64,
    /// Packets fully assembled at their destination NI.
    pub packets_ejected: u64,
    /// Flits that entered the network.
    pub flits_injected: u64,
    /// Flits delivered to destination NIs.
    pub flits_ejected: u64,
    /// Sum over ejected packets of network latency (inject -> eject).
    pub net_latency_sum: u64,
    /// Sum over ejected packets of source-queueing latency (create -> inject).
    pub queue_latency_sum: u64,
    /// Ejected-packet count per VNet.
    pub ejected_per_vnet: Vec<u64>,
    /// Histogram of total packet latency in power-of-two buckets
    /// (`bucket[i]` counts latencies in `[2^i, 2^(i+1))`).
    pub latency_histogram: Vec<u64>,
    /// Worst observed total latency.
    pub max_latency: u64,
    /// Control messages transmitted over links (popup protocol bandwidth).
    pub control_hops: u64,
    /// Upward (bypass) flit hops.
    pub bypass_hops: u64,
    /// Normal flit hops (switch traversals).
    pub flit_hops: u64,
    /// High-water mark of the req/stop control buffer across all routers.
    pub max_req_buffer_occupancy: usize,
    /// High-water mark of the ack control buffer across all routers.
    pub max_ack_buffer_occupancy: usize,
    /// Ejected packets and network-latency sums per packet class, indexed
    /// `[intra, c2i, i2c, c2c]` (the paper's three routing cases of
    /// Sec. V-D, with inter-chiplet split out).
    pub per_class: [(u64, u64); 4],
    /// Flits transmitted per directed link, flat-indexed
    /// `node.index() * Port::COUNT + port.index()` and grown on demand
    /// (`Local` counts ejections into the NI). Serialized with the run's
    /// `--json` stats.
    pub link_flits: Vec<u64>,
}

/// Dense index of a [`PacketClass`] into [`NetStats::per_class`].
pub fn class_index(c: PacketClass) -> usize {
    match c {
        PacketClass::Intra => 0,
        PacketClass::ChipletToInterposer => 1,
        PacketClass::InterposerToChiplet => 2,
        PacketClass::InterChiplet => 3,
    }
}

impl NetStats {
    /// Creates zeroed statistics for `num_vnets` VNets.
    pub fn new(num_vnets: usize) -> Self {
        Self {
            ejected_per_vnet: vec![0; num_vnets],
            latency_histogram: vec![0; 24],
            ..Self::default()
        }
    }

    /// Records a finished packet.
    pub fn record_ejection(&mut self, rec: &PacketRecord, now: Cycle) {
        let injected = rec.injected_at.unwrap_or(rec.created_at);
        let net = now.saturating_sub(injected);
        let queue = injected.saturating_sub(rec.created_at);
        self.packets_ejected += 1;
        self.net_latency_sum += net;
        self.queue_latency_sum += queue;
        if let Some(slot) = self.ejected_per_vnet.get_mut(rec.vnet.index()) {
            *slot += 1;
        }
        let slot = &mut self.per_class[class_index(rec.class)];
        slot.0 += 1;
        slot.1 += net;
        let total = net + queue;
        self.max_latency = self.max_latency.max(total);
        let bucket = (64 - u64::leading_zeros(total.max(1)) as usize - 1)
            .min(self.latency_histogram.len() - 1);
        self.latency_histogram[bucket] += 1;
    }

    /// Mean network latency (inject to eject) over ejected packets.
    pub fn avg_net_latency(&self) -> f64 {
        if self.packets_ejected == 0 {
            0.0
        } else {
            self.net_latency_sum as f64 / self.packets_ejected as f64
        }
    }

    /// Mean source-queueing latency over ejected packets.
    pub fn avg_queue_latency(&self) -> f64 {
        if self.packets_ejected == 0 {
            0.0
        } else {
            self.queue_latency_sum as f64 / self.packets_ejected as f64
        }
    }

    /// Mean total latency (create to eject).
    pub fn avg_total_latency(&self) -> f64 {
        self.avg_net_latency() + self.avg_queue_latency()
    }

    /// Mean network latency of one packet class, or `None` if no packet of
    /// that class finished in the window.
    pub fn avg_class_latency(&self, class: PacketClass) -> Option<f64> {
        let (n, sum) = self.per_class[class_index(class)];
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Counts one flit leaving `node` through `port`.
    #[inline]
    pub fn bump_link(&mut self, node: NodeId, port: crate::ids::Port) {
        let idx = node.index() * crate::ids::Port::COUNT + port.index();
        if self.link_flits.len() <= idx {
            self.link_flits.resize(idx + 1, 0);
        }
        self.link_flits[idx] += 1;
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) of total packet latency by
    /// linear interpolation inside the power-of-two histogram buckets. The
    /// estimate is exact at bucket boundaries and never exceeds the worst
    /// observed latency; with no ejected packets it is `0.0`.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let total: u64 = self.latency_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0.0;
        for (i, &n) in self.latency_histogram.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n as f64;
            if next >= target {
                let lo = (1u64 << i) as f64;
                let hi = (1u64 << (i + 1)) as f64;
                let frac = ((target - cum) / n as f64).clamp(0.0, 1.0);
                return (lo + frac * (hi - lo)).min(self.max_latency.max(1) as f64);
            }
            cum = next;
        }
        self.max_latency as f64
    }

    /// Delivered throughput in flits per cycle per node.
    pub fn throughput(&self, cycles: u64, nodes: usize) -> f64 {
        if cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / cycles as f64 / nodes as f64
        }
    }
}

/// Tracks in-flight packets and the global-progress watchdog.
///
/// Records live in a slab indexed by the packet's [`PacketRef`] arena
/// handle, so the hot per-flit-event lookups are direct indexing rather
/// than hashing. Handles are recycled by the arena only after ejection
/// removes the record here, so a slot is never overwritten while live.
#[derive(Debug, Clone, Default)]
pub struct PacketTracker {
    live: Vec<Option<(PacketId, PacketRecord)>>,
    live_count: usize,
    next_id: u64,
    last_progress: Cycle,
}

impl PacketTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves slab capacity for `n` concurrently-live packets.
    pub fn reserve(&mut self, n: usize) {
        if self.live.capacity() < n {
            self.live.reserve(n - self.live.len());
        }
    }

    /// Allocates a fresh packet id.
    pub fn alloc_id(&mut self) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        id
    }

    #[inline]
    fn slot(&mut self, h: PacketRef) -> &mut Option<(PacketId, PacketRecord)> {
        if self.live.len() <= h.index() {
            self.live.resize(h.index() + 1, None);
        }
        &mut self.live[h.index()]
    }

    /// Registers a newly-created packet under its arena handle.
    pub fn on_created(&mut self, h: PacketRef, id: PacketId, rec: PacketRecord) {
        let slot = self.slot(h);
        debug_assert!(slot.is_none(), "tracker slot {h} reused while live");
        *slot = Some((id, rec));
        self.live_count += 1;
    }

    /// Marks the head flit's network entry.
    pub fn on_injected(&mut self, h: PacketRef, now: Cycle) {
        if let Some(Some((_, r))) = self.live.get_mut(h.index()) {
            r.injected_at.get_or_insert(now);
        }
    }

    /// Marks complete ejection; removes and returns the record.
    pub fn on_ejected(&mut self, h: PacketRef, now: Cycle) -> Option<PacketRecord> {
        let (_, mut rec) = self.live.get_mut(h.index())?.take()?;
        self.live_count -= 1;
        rec.ejected_at = Some(now);
        Some(rec)
    }

    /// Looks up an in-flight packet by its arena handle.
    pub fn get(&self, h: PacketRef) -> Option<&PacketRecord> {
        self.live.get(h.index())?.as_ref().map(|(_, r)| r)
    }

    /// Iterates all in-flight packets (unordered; callers needing a stable
    /// order sort by id). Powers the deadlock forensics of
    /// [`crate::trace::StallReport`].
    pub fn live_packets(&self) -> impl Iterator<Item = (PacketId, &PacketRecord)> {
        self.live.iter().flatten().map(|(id, rec)| (*id, rec))
    }

    /// Number of packets created but not yet fully ejected.
    pub fn in_flight(&self) -> usize {
        self.live_count
    }

    /// Exact heap bytes of the live-packet slab at its current length.
    pub fn mem_bytes(&self) -> usize {
        self.live.len() * std::mem::size_of::<Option<(PacketId, PacketRecord)>>()
    }

    /// Notes forward progress at `now` (any flit movement).
    pub fn touch(&mut self, now: Cycle) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Cycle of the last observed movement.
    pub fn last_progress(&self) -> Cycle {
        self.last_progress
    }

    /// True when packets are in flight but nothing has moved for
    /// `threshold` cycles — the network is globally stalled (deadlocked or
    /// starved beyond plausibility).
    pub fn stalled(&self, now: Cycle, threshold: u64) -> bool {
        self.live_count > 0 && now.saturating_sub(self.last_progress) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(created: Cycle) -> PacketRecord {
        PacketRecord {
            src: NodeId(0),
            dest: NodeId(1),
            class: PacketClass::InterChiplet,
            vnet: VnetId(0),
            len_flits: 5,
            created_at: created,
            injected_at: Some(created + 3),
            ejected_at: None,
        }
    }

    #[test]
    fn latency_decomposition() {
        let mut s = NetStats::new(3);
        s.record_ejection(&rec(10), 33);
        assert_eq!(s.packets_ejected, 1);
        assert_eq!(s.net_latency_sum, 20);
        assert_eq!(s.queue_latency_sum, 3);
        assert!((s.avg_total_latency() - 23.0).abs() < 1e-9);
        assert_eq!(s.max_latency, 23);
        assert_eq!(s.ejected_per_vnet[0], 1);
        assert_eq!(s.avg_class_latency(PacketClass::InterChiplet), Some(20.0));
        assert_eq!(s.avg_class_latency(PacketClass::Intra), None);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut s = NetStats::new(1);
        let mut r = rec(0);
        r.injected_at = Some(0);
        s.record_ejection(&r, 1); // latency 1 -> bucket 0
        s.record_ejection(&r, 5); // latency 5 -> bucket 2
        assert_eq!(s.latency_histogram[0], 1);
        assert_eq!(s.latency_histogram[2], 1);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut s = NetStats::new(1);
        assert_eq!(s.latency_percentile(0.5), 0.0, "empty stats report 0");
        let mut r = rec(0);
        r.injected_at = Some(0);
        // 8 packets at latency 1 (bucket 0), 2 at latency 100 (bucket 6).
        for _ in 0..8 {
            s.record_ejection(&r, 1);
        }
        for _ in 0..2 {
            s.record_ejection(&r, 100);
        }
        let p50 = s.latency_percentile(0.5);
        assert!((1.0..2.0).contains(&p50), "p50 in bucket 0: {p50}");
        let p95 = s.latency_percentile(0.95);
        assert!((64.0..=100.0).contains(&p95), "p95 in top bucket: {p95}");
        assert!(
            s.latency_percentile(1.0) <= s.max_latency as f64,
            "never exceeds the observed max"
        );
    }

    #[test]
    fn tracker_lifecycle() {
        let mut t = PacketTracker::new();
        let id = t.alloc_id();
        let h = PacketRef(0);
        t.on_created(h, id, rec(0));
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.get(h), Some(&rec(0)));
        t.on_injected(h, 4);
        let r = t.on_ejected(h, 9).unwrap();
        assert_eq!(r.ejected_at, Some(9));
        assert_eq!(t.in_flight(), 0);
        assert!(t.on_ejected(h, 10).is_none());
        // A recycled handle starts a fresh record.
        let id2 = t.alloc_id();
        t.on_created(h, id2, rec(5));
        assert_eq!(t.live_packets().next().unwrap().0, id2);
        assert!(t.mem_bytes() > 0);
    }

    #[test]
    fn watchdog_requires_in_flight_packets() {
        let mut t = PacketTracker::new();
        t.touch(0);
        assert!(!t.stalled(5_000, 1_000), "empty network is never stalled");
        let id = t.alloc_id();
        t.on_created(PacketRef(0), id, rec(0));
        assert!(t.stalled(1_000, 1_000));
        t.touch(900);
        assert!(!t.stalled(1_000, 1_000));
        assert!(t.stalled(1_900, 1_000));
    }

    #[test]
    fn link_counters_grow_on_demand() {
        use crate::ids::Port;
        let mut s = NetStats::new(1);
        assert!(s.link_flits.is_empty());
        s.bump_link(NodeId(9), Port::Up);
        s.bump_link(NodeId(9), Port::Up);
        s.bump_link(NodeId(2), Port::East);
        let at = |n: NodeId, p: Port| s.link_flits[n.index() * Port::COUNT + p.index()];
        assert_eq!(s.link_flits.len(), 9 * Port::COUNT + Port::Up.index() + 1);
        assert_eq!(at(NodeId(9), Port::Up), 2);
        assert_eq!(at(NodeId(2), Port::East), 1);
        assert_eq!(at(NodeId(2), Port::West), 0);
    }

    #[test]
    fn throughput_is_per_cycle_per_node() {
        let mut s = NetStats::new(1);
        s.flits_ejected = 800;
        assert!((s.throughput(100, 80) - 0.1).abs() < 1e-12);
        assert_eq!(s.throughput(0, 80), 0.0);
    }
}

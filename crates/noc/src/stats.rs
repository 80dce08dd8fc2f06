//! Measurement: latency, throughput and event counters.

use crate::ids::{Cycle, NodeId};
use crate::packet::{PacketClass, PacketDesc};
use serde::Serialize;

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

    /// Records a packet whose tail was assembled at its destination NI in
    /// cycle `now`.
    pub fn record_ejection(&mut self, desc: &PacketDesc, now: Cycle) {
        let injected = desc.injected().unwrap_or(desc.created_at);
        let net = now.saturating_sub(injected);
        let queue = injected.saturating_sub(desc.created_at);
        self.packets_ejected += 1;
        self.net_latency_sum += net;
        self.queue_latency_sum += queue;
        if let Some(slot) = self.ejected_per_vnet.get_mut(desc.vnet.index()) {
            *slot += 1;
        }
        let slot = &mut self.per_class[class_index(desc.route.class)];
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

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ids::{PacketId, VnetId};
    use crate::packet::RouteInfo;

    fn rec(created: Cycle) -> PacketDesc {
        PacketDesc {
            id: PacketId(0),
            src: NodeId(0),
            vnet: VnetId(0),
            pkt_len: 5,
            route: RouteInfo {
                class: PacketClass::InterChiplet,
                ..RouteInfo::intra(NodeId(1))
            },
            created_at: created,
            injected_at: created + 3,
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
        r.injected_at = 0;
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
        r.injected_at = 0;
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

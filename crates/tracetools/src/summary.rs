//! Aggregating packet spans into a profile summary.
//!
//! A [`ProfileSummary`] is the unit of the `upp-trace` toolchain: the
//! `simulate --profile` driver streams [`PacketSpan`]s into one as the run
//! progresses (so million-packet runs never materialise a trace file), and
//! `upp-trace analyze` builds the same structure from a JSONL
//! flight-recorder trace. Both paths produce byte-identical JSON for the
//! same run, which is what the committed CI goldens pin.

use std::io::BufRead;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use upp_noc::profile::{PacketSpan, SpanRecorder};

use crate::events::{parse_line, Parsed};
use crate::Histogram;

/// How many slowest packets a summary retains for critical-path analysis.
pub const SLOWEST_KEPT: usize = 16;

/// Finished spans a [`SpanRecorder`] buffers before they are folded into a
/// summary, so a long run or a huge trace never holds more than a window
/// of spans in memory (the JSONL replay here and the in-process profiler
/// of `upp_workloads::run` both drain at this size).
pub const SPAN_WINDOW: usize = 4096;

/// Cycle totals per latency phase, summed over packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Source-NI queueing (create -> inject).
    pub inj_queue: u64,
    /// Blocked VC-cycles waiting for a free downstream VC.
    pub vc_alloc: u64,
    /// Blocked VC-cycles lost to switch allocation.
    pub sa_wait: u64,
    /// Blocked VC-cycles waiting for downstream credits.
    pub credit: u64,
    /// UPP recovery: waiting for the `UPP_ack`.
    pub wait_ack: u64,
    /// UPP recovery: locating a partly-transmitted head.
    pub locate: u64,
    /// UPP recovery: popping flits through the bypass path.
    pub pop: u64,
    /// Residual pipeline + link serialization cycles.
    pub serialization: u64,
}

impl PhaseTotals {
    /// Phase labels, in rendering order (matches [`PhaseTotals::values`]).
    pub const LABELS: [&'static str; 8] = [
        "inj_queue",
        "vc_alloc",
        "sa_wait",
        "credit",
        "wait_ack",
        "locate",
        "pop",
        "serialization",
    ];

    /// Phase totals in the order of [`PhaseTotals::LABELS`].
    pub fn values(&self) -> [u64; 8] {
        [
            self.inj_queue,
            self.vc_alloc,
            self.sa_wait,
            self.credit,
            self.wait_ack,
            self.locate,
            self.pop,
            self.serialization,
        ]
    }

    /// Adds one span's phase cycles.
    pub fn add_span(&mut self, s: &PacketSpan) {
        self.inj_queue += s.inj_queue;
        self.vc_alloc += s.vc_alloc;
        self.sa_wait += s.sa_wait;
        self.credit += s.credit;
        self.wait_ack += s.wait_ack;
        self.locate += s.locate;
        self.pop += s.pop;
        self.serialization += s.serialization;
    }

    /// Total UPP-recovery cycles.
    pub fn upp_recovery(&self) -> u64 {
        self.wait_ack + self.locate + self.pop
    }

    /// Adds another total, field by field.
    pub fn add(&mut self, other: &PhaseTotals) {
        self.inj_queue += other.inj_queue;
        self.vc_alloc += other.vc_alloc;
        self.sa_wait += other.sa_wait;
        self.credit += other.credit;
        self.wait_ack += other.wait_ack;
        self.locate += other.locate;
        self.pop += other.pop;
        self.serialization += other.serialization;
    }
}

/// Aggregated latency attribution for one run.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
pub struct ProfileSummary {
    /// System shape label the run used (drives heatmap topology lookup;
    /// may be empty for raw traces).
    pub system: String,
    /// Scheme label the run used.
    pub scheme: String,
    /// Delivered packets profiled.
    pub packets: u64,
    /// Completed popups observed.
    pub popups: u64,
    /// Normal-path hops summed over packets (VC grants).
    pub hops: u64,
    /// Popup bypass hops summed over packets.
    pub bypass_hops: u64,
    /// Phase cycle totals over all packets.
    pub phases: PhaseTotals,
    /// Network-latency distribution (inject -> eject).
    pub net: Histogram,
    /// Total-latency distribution (create -> eject).
    pub total: Histogram,
    /// Blocked VC-cycles per router, dense by node index.
    pub router_blocked: Vec<u64>,
    /// Blocked VC-cycles per directed link, flat-indexed
    /// `node * Port::COUNT + port`.
    pub link_blocked: Vec<u64>,
    /// The slowest packets by total latency (at most [`SLOWEST_KEPT`]),
    /// slowest first; ties break toward the smaller packet id.
    pub slowest: Vec<PacketSpan>,
}

fn add_elementwise(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

fn slower(a: &PacketSpan, b: &PacketSpan) -> std::cmp::Ordering {
    b.total_latency()
        .cmp(&a.total_latency())
        .then(a.packet.0.cmp(&b.packet.0))
}

impl ProfileSummary {
    /// An empty summary labelled with the run's system and scheme.
    pub fn new(system: impl Into<String>, scheme: impl Into<String>) -> Self {
        Self {
            system: system.into(),
            scheme: scheme.into(),
            ..Self::default()
        }
    }

    /// Folds one finished span into the aggregate.
    pub fn absorb_span(&mut self, s: &PacketSpan) {
        self.packets += 1;
        self.hops += u64::from(s.hops);
        self.bypass_hops += u64::from(s.bypass_hops);
        self.phases.add_span(s);
        self.net.record(s.net_latency());
        self.total.record(s.total_latency());
        if self.slowest.len() < SLOWEST_KEPT
            || slower(s, self.slowest.last().expect("non-empty")).is_lt()
        {
            self.slowest.push(s.clone());
            self.slowest.sort_by(slower);
            self.slowest.truncate(SLOWEST_KEPT);
        }
    }

    /// Folds the recorder's aggregate counters (per-router/per-link blocked
    /// cycles, popup count) into the summary and absorbs any still-buffered
    /// finished spans. Call exactly once per recorder, at end of run — the
    /// counters are cumulative, so adding a recorder twice double-counts.
    pub fn absorb_recorder(&mut self, rec: &mut SpanRecorder) {
        for s in rec.drain_finished() {
            self.absorb_span(&s);
        }
        add_elementwise(&mut self.router_blocked, rec.router_blocked());
        add_elementwise(&mut self.link_blocked, rec.link_blocked());
        self.popups += rec.popups();
    }

    /// Merges another summary into this one: counters add, histograms
    /// merge exactly, and the slowest list keeps the overall top
    /// [`SLOWEST_KEPT`]. Labels are kept from `self`; merging runs of
    /// different systems or schemes is the caller's judgement call (e.g.
    /// aggregating a campaign per scheme).
    pub fn merge(&mut self, other: &ProfileSummary) {
        self.packets += other.packets;
        self.popups += other.popups;
        self.hops += other.hops;
        self.bypass_hops += other.bypass_hops;
        self.phases.add(&other.phases);
        self.net.merge(&other.net);
        self.total.merge(&other.total);
        add_elementwise(&mut self.router_blocked, &other.router_blocked);
        add_elementwise(&mut self.link_blocked, &other.link_blocked);
        self.slowest.extend(other.slowest.iter().cloned());
        self.slowest.sort_by(slower);
        self.slowest.truncate(SLOWEST_KEPT);
    }

    /// Builds a summary by replaying a JSONL flight-recorder trace through
    /// a [`SpanRecorder`]. Returns the summary plus the count of malformed
    /// lines skipped.
    pub fn from_jsonl<R: BufRead>(
        reader: R,
        system: impl Into<String>,
        scheme: impl Into<String>,
    ) -> std::io::Result<(Self, u64)> {
        let mut summary = Self::new(system, scheme);
        let mut rec = SpanRecorder::new();
        let mut malformed = 0u64;
        for line in reader.lines() {
            match parse_line(&line?) {
                Parsed::Event(ev) => {
                    rec.observe(&ev);
                    if rec.finished().len() >= SPAN_WINDOW {
                        for s in rec.drain_finished() {
                            summary.absorb_span(&s);
                        }
                    }
                }
                Parsed::Irrelevant => {}
                Parsed::Malformed => malformed += 1,
            }
        }
        summary.absorb_recorder(&mut rec);
        Ok((summary, malformed))
    }

    /// Mean cycles per packet for each phase, in [`PhaseTotals::LABELS`]
    /// order.
    pub fn phase_means(&self) -> [f64; 8] {
        let n = self.packets.max(1) as f64;
        self.phases.values().map(|v| v as f64 / n)
    }

    /// Renders the summary as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        fn json<T: Serialize>(v: &T) -> String {
            serde_json::to_string(v).expect("infallible")
        }
        format!(
            "{{\n\"upp_profile\":1,\n\"system\":{},\n\"scheme\":{},\n\
             \"packets\":{},\n\"popups\":{},\n\"hops\":{},\n\"bypass_hops\":{},\n\
             \"phases\":{},\n\"net\":{},\n\"total\":{},\n\
             \"router_blocked\":{},\n\"link_blocked\":{},\n\"slowest\":{}\n}}\n",
            json(&self.system),
            json(&self.scheme),
            self.packets,
            self.popups,
            self.hops,
            self.bypass_hops,
            json(&self.phases),
            self.net.to_json(),
            self.total.to_json(),
            json(&self.router_blocked),
            json(&self.link_blocked),
            json(&self.slowest),
        )
    }

    /// Rebuilds a summary from the [`ProfileSummary::to_json`] document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        Some(v)
            .filter(Self::is_profile_value)
            .and_then(|v| Self::de_value(&v))
            .ok_or_else(|| "not an upp_profile document".into())
    }

    /// True when a parsed JSON value looks like a profile document.
    pub fn is_profile_value(v: &Value) -> bool {
        v.get("upp_profile").and_then(|p| p.as_u64()) == Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::ids::{NodeId, PacketId, VnetId};

    fn span(id: u64, total: u64) -> PacketSpan {
        PacketSpan {
            packet: PacketId(id),
            src: NodeId(0),
            dest: NodeId(9),
            vnet: VnetId(0),
            len_flits: 5,
            created_at: 0,
            injected_at: 2,
            ejected_at: total,
            inj_queue: 2,
            vc_alloc: 1,
            sa_wait: 0,
            credit: 3,
            wait_ack: 4,
            locate: 0,
            pop: 2,
            serialization: total.saturating_sub(12),
            hops: 6,
            bypass_hops: 1,
            waits: vec![(NodeId(4), 4)],
        }
    }

    #[test]
    fn absorbing_spans_keeps_slowest_and_totals() {
        let mut p = ProfileSummary::new("Baseline", "upp");
        for i in 0..40u64 {
            p.absorb_span(&span(i, 20 + i));
        }
        assert_eq!(p.packets, 40);
        assert_eq!(p.slowest.len(), SLOWEST_KEPT);
        assert_eq!(p.slowest[0].packet, PacketId(39), "slowest first");
        assert_eq!(p.phases.wait_ack, 160);
        assert_eq!(p.net.count(), 40);
    }

    #[test]
    fn merge_equals_absorbing_the_union() {
        let mut a = ProfileSummary::new("Baseline", "upp");
        let mut b = ProfileSummary::new("Baseline", "upp");
        let mut both = ProfileSummary::new("Baseline", "upp");
        for i in 0..25u64 {
            let s = span(i, 20 + 7 * i % 40);
            if i % 2 == 0 {
                a.absorb_span(&s);
            } else {
                b.absorb_span(&s);
            }
            both.absorb_span(&s);
        }
        a.router_blocked = vec![1, 2];
        b.router_blocked = vec![0, 5, 9];
        both.router_blocked = vec![1, 7, 9];
        a.popups = 2;
        b.popups = 3;
        both.popups = 5;
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.to_json(), both.to_json());
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let mut p = ProfileSummary::new("Baseline", "scheme \"quoted\"");
        for i in 0..20u64 {
            p.absorb_span(&span(i, 30 + 3 * i));
        }
        p.router_blocked = vec![0, 5, 9];
        p.link_blocked = vec![0; 14];
        p.link_blocked[9] = 7;
        p.popups = 3;
        let text = p.to_json();
        let back = ProfileSummary::from_json(&text).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), text, "round trip is byte-identical");
    }

    #[test]
    fn jsonl_replay_matches_direct_recorder_feed() {
        use upp_noc::trace::TraceEvent;
        // One packet through create/inject/block/eject, rendered to JSONL
        // then replayed.
        let events = vec![
            TraceEvent::PacketCreated {
                at: 0,
                packet: PacketId(1),
                src: NodeId(0),
                dest: NodeId(9),
                vnet: VnetId(0),
                len_flits: 3,
            },
            TraceEvent::PacketInjected {
                at: 2,
                packet: PacketId(1),
                node: NodeId(0),
            },
            TraceEvent::Blocked {
                at: 4,
                packet: PacketId(1),
                node: NodeId(3),
                in_port: upp_noc::ids::Port::West,
                vc_flat: 0,
                out_port: Some(upp_noc::ids::Port::East),
                reason: upp_noc::trace::BlockReason::Credit,
            },
            TraceEvent::PacketEjected {
                at: 20,
                packet: PacketId(1),
                node: NodeId(9),
                net_latency: 18,
                total_latency: 20,
            },
        ];
        let jsonl: String = events.iter().map(|e| e.jsonl() + "\n").collect::<String>();
        let (from_text, malformed) =
            ProfileSummary::from_jsonl(jsonl.as_bytes(), "Baseline", "upp").expect("reads");
        assert_eq!(malformed, 0);

        let mut rec = SpanRecorder::new();
        for e in &events {
            rec.observe(e);
        }
        let mut direct = ProfileSummary::new("Baseline", "upp");
        direct.absorb_recorder(&mut rec);
        assert_eq!(from_text, direct);
        assert_eq!(from_text.to_json(), direct.to_json());
    }
}

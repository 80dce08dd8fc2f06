//! Rebuilding [`TraceEvent`]s from flight-recorder JSONL lines.
//!
//! The JSONL sink renders one `{"event": NAME, "args": {...}}` object per
//! line (see `upp_noc::trace::TraceEvent::jsonl`). This module parses the
//! subset of events the latency-attribution pipeline consumes back into
//! typed [`TraceEvent`]s; lines for other event kinds (control hops, popup
//! stage transitions) parse to [`Parsed::Irrelevant`] so callers can count
//! them separately from garbage.

use serde_json::Value;
use upp_noc::ids::{NodeId, PacketId, Port, VnetId};
use upp_noc::trace::{BlockReason, TraceEvent};

/// Outcome of parsing one JSONL line.
#[derive(Debug)]
pub enum Parsed {
    /// An event the profiling pipeline consumes.
    Event(TraceEvent),
    /// A well-formed trace line of an event kind profiling ignores.
    Irrelevant,
    /// Not a recognisable trace line.
    Malformed,
}

fn num(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn node(v: &Value, key: &str) -> Option<NodeId> {
    Some(NodeId(num(v, key)? as u32))
}

fn port(v: &Value, key: &str) -> Option<Port> {
    v.get(key)?.as_str()?.parse().ok()
}

fn reason(v: &Value, key: &str) -> Option<BlockReason> {
    match v.get(key)?.as_str()? {
        "credit" => Some(BlockReason::Credit),
        "vc" => Some(BlockReason::VcAlloc),
        "sa" => Some(BlockReason::SwitchAlloc),
        _ => None,
    }
}

/// Parses one JSONL trace line.
pub fn parse_line(line: &str) -> Parsed {
    let line = line.trim();
    if line.is_empty() {
        return Parsed::Irrelevant;
    }
    let Ok(v) = serde_json::from_str(line) else {
        return Parsed::Malformed;
    };
    let Some(name) = v.get("event").and_then(|e| e.as_str()) else {
        return Parsed::Malformed;
    };
    let Some(a) = v.get("args") else {
        return Parsed::Malformed;
    };
    let ev = match name {
        "packet_created" => (|| {
            Some(TraceEvent::PacketCreated {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                src: node(a, "src")?,
                dest: node(a, "dest")?,
                vnet: VnetId(num(a, "vnet")? as u8),
                len_flits: num(a, "len_flits")? as u16,
            })
        })(),
        "packet_injected" => (|| {
            Some(TraceEvent::PacketInjected {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                node: node(a, "node")?,
            })
        })(),
        "packet_ejected" => (|| {
            Some(TraceEvent::PacketEjected {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                node: node(a, "node")?,
                net_latency: num(a, "net_latency")?,
                total_latency: num(a, "total_latency")?,
            })
        })(),
        "vc_allocated" => (|| {
            Some(TraceEvent::VcAllocated {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                node: node(a, "node")?,
                in_port: port(a, "in_port")?,
                vc_flat: num(a, "vc_flat")? as usize,
                out_port: port(a, "out_port")?,
                out_vc: num(a, "out_vc")? as usize,
            })
        })(),
        "blocked" => (|| {
            Some(TraceEvent::Blocked {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                node: node(a, "node")?,
                in_port: port(a, "in_port")?,
                vc_flat: num(a, "vc_flat")? as usize,
                out_port: port(a, "out_port"),
                reason: reason(a, "reason")?,
            })
        })(),
        "bypass_hop" => (|| {
            Some(TraceEvent::BypassHop {
                at: num(a, "at")?,
                packet: PacketId(num(a, "packet")?),
                node: node(a, "node")?,
                out_port: port(a, "out_port")?,
            })
        })(),
        "popup_span" => (|| {
            Some(TraceEvent::PopupSpan {
                node: node(a, "node")?,
                vnet: VnetId(num(a, "vnet")? as u8),
                packet: PacketId(num(a, "packet")?),
                detected_at: num(a, "detected_at")?,
                completed_at: num(a, "completed_at")?,
                wait_ack: num(a, "wait_ack")?,
                locate: num(a, "locate")?,
                pop: num(a, "pop")?,
            })
        })(),
        "bypass_pop" | "control_hop" | "popup_stage" => return Parsed::Irrelevant,
        _ => return Parsed::Malformed,
    };
    match ev {
        Some(e) => Parsed::Event(e),
        None => Parsed::Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_events_profiling_consumes() {
        let events = vec![
            TraceEvent::PacketCreated {
                at: 1,
                packet: PacketId(7),
                src: NodeId(0),
                dest: NodeId(9),
                vnet: VnetId(2),
                len_flits: 5,
            },
            TraceEvent::Blocked {
                at: 6,
                packet: PacketId(7),
                node: NodeId(4),
                in_port: Port::West,
                vc_flat: 2,
                out_port: Some(Port::Up),
                reason: BlockReason::Credit,
            },
            TraceEvent::Blocked {
                at: 6,
                packet: PacketId(8),
                node: NodeId(5),
                in_port: Port::Local,
                vc_flat: 0,
                out_port: None,
                reason: BlockReason::SwitchAlloc,
            },
            TraceEvent::PopupSpan {
                node: NodeId(4),
                vnet: VnetId(2),
                packet: PacketId(7),
                detected_at: 10,
                completed_at: 31,
                wait_ack: 12,
                locate: 0,
                pop: 9,
            },
            TraceEvent::PacketEjected {
                at: 31,
                packet: PacketId(7),
                node: NodeId(9),
                net_latency: 28,
                total_latency: 30,
            },
        ];
        for ev in events {
            match parse_line(&ev.jsonl()) {
                Parsed::Event(back) => assert_eq!(back, ev),
                other => panic!("expected event, got {other:?} for {}", ev.jsonl()),
            }
        }
    }

    #[test]
    fn irrelevant_and_malformed_lines_are_distinguished() {
        let ctl = TraceEvent::PopupStage {
            at: 1,
            node: NodeId(0),
            vnet: VnetId(0),
            packet: PacketId(0),
            from: "Idle",
            to: "WaitAck",
        };
        assert!(matches!(parse_line(&ctl.jsonl()), Parsed::Irrelevant));
        assert!(matches!(parse_line(""), Parsed::Irrelevant));
        assert!(matches!(parse_line("not json"), Parsed::Malformed));
        assert!(matches!(
            parse_line(r#"{"event":"blocked","args":{"at":1}}"#),
            Parsed::Malformed
        ));
    }
}

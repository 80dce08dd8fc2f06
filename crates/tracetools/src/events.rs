//! Classifying flight-recorder JSONL lines for the latency-attribution
//! pipeline.
//!
//! The JSONL sink renders one `{"event": NAME, "args": {...}}` object per
//! line and `upp_noc::trace::TraceEvent::from_jsonl` reads one back; this
//! module only sorts the result. Events the pipeline consumes come back
//! typed; lines for other event kinds (bypass pops, control hops, popup
//! stage transitions) parse to [`Parsed::Irrelevant`] so callers can count
//! them separately from garbage.

use upp_noc::trace::TraceEvent;

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

/// Parses one JSONL trace line.
pub fn parse_line(line: &str) -> Parsed {
    if line.trim().is_empty() {
        return Parsed::Irrelevant;
    }
    match TraceEvent::from_jsonl(line) {
        None => Parsed::Malformed,
        Some(
            TraceEvent::BypassPop { .. }
            | TraceEvent::ControlHop { .. }
            | TraceEvent::PopupStage { .. },
        ) => Parsed::Irrelevant,
        Some(ev) => Parsed::Event(ev),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_noc::ids::{NodeId, PacketId, Port, VnetId};
    use upp_noc::trace::BlockReason;

    #[test]
    fn round_trips_the_events_profiling_consumes() {
        let span = TraceEvent::BlockedSpan {
            from: 7,
            to: 19,
            packet: PacketId(7),
            node: NodeId(4),
            in_port: Port::West,
            vc_flat: 2,
            out_port: Port::Up,
            reason: BlockReason::Credit,
        };
        assert!(matches!(parse_line(&span.jsonl()), Parsed::Event(back) if back == span));
    }

    #[test]
    fn irrelevant_and_malformed_lines_are_distinguished() {
        let ctl = TraceEvent::PopupStage {
            at: 1,
            node: NodeId(0),
            vnet: VnetId(0),
            packet: PacketId(0),
            from: "Idle".into(),
            to: "WaitAck".into(),
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

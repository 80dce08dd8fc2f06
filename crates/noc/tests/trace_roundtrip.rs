//! Round-trip checks for the flight-recorder trace sinks.
//!
//! The JSONL stream and the Chrome trace export are consumed by external
//! tooling (jq pipelines, Perfetto), so their output must stay genuinely
//! parseable JSON with stable field names — not merely "looks like JSON".
//! These tests re-parse every emitted line with the workspace JSON parser
//! and reconstruct the original events field-for-field through
//! [`TraceEvent::from_jsonl`], the one reader of the format.

use std::io::Write;
use std::sync::{Arc, Mutex};

use serde_json::Value;
use upp_noc::control::{ControlClass, ControlRoute};
use upp_noc::ids::{NodeId, PacketId, Port, VnetId};
use upp_noc::ni::ConsumePolicy;
use upp_noc::routing::ChipletRouting;
use upp_noc::topology::ChipletSystemSpec;
use upp_noc::trace::BlockReason;
use upp_noc::{Network, NoScheme, NocConfig, System, TraceEvent, Tracer};

#[derive(Clone)]
struct SharedWriter(Arc<Mutex<Vec<u8>>>);

impl Write for SharedWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn st<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {k:?} in {v:?}"))
}

/// One instance of every event variant, with the awkward corners populated
/// (absent optional port, hostile stage labels).
fn all_variants() -> Vec<TraceEvent> {
    vec![
        TraceEvent::PacketCreated {
            at: 1,
            packet: PacketId(7),
            src: NodeId(0),
            dest: NodeId(63),
            vnet: VnetId(2),
            len_flits: 5,
        },
        TraceEvent::PacketInjected {
            at: 2,
            packet: PacketId(7),
            node: NodeId(0),
        },
        TraceEvent::PacketEjected {
            at: 90,
            packet: PacketId(7),
            node: NodeId(63),
            net_latency: 88,
            total_latency: 89,
        },
        TraceEvent::VcAllocated {
            at: 3,
            packet: PacketId(7),
            node: NodeId(5),
            in_port: Port::West,
            vc_flat: 2,
            out_port: Port::Down,
            out_vc: 4,
        },
        TraceEvent::Blocked {
            at: 4,
            packet: PacketId(7),
            node: NodeId(5),
            in_port: Port::North,
            vc_flat: 0,
            out_port: None,
            reason: BlockReason::VcAlloc,
        },
        TraceEvent::Blocked {
            at: 5,
            packet: PacketId(8),
            node: NodeId(6),
            in_port: Port::Local,
            vc_flat: 1,
            out_port: Some(Port::Up),
            reason: BlockReason::Credit,
        },
        TraceEvent::BlockedSpan {
            from: 5,
            to: 41,
            packet: PacketId(8),
            node: NodeId(6),
            in_port: Port::Local,
            vc_flat: 1,
            out_port: Port::Up,
            reason: BlockReason::Credit,
        },
        TraceEvent::BypassPop {
            at: 6,
            packet: PacketId(9),
            node: NodeId(70),
            in_port: Port::East,
            vc_flat: 3,
            out_port: Port::Up,
        },
        TraceEvent::BypassHop {
            at: 7,
            packet: PacketId(9),
            node: NodeId(71),
            out_port: Port::North,
        },
        TraceEvent::ControlHop {
            at: 8,
            node: NodeId(66),
            out_port: Port::East,
            class: ControlClass::ReqLike,
            bits: 0xdead_beef,
            vnet: VnetId(1),
            origin: NodeId(66),
            routing: ControlRoute::Reverse,
        },
        TraceEvent::PopupStage {
            at: 9,
            node: NodeId(66),
            vnet: VnetId(1),
            packet: PacketId(9),
            from: "idle \"quoted\"".into(),
            to: "req\\uest\n".into(),
        },
        TraceEvent::PopupSpan {
            node: NodeId(66),
            vnet: VnetId(1),
            packet: PacketId(9),
            detected_at: 10,
            completed_at: 42,
            wait_ack: 12,
            locate: 3,
            pop: 17,
        },
    ]
}

#[test]
fn jsonl_codec_round_trips_every_variant() {
    for ev in all_variants() {
        let line = ev.jsonl();
        assert_eq!(TraceEvent::from_jsonl(&line), Some(ev), "drifted: {line}");
    }
}

/// A traced run streamed through the JSONL sink re-parses event-for-event
/// against an identical run captured in the ring buffer (the simulator is
/// deterministic, so the two runs record the same sequence).
#[test]
fn jsonl_sink_stream_matches_ring_capture() {
    fn traced_run(tracer: Tracer) -> System {
        let topo = ChipletSystemSpec::baseline().build(3).unwrap();
        let net = Network::new(
            NocConfig::default().with_vcs_per_vnet(2),
            topo,
            std::sync::Arc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 1 },
            3,
        );
        let mut sys = System::new(net, Box::new(NoScheme));
        sys.net_mut().set_tracer(tracer);
        let src = NodeId(0);
        let dest = NodeId(15);
        for i in 0..20u64 {
            sys.send(
                src,
                dest,
                VnetId((i % 3) as u8),
                if i % 3 == 2 { 5 } else { 1 },
            );
            sys.step();
        }
        sys.run(400);
        sys
    }

    let ring_sys = traced_run(Tracer::ring(1 << 16));
    let ring: Vec<TraceEvent> = ring_sys.net().tracer().events().cloned().collect();
    assert!(
        ring.len() > 100,
        "the run should record a rich event stream, got {}",
        ring.len()
    );
    assert_eq!(ring_sys.net().tracer().dropped(), 0, "ring must not wrap");

    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut jsonl_sys = traced_run(Tracer::jsonl(Box::new(SharedWriter(Arc::clone(&buf)))));
    jsonl_sys.net_mut().tracer_mut().flush();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), ring.len(), "one JSONL line per recorded event");
    for (line, expected) in lines.iter().zip(&ring) {
        assert_eq!(
            TraceEvent::from_jsonl(line).as_ref(),
            Some(expected),
            "line drifted: {line}"
        );
    }
}

/// The Chrome/Perfetto export is one valid JSON document with the expected
/// trace-event envelope around every recorded event.
#[test]
fn chrome_trace_export_is_valid_json() {
    let topo = ChipletSystemSpec::baseline().build(3).unwrap();
    let net = Network::new(
        NocConfig::default().with_vcs_per_vnet(2),
        topo,
        std::sync::Arc::new(ChipletRouting::xy()),
        ConsumePolicy::Immediate { latency: 1 },
        3,
    );
    let mut sys = System::new(net, Box::new(NoScheme));
    sys.net_mut().set_tracer(Tracer::chrome());
    for i in 0..10u64 {
        sys.send(NodeId(0), NodeId(12), VnetId((i % 3) as u8), 1);
        sys.step();
    }
    sys.run(200);

    let doc = sys.net().tracer().chrome_trace_json();
    let v: Value = serde_json::from_str(&doc).expect("chrome export parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), sys.net().tracer().len());
    assert!(!events.is_empty());
    for e in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "chrome event missing {key:?}: {e:?}");
        }
        let ph = st(e, "ph");
        assert!(ph == "i" || ph == "X", "unexpected phase {ph:?}");
        assert!(e.get("args").is_some());
    }
}

/// A `Network` dropped with its tracer still in it closes the spans of the
/// VCs parked at that moment, exactly as taking the tracer out with
/// `set_tracer` does: both JSONL streams hold the same blocked cells, byte
/// for byte, ending in the closing `blocked_span`s.
#[test]
fn a_dropped_tracer_closes_its_spans() {
    fn hotspot_jsonl(take_out: bool) -> String {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let topo = ChipletSystemSpec::baseline().build(3).unwrap();
        let nodes = topo.num_nodes() as u32;
        let net = Network::new(
            NocConfig::default(),
            topo,
            std::sync::Arc::new(ChipletRouting::xy()),
            ConsumePolicy::Immediate { latency: 40 },
            3,
        );
        let mut sys = System::new(net, Box::new(NoScheme));
        sys.net_mut()
            .set_tracer(Tracer::jsonl(Box::new(SharedWriter(Arc::clone(&buf)))));
        // Every node sends to one slow sink, so the network backs up and
        // VCs park behind it.
        for c in 0..300u32 {
            let src = NodeId(c % nodes);
            if src != NodeId(15) {
                sys.send(src, NodeId(15), VnetId((c % 3) as u8), 4);
            }
            sys.step();
        }
        if take_out {
            drop(sys.net_mut().set_tracer(Tracer::disabled()));
        }
        drop(sys);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text
    }

    let taken_out = hotspot_jsonl(true);
    let last = taken_out
        .lines()
        .last()
        .expect("a traced run writes events");
    assert!(
        last.contains("\"blocked_span\""),
        "VCs are still parked when the run stops: {last}"
    );
    assert_eq!(
        hotspot_jsonl(false),
        taken_out,
        "dropping the network loses the open spans"
    );
}

//! Round-trip checks for the flight-recorder trace sinks.
//!
//! The JSONL stream and the Chrome trace export are consumed by external
//! tooling (jq pipelines, Perfetto), so their output must stay genuinely
//! parseable JSON with stable field names — not merely "looks like JSON".
//! These tests re-parse every emitted line with the workspace JSON parser
//! and reconstruct the original events field-for-field.

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

fn num(v: &Value, k: &str) -> u64 {
    v.get(k)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field {k:?} in {v:?}"))
}

fn st<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {k:?} in {v:?}"))
}

fn port(v: &Value, k: &str) -> Port {
    st(v, k).parse().unwrap()
}

/// Rebuilds a [`TraceEvent`] from its parsed JSONL form. Every field the
/// renderer writes must be recoverable, or the sink format has drifted.
fn rebuild(line: &Value) -> TraceEvent {
    let name = st(line, "event");
    let a = line.get("args").expect("args object");
    match name {
        "packet_created" => TraceEvent::PacketCreated {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            src: NodeId(num(a, "src") as u32),
            dest: NodeId(num(a, "dest") as u32),
            vnet: VnetId(num(a, "vnet") as u8),
            len_flits: num(a, "len_flits") as u16,
        },
        "packet_injected" => TraceEvent::PacketInjected {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
        },
        "packet_ejected" => TraceEvent::PacketEjected {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
            net_latency: num(a, "net_latency"),
            total_latency: num(a, "total_latency"),
        },
        "vc_allocated" => TraceEvent::VcAllocated {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
            in_port: port(a, "in_port"),
            vc_flat: num(a, "vc_flat") as usize,
            out_port: port(a, "out_port"),
            out_vc: num(a, "out_vc") as usize,
        },
        "blocked" => TraceEvent::Blocked {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
            in_port: port(a, "in_port"),
            vc_flat: num(a, "vc_flat") as usize,
            out_port: a
                .get("out_port")
                .and_then(Value::as_str)
                .map(|p| p.parse().unwrap()),
            reason: match st(a, "reason") {
                "credit" => BlockReason::Credit,
                "vc" => BlockReason::VcAlloc,
                "sa" => BlockReason::SwitchAlloc,
                other => panic!("unknown block reason {other:?}"),
            },
        },
        "bypass_pop" => TraceEvent::BypassPop {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
            in_port: port(a, "in_port"),
            vc_flat: num(a, "vc_flat") as usize,
            out_port: port(a, "out_port"),
        },
        "bypass_hop" => TraceEvent::BypassHop {
            at: num(a, "at"),
            packet: PacketId(num(a, "packet")),
            node: NodeId(num(a, "node") as u32),
            out_port: port(a, "out_port"),
        },
        "control_hop" => TraceEvent::ControlHop {
            at: num(a, "at"),
            node: NodeId(num(a, "node") as u32),
            out_port: port(a, "out_port"),
            class: match st(a, "class") {
                "req" => ControlClass::ReqLike,
                "ack" => ControlClass::AckLike,
                other => panic!("unknown control class {other:?}"),
            },
            bits: num(a, "bits") as u32,
            vnet: VnetId(num(a, "vnet") as u8),
            origin: NodeId(num(a, "origin") as u32),
            routing: match st(a, "routing") {
                "forward" => ControlRoute::Forward,
                "reverse" => ControlRoute::Reverse,
                other => panic!("unknown control routing {other:?}"),
            },
        },
        "popup_stage" => TraceEvent::PopupStage {
            at: num(a, "at"),
            node: NodeId(num(a, "node") as u32),
            vnet: VnetId(num(a, "vnet") as u8),
            packet: PacketId(num(a, "packet")),
            // Stage names are &'static str in the event; the tiny leak is
            // confined to this test process.
            from: Box::leak(st(a, "from").to_string().into_boxed_str()),
            to: Box::leak(st(a, "to").to_string().into_boxed_str()),
        },
        "popup_span" => TraceEvent::PopupSpan {
            node: NodeId(num(a, "node") as u32),
            vnet: VnetId(num(a, "vnet") as u8),
            packet: PacketId(num(a, "packet")),
            detected_at: num(a, "detected_at"),
            completed_at: num(a, "completed_at"),
            wait_ack: num(a, "wait_ack"),
            locate: num(a, "locate"),
            pop: num(a, "pop"),
        },
        other => panic!("unknown event name {other:?}"),
    }
}

/// One instance of every event variant, with the awkward corners populated
/// (absent optional port, absent optional packet).
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
            from: "idle",
            to: "request",
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
        let line: Value = serde_json::from_str(&ev.jsonl())
            .unwrap_or_else(|e| panic!("bad JSONL for {}: {e}", ev.name()));
        assert_eq!(rebuild(&line), ev, "event drifted through the JSONL codec");
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
        let v: Value = serde_json::from_str(line).expect("line parses as JSON");
        assert_eq!(&rebuild(&v), expected, "line drifted: {line}");
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

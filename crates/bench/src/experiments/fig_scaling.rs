//! `fig_scaling`: the boundary-structure observatory. Not a paper figure —
//! the paper evaluates fixed 2x2/4x2 systems — but its modularity claim is
//! about *growth*: UPP's per-router state (circuit table, watchdog
//! counters) is constant while remote control's permission subnetwork and
//! composable's funnel pressure concentrate as the system scales. This
//! experiment drives `chiplet_grid(CxR)` meshes from the paper's 2x2 tile
//! arrangement up to thousands of routers under hotspot traffic with slow
//! consumption (the paper's Fig. 3 deadlock recipe), and reads each
//! scheme's boundary structures through the `upp_noc::obs` telemetry
//! registry on shared axes:
//!
//! * **boundary pressure** — the high-water of the scheme's boundary
//!   structure (UPP circuit-table entries, remote-control permit-queue
//!   depth, composable Down-port funnel occupancy);
//! * **protocol events** — how often the protocol had to act (UPP watchdog
//!   expiries, remote-control permit contention waits; composable acts at
//!   design time only);
//! * **recovery latency** — UPP popup recovery distribution (mean/p95)
//!   straight from the exact telemetry histograms.

use super::{Context, SEED};
use crate::report::{f1, ExperimentResult, MarkdownTable};
use serde::{Deserialize, Serialize};
use upp_noc::ni::ConsumePolicy;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::run::{RiderConfig, Riders};
use upp_workloads::runner::{build_system, SchemeKind};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

/// Consumption latency at every NI: several times the UPP detection
/// threshold (20), so hotspot victims stay blocked long enough not just
/// to trip the watchdog but for popups to run to completion (fast
/// consumption resolves most detections with a STOP before the pop).
const CONSUME_LATENCY: u64 = 120;

/// One `(grid, scheme)` cell of the observatory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Grid columns (chiplet tiles).
    pub cols: u16,
    /// Grid rows.
    pub rows: u16,
    /// Routers in the system.
    pub routers: usize,
    /// Scheme label.
    pub scheme: String,
    /// True when the run drained completely.
    pub drained: bool,
    /// Total cycles simulated (traffic + drain).
    pub cycles: u64,
    /// Packets delivered.
    pub packets: u64,
    /// High-water of the scheme's boundary structure (see module docs).
    pub boundary_pressure: u64,
    /// Protocol interventions (watchdog expiries / contention waits).
    pub protocol_events: u64,
    /// Mean UPP popup recovery latency in cycles (0 for other schemes).
    pub recovery_mean: f64,
    /// p95 UPP popup recovery latency in cycles.
    pub recovery_p95: u64,
    /// Popup circuits installed (UPP mechanism counter).
    pub circuit_inserts: u64,
    /// End-of-run kernel heap footprint in bytes (routers + NIs +
    /// descriptor arena + event calendar; kernel-invariant, see
    /// [`upp_noc::network::MemReport`]).
    pub mem_total_bytes: usize,
    /// Router share of the footprint averaged per router — the per-tile
    /// cost a chiplet integrator pays as the mesh grows.
    pub mem_bytes_per_router: usize,
}

/// Grid sizes per mode: the paper's tile arrangement up to a
/// 32x32-chiplet mesh (20480 routers) in full mode.
pub fn sizes(quick: bool) -> Vec<(u16, u16)> {
    if quick {
        vec![(2, 2), (3, 3), (4, 4)]
    } else {
        vec![(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)]
    }
}

fn traffic_cycles(quick: bool) -> u64 {
    if quick {
        800
    } else {
        2_000
    }
}

/// Offered rate scaled so the four hotspot cores see the same absolute
/// overload at every size (several times their consumption bandwidth, so
/// blocking outlasts the detection threshold); without this the biggest
/// grids would bury the hotspots under an undrainable backlog and the
/// comparison would measure queue depth, not protocol behaviour.
fn rate_for(routers: usize) -> f64 {
    (7.8 / routers as f64).min(0.06)
}

/// One `(grid, scheme)` run with every input it reads, so its JSON is its
/// journal key.
#[derive(Serialize)]
struct ScaleRun {
    cols: u16,
    rows: u16,
    scheme: SchemeKind,
    traffic_cycles: u64,
    consume_latency: u64,
    seed: u64,
}

fn run_point(run: &ScaleRun) -> ScalePoint {
    let &ScaleRun {
        cols,
        rows,
        ref scheme,
        traffic_cycles,
        consume_latency,
        seed,
    } = run;
    let spec = ChipletSystemSpec::grid(cols, rows).expect("sizes() grids are valid");
    let built = build_system(
        &spec,
        super::cfg(1),
        scheme,
        0,
        seed,
        ConsumePolicy::Immediate {
            latency: consume_latency,
        },
    );
    let mut sys = built.sys;
    // Sampled gauges (queue depths, table occupancy) need periodic
    // refreshes to catch the pressure while it exists.
    let mut riders = Riders::arm(
        &mut sys,
        RiderConfig {
            sample_every: Some(25),
            ..RiderConfig::default()
        },
    );
    let routers = sys.net().topo().num_nodes();
    let mut traffic =
        SyntheticTraffic::new(sys.net().topo(), Pattern::Hotspot, rate_for(routers), seed);
    for _ in 0..traffic_cycles {
        traffic.tick(&mut sys);
        sys.step();
        riders.after_step(&mut sys, &mut |_| {});
        if sys.net().stalled() {
            break;
        }
    }
    sys.drain(200_000, |sys| riders.after_step(sys, &mut |_| {}));
    sys.observe();
    let obs = sys.net().obs();
    let (boundary_pressure, protocol_events) = match scheme {
        SchemeKind::Upp(_) => (
            obs.gauge_value("circuit.entries").1,
            obs.counter_value("upp.watchdog.expired_cycles"),
        ),
        SchemeKind::RemoteControl => (
            obs.gauge_value("rc.permit_queue.depth").1,
            obs.counter_value("rc.permits.contention_wait_cycles"),
        ),
        SchemeKind::Composable | SchemeKind::ComposableBalanced => {
            (obs.gauge_value("composable.dateline_vc.flits").1, 0)
        }
        SchemeKind::None => (0, 0),
    };
    let (recovery_mean, recovery_p95) = obs
        .histogram("upp.popup.recovery_cycles")
        .map_or((0.0, 0), |h| (h.mean(), h.quantile(0.95)));
    let mem = sys.net().mem_report();
    ScalePoint {
        cols,
        rows,
        routers,
        scheme: scheme.label().to_string(),
        drained: sys.net().in_flight() == 0,
        cycles: sys.net().cycle(),
        packets: sys.net().stats().packets_ejected,
        boundary_pressure,
        protocol_events,
        recovery_mean,
        recovery_p95,
        circuit_inserts: obs.counter_value("circuit.inserts"),
        mem_total_bytes: mem.total_bytes,
        mem_bytes_per_router: mem.bytes_per_router,
    }
}

/// Collects every `(grid, scheme)` point on the sweep engine.
pub fn collect(ctx: &Context) -> Vec<ScalePoint> {
    let mut jobs = Vec::new();
    for &(cols, rows) in &sizes(ctx.quick) {
        for scheme in SchemeKind::evaluated() {
            jobs.push(ScaleRun {
                cols,
                rows,
                scheme,
                traffic_cycles: traffic_cycles(ctx.quick),
                consume_latency: CONSUME_LATENCY,
                seed: SEED,
            });
        }
    }
    ctx.engine.run_keyed(&jobs, run_point)
}

/// Renders the points as CSV (one row per `(grid, scheme)` point).
pub fn csv(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "cols,rows,routers,scheme,drained,cycles,packets,boundary_pressure,\
         protocol_events,recovery_mean,recovery_p95,circuit_inserts,\
         mem_total_bytes,mem_bytes_per_router\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.2},{},{},{},{}\n",
            p.cols,
            p.rows,
            p.routers,
            p.scheme,
            p.drained,
            p.cycles,
            p.packets,
            p.boundary_pressure,
            p.protocol_events,
            p.recovery_mean,
            p.recovery_p95,
            p.circuit_inserts,
            p.mem_total_bytes,
            p.mem_bytes_per_router
        ));
    }
    out
}

/// Runs the observatory and renders it.
pub fn run(ctx: &Context) -> ExperimentResult {
    let points = collect(ctx);
    let mut out = String::new();
    out.push_str(
        "### fig_scaling — boundary-structure pressure vs. system size (telemetry observatory)\n\n\
         Hotspot traffic with slow consumption (the Fig. 3 recipe), offered load scaled so the\n\
         hot cores see the same absolute overload at every size. Boundary pressure is each\n\
         scheme's own structure: UPP circuit-table entries, remote-control permit-queue depth,\n\
         composable Down-port funnel flits (all high-waters).\n\n",
    );
    let mut t = MarkdownTable::new([
        "grid",
        "routers",
        "scheme",
        "delivered",
        "boundary pressure",
        "protocol events",
        "recovery mean",
        "recovery p95",
        "mem B/router",
    ]);
    for p in &points {
        t.row([
            format!("{}x{}", p.cols, p.rows),
            p.routers.to_string(),
            p.scheme.clone(),
            format!(
                "{}{}",
                p.packets,
                if p.drained { "" } else { " (stalled!)" }
            ),
            p.boundary_pressure.to_string(),
            p.protocol_events.to_string(),
            if p.recovery_mean > 0.0 {
                f1(p.recovery_mean)
            } else {
                "-".into()
            },
            if p.recovery_p95 > 0 {
                p.recovery_p95.to_string()
            } else {
                "-".into()
            },
            p.mem_bytes_per_router.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: UPP's circuit-table high-water tracks the number of simultaneous popups\n\
         (bounded by the hot cores), not the router count — the modularity argument in one\n\
         number. The mem column is the kernel's per-router heap cost (VC rings + state\n\
         arrays), flat across sizes because every buffer is fixed-capacity. The raw points\n\
         are in the JSON artifact; `csv()` renders the same table for plotting.\n",
    );
    ExperimentResult::new(
        "fig_scaling",
        "fig_scaling: boundary-structure telemetry vs. system size",
        out,
        &points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_ctx;

    #[test]
    fn quick_observatory_spans_three_sizes_and_sees_upp_pressure() {
        let points = collect(&quick_ctx());
        assert_eq!(points.len(), 3 * 3, "3 sizes x 3 schemes");
        assert!(points.iter().all(|p| p.drained), "every run must drain");
        let mut routers: Vec<usize> = points.iter().map(|p| p.routers).collect();
        routers.sort_unstable();
        routers.dedup();
        assert!(routers.len() >= 3, "spans at least three grid sizes");
        // The whole point: UPP's telemetry shows real popup activity.
        let upp: Vec<&ScalePoint> = points.iter().filter(|p| p.scheme == "UPP").collect();
        assert!(
            upp.iter()
                .any(|p| p.protocol_events > 0 && p.circuit_inserts > 0),
            "hotspot + slow consumption must trigger popups somewhere: {upp:?}"
        );
        for p in upp.iter().filter(|p| p.circuit_inserts > 0) {
            assert!(
                p.boundary_pressure > 0,
                "popups imply circuit entries: {p:?}"
            );
            assert!(p.recovery_p95 > 0, "popups imply recovery samples: {p:?}");
        }
        // The memory column is populated and the per-router cost stays flat
        // as the mesh grows (the data-oriented layout's modularity claim).
        for p in &points {
            assert!(p.mem_total_bytes > 0, "memory column missing: {p:?}");
            assert!(
                p.mem_bytes_per_router > 0 && p.mem_bytes_per_router <= 1 << 20,
                "per-router footprint out of range: {p:?}"
            );
        }
        let csv = csv(&points);
        assert_eq!(csv.lines().count(), 1 + points.len());
    }
}

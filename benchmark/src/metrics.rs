//! The names the runner prints. `BENCHMARK.json` lists the same names; a
//! unit test holds the two together.

/// End-to-end metrics as `(name, unit)`: printed with `--trace 0`.
///
/// Names starting `sim_` are simulated time (what the modelled hardware
/// would take); every other name is host time or host memory.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_cycles", "cycles"),
    ("sim_throughput", "flits/cyc/node"),
];

/// The end-to-end metrics that are purely simulated quantities: on an exact
/// workload the same seed gives the same value, bit for bit, on any host.
/// (`sim_cycles_per_s` is the simulator's speed: simulated cycles per host
/// second.)
pub const SIMULATED: &[&str] = &["sim_latency_cycles", "sim_throughput"];

/// Per-layer metrics as `(name, unit)`: printed with `--trace 1`. The prefix
/// is the crate (`workloads` = `upp-workloads`, `bench` = `upp-bench`, ...);
/// `trace.` is the harness itself. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("noc.topology_build_s", "s"),
    ("noc.route_tables_build_s", "s"),
    ("noc.network_new_s", "s"),
    ("noc.begin_cycle_ns_per_cycle", "ns"),
    ("noc.finish_cycle_ns_per_cycle", "ns"),
    ("noc.ns_per_router_cycle", "ns"),
    ("noc.ns_per_active_router_step", "ns"),
    ("noc.ns_per_flit_hop", "ns"),
    ("noc.active_router_fraction", "share"),
    ("noc.drain_s", "s"),
    ("noc.drain_cycles", "cycles"),
    ("noc.mem_total_bytes", "bytes"),
    ("noc.mem_bytes_per_router", "bytes"),
    ("noc.flit_hops", "count"),
    ("noc.control_hops", "count"),
    ("noc.bypass_hops", "count"),
    ("core.pre_cycle_ns_per_cycle", "ns"),
    ("core.post_cycle_ns_per_cycle", "ns"),
    ("core.upward_packets", "count"),
    ("core.popups_completed", "count"),
    ("core.reservation_retries", "count"),
    ("core.popups_per_upward", "share"),
    ("core.recovery_cycles_mean", "cycles"),
    ("core.digest_distinct", "count"),
    ("baselines.pre_cycle_ns_per_cycle", "ns"),
    ("baselines.post_cycle_ns_per_cycle", "ns"),
    ("baselines.composable_build_s", "s"),
    ("workloads.traffic_tick_ns_per_cycle", "ns"),
    ("workloads.build_system_s", "s"),
    ("workloads.point_s_p50", "s"),
    ("workloads.point_s_max", "s"),
    ("bench.sweep_busy_s", "s"),
    ("bench.sweep_parallel_efficiency", "share"),
    ("bench.report_s", "s"),
    ("verify.scenario_gen_s", "s"),
    ("verify.differential_s_p50", "s"),
    ("verify.differential_s_max", "s"),
    ("verify.sim_cycles", "cycles"),
    ("verify.failures", "count"),
    ("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn runner_and_benchmark_json_name_the_same_metrics_and_workloads() {
        let v = benchmark_json();
        assert_eq!(listed(&v, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&v, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name").into())
            .collect();
        let ours: Vec<String> = crate::workloads::ALL
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(n), "bad metric name {n:?}");
            assert!(unit_ok(u), "bad unit {u:?}");
            assert!(seen.insert(*n), "duplicate name {n}");
        }
        for w in crate::workloads::ALL {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}

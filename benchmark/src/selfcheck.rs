//! A/A mode: the whole benchmark twice on one build.
//!
//! Every run is a child process of this executable, strictly one at a time,
//! so peak memory, allocator state and address layout are per run. The two
//! sets are interleaved: for each seed and workload the A run and the B run
//! are made back to back (B first on every other seed), so drift of the
//! machine lands on both sets alike and cancels in the paired differences.
//! The check passes when, for every workload and end-to-end metric, neither
//! the second set's median nor the median of the per-seed paired differences
//! is worse than the first set by more than the metric's bound, each set's
//! quartile spread is within the bound (`setup_s` excepted), the simulated
//! metrics of the exact workloads are equal seed for seed, and no operation
//! failed. The run length is `run_seconds` of `BENCHMARK.json`.

use crate::stats::{median, quartile_spread};
use crate::{host_info, metrics, obj, op_json, out_path, workloads, write_json, OUT_DIR};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Seeds per set: the count the acceptance rule's quartiles are taken over.
const SEEDS: u64 = 10;
/// First seed of a set; both sets use the same seeds.
const SEED_BASE: u64 = 2022;
/// A child that runs longer than the contract allows is killed and counted
/// as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(180);

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One child's parsed result line.
struct ChildResult {
    metrics: Vec<(String, f64)>,
}

fn read_contract() -> Result<(f64, Vec<Bound>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let seconds = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("run_seconds")?;
    let bounds = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("end_to_end entry")?;
    Ok((seconds, bounds))
}

/// Runs one child to completion or time-out and parses its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path("selfcheck-stderr.log"))
        .map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log));
    if smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| e.to_string())?;
    let started = Instant::now();
    // The result is a few KiB, well inside the pipe buffer, so the child
    // never blocks on a full pipe while it is being polled.
    let status = loop {
        match proc.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("timed out after {CHILD_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut out = String::new();
    if let Some(mut pipe) = proc.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut out).map_err(|e| e.to_string())?;
    }
    if !status.success() {
        return Err(format!("exit {status}"));
    }
    let line = out.lines().last().ok_or("no output")?;
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let failed = v.get("failed").and_then(Value::as_u64).ok_or("failed")?;
    let attempted = v
        .get("attempted")
        .and_then(Value::as_u64)
        .ok_or("attempted")?;
    if failed > 0 || !matches!(v.get("correct"), Some(Value::Bool(true))) {
        return Err(format!("{failed} of {attempted} operations failed"));
    }
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics")?
        .iter()
        .map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect::<Option<Vec<_>>>()
        .ok_or("metric value")?;
    Ok(ChildResult { metrics })
}

pub fn run(smoke: bool) -> ExitCode {
    match check(smoke) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check(smoke: bool) -> Result<bool, String> {
    let (run_seconds, bounds) = read_contract()?;
    // A smoke check only exercises the harness: the fewest repetitions.
    let seconds = if smoke { 0.0 } else { run_seconds };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    let mut operations: Vec<Value> = Vec::new();
    let mut pass = true;

    // values[set][workload][metric] in seed order; NaN marks a failed child.
    let mut values = vec![vec![vec![Vec::<f64>::new(); bounds.len()]; names.len()]; 2];
    for s in 0..SEEDS {
        for (wi, w) in names.iter().enumerate() {
            let order = if s % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let op = format!("set{}/{w}/seed{}", ["A", "B"][set], SEED_BASE + s);
                eprintln!("[selfcheck] {op}");
                let r = child(w, SEED_BASE + s, seconds, false, smoke);
                for (mi, b) in bounds.iter().enumerate() {
                    let x = r.as_ref().ok().and_then(|c| {
                        c.metrics
                            .iter()
                            .find(|(n, _)| *n == b.name)
                            .map(|(_, x)| *x)
                    });
                    values[set][wi][mi].push(x.unwrap_or(f64::NAN));
                }
                operations.push(operation(&op, r.as_ref().err()));
                pass &= r.is_ok();
            }
        }
    }
    let mut layers: Vec<(String, Value)> = Vec::new();
    for w in &names {
        let op = format!("traced/{w}/seed{SEED_BASE}");
        eprintln!("[selfcheck] {op}");
        let r = child(w, SEED_BASE, seconds, true, smoke);
        operations.push(operation(&op, r.as_ref().err()));
        pass &= r.is_ok();
        if let Ok(c) = r {
            let listed: Vec<(String, Value)> = metrics::PER_LAYER
                .iter()
                .filter_map(|(n, _)| c.metrics.iter().find(|(k, _)| k == n))
                .map(|(k, x)| (k.clone(), Value::F64(*x)))
                .collect();
            pass &= listed.len() == metrics::PER_LAYER.len();
            layers.push((w.to_string(), Value::Object(listed)));
        }
    }

    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B worse",
        "paired",
        "spread A",
        "spread B",
        "bound"
    );
    let mut rows: Vec<Value> = Vec::new();
    for (wi, w) in workloads::ALL.iter().enumerate() {
        for (mi, b) in bounds.iter().enumerate() {
            let (a, bb) = (&values[0][wi][mi], &values[1][wi][mi]);
            let complete = a.iter().chain(bb).all(|x| x.is_finite());
            let (ma, mb) = (median(a), median(bb));
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (mb - ma) / ma.abs();
            // Per seed, how much worse B read than the A run made next to it.
            let diffs: Vec<f64> = a
                .iter()
                .zip(bb)
                .map(|(x, y)| sign * (y - x) / x.abs())
                .collect();
            let paired = median(&diffs);
            let (sa, sb) = (quartile_spread(a), quartile_spread(bb));
            let exact = w.exact && metrics::SIMULATED.contains(&b.name.as_str());
            let mut why = Vec::new();
            if !complete {
                why.push("missing values");
            }
            if worse > b.bound {
                why.push("second median worse than the bound");
            }
            if paired > b.bound {
                why.push("paired differences worse than the bound");
            }
            if b.name != "setup_s" && sa.max(sb) > b.bound {
                why.push("spread wider than the bound");
            }
            if exact && a != bb {
                why.push("simulated values differ between sets");
            }
            let ok = why.is_empty();
            pass &= ok || smoke;
            println!(
                "{:<16} {:<20} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name,
                b.name,
                100.0 * worse,
                100.0 * paired,
                100.0 * sa,
                100.0 * sb,
                100.0 * b.bound,
                if ok {
                    "ok".to_string()
                } else {
                    format!("FAIL: {}", why.join(", "))
                }
            );
            let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::F64(*x)).collect());
            rows.push(obj([
                ("workload", Value::String(w.name.into())),
                ("metric", Value::String(b.name.clone())),
                ("median_a", Value::F64(ma)),
                ("median_b", Value::F64(mb)),
                ("b_worse_by", Value::F64(worse)),
                ("paired_b_worse_by", Value::F64(paired)),
                ("spread_a", Value::F64(sa)),
                ("spread_b", Value::F64(sb)),
                ("bound", Value::F64(b.bound)),
                ("values_a", floats(a)),
                ("values_b", floats(bb)),
                ("ok", Value::Bool(ok)),
            ]));
        }
    }
    if smoke {
        println!("[smoke] windows are 1/20 length: only child failures count, the numbers are NOT reportable");
    }
    println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    let summary = obj([
        ("host", host_info()),
        ("seconds", Value::F64(seconds)),
        ("seeds", Value::U64(SEEDS)),
        ("reportable", Value::Bool(!smoke)),
        (
            "model",
            Value::String("unvalidated: no hardware reference in the repo".into()),
        ),
        ("end_to_end", Value::Array(rows)),
        ("per_layer", Value::Object(layers)),
        ("operations", Value::Array(operations)),
        ("pass", Value::Bool(pass)),
        ("claim", Value::Null),
    ]);
    write_json(&out_path("selfcheck.json"), &summary)?;
    Ok(pass)
}

fn operation(name: &str, error: Option<&String>) -> Value {
    if let Some(e) = error {
        eprintln!("[selfcheck] FAILED {name}: {e}");
    }
    op_json(name, error.map(String::as_str))
}

//! The repo's benchmark runner.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark selfcheck [--smoke]
//! ```
//!
//! The first form is one run of one workload: as many repetitions of the
//! seed's inputs as fit in `S` host seconds, the host-time metrics read off
//! the fastest of them, then every metric by name with its unit on stderr, a
//! detailed record under `benchmark/out/`, and one JSON object as the last
//! line of stdout. `selfcheck` is the A/A mode: it runs the whole set twice on
//! this build at the contract's run length, one child process at a time, and
//! fails unless the two sets agree within the bounds of `BENCHMARK.json`.
//!
//! Run from the repository root. See `benchmark/README.md`.

mod metrics;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use serde_json::Value;
use spans::{RepTrace, Spans};
use stats::{mad, median, min_max};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{fastest_slices, guarded, Ctx, Op, Part, Rep, Workload};

/// Where the runner writes; nothing is written anywhere else.
pub const OUT_DIR: &str = "benchmark/out";

/// Fewest untraced repetitions in a run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fewest repetitions of a traced run: two untraced and two traced.
const MIN_TRACED_RUN_REPS: usize = 4;

struct RunOpts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
         benchmark selfcheck [--smoke]\n\
         workloads: {}",
        workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("selfcheck") {
        return match &args[1..] {
            [] => selfcheck::run(false),
            [flag] if flag == "--smoke" => selfcheck::run(true),
            _ => usage(),
        };
    }
    let Some(opts) = parse_run(&args) else {
        return usage();
    };
    match run(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_run(args: &[String]) -> Option<RunOpts> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2022u64, None, false);
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next()?;
                workload = Some(workloads::ALL.iter().find(|w| w.name == name)?);
            }
            "--seed" => seed = it.next()?.parse().ok()?,
            "--seconds" => {
                let s: f64 = it.next()?.parse().ok()?;
                if !(s.is_finite() && s >= 0.0) {
                    return None;
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => smoke = true,
            _ => return None,
        }
    }
    Some(RunOpts {
        workload: workload?,
        seed,
        seconds: seconds?,
        trace,
        smoke,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The machine and toolchain a result was taken on.
pub fn host_info() -> Value {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only a checkout that is itself a repository has a commit to name; git
    // would otherwise walk up into whatever encloses the working directory.
    let commit = if Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    obj([
        ("cpu", Value::String(cpu)),
        ("nproc", Value::U64(nproc as u64)),
        ("rustc", Value::String(run("rustc", &["--version"]))),
        ("commit", Value::String(commit)),
    ])
}

fn sample_summary(v: &[f64]) -> Value {
    let (lo, hi) = min_max(v);
    obj([
        ("median", Value::F64(median(v))),
        ("min", Value::F64(lo)),
        ("max", Value::F64(hi)),
        ("mad", Value::F64(mad(v))),
        ("n", Value::U64(v.len() as u64)),
        (
            "samples",
            Value::Array(v.iter().map(|x| Value::F64(*x)).collect()),
        ),
    ])
}

/// Median of one per-layer metric over the repetitions that read it; 0 when
/// none did (the metric does not apply to the workload).
fn layer_median(reps: &[(bool, Rep)], name: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .flat_map(|(_, r)| r.layer.iter())
        .filter(|(n, _)| *n == name)
        .map(|(_, x)| *x)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// One run. Returns the result line, or an error when no result can be
/// given (a metric is missing).
fn run(o: &RunOpts) -> Result<String, String> {
    let w = o.workload;
    if o.smoke {
        eprintln!("[smoke] windows are 1/20 length: these numbers are NOT reportable");
    }

    let mut spans = Spans::new();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let started = Instant::now();
    let min_reps = if o.trace {
        MIN_TRACED_RUN_REPS
    } else {
        MIN_REPS
    };
    // A repetition is started only if the longest one so far would still end
    // inside `--seconds`, so a run never measures for longer than asked
    // unless the minimum count forces it.
    let mut longest_rep_s = 0.0f64;
    // Peak memory is read after the first repetition: what one run of the
    // workload in a fresh process needs, however many repetitions follow.
    let mut rss_mib = None;
    let mut i = 0usize;
    while i < min_reps || started.elapsed().as_secs_f64() + longest_rep_s <= o.seconds {
        let rep_started = Instant::now();
        // A traced run alternates untraced and traced repetitions, so the
        // two are compared under the same machine state.
        let traced = o.trace && i % 2 == 1;
        let ctx = Ctx {
            seed: o.seed,
            smoke: o.smoke,
            rep: i as u32,
            trace: traced.then(|| RepTrace::begin(&mut spans, i as u32)),
        };
        match guarded(|| w.run_rep(ctx)) {
            Ok(mut rep) => {
                ops.append(&mut rep.ops);
                reps.push((traced, rep));
            }
            Err(e) => ops.push(Op {
                name: format!("rep{i}"),
                error: Some(e),
            }),
        }
        if rss_mib.is_none() {
            rss_mib = Some(peak_rss_mib()?);
        }
        longest_rep_s = longest_rep_s.max(rep_started.elapsed().as_secs_f64());
        i += 1;
        if ops.iter().filter(|op| op.error.is_some()).count() > 8 {
            break; // Broken build: do not burn the time budget on it.
        }
    }

    // Repetitions of one seed simulate the same thing, traced or not.
    let digests: BTreeSet<u64> = reps.iter().map(|(_, r)| r.digest).collect();
    if w.exact {
        ops.push(Op {
            name: "digest-agreement".into(),
            error: (digests.len() > 1).then(|| {
                format!(
                    "{} distinct stats digests over {} repetitions of one seed",
                    digests.len(),
                    reps.len()
                )
            }),
        });
    }
    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|op| op.error.is_some()).count() as u64;
    for op in ops.iter().filter(|op| op.error.is_some()) {
        eprintln!(
            "FAILED {}/{}: {}",
            w.name,
            op.name,
            op.error.as_deref().unwrap_or("")
        );
    }

    let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { plain.iter().map(|r| f(r)).collect() };

    // End-to-end metrics come from the untraced repetitions only; these are
    // their per-repetition readings, kept in the record.
    let samples: Vec<(&str, Vec<f64>)> = vec![
        ("setup_s", col(|r| r.setup_s)),
        ("wall_s", col(|r| r.wall_s)),
        (
            "sim_cycles_per_s",
            col(|r| r.sim_cycles as f64 / r.window_s),
        ),
        ("peak_rss_mib", rss_mib.into_iter().collect()),
        ("sim_latency_cycles", col(|r| r.sim_latency)),
        ("sim_throughput", col(|r| r.sim_throughput)),
    ];
    // The repetitions do the same work slice for slice, so what differs
    // between their host times is what else the host was doing, and that only
    // ever adds: a host-time metric is the sum of its slices, each read off
    // the repetition that ran it fastest. The other metrics are medians.
    let best = fastest_slices(plain.iter().map(|r| r.slices.as_slice()));
    let sum = |wanted: &[Part]| -> f64 {
        if best.is_empty() {
            return f64::NAN; // No repetition finished: the metric is missing.
        }
        let parts = best.iter().filter(|s| wanted.contains(&s.part));
        parts.map(|s| s.s).sum()
    };
    let end_to_end = |name: &str| -> f64 {
        let sample = |n: &str| &samples.iter().find(|(m, _)| *m == n).expect("sampled").1;
        match name {
            "setup_s" => sum(&[Part::Setup, Part::SetupProbe]),
            "wall_s" => sum(&[Part::Setup, Part::Window, Part::Rest]),
            "sim_cycles_per_s" => median(&col(|r| r.sim_cycles as f64)) / sum(&[Part::Window]),
            _ => median(sample(name)),
        }
    };
    let table = if o.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    for &(name, unit) in table {
        let value = if !o.trace {
            end_to_end(name)
        } else if name == "trace.overhead_ratio" {
            let t: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
            min_max(&t).0 / min_max(&col(|r| r.wall_s)).0
        } else if name == "core.digest_distinct" {
            digests.len() as f64
        } else {
            layer_median(&reps, name)
        };
        if !value.is_finite() {
            return Err(format!(
                "{}: metric {name} is missing ({failed} of {attempted} operations failed)",
                w.name
            ));
        }
        values.push((name, unit, value));
    }
    for (name, unit, value) in &values {
        eprintln!("{:>16}  {name:<38} {value:>16.6} {unit}", w.name);
    }

    // The detailed record, and the trace.
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let detail = obj([
        ("workload", Value::String(w.name.into())),
        ("seed", Value::U64(o.seed)),
        ("seconds", Value::F64(o.seconds)),
        ("trace", Value::Bool(o.trace)),
        ("reportable", Value::Bool(!o.smoke)),
        (
            "model",
            Value::String(
                "unvalidated: the repo holds no hardware reference, so no accuracy figure is given"
                    .into(),
            ),
        ),
        ("host", host_info()),
        ("repetitions", Value::U64(reps.len() as u64)),
        (
            "end_to_end_samples",
            Value::Object(
                samples
                    .iter()
                    .map(|(n, v)| (n.to_string(), sample_summary(v)))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Value::Object(
                values
                    .iter()
                    .map(|(n, _, v)| (n.to_string(), Value::F64(*v)))
                    .collect(),
            ),
        ),
        (
            "digests",
            Value::Array(
                digests
                    .iter()
                    .map(|d| Value::String(format!("{d:016x}")))
                    .collect(),
            ),
        ),
        (
            "operations",
            Value::Array(
                ops.iter()
                    .map(|op| op_json(&op.name, op.error.as_deref()))
                    .collect(),
            ),
        ),
        ("claim", Value::Null),
    ]);
    let stem = format!("{}-seed{}-trace{}", w.name, o.seed, u8::from(o.trace));
    write_json(&out_path(&format!("run-{stem}.json")), &detail)?;
    if o.trace {
        let counters: Vec<(String, f64)> =
            values.iter().map(|(n, _, v)| (n.to_string(), *v)).collect();
        let path = out_path(&format!("trace-{}.jsonl", w.name));
        spans
            .write_jsonl(&path, &counters)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let line = obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        (
            "metrics",
            Value::Object(
                values
                    .iter()
                    .map(|(n, u, v)| {
                        let m = obj([
                            ("value", Value::F64(*v)),
                            ("unit", Value::String(u.to_string())),
                        ]);
                        (n.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(serde_json::to_string(&line).expect("stub serializer is infallible"))
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One attempted operation as it is listed in a result file.
pub fn op_json(name: &str, error: Option<&str>) -> Value {
    obj([
        ("name", Value::String(name.into())),
        (
            "error",
            error.map_or(Value::Null, |e| Value::String(e.into())),
        ),
    ])
}

pub fn out_path(file: &str) -> PathBuf {
    Path::new(OUT_DIR).join(file)
}

pub fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).expect("stub serializer is infallible");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

//! The parallel sweep engine: fans any experiment grid out over N
//! self-scheduling worker threads, streams finished points to a JSONL journal,
//! and resumes interrupted sweeps by skipping already-recorded points.
//!
//! Every point carries a stable string key derived from its full parameter
//! tuple (scheme, system, pattern, faults, seed, windows, rate). Seeds are
//! per-point and independent of worker scheduling, so results are
//! bit-identical regardless of the jobs count — the determinism tests in
//! `tests/determinism.rs` enforce this against committed goldens.
//!
//! The engine is plain `std::thread`; no external dependencies. It is a
//! value: the worker count and the optional journal are fields of the
//! [`SweepEngine`] a caller builds and passes down, never process state, so
//! two engines in one process do not see each other.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use upp_noc::config::NocConfig;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{run_point, SchemeKind, SweepPoint, SweepWindows};
use upp_workloads::synthetic::Pattern;

// ------------------------------------------------------------ jobs control

/// The worker count to use when no `--jobs` flag was given: the `UPP_JOBS`
/// environment variable, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("UPP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------- journal

/// Short stable fingerprint of a sweep configuration (FNV-1a 64), hashed
/// into the journal header so `--resume` can detect that the CLI args no
/// longer match the journal's recorded points.
pub fn config_fingerprint(desc: &str) -> String {
    format!("{:016x}", upp_noc::fnv1a64(desc.as_bytes()))
}

/// A JSONL journal of completed sweep points: one `{"key":…,"data":…}`
/// object per line, appended (and flushed) as each point finishes. The
/// first line may be a `{"config":…}` header naming the sweep-config
/// fingerprint the points were recorded under.
pub struct Journal {
    seen: Mutex<HashMap<String, Value>>,
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl Journal {
    /// Opens (or creates) a journal at `path`, creating its parent
    /// directory when missing. With `resume`, existing lines are indexed so
    /// matching points can be skipped; without it the file is truncated.
    ///
    /// When `fingerprint` is given, it is written as a `{"config":…}`
    /// header on fresh journals and checked against the recorded header on
    /// resume: a journal recorded under a different sweep config would
    /// silently serve stale points, so the mismatch is a hard error.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the file cannot be opened or read, or when
    /// resuming a journal whose recorded config fingerprint does not match
    /// `fingerprint` (kind [`std::io::ErrorKind::InvalidData`]).
    pub fn open(path: &Path, resume: bool, fingerprint: Option<&str>) -> std::io::Result<Journal> {
        let mut seen = HashMap::new();
        let mut recorded_cfg: Option<String> = None;
        if resume && path.exists() {
            let reader = BufReader::new(std::fs::File::open(path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                // Tolerate truncated trailing lines from a killed run.
                let Ok(v) = serde_json::from_str(&line) else {
                    continue;
                };
                if let Some(cfg) = v.get("config").and_then(|c| c.as_str()) {
                    recorded_cfg = Some(cfg.to_string());
                    continue;
                }
                if let (Some(key), Some(data)) =
                    (v.get("key").and_then(|k| k.as_str()), v.get("data"))
                {
                    seen.insert(key.to_string(), data.clone());
                }
            }
        }
        if resume {
            if let Some(fp) = fingerprint {
                match &recorded_cfg {
                    Some(rec) if rec == fp => {}
                    Some(rec) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "journal {} was recorded under a different sweep config \
                                 (recorded {rec}, current {fp}); resuming would reuse stale \
                                 points — delete the journal or rerun without --resume",
                                path.display()
                            ),
                        ));
                    }
                    None if seen.is_empty() => {}
                    None => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "journal {} has recorded points but no config header, so its \
                                 sweep config cannot be checked against the current one — \
                                 delete the journal or rerun without --resume",
                                path.display()
                            ),
                        ));
                    }
                }
            }
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)?;
        let journal = Journal {
            seen: Mutex::new(seen),
            writer: Mutex::new(BufWriter::new(file)),
        };
        // Stamp fresh journals (and resumed-but-empty legacy ones) with the
        // config header so the next resume can be checked.
        if let Some(fp) = fingerprint {
            if recorded_cfg.is_none() {
                let fp_json =
                    serde_json::to_string(&fp.to_string()).expect("stub serializer is infallible");
                let mut w = journal.writer.lock().unwrap();
                let _ = writeln!(w, "{{\"config\":{fp_json}}}");
                let _ = w.flush();
            }
        }
        Ok(journal)
    }

    /// Number of points indexed from previous runs.
    pub fn resumed_points(&self) -> usize {
        self.seen.lock().unwrap().len()
    }

    fn lookup<R: Deserialize>(&self, key: &str) -> Option<R> {
        let seen = self.seen.lock().unwrap();
        seen.get(key).and_then(R::de_value)
    }

    fn record<R: Serialize>(&self, key: &str, result: &R) {
        let data = serde_json::to_string(result).expect("stub serializer is infallible");
        let key_json =
            serde_json::to_string(&key.to_string()).expect("stub serializer is infallible");
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{{\"key\":{key_json},\"data\":{data}}}");
        let _ = w.flush();
    }
}

// ----------------------------------------------------------------- engine

/// A self-scheduling fan-out over N worker threads.
pub struct SweepEngine {
    jobs: usize,
    journal: Option<Journal>,
}

impl SweepEngine {
    /// An engine with an explicit worker count and no journal.
    pub fn new(jobs: usize) -> SweepEngine {
        SweepEngine {
            jobs: jobs.max(1),
            journal: None,
        }
    }

    /// Attaches a journal to this engine instance.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> SweepEngine {
        self.journal = Some(journal);
        self
    }

    /// Opens the journal at `path` (see [`Journal::open`]), attaches it, and
    /// says on stderr what it will do — the binaries' `--journal` flag.
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::open`] returns.
    pub fn open_journal(
        self,
        path: &Path,
        resume: bool,
        fingerprint: Option<&str>,
    ) -> std::io::Result<SweepEngine> {
        let journal = Journal::open(path, resume, fingerprint)?;
        if resume {
            eprintln!(
                "[journal] resuming from {} ({} points recorded)",
                path.display(),
                journal.resumed_points()
            );
        } else {
            eprintln!("[journal] streaming points to {}", path.display());
        }
        Ok(self.with_journal(journal))
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on the worker pool, preserving input order in
    /// the output.
    ///
    /// The workers share one cursor and each takes the next unclaimed item
    /// until none is left, so stragglers (long simulation points) do not
    /// serialize the sweep; results land by item index, so the output does
    /// not depend on which worker ran what.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic.
    pub fn map<I, R, F>(&self, items: &[I], f: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(usize, &I) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        // Relaxed: the cursor only hands out indices; each result is
        // published by its slot's mutex and the scope's join.
        let cursor = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(i, item);
                    *results[i].lock().expect("one writer per slot") = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("no worker panicked")
                    .expect("every claimed item completed")
            })
            .collect()
    }

    /// Keyed fan-out with journal streaming and resume: points whose key is
    /// already recorded are restored from the journal instead of re-run;
    /// fresh results are appended to the journal as they complete. A
    /// recorded row is read back by `R`'s `Deserialize`, which ignores
    /// unknown keys; a row missing a field or holding an ill-typed one (a
    /// journal from before that field existed) is re-run.
    pub fn run_keyed<P, R, K, F>(&self, points: &[P], key: K, f: F) -> Vec<R>
    where
        P: Sync,
        R: Serialize + Deserialize + Send,
        K: Fn(&P) -> String,
        F: Fn(&P) -> R + Sync,
    {
        let keys: Vec<String> = points.iter().map(&key).collect();
        let mut out: Vec<Option<R>> = keys
            .iter()
            .map(|k| self.journal.as_ref().and_then(|j| j.lookup(k)))
            .collect();
        let missing: Vec<usize> = (0..points.len()).filter(|&i| out[i].is_none()).collect();
        let fresh = self.map(&missing, |_, &i| {
            let r = f(&points[i]);
            if let Some(j) = &self.journal {
                j.record(&keys[i], &r);
            }
            r
        });
        for (&i, r) in missing.iter().zip(fresh) {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every point computed or restored"))
            .collect()
    }
}

// ------------------------------------------------ experiment-facing sweeps

/// Stable journal key for one `(tag, cfg, kind, faults, pattern, windows,
/// seed, rate)` point.
#[allow(clippy::too_many_arguments)]
pub fn point_key(
    tag: &str,
    cfg: &NocConfig,
    kind: &SchemeKind,
    faults: usize,
    pattern: Pattern,
    windows: SweepWindows,
    seed: u64,
    rate: f64,
) -> String {
    format!(
        "{tag}|vcs{}|{:?}|f{faults}|{}|w{}+{}|s{seed}|r{rate}",
        cfg.vcs_per_vnet,
        kind,
        pattern.label(),
        windows.warmup,
        windows.measure
    )
}

impl SweepEngine {
    /// Runs a full latency-vs-injection sweep: one journaled [`run_point`]
    /// per rate. `tag` scopes the journal keys (experiment id plus any
    /// parameters not captured by the other arguments, e.g. `"fig10/b2"`).
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_rates(
        &self,
        tag: &str,
        spec: &ChipletSystemSpec,
        cfg: &NocConfig,
        kind: &SchemeKind,
        faults: usize,
        pattern: Pattern,
        rates: &[f64],
        windows: SweepWindows,
        seed: u64,
    ) -> Vec<SweepPoint> {
        self.run_keyed(
            rates,
            |&rate| point_key(tag, cfg, kind, faults, pattern, windows, seed, rate),
            |&rate| run_point(spec, cfg, kind, faults, pattern, rate, windows, seed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upp_workloads::runner::AlertCounts;

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 3, 8] {
            let out = SweepEngine::new(jobs).map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_results_are_jobs_independent() {
        let items: Vec<u64> = (0..16).collect();
        let work = |_: usize, &x: &u64| {
            // Deterministic per-item pseudo-work.
            let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                h = h.rotate_left(7) ^ 0xABCD;
            }
            h
        };
        let serial = SweepEngine::new(1).map(&items, work);
        let parallel = SweepEngine::new(4).map(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn workers_steal_from_stragglers() {
        // One item is much slower than the rest; with 2 workers the fast
        // worker must take the rest of the backlog. We can't assert
        // timing, but we can assert completion and order with a skewed
        // distribution.
        let items: Vec<u64> = (0..9).collect();
        let out = SweepEngine::new(2).map(&items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn journal_resume_skips_recorded_points() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct R {
            v: u64,
        }
        let dir = std::env::temp_dir().join(format!("upp-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let runs = AtomicUsize::new(0);
        let compute = |p: &u64| {
            runs.fetch_add(1, Ordering::SeqCst);
            R { v: p * 10 }
        };
        let keyf = |p: &u64| format!("k{p}");

        // First run: 3 points, all computed.
        let j = Journal::open(&path, true, None).unwrap();
        let eng = SweepEngine::new(2).with_journal(j);
        let out = eng.run_keyed(&[1u64, 2, 3], keyf, compute);
        assert_eq!(out, vec![R { v: 10 }, R { v: 20 }, R { v: 30 }]);
        assert_eq!(runs.load(Ordering::SeqCst), 3);

        // Second run: 5 points, only the 2 new ones computed, order kept.
        let j = Journal::open(&path, true, None).unwrap();
        assert_eq!(j.resumed_points(), 3);
        let eng = SweepEngine::new(2).with_journal(j);
        let out = eng.run_keyed(&[1u64, 4, 2, 5, 3], keyf, compute);
        assert_eq!(
            out,
            vec![
                R { v: 10 },
                R { v: 40 },
                R { v: 20 },
                R { v: 50 },
                R { v: 30 }
            ]
        );
        assert_eq!(runs.load(Ordering::SeqCst), 5, "1/2/3 restored, 4/5 run");

        // Opening without resume truncates.
        let j = Journal::open(&path, false, None).unwrap();
        assert_eq!(j.resumed_points(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_resume_rejects_config_mismatch() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct R {
            v: u64,
        }
        let dir = std::env::temp_dir().join(format!("upp-sweep-cfg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let fp_a = config_fingerprint("scheme=upp seed=1");
        let fp_b = config_fingerprint("scheme=none seed=1");
        assert_ne!(fp_a, fp_b);
        // Record one point under config A.
        {
            let j = Journal::open(&path, false, Some(&fp_a)).unwrap();
            let eng = SweepEngine::new(1).with_journal(j);
            let out = eng.run_keyed(&[7u64], |p| format!("k{p}"), |&p| R { v: p });
            assert_eq!(out, vec![R { v: 7 }]);
        }

        // Resuming under the same config restores the point.
        let j = Journal::open(&path, true, Some(&fp_a)).unwrap();
        assert_eq!(j.resumed_points(), 1);
        drop(j);

        // Resuming under config B must hard-error, not reuse stale points.
        let err = match Journal::open(&path, true, Some(&fp_b)) {
            Err(e) => e,
            Ok(_) => panic!("config mismatch must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different sweep config"), "{err}");

        // A legacy journal with points but no header is also rejected when
        // a fingerprint is demanded.
        std::fs::write(&path, "{\"key\":\"k7\",\"data\":{\"v\":7}}\n").unwrap();
        let err = match Journal::open(&path, true, Some(&fp_a)) {
            Err(e) => e,
            Ok(_) => panic!("headerless journal with points must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no config header"), "{err}");

        // ... but stays resumable with no fingerprint (repro's shared
        // multi-experiment journal).
        let j = Journal::open(&path, true, None).unwrap();
        assert_eq!(j.resumed_points(), 1);
        drop(j);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_point_round_trips_through_journal_encoding() {
        let p = SweepPoint {
            rate: 0.06,
            net_latency: 23.5,
            queue_latency: 1.25,
            total_latency: 24.75,
            throughput: 0.0597,
            packets_ejected: 1234,
            upward_packets: 7,
            control_hops: 99,
            p50: 21.0,
            p95: 48.5,
            p99: 62.25,
            p999: 80.0,
            deadlocked: false,
            alerts: AlertCounts {
                throughput_collapse: 2,
                injection_starvation: 1,
                popup_storm: 0,
                watchdog_cascade: 0,
                circuit_saturation: 0,
                permit_queue_runaway: 3,
            },
        };
        let v = serde_json::to_value(p).unwrap();
        let back = SweepPoint::de_value(&v).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&p).unwrap()
        );
    }

    /// Journals recorded while the watcher had a seventh detector,
    /// `shard_imbalance`, carry its key in every row; the key is ignored,
    /// so those rows still restore instead of re-running.
    #[test]
    fn a_row_with_the_retired_shard_imbalance_key_still_restores() {
        let row = r#"{"rate":0.02,"net_latency":18.5,"queue_latency":0.5,"total_latency":19.0,"throughput":0.0199,"packets_ejected":400,"upward_packets":0,"control_hops":0,"p50":17.0,"p95":30.0,"p99":41.0,"p999":52.0,"deadlocked":false,"alerts":{"throughput_collapse":0,"injection_starvation":0,"popup_storm":1,"watchdog_cascade":0,"circuit_saturation":0,"permit_queue_runaway":0,"shard_imbalance":0}}"#;
        let p =
            SweepPoint::de_value(&serde_json::from_str(row).unwrap()).expect("an old row restores");
        assert_eq!(p.packets_ejected, 400);
        assert_eq!(p.alerts.popup_storm, 1);
        assert_eq!(p.alerts.total(), 1);
    }
}

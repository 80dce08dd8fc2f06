//! The parallel sweep engine: fans any experiment grid out over N
//! self-scheduling worker threads, streams finished points to a JSONL journal,
//! and resumes interrupted sweeps by skipping already-recorded points.
//!
//! Every point is a value that describes everything its result depends on
//! (a [`PointSpec`] for a latency sweep), and its canonical JSON is its
//! journal key. Seeds are per-point and independent of worker scheduling, so
//! results are bit-identical regardless of the jobs count — the determinism
//! tests in `tests/determinism.rs` enforce this against committed goldens.
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
use upp_workloads::runner::{PointSpec, SweepPoint};

// ------------------------------------------------------------ jobs control

/// The worker count to use when no `--jobs` flag was given: the `UPP_JOBS`
/// environment variable, else the machine's available parallelism.
///
/// # Errors
///
/// Returns the message to print when `UPP_JOBS` is set but is not a
/// positive integer.
pub fn default_jobs() -> Result<usize, String> {
    let Some(v) = std::env::var_os("UPP_JOBS") else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    v.to_str()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("UPP_JOBS must be a positive integer, got {v:?}"))
}

// ---------------------------------------------------------------- journal

/// A JSONL journal of completed sweep points: one `{"point":…,"data":…}`
/// object per line, appended (and flushed) as each point finishes. `point`
/// is the point's own description and `data` its result; a point's key is
/// its compact JSON, which the vendored serializer renders identically
/// after a parse, so a resumed journal is indexed by re-rendering each
/// line's `point`.
pub struct Journal {
    seen: Mutex<HashMap<String, Value>>,
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl Journal {
    /// Opens (or creates) a journal at `path`, creating its parent
    /// directory when missing. With `resume`, existing lines are indexed so
    /// equal points are served instead of run; without it the file is
    /// truncated.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the file cannot be opened or read, or when
    /// resuming a journal in the retired format whose lines carry a `key`
    /// string or a `{"config":…}` header instead of the point itself (kind
    /// [`std::io::ErrorKind::InvalidData`]).
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Journal> {
        let mut seen = HashMap::new();
        if resume && path.exists() {
            let reader = BufReader::new(std::fs::File::open(path)?);
            for line in reader.lines() {
                // Tolerate blank and truncated trailing lines from a killed run.
                let Ok(v) = serde_json::from_str(&line?) else {
                    continue;
                };
                if v.get("key").is_some() || v.get("config").is_some() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal {} is in the old format (`key` lines or a `config` \
                             header), which does not record what each point measured — \
                             delete the journal or rerun without --resume",
                            path.display()
                        ),
                    ));
                }
                if let (Some(point), Some(data)) = (v.get("point"), v.get("data")) {
                    seen.insert(to_json(point), data.clone());
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
        Ok(Journal {
            seen: Mutex::new(seen),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Number of points indexed from previous runs.
    pub fn resumed_points(&self) -> usize {
        self.seen.lock().unwrap().len()
    }

    fn lookup<R: Deserialize>(&self, key: &str) -> Option<R> {
        let seen = self.seen.lock().unwrap();
        seen.get(key).and_then(R::de_value)
    }

    /// Appends the row and indexes it, so a later equal point in this
    /// process is served from the journal too.
    fn record<R: Serialize>(&self, key: String, result: &R) {
        let data = result.ser_value();
        {
            let mut w = self.writer.lock().unwrap();
            let _ = writeln!(w, "{{\"point\":{key},\"data\":{}}}", to_json(&data));
            let _ = w.flush();
        }
        self.seen.lock().unwrap().insert(key, data);
    }
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("stub serializer is infallible")
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
    pub fn open_journal(self, path: &Path, resume: bool) -> std::io::Result<SweepEngine> {
        let journal = Journal::open(path, resume)?;
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

    /// Journaled fan-out: each point whose JSON is already recorded is
    /// restored from the journal instead of run, and each fresh result is
    /// appended to the journal as it completes. A recorded row is read back
    /// by `R`'s `Deserialize`, which ignores unknown keys; a row missing a
    /// field or holding an ill-typed one (a journal from before that field
    /// existed) is re-run.
    pub fn run_keyed<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Serialize + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&P) -> R + Sync,
    {
        let Some(journal) = &self.journal else {
            return self.map(points, |_, p| f(p));
        };
        self.map(points, |_, p| {
            let key = to_json(p);
            journal.lookup(&key).unwrap_or_else(|| {
                let r = f(p);
                journal.record(key, &r);
                r
            })
        })
    }

    /// Runs a latency-vs-injection sweep: `point` at each of `rates` (its
    /// own `rate` is replaced), one journaled [`PointSpec::run`] each.
    pub fn sweep_rates(&self, point: &PointSpec, rates: &[f64]) -> Vec<SweepPoint> {
        let points: Vec<PointSpec> = rates
            .iter()
            .map(|&rate| PointSpec {
                rate,
                ..point.clone()
            })
            .collect();
        self.run_keyed(&points, PointSpec::run)
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

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("upp-sweep-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct R {
        v: u64,
    }

    #[test]
    fn journal_resume_skips_recorded_points() {
        let path = journal_path("resume");
        let runs = AtomicUsize::new(0);
        let compute = |p: &u64| {
            runs.fetch_add(1, Ordering::SeqCst);
            R { v: p * 10 }
        };

        // First run: 3 points, all computed; a repeated point within the
        // same journal is served from it.
        let j = Journal::open(&path, true).unwrap();
        let eng = SweepEngine::new(2).with_journal(j);
        let out = eng.run_keyed(&[1u64, 2, 3], compute);
        assert_eq!(out, vec![R { v: 10 }, R { v: 20 }, R { v: 30 }]);
        assert_eq!(eng.run_keyed(&[2u64], compute), vec![R { v: 20 }]);
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        drop(eng);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);

        // Second run: 5 points, only the 2 new ones computed, order kept.
        let j = Journal::open(&path, true).unwrap();
        assert_eq!(j.resumed_points(), 3);
        let eng = SweepEngine::new(2).with_journal(j);
        let out = eng.run_keyed(&[1u64, 4, 2, 5, 3], compute);
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
        let j = Journal::open(&path, false).unwrap();
        assert_eq!(j.resumed_points(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Journals whose rows were keyed by a hand-made string, with or without
    /// a `{"config":…}` header, cannot say what their points measured, so a
    /// resume refuses them instead of guessing.
    #[test]
    fn old_format_journals_are_refused() {
        let path = journal_path("old");
        for old in [
            "{\"key\":\"k7\",\"data\":{\"v\":7}}\n",
            "{\"config\":\"0123456789abcdef\"}\n",
        ] {
            std::fs::write(&path, old).unwrap();
            let err = match Journal::open(&path, true) {
                Err(e) => e,
                Ok(_) => panic!("an old journal must be refused: {old}"),
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("old format"), "{err}");
            assert!(err.to_string().contains("without --resume"), "{err}");
        }
        // Without --resume the old file is simply overwritten.
        assert_eq!(Journal::open(&path, false).unwrap().resumed_points(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A point's key is all of it: resuming a journaled point with only
    /// the buffer depth, the flow control, the system or the seed changed
    /// runs it again instead of serving the recorded row.
    #[test]
    fn a_point_differing_in_any_field_is_recomputed() {
        use upp_noc::config::{FlowControl, NocConfig};
        use upp_noc::topology::ChipletSystemSpec;
        use upp_workloads::runner::{SchemeKind, SweepWindows};
        use upp_workloads::synthetic::Pattern;

        let path = journal_path("spec");
        let base = PointSpec {
            system: ChipletSystemSpec::baseline(),
            noc: NocConfig::default(),
            scheme: SchemeKind::Upp(upp_core::UppConfig::default()),
            faults: 0,
            pattern: Pattern::UniformRandom,
            windows: SweepWindows::quick(),
            seed: 1,
            rate: 0.06,
        };
        let variants = [
            PointSpec {
                noc: NocConfig::default().with_vc_buffer_depth(5),
                ..base.clone()
            },
            PointSpec {
                noc: NocConfig {
                    flow_control: FlowControl::VirtualCutThrough,
                    ..NocConfig::default()
                },
                ..base.clone()
            },
            PointSpec {
                system: ChipletSystemSpec::large(),
                ..base.clone()
            },
            PointSpec {
                seed: 2,
                ..base.clone()
            },
        ];
        let runs = AtomicUsize::new(0);
        let compute = |_: &PointSpec| R {
            v: runs.fetch_add(1, Ordering::SeqCst) as u64,
        };
        let eng = SweepEngine::new(1).with_journal(Journal::open(&path, false).unwrap());
        eng.run_keyed(std::slice::from_ref(&base), compute);
        drop(eng);

        let eng = SweepEngine::new(1).with_journal(Journal::open(&path, true).unwrap());
        assert_eq!(
            eng.run_keyed(std::slice::from_ref(&base), compute),
            vec![R { v: 0 }],
            "the recorded point itself is served"
        );
        for (i, variant) in variants.iter().enumerate() {
            assert_eq!(
                eng.run_keyed(std::slice::from_ref(variant), compute),
                vec![R { v: i as u64 + 1 }],
                "variant {i} must be recomputed, not served the recorded row"
            );
        }
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

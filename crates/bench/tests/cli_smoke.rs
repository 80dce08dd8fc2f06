//! End-to-end smoke tests of the `simulate` binary's argument validation
//! and the watch surface: zero-interval and unknown flags must fail with a
//! message that names the flag (not the generic usage dump; `repro` is held
//! to the same rule for unknown flags), a VC count the model cannot carry
//! or a fault count the system cannot place must fail with a message that
//! names the limit, an offered rate outside what an NI can inject must fail
//! with one that names the range, an output file that cannot be written
//! must fail the run, `--watch` must work on clean and wedged runs, the
//! alert stream must be identical across repeated invocations, and the
//! trace, profile, stall and journal flags must write what they promise.

use std::path::PathBuf;
use std::process::Command;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upp-simulate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

const SIMULATE: &str = env!("CARGO_BIN_EXE_simulate");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn simulate_raw(args: &[&str]) -> std::process::Output {
    Command::new(SIMULATE)
        .args(args)
        .output()
        .expect("simulate binary runs")
}

/// Runs `simulate`, asserting success, and returns (stdout, stderr).
fn simulate_ok(args: &[&str]) -> (String, String) {
    let out = simulate_raw(args);
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Asserts `bin args` exits with code 2 and an error message that
/// contains every needle (so the user learns *which* flag was wrong and
/// what the valid range is — not just the usage dump).
fn assert_bin_rejected(bin: &str, args: &[&str], needles: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for n in needles {
        assert!(
            stderr.contains(n),
            "{bin} {args:?} stderr should mention {n:?}:\n{stderr}"
        );
    }
}

fn assert_rejected(args: &[&str], needles: &[&str]) {
    assert_bin_rejected(SIMULATE, args, needles);
}

#[test]
fn zero_interval_flags_are_rejected_with_clear_errors() {
    assert_rejected(&["--obs-every", "0"], &["--obs-every", "at least 1 cycle"]);
    assert_rejected(
        &["--watch-every", "0"],
        &["--watch-every", "at least 1 cycle"],
    );
    // Sweep mode computes alert counts for every point already; a --watch
    // there is a contradiction worth naming.
    assert_rejected(&["--watch", "--sweep", "0.02"], &["--watch", "single runs"]);
}

/// A VC count the model cannot carry is a configuration error that names
/// the limit — not a panic (exit 101) while building the network.
#[test]
fn unusable_vc_counts_are_errors_naming_the_limit() {
    assert_rejected(&["--vcs", "0"], &["vcs_per_vnet", "at least 1"]);
    assert_rejected(&["--vcs", "22"], &["66 VCs per port", "limit of 64"]);
}

/// Runs `simulate` and asserts it drained with every created packet
/// delivered.
fn assert_drains(args: &[&str]) {
    let (stdout, _) = simulate_ok(args);
    assert!(stdout.contains("outcome:            Drained"), "{stdout}");
    let delivered = stdout
        .lines()
        .find_map(|l| l.strip_prefix("packets delivered:"))
        .expect("a delivery line");
    let counts: Vec<&str> = delivered.split_whitespace().collect();
    assert_eq!(counts[0], counts[2], "every packet created is delivered");
}

/// The last VC count that fits: 3 VNets x 21 VCs are bits 0..=62 of a
/// port's occupancy word, one short of the 22 rejected above. Every scheme
/// runs and drains on it — UPP's input-VC field grows to 6 bits.
#[test]
fn sixty_three_vcs_per_port_run_and_drain() {
    for scheme in ["upp", "remote", "composable"] {
        assert_drains(&[
            "--scheme", scheme, "--vcs", "21", "--rate", "0.05", "--cycles", "3000",
        ]);
    }
}

/// UPP past Fig. 4's field widths: 24 VCs per port (a 5-bit input-VC
/// field), and 1,280 routers, where popups go to destinations no 8-bit
/// field can name. Both used to end in the signal codec.
#[test]
fn upp_runs_past_the_fig4_field_widths() {
    assert_drains(&[
        "--scheme", "upp", "--vcs", "8", "--rate", "0.2", "--cycles", "3000",
    ]);
    assert_drains(&[
        "--system", "grid:8x8", "--scheme", "upp", "--rate", "0.03", "--cycles", "3000",
    ]);
}

/// A fault count the system or the scheme cannot take is a configuration
/// error that names the limit — not the panic in `build_system` (exit 101),
/// which in sweep mode surfaced as "a scoped thread panicked".
#[test]
fn unplaceable_faults_are_errors_naming_the_limit() {
    let too_many = ["only 45 of 50 links can fail", "disconnecting a region"];
    assert_rejected(&["--faults", "50"], &too_many);
    assert_rejected(&["--sweep", "0.01,0.02", "--faults", "50"], &too_many);
    assert_rejected(
        &["--scheme", "composable", "--faults", "3"],
        &["composable routing does not support faulty systems"],
    );
}

/// An offered rate the generator cannot honour is an error naming the
/// range — not a run at some other load that exits 0: a NaN used to offer
/// a packet per core per cycle, a rate above 1 the same silently, a
/// negative one nothing at all.
#[test]
fn out_of_range_rates_are_errors_naming_the_range() {
    let range = "outside 0.0..=1.0 flits/cycle/node";
    assert_rejected(&["--rate", "nan"], &["rate NaN", range]);
    assert_rejected(&["--rate", "-1"], &["rate -1", range]);
    assert_rejected(&["--rate", "5"], &["rate 5", range]);
    assert_rejected(&["--sweep", "0.01,nan"], &["rate NaN", range]);
}

/// A flag neither binary knows (here the ones the removed sharded kernel,
/// epoch-metrics sampler and sweep-level alert sinks used to take) is an
/// error that names the flag: exit 2, no panic, no bare usage dump.
#[test]
fn unknown_flags_are_rejected_by_name() {
    for bin in [SIMULATE, REPRO] {
        assert_bin_rejected(bin, &["--shards", "2"], &["unknown flag --shards"]);
    }
    assert_rejected(
        &["--metrics-every", "100"],
        &["unknown flag --metrics-every"],
    );
    assert_bin_rejected(REPRO, &["--watch-out", "x"], &["unknown flag --watch-out"]);
}

/// An artifact that was not written is a failure: exit 1, the path named
/// once on stderr, and the outputs after it still attempted.
#[test]
fn unwritable_output_path_fails_the_run_and_names_the_path() {
    // A regular file where a directory is needed fails for every user,
    // root included.
    let blocker = tmp_path("not_a_dir");
    std::fs::write(&blocker, "x").expect("blocker file");
    let bad = blocker.join("out.json");
    let bad = bad.to_str().expect("utf-8");
    let svg = tmp_path("after_failure.svg");
    let out = simulate_raw(&[
        "--cycles",
        "300",
        "--json",
        bad,
        "--svg",
        svg.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(1), "exit status: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches(&format!("could not write {bad}")).count(),
        1,
        "failure reported once, by path:\n{stderr}"
    );
    assert!(
        svg.is_file(),
        "--svg comes after --json and is still written"
    );

    let out = simulate_raw(&["--cycles", "300", "--sweep", "0.02", "--json", bad]);
    assert_eq!(out.status.code(), Some(1), "sweep mode: {:?}", out.status);

    // `repro` likewise: the experiment runs, its results file cannot land.
    let out = Command::new(REPRO)
        .args([
            "table1",
            "--out",
            blocker.join("results").to_str().expect("utf-8"),
        ])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(1), "repro: {:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("writing JSON failed"),
        "repro reports the failed write"
    );
}

const CLEAN: &[&str] = &[
    "--scheme",
    "upp",
    "--pattern",
    "transpose",
    "--rate",
    "0.10",
    "--cycles",
    "3000",
    "--seed",
    "7",
];

#[test]
fn watch_clean_run_is_alert_free_and_json_carries_counts() {
    let json = tmp_path("clean.json");
    let mut args = CLEAN.to_vec();
    args.extend_from_slice(&["--watch", "--json", json.to_str().expect("utf-8")]);
    let (stdout, _) = simulate_ok(&args);
    assert!(
        stdout.contains("watch: healthy (6 detectors, 0 alerts)"),
        "clean run verdict:\n{stdout}"
    );
    let payload = std::fs::read_to_string(&json).expect("json written");
    assert!(
        payload.contains("\"watch\": {\"alerts_raised\": 0"),
        "watch counts embedded:\n{payload}"
    );
    // Without --watch the key must stay absent: the determinism goldens
    // pin the historical payload byte for byte.
    let json2 = tmp_path("clean_nowatch.json");
    let mut args = CLEAN.to_vec();
    args.extend_from_slice(&["--json", json2.to_str().expect("utf-8")]);
    simulate_ok(&args);
    let payload = std::fs::read_to_string(&json2).expect("json written");
    assert!(!payload.contains("\"watch\""), "no watch key:\n{payload}");
}

#[test]
fn watch_deadlock_run_fires_streams_and_captures() {
    let alerts = tmp_path("alerts.jsonl");
    let capture = tmp_path("forensics");
    let (stdout, stderr) = simulate_ok(&[
        "--scheme",
        "none",
        "--pattern",
        "hotspot",
        "--rate",
        "0.25",
        "--cycles",
        "6000",
        "--seed",
        "7",
        "--watch-every",
        "100",
        "--watch-out",
        alerts.to_str().expect("utf-8"),
        "--watch-capture-dir",
        capture.to_str().expect("utf-8"),
    ]);
    assert!(stdout.contains("watch: "), "verdict present:\n{stdout}");
    assert!(
        stderr.contains("\"event\":\"escalate\",\"severity\":\"critical\""),
        "critical alert streamed to stderr:\n{stderr}"
    );
    let stream = std::fs::read_to_string(&alerts).expect("alert stream written");
    let mut lines = stream.lines();
    assert!(
        lines
            .next()
            .expect("header")
            .contains("\"schema\":\"upp-alerts/v1\""),
        "header first:\n{stream}"
    );
    assert!(
        stream.contains("\"detector\":\"throughput_collapse\""),
        "collapse detected:\n{stream}"
    );
    // The forensics bundle exists without --stall-report/--trace armed.
    for file in [
        "meta.json",
        "stall_report.txt",
        "trace_tail.jsonl",
        "obs_summary.json",
    ] {
        let p = capture.join(file);
        assert!(p.is_file(), "forensics bundle file {file} missing");
        assert!(
            std::fs::metadata(&p).expect("meta").len() > 0,
            "forensics bundle file {file} empty"
        );
    }
    let meta = std::fs::read_to_string(capture.join("meta.json")).expect("meta");
    assert!(meta.contains("\"upp_watch_capture\":1"), "{meta}");
}

#[test]
fn watch_alert_stream_is_reproducible() {
    let run = |name: &str| {
        let path = tmp_path(name);
        simulate_ok(&[
            "--scheme",
            "none",
            "--pattern",
            "hotspot",
            "--rate",
            "0.25",
            "--cycles",
            "6000",
            "--seed",
            "7",
            "--watch-every",
            "100",
            "--watch-out",
            path.to_str().expect("utf-8"),
        ]);
        std::fs::read_to_string(&path).expect("alert stream written")
    };
    let a = run("repeat_a.jsonl");
    let b = run("repeat_b.jsonl");
    assert_eq!(a, b, "alert bytes differ across identical invocations");
    assert!(a.lines().count() > 1, "the run alerts at all:\n{a}");
}

/// The flight-recorder, profiler and forensics flags each write what they
/// promise: a bounded Chrome trace that says what it dropped, a JSONL trace
/// of well-formed lines, a printed phase breakdown, and a stall report plus
/// its annotated diagram for a wedged run. `--threshold 5` forces popups.
#[test]
fn trace_profile_and_stall_flags_write_what_they_promise() {
    let chrome = tmp_path("ring.json");
    let (stdout, stderr) = simulate_ok(&[
        "--rate",
        "0.1",
        "--cycles",
        "2000",
        "--threshold",
        "5",
        "--seed",
        "7",
        "--chrome-trace",
        chrome.to_str().expect("utf-8"),
        "--trace-ring-cap",
        "500",
        "--profile",
    ]);
    assert!(stdout.contains("UPP mean recovery"), "popups:\n{stdout}");
    assert!(stdout.contains("phase attribution"), "profile:\n{stdout}");
    assert!(
        stderr.contains("(500 events)") && stderr.contains("trace ring overflowed"),
        "the ring keeps 500 events and says so:\n{stderr}"
    );
    let doc = serde_json::from_str(&std::fs::read_to_string(&chrome).expect("trace written"))
        .expect("the Chrome trace parses");
    let events = doc.get("traceEvents").and_then(|e| e.as_array());
    assert_eq!(events.map(Vec::len), Some(500));

    let jsonl = tmp_path("trace.jsonl");
    simulate_ok(&["--cycles", "300", "--trace", jsonl.to_str().expect("utf-8")]);
    let text = std::fs::read_to_string(&jsonl).expect("trace written");
    assert!(text.lines().count() > 100, "events streamed:\n{text}");
    for line in text.lines() {
        assert!(
            serde_json::from_str(line).is_ok(),
            "malformed trace line: {line}"
        );
    }

    let svg = tmp_path("wedge.svg");
    let (stdout, _) = simulate_ok(&[
        "--scheme",
        "none",
        "--rate",
        "0.2",
        "--cycles",
        "5000",
        "--stall-report",
        "--stall-svg",
        svg.to_str().expect("utf-8"),
    ]);
    assert!(
        stdout.contains("verdict: DEADLOCK (circular wait found)"),
        "{stdout}"
    );
    let svg = std::fs::read_to_string(&svg).expect("stall diagram written");
    assert!(svg.starts_with("<svg") && svg.contains("circular wait in red"));
}

/// `--journal` streams sweep points to a file and `--resume` serves them
/// back, so the resumed sweep prints the same rows; resuming under another
/// configuration serves none of them, so its rows equal a journal-less run.
#[test]
fn a_resumed_sweep_journal_serves_its_points() {
    let journal = tmp_path("sweep_journal.jsonl");
    let journal = journal.to_str().expect("utf-8");
    let args = [
        "--sweep",
        "0.02,0.04",
        "--cycles",
        "500",
        "--journal",
        journal,
    ];
    let (first, _) = simulate_ok(&args);
    let mut resumed = args.to_vec();
    resumed.push("--resume");
    let (again, stderr) = simulate_ok(&resumed);
    assert_eq!(first, again);
    assert!(stderr.contains("(2 points recorded)"), "{stderr}");
    resumed.extend_from_slice(&["--seed", "2"]);
    let (reseeded, _) = simulate_ok(&resumed);
    let (fresh, _) = simulate_ok(&["--sweep", "0.02,0.04", "--cycles", "500", "--seed", "2"]);
    assert_eq!(
        reseeded, fresh,
        "no point recorded under --seed 1 is served"
    );
    assert_ne!(reseeded, first);
}

/// A journal written before points recorded themselves (`key` lines under
/// a `config` header) is refused on resume, naming the way out.
#[test]
fn an_old_format_journal_is_refused() {
    let journal = tmp_path("old_journal.jsonl");
    std::fs::write(
        &journal,
        "{\"config\":\"0123456789abcdef\"}\n{\"key\":\"cli|r0.02\",\"data\":{}}\n",
    )
    .expect("journal written");
    let journal = journal.to_str().expect("utf-8");
    let args = ["--sweep", "0.02", "--journal", journal, "--resume"];
    assert_rejected(&args, &["old format", "delete the journal"]);
    assert_bin_rejected(
        REPRO,
        &["--quick", "--journal", journal, "--resume", "fig13"],
        &["old format", "delete the journal"],
    );
}

/// `UPP_JOBS` stands in for a missing `--jobs`, so junk there is an error
/// naming the variable, not a silent fall-back to every hardware thread.
#[test]
fn a_bad_upp_jobs_is_an_error_naming_it() {
    for (bin, args) in [
        (SIMULATE, &["--sweep", "0.02", "--cycles", "100"][..]),
        (REPRO, &["--quick", "table1"][..]),
    ] {
        for junk in ["0", "abc"] {
            let out = Command::new(bin)
                .args(args)
                .env("UPP_JOBS", junk)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} UPP_JOBS={junk}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("UPP_JOBS"),
                "{bin} UPP_JOBS={junk}: {stderr}"
            );
        }
    }
}

#[test]
fn help_prints_the_usage_and_exits_2() {
    assert_rejected(&["--help"], &["usage: simulate", "--watch-out PATH"]);
}

//! A run is a value: two [`Context`]s in one process share nothing. The
//! cheapest sweep-backed quick experiment (`fig_scaling`, nine keyed points)
//! runs through two contexts on two threads at once — one worker with a
//! journal, three workers without — and must come out equal, with the
//! journal holding exactly the first context's nine points, once each.
//!
//! With the worker count and the journal held in process-wide statics (as
//! they were before PR 13) this cannot be expressed: both runs would see
//! the same jobs value and both would append to the same journal.

use upp_bench::experiments::fig_scaling;
use upp_bench::sweep::{Journal, SweepEngine};
use upp_bench::Context;

#[test]
fn concurrent_contexts_do_not_share_jobs_or_journal() {
    let dir = std::env::temp_dir().join(format!("upp-context-isolation-{}", std::process::id()));
    let path = dir.join("journal.jsonl");
    let journal = Journal::open(&path, false).expect("journal opens (and creates its dir)");
    let journaled = Context::new(true, SweepEngine::new(1).with_journal(journal));
    let plain = Context::new(true, SweepEngine::new(3));
    assert_eq!((journaled.engine.jobs(), plain.engine.jobs()), (1, 3));

    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| fig_scaling::collect(&journaled));
        let b = s.spawn(|| fig_scaling::collect(&plain));
        (
            a.join().expect("journaled run"),
            b.join().expect("plain run"),
        )
    });
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "results do not depend on the context's jobs count or journal"
    );

    let recorded = std::fs::read_to_string(&path).expect("journal written");
    let mut points: Vec<String> = recorded
        .lines()
        .map(|l| {
            let v = serde_json::from_str(l).expect("journal line is JSON");
            let point = v.get("point").expect("every line records its point");
            assert!(point.get("cols").is_some(), "a fig_scaling point: {l}");
            serde_json::to_string(point).expect("serializes")
        })
        .collect();
    assert_eq!(points.len(), a.len(), "one line per point of one run");
    points.sort();
    points.dedup();
    assert_eq!(points.len(), a.len(), "no point recorded twice");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Algebraic properties of the telemetry registry's snapshots, and the
//! round trips of the telemetry codecs.
//!
//! Aggregation across epochs folds snapshots with [`ObsSnapshot::merge`],
//! the merge `upp-trace obs` rebuilds a run summary with; for the fold to
//! be safe to reorder and regroup, snapshots must form a commutative
//! monoid, whatever metrics each one holds. These properties also pin the
//! exactness claim: cutting a run into arbitrary epochs and merging them
//! back reproduces the whole-run snapshot bit-for-bit. Each document reads
//! back to what wrote it: the epoch line and the summary
//! ([`ObsSnapshot::from_json`]) and an alert line ([`Alert::from_jsonl`]).

use proptest::prelude::*;
use upp_noc::obs::{ObsHistogram, ObsRegistry, ObsSnapshot};
use upp_noc::watch::{Alert, AlertKind, Detector, Severity};

/// Event stream applied to a registry: every op targets one of a fixed
/// small set of metrics so layouts always match.
#[derive(Debug, Clone)]
enum Op {
    Inc(u8, u64),
    GaugeSet(u8, u64),
    GaugeAdd(u8, u64),
    GaugeSub(u8, u64),
    Record(u8, u64),
}

const COUNTERS: usize = 3;
const GAUGES: usize = 2;
const HISTS: usize = 2;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..COUNTERS as u8, 0u64..1_000).prop_map(|(i, n)| Op::Inc(i, n)),
        (0..GAUGES as u8, 0u64..1_000).prop_map(|(i, v)| Op::GaugeSet(i, v)),
        (0..GAUGES as u8, 0u64..100).prop_map(|(i, n)| Op::GaugeAdd(i, n)),
        (0..GAUGES as u8, 0u64..100).prop_map(|(i, n)| Op::GaugeSub(i, n)),
        (0..HISTS as u8, 0u64..1 << 40).prop_map(|(i, v)| Op::Record(i, v)),
    ]
}

/// Every metric registered: one bit each in a registration mask,
/// counters, then gauges, then histograms.
const ALL_METRICS: u8 = (1 << (COUNTERS + GAUGES + HISTS)) - 1;

/// A registry with the metrics of `mask` registered.
fn registry_of(mask: u8) -> ObsRegistry {
    let mut r = ObsRegistry::default();
    r.enable();
    let on = |bit: usize| mask >> bit & 1 == 1;
    for i in (0..COUNTERS).filter(|&i| on(i)) {
        r.counter(&format!("c{i}"));
    }
    for i in (0..GAUGES).filter(|&i| on(COUNTERS + i)) {
        r.gauge(&format!("g{i}"));
    }
    for i in (0..HISTS).filter(|&i| on(COUNTERS + GAUGES + i)) {
        r.hist(&format!("h{i}"));
    }
    r
}

/// A registry with the fixed layout.
fn registry() -> ObsRegistry {
    registry_of(ALL_METRICS)
}

/// The metric an op targets, as its bit in a registration mask.
fn bit(op: &Op) -> usize {
    match *op {
        Op::Inc(i, _) => i as usize,
        Op::GaugeSet(i, _) | Op::GaugeAdd(i, _) | Op::GaugeSub(i, _) => COUNTERS + i as usize,
        Op::Record(i, _) => COUNTERS + GAUGES + i as usize,
    }
}

fn apply(r: &mut ObsRegistry, op: &Op) {
    match *op {
        Op::Inc(i, n) => {
            let id = r.counter(&format!("c{i}"));
            r.add(id, n);
        }
        Op::GaugeSet(i, v) => {
            let id = r.gauge(&format!("g{i}"));
            r.gauge_set(id, v);
        }
        Op::GaugeAdd(i, n) => {
            let id = r.gauge(&format!("g{i}"));
            r.gauge_add(id, n);
        }
        Op::GaugeSub(i, n) => {
            let id = r.gauge(&format!("g{i}"));
            r.gauge_sub(id, n);
        }
        Op::Record(i, v) => {
            let id = r.hist(&format!("h{i}"));
            r.record(id, v);
        }
    }
}

/// A snapshot cut after applying `ops`, with the epoch ending at `cycle`.
fn snapshot(ops: &[Op], cycle: u64) -> ObsSnapshot {
    let mut r = registry();
    for op in ops {
        apply(&mut r, op);
    }
    r.take_epoch(cycle)
}

/// A registry holding only the metrics of `mask`, after the ops on them.
fn masked_registry(mask: u8, ops: &[Op]) -> ObsRegistry {
    let mut r = registry_of(mask);
    for op in ops.iter().filter(|op| mask >> bit(op) & 1 == 1) {
        apply(&mut r, op);
    }
    r
}

fn masked_strategy() -> impl Strategy<Value = ObsSnapshot> {
    (
        0..ALL_METRICS + 1,
        proptest::collection::vec(op_strategy(), 0..20),
        0u64..500,
    )
        .prop_map(|(mask, ops, cycle)| masked_registry(mask, &ops).take_epoch(cycle))
}

fn alert_strategy() -> impl Strategy<Value = Alert> {
    (
        (
            0..Detector::ALL.len(),
            0..AlertKind::ALL.len(),
            0..Severity::ALL.len(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((d, k, s), (from_cycle, at_cycle, value, threshold))| Alert {
                detector: Detector::ALL[d],
                kind: AlertKind::ALL[k],
                severity: Severity::ALL[s],
                from_cycle,
                at_cycle,
                value,
                threshold,
            },
        )
}

fn merged(a: &ObsSnapshot, b: &ObsSnapshot) -> ObsSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    /// `merge` is associative: (a + b) + c == a + (b + c).
    #[test]
    fn merge_is_associative(
        a in (proptest::collection::vec(op_strategy(), 0..20), 0u64..500),
        b in (proptest::collection::vec(op_strategy(), 0..20), 0u64..500),
        c in (proptest::collection::vec(op_strategy(), 0..20), 0u64..500),
    ) {
        let (sa, sb, sc) = (snapshot(&a.0, a.1), snapshot(&b.0, b.1), snapshot(&c.0, c.1));
        let left = merged(&merged(&sa, &sb), &sc);
        let right = merged(&sa, &merged(&sb, &sc));
        prop_assert_eq!(left, right);
    }

    /// `merge` is commutative: a + b == b + a (the gauge value join is a
    /// lexicographic max over `(at, value)`, so even equal-cycle
    /// snapshots resolve the same way from both sides).
    #[test]
    fn merge_is_commutative(
        a in (proptest::collection::vec(op_strategy(), 0..20), 0u64..500),
        b in (proptest::collection::vec(op_strategy(), 0..20), 0u64..500),
    ) {
        let (sa, sb) = (snapshot(&a.0, a.1), snapshot(&b.0, b.1));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
    }

    /// Folding any permutation of a snapshot set yields the same total.
    #[test]
    fn fold_is_order_independent(
        snaps in proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 0..12), 0u64..500),
            1..6,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let snaps: Vec<ObsSnapshot> =
            snaps.iter().map(|(ops, cy)| snapshot(ops, *cy)).collect();
        // A deterministic permutation derived from `seed` (Fisher–Yates
        // with a multiplicative step).
        let mut perm: Vec<usize> = (0..snaps.len()).collect();
        let mut s = seed;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let fold = |order: &[usize]| {
            let mut acc = snaps[order[0]].clone();
            for &i in &order[1..] {
                acc.merge(&snaps[i]);
            }
            acc
        };
        let natural: Vec<usize> = (0..snaps.len()).collect();
        prop_assert_eq!(fold(&natural), fold(&perm));
    }

    /// Exactness across epoch cuts: slicing one event stream into epochs
    /// at an arbitrary point and merging the two snapshots reproduces the
    /// single whole-run snapshot — counters, histogram buckets, gauge
    /// high-waters and final gauge values all agree.
    #[test]
    fn epoch_cuts_lose_nothing(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        cut_pct in 0u64..101,
    ) {
        let cut = ops.len() * cut_pct as usize / 100;
        let mut split = registry();
        for op in &ops[..cut] {
            apply(&mut split, op);
        }
        let mut total = split.take_epoch(100);
        for op in &ops[cut..] {
            apply(&mut split, op);
        }
        total.merge(&split.take_epoch(200));

        let whole = snapshot(&ops, 200);
        prop_assert_eq!(total, whole);
    }
}

proptest! {
    /// The by-name merge is a commutative monoid over snapshots cut from
    /// registries with different registration sets: a metric one side
    /// lacks is taken from the other, and regrouping or swapping changes
    /// nothing.
    #[test]
    fn merge_by_name_is_a_monoid_across_registration_sets(
        a in masked_strategy(),
        b in masked_strategy(),
        c in masked_strategy(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(merged(&ObsSnapshot::default(), &a), a.clone());
        let ab = merged(&a, &b);
        for name in a.counters.keys().chain(b.counters.keys()) {
            prop_assert_eq!(
                ab.counters[name],
                a.counters.get(name).unwrap_or(&0) + b.counters.get(name).unwrap_or(&0)
            );
        }
        for name in a.gauges.keys().chain(b.gauges.keys()) {
            prop_assert!(ab.gauges.contains_key(name), "gauge {} lost", name);
        }
    }

    /// The epoch line and the summary read back to the snapshot that wrote
    /// them, and a `--json` payload embedding the summary reads as the
    /// summary.
    #[test]
    fn epoch_lines_and_summaries_round_trip(
        ops in proptest::collection::vec(op_strategy(), 0..30),
        mask in 0..ALL_METRICS + 1,
        cycle in 0u64..1_000_000,
    ) {
        let mut r = masked_registry(mask, &ops);
        let summary = r.summary(cycle);
        let text = summary.summary_json();
        prop_assert_eq!(ObsSnapshot::from_json(&text), Ok(summary.clone()));
        prop_assert_eq!(ObsSnapshot::read_summary(&text), Ok(summary.clone()));
        let payload = format!("{{\"outcome\": \"Drained\",\n  \"obs\": {text}}}");
        prop_assert_eq!(ObsSnapshot::read_summary(&payload), Ok(summary));
        let epoch = r.take_epoch(cycle);
        prop_assert_eq!(ObsSnapshot::from_json(&epoch.jsonl()), Ok(epoch.clone()));
        let stream = format!("{}\n{}\n", ObsSnapshot::epochs_header(), epoch.jsonl());
        prop_assert_eq!(ObsSnapshot::read_epochs(&stream), Ok(Some(vec![epoch])));
    }

    /// An alert line reads back to the alert that wrote it.
    #[test]
    fn alert_lines_round_trip(alert in alert_strategy()) {
        prop_assert_eq!(Alert::from_jsonl(&alert.jsonl()), Some(alert));
    }
}

/// A summary is not an epoch stream, an epoch stream's header is not a
/// summary, and a foreign schema is named.
#[test]
fn readers_tell_the_documents_apart() {
    let mut r = registry();
    let summary = r.summary(7).summary_json();
    assert_eq!(ObsSnapshot::read_epochs(&summary), Ok(None));
    let header = ObsSnapshot::epochs_header();
    assert!(ObsSnapshot::read_summary(&header).is_err());
    assert_eq!(ObsSnapshot::read_epochs(&header), Ok(Some(Vec::new())));
    let stale = summary.replace("upp-obs/v1", "upp-obs/v0");
    let err = ObsSnapshot::from_json(&stale).unwrap_err();
    assert!(err.contains("\"upp-obs/v0\""), "{err}");
    let bad = format!("{header}\n{}\n{{\"cycle\":1}}\n", r.take_epoch(5).jsonl());
    let err = ObsSnapshot::read_epochs(&bad).unwrap_err();
    assert!(err.starts_with("line 3:"), "{err}");
}

/// The merge identity: an empty epoch over the same layout.
#[test]
fn empty_snapshot_is_identity() {
    let ops = vec![Op::Inc(0, 7), Op::GaugeSet(1, 9), Op::Record(0, 33)];
    let s = snapshot(&ops, 50);
    let zero = snapshot(&[], 0);
    let mut left = zero.clone();
    left.merge(&s);
    assert_eq!(left, s);
    let mut right = s.clone();
    right.merge(&zero);
    assert_eq!(right, s);
}

/// Histogram merge matches recording the union of the sample streams.
#[test]
fn histogram_merge_equals_union() {
    let mut a = ObsHistogram::new();
    let mut b = ObsHistogram::new();
    let mut u = ObsHistogram::new();
    for v in [0, 1, 31, 32, 33, 1000, 1 << 20] {
        a.record(v);
        u.record(v);
    }
    for v in [5, 64, 1 << 30] {
        b.record(v);
        u.record(v);
    }
    a.merge(&b);
    assert_eq!(a.count(), u.count());
    assert_eq!(a.sum(), u.sum());
    assert_eq!(a.to_json(), u.to_json());
}

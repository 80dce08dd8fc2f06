//! Algebraic properties of the telemetry registry's epoch snapshots.
//!
//! Aggregation across epochs folds snapshots with [`ObsSnapshot::merge`];
//! for the fold to be safe to reorder and regroup, snapshots over one
//! registry layout must form a commutative monoid. These properties also
//! pin the exactness claim: cutting a run into arbitrary epochs and merging
//! them back reproduces the whole-run snapshot bit-for-bit.

use proptest::prelude::*;
use upp_noc::obs::{ObsHistogram, ObsRegistry, ObsSnapshot};

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

/// A registry with the fixed layout and every op applied in order.
fn registry() -> ObsRegistry {
    let mut r = ObsRegistry::default();
    r.enable();
    for i in 0..COUNTERS {
        r.counter(&format!("c{i}"));
    }
    for i in 0..GAUGES {
        r.gauge(&format!("g{i}"));
    }
    for i in 0..HISTS {
        r.hist(&format!("h{i}"));
    }
    r
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
    /// lexicographic max over `(end_cycle, value)`, so even equal-cycle
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

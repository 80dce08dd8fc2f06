//! Property tests for the log-bucketed histogram: merge is associative and
//! commutative, recorded counts are conserved through arbitrary merge
//! trees, and the bucket representative stays within the documented 1/64
//! relative-error bound for any value. `upp_tracetools::Histogram` is the
//! simulator's `upp_noc::obs::ObsHistogram`, so these cover the obs epochs'
//! histograms too — including the `delta_since` cut they are built from.

use proptest::prelude::*;
use upp_tracetools::Histogram;

fn build(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (ha, hb) = (build(&a), build(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
        c in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        // (a + b) + c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a + (b + c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_conserves_count_sum_and_extremes(
        a in prop::collection::vec(0u64..1_000_000, 1..200),
        b in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut merged = build(&a);
        merged.merge(&build(&b));
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = build(&all);
        prop_assert_eq!(&merged, &direct, "merge equals recording the union");
        prop_assert_eq!(merged.count(), all.len() as u64);
        prop_assert_eq!(merged.sum(), all.iter().sum::<u64>());
        prop_assert_eq!(merged.min(), *all.iter().min().expect("non-empty"));
        prop_assert_eq!(merged.max(), *all.iter().max().expect("non-empty"));
    }

    #[test]
    fn representative_error_is_within_documented_bound(v in 0u64..u64::MAX / 8) {
        // Sandwich `v` between a smaller and a larger sample so the
        // median is v's bucket representative *unclamped* — the [min, max]
        // clamp must not be what saves the bound.
        let lo = 0u64;
        let hi = v.saturating_mul(4).max(1_000);
        let mut h = Histogram::new();
        h.record(lo);
        h.record(v);
        h.record(hi);
        let rep = h.quantile(0.5);
        let err = rep.abs_diff(v);
        prop_assert!(
            err.saturating_mul(64) <= v,
            "rep {rep} for {v}: error {err} exceeds v/64"
        );
        if v < 32 {
            prop_assert_eq!(rep, v, "small values are exact");
        }
    }

    #[test]
    fn quantiles_are_monotonic_and_bounded(
        vals in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let h = build(&vals);
        let qs = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        let mut prev = 0;
        for (i, &q) in qs.iter().enumerate() {
            let x = h.quantile(q);
            prop_assert!(x >= h.min() && x <= h.max());
            if i > 0 {
                prop_assert!(x >= prev, "quantiles non-decreasing");
            }
            prev = x;
        }
    }

    #[test]
    fn delta_since_is_the_samples_recorded_after_the_baseline(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let before = build(&a);
        let mut after = before.clone();
        for &v in &b {
            after.record(v);
        }
        let delta = after.delta_since(&before);
        let direct = build(&b);
        prop_assert_eq!(delta.count(), direct.count());
        prop_assert_eq!(delta.sum(), direct.sum());
        let buckets = |h: &Histogram| {
            let json = h.to_json();
            json[json.find("\"buckets\"").expect("buckets key")..].to_string()
        };
        prop_assert_eq!(buckets(&delta), buckets(&direct), "bucket-wise equal");
        // The delta's extremes are bucket-bounded, never tighter than truth.
        prop_assert!(delta.min() <= direct.min() && direct.max() <= delta.max());
    }
}

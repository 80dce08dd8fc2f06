//! Summary statistics over repetitions, and the stats digest that says
//! whether two repetitions simulated the same thing.

use upp_core::UppStats;
use upp_noc::stats::NetStats;

/// Median; `NaN` when `v` is empty (a missing metric, which the runner
/// refuses to print).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// `(min, max)`; `(NaN, NaN)` when empty.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::NAN, f64::NAN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// The quartile cut points Python's `statistics.quantiles(v, n=4)` gives
/// (its default "exclusive" method); needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the acceptance rule is written in.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything one simulated window counted: every `NetStats`
/// field (through its serialised form, so a new counter is covered without
/// touching this file), UPP's recovery counters and the cycle the drain
/// ended. Two repetitions of one seed must agree on it unless the
/// simulator is nondeterministic.
pub fn stats_digest(stats: &NetStats, upp: Option<&UppStats>, end_cycle: u64) -> u64 {
    let mut h = fnv1a(
        FNV_BASIS,
        serde_json::to_string(stats)
            .expect("stub serializer is infallible")
            .as_bytes(),
    );
    if let Some(u) = upp {
        h = fnv1a(
            h,
            serde_json::to_string(u)
                .expect("stub serializer is infallible")
                .as_bytes(),
        );
    }
    fnv1a(h, &end_cycle.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_min_max_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        // |x - 3| over 1..=5 is 2 1 0 1 2, whose median is 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(min_max(&[2.0, -1.0, 9.0]), (-1.0, 9.0));
        assert!(min_max(&[]).0.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartile_spread(&v), 1.0);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn digest_is_stable_and_sees_one_changed_counter() {
        let mut a = NetStats::new(3);
        a.packets_ejected = 10;
        a.flit_hops = 99;
        let b = a.clone();
        assert_eq!(stats_digest(&a, None, 5), stats_digest(&b, None, 5));
        let mut c = a.clone();
        c.flit_hops += 1;
        assert_ne!(stats_digest(&a, None, 5), stats_digest(&c, None, 5));
        assert_ne!(stats_digest(&a, None, 5), stats_digest(&a, None, 6));
        let u = UppStats::default();
        let mut u2 = u;
        u2.popups_completed = 1;
        assert_ne!(
            stats_digest(&a, Some(&u), 5),
            stats_digest(&a, Some(&u2), 5)
        );
        assert_ne!(stats_digest(&a, Some(&u), 5), stats_digest(&a, None, 5));
    }
}

//! `BENCH_pairs.json` at the repository root records every paired
//! measurement: one row per (PR, workload, seed, metric) of alternating
//! parent/change runs. A row with its pairs recorded states the median,
//! quartiles, lead count and ratio those pairs give, and a claimed row
//! passes the claim rule. A row without pairs cannot claim anything.

use serde_json::Value;

/// The `f` quantile of sorted `xs`, interpolated linearly.
fn quantile(xs: &[f64], f: f64) -> f64 {
    let pos = (xs.len() - 1) as f64 * f;
    let (lo, hi) = (
        pos.floor() as usize,
        (pos.ceil() as usize).min(xs.len() - 1),
    );
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn numbers(v: &Value) -> Vec<f64> {
    let items = v.as_array().expect("an array").iter();
    items.map(|x| x.as_f64().expect("a number")).collect()
}

#[test]
fn every_row_states_what_its_pairs_give() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pairs.json");
    let text = std::fs::read_to_string(path).expect("BENCH_pairs.json is committed");
    let doc = serde_json::from_str(&text).expect("BENCH_pairs.json parses");
    let rows = doc.get("rows").and_then(Value::as_array).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        let field = |k: &str| row.get(k).unwrap_or_else(|| panic!("no {k} in {row:?}"));
        let text = |k: &str| field(k).as_str().expect("text");
        for k in ["cpu", "nproc", "rustc"] {
            assert!(field("host").get(k).is_some(), "no host {k} in {row:?}");
        }
        for k in ["metric", "parent", "change", "source"] {
            text(k);
        }
        let (label, result) = (text("workload"), text("result"));
        assert!(["claimed", "reported", "unresolved"].contains(&result));
        let pairs = field("pairs").as_array().expect("pairs").iter();
        let pairs: Vec<Vec<f64>> = pairs.map(numbers).collect();
        if pairs.is_empty() {
            assert_eq!(result, "unresolved", "{label}: a claim needs its pairs");
            continue;
        }
        assert_eq!(field("pair_count").as_u64(), Some(pairs.len() as u64));
        let side = |i: usize| {
            let mut xs: Vec<f64> = pairs.iter().map(|p| p[i]).collect();
            xs.sort_by(f64::total_cmp);
            xs
        };
        let (parent, change) = (side(0), side(1));
        let near = |stated: f64, derived: f64| (stated - derived).abs() <= 5e-4 + 1e-9;
        let median = numbers(field("median"));
        let [p50, c50] = [&parent, &change].map(|xs| quantile(xs, 0.5));
        assert!(
            near(median[0], p50) && near(median[1], c50),
            "{label}: {median:?}"
        );
        let quartiles = field("quartiles").as_array().unwrap();
        for (q, xs) in quartiles.iter().map(numbers).zip([&parent, &change]) {
            let derived = [quantile(xs, 0.25), quantile(xs, 0.75)];
            assert!(
                near(q[0], derived[0]) && near(q[1], derived[1]),
                "{label}: {q:?}"
            );
        }
        let higher = text("better") == "higher";
        let ahead = |p: &&Vec<f64>| (p[1] > p[0]) == higher && p[1] != p[0];
        let led = pairs.iter().filter(ahead).count();
        assert_eq!(field("change_led").as_u64(), Some(led as u64), "{label}");
        assert!(near(field("ratio").as_f64().unwrap(), c50 / p50), "{label}");
        if result == "claimed" {
            let parent_iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
            let gain = if higher { c50 - p50 } else { p50 - c50 };
            assert!(10 * led >= 9 * pairs.len() && gain > parent_iqr, "{label}");
        }
    }
}

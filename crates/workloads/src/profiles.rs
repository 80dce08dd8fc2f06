//! Synthetic benchmark profiles standing in for the PARSEC and SPLASH-2
//! full-system runs of Figs. 8/12/15.
//!
//! The gem5 instruction streams are unavailable, so each benchmark is
//! replaced by a stochastic profile whose *network-visible* behaviour —
//! request intensity, outstanding-miss window, sharing (3-hop forwards),
//! writeback rate and burstiness — is tuned to match the paper's relative
//! ordering of traffic load (Fig. 12 reports total packet counts per
//! benchmark; canneal/fft/radix are the heavy, bursty ones where upward
//! packets appear). Transaction counts are scaled down ~1000x from the
//! paper's 1e7–3e8 packets so a run completes in under a second.

use serde::Serialize;

/// Which benchmark suite a profile imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Suite {
    /// PARSEC (Fig. 8 top group).
    Parsec,
    /// SPLASH-2 (Fig. 8 bottom group).
    Splash2,
}

/// A network-level benchmark profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BenchmarkProfile {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// Suite it belongs to.
    pub suite: Suite,
    /// Probability per cycle that a core with window room issues a request.
    pub intensity: f64,
    /// Maximum outstanding requests per core (MSHR-style window).
    pub window: usize,
    /// Transactions each core completes before the run ends.
    pub transactions: u64,
    /// Fraction of requests serviced by a 3-hop forward to a sharer core.
    pub fwd_prob: f64,
    /// Probability a completed transaction also emits a dirty writeback.
    pub wb_prob: f64,
    /// Probability the forwarded sharer lives in the requester's chiplet.
    pub local_sharer: f64,
    /// Period of the bursty issue phases in cycles (0 = steady).
    pub burst_period: u64,
    /// Fraction of a burst period spent in the hot phase.
    pub burst_duty: f64,
}

impl BenchmarkProfile {
    /// Issue intensity at `cycle`, applying the burst envelope: hot phases
    /// issue at full intensity, cold phases at a tenth.
    pub fn intensity_at(&self, cycle: u64) -> f64 {
        if self.burst_period == 0 {
            return self.intensity;
        }
        let phase = (cycle % self.burst_period) as f64 / self.burst_period as f64;
        if phase < self.burst_duty {
            (self.intensity / self.burst_duty).min(1.0)
        } else {
            self.intensity * 0.1
        }
    }
}

/// The 18 benchmark profiles of Fig. 8 (PARSEC + SPLASH-2).
pub fn all_benchmarks() -> Vec<BenchmarkProfile> {
    use Suite::{Parsec, Splash2};
    let p = |name, suite, intensity, window, transactions, fwd, wb, local, period, duty| {
        BenchmarkProfile {
            name,
            suite,
            intensity,
            window,
            transactions,
            fwd_prob: fwd,
            wb_prob: wb,
            local_sharer: local,
            burst_period: period,
            burst_duty: duty,
        }
    };
    vec![
        // PARSEC
        p(
            "blackscholes",
            Parsec,
            0.004,
            4,
            150,
            0.10,
            0.10,
            0.70,
            0,
            0.0,
        ),
        p(
            "bodytrack",
            Parsec,
            0.020,
            8,
            350,
            0.25,
            0.20,
            0.50,
            2_000,
            0.40,
        ),
        p(
            "canneal", Parsec, 0.045, 12, 450, 0.45, 0.30, 0.20, 1_200, 0.30,
        ),
        p("dedup", Parsec, 0.025, 8, 500, 0.30, 0.35, 0.40, 0, 0.0),
        p("facesim", Parsec, 0.012, 6, 250, 0.20, 0.25, 0.60, 0, 0.0),
        p(
            "fluidanimate",
            Parsec,
            0.018,
            8,
            300,
            0.30,
            0.25,
            0.55,
            1_600,
            0.35,
        ),
        p("swaptions", Parsec, 0.030, 8, 550, 0.15, 0.15, 0.60, 0, 0.0),
        p("vips", Parsec, 0.015, 6, 300, 0.20, 0.20, 0.55, 0, 0.0),
        // SPLASH-2
        p("barnes", Splash2, 0.015, 8, 280, 0.35, 0.20, 0.45, 0, 0.0),
        p("cholesky", Splash2, 0.015, 6, 280, 0.30, 0.25, 0.50, 0, 0.0),
        p("fft", Splash2, 0.050, 16, 450, 0.40, 0.30, 0.15, 900, 0.25),
        p("lu_cb", Splash2, 0.018, 8, 320, 0.25, 0.25, 0.55, 0, 0.0),
        p(
            "lu_ncb", Splash2, 0.022, 8, 320, 0.30, 0.25, 0.45, 1_500, 0.40,
        ),
        p(
            "radiosity",
            Splash2,
            0.014,
            6,
            280,
            0.30,
            0.20,
            0.50,
            0,
            0.0,
        ),
        p(
            "radix", Splash2, 0.055, 16, 450, 0.40, 0.30, 0.15, 800, 0.25,
        ),
        p("raytrace", Splash2, 0.012, 6, 250, 0.25, 0.15, 0.55, 0, 0.0),
        p(
            "water_nsquared",
            Splash2,
            0.010,
            6,
            250,
            0.25,
            0.20,
            0.55,
            0,
            0.0,
        ),
        p(
            "water_spatial",
            Splash2,
            0.012,
            6,
            260,
            0.25,
            0.20,
            0.60,
            0,
            0.0,
        ),
    ]
}

/// Looks a profile up by name.
pub fn benchmark(name: &str) -> Option<BenchmarkProfile> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 18);
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn heavy_benchmarks_are_heavier_than_light_ones() {
        // The paper's Fig. 12: canneal/fft/radix generate the most traffic
        // (and the only significant upward-packet counts); blackscholes the
        // least.
        let load = |n: &str| {
            let b = benchmark(n).unwrap();
            b.intensity * b.window as f64
        };
        for heavy in ["canneal", "fft", "radix"] {
            for light in ["blackscholes", "water_nsquared", "raytrace"] {
                assert!(load(heavy) > 2.0 * load(light), "{heavy} vs {light}");
            }
        }
    }

    #[test]
    fn burst_envelope_raises_hot_phase() {
        let b = benchmark("fft").unwrap();
        let hot = b.intensity_at(0);
        let cold = b.intensity_at((b.burst_period as f64 * 0.9) as u64);
        assert!(hot > b.intensity, "hot phase concentrates issue");
        assert!(cold < b.intensity * 0.2);
        let steady = benchmark("dedup").unwrap();
        assert_eq!(steady.intensity_at(123), steady.intensity);
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("radix").is_some());
        assert!(benchmark("doom").is_none());
    }

    #[test]
    fn probabilities_are_valid() {
        for b in all_benchmarks() {
            assert!((0.0..=1.0).contains(&b.fwd_prob), "{}", b.name);
            assert!((0.0..=1.0).contains(&b.wb_prob), "{}", b.name);
            assert!((0.0..=1.0).contains(&b.local_sharer), "{}", b.name);
            assert!(b.intensity > 0.0 && b.intensity < 0.5, "{}", b.name);
            assert!(b.window >= 1 && b.transactions > 0, "{}", b.name);
        }
    }
}

//! Discrete positive sojourn-time distributions.
//!
//! The paper notes (Section 1, Section 8) that real desktop-grid availability
//! intervals are *not* exponential/geometric: empirical studies fit Weibull
//! and log-normal interval durations. To support the paper's "future work"
//! robustness experiments, this module provides samplers for sojourn times
//! measured in whole slots (support `{1, 2, 3, …}`): the memoryless geometric
//! (equivalent to the Markov model), discretized Weibull, discretized
//! log-normal, deterministic, and uniform.
//!
//! All samplers use inverse-transform or Box–Muller on top of the workspace
//! RNG so no external distribution crate is required.

use serde::{Deserialize, Serialize};
use vg_des::rng::StreamRng;

/// Samples a standard normal via Box–Muller (the cached second value is
/// intentionally discarded to keep the sampler stateless).
#[must_use]
fn standard_normal(rng: &mut StreamRng) -> f64 {
    // Avoid ln(0): u1 in (0, 1].
    let u1 = 1.0 - rng.f64();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A discrete sojourn-time distribution over `{1, 2, 3, …}` slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SojournDist {
    /// Geometric with success probability `p ∈ (0, 1]`:
    /// `Pr(T = t) = p (1−p)^{t−1}`; mean `1/p`. A semi-Markov process with
    /// geometric sojourns *is* the Markov model.
    Geometric {
        /// Per-slot exit probability.
        p: f64,
    },
    /// Continuous Weibull(scale λ, shape k) rounded up to a whole slot.
    /// `shape < 1` gives heavy tails (long availability stretches mixed with
    /// short ones), the regime reported for desktop grids.
    Weibull {
        /// Scale λ > 0 (slots).
        scale: f64,
        /// Shape k > 0.
        shape: f64,
    },
    /// Continuous log-normal (parameters of the underlying normal) rounded up.
    LogNormal {
        /// Mean of `ln T`.
        mu: f64,
        /// Std-dev of `ln T` (> 0).
        sigma: f64,
    },
    /// Always exactly `t` slots (useful for crafted tests).
    Deterministic {
        /// The constant sojourn.
        t: u64,
    },
    /// Uniform over the inclusive integer range `[lo, hi]`.
    Uniform {
        /// Smallest sojourn.
        lo: u64,
        /// Largest sojourn.
        hi: u64,
    },
}

impl SojournDist {
    /// Validates parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Self::Geometric { p } => {
                if p > 0.0 && p <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("geometric p out of (0,1]: {p}"))
                }
            }
            Self::Weibull { scale, shape } => {
                if scale > 0.0 && shape > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "weibull parameters must be positive: λ={scale}, k={shape}"
                    ))
                }
            }
            Self::LogNormal { sigma, .. } => {
                if sigma > 0.0 {
                    Ok(())
                } else {
                    Err(format!("lognormal sigma must be positive: {sigma}"))
                }
            }
            Self::Deterministic { t } => {
                if t >= 1 {
                    Ok(())
                } else {
                    Err("deterministic sojourn must be ≥ 1 slot".into())
                }
            }
            Self::Uniform { lo, hi } => {
                if lo >= 1 && lo <= hi {
                    Ok(())
                } else {
                    Err(format!("uniform range invalid: [{lo}, {hi}]"))
                }
            }
        }
    }

    /// Draws a sojourn length in slots (always ≥ 1).
    #[must_use]
    pub fn sample(&self, rng: &mut StreamRng) -> u64 {
        match *self {
            Self::Geometric { p } => {
                if p >= 1.0 {
                    return 1;
                }
                // Inverse transform: T = ceil(ln U / ln(1−p)).
                let u = 1.0 - rng.f64(); // (0, 1]
                let t = (u.ln() / (1.0 - p).ln()).ceil();
                if t < 1.0 {
                    1
                } else {
                    t as u64
                }
            }
            Self::Weibull { scale, shape } => {
                let u = 1.0 - rng.f64(); // (0, 1]
                let x = scale * (-u.ln()).powf(1.0 / shape);
                x.ceil().max(1.0) as u64
            }
            Self::LogNormal { mu, sigma } => {
                let x = (mu + sigma * standard_normal(rng)).exp();
                x.ceil().max(1.0) as u64
            }
            Self::Deterministic { t } => t.max(1),
            Self::Uniform { lo, hi } => rng.u64_range_inclusive(lo.max(1), hi.max(1)),
        }
    }

    /// Approximate mean sojourn in slots.
    ///
    /// Exact for geometric/deterministic/uniform; for the discretized
    /// continuous distributions this is the continuous mean + 0.5 (ceiling
    /// correction), accurate when the mean is ≳ a few slots.
    #[must_use]
    pub fn approx_mean(&self) -> f64 {
        match *self {
            Self::Geometric { p } => 1.0 / p,
            Self::Weibull { scale, shape } => scale * gamma_fn(1.0 + 1.0 / shape) + 0.5,
            Self::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp() + 0.5,
            Self::Deterministic { t } => t as f64,
            Self::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
        }
    }
}

/// Lanczos approximation of the Gamma function (g = 7, n = 9 coefficients),
/// accurate to ~1e-13 for positive arguments — used only for mean reporting.
#[must_use]
pub fn gamma_fn(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;
    use vg_des::stats::OnlineStats;

    fn sample_mean(d: &SojournDist, n: u64, seed: u64) -> f64 {
        let mut rng = SeedPath::root(seed).rng();
        let mut s = OnlineStats::new();
        for _ in 0..n {
            s.push(d.sample(&mut rng) as f64);
        }
        s.mean()
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn all_samples_are_at_least_one() {
        let dists = [
            SojournDist::Geometric { p: 0.9 },
            SojournDist::Weibull {
                scale: 0.3,
                shape: 0.7,
            },
            SojournDist::LogNormal {
                mu: -1.0,
                sigma: 0.5,
            },
            SojournDist::Deterministic { t: 1 },
            SojournDist::Uniform { lo: 1, hi: 3 },
        ];
        let mut rng = SeedPath::root(1).rng();
        for d in &dists {
            for _ in 0..1000 {
                assert!(d.sample(&mut rng) >= 1, "{d:?}");
            }
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let d = SojournDist::Geometric { p: 0.125 };
        let mean = sample_mean(&d, 200_000, 2);
        assert!((mean - 8.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_p1_is_always_one() {
        let d = SojournDist::Geometric { p: 1.0 };
        let mut rng = SeedPath::root(3).rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn geometric_is_memoryless() {
        // P(T > s+t | T > s) == P(T > t): compare empirical tail ratios.
        let d = SojournDist::Geometric { p: 0.2 };
        let mut rng = SeedPath::root(4).rng();
        let n = 200_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let tail = |t: u64| samples.iter().filter(|&&x| x > t).count() as f64 / n as f64;
        let conditional = tail(5) / tail(2); // P(T>5 | T>2)
        let unconditional = tail(3);
        assert!(
            (conditional - unconditional).abs() < 0.01,
            "{conditional} vs {unconditional}"
        );
    }

    #[test]
    fn weibull_mean_matches_analytic() {
        let d = SojournDist::Weibull {
            scale: 20.0,
            shape: 1.5,
        };
        let mean = sample_mean(&d, 200_000, 5);
        assert!(
            (mean - d.approx_mean()).abs() < 0.3,
            "mean {mean} vs {}",
            d.approx_mean()
        );
    }

    #[test]
    fn weibull_shape1_is_exponential() {
        // Weibull(λ, 1) = Exponential(mean λ).
        let d = SojournDist::Weibull {
            scale: 10.0,
            shape: 1.0,
        };
        let mean = sample_mean(&d, 200_000, 6);
        assert!((mean - 10.5).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let d = SojournDist::LogNormal {
            mu: 2.0,
            sigma: 0.5,
        };
        let mean = sample_mean(&d, 300_000, 7);
        assert!(
            (mean - d.approx_mean()).abs() < 0.3,
            "mean {mean} vs {}",
            d.approx_mean()
        );
    }

    #[test]
    fn deterministic_and_uniform() {
        let mut rng = SeedPath::root(8).rng();
        let d = SojournDist::Deterministic { t: 7 };
        assert_eq!(d.sample(&mut rng), 7);
        assert_eq!(d.approx_mean(), 7.0);

        let u = SojournDist::Uniform { lo: 2, hi: 4 };
        let mut seen = [false; 5];
        for _ in 0..500 {
            let x = u.sample(&mut rng);
            assert!((2..=4).contains(&x));
            seen[x as usize] = true;
        }
        assert!(seen[2] && seen[3] && seen[4]);
        assert_eq!(u.approx_mean(), 3.0);
    }

    #[test]
    fn validate_catches_bad_parameters() {
        assert!(SojournDist::Geometric { p: 0.0 }.validate().is_err());
        assert!(SojournDist::Geometric { p: 1.5 }.validate().is_err());
        assert!(SojournDist::Weibull {
            scale: 0.0,
            shape: 1.0
        }
        .validate()
        .is_err());
        assert!(SojournDist::LogNormal {
            mu: 0.0,
            sigma: 0.0
        }
        .validate()
        .is_err());
        assert!(SojournDist::Deterministic { t: 0 }.validate().is_err());
        assert!(SojournDist::Uniform { lo: 3, hi: 2 }.validate().is_err());
        assert!(SojournDist::Uniform { lo: 0, hi: 2 }.validate().is_err());
        assert!(SojournDist::Geometric { p: 0.5 }.validate().is_ok());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SeedPath::root(9).rng();
        let mut s = OnlineStats::new();
        for _ in 0..200_000 {
            s.push(standard_normal(&mut rng));
        }
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.02, "var {}", s.variance());
    }

    #[test]
    fn weibull_small_shape_is_heavy_tailed() {
        // shape < 1: coefficient of variation > 1.
        let d = SojournDist::Weibull {
            scale: 10.0,
            shape: 0.5,
        };
        let mut rng = SeedPath::root(10).rng();
        let mut s = OnlineStats::new();
        for _ in 0..100_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        let cv = s.std_dev() / s.mean();
        assert!(cv > 1.2, "cv {cv}");
    }
}

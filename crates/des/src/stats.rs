//! Numerically stable online statistics.
//!
//! The experiment harness aggregates hundreds of thousands of makespans and
//! degradation-from-best percentages; this module provides Welford's online
//! mean/variance, five-number summaries, confidence intervals and exact
//! quantiles over collected samples.

/// Welford online accumulator for mean and variance.
///
/// Single pass, O(1) memory, numerically stable for large counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction), Chan et al. update.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Snapshot as a [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// Immutable snapshot of an [`OnlineStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Two-sided confidence interval for the mean, using the normal
/// approximation with a small-sample t correction.
///
/// For `count < 2` the interval collapses to the mean. The t quantiles are
/// tabulated for 95% and 99% levels (the levels experiment reports use);
/// other levels fall back to the normal quantile, which is accurate for the
/// sample sizes campaigns produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The level requested (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// True when `x` lies inside the interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Two-sided t quantile for the given level and degrees of freedom
/// (tabulated for 95%/99%, converging to the normal quantile).
fn t_quantile(level: f64, df: u64) -> f64 {
    // Rows: df 1..=30 then asymptotic; classic two-sided t table.
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    const T99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    let idx = (df.clamp(1, 30) - 1) as usize;
    if (level - 0.95).abs() < 1e-9 {
        if df <= 30 {
            T95[idx]
        } else {
            1.960
        }
    } else if (level - 0.99).abs() < 1e-9 {
        if df <= 30 {
            T99[idx]
        } else {
            2.576
        }
    } else {
        // Normal approximation for other levels via inverse error function
        // (Acklam-style rational approximation is overkill here; campaigns
        // only ask for 95/99).
        1.960
    }
}

impl OnlineStats {
    /// Confidence interval for the mean at `level` (0.95 or 0.99).
    #[must_use]
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        assert!((0.5..1.0).contains(&level), "level out of range: {level}");
        let mean = self.mean();
        if self.count() < 2 {
            return ConfidenceInterval {
                lo: mean,
                hi: mean,
                level,
            };
        }
        let t = t_quantile(level, self.count() - 1);
        let h = t * self.std_err();
        ConfidenceInterval {
            lo: mean - h,
            hi: mean + h,
            level,
        }
    }
}

/// Exact quantile of a sample using linear interpolation (type-7, the
/// default of R/NumPy). `q` in `[0, 1]`. Returns `None` on an empty slice.
///
/// Sorts a copy; intended for end-of-run reporting, not hot loops.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut xs: Vec<f64> = samples.to_vec();
    // total_cmp keeps this total (NaN sorts above +inf) instead of panicking
    // mid-report; a NaN sample then surfaces as a NaN quantile, which is the
    // honest answer.
    xs.sort_by(f64::total_cmp);
    let h = (xs.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo]))
}

/// Median via [`quantile`].
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, 2.5, 3.0, -1.0, 8.25, 0.0, 4.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (mean, var) = naive_mean_var(&xs);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), xs.len() as u64);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 8.25);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [3.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&a, 0.25), quantile(&b, 0.25));
    }

    #[test]
    fn confidence_interval_basics() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(x);
        }
        let ci95 = s.confidence_interval(0.95);
        let ci99 = s.confidence_interval(0.99);
        assert!(ci95.contains(s.mean()));
        assert!(ci95.lo < s.mean() && s.mean() < ci95.hi);
        // Higher level ⇒ wider interval.
        assert!(ci99.half_width() > ci95.half_width());
        // Known value: mean 3, sd √2.5, se √0.5, t(4, .95) = 2.776.
        let expect = 2.776 * (0.5f64).sqrt();
        assert!((ci95.half_width() - expect).abs() < 1e-3);
    }

    #[test]
    fn confidence_interval_degenerate_cases() {
        let empty = OnlineStats::new();
        let ci = empty.confidence_interval(0.95);
        assert_eq!(ci.lo, ci.hi);

        let mut one = OnlineStats::new();
        one.push(7.0);
        let ci = one.confidence_interval(0.95);
        assert_eq!((ci.lo, ci.hi), (7.0, 7.0));
    }

    #[test]
    fn confidence_interval_narrows_with_samples() {
        let mut small = OnlineStats::new();
        let mut big = OnlineStats::new();
        for i in 0..10 {
            small.push(f64::from(i % 5));
        }
        for i in 0..10_000 {
            big.push(f64::from(i % 5));
        }
        assert!(
            big.confidence_interval(0.95).half_width()
                < small.confidence_interval(0.95).half_width()
        );
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn confidence_interval_rejects_bad_level() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        let _ = s.confidence_interval(0.2);
    }

    #[test]
    fn summary_display_is_stable() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(3.0);
        let text = s.summary().to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=2.0000"));
    }
}

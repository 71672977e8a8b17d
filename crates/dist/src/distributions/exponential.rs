//! The exponential distribution — the memoryless baseline.
//!
//! Most pre-existing task-assignment literature (paper §1.3) assumed
//! exponentially distributed service requirements, under which
//! Least-Work-Left is known to be optimal. We implement it both as the
//! interarrival distribution of the Poisson process and as a light-tailed
//! contrast workload.

use crate::rng::Rng64;
use crate::traits::{DistError, Distribution};

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential with rate `rate` (> 0).
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(DistError::new(format!("rate = {rate} must be positive and finite")));
        }
        Ok(Self { rate })
    }

    /// Create an exponential with the given mean (> 0).
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DistError::new(format!("mean = {mean} must be positive and finite")));
        }
        Ok(Self { rate: 1.0 / mean })
    }

    /// The rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Exponential {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, rng: &mut Rng64) -> f64 {
        rng.standard_exponential() / self.rate
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        if p >= 1.0 {
            f64::INFINITY
        } else {
            -(-p).ln_1p() / self.rate
        }
    }

    fn raw_moment(&self, k: i32) -> f64 {
        if k >= 0 {
            // E[X^k] = k! / λ^k
            let mut fact = 1.0;
            for i in 2..=k {
                fact *= f64::from(i);
            }
            fact / self.rate.powi(k)
        } else {
            // E[X^{-m}] diverges for the exponential (density positive at 0)
            f64::INFINITY
        }
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        // Closed forms via incomplete gamma for k >= 0:
        // E[X^k; a<X<=b] = λ^{-k} [ P(k+1, λb) − P(k+1, λa) ] · k!
        if b <= a {
            return 0.0;
        }
        let a = a.max(0.0);
        if k >= 0 {
            let kk = f64::from(k);
            let mut fact = 1.0;
            for i in 2..=k {
                fact *= f64::from(i);
            }
            let lo = crate::special::reg_gamma_lower(kk + 1.0, self.rate * a);
            let hi = crate::special::reg_gamma_lower(kk + 1.0, self.rate * b);
            fact / self.rate.powi(k) * (hi - lo)
        } else if a > 0.0 {
            // finite because the interval excludes 0: numeric fallback
            let b = if b.is_finite() { b } else { self.quantile(1.0 - 1e-14) };
            crate::numeric::integrate(
                |x| x.powi(k) * self.rate * (-self.rate * x).exp(),
                a,
                b,
                256,
            )
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
    }

    #[test]
    fn moments_closed_form() {
        let d = Exponential::new(0.5).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.raw_moment(2) - 8.0).abs() < 1e-12); // 2!/0.25
        assert!((d.raw_moment(3) - 48.0).abs() < 1e-12); // 6/0.125
        assert!((d.variance() - 4.0).abs() < 1e-12);
        assert!((d.scv() - 1.0).abs() < 1e-12);
        assert_eq!(d.raw_moment(-1), f64::INFINITY);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Exponential::new(3.0).unwrap();
        for &p in &[0.01, 0.3, 0.5, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
        assert_eq!(d.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn sample_mean_matches() {
        let d = Exponential::with_mean(7.0).unwrap();
        let mut rng = Rng64::seed_from(31);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((sum / n as f64 - 7.0).abs() < 0.1);
    }

    #[test]
    fn partial_moment_full_range_is_raw() {
        let d = Exponential::new(2.0).unwrap();
        for k in [0i32, 1, 2, 3] {
            let pm = d.partial_moment(k, 0.0, f64::INFINITY);
            let raw = d.raw_moment(k);
            assert!((pm - raw).abs() / raw.max(1e-300) < 1e-10, "k = {k}");
        }
    }

    #[test]
    fn partial_moment_additive() {
        let d = Exponential::new(1.0).unwrap();
        let whole = d.partial_moment(2, 0.0, 10.0);
        let split = d.partial_moment(2, 0.0, 2.0) + d.partial_moment(2, 2.0, 10.0);
        assert!((whole - split).abs() < 1e-10);
    }

    #[test]
    fn negative_partial_moment_away_from_zero_is_finite() {
        let d = Exponential::new(1.0).unwrap();
        let m = d.partial_moment(-1, 1.0, f64::INFINITY);
        // E[1/X; X>1] = ∫_1^∞ e^{-x}/x dx = E1(1) ≈ 0.21938
        assert!((m - 0.219_383_934).abs() < 1e-4, "m = {m}");
        assert_eq!(d.partial_moment(-1, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn memorylessness_statistically() {
        // P(X > s + t | X > s) == P(X > t)
        let d = Exponential::new(1.0).unwrap();
        let p_cond = (1.0 - d.cdf(3.0)) / (1.0 - d.cdf(2.0));
        let p_plain = 1.0 - d.cdf(1.0);
        assert!((p_cond - p_plain).abs() < 1e-12);
    }
}
